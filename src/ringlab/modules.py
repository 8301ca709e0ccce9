"""Finite modules over finite rings.

Same dense indexing conventions as rings: element 0 is the zero of the
module. Bounded factorization is decided by one scan for a self-loop
x = bx, x != 0 and b a nonunit, which ``factor.is_presimplifiable`` reads
on a ring over itself.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from .errors import CapacityExceeded, InvalidConstruction
from .rings import (
    DEFAULT_SIZE_CAP,
    FiniteRing,
    chain_height,
    check_size,
    coset_classes,
    digitwise,
    gather,
    jacobson_radical,
    lattice_by_sums,
    nonunits,
    power_table,
    quotient_table,
    subgroup_span,
)


class FiniteModule:
    """Tables like the ring carrier's: add_table[x][y] = x + y, act_table[r][x] = r*x."""

    def __init__(
        self,
        ring: FiniteRing,
        add_table: list[array],
        neg_table: array,
        act_table: list[array],
        *,
        label: str = "",
    ):
        self.ring = ring
        self.size = len(neg_table)
        self.add_table = add_table
        self.neg_table = neg_table
        self.act_table = act_table
        self.zero = 0
        self.label = label or f"mod{self.size}"
        self._cache: dict = {}

    def add(self, x: int, y: int) -> int:
        return self.add_table[x][y]

    def neg(self, x: int) -> int:
        return self.neg_table[x]

    def act(self, r: int, x: int) -> int:
        return self.act_table[r][x]

    def elements(self) -> range:
        return range(self.size)

    def __repr__(self):
        return f"FiniteModule({self.label} over {self.ring.label}, size={self.size})"


def make_self_module(R: FiniteRing) -> FiniteModule:
    return FiniteModule(R, R.add_table, R.neg_table, R.mul_table, label=f"{R.label}-self")


def make_free(R: FiniteRing, k: int, *, cap: int = DEFAULT_SIZE_CAP) -> FiniteModule:
    if k < 1:
        raise InvalidConstruction(f"free module needs rank k >= 1, got {k}")
    if k == 1:
        return make_self_module(R)
    check_size(R.size ** k, "free module", cap)
    return FiniteModule(
        R,
        power_table(R.add_table, k),
        digitwise(R.neg_table, k),
        [digitwise(row, k) for row in R.mul_table],
        label=f"{R.label}^{k}",
    )


def submodule_generated(M: FiniteModule, gens: Iterable[int]) -> frozenset:
    return subgroup_span(M.add_table, (cyclic_submodule(M, g) for g in gens))


def cyclic_submodule(M: FiniteModule, x: int) -> frozenset:
    # Rx is already closed under addition and the action
    return frozenset(row[x] for row in M.act_table)


def annihilator_of(M: FiniteModule, x: int) -> frozenset:
    return frozenset(r for r, row in enumerate(M.act_table) if row[x] == M.zero)


def quotient_module(M: FiniteModule, gens: Iterable[int]) -> FiniteModule:
    N = submodule_generated(M, gens)
    cls, reps = coset_classes(M.add_table, N)
    return FiniteModule(
        M.ring,
        quotient_table(gather(reps)(M.add_table), cls, reps),
        quotient_table([M.neg_table], cls, reps)[0],
        quotient_table(M.act_table, cls, reps),
        label=f"{M.label}/N{len(N)}",
    )


def all_submodules(M: FiniteModule) -> list[frozenset]:
    if "all_submodules" not in M._cache:
        cyclic = map(frozenset, zip(*M.act_table))  # column x is Rx
        M._cache["all_submodules"] = lattice_by_sums(M.add_table, cyclic, M.label)
    return M._cache["all_submodules"]


# ---------------------------------------------------------------------------
# semisimplicity


def is_semisimple(M: FiniteModule) -> bool:
    """J(R)M = 0 criterion (R/J(R) is a finite product of fields)."""
    return all(M.act_table[r].count(M.zero) == M.size for r in jacobson_radical(M.ring))


def is_semisimple_oracle(M: FiniteModule) -> bool:
    """Definitional check, for |R||M| <= 4096: the simple submodules sum to M."""
    if M.ring.size * M.size > 4096:
        raise CapacityExceeded("semisimple oracle capped")
    simples = []
    for x in M.elements():
        N = cyclic_submodule(M, x)
        if len(N) == 1:
            continue
        if all(cyclic_submodule(M, y) == N for y in N if y != M.zero):
            simples.append(N)
    return len(subgroup_span(M.add_table, simples)) == M.size


# ---------------------------------------------------------------------------
# chain conditions and bounded factorization


def is_accc(M: FiniteModule) -> tuple[bool, int]:
    """Always true at finite scale; returns the cyclic-submodule chain height."""
    return True, max(chain_height(map(frozenset, zip(*M.act_table))).values())  # column x is Rx


def self_loop(M: FiniteModule) -> tuple[int, int] | None:
    """The least nonunit b with bx = x for some x != 0, then the least such x; None if there is none.

    bx = x is (b-1)x = 0, so b-1 is a nonunit (a unit kills no x != 0) and
    its row of ``act_table`` has a zero past x = 0. A nonunit may still act
    injectively on M, so the row is read, not assumed.
    """
    R = M.ring
    nus = nonunits(R)
    less_one = R.add_table[R.neg(R.one)]  # less_one[b] = b - 1
    for b in range(R.size):
        c = less_one[b]
        if b in nus and c in nus and M.act_table[c].count(M.zero) > 1:
            return b, M.act_table[c].index(M.zero, 1)
    return None


def is_bfm(M: FiniteModule) -> tuple[bool, dict]:
    """Bounded-factorization property: no x = bx with x != 0 and b a nonunit.

    A cycle x_0 = r_1 x_1, ..., x_k = x_0 of nonunit scalars gives
    x_0 = (r_1 ... r_k) x_0, and that product is a nonunit, so a cycle exists
    iff a self-loop does. The witness names it as {"cycle": [x], "labels": [b]}.
    """
    loop = self_loop(M)
    if loop is None:
        return True, {}
    b, x = loop
    return False, {"cycle": [x], "labels": [b]}


def check_module_axioms(M: FiniteModule) -> None:
    """Exhaustive module axiom check, for |R||M| <= 4096; raises on failure."""
    if M.ring.size * M.size > 4096:
        raise CapacityExceeded("module axiom check capped")
    R = M.ring
    for x in M.elements():
        assert M.add(x, M.zero) == x
        assert M.add(x, M.neg(x)) == M.zero
        assert M.act(R.one, x) == x
        for y in M.elements():
            assert M.add(x, y) == M.add(y, x)
    for r in R.elements():
        for s in R.elements():
            for x in M.elements():
                assert M.act(R.add(r, s), x) == M.add(M.act(r, x), M.act(s, x))
                assert M.act(R.mul(r, s), x) == M.act(r, M.act(s, x))
        for x in M.elements():
            for y in M.elements():
                assert M.act(r, M.add(x, y)) == M.add(M.act(r, x), M.act(r, y))
