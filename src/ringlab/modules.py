"""Finite modules over finite rings.

Same dense indexing conventions as rings: element 0 is the zero of the
module. Bounded factorization is decided by one scan for a self-loop
x = bx, x != 0 and b a nonunit, which ``factor.is_presimplifiable`` reads
on a ring over itself.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from .errors import InvalidConstruction
from .rings import (
    DEFAULT_SIZE_CAP,
    FiniteRing,
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


# ---------------------------------------------------------------------------
# bounded factorization


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
