"""Finite modules over finite rings.

Same dense indexing conventions as rings: element 0 is the zero of the
module. Bounded-factorization analysis runs on the module divisor graph
(edges x -> y labeled by a nonunit r with x = r*y; node 0 excluded, since
a chain through 0 would force the source to be 0).
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


class DivisorGraph:
    """Divisor graph on 1..size-1 as successor maps.

    succ[x][y] is the least nonunit scalar r with x = r*y != 0. The keys of
    each succ[x] ascend, and succ[0] is empty: node 0 is not in the graph.
    """

    __slots__ = ("succ",)

    def __init__(self, succ: list[dict[int, int]]):
        self.succ = succ

    def number_of_edges(self) -> int:
        return sum(map(len, self.succ))


def divisor_graph_over(columns: Iterable[Iterable[int]], size: int, desc: list[int]) -> DivisorGraph:
    """Edge x -> y labeled r, the least scalar in desc with x = r*y != 0.

    desc lists the nonunit scalars in descending order and column y lists
    r*y for r in desc, so a later, smaller scalar overwrites a larger one.
    """
    succ: list[dict[int, int]] = [{} for _ in range(size)]
    for y, column in enumerate(columns):
        first = dict(zip(column, desc))
        first.pop(0, None)
        for x, r in first.items():
            succ[x][y] = r
    return DivisorGraph(succ)


ON_PATH = -2  # search's height mark for nodes on the current path


def search(G: DivisorGraph, starts: Iterable[int], outside: Iterable[int] = ()) -> tuple:
    """One depth-first search of G from each unfinished start, in order.

    Successors are taken in ascending order and finished nodes are skipped;
    reported witnesses depend on that order. Nodes in ``outside`` count as
    finished sinks of height -1, so the search neither enters nor counts them.

    Returns (witness, height): the first cycle met as {"cycle": nodes,
    "labels": scalars} with cycle[k] = labels[k] * cycle[k+1], or None and
    then height[v], the most edges on a path from v, for each v reached.
    """
    succ = G.succ
    height: list = [None] * len(succ)
    for v in outside:
        height[v] = -1
    for s in starts:
        if height[s] is not None:
            continue
        height[s] = ON_PATH
        path, its = [s], [iter(succ[s])]
        while path:
            for y in its[-1]:
                if height[y] is None:
                    height[y] = ON_PATH
                    path.append(y)
                    its.append(iter(succ[y]))
                    break
                if height[y] == ON_PATH:
                    cycle = path[path.index(y):]
                    labels = [succ[u][v] for u, v in zip(cycle, cycle[1:] + cycle[:1])]
                    return {"cycle": cycle, "labels": labels}, height
            else:
                v = path.pop()
                its.pop()
                height[v] = 1 + max(map(height.__getitem__, succ[v]), default=-1)
    return None, height


def module_divisor_graph(M: FiniteModule) -> DivisorGraph:
    if "divisor_graph" not in M._cache:
        desc = sorted(nonunits(M.ring), reverse=True)
        columns = zip(*(M.act_table[r] for r in desc))
        M._cache["divisor_graph"] = divisor_graph_over(columns, M.size, desc)
    return M._cache["divisor_graph"]


def is_bfm(M: FiniteModule) -> tuple[bool, dict]:
    """Bounded-factorization property, via acyclicity of the divisor graph.

    Witness: a reachable cycle when unbounded, otherwise the per-element
    bound vector (longest path counts the nonunit scalars consumed).
    """
    witness, height = search(module_divisor_graph(M), range(1, M.size))
    if witness:
        return False, witness
    return True, {"bounds": {x: height[x] for x in range(1, M.size)}}


def bfm_bounds_oracle(M: FiniteModule) -> dict:
    """Depth-capped brute force, for |R||M| <= 1024; complete by pigeonhole on suffix values.

    Returns per nonzero element the max chain length, None for unbounded.
    """
    if M.ring.size * M.size > 1024:
        raise CapacityExceeded("bfm oracle capped")
    rows = [M.act_table[r] for r in sorted(nonunits(M.ring))]
    depth_cap = M.size + 1
    reach = {x: 0 for x in range(1, M.size)}
    layer = set(range(1, M.size))
    for k in range(1, depth_cap + 1):
        layer = {x for row in rows for x in map(row.__getitem__, layer)} - {M.zero}
        for x in layer:
            reach[x] = k
        if not layer:
            break
    return {x: (None if v >= depth_cap else v) for x, v in reach.items()}


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
