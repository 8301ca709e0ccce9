"""Finite modules over finite rings.

Same dense indexing conventions as rings: element 0 is the zero of the
module. Bounded-factorization analysis runs on the module divisor graph
(edges x -> y labeled by a nonunit r with x = r*y; node 0 excluded, since
a chain through 0 would force the source to be 0).
"""

from __future__ import annotations

from array import array
from functools import reduce
from typing import Callable, Iterable

import networkx as nx

from .errors import CapacityExceeded, InvalidConstruction
from .rings import (
    DEFAULT_SIZE_CAP,
    IDEAL_COUNT_CAP,
    FiniteRing,
    Ideal,
    chain_height,
    check_size,
    close_under_addition,
    coset_classes,
    digitwise,
    jacobson_radical,
    lattice_by_sums,
    nonunits,
    pair_table,
    quotient_table,
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
        render: Callable[[int], str] | None = None,
    ):
        self.ring = ring
        self.size = len(neg_table)
        self.add_table = add_table
        self.neg_table = neg_table
        self.act_table = act_table
        self.zero = 0
        self.label = label or f"mod{self.size}"
        self._render = render or str
        self._cache: dict = {}

    def add(self, x: int, y: int) -> int:
        return self.add_table[x][y]

    def neg(self, x: int) -> int:
        return self.neg_table[x]

    def act(self, r: int, x: int) -> int:
        return self.act_table[r][x]

    def elements(self) -> range:
        return range(self.size)

    def render(self, x: int) -> str:
        return self._render(x)

    def __repr__(self):
        return f"FiniteModule({self.label} over {self.ring.label}, size={self.size})"


def make_self_module(R: FiniteRing) -> FiniteModule:
    return FiniteModule(R, R.add_table, R.neg_table, R.mul_table,
                        label=f"{R.label}-self", render=R.render)


def make_free(R: FiniteRing, k: int, *, cap: int = DEFAULT_SIZE_CAP) -> FiniteModule:
    if k < 1:
        raise InvalidConstruction(f"free module needs rank k >= 1, got {k}")
    if k == 1:
        return make_self_module(R)
    check_size(R.size ** k, "free module", cap)
    n = R.size

    def render(x):
        coords = []
        for _ in range(k):
            x, c = divmod(x, n)
            coords.append(R.render(c))
        return "(" + ",".join(coords) + ")"

    return FiniteModule(
        R,
        reduce(pair_table, [R.add_table] * k),
        digitwise(R.neg_table, k),
        [digitwise(row, k) for row in R.mul_table],
        label=f"{R.label}^{k}",
        render=render,
    )


def submodule_generated(M: FiniteModule, gens: Iterable[int]) -> frozenset:
    members = set()
    for g in gens:
        members |= cyclic_submodule(M, g)
    return close_under_addition(M.add_table, members)


def cyclic_submodule(M: FiniteModule, x: int) -> frozenset:
    # Rx is already closed under addition and the action
    return frozenset(row[x] for row in M.act_table)


def annihilator_of(M: FiniteModule, x: int) -> Ideal:
    return Ideal(M.ring, frozenset(r for r, row in enumerate(M.act_table) if row[x] == M.zero))


def quotient_module(M: FiniteModule, gens: Iterable[int]) -> FiniteModule:
    N = submodule_generated(M, gens)
    cls, reps = coset_classes(M.add_table, N)
    return FiniteModule(
        M.ring,
        quotient_table(M.add_table, cls, reps),
        array("H", [cls[M.neg_table[x]] for x in reps]),
        [array("H", [cls[row[x]] for x in reps]) for row in M.act_table],
        label=f"{M.label}/N{len(N)}",
        render=lambda x: f"[{M.render(reps[x])}]",
    )


def all_submodules(M: FiniteModule) -> list[frozenset]:
    if "all_submodules" not in M._cache:
        cyclic = {cyclic_submodule(M, x) for x in M.elements()}
        seen = lattice_by_sums(M.add_table, cyclic, cap=IDEAL_COUNT_CAP, label=M.label)
        M._cache["all_submodules"] = sorted(seen, key=lambda m: (len(m), sorted(m)))
    return M._cache["all_submodules"]


# ---------------------------------------------------------------------------
# semisimplicity


def is_semisimple(M: FiniteModule) -> bool:
    """J(R)M = 0 criterion (R/J(R) is a finite product of fields)."""
    J = jacobson_radical(M.ring)
    return all(M.act_table[r].count(M.zero) == M.size for r in J.members)


def is_semisimple_oracle(M: FiniteModule, *, cap: int = 4096) -> bool:
    """Definitional check: the simple submodules sum to M."""
    if M.ring.size * M.size > cap:
        raise CapacityExceeded("semisimple oracle capped")
    simples = []
    for x in M.elements():
        N = cyclic_submodule(M, x)
        if len(N) == 1:
            continue
        if all(cyclic_submodule(M, y) == N for y in N if y != M.zero):
            simples.append(N)
    total = close_under_addition(M.add_table, set().union(*simples))
    return len(total) == M.size


# ---------------------------------------------------------------------------
# chain conditions and bounded factorization


def is_accc(M: FiniteModule) -> tuple[bool, int]:
    """Always true at finite scale; returns the cyclic-submodule chain height."""
    return True, chain_height(cyclic_submodule(M, x) for x in M.elements())


def divisor_graph_over(act_table: list[array], size: int, scalars: Iterable[int]) -> nx.DiGraph:
    """Nodes 1..size-1; edge x -> y labeled r, the least scalar with x = r*y != 0."""
    rows = [(r, act_table[r]) for r in sorted(scalars)]
    G = nx.DiGraph()
    G.add_nodes_from(range(1, size))
    for y in range(1, size):
        first: dict[int, int] = {}
        for r, row in rows:
            first.setdefault(row[y], r)
        first.pop(0, None)
        G.add_edges_from((x, y, {"label": r}) for x, r in first.items())
    return G


def cycle_witness(G: nx.DiGraph) -> dict:
    edges = nx.find_cycle(G)
    return {
        "cycle": [u for u, _ in edges],
        "labels": [G.edges[u, v]["label"] for u, v in edges],
    }


def module_divisor_graph(M: FiniteModule) -> nx.DiGraph:
    if "divisor_graph" not in M._cache:
        M._cache["divisor_graph"] = divisor_graph_over(M.act_table, M.size, nonunits(M.ring))
    return M._cache["divisor_graph"]


def is_bfm(M: FiniteModule) -> tuple[bool, dict]:
    """Bounded-factorization property, via acyclicity of the divisor graph.

    Witness: a reachable cycle when unbounded, otherwise the per-element
    bound vector (longest path counts the nonunit scalars consumed).
    """
    G = module_divisor_graph(M)
    if not nx.is_directed_acyclic_graph(G):
        return False, cycle_witness(G)
    order = list(nx.topological_sort(G))
    bound = {v: 0 for v in G.nodes}
    for v in reversed(order):
        for _, t in G.out_edges(v):
            bound[v] = max(bound[v], 1 + bound[t])
    return True, {"bounds": {x: bound[x] for x in sorted(bound)}}


def bfm_bounds_oracle(M: FiniteModule, *, cap: int = 1024) -> dict:
    """Depth-capped brute force; complete by pigeonhole on suffix values.

    Returns per nonzero element the max chain length, None for unbounded.
    """
    if M.ring.size * M.size > cap:
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


def check_module_axioms(M: FiniteModule, *, cap: int = 4096) -> None:
    if M.ring.size * M.size > cap:
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
