"""Factorization references that only the tests call.

Factorization lengths of single elements come from a depth-first search
of the element divisor graph; the brute-force oracles layer products of
exactly k nonunits instead. The module divisor graph and its search
heights are the reference for ``modules.is_bfm``, which decides BFM by a
self-loop scan: ``reference_is_bfm`` returns the graph's first cycle, or
the longest chain of nonunit scalars below each nonzero element.
``is_ufr_bouvier`` reads Bouvier's classification as a UFR verdict.
"""

from ringlab.errors import CapacityExceeded, InvalidQuery, RinglabError
from ringlab.factor import DivisorGraph, _atom_multisets, bouvier_class, divisor_graph, search
from ringlab.modules import FiniteModule
from ringlab.rings import FiniteRing, is_unit, nonunits, units


class UnboundedElement(RinglabError):
    pass


def max_factorization_length(R: FiniteRing, a: int) -> tuple[int | None, dict]:
    """Sup of n over factorizations a = r_1 ... r_n into nonunits.

    None means unbounded; the witness is then a reachable cycle, else an
    explicit factor list realizing the maximum.
    """
    if a == R.zero or is_unit(R, a):
        raise InvalidQuery("BF analysis applies to nonzero nonunits")
    G = divisor_graph(R)
    witness, height = search(G, [a], units(R))
    if witness:
        return None, witness
    # walk down the longest path, taking the least successor at each step
    succ, factors, v = G.succ, [], a
    while height[v] > 0:
        t = next(t for t in succ[v] if height[t] == height[v] - 1)
        factors.append(succ[v][t])
        v = t
    factors.append(v)
    return 1 + height[a], {"factors": factors}


def bf_lengths_oracle(R: FiniteRing) -> dict[int, int | None]:
    """Independent brute force: layered products of exactly k nonunits.

    Depth cap |R|+1 is complete by pigeonhole on suffix products. Returns
    the max length per nonzero nonunit, None for unbounded.
    """
    depth_cap = R.size + 1
    nus = sorted(nonunits(R))
    layer = nonunits(R) - {R.zero}
    reach: dict[int, int] = dict.fromkeys(layer, 1)
    k = 1
    while layer and k < depth_cap:
        k += 1
        layer = {a for s in nus for a in map(R.mul_table[s].__getitem__, layer)} - {R.zero}
        for a in layer:
            if a in reach:
                reach[a] = k
    return {a: (None if v >= depth_cap else v) for a, v in reach.items()}


def atom_factorizations(R: FiniteRing, a: int) -> set[tuple[int, ...]]:
    """All atom multisets with product a, canonicalized by associate-class reps.

    Requires a to have bounded factorization length, so that the recursion ends.
    """
    if a == R.zero or is_unit(R, a):
        raise InvalidQuery("atom factorizations apply to nonzero nonunits")
    length, _ = max_factorization_length(R, a)
    if length is None:
        raise UnboundedElement(f"element {a} has unbounded factorization length")
    return set(_atom_multisets(R, a))


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


def module_divisor_graph(M: FiniteModule) -> DivisorGraph:
    """Edge x -> y labeled r, the least nonunit scalar with x = r*y != 0.

    desc lists the nonunit scalars in descending order and column y lists
    r*y for r in desc, so a later, smaller scalar overwrites a larger one.
    """
    desc = sorted(nonunits(M.ring), reverse=True)
    columns = zip(*(M.act_table[r] for r in desc))
    succ: list[dict[int, int]] = [{} for _ in range(M.size)]
    for y, column in enumerate(columns):
        first = dict(zip(column, desc))
        first.pop(0, None)
        for x, r in first.items():
            succ[x][y] = r
    return DivisorGraph(succ)


def reference_is_bfm(M: FiniteModule) -> tuple[bool, dict]:
    """Bounded-factorization property, via acyclicity of the divisor graph.

    Witness: a reachable cycle when unbounded, otherwise the per-element
    bound vector (longest path counts the nonunit scalars consumed).
    """
    witness, height = search(module_divisor_graph(M), range(1, M.size))
    if witness:
        return False, witness
    return True, {"bounds": {x: height[x] for x in range(1, M.size)}}


def is_ufr_bouvier(R: FiniteRing) -> bool:
    return bouvier_class(R) != "none"
