"""References that only the tests call.

Factorization lengths of single elements come from a depth-first search
(``search``) of the element divisor graph; the brute-force oracles layer
products of exactly k nonunits instead. The same search over the whole
graph is the reference for ``factor.is_bfr``, whose cycle finder reads the
first cycle off the self-loops without a search. The module divisor graph
and its search heights are the reference for ``modules.is_bfm``, which
decides BFM by a self-loop scan: ``reference_is_bfm`` returns the graph's
first cycle, or the longest chain of nonunit scalars below each nonzero
element. ``is_ufr_bouvier`` reads Bouvier's classification as a UFR
verdict.

The structure references are the routines the associate-class pass
replaced: principal ideals from one frozenset per row, maximal ideals and
minimal primes read off the whole ideal lattice, locality by the
nonunits' closure under every sum, and SPIR as "every ideal is
principal". ``chain_height`` compares every pair of principal ideals
for the heights that ``factor`` reads from each class's own ideal. The
idealization references check what ``idealization`` checks on generators
on every case instead: the ideal lattice closed from every principal
ideal, the shape of every product set by the definitional ``is_ideal``,
and the product formula on every ordered pair of homogeneous ideals. The
definitional checks (ring and module axioms, atoms, semisimplicity, ACCP
and ACCC) close the file.
"""

from typing import Iterable

from ringlab.errors import CapacityExceeded, InvalidQuery, RinglabError, TheoremViolation
from ringlab.factor import (
    DivisorGraph,
    _atom_multisets,
    _nonunit_starts,
    bouvier_class,
    divisor_graph,
    is_accp,
)
from ringlab.idealization import _acts_into, _shape_members, idealize
from ringlab.modules import FiniteModule, all_submodules, cyclic_submodule
from ringlab.rings import (
    FiniteRing,
    all_ideals,
    associate_class_rep,
    ideal_product,
    is_ideal,
    is_local,
    is_prime_ideal,
    is_unit,
    lattice_by_sums,
    maximal_ideal,
    multiples,
    nonunits,
    principal_ideals,
    subgroup_span,
    subgroup_sum,
    units,
)

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


def reference_first_cycle(R: FiniteRing) -> dict | None:
    """The cycle ``factor.is_bfr`` reported when it built the whole divisor graph."""
    return search(divisor_graph(R), _nonunit_starts(R), units(R))[0]


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


# ---------------------------------------------------------------------------
# structure references


def reference_units(R: FiniteRing) -> frozenset:
    """The a whose row holds one, compared entry by entry."""
    return frozenset(a for a, row in enumerate(R.mul_table) if R.one in row)


def reference_principal_ideals(R: FiniteRing) -> tuple[dict[frozenset, int], list[int]]:
    """(each distinct principal ideal -> its least generator, each element -> that generator),
    from one frozenset per row."""
    found: dict[frozenset, int] = {}
    rep = [found.setdefault(m, a) for a, m in enumerate(map(frozenset, R.mul_table))]
    return found, rep


def chain_height(family: Iterable[frozenset]) -> dict[frozenset, int]:
    """Each set's height: the length of the longest strict chain of the family's sets below it."""
    height: dict[frozenset, int] = {}
    for s in sorted(set(family), key=len):
        height[s] = max((h + 1 for t, h in height.items() if t < s), default=0)
    return height


def reference_principal_heights(R: FiniteRing) -> dict[int, int]:
    """Class representative -> principal-ideal chain height, comparing every pair of classes."""
    height = chain_height(principal_ideals(R))
    return {a: height[m] for m, a in principal_ideals(R).items()}


def reference_maximal_and_min_primes(R: FiniteRing) -> tuple[list[frozenset], list[frozenset]]:
    """The maximal ideals and the minimal primes, both read off the whole ideal lattice."""
    lattice = all_ideals(R)
    proper = [I for I in lattice if len(I) < R.size]
    # larger ideals first: an ideal that is not maximal lies in a maximal one already found
    maxi: list[frozenset] = []
    for I in reversed(proper):
        if not any(I < J for J in maxi):
            maxi.append(I)
    maxi.reverse()
    primes = [I for I in lattice if is_prime_ideal(R, I)]
    minp = [I for I in primes if not any(J < I for J in primes)]
    # dimension zero: both computations must agree on finite rings
    if set(maxi) != set(minp):
        raise TheoremViolation(f"maximal/min-prime mismatch on {R.label}")
    return maxi, minp


def reference_nonunits_closed(R: FiniteRing) -> bool:
    """Local iff the nonunits are closed under addition, read over every pair of nonunits."""
    nu = nonunits(R)
    at = R.add_table
    return all(nu.issuperset(map(at[a].__getitem__, nu)) for a in nu)


def reference_is_spir(R: FiniteRing) -> bool:
    """Special principal ideal ring: local, all ideals principal, m nilpotent."""
    if not is_local(R):
        return False
    pids = principal_ideals(R)
    if any(I not in pids for I in all_ideals(R)):
        return False
    m = maximal_ideal(R)
    p = m
    for _ in range(R.size):
        if p == {R.zero}:
            return True
        p = ideal_product(R, p, m)
    return p == {R.zero}


def reference_all_ideals(R: FiniteRing) -> list[frozenset]:
    """The full ideal lattice, by closing every principal ideal under sums (not cached)."""
    return lattice_by_sums(R.add_table, principal_ideals(R), R.label)


def ideal_sum(R: FiniteRing, I: frozenset, J: frozenset) -> frozenset:
    return subgroup_sum(R.add_table, I, J)


def annihilator_of(M: FiniteModule, x: int) -> frozenset:
    return frozenset(r for r, row in enumerate(M.act_table) if row[x] == M.zero)


# ---------------------------------------------------------------------------
# idealization references


def _homogeneous_ideals(
    R: FiniteRing, M: FiniteModule
) -> list[tuple[frozenset, frozenset]]:
    """All (I, N) with IM <= N; these are exactly the product-form ideals.

    Non-product ideals of R(+)M also exist (e.g. <(2,1)> in Z4(+)Z4),
    so the shape statement is checked on product sets, not asserted for
    the whole lattice.
    """
    out = []
    for I in all_ideals(R):
        for N in all_submodules(M):
            if _acts_into(M, I, N):
                out.append((I, N))
    return out


def reference_verify_ideal_shape(R: FiniteRing, M: FiniteModule) -> tuple[bool, dict]:
    """A product set I x N is an ideal of R(+)M exactly when IM <= N."""
    T = idealize(R, M)
    homogeneous = set()
    for I in all_ideals(R):
        for N in all_submodules(M):
            shaped = _shape_members(M, I, N)
            expected = _acts_into(M, I, N)
            if is_ideal(T, shaped) != expected:
                return False, {
                    "I": sorted(I), "N": sorted(N),
                    "IM_in_N": expected,
                }
            if expected:
                homogeneous.add(shaped)
    lattice = set(all_ideals(T))
    if homogeneous - lattice:
        bad = min(homogeneous - lattice, key=sorted)
        return False, {"reason": "product ideal missing from lattice",
                       "members": sorted(bad)}
    return True, {"homogeneous": len(homogeneous), "total_ideals": len(lattice)}


def reference_verify_ideal_product(R: FiniteRing, M: FiniteModule) -> tuple[bool, dict]:
    """(I1 x N1)(I2 x N2) = (I1 I2) x (I1 N2 + I2 N1) on product-form ideals.

    Every ordered pair is checked, so T's table is read at both (a, b) and (b, a).
    """
    T = idealize(R, M)
    shaped = [(I, N, _shape_members(M, I, N)) for I, N in _homogeneous_ideals(R, M)]
    # I1 I2 once per pair of ideals of R; rR = sR gives rN = sN, so IN is the sum of rN over class reps r in I
    products = {(I1, I2): ideal_product(R, I1, I2) for I1 in all_ideals(R) for I2 in all_ideals(R)}
    reps = {I: [r for r in principal_ideals(R).values() if r in I] for I in all_ideals(R)}
    for I1, N1, J1 in shaped:
        for I2, N2, J2 in shaped:
            lhs = ideal_product(T, J1, J2)
            acted = multiples(M.act_table, reps[I1], N2) | multiples(M.act_table, reps[I2], N1)
            rhs = _shape_members(M, products[I1, I2], subgroup_span(M.add_table, acted))
            if lhs != rhs:
                return False, {"J1": sorted(J1), "J2": sorted(J2),
                               "lhs": sorted(lhs), "rhs": sorted(rhs)}
    return True, {}


# ---------------------------------------------------------------------------
# definitional checks


def check_ring_axioms(R: FiniteRing) -> None:
    """Exhaustive commutative-ring axiom check, for |R| <= 64; raises on failure."""
    if R.size > 64:
        raise CapacityExceeded("axiom check capped at size 64")
    els = list(R.elements())
    for a in els:
        assert R.add(a, R.zero) == a
        assert R.add(a, R.neg(a)) == R.zero
        assert R.mul(a, R.one) == a
        for b in els:
            assert R.add(a, b) == R.add(b, a)
            assert R.mul(a, b) == R.mul(b, a)
            for c in els:
                assert R.add(R.add(a, b), c) == R.add(a, R.add(b, c))
                assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
                assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))


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


def associates(R: FiniteRing, a: int, b: int) -> bool:
    rep = associate_class_rep(R)
    return rep[a] == rep[b]


def is_atom(R: FiniteRing, a: int) -> bool:
    """The definition, element by element; ``atoms`` must agree with it."""
    if is_unit(R, a):
        raise InvalidQuery("atoms are nonunits")
    for b in R.elements():
        for c in R.elements():
            if R.mul(b, c) == a and not (associates(R, a, b) or associates(R, a, c)):
                return False
    return True


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


def is_accc(M: FiniteModule) -> tuple[bool, int]:
    """Always true at finite scale; returns the cyclic-submodule chain height."""
    return True, max(chain_height(map(frozenset, zip(*M.act_table))).values())  # column x is Rx


def check_theorem_accp(R: FiniteRing, M: FiniteModule) -> dict:
    """ACCP(R(+)M) <=> ACCP(R) and ACCC(M); vacuously true at finite scale."""
    T = idealize(R, M)
    accp_T, height_T = is_accp(T)
    accp_R, height_R = is_accp(R)
    accc_M, height_M = is_accc(M)
    return {
        "accp_T": accp_T,
        "accp_R": accp_R,
        "accc_M": accc_M,
        "equivalence_holds": accp_T == (accp_R and accc_M),
        "heights": {"T": height_T, "R": height_R, "M": height_M},
    }
