"""Factorization predicates over finite rings.

The workhorse is the divisor graph: a directed graph on the nonzero
carrier with an edge a -> t labeled s whenever a = s*t for a nonunit s.
Factorizations of a nonzero nonunit into n nonunits correspond to paths
of n-1 edges through nonzero nonunit suffixes, ending at the last
(nonunit) factor; an element has unbounded factorization length exactly
when a cycle is reachable from it. Zero is excluded everywhere here and
handled by the minimal-factorization machinery instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapacityExceeded, InvalidQuery, TheoremViolation, UnboundedElement
from .idealization import idealize
from .modules import DivisorGraph, FiniteModule, divisor_graph_over, is_accc, is_bfm, is_semisimple, search
from .rings import (
    FiniteRing,
    associate_class_rep,
    chain_height,
    ideal_product,
    is_field,
    is_local,
    is_reduced,
    is_spir,
    is_unit,
    maximal_ideal,
    min_primes,
    nonunits,
    principal_ideals,
    units,
)

# search nodes minimal_factorizations_of_zero may visit before CapacityExceeded
ZERO_SEARCH_BUDGET = 2_000_000

# ---------------------------------------------------------------------------
# associates and atoms


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


def atoms(R: FiniteRing) -> frozenset:
    """Nonunits a such that a = bc implies a ~ b or a ~ c, in one sweep.

    Each product a = bc with a associate to neither factor marks a. A
    unit factor never marks (a = bc with b a unit makes a ~ c), and the
    table is symmetric, so the sweep covers nonunit pairs b <= c.
    """
    if "atoms" not in R._cache:
        rep = associate_class_rep(R)
        nus = sorted(nonunits(R))
        broken = set()
        for i, b in enumerate(nus):
            row, rb = R.mul_table[b], rep[b]
            for c in nus[i:]:
                ra = rep[row[c]]
                if ra != rb and ra != rep[c]:
                    broken.add(row[c])
        R._cache["atoms"] = frozenset(nus) - broken
    return R._cache["atoms"]


# ---------------------------------------------------------------------------
# presimplifiable / ACCP


def is_presimplifiable(R: FiniteRing) -> tuple[bool, dict]:
    witness = None
    for b in sorted(nonunits(R)):
        row = R.mul_table[b]
        a = next((a for a in range(1, R.size) if row[a] == a), None)
        if a is not None:
            witness = {"a": a, "b": b}
            break
    # graph form: a self-loop a -> a labeled b is the same relation
    has_loop = any(v in s for v, s in enumerate(divisor_graph(R).succ))
    if (witness is None) != (not has_loop):
        raise TheoremViolation(f"presimplifiable cross-check failed on {R.label}")
    return (witness is None), (witness or {})


def is_accp(R: FiniteRing) -> tuple[bool, int]:
    """Always true at finite scale; returns the principal-ideal chain height."""
    return True, chain_height(principal_ideals(R))


# ---------------------------------------------------------------------------
# divisor graph and BF analysis


def divisor_graph(R: FiniteRing) -> DivisorGraph:
    """Nodes: nonzero elements. Edge a -> t labeled s iff a = s*t, s nonunit.

    A unit t has no out-edges (t = s*u would put t in the proper ideal sR),
    so searches of the nonunit part pass the units as ``outside``.
    """
    if "divisor_graph" not in R._cache:
        desc = sorted(nonunits(R), reverse=True)
        columns = (map(row.__getitem__, desc) for row in R.mul_table)  # mul_table is symmetric
        R._cache["divisor_graph"] = divisor_graph_over(columns, R.size, desc)
    return R._cache["divisor_graph"]


def _nonunit_starts(R: FiniteRing) -> list[int]:
    """The nonzero nonunits in the order the reported BFR witnesses were found in.

    Those witnesses were searched in a filtered view of the graph that
    walks the Python set of kept nodes, not the ascending carrier, when
    fewer than half the nodes are kept. Start order picks the first cycle,
    so it is kept as is to leave reports byte-identical.
    """
    nus = sorted(nonunits(R) - {R.zero})
    return list(set(nus)) if 2 * len(nus) < R.size - 1 else nus


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


def is_bfr(R: FiniteRing) -> tuple[bool, dict]:
    """BFR iff the nonzero-nonunit divisor graph is acyclic."""
    if "bfr" not in R._cache:
        witness, _ = search(divisor_graph(R), _nonunit_starts(R), units(R))
        if witness is None:
            R._cache["bfr"] = True, {}
        else:
            witness["element"] = witness["cycle"][0]
            R._cache["bfr"] = False, witness
    return R._cache["bfr"]


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


# ---------------------------------------------------------------------------
# minimal factorizations of zero / U-boundedness


def minimal_factorizations_of_zero(R: FiniteRing) -> list[tuple[int, ...]]:
    """Minimal factorizations 0 = a_1 ... a_n into nonunits, up to associates.

    Factors range over associate-class representatives only: replacing a
    factor by an associate multiplies every sub-multiset product by a
    unit, which preserves both zeroness and minimality, so lengths and
    existence are unaffected. A multiset is extended only while all of
    its sub-multiset products stay nonzero (any zero proper sub-product
    kills minimality). A repeated prefix product is pruned too: the
    factors between two equal prefix products could be dropped without
    changing the product, so the branch cannot end minimal; this bounds
    the depth by |R|.
    """
    rep = associate_class_rep(R)
    reps = sorted({rep[a] for a in nonunits(R)})
    found: list[tuple[int, ...]] = []
    budget = [ZERO_SEARCH_BUDGET]

    def extend(prefix: list[int], strict_prods: frozenset, prefix_prods: frozenset,
               full_prod: int, start: int):
        if budget[0] <= 0:
            raise CapacityExceeded("minimal-factorization search budget exhausted")
        budget[0] -= 1
        for i in range(start, len(reps)):
            a = reps[i]
            times_a = R.mul_table[a]
            pa = times_a[full_prod]
            strict_times_a = set(map(times_a.__getitem__, strict_prods))
            if pa == R.zero:
                if R.zero not in strict_times_a:
                    found.append(tuple(prefix + [a]))
                continue
            if R.zero in strict_times_a or pa in prefix_prods:
                continue
            extend(
                prefix + [a],
                strict_prods | strict_times_a | {full_prod},
                prefix_prods | {pa},
                pa,
                i,
            )

    extend([], frozenset(), frozenset({R.one}), R.one, 0)
    return sorted(found, key=lambda f: (len(f), f))


def u_boundedness_of_zero(R: FiniteRing) -> tuple[bool, int, tuple[int, ...] | None]:
    """(always-true flag, max minimal factorization length of 0, witness)."""
    facts = minimal_factorizations_of_zero(R)
    if not facts:
        return True, 0, None
    best = max(facts, key=len)
    return True, len(best), best


# ---------------------------------------------------------------------------
# atomicity and UFR


def atom_divisors(R: FiniteRing) -> dict[int, list[tuple[int, int]]]:
    """x -> [(p, t) : p*t = x] over nonzero atoms p and nonzero nonunits t, for x != 0."""
    if "atom_divisors" not in R._cache:
        ts = sorted(nonunits(R) - {R.zero})
        index: dict[int, list[tuple[int, int]]] = {}
        for p in sorted(atoms(R) - {R.zero}):
            for t, x in zip(ts, map(R.mul_table[p].__getitem__, ts)):
                if x != R.zero:
                    index.setdefault(x, []).append((p, t))
        R._cache["atom_divisors"] = index
    return R._cache["atom_divisors"]


def is_atomic(R: FiniteRing) -> tuple[bool, dict]:
    """Every nonzero nonunit is a product of atoms (least fixpoint)."""
    ats = atoms(R)
    nus = nonunits(R)
    divs = atom_divisors(R)
    targets = [a for a in range(1, R.size) if a in nus]
    good = set(a for a in targets if a in ats)
    changed = True
    while changed:
        changed = False
        for a in targets:
            if a not in good and any(t in good for _, t in divs.get(a, ())):
                good.add(a)
                changed = True
    bad = [a for a in targets if a not in good]
    if bad:
        return False, {"element": bad[0]}
    return True, {}


def atom_factorizations(R: FiniteRing, a: int) -> set[tuple[int, ...]]:
    """All atom multisets with product a, canonicalized by associate-class reps.

    Requires a to have bounded factorization length (the recursion walks
    the acyclic part of the divisor graph).
    """
    if a == R.zero or is_unit(R, a):
        raise InvalidQuery("atom factorizations apply to nonzero nonunits")
    length, _ = max_factorization_length(R, a)
    if length is None:
        raise UnboundedElement(f"element {a} has unbounded factorization length")
    return set(_atom_multisets(R, a))


def _atom_multisets(R: FiniteRing, a: int) -> set[tuple[int, ...]]:
    """atom_factorizations without the boundedness check, memoized on the ring.

    Every divisor chain below a must be finite, so each stored set is complete.
    """
    memo = R._cache.setdefault("atom_multisets", {})
    ats = atoms(R)
    rep = associate_class_rep(R)
    divs = atom_divisors(R)

    def fac(x: int) -> set:
        if x not in memo:
            res: set[tuple[int, ...]] = {(rep[x],)} if x in ats else set()
            for p, t in divs.get(x, ()):
                for rest in fac(t):
                    res.add(tuple(sorted((rep[p],) + rest)))
            memo[x] = res
        return memo[x]

    return fac(a)


def is_ufr_direct(R: FiniteRing) -> tuple[bool, dict]:
    """Unique factorization ring, decided from first principles."""
    bfr, wit = is_bfr(R)
    if not bfr:
        return False, {"reason": "not_bfr", **wit}
    atomic, wit = is_atomic(R)
    if not atomic:
        return False, {"reason": "not_atomic", **wit}
    # a BFR bounds every element, as atom_factorizations requires
    nus = nonunits(R)
    for a in range(1, R.size):
        if a not in nus:
            continue
        facs = _atom_multisets(R, a)
        if len(facs) != 1:
            two = sorted(facs)[:2]
            return False, {"reason": "non_unique", "element": a, "multisets": two}
    return True, {}


def bouvier_class(R: FiniteRing) -> str:
    """Bouvier's trichotomy; a finite UFD is a field."""
    if is_field(R):
        return "field-UFD"
    if is_local(R):
        m = maximal_ideal(R)
        if ideal_product(R, m, m) == {R.zero}:
            return "local-squarezero"
    if is_spir(R):
        return "SPIR"
    return "none"


def is_ufr_bouvier(R: FiniteRing) -> bool:
    return bouvier_class(R) != "none"


# ---------------------------------------------------------------------------
# theorem checkers


@dataclass
class UfrTheoremReport:
    ufr_direct: bool
    local_m2_mM: bool
    local_m2_semisimple: bool
    presimplifiable_all_atoms: bool
    all_agree: bool
    witness: dict = field(default_factory=dict)


def check_theorem_ufr(R: FiniteRing, M: FiniteModule) -> UfrTheoremReport:
    """Four-way UFR equivalence for R(+)M with M nonzero."""
    if M.size <= 1:
        raise InvalidQuery("the UFR equivalence needs a nonzero module")
    T = idealize(R, M)

    c1, w1 = is_ufr_direct(T)

    c2 = c3 = False
    if is_local(R):
        m = maximal_ideal(R)
        m2_zero = ideal_product(R, m, m) == {R.zero}
        if m2_zero:
            c2 = all(M.act_table[r].count(M.zero) == M.size for r in m)
            c3 = is_semisimple(M)

    pres, _ = is_presimplifiable(T)
    c4 = pres and nonunits(T) - {T.zero} <= atoms(T)

    agree = c1 == c2 == c3 == c4
    return UfrTheoremReport(c1, c2, c3, c4, agree, w1 if not c1 else {})


@dataclass
class BfrPropositionReport:
    bfr_T: bool
    bfr_R: bool
    bfm_M: bool
    zero_max_minimal_len: int
    impl_a_premise: bool
    impl_a_ok: bool
    impl_b_premise: bool
    impl_b_ok: bool


def check_prop_bfr(R: FiniteRing, M: FiniteModule) -> BfrPropositionReport:
    """Both implications relating BFR(R(+)M) to BFR(R), BFM(M), U-bounded 0."""
    T = idealize(R, M)
    bfr_T, _ = is_bfr(T)
    bfr_R, _ = is_bfr(R)
    bfm_M, _ = is_bfm(M)
    _, maxlen, _ = u_boundedness_of_zero(R)
    # 0 is always U-bounded at finite scale, so premise (b) reduces to the first two
    impl_a_ok = (not bfr_T) or (bfr_R and bfm_M)
    impl_b_premise = bfr_R and bfm_M
    impl_b_ok = (not impl_b_premise) or bfr_T
    return BfrPropositionReport(
        bfr_T, bfr_R, bfm_M, maxlen, bfr_T, impl_a_ok, impl_b_premise, impl_b_ok
    )


@dataclass
class UboundedLemmaReport:
    reduced: bool
    min_prime_count: int
    zero_max_minimal_len: int
    refinement_bound_holds: bool | None


def check_lemma_ubounded(R: FiniteRing) -> UboundedLemmaReport:
    """Part 1 is vacuous at finite scale; part 2 bounds minimal lengths by |Min(R)|."""
    reduced = is_reduced(R)
    nmin = len(min_primes(R))
    _, maxlen, _ = u_boundedness_of_zero(R)
    holds = (maxlen <= nmin) if reduced else None
    return UboundedLemmaReport(reduced, nmin, maxlen, holds)


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
