"""Factorization predicates over finite rings, decided on associate classes.

In a finite ring aR = bR gives a = ub for a unit u. Every predicate here
respects associates, so each is decided once per class, on its least
element (a value of ``principal_ideals``), and a witness is the least
element of its class. The divisor graph has an edge a -> t labeled s iff
a = s*t for a nonunit s, so aR lies in tR and a cycle is a class self-loop
x ~ s*x, that is ba = a. A ring that is not BFR names the cycle a search
of that graph meets first, read off the self-loops without the search;
``divisor_graph`` builds the whole graph for the tests and the tracer.
Zero is excluded here and left to the minimal-factorization search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapacityExceeded, InvalidQuery, TheoremViolation
from .idealization import idealize
from .modules import FiniteModule, is_bfm, is_semisimple, make_self_module, self_loop
from .rings import (
    FiniteRing,
    associate_class_rep,
    gather,
    ideal_product,
    is_field,
    is_local,
    is_reduced,
    is_spir,
    is_unit,
    maximal_ideal,
    min_primes,
    nonunits,
    principal_heights,
    principal_ideals,
)

# search nodes minimal_factorizations_of_zero may visit before CapacityExceeded
ZERO_SEARCH_BUDGET = 2_000_000

# ---------------------------------------------------------------------------
# atoms


def _nonunit_reps(R: FiniteRing) -> list[int]:
    """The least element of each class of nonunits, ascending; the first is 0."""
    return [a for a in principal_ideals(R).values() if not is_unit(R, a)]


def atoms(R: FiniteRing) -> frozenset:
    """Nonunits a such that a = bc implies a ~ b or a ~ c, in one sweep over classes.

    A product bc associate to neither factor marks its class, which holds
    every associate b'c'. A unit factor never marks (a = bc with b a unit
    makes a ~ c) and bc = cb, so the sweep covers nonunit representatives
    b <= c.
    """
    if "atoms" not in R._cache:
        rep = associate_class_rep(R)
        reps = _nonunit_reps(R)
        broken = set()
        for i, b in enumerate(reps):
            row = R.mul_table[b]
            for c in reps[i:]:
                x = rep[row[c]]
                if x != b and x != c:
                    broken.add(x)
        R._cache["atoms"] = frozenset(a for a in nonunits(R) if rep[a] not in broken)
    return R._cache["atoms"]


# ---------------------------------------------------------------------------
# presimplifiable / ACCP


def is_presimplifiable(R: FiniteRing) -> tuple[bool, dict]:
    """No ba = a with a != 0 and b a nonunit: the BFM self-loop scan of R over itself.

    The witness is the least such b, then the least such a.
    """
    loop = self_loop(make_self_module(R))
    if loop is None:
        return True, {}
    b, a = loop
    return False, {"a": a, "b": b}


def is_accp(R: FiniteRing) -> tuple[bool, int]:
    """Always true at finite scale; returns the principal-ideal chain height."""
    return True, max(principal_heights(R).values())


# ---------------------------------------------------------------------------
# divisor graph and BF analysis


class DivisorGraph:
    """Divisor graph on 1..size-1 as successor maps.

    succ[a][t] is the least nonunit s with a = s*t != 0. The keys of
    each succ[a] ascend, and succ[0] is empty: node 0 is not in the graph.
    """

    __slots__ = ("succ",)

    def __init__(self, succ: list[dict[int, int]]):
        self.succ = succ

    def number_of_edges(self) -> int:
        return sum(map(len, self.succ))


def divisor_graph(R: FiniteRing) -> DivisorGraph:
    """Nodes: nonzero elements. Edge a -> t labeled s iff a = s*t, s nonunit.

    A unit t has no out-edges (t = s*u would put t in the proper ideal sR),
    so a search of the nonunit part counts the units as finished.
    """
    if "divisor_graph" not in R._cache:
        desc = sorted(nonunits(R), reverse=True)
        succ: list[dict[int, int]] = [{} for _ in range(R.size)]
        for t, row in enumerate(R.mul_table):  # mul_table is symmetric: row t lists s*t
            # desc descends, so a later, smaller s overwrites a larger one
            first = dict(zip(map(row.__getitem__, desc), desc))
            first.pop(R.zero, None)
            for a, s in first.items():
                succ[a][t] = s
        R._cache["divisor_graph"] = DivisorGraph(succ)
    return R._cache["divisor_graph"]


def _nonunit_starts(R: FiniteRing) -> list[int]:
    """The nonzero nonunits in the order the reported BFR witnesses were found in.

    When fewer than half the nonzero elements are nonunits, that order is
    the Python set's, not the ascending carrier's; it picks the reported cycle.
    """
    nus = sorted(nonunits(R) - {R.zero})
    return list(set(nus)) if 2 * len(nus) < R.size - 1 else nus


def first_cycle(R: FiniteRing) -> dict | None:
    """The first cycle a depth-first search of the nonunit part of the divisor graph meets
    (starts in ``_nonunit_starts`` order, successors ascending), as {"cycle": [t], "labels": [b]}
    with t = b*t and b the least such nonunit; None if the graph is acyclic.

    Let L be the nonzero a with ba = a for a nonunit b. A cycle through z makes z = (s_1...s_k)z,
    so z is in L; b(ra) = ra puts every nonzero multiple of a in L; a path from y to z puts y in zR.
    So a node reaches a cycle iff it lies in L, and the search first enters L at the first start x
    in L. For t in L, x lies in t*nonunits iff x lies in tR (ut = (ub)t), so the search goes from x
    to the least t in L with x in tR; every successor t' of t in L has x in t'R, so t' >= t, and t
    is its own successor.
    """
    nus = sorted(nonunits(R))
    times = gather(nus)

    def in_l(a: int) -> bool:
        return a in times(R.mul_table[a])

    x = next(filter(in_l, _nonunit_starts(R)), None)
    if x is None:
        return None
    t = next(t for t in nus[1:] if x in R.mul_table[t] and in_l(t))
    return {"cycle": [t], "labels": [nus[times(R.mul_table[t]).index(t)]]}


def is_bfr(R: FiniteRing) -> tuple[bool, dict]:
    """BFR iff no class has a self-loop x ~ s*x, s a nonunit; only then is a graph cycle named."""
    if "bfr" not in R._cache:
        rep = associate_class_rep(R)
        reps = _nonunit_reps(R)
        loop = any(rep[R.mul_table[s][x]] == x for x in reps[1:] for s in reps)
        witness = first_cycle(R) if loop else None
        # ba = a is the same self-loop, and a self-loop is a cycle
        if loop == is_presimplifiable(R)[0] or loop != (witness is not None):
            raise TheoremViolation(f"BFR cross-check failed on {R.label}")
        if witness:
            witness["element"] = witness["cycle"][0]
        R._cache["bfr"] = (not loop), (witness or {})
    return R._cache["bfr"]


# ---------------------------------------------------------------------------
# minimal factorizations of zero / U-boundedness


def minimal_factorizations_of_zero(R: FiniteRing) -> list[tuple[int, ...]]:
    """[the least of the longest minimal factorizations 0 = a_1 ... a_n into nonunits].

    Factors are class representatives, ascending (an associate scales every sub-product
    by a unit); a multiset grows while its sub-products stay nonzero and its prefix
    products descend strictly: paR = pR gives pa = up, u a unit, and a could be dropped
    (a repeated prefix product is one such case). So l factors with product p end within
    l + h(p). For L = h(1), h(1) - 1, ... the search skips prefixes with l + h(p) < L
    and stops at its first hit of length L (L = 1 hits 0).
    """
    reps, rep, h = _nonunit_reps(R), associate_class_rep(R), principal_heights(R)
    budget = iter(range(ZERO_SEARCH_BUDGET))

    def extend(prefix: list[int], strict_prods: frozenset, full_prod: int, start: int, target: int):
        if next(budget, None) is None:
            raise CapacityExceeded("minimal-factorization search budget exhausted")
        h_p = h[rep[full_prod]]
        for i in range(start, len(reps)):
            a = reps[i]
            times_a = R.mul_table[a]
            pa = times_a[full_prod]
            if not target - len(prefix) - 1 <= h[rep[pa]] < h_p:
                continue
            strict_times_a = set(map(times_a.__getitem__, strict_prods))
            if R.zero in strict_times_a:
                continue
            if pa == R.zero:
                return prefix + [a]
            hit = extend(prefix + [a], strict_prods | strict_times_a | {full_prod}, pa, i, target)
            if hit:
                return hit

    searches = (extend([], frozenset(), R.one, 0, L) for L in range(h[rep[R.one]], 0, -1))
    return [tuple(next(filter(None, searches)))]


def u_boundedness_of_zero(R: FiniteRing) -> tuple[bool, int, tuple[int, ...]]:
    """(always-true flag, max minimal factorization length of 0, witness)."""
    (best,) = minimal_factorizations_of_zero(R)
    return True, len(best), best


# ---------------------------------------------------------------------------
# atomicity and UFR


def atom_divisors(R: FiniteRing) -> dict[int, list[tuple[int, int]]]:
    """Class x != 0 -> [(p, t) : p*t ~ x], p and t nonzero nonunit representatives, p an atom."""
    if "atom_divisors" not in R._cache:
        rep = associate_class_rep(R)
        ts = _nonunit_reps(R)[1:]
        index: dict[int, list[tuple[int, int]]] = {}
        for p in sorted(atoms(R).intersection(ts)):
            for t, x in zip(ts, map(R.mul_table[p].__getitem__, ts)):
                if x != R.zero:
                    index.setdefault(rep[x], []).append((p, t))
        R._cache["atom_divisors"] = index
    return R._cache["atom_divisors"]


def is_atomic(R: FiniteRing) -> tuple[bool, dict]:
    """Every nonzero nonunit is a product of atoms, in one pass, largest principal ideal first.

    x ~ p*t with t not ~ x puts xR strictly inside tR, so t is decided before x.
    """
    ats = atoms(R)
    divs = atom_divisors(R)
    good = set()
    for _, x in sorted(principal_ideals(R).items(), key=lambda item: -len(item[0])):
        if not is_unit(R, x) and (x in ats or any(t in good for _, t in divs.get(x, ()))):
            good.add(x)
    bad = [x for x in _nonunit_reps(R)[1:] if x not in good]
    if bad:
        return False, {"element": bad[0]}
    return True, {}


def _atom_multisets(R: FiniteRing, a: int) -> set[tuple[int, ...]]:
    """All atom multisets with product a, as sorted class representatives.

    Every divisor chain below a must be finite, so that the recursion ends.
    """
    memo = R._cache.setdefault("atom_multisets", {})
    ats = atoms(R)
    divs = atom_divisors(R)

    def fac(x: int) -> set:
        if x not in memo:
            res: set[tuple[int, ...]] = {(x,)} if x in ats else set()
            for p, t in divs.get(x, ()):
                for rest in fac(t):
                    res.add(tuple(sorted((p,) + rest)))
            memo[x] = res
        return memo[x]

    return fac(associate_class_rep(R)[a])


def is_ufr_direct(R: FiniteRing) -> tuple[bool, dict]:
    """Unique factorization ring, decided from first principles."""
    bfr, wit = is_bfr(R)
    if not bfr:
        return False, {"reason": "not_bfr", **wit}
    atomic, wit = is_atomic(R)
    if not atomic:
        return False, {"reason": "not_atomic", **wit}
    # a BFR bounds every element, as _atom_multisets requires
    for a in _nonunit_reps(R)[1:]:
        facs = _atom_multisets(R, a)
        if len(facs) != 1:
            two = [list(m) for m in sorted(facs)[:2]]  # lists, as a JSON round trip gives them
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
