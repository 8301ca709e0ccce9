"""Idealization R(+)M and brute-force verification of its structure facts.

Pair (r, x) is encoded as r*|M| + x; zero is (0,0) and unity (1,0). The
four verifiers (units, ideal shape, prime criterion, ideal products) are
exhaustive checks; on correct inputs they must return True, so any False
is an implementation bug and carries the offending witness. The shape is
checked on additive generators and the products on pairs of generating
homogeneous ideals, which decide every case by bilinearity.
"""

from __future__ import annotations

import operator
from array import array

from .errors import ScalarMismatch
from .modules import FiniteModule, all_submodules
from .rings import (
    DEFAULT_SIZE_CAP,
    FiniteRing,
    all_ideals,
    check_size,
    gather,
    ideal_product,
    is_prime_ideal,
    multiples,
    pair_table,
    pair_vector,
    principal_ideals,
    subgroup_span,
    subgroup_sum,
    units,
)


def idealize(R: FiniteRing, M: FiniteModule, *, cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """R(+)M, built once per module: (r, x)(s, y) = (rs, ry + sx).

    Block s of the row of (r, x) is the add row of (rs, sx) read at the
    entries ry of the action row of r. For each r, a block is built once
    per distinct (rs, sx), and each row is a join of blocks.
    """
    if M.ring is not R:
        raise ScalarMismatch(f"module {M.label} is not over {R.label}")
    if "idealization" in M._cache:  # built under some cap already; callers reuse it
        return M._cache["idealization"]
    check_size(R.size * M.size, "idealization", cap)
    nm = M.size
    add = pair_table(R.add_table, M.add_table)
    columns = list(zip(*M.act_table))  # columns[x][s] = s*x
    mul = []
    for rrow, get in zip(R.mul_table, map(gather, M.act_table)):
        offsets = [u * nm for u in rrow]  # (rs, 0)
        blocks: dict[int, bytes] = {}
        for column in columns:
            keys = list(map(operator.add, offsets, column))  # (rs, sx)
            for c in set(keys).difference(blocks):
                blocks[c] = array("H", get(add[c])).tobytes()
            mul.append(array("H", b"".join(gather(keys)(blocks))))
    T = M._cache["idealization"] = FiniteRing(
        add,
        mul,
        pair_vector(R.neg_table, M.neg_table),
        one=R.one * nm,
        label=f"{R.label}(+){M.label}",
    )
    return T


def verify_unit_criterion(R: FiniteRing, M: FiniteModule) -> tuple[bool, dict]:
    """(r,x) is a unit of R(+)M iff r is a unit of R; the witness is the least pair misjudged."""
    T = idealize(R, M)
    misjudged = units(T).symmetric_difference(r * M.size + x for r in units(R) for x in M.elements())
    if misjudged:
        a = min(misjudged)
        r, x = divmod(a, M.size)
        return False, {"pair": a, "r": r, "x": x}
    return True, {}


def _shape_members(M: FiniteModule, I: frozenset, N: frozenset) -> frozenset:
    return frozenset(r * M.size + x for r in I for x in N)


def _acts_into(M: FiniteModule, I: frozenset, N: frozenset) -> bool:
    return all(N.issuperset(M.act_table[r]) for r in I)


def _additive_generators(add_table: list[array], S: frozenset) -> list[int]:
    """The members of the subgroup S, in ascending order, that lie outside the subgroup
    the earlier ones generate: together they generate S."""
    gens: list[int] = []
    span = frozenset({0})
    for s in sorted(S):
        if s not in span:
            gens.append(s)
            multiples_of_s = [0]
            while (nxt := add_table[s][multiples_of_s[-1]]) != 0:
                multiples_of_s.append(nxt)
            span = subgroup_sum(add_table, span, frozenset(multiples_of_s))
    return gens


def verify_ideal_shape(R: FiniteRing, M: FiniteModule) -> tuple[bool, dict]:
    """A product set I x N is an ideal of R(+)M exactly when IM <= N.

    I x N is a subgroup, so it is an ideal iff the row of T at each additive
    generator, (g, 0) for g generating I and (0, h) for h generating N, lies
    in I x N (bilinearity): iff the row's first coordinates lie in I and its
    second coordinates in N.
    """
    T = idealize(R, M)
    m = M.size
    ideal_gens = {I: [g * m for g in _additive_generators(R.add_table, I)] for I in all_ideals(R)}
    submodule_gens = {N: _additive_generators(M.add_table, N) for N in all_submodules(M)}
    projections = {}  # s -> the first and the second coordinates of row s of T
    for s in {s for gens in [*ideal_gens.values(), *submodule_gens.values()] for s in gens}:
        row = set(T.mul_table[s])
        projections[s] = (frozenset(t // m for t in row), frozenset(t % m for t in row))
    homogeneous = set()
    for I, gens_I in ideal_gens.items():
        for N, gens_N in submodule_gens.items():
            rows = map(projections.__getitem__, gens_I + gens_N)
            closed = all(first <= I and second <= N for first, second in rows)
            expected = _acts_into(M, I, N)
            if closed != expected:
                return False, {
                    "I": sorted(I), "N": sorted(N),
                    "IM_in_N": expected,
                }
            if expected:
                homogeneous.add(_shape_members(M, I, N))
    lattice = set(all_ideals(T))
    if homogeneous - lattice:
        bad = min(homogeneous - lattice, key=sorted)
        return False, {"reason": "product ideal missing from lattice",
                       "members": sorted(bad)}
    return True, {"homogeneous": len(homogeneous), "total_ideals": len(lattice)}


def verify_prime_criterion(R: FiniteRing, M: FiniteModule) -> tuple[bool, dict]:
    """Primes of R(+)M are exactly I x M with I prime in R.

    (Every prime contains the square-zero ideal 0 x M, which pins the
    module component to all of M.)
    """
    T = idealize(R, M)
    for J in all_ideals(T):
        I = frozenset(a // M.size for a in J)
        lhs = is_prime_ideal(T, J)
        rhs = (
            J == _shape_members(M, I, frozenset(M.elements()))
            and is_prime_ideal(R, I)
        )
        if lhs != rhs:
            return False, {"ideal": sorted(J), "prime_in_T": lhs,
                           "IxM_with_I_prime": rhs}
    return True, {}


def _homogeneous_generators(R: FiniteRing, M: FiniteModule) -> list[tuple[frozenset, frozenset]]:
    """aR x aM for each class representative a, then 0 x Rx for each distinct cyclic Rx.

    Every homogeneous ideal I x N (IM <= N) is the sum of those with a in I
    and x in N: their first parts sum to I, and their second parts to IM + N = N.
    """
    zero = frozenset({R.zero})
    pairs = [(I, frozenset(M.act_table[a])) for I, a in principal_ideals(R).items()]
    pairs += [(zero, C) for C in map(frozenset, zip(*M.act_table))]  # column x is Rx
    return list(dict.fromkeys(pairs))


def verify_ideal_product(R: FiniteRing, M: FiniteModule) -> tuple[bool, dict]:
    """(I1 x N1)(I2 x N2) = (I1 I2) x (I1 N2 + I2 N1) on product-form ideals.

    Both sides distribute over sums of ideals, and a sum of product sets is
    the product set of the sums, so the formula holds on every pair of
    homogeneous ideals iff it holds on every ordered pair of generators.
    """
    T = idealize(R, M)
    shaped = [(I, N, _shape_members(M, I, N)) for I, N in _homogeneous_generators(R, M)]
    firsts = list(dict.fromkeys(I for I, _, _ in shaped))
    # I1 I2 once per pair of ideals of R; rR = sR gives rN = sN, so IN is the sum of rN over class reps r in I
    products = {(I1, I2): ideal_product(R, I1, I2) for I1 in firsts for I2 in firsts}
    reps = {I: [r for r in principal_ideals(R).values() if r in I] for I in firsts}
    for I1, N1, J1 in shaped:
        for I2, N2, J2 in shaped:
            lhs = ideal_product(T, J1, J2)
            acted = multiples(M.act_table, reps[I1], N2) | multiples(M.act_table, reps[I2], N1)
            rhs = _shape_members(M, products[I1, I2], subgroup_span(M.add_table, acted))
            if lhs != rhs:
                return False, {"J1": sorted(J1), "J2": sorted(J2),
                               "lhs": sorted(lhs), "rhs": sorted(rhs)}
    return True, {}
