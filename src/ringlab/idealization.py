"""Idealization R(+)M and brute-force verification of its structure facts.

Pair (r, x) is encoded as r*|M| + x; zero is (0,0) and unity (1,0). The
four verifiers (units, ideal shape, prime criterion, ideal products) are
exhaustive checks; on correct inputs they must return True, so any False
is an implementation bug and carries the offending witness.
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
    is_ideal,
    is_prime_ideal,
    is_unit,
    multiples,
    pair_table,
    pair_vector,
    principal_ideals,
    subgroup_span,
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
    """(r,x) is a unit of R(+)M iff r is a unit of R."""
    T = idealize(R, M)
    ru = units(R)
    for a in T.elements():
        r, x = divmod(a, M.size)
        if is_unit(T, a) != (r in ru):
            return False, {"pair": a, "r": r, "x": x}
    return True, {}


def _shape_members(M: FiniteModule, I: frozenset, N: frozenset) -> frozenset:
    return frozenset(r * M.size + x for r in I for x in N)


def _acts_into(M: FiniteModule, I: frozenset, N: frozenset) -> bool:
    return all(N.issuperset(M.act_table[r]) for r in I)


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


def verify_ideal_shape(R: FiniteRing, M: FiniteModule) -> tuple[bool, dict]:
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


def _decompose(M: FiniteModule, J: frozenset) -> tuple[frozenset, frozenset]:
    I = frozenset(divmod(a, M.size)[0] for a in J)
    N = frozenset(divmod(a, M.size)[1] for a in J)
    return I, N


def verify_prime_criterion(R: FiniteRing, M: FiniteModule) -> tuple[bool, dict]:
    """Primes of R(+)M are exactly I x M with I prime in R.

    (Every prime contains the square-zero ideal 0 x M, which pins the
    module component to all of M.)
    """
    T = idealize(R, M)
    for J in all_ideals(T):
        I, _ = _decompose(M, J)
        lhs = is_prime_ideal(T, J)
        rhs = (
            J == _shape_members(M, I, frozenset(M.elements()))
            and is_prime_ideal(R, I)
        )
        if lhs != rhs:
            return False, {"ideal": sorted(J), "prime_in_T": lhs,
                           "IxM_with_I_prime": rhs}
    return True, {}


def verify_ideal_product(R: FiniteRing, M: FiniteModule) -> tuple[bool, dict]:
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
