"""The passes that run on associate classes against element-by-element references.

The zero search tries one target length at a time and stops at its first
hit; the reference lists every minimal factorization of 0. The prime test
and the ideal product read one element of each associate class; the
references read every element. Rings: the acceptance RING_SPECS, Z65..Z129
and the idealizations of the PAIR_SPECS with at most 256 elements.
"""

import pytest

from ringlab.factor import (
    ZERO_SEARCH_BUDGET,
    _nonunit_reps,
    _principal_heights,
    minimal_factorizations_of_zero,
    u_boundedness_of_zero,
)
from ringlab.errors import CapacityExceeded
from ringlab.idealization import idealize
from ringlab.rings import all_ideals, ideal_product, is_prime_ideal

from test_acceptance import PAIR_SPECS, RING_SPECS, pair, ring
from test_structure_oracles import reference_closure, reference_is_prime

IDEALIZATIONS = [(rs, ms) for rs, ms in PAIR_SPECS if ring(rs).size * pair(rs, ms)[1].size <= 256]
ZERO_SEARCH_RINGS = list(dict.fromkeys(
    RING_SPECS + [f"Z{n}" for n in range(65, 130)] + [f"idealize({rs},{ms})" for rs, ms in IDEALIZATIONS]
))


def reference_minimal_factorizations_of_zero(R):
    """Every minimal factorization 0 = a_1 ... a_n into nonunits, up to associates,
    sorted by length, then by factors.

    Factors are associate-class representatives in ascending order. A
    multiset is extended only while all of its sub-multiset products stay
    nonzero, and a repeated prefix product is pruned.
    """
    reps = _nonunit_reps(R)
    found = []
    budget = [ZERO_SEARCH_BUDGET]

    def extend(prefix, strict_prods, prefix_prods, full_prod, start):
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
            extend(prefix + [a], strict_prods | strict_times_a | {full_prod}, prefix_prods | {pa}, pa, i)

    extend([], frozenset(), frozenset({R.one}), R.one, 0)
    return sorted(found, key=lambda f: (len(f), f))


@pytest.mark.parametrize("spec", ZERO_SEARCH_RINGS)
def test_zero_search_matches_reference(spec):
    R = ring(spec)
    assert R.size <= 256  # the reference lists every minimal factorization
    found = reference_minimal_factorizations_of_zero(R)
    longest = max(found, key=len)
    assert minimal_factorizations_of_zero(R) == [longest]
    assert u_boundedness_of_zero(R) == (True, len(longest), longest)
    # the first target, the height of the chain from R down to (0), is always reached
    assert len(longest) == _principal_heights(R)[R.one]


@pytest.mark.parametrize("ring_spec,module_spec", IDEALIZATIONS)
def test_idealization_primes_and_products_match_references(ring_spec, module_spec):
    T = idealize(*pair(ring_spec, module_spec))
    lattice = all_ideals(T)
    assert [I for I in lattice if is_prime_ideal(T, I)] == [I for I in lattice if reference_is_prime(T, I)]
    for I in lattice:
        for J in lattice:
            seed = {T.mul(a, b) for a in I for b in J}
            assert ideal_product(T, I, J) == reference_closure(T.add_table, seed)
