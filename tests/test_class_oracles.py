"""The passes that run on associate classes against element-by-element references.

The zero search tries one target length at a time and stops at its first
hit; the reference lists every minimal factorization of 0. The prime test
and the ideal product read one element of each associate class; the
references read every element. The classes are unit orbits, the maximal
ideals are the annihilators of the height-1 classes, locality is checked on class
representatives, SPIR is "m is principal", the BFR cycle is read off the
self-loops and each principal-ideal height from the class's own ideal;
the references are a frozenset per row, the whole ideal lattice, every
pair of nonunits, "every ideal is principal", a search of the whole
divisor graph and every pair of principal ideals. Rings: the acceptance
RING_SPECS, Z65..Z129 (Z65..Z199, Z2^8 and Z3^4 for the structure pass)
and the idealizations of the PAIR_SPECS with at most 256 elements.
"""

import json

import pytest

from ringlab.factor import (
    ZERO_SEARCH_BUDGET,
    _nonunit_reps,
    first_cycle,
    is_bfr,
    minimal_factorizations_of_zero,
    u_boundedness_of_zero,
)
from ringlab.errors import CapacityExceeded
from ringlab.idealization import idealize
from ringlab.rings import (
    all_ideals,
    associate_class_rep,
    ideal_product,
    is_local,
    is_prime_ideal,
    is_spir,
    maximal_ideals,
    min_primes,
    nonunits,
    principal_heights,
    principal_ideals,
    units,
)

from oracles import (
    reference_first_cycle,
    reference_is_spir,
    reference_maximal_and_min_primes,
    reference_nonunits_closed,
    reference_principal_heights,
    reference_principal_ideals,
    reference_units,
)
from test_acceptance import PAIR_SPECS, RING_SPECS, pair, ring
from test_structure_oracles import reference_closure, reference_is_prime

IDEALIZATIONS = [(rs, ms) for rs, ms in PAIR_SPECS if ring(rs).size * pair(rs, ms)[1].size <= 256]
ZERO_SEARCH_RINGS = list(dict.fromkeys(
    RING_SPECS + [f"Z{n}" for n in range(65, 130)] + [f"idealize({rs},{ms})" for rs, ms in IDEALIZATIONS]
))
STRUCTURE_RINGS = ZERO_SEARCH_RINGS + [f"Z{n}" for n in range(130, 200)] + [
    " x ".join(["Z2"] * 8), " x ".join(["Z3"] * 4)]


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
    assert len(longest) == principal_heights(R)[R.one]


@pytest.mark.parametrize("ring_spec,module_spec", IDEALIZATIONS)
def test_idealization_primes_and_products_match_references(ring_spec, module_spec):
    T = idealize(*pair(ring_spec, module_spec))
    lattice = all_ideals(T)
    assert [I for I in lattice if is_prime_ideal(T, I)] == [I for I in lattice if reference_is_prime(T, I)]
    for I in lattice:
        for J in lattice:
            seed = {T.mul(a, b) for a in I for b in J}
            assert ideal_product(T, I, J) == reference_closure(T.add_table, seed)


@pytest.mark.parametrize("spec", STRUCTURE_RINGS)
def test_class_structure_matches_references(spec):
    R = ring(spec)
    assert R.size <= 256  # the references read the whole ideal lattice and divisor graph
    assert units(R) == reference_units(R)
    assert nonunits(R) == frozenset(R.elements()) - reference_units(R)
    found, rep = reference_principal_ideals(R)
    assert list(principal_ideals(R).items()) == list(found.items())
    assert associate_class_rep(R) == rep
    maxi, minp = reference_maximal_and_min_primes(R)
    assert maximal_ideals(R) == maxi
    assert min_primes(R) == minp
    assert is_local(R) == reference_nonunits_closed(R)
    assert is_spir(R) == reference_is_spir(R)
    # byte-equal BFR witnesses, key order included
    assert json.dumps(first_cycle(R)) == json.dumps(reference_first_cycle(R))
    assert (first_cycle(R) is None) == is_bfr(R)[0]
    assert principal_heights(R) == reference_principal_heights(R)


def test_units_skip_a_one_read_across_two_entries():
    # row 2 of Z300 holds 298 = 0x012A then 0, whose bytes 2A 01 00 00 hold 01 00 at an odd offset
    R = ring("Z300")
    assert units(R) == reference_units(R)
    assert 2 not in units(R)
