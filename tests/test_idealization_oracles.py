"""The idealization checks on generators against the references that check every case.

``verify_ideal_shape`` reads T's rows at additive generators of each I x N,
and ``verify_ideal_product`` checks the product formula on ordered pairs of
generating homogeneous ideals; the references run the definitional
``is_ideal`` on every product set and the formula on every ordered pair of
homogeneous ideals. ``all_ideals`` closes only {0} and the join-irreducible
principal ideals under sums; the reference closes every principal ideal.
"""

import pytest

from ringlab.idealization import (
    _additive_generators,
    _homogeneous_generators,
    idealize,
    verify_ideal_product,
    verify_ideal_shape,
)
from ringlab.modules import make_self_module
from ringlab.rings import all_ideals, make_zn, subgroup_span
import ringlab.rings

from oracles import (
    _homogeneous_ideals,
    reference_all_ideals,
    reference_verify_ideal_product,
    reference_verify_ideal_shape,
)
from test_acceptance import PAIR_SPECS, RING_SPECS, pair, ring

LATTICE_RINGS = RING_SPECS + ["Z4 x Z4 x Z4", "Z2 x Z2 x Z2 x Z2 x Z2", "Z8 x Z8", "Z2 x Z3 x Z4"]


@pytest.mark.parametrize("ring_spec,module_spec", PAIR_SPECS)
def test_shape_and_product_match_the_references(ring_spec, module_spec):
    R, M = pair(ring_spec, module_spec)
    assert verify_ideal_shape(R, M) == reference_verify_ideal_shape(R, M)
    assert verify_ideal_product(R, M) == reference_verify_ideal_product(R, M)


@pytest.mark.parametrize("ring_spec,module_spec", PAIR_SPECS)
def test_generators_sum_to_every_homogeneous_ideal(ring_spec, module_spec):
    R, M = pair(ring_spec, module_spec)
    gens = _homogeneous_generators(R, M)
    for I, N in _homogeneous_ideals(R, M):
        inside = [(A, B) for A, B in gens if A <= I and B <= N]
        assert subgroup_span(R.add_table, [A for A, _ in inside]) == I
        assert subgroup_span(M.add_table, [B for _, B in inside]) == N


@pytest.mark.parametrize("spec", LATTICE_RINGS + [f"idealize({rs},{ms})" for rs, ms in PAIR_SPECS])
def test_all_ideals_matches_the_closure_of_every_principal_ideal(spec):
    R = ring(spec)
    assert all_ideals(R) == reference_all_ideals(R)


@pytest.mark.parametrize("spec", ["Z2 x Z3 x Z4", "idealize(Z12,self)", "Z2[t]/(t^3)"])
def test_additive_generators_generate_each_ideal(spec):
    R = ring(spec)
    for S in all_ideals(R):
        gens = _additive_generators(R.add_table, S)
        assert gens == sorted(gens) and all(g in S for g in gens)
        cyclic = []
        for g in gens:
            multiples = [0]
            while R.add(g, multiples[-1]):
                multiples.append(R.add(g, multiples[-1]))
            cyclic.append(frozenset(multiples))
        assert subgroup_span(R.add_table, cyclic) == S
        # no generator lies in the subgroup the earlier ones generate
        assert all(g not in subgroup_span(R.add_table, cyclic[:i]) for i, g in enumerate(gens))


@pytest.mark.parametrize("spec,kept", [("Z2 x Z2 x Z2 x Z2", 5), ("Z8", 4), ("Z2 x Z4", 4)])
def test_all_ideals_closes_only_the_join_irreducible_principal_ideals(monkeypatch, spec, kept):
    R = ring(spec)
    R._cache.pop("all_ideals", None)
    fed = []
    real = ringlab.rings.lattice_by_sums

    def keep(add_table, gens, label):
        fed.append(list(gens))
        return real(add_table, fed[-1], label)

    monkeypatch.setattr(ringlab.rings, "lattice_by_sums", keep)
    assert all_ideals(R) == reference_all_ideals(R)
    assert len(fed[0]) == kept


def test_shape_reads_the_rows_at_module_generators():
    # Z2(+)Z2 with (0,1)(0,1) set to (1,0): 0 x M is no longer an ideal, and only
    # the row at the module generator (0, 1) shows it
    R = make_zn(2)
    M = make_self_module(R)
    T = idealize(R, M)
    T.mul_table[1][1] = 2
    expected = (False, {"I": [0], "N": [0, 1], "IM_in_N": True})
    assert verify_ideal_shape(R, M) == reference_verify_ideal_shape(R, M) == expected
