import pytest

from ringlab.errors import CapacityExceeded, InvalidQuery, ScalarMismatch
from ringlab.factor import (
    check_lemma_ubounded,
    check_prop_bfr,
    check_theorem_ufr,
)
from ringlab.idealization import (
    idealize,
    verify_ideal_product,
    verify_ideal_shape,
    verify_prime_criterion,
    verify_unit_criterion,
)
from ringlab.modules import make_free, make_self_module, quotient_module, cyclic_submodule
from ringlab.rings import is_field, is_local, is_unit, make_zn, units

from oracles import check_ring_axioms, check_theorem_accp


def pair(T, M, r, x):
    return r * M.size + x


def test_idealize_arithmetic():
    R = make_zn(4)
    M = make_self_module(R)
    T = idealize(R, M)
    assert T.size == 16
    check_ring_axioms(T)
    # (r1,x1)(r2,x2) = (r1 r2, r1 x2 + r2 x1): (2,1)*(3,2) = (2, 2*2+3*1) = (2,3)
    assert T.mul(pair(T, M, 2, 1), pair(T, M, 3, 2)) == pair(T, M, 2, 3)
    # the embedded module squares to zero: (0,x)(0,y) = (0,0)
    assert T.mul(pair(T, M, 0, 3), pair(T, M, 0, 2)) == 0


def test_idealize_returns_its_memoised_build_before_checking_cap():
    R = make_zn(4)
    M = make_self_module(R)
    with pytest.raises(CapacityExceeded):
        idealize(R, M, cap=8)
    T = idealize(R, M)
    assert idealize(R, M, cap=8) is T


def test_idealize_never_reduced():
    R = make_zn(2)
    M = make_self_module(R)
    T = idealize(R, M)
    z = pair(T, M, 0, 1)
    assert z != 0 and T.mul(z, z) == 0


def test_idealize_scalar_mismatch():
    R, S = make_zn(4), make_zn(6)
    with pytest.raises(ScalarMismatch):
        idealize(R, make_self_module(S))


def test_unit_criterion():
    # units of R(+)M are exactly pairs with unit first coordinate
    for n in (2, 4, 6, 9):
        R = make_zn(n)
        M = make_self_module(R)
        T = idealize(R, M)
        ok, wit = verify_unit_criterion(R, M)
        assert ok, wit
        expected = {pair(T, M, u, x) for u in units(R) for x in M.elements()}
        assert units(T) == frozenset(expected)


def test_unit_criterion_failure_names_the_pair(monkeypatch):
    import ringlab.idealization

    R = make_zn(4)
    M = make_self_module(R)
    T = idealize(R, M)
    monkeypatch.setattr(ringlab.idealization, "units", lambda S: frozenset() if S is T else units(S))
    # the first pair misjudged is (1, 0), the unity of Z4(+)Z4
    assert verify_unit_criterion(R, M) == (False, {"pair": 4, "r": 1, "x": 0})


def test_idealize_local_iff_base_local():
    for n in (4, 6, 8, 9, 12):
        R = make_zn(n)
        T = idealize(R, make_self_module(R))
        assert is_local(T) == is_local(R)


def test_ideal_shape_z4_self():
    R = make_zn(4)
    ok, wit = verify_ideal_shape(R, make_self_module(R))
    assert ok, wit
    # Z4(+)Z4 has a non-homogeneous ideal, so homogeneous count < total count
    assert wit["homogeneous"] == 6
    assert wit["total_ideals"] == 7


def test_ideal_shape_field_case():
    R = make_zn(2)
    ok, wit = verify_ideal_shape(R, make_self_module(R))
    assert ok, wit
    assert wit["homogeneous"] == wit["total_ideals"] == 3


def test_prime_criterion():
    for n in (2, 3, 4, 6):
        R = make_zn(n)
        ok, wit = verify_prime_criterion(R, make_self_module(R))
        assert ok, (n, wit)


def test_ideal_product():
    for n in (2, 4, 6):
        R = make_zn(n)
        ok, wit = verify_ideal_product(R, make_self_module(R))
        assert ok, (n, wit)


def test_theorem_ufr_positive_case():
    # Z4 with the simple module Z4/(2): all four characterizations agree True
    R = make_zn(4)
    M = make_self_module(R)
    Q = quotient_module(M, cyclic_submodule(M, 2))
    rep = check_theorem_ufr(R, Q)
    assert rep.all_agree
    assert rep.ufr_direct and rep.local_m2_semisimple


def test_theorem_ufr_negative_case():
    # Z4 with itself: M is not semisimple, so everything is False but agrees
    R = make_zn(4)
    rep = check_theorem_ufr(R, make_self_module(R))
    assert rep.all_agree
    assert not rep.ufr_direct


def test_theorem_ufr_rejects_zero_module():
    R = make_zn(4)
    M = make_self_module(R)
    Q = quotient_module(M, cyclic_submodule(M, 1))
    with pytest.raises(InvalidQuery):
        check_theorem_ufr(R, Q)


def test_prop_bfr_nonvacuous():
    R = make_zn(4)
    rep = check_prop_bfr(R, make_self_module(R))
    assert rep.impl_a_ok and rep.impl_b_ok
    assert rep.impl_b_premise  # T = Z4(+)Z4 is a BFR: the implication fires


def test_prop_bfr_contrapositive():
    R = make_zn(6)
    rep = check_prop_bfr(R, make_self_module(R))
    assert rep.impl_a_ok and rep.impl_b_ok
    assert not rep.impl_b_premise


def test_lemma_ubounded_product_of_fields():
    rep = check_lemma_ubounded(make_zn(6))  # Z6 ~ Z2 x Z3, reduced
    assert rep.reduced
    assert rep.min_prime_count == 2
    assert rep.zero_max_minimal_len == 2
    assert rep.refinement_bound_holds


def test_lemma_ubounded_nonreduced_is_vacuous():
    rep = check_lemma_ubounded(make_zn(8))
    assert not rep.reduced
    assert rep.refinement_bound_holds is None


def test_theorem_accp():
    for n in (2, 4, 6):
        R = make_zn(n)
        assert check_theorem_accp(R, make_self_module(R))
