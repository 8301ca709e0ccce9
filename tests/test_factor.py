import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab.errors import InvalidQuery
from ringlab.factor import (
    associate_class_rep,
    atoms,
    bouvier_class,
    is_accp,
    is_atomic,
    is_bfr,
    is_presimplifiable,
    is_ufr_direct,
    u_boundedness_of_zero,
)
from ringlab.rings import is_unit, make_polyquot, make_product, make_zn, nonunits
from oracles import (
    UnboundedElement,
    associates,
    is_atom,
    atom_factorizations,
    bf_lengths_oracle,
    is_ufr_bouvier,
    max_factorization_length,
)
from test_acceptance import RING_SPECS, ring
from test_class_oracles import reference_minimal_factorizations_of_zero


def prod(R, xs):
    out = R.one
    for x in xs:
        out = R.mul(out, x)
    return out


def test_associates_z8():
    R = make_zn(8)
    assert associates(R, 2, 6)
    assert not associates(R, 2, 4)
    assert associate_class_rep(R)[6] == 2


def test_atoms_z6_z8():
    assert atoms(make_zn(6)) == frozenset({2, 3, 4})
    assert atoms(make_zn(8)) == frozenset({2, 6})


@pytest.mark.parametrize("spec", RING_SPECS)
def test_atoms_sweep_matches_definition(spec):
    R = ring(spec)
    assert atoms(R) == frozenset(a for a in nonunits(R) if is_atom(R, a))


def test_atoms_z4_includes_zero_question():
    # in Z4, 0 = 2*2 with 2 not an associate of 0, so 0 is not an atom
    assert 0 not in atoms(make_zn(4))


def test_is_atom_rejects_units():
    R = make_zn(6)
    with pytest.raises(InvalidQuery):
        is_atom(R, 5)


def test_presimplifiable():
    ok, wit = is_presimplifiable(make_zn(8))
    assert ok and wit == {}
    ok, wit = is_presimplifiable(make_zn(6))
    assert not ok
    assert (wit["a"], wit["b"]) == (3, 3)
    # replay: a = a*b with a != 0 and b a nonunit
    R = make_zn(6)
    a, b = wit["a"], wit["b"]
    assert a != 0 and not is_unit(R, b) and R.mul(a, b) == a


def test_accp_heights():
    ok, height = is_accp(make_zn(8))
    assert ok and height == 3
    ok, height = is_accp(make_zn(6))
    assert ok and height == 2


def test_max_factorization_length_anchors():
    R6, R8, R4 = make_zn(6), make_zn(8), make_zn(4)
    n, wit = max_factorization_length(R6, 3)
    assert n is None and "cycle" in wit
    n, wit = max_factorization_length(R8, 4)
    assert n == 2 and sorted(wit["factors"]) == [2, 2]
    n, wit = max_factorization_length(R4, 2)
    assert n == 1 and wit["factors"] == [2]


def test_max_factorization_length_rejects_zero_and_units():
    R = make_zn(8)
    with pytest.raises(InvalidQuery):
        max_factorization_length(R, 0)
    with pytest.raises(InvalidQuery):
        max_factorization_length(R, 3)


def test_length_witness_replays():
    R = make_zn(16)
    for a in nonunits(R):
        if a == 0:
            continue
        n, wit = max_factorization_length(R, a)
        assert n is not None  # Z16 is a BFR
        factors = wit["factors"]
        assert len(factors) == n
        assert prod(R, factors) == a
        assert all(not is_unit(R, f) for f in factors)


def test_bfr():
    ok, _ = is_bfr(make_zn(8))
    assert ok
    ok, wit = is_bfr(make_zn(6))
    assert not ok
    # witness element sits on a divisor-graph cycle: replay it
    R = make_zn(6)
    cyc, labels = wit["cycle"], wit["labels"]
    for s, t, a in zip(labels, cyc[1:] + cyc[:1], cyc):
        assert a == R.mul(s, t) and not is_unit(R, s)


def test_graph_lengths_match_bruteforce():
    for n in range(2, 33):
        R = make_zn(n)
        oracle = bf_lengths_oracle(R)
        for a in R.elements():
            if a == 0 or is_unit(R, a):
                continue
            length, _ = max_factorization_length(R, a)
            assert length == oracle.get(a), (n, a)


def test_minimal_factorizations_of_zero():
    R = make_zn(6)
    assert reference_minimal_factorizations_of_zero(R) == [(0,), (2, 3)]
    R = make_zn(4)
    assert reference_minimal_factorizations_of_zero(R) == [(0,), (2, 2)]


def test_u_boundedness_anchors():
    ok, n, wit = u_boundedness_of_zero(make_zn(4))
    assert ok and n == 2 and wit == (2, 2)
    ok, n, wit = u_boundedness_of_zero(make_zn(64))
    assert ok and n == 6 and wit == (2,) * 6
    ok, n, wit = u_boundedness_of_zero(make_zn(60))
    assert ok and n == 4


def test_u_bounded_witness_minimality():
    # witness is a genuinely minimal factorization of zero
    from itertools import combinations

    for n in (8, 12, 30, 36):
        R = make_zn(n)
        ok, length, wit = u_boundedness_of_zero(R)
        assert ok and len(wit) == length
        assert prod(R, wit) == 0
        for idxs in combinations(range(length), length - 1):
            assert prod(R, [wit[i] for i in idxs]) != 0


def test_z2_cubed_minimal_length_three():
    R = make_product(make_product(make_zn(2), make_zn(2)), make_zn(2))
    ok, n, wit = u_boundedness_of_zero(R)
    assert ok and n == 3


def test_atomic_and_atom_factorizations():
    R = make_zn(8)
    ok, _ = is_atomic(R)
    assert ok
    # 4 = 2*2 = 2*6*... ; canonical multisets over associate-class reps
    facs = atom_factorizations(R, 4)
    assert facs == {(2, 2)}


def test_atom_factorizations_unbounded_guard():
    R = make_zn(6)
    with pytest.raises(UnboundedElement):
        atom_factorizations(R, 3)


def test_ufr_direct():
    ok, _ = is_ufr_direct(make_zn(4))
    assert ok
    ok, _ = is_ufr_direct(make_zn(8))
    assert ok
    ok, wit = is_ufr_direct(make_zn(6))
    assert not ok and wit["reason"] == "not_bfr"


def test_bouvier_classes():
    assert bouvier_class(make_zn(2)) == "field-UFD"
    assert bouvier_class(make_zn(4)) == "local-squarezero"
    assert bouvier_class(make_zn(8)) == "SPIR"
    assert bouvier_class(make_zn(6)) == "none"
    Z2 = make_zn(2)
    assert bouvier_class(make_polyquot(Z2, [1, 1, 1])) == "field-UFD"


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=48))
def test_ufr_direct_matches_bouvier(n):
    R = make_zn(n)
    ok, _ = is_ufr_direct(R)
    assert ok == is_ufr_bouvier(R)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=48))
def test_bfr_implies_presimplifiable_and_accp(n):
    R = make_zn(n)
    bfr, _ = is_bfr(R)
    if bfr:
        assert is_presimplifiable(R)[0]
        assert is_accp(R)[0]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=36))
def test_minimal_zero_factorizations_replay(n):
    from itertools import combinations

    R = make_zn(n)
    for fac in reference_minimal_factorizations_of_zero(R):
        assert prod(R, fac) == 0
        assert all(not is_unit(R, f) for f in fac)
        for idxs in combinations(range(len(fac)), len(fac) - 1):
            assert prod(R, [fac[i] for i in idxs]) != 0
