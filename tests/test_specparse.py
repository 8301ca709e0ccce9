import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab.errors import CapacityExceeded, InvalidConstruction
from ringlab.specparse import (
    Idealize,
    MFree,
    MQuot,
    MSelf,
    ParseError,
    PolyQuot,
    Prod,
    Quot,
    Zn,
    build_module,
    build_ring,
    parse_module_spec,
    parse_spec,
    size_estimate,
    to_text,
)


def test_simple_specs():
    assert parse_spec("Z6") == Zn(6)
    assert parse_spec("Z2 x Z3") == Prod(Zn(2), Zn(3))
    assert parse_spec("Z2[t]/(t^2+t+1)") == PolyQuot(Zn(2), (1, 1, 1))
    assert parse_spec("quot(Z12,[4])") == Quot(Zn(12), (4,))
    assert parse_spec("idealize(Z4,self)") == Idealize(Zn(4), MSelf())


def test_module_specs():
    assert parse_module_spec("self") == MSelf()
    assert parse_module_spec("free(2)") == MFree(2)
    assert parse_module_spec("mquot(free(1),[2])") == MQuot(MFree(1), (2,))


def test_product_is_left_associative():
    ast = parse_spec("Z2 x Z3 x Z5")
    assert ast == Prod(Prod(Zn(2), Zn(3)), Zn(5))


def test_whitespace_insensitive():
    assert parse_spec("idealize( Z4 , mquot( free(1), [2] ) )") == parse_spec(
        "idealize(Z4,mquot(free(1),[2]))"
    )


def test_parse_errors():
    for bad in ["", "Zx", "Z6 x", "quot(Z6", "idealize(Z6)", "block()", "Z6)", "quot(Z4,[x])", "block(3)"]:
        with pytest.raises(ParseError):
            parse_spec(bad)


def test_monicity_is_judged_in_the_base_ring():
    # 3 = 1 in Z2, so 3t^2+1 is monic there and names the same ring as t^2+1
    R = build_ring(parse_spec("Z2[t]/(3t^2+1)"))
    S = build_ring(parse_spec("Z2[t]/(t^2+1)"))
    assert (R.add_table, R.mul_table, R.neg_table) == (S.add_table, S.mul_table, S.neg_table)
    assert to_text(parse_spec("Z2[t]/(3t^2+1)")) == "Z2[t]/(3t^2+1)"


def test_parse_error_is_invalid_construction():
    with pytest.raises(InvalidConstruction):
        parse_spec("???")


def test_size_estimates():
    assert size_estimate(parse_spec("Z6")) == 6
    assert size_estimate(parse_spec("Z2 x Z3")) == 6
    assert size_estimate(parse_spec("Z2[t]/(t^3)")) == 8
    assert size_estimate(parse_spec("idealize(Z4,free(2))")) == 64


def test_build_ring_cap():
    with pytest.raises(CapacityExceeded):
        build_ring(parse_spec("Z9999"))


def test_build_quotient_ring():
    R = build_ring(parse_spec("quot(Z12,[4])"))
    assert R.size == 4


def test_build_local_squarezero_witness():
    R = build_ring(parse_spec("quot(Z2[t]/(t^2)[t]/(t^2),[8])"))
    assert R.size == 8
    from ringlab.factor import bouvier_class

    assert bouvier_class(R) == "local-squarezero"


def test_build_module_over_ring():
    ast = parse_spec("Z4")
    R = build_ring(ast)
    M = build_module(parse_module_spec("mquot(free(1),[2])"), R)
    assert M.size == 2


def _left_prod(rings):
    node = rings[0]
    for r in rings[1:]:
        node = Prod(node, r)
    return node


# products are left-associated by the grammar (no ring parentheses exist),
# so only generate canonical left-nested trees
ring_ast = st.deferred(
    lambda: st.one_of(
        st.integers(min_value=2, max_value=16).map(Zn),
        st.lists(ring_leaf, min_size=2, max_size=3).map(_left_prod),
        st.tuples(
            st.integers(min_value=2, max_value=5).map(Zn),
            st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=3),
        ).map(lambda t: PolyQuot(t[0], tuple(t[1]) + (1,))),
        st.tuples(
            st.integers(min_value=2, max_value=16).map(Zn),
            st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=2),
        ).map(lambda t: Quot(t[0], tuple(t[1]))),
        st.tuples(ring_ast, module_ast).map(lambda t: Idealize(*t)),
    )
)
# a product factor is any non-product term: Prod(a, Prod(b, c)) has no spelling
ring_leaf = ring_ast.filter(lambda a: not isinstance(a, Prod))
module_ast = st.deferred(
    lambda: st.one_of(
        st.just(MSelf()),
        st.integers(min_value=1, max_value=3).map(MFree),
        st.tuples(
            module_ast, st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=2)
        ).map(lambda t: MQuot(t[0], tuple(t[1]))),
    )
)


@settings(max_examples=200, deadline=None)
@given(ast=ring_ast)
def test_roundtrip_text(ast):
    assert parse_spec(to_text(ast)) == ast
