import pytest

from ringlab.modules import (
    all_submodules,
    cyclic_submodule,
    is_bfm,
    is_semisimple,
    make_free,
    make_self_module,
    quotient_module,
    submodule_generated,
)
from ringlab.rings import is_unit, make_zn

from oracles import (
    annihilator_of,
    bfm_bounds_oracle,
    check_module_axioms,
    is_accc,
    is_semisimple_oracle,
    reference_is_bfm,
)
from test_acceptance import PAIR_SPECS, pair


def test_self_module_axioms():
    R = make_zn(6)
    M = make_self_module(R)
    assert M.size == 6
    check_module_axioms(M)


def test_free_module():
    R = make_zn(4)
    M = make_free(R, 2)
    assert M.size == 16
    check_module_axioms(M)
    # scalar action is componentwise: 2*(1,3) = (2,2)
    x = 1 * 4 + 3
    assert M.act(2, x) == 2 * 4 + 2


def test_submodules_z4():
    R = make_zn(4)
    M = make_self_module(R)
    subs = {frozenset(S) for S in all_submodules(M)}
    assert subs == {frozenset({0}), frozenset({0, 2}), frozenset({0, 1, 2, 3})}


def test_cyclic_and_generated():
    R = make_zn(12)
    M = make_self_module(R)
    assert set(cyclic_submodule(M, 4)) == {0, 4, 8}
    assert set(submodule_generated(M, [4, 6])) == {0, 2, 4, 6, 8, 10}


def test_annihilator_of_element():
    R = make_zn(12)
    M = make_self_module(R)
    assert annihilator_of(M, 4) == frozenset({0, 3, 6, 9})
    assert annihilator_of(M, 1) == frozenset({0})


def test_quotient_module():
    R = make_zn(4)
    M = make_self_module(R)
    Q = quotient_module(M, cyclic_submodule(M, 2))
    assert Q.size == 2
    check_module_axioms(Q)


def test_semisimple_agrees_with_oracle():
    cases = [
        (make_zn(6), "self"),
        (make_zn(4), "self"),
        (make_zn(2), "self"),
        (make_zn(12), "self"),
    ]
    for R, _ in cases:
        M = make_self_module(R)
        assert is_semisimple(M) == is_semisimple_oracle(M)
    # Z4/(2) is simple over Z4, hence semisimple
    R = make_zn(4)
    M = make_self_module(R)
    Q = quotient_module(M, cyclic_submodule(M, 2))
    assert is_semisimple(Q)
    assert is_semisimple_oracle(Q)
    # Z4 over itself is not (J(Z4)*Z4 = {0,2} != 0)
    assert not is_semisimple(M)


def test_accc_heights():
    R = make_zn(8)
    M = make_self_module(R)
    ok, height = is_accc(M)
    assert ok and height == 3
    ok, height = is_accc(make_self_module(make_zn(6)))
    assert ok and height == 2


def test_bfm_z4_self():
    R = make_zn(4)
    M = make_self_module(R)
    ok, info = reference_is_bfm(M)
    assert ok
    assert info["bounds"][2] == 1  # 2 = 2*1 only, no longer chains
    oracle = bfm_bounds_oracle(M)
    assert oracle == info["bounds"]


def test_bfm_z6_self_fails_with_cycle():
    M = make_self_module(make_zn(6))
    ok, info = is_bfm(M)
    assert not ok
    cyc, labels = info["cycle"], info["labels"]
    # replay: acting by the labels walks the cycle without reaching zero
    cur = cyc[0]
    for r, nxt in zip(labels, cyc[1:] + cyc[:1]):
        cur = M.act(r, cur)
        assert cur == nxt and cur != 0


def test_bfm_oracle_cross_check():
    for n in (2, 3, 4, 8, 9, 12):
        M = make_self_module(make_zn(n))
        ok, info = reference_is_bfm(M)
        oracle = bfm_bounds_oracle(M)
        if ok:
            assert info["bounds"] == oracle
        else:
            assert any(v is None for v in oracle.values())


# Z_n over Z_n/(d) for each proper divisor d; over Z6/(3), b = 3 is the least nonunit
# with b - 1 a nonunit, but 2 acts on Z3 injectively, so the scan must read the row
QUOTIENT_PAIRS = [(f"Z{n}", f"mquot(free(1),[{d}])") for n in range(2, 61) for d in range(2, n) if n % d == 0]
SCAN_PAIRS = [(rs, ms) for rs, ms in PAIR_SPECS + QUOTIENT_PAIRS
              if pair(rs, ms)[0].size * pair(rs, ms)[1].size <= 1024]


@pytest.mark.parametrize("ring_spec,module_spec", SCAN_PAIRS)
def test_bfm_scan_agrees_with_the_chain_oracle(ring_spec, module_spec):
    R, M = pair(ring_spec, module_spec)
    ok, info = is_bfm(M)
    assert ok == all(v is not None for v in bfm_bounds_oracle(M).values())
    if not ok:
        (x,), (b,) = info["cycle"], info["labels"]
        assert x != M.zero and not is_unit(R, b) and M.act(b, x) == x
