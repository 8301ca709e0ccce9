import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab.errors import CapacityExceeded, InvalidConstruction
from ringlab.idealization import idealize
from ringlab.modules import (
    cyclic_submodule,
    make_free,
    make_self_module,
    quotient_module,
)
from ringlab.rings import (
    all_ideals,
    annihilator,
    generated_ideal,
    ideal_product,
    is_field,
    is_local,
    is_prime_ideal,
    is_reduced,
    is_spir,
    jacobson_radical,
    make_polyquot,
    make_product,
    make_zn,
    maximal_ideal,
    maximal_ideals,
    min_primes,
    nilradical,
    principal_ideal,
    quotient_ring,
    units,
)

from oracles import check_module_axioms, check_ring_axioms, ideal_sum


def test_zn_table():
    R = make_zn(6)
    assert R.size == 6
    assert R.add(4, 5) == 3
    assert R.mul(4, 5) == 2
    assert R.neg(2) == 4
    assert R.one == 1
    check_ring_axioms(R)


def test_zn_rejects_bad_modulus():
    with pytest.raises(InvalidConstruction):
        make_zn(0)
    with pytest.raises(InvalidConstruction):
        make_zn(-3)


def test_units_z6():
    assert units(make_zn(6)) == frozenset({1, 5})


def test_units_field():
    R = make_zn(7)
    assert units(R) == frozenset(range(1, 7))
    assert is_field(R)


def test_product_ring():
    R = make_product(make_zn(2), make_zn(3))
    assert R.size == 6
    check_ring_axioms(R)
    # component arithmetic: (1,2)*(1,2) = (1,1)
    a = 1 * 3 + 2
    assert R.mul(a, a) == 1 * 3 + 1
    assert not is_local(R)
    assert is_reduced(R)


def test_polyquot_f4():
    Z2 = make_zn(2)
    F4 = make_polyquot(Z2, [1, 1, 1])  # t^2 + t + 1
    assert F4.size == 4
    check_ring_axioms(F4)
    assert is_field(F4)


def test_polyquot_dual_numbers():
    Z2 = make_zn(2)
    R = make_polyquot(Z2, [0, 0, 1])  # t^2
    assert R.size == 4
    assert not is_field(R)
    assert is_local(R)
    # t * t = 0: t has index 2 (coeff vector [0,1])
    assert R.mul(2, 2) == 0


def test_polyquot_unity_is_the_base_unity():
    # the unity of Z2(+)Z2 is the pair (1,0), index 2, not index 1
    Z2 = make_zn(2)
    T = idealize(Z2, make_self_module(Z2))
    R = make_polyquot(T, [0, 0, T.one])
    assert R.one == T.one == 2
    check_ring_axioms(R)


def test_polyquot_requires_monic():
    Z4 = make_zn(4)
    with pytest.raises(InvalidConstruction):
        make_polyquot(Z4, [1, 0, 2])


def test_ideals_z6():
    R = make_zn(6)
    ideals = {I for I in all_ideals(R)}
    assert ideals == {
        frozenset({0}),
        frozenset({0, 3}),
        frozenset({0, 2, 4}),
        frozenset(range(6)),
    }


def test_principal_vs_generated():
    R = make_zn(12)
    assert principal_ideal(R, 8) == frozenset({0, 4, 8})
    assert generated_ideal(R, [8, 6]) == frozenset({0, 2, 4, 6, 8, 10})


def test_ideal_arithmetic_z12():
    R = make_zn(12)
    I4 = principal_ideal(R, 4)
    I6 = principal_ideal(R, 6)
    assert ideal_sum(R, I4, I6) == frozenset({0, 2, 4, 6, 8, 10})
    assert ideal_product(R, I4, I6) == frozenset({0})


def test_prime_and_maximal_z12():
    R = make_zn(12)
    primes = {I for I in all_ideals(R) if is_prime_ideal(R, I)}
    assert primes == {
        frozenset({0, 2, 4, 6, 8, 10}),
        frozenset({0, 3, 6, 9}),
    }
    assert {I for I in maximal_ideals(R)} == primes
    assert {I for I in min_primes(R)} == primes


def test_nilradical_and_jacobson():
    R = make_zn(12)
    assert nilradical(R) == frozenset({0, 6})
    assert jacobson_radical(R) == frozenset({0, 6})
    assert not is_reduced(R)
    assert is_reduced(make_zn(30))


def test_annihilator():
    R = make_zn(12)
    assert annihilator(R, 4) == frozenset({0, 3, 6, 9})
    assert annihilator(R, 1) == frozenset({0})


def test_local_and_spir():
    assert is_local(make_zn(8))
    assert maximal_ideal(make_zn(8)) == frozenset({0, 2, 4, 6})
    assert not is_local(make_zn(6))
    assert is_spir(make_zn(8))
    assert is_spir(make_zn(9))
    assert not is_spir(make_zn(6))


def test_quotient_ring():
    R = make_zn(12)
    Q = quotient_ring(R, principal_ideal(R, 4))
    assert Q.size == 4
    check_ring_axioms(Q)
    # Z12 / (4) has the arithmetic of Z4
    assert Q.mul(Q.from_int(2), Q.from_int(2)) == Q.from_int(4)


def test_size_cap():
    with pytest.raises(CapacityExceeded):
        make_product(make_zn(100), make_zn(100))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=40))
def test_zn_maximal_equals_min_primes(n):
    R = make_zn(n)
    assert {I for I in maximal_ideals(R)} == {
        I for I in min_primes(R)
    }


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=40))
def test_zn_unit_group_size_is_totient(n):
    R = make_zn(n)
    from math import gcd

    assert len(units(R)) == sum(1 for k in range(1, n) if gcd(k, n) == 1)


# ---------------------------------------------------------------------------
# every construction's tables against its definitional arithmetic


def _digits(x, n, d):
    out = []
    for _ in range(d):
        x, c = divmod(x, n)
        out.append(c)
    return out


def _undigits(v, n):
    return sum(c * n ** i for i, c in enumerate(v))


def _zn_ops(n):
    return (lambda a, b: (a + b) % n, lambda a, b: a * b % n, lambda a: -a % n)


def _product_ops(R, S):
    k = S.size
    return (
        lambda a, b: R.add(a // k, b // k) * k + S.add(a % k, b % k),
        lambda a, b: R.mul(a // k, b // k) * k + S.mul(a % k, b % k),
        lambda a: R.neg(a // k) * k + S.neg(a % k),
    )


def _polyquot_ops(n, f):
    """Z_n[t]/(f): integer polynomial product, then long division by monic f."""
    d = len(f) - 1

    def mul(a, b):
        va, vb = _digits(a, n, d), _digits(b, n, d)
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(va):
            for j, y in enumerate(vb):
                conv[i + j] += x * y
        for k in range(2 * d - 2, d - 1, -1):
            c, conv[k] = conv[k], 0
            for j in range(d):
                conv[k - d + j] -= c * f[j]
        return _undigits([c % n for c in conv[:d]], n)

    return (
        lambda a, b: _undigits([(x + y) % n for x, y in zip(_digits(a, n, d), _digits(b, n, d))], n),
        mul,
        lambda a: _undigits([-x % n for x in _digits(a, n, d)], n),
    )


def _coset_ops(R, ideal):
    rep = [min(R.add(a, i) for i in ideal) for a in R.elements()]
    reps = sorted(set(rep))
    cls = [reps.index(r) for r in rep]
    return (
        lambda a, b: cls[R.add(reps[a], reps[b])],
        lambda a, b: cls[R.mul(reps[a], reps[b])],
        lambda a: cls[R.neg(reps[a])],
    )


def _idealization_ops(R, M):
    k = M.size
    return (
        lambda a, b: R.add(a // k, b // k) * k + M.add(a % k, b % k),
        lambda a, b: R.mul(a // k, b // k) * k + M.add(M.act(a // k, b % k), M.act(b // k, a % k)),
        lambda a: R.neg(a // k) * k + M.neg(a % k),
    )


def _carriers():
    Z2, Z3, Z4, Z12 = make_zn(2), make_zn(3), make_zn(4), make_zn(12)
    dual = make_polyquot(Z2, [0, 0, 1])
    Z6 = make_zn(6)
    out = [pytest.param(make_zn(n), _zn_ops(n), id=f"Z{n}") for n in range(2, 131)]
    out += [
        pytest.param(make_product(Z2, Z3), _product_ops(Z2, Z3), id="Z2 x Z3"),
        pytest.param(make_product(Z4, dual), _product_ops(Z4, dual), id="Z4 x Z2[t]/(t^2)"),
        pytest.param(make_polyquot(Z3, [1, 0, 1]), _polyquot_ops(3, [1, 0, 1]), id="Z3[t]/(t^2+1)"),
        pytest.param(make_polyquot(Z2, [1, 1, 0, 1]), _polyquot_ops(2, [1, 1, 0, 1]),
                     id="Z2[t]/(t^3+t+1)"),
        pytest.param(make_polyquot(Z4, [1, 3, 1]), _polyquot_ops(4, [1, 3, 1]), id="Z4[t]/(t^2+3t+1)"),
    ]
    out += [
        pytest.param(quotient_ring(Z12, principal_ideal(Z12, g)),
                     _coset_ops(Z12, principal_ideal(Z12, g)), id=f"Z12/({g})")
        for g in (4, 6)
    ]
    for R, M in [(Z4, make_self_module(Z4)), (Z6, make_self_module(Z6)),
                 (Z2, make_free(Z2, 2)), (Z4, quotient_module(make_self_module(Z4), [2]))]:
        out.append(pytest.param(idealize(R, M), _idealization_ops(R, M), id=f"{R.label}(+){M.label}"))
    # larger carriers: many blocks per row, long strides, several cosets per class
    Z5, Z8, Z16, Z24 = make_zn(5), make_zn(8), make_zn(16), make_zn(24)
    Z16xZ24 = make_product(Z16, Z24)
    big_ideal = generated_ideal(Z16xZ24, [8 * 24 + 12])
    out += [
        pytest.param(make_product(make_product(Z4, Z6), Z12), _product_ops(make_product(Z4, Z6), Z12),
                     id="Z4 x Z6 x Z12"),
        pytest.param(make_polyquot(Z4, [1, 1, 0, 0, 1]), _polyquot_ops(4, [1, 1, 0, 0, 1]),
                     id="Z4[t]/(t^4+t+1)"),
        pytest.param(make_polyquot(Z5, [2, 0, 3, 1]), _polyquot_ops(5, [2, 0, 3, 1]), id="Z5[t]/(t^3+3t^2+2)"),
        pytest.param(quotient_ring(Z16xZ24, big_ideal), _coset_ops(Z16xZ24, big_ideal),
                     id="(Z16 x Z24)/((8,12))"),
        pytest.param(idealize(Z16, make_self_module(Z16)),
                     _idealization_ops(Z16, make_self_module(Z16)), id="Z16(+)Z16"),
        pytest.param(idealize(Z8, quotient_module(make_free(Z8, 2), [2])),
                     _idealization_ops(Z8, quotient_module(make_free(Z8, 2), [2])), id="Z8(+)Z8^2/(2)"),
    ]
    return out


@pytest.mark.parametrize("R,ops", _carriers())
def test_tables_match_definitional_arithmetic(R, ops):
    add, mul, neg = ops
    for a in R.elements():
        assert R.neg_table[a] == neg(a), a
        for b in R.elements():
            assert R.add_table[a][b] == add(a, b), (a, b)
            assert R.mul_table[a][b] == mul(a, b), (a, b)
    # the axiom check is cubic: it runs up to 36 elements, above which the
    # tables equal the definitional arithmetic, itself a ring
    if R.size <= 36:
        check_ring_axioms(R)


def _modules():
    Z3, Z4 = make_zn(3), make_zn(4)
    S = make_self_module(make_zn(12))
    N = cyclic_submodule(S, 4)
    rep = [min(S.add(x, y) for y in N) for x in S.elements()]
    reps = sorted(set(rep))
    def free_ops(n, k):
        return (
            lambda x, y: _undigits([(p + q) % n for p, q in zip(_digits(x, n, k), _digits(y, n, k))], n),
            lambda r, x: _undigits([r * c % n for c in _digits(x, n, k)], n),
        )

    return [
        pytest.param(make_free(Z3, 2), *free_ops(3, 2), id="Z3^2"),
        pytest.param(make_free(Z4, 3), *free_ops(4, 3), id="Z4^3"),
        pytest.param(quotient_module(S, [4]),
                     lambda x, y: reps.index(rep[S.add(reps[x], reps[y])]),
                     lambda r, x: reps.index(rep[S.act(r, reps[x])]), id="Z12/(4)"),
    ]


@pytest.mark.parametrize("M,add,act", _modules())
def test_module_tables_match_definitional_arithmetic(M, add, act):
    for x in M.elements():
        for y in M.elements():
            assert M.add_table[x][y] == add(x, y), (x, y)
        for r in M.ring.elements():
            assert M.act_table[r][x] == act(r, x), (r, x)
    check_module_axioms(M)


def test_zero_ring_rejected():
    R = make_zn(4)
    with pytest.raises(InvalidConstruction):
        quotient_ring(R, principal_ideal(R, 1))


def test_free_module_needs_positive_rank():
    with pytest.raises(InvalidConstruction):
        make_free(make_zn(4), 0)
