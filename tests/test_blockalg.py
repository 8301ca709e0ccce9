"""The bit-vector algebra against the frozenset arithmetic it replaced.

``ReferenceAlgebra`` is the earlier form kept as a reference: an element is
a frozenset of (block, mask) monomials, products run one monomial pair at a
time, and m^(k+1) is spanned by every basis generator times every element
of m^k. The package's masked shifts and variable-multiple spans must give
the same elements and the same dimensions.
"""

import random

import pytest

from ringlab.blockalg import (
    augmentation_power_dimensions,
    expected_dimension,
    make_block_algebra,
    verify_example25,
)
from ringlab.errors import InvalidQuery

ONE = (0, 0)


class ReferenceAlgebra:
    def __init__(self, n: int):
        self.n = n
        self.monomials = [ONE]
        for i in range(1, n + 1):
            for mask in range(1, (1 << (i + 1)) - 1):  # degree 1..i, full product is 0
                self.monomials.append((i, mask))
        self.relations = []
        for i in range(1, n):
            rel = self._sigma_support(i) ^ self._sigma_support(i + 1)
            self.relations.append((max(self._sigma_support(i + 1)), rel))
        self.relations.sort(key=lambda pr: -pr[0][0])  # descending block order
        pivots = {p for p, _ in self.relations}
        self.basis = [m for m in self.monomials if m not in pivots]
        self.basis_index = {m: k for k, m in enumerate(self.basis)}

    def _sigma_support(self, i):
        full = (1 << (i + 1)) - 1
        return frozenset((i, full ^ (1 << j)) for j in range(i + 1))

    def var(self, i, j):
        return self.reduce(frozenset({(i, 1 << (j - 1))}))

    def sigma(self, i):
        return self.reduce(self._sigma_support(i))

    def reduce(self, support):
        s = set(support)
        for pivot, rel in self.relations:
            if pivot in s:
                s ^= rel
        return frozenset(s)

    def _mul_monomials(self, m1, m2):
        if m1 == ONE:
            return m2
        if m2 == ONE:
            return m1
        (b1, v1), (b2, v2) = m1, m2
        if b1 != b2 or (v1 & v2):
            return None  # cross-block or repeated variable
        v = v1 | v2
        if v == (1 << (b1 + 1)) - 1:
            return None  # full block product
        return (b1, v)

    def mul(self, a, b):
        acc = set()
        for m1 in a:
            for m2 in b:
                m = self._mul_monomials(m1, m2)
                if m is not None:
                    acc ^= {m}
        return self.reduce(frozenset(acc))

    def to_bits(self, a):
        return sum(1 << self.basis_index[m] for m in a)


def reference_span_gf2(vectors):
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def reference_power_dimensions(R, kmax):
    """Every basis generator times every element of m^k spans m^(k+1)."""
    gens = [R.reduce(frozenset({m})) for m in R.basis if m != ONE]
    current, dims = gens, []
    for _ in range(kmax):
        span = reference_span_gf2([R.to_bits(v) for v in current])
        dims.append(len(span))
        nxt, seen = [], set()
        for g in gens:
            for v in current:
                p = R.mul(g, v)
                bits = R.to_bits(p)
                if bits and bits not in seen:
                    seen.add(bits)
                    nxt.append(p)
        current = nxt
    return dims


def encode(A, support):
    """The bit-vector of a frozenset of monomials; the constant (0, 0) is bit 0."""
    return sum(1 << (A.offset[i] + mask) for i, mask in support)


def test_dimensions_match_closed_form():
    # dim = 1 + sum_i (2^(i+1) - 2) - (n - 1): one relation per identification
    assert expected_dimension(1) == 3
    assert expected_dimension(2) == 8
    for n in range(1, 7):
        A = make_block_algebra(n)
        assert A.dimension == expected_dimension(n)


def test_monomial_products():
    A = make_block_algebra(2)
    x21, x22 = A.var(2, 1), A.var(2, 2)
    # distinct variables in one block multiply to the joint monomial
    assert A.mul(x21, x22) == 1 << (A.offset[2] + 0b011)
    # squares vanish
    assert A.mul(x21, x21) == A.zero()
    # cross-block products vanish
    assert A.mul(A.var(1, 1), x21) == A.zero()
    # a full block product vanishes
    x23 = A.var(2, 3)
    assert A.mul(A.mul(x21, x22), x23) == A.zero()


def test_sigma_identification():
    A = make_block_algebra(2)
    # the stage identifies the symmetric elements of consecutive blocks
    assert A.reduce(A.sigma(1)) == A.reduce(A.sigma(2))


def test_units():
    A = make_block_algebra(2)
    u = A.add(A.one(), A.var(1, 1))
    assert A.is_unit(u)
    assert not A.is_unit(A.var(1, 1))


def test_augmentation_nilpotent():
    A = make_block_algebra(3)
    dims = augmentation_power_dimensions(A, A.n + 2)
    assert dims[-1] == 0
    assert all(a >= b for a, b in zip(dims, dims[1:]))


def test_verify_stages():
    for stage in (2, 3, 4, 5, 6):
        report = verify_example25(stage)
        assert report["pass"], report
        assert report["lengths"] == list(range(2, stage + 2))
        assert report["sigmas_equal"]
        assert report["products_equal"]
        assert report["factors_nonunit"]
        assert report["m_nilpotent"]


def test_stage_bounds():
    with pytest.raises(InvalidQuery):
        verify_example25(1)
    with pytest.raises(InvalidQuery):
        verify_example25(7)


@pytest.mark.parametrize("n", range(1, 7))
def test_power_dimensions_match_reference(n):
    A, R = make_block_algebra(n), ReferenceAlgebra(n)
    assert augmentation_power_dimensions(A, n + 2) == reference_power_dimensions(R, n + 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_sigmas_and_variables_match_reference(n):
    A, R = make_block_algebra(n), ReferenceAlgebra(n)
    for i in range(1, n + 1):
        assert A.sigma(i) == encode(A, R.sigma(i))
        for j in range(1, i + 2):
            assert A.var(i, j) == encode(A, R.var(i, j))


@pytest.mark.parametrize("n", range(1, 5))
def test_products_match_reference(n):
    A, R = make_block_algebra(n), ReferenceAlgebra(n)
    rng = random.Random(n)
    for _ in range(200):
        a, b = (frozenset(m for m in R.basis if rng.random() < 0.5) for _ in range(2))
        assert A.mul(encode(A, a), encode(A, b)) == encode(A, R.mul(a, b))
        raw = frozenset(m for m in R.monomials if rng.random() < 0.5)
        assert A.reduce(encode(A, raw)) == encode(A, R.reduce(raw))
