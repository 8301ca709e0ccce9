"""Stage-n truncation of the counterexample algebra over F2.

The algebra has variable blocks 1..n, block i carrying i+1 variables.
Squarefree single-block monomials span it; every variable squares to
zero, cross-block products vanish, and each full block product vanishes.
On top of that, the degree-mixing linear identifications glue the
"omit one variable" sums of consecutive blocks:

    sigma_i := sum_j (full block-i product omitting the j-th variable),
    sigma_i = sigma_{i+1}  for i < n.

Each sigma_i annihilates every non-constant monomial (multiplying any
omitted-variable product by any variable lands in a square, the full
block product, or a cross-block product), so those identifications span
an honest ideal and elements reduce by plain GF(2) linear elimination.

An element is an int bit-vector of GF(2) coefficients. Monomial
(i, mask), a product of the variables of block i picked by ``mask``, is
bit ``offset[i] + mask``; block i owns bits offset[i] .. offset[i] +
2^(i+1) - 1, and the constant is bit 0, the unused mask-0 slot of
block 1.
"""

from __future__ import annotations

from .errors import CapacityExceeded, InvalidQuery

STAGE_CAP = 6


class BlockAlgebra:
    def __init__(self, n: int):
        if not 1 <= n <= STAGE_CAP:
            raise CapacityExceeded(f"stage must be in 1..{STAGE_CAP}, got {n}")
        self.n = n
        self.offset = [0] * (n + 1)
        for i in range(2, n + 1):
            self.offset[i] = self.offset[i - 1] + (1 << i)
        # keep[bit of monomial (i, g)] = (the bits of block i whose monomial times
        # (i, g) survives, g): those masks m are the nonempty proper submasks of
        # full ^ g, so m is disjoint from g and m | g is not the full block, and
        # the product is one masked shift by g (m + g == m | g)
        self.keep: dict[int, tuple[int, int]] = {}
        monomials = [1]
        for i in range(1, n + 1):
            o, full = self.offset[i], (1 << (i + 1)) - 1
            for g in range(1, full):
                c = full ^ g
                mask, sub = 0, (c - 1) & c
                while sub:
                    mask |= 1 << (o + sub)
                    sub = (sub - 1) & c
                self.keep[1 << (o + g)] = (mask, g)
                monomials.append(1 << (o + g))
        # identifications sigma_i = sigma_{i+1}; each is eliminated by its top bit,
        # the largest monomial of sigma_{i+1}, in descending block order
        self.relations = []
        for i in range(n - 1, 0, -1):
            rel = self._sigma_bits(i) ^ self._sigma_bits(i + 1)
            self.relations.append((1 << (rel.bit_length() - 1), rel))
        pivots = {p for p, _ in self.relations}
        self.basis = [m for m in monomials if m not in pivots]
        self.dimension = len(self.basis)

    def _sigma_bits(self, i: int) -> int:
        o, full = self.offset[i], (1 << (i + 1)) - 1
        return sum(1 << (o + (full ^ (1 << j))) for j in range(i + 1))

    # -- element constructors ------------------------------------------------

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def var(self, i: int, j: int) -> int:
        """The image of the j-th variable (1-based) of block i."""
        if not (1 <= i <= self.n and 1 <= j <= i + 1):
            raise InvalidQuery(f"no variable ({i},{j}) at stage {self.n}")
        return self.reduce(1 << (self.offset[i] + (1 << (j - 1))))

    def sigma(self, i: int) -> int:
        return self.reduce(self._sigma_bits(i))

    # -- arithmetic ----------------------------------------------------------

    def reduce(self, v: int) -> int:
        for pivot, rel in self.relations:
            if v & pivot:
                v ^= rel
        return v

    def add(self, a: int, b: int) -> int:
        return a ^ b  # characteristic 2; both are already reduced

    def mul(self, a: int, b: int) -> int:
        """a*b as the sum, over the monomials of b, of one masked shift of a each."""
        acc = a if b & 1 else 0
        b &= ~1
        while b:
            bit = b & -b
            b ^= bit
            mask, g = self.keep[bit]
            acc ^= (a & mask) << g
            if a & 1:
                acc ^= bit
        return self.reduce(acc)

    def is_unit(self, a: int) -> bool:
        return bool(a & 1)


def make_block_algebra(n: int) -> BlockAlgebra:
    return BlockAlgebra(n)


def expected_dimension(n: int) -> int:
    return 1 + sum(2 ** (i + 1) - 2 for i in range(1, n + 1)) - max(n - 1, 0)


def _span_gf2(vectors) -> list[int]:
    """An echelon basis over GF(2) of the span, pivots keyed by leading bit."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            lead = v.bit_length()
            b = basis.get(lead)
            if b is None:
                basis[lead] = v
                break
            v ^= b
    return list(basis.values())


def augmentation_power_dimensions(A: BlockAlgebra, kmax: int) -> list[int]:
    """Dimensions of m^1, m^2, ..., m^kmax for the augmentation ideal m.

    m is generated by the variables and m^k is an ideal, so m^(k+1) = m*m^k
    is spanned by the variable multiples of a basis of m^k.
    """
    variables = [A.var(i, j) for i in range(1, A.n + 1) for j in range(1, i + 2)]
    span = _span_gf2(m for m in A.basis if m != 1)
    dims = []
    for _ in range(kmax):
        dims.append(len(span))
        span = _span_gf2(A.mul(v, x) for x in variables for v in span)
    return dims


# ---------------------------------------------------------------------------
# Example verification: the self-idealization admits equal products of
# every length 2..n+1 on the same element.


def _pair_mul(A: BlockAlgebra, p, q):
    (a1, b1), (a2, b2) = p, q
    return (A.mul(a1, a2), A.add(A.mul(a1, b2), A.mul(a2, b1)))


def verify_example25(n: int) -> dict:
    if not 2 <= n <= STAGE_CAP:
        raise InvalidQuery(f"stage must be in 2..{STAGE_CAP}, got {n}")
    A = make_block_algebra(n)
    sigma1 = A.sigma(1)
    report: dict = {
        "stage": n,
        "dimension": A.dimension,
        "lengths": [],
        "sigmas_equal": True,
        "factors_nonunit": True,
        "products_equal": True,
        "pass": False,
    }
    for i in range(1, n + 1):
        factors = [(A.var(i, j), A.one()) for j in range(1, i + 2)]
        if any(A.is_unit(f[0]) for f in factors):
            report["factors_nonunit"] = False
        prod = (A.one(), A.zero())
        for f in factors:
            prod = _pair_mul(A, f, prod)
        if A.sigma(i) != sigma1:
            report["sigmas_equal"] = False
        if prod != (A.zero(), sigma1):
            report["products_equal"] = False
        else:
            report["lengths"].append(i + 1)
    dims = augmentation_power_dimensions(A, n + 2)
    report["m_power_dims"] = dims
    report["m_nilpotent"] = dims[-1] == 0
    report["pass"] = (
        report["sigmas_equal"]
        and report["factors_nonunit"]
        and report["products_equal"]
        and report["m_nilpotent"]
        and report["lengths"] == list(range(2, n + 2))
    )
    return report
