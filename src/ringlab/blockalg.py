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

Elements are frozensets of monomials (GF(2) coefficient supports); a
monomial is (block, mask) with the constant written (0, 0).
"""

from __future__ import annotations

from .errors import CapacityExceeded, InvalidQuery

STAGE_CAP = 6

ONE = (0, 0)

Element = frozenset


class BlockAlgebra:
    def __init__(self, n: int):
        if not 1 <= n <= STAGE_CAP:
            raise CapacityExceeded(f"stage must be in 1..{STAGE_CAP}, got {n}")
        self.n = n
        self.monomials: list[tuple[int, int]] = [ONE]
        for i in range(1, n + 1):
            nvars = i + 1
            for mask in range(1, (1 << nvars) - 1):  # degree 1..i, full product is 0
                self.monomials.append((i, mask))
        # identifications sigma_i = sigma_{i+1}, eliminated by pivot monomials
        self.relations: list[tuple[tuple[int, int], frozenset]] = []
        for i in range(1, n):
            rel = self._sigma_support(i) ^ self._sigma_support(i + 1)
            pivot = max(self._sigma_support(i + 1))
            self.relations.append((pivot, rel))
        self.relations.sort(key=lambda pr: -pr[0][0])  # descending block order
        pivots = {p for p, _ in self.relations}
        self.basis = [m for m in self.monomials if m not in pivots]
        self.basis_index = {m: k for k, m in enumerate(self.basis)}
        self.dimension = len(self.basis)

    def _sigma_support(self, i: int) -> frozenset:
        nvars = i + 1
        full = (1 << nvars) - 1
        return frozenset((i, full ^ (1 << j)) for j in range(nvars))

    # -- element constructors ------------------------------------------------

    def zero(self) -> Element:
        return frozenset()

    def one(self) -> Element:
        return frozenset({ONE})

    def var(self, i: int, j: int) -> Element:
        """The image of the j-th variable (1-based) of block i."""
        if not (1 <= i <= self.n and 1 <= j <= i + 1):
            raise InvalidQuery(f"no variable ({i},{j}) at stage {self.n}")
        return self.reduce(frozenset({(i, 1 << (j - 1))}))

    def sigma(self, i: int) -> Element:
        return self.reduce(self._sigma_support(i))

    # -- arithmetic ----------------------------------------------------------

    def reduce(self, support: frozenset) -> Element:
        s = set(support)
        for pivot, rel in self.relations:
            if pivot in s:
                s ^= rel
        return frozenset(s)

    def add(self, a: Element, b: Element) -> Element:
        return a ^ b  # characteristic 2; supports are already reduced

    def _mul_monomials(self, m1: tuple[int, int], m2: tuple[int, int]):
        if m1 == ONE:
            return m2
        if m2 == ONE:
            return m1
        b1, v1 = m1
        b2, v2 = m2
        if b1 != b2 or (v1 & v2):
            return None  # cross-block or repeated variable
        v = v1 | v2
        if v == (1 << (b1 + 1)) - 1:
            return None  # full block product
        return (b1, v)

    def mul(self, a: Element, b: Element) -> Element:
        acc: set = set()
        for m1 in a:
            for m2 in b:
                m = self._mul_monomials(m1, m2)
                if m is not None:
                    acc ^= {m}
        return self.reduce(frozenset(acc))

    def is_unit(self, a: Element) -> bool:
        return ONE in a

    def inverse(self, a: Element) -> Element:
        """Geometric series; valid since the augmentation ideal is nilpotent."""
        if not self.is_unit(a):
            raise InvalidQuery("not a unit")
        m = a ^ {ONE}
        inv = self.one()
        power = self.one()
        for _ in range(self.n + 2):
            power = self.mul(power, m)
            inv = self.add(inv, power)
        return inv

    def to_bits(self, a: Element) -> int:
        bits = 0
        for m in a:
            bits |= 1 << self.basis_index[m]
        return bits


def make_block_algebra(n: int) -> BlockAlgebra:
    return BlockAlgebra(n)


def expected_dimension(n: int) -> int:
    return 1 + sum(2 ** (i + 1) - 2 for i in range(1, n + 1)) - max(n - 1, 0)


def _span_gf2(vectors: list[int]) -> list[int]:
    """Row-reduce int bitmasks over GF(2), dropping zero rows."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def augmentation_power_dimensions(A: BlockAlgebra, kmax: int) -> list[int]:
    """Dimensions of m^1, m^2, ..., m^kmax for the augmentation ideal m."""
    gens = [frozenset({m}) for m in A.basis if m != ONE]
    gens = [A.reduce(g) for g in gens]
    current = gens
    dims = []
    for _ in range(kmax):
        span = _span_gf2([A.to_bits(v) for v in current])
        dims.append(len(span))
        if not span:
            current = []
            dims.extend([0] * (kmax - len(dims)))
            break
        nxt = []
        seen = set()
        for g in gens:
            for v in current:
                p = A.mul(g, v)
                bits = A.to_bits(p)
                if bits and bits not in seen:
                    seen.add(bits)
                    nxt.append(p)
        current = nxt
    return dims[:kmax]


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
