"""Seeded workload decks and the known answers each item is checked against.

Known answers come from number theory and the standard references, never
from ringlab itself:

* Z_n: units = phi(n); local <=> prime power; reduced <=> squarefree;
  field <=> prime; minimal primes = distinct prime divisors.
* Z_p[t]/(f): f = prod g_i^e_i splits (CRT) into local rings
  Z_p[t]/(g^e), each a field (e = 1), a local ring with m^2 = 0 (e = 2)
  or an SPIR (e >= 3).
* Products: unit counts multiply, never local, minimal primes add.
* R(+)M (Anderson-Winders 2009): U(R(+)M) = U(R) x M; primes are P x M;
  R(+)M is local iff R is.
* Bouvier's classification (Anderson-Valdes-Leon 1996): a finite ring is
  a UFR iff it is a field, local with m^2 = 0, or an SPIR. For M != 0,
  R(+)M is a UFR iff R is local with m^2 = 0 and mM = 0.
* A finite ring is presimplifiable iff local iff BFR (a = ab with b in a
  nilpotent maximal ideal forces a = 0; an idempotent e != 0, 1 gives
  e = e*e with e a nonunit).
* The longest minimal factorization of 0 has one factor per power of a
  local maximal ideal: sum of nilpotency indices over the CRT factors.

A deck is a list of rounds; a round holds one item per cell, shuffled.
A cell fixes a ring type and draws only its presentation (factor order,
irreducible polynomial, module spelling, quotient generators), except
the quot cells, which draw generators over all elements. Every seed thus
sees the same mix of costs, and a run that stops at a round boundary
has steady medians; the seed still changes every input string.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product as iproduct

SMALL_MAX = 64      # n <= 64 is the "small" band
MEDIUM_MAX = 324    # 64 < n <= 324 is "medium"; larger rings have no band
ROUNDS = 12         # rounds per deck; a run cycles through the deck


# ---------------------------------------------------------------------------
# number theory


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# polynomials over Z_p: tuples of coefficients, constant term first


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def pmod(a, b, p):
    """Remainder of a by the monic polynomial b."""
    a = list(_trim(a))
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        c = a[-1]
        shift = len(a) - 1 - db
        for j, y in enumerate(b):
            a[shift + j] = (a[shift + j] - c * y) % p
        a = list(_trim(a))
    return tuple(a)


def monics(p: int, d: int):
    for low in iproduct(range(p), repeat=d):
        yield tuple(low) + (1,)


def is_irreducible(f, p: int) -> bool:
    d = len(f) - 1
    for k in range(1, d // 2 + 1):
        for g in monics(p, k):
            if not pmod(f, g, p):
                return False
    return True


def poly_factor(f, p: int) -> list[tuple[tuple, int]]:
    """Monic irreducible factors with multiplicity, by trial division."""
    out = []
    d = 1
    while len(f) > 1:
        for g in monics(p, d):
            e = 0
            while len(f) > 1 and not pmod(f, g, p):
                f = _pdiv(f, g, p)
                e += 1
            if e:
                out.append((g, e))
        d += 1
        if 2 * d > len(f) - 1 and len(f) > 1:
            out.append((f, 1))
            break
    return out


def _pdiv(a, b, p):
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db]
        q[k] = c
        for j, y in enumerate(b):
            a[k + j] = (a[k + j] - c * y) % p
    return _trim(q)


def random_irreducible(p: int, d: int, rng: random.Random):
    while True:
        f = tuple(rng.randrange(p) for _ in range(d)) + (1,)
        if is_irreducible(f, p):
            return f


def poly_text(f) -> str:
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            tpow = "t" if i == 1 else f"t^{i}"
            parts.append(tpow if c == 1 else f"{c}{tpow}")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# known answers


@dataclass(frozen=True)
class Known:
    size: int
    unit_count: int
    local: bool
    reduced: bool
    field: bool
    min_prime_count: int
    bouvier_class: str        # field-UFD | local-squarezero | SPIR | none
    m2_zero: bool             # local with m^2 = 0 (fields included)
    zero_len: int | None      # longest minimal factorization of 0

    @property
    def ufr(self) -> bool:
        return self.bouvier_class != "none"


def _local(size: int, residue: int, index: int) -> Known:
    """Local ring of the given size, residue field size and nilpotency index."""
    cls = {1: "field-UFD", 2: "local-squarezero"}.get(index, "SPIR")
    return Known(size, size - size // residue, True, index == 1, index == 1,
                 1, cls, index <= 2, index)


def product_known(parts: list[Known]) -> Known:
    if len(parts) == 1:
        return parts[0]
    zl = [k.zero_len for k in parts]
    return Known(
        math.prod(k.size for k in parts),
        math.prod(k.unit_count for k in parts),
        False,
        all(k.reduced for k in parts),
        False,
        sum(k.min_prime_count for k in parts),
        "none",
        False,
        None if None in zl else sum(zl),
    )


def zn_known(n: int) -> Known | None:
    """None stands for the zero ring, whose known answer is a typed error."""
    if n == 1:
        return None
    return product_known([_local(p ** k, p, k) for p, k in factorize(n).items()])


def polyquot_known(p: int, f) -> Known:
    parts = []
    for g, e in poly_factor(f, p):
        q = p ** (len(g) - 1)
        parts.append(_local(q ** e, q, e))
    return product_known(parts)


def idealize_known(R: Known, msize: int, mM_zero: bool) -> Known:
    ufr = R.local and R.m2_zero and mM_zero
    return Known(
        R.size * msize, R.unit_count * msize, R.local, False, False,
        R.min_prime_count, "local-squarezero" if ufr else "none", ufr, None,
    )


# ---------------------------------------------------------------------------
# items


@dataclass(frozen=True)
class Item:
    kind: str                 # analyze | verify | example25
    spec: str                 # ring spec (analyze, verify) or stage (example25)
    known: Known | None       # None: a typed error is the known answer
    n: int | None             # size used for the band; None: no band
    module: str | None = None
    theorem: str | None = None
    ring_known: Known | None = None   # verify: the base ring R

    @property
    def band(self) -> str | None:
        if self.n is None or self.n > MEDIUM_MAX:
            return None
        return "small" if self.n <= SMALL_MAX else "medium"

    def argv(self) -> list[str]:
        if self.kind == "analyze":
            return ["analyze", self.spec]
        if self.kind == "example25":
            return ["example25", "--stage", self.spec]
        argv = ["verify", self.theorem, "--ring", self.spec]
        return argv + ["--module", self.module] if self.module else argv

    def label(self) -> str:
        if self.kind == "verify":
            return f"verify {self.theorem} {self.spec} / {self.module}"
        return f"{self.kind} {self.spec}"


def analyze(spec: str, known: Known | None) -> Item:
    """An analyze item; the zero ring is no ring to band, so it gets none."""
    return Item("analyze", spec, known, known.size if known else None)


# --- ring draws: each cell fixes a ring type and draws its presentation -----


def _zn(n):
    return lambda rng: (f"Z{n}", zn_known(n))


def _product(specs_knowns, rng):
    pairs = list(specs_knowns)
    rng.shuffle(pairs)
    return " x ".join(s for s, _ in pairs), product_known([k for _, k in pairs])


def _prod(*ms):
    """Z_m1 x ... x Z_mk in a random factor order."""
    return lambda rng: _product(((f"Z{m}", zn_known(m)) for m in ms), rng)


def _poly(p, *factors):
    """Z_p[t]/(g_1^e_1 ... g_k^e_k) for distinct random irreducibles g_i of given degrees."""
    def draw(rng):
        while True:
            gs = [(random_irreducible(p, d, rng), e) for d, e in factors]
            if len({g for g, _ in gs}) == len(gs):
                break
        f = (1,)
        for g, e in gs:
            for _ in range(e):
                f = pmul(f, g, p)
        return f"Z{p}[t]/({poly_text(f)})", polyquot_known(p, f)
    return draw


def _unit_mod(n, rng):
    while True:
        u = rng.randrange(1, max(n, 2))
        if math.gcd(u, n) == 1:
            return u


def _self_module(rng):
    """R as a module over itself, in either spelling."""
    return rng.choice(["self", "free(1)"])


def _cyclic_module(n, d, rng):
    """Z_n / (d), presented by a random associate of d."""
    return f"mquot(free(1),[{d * _unit_mod(n // d, rng) % n}])"


def _quot_draw(rng):
    """quot over Z_m or Z_a x Z_b, generators drawn over all elements.

    Z_a x Z_b indexes (x, y) as x*b + y. A unit among the generators, or
    generators that together span the ring, name the zero ring, whose
    known answer is a typed error.
    """
    if rng.random() < 0.5:
        m = rng.randint(2, 24)
        gens = [rng.randrange(m) for _ in range(rng.choice([1, 2]))]
        return f"quot(Z{m},[{','.join(map(str, gens))}])", zn_known(math.gcd(m, *gens))
    a, b = rng.randint(2, 5), rng.randint(2, 5)
    gens = [rng.randrange(a * b) for _ in range(rng.choice([1, 2]))]
    da = math.gcd(a, *(g // b for g in gens))
    db = math.gcd(b, *(g % b for g in gens))
    parts = [k for k in (zn_known(da), zn_known(db)) if k is not None]
    known = product_known(parts) if parts else None
    return f"quot(Z{a} x Z{b},[{','.join(map(str, gens))}])", known


def _quot(zero: bool):
    """A quot draw that names the zero ring, or one that does not.

    One cell of each keeps the share of zero-ring items the same in every
    round; the draws themselves still range over all elements.
    """
    def draw(rng):
        while True:
            spec, known = _quot_draw(rng)
            if (known is None) == zero:
                return spec, known
    return draw


def _quot_zn(d):
    """Z_d presented as quot(Z_dk,[d*u]) for random k and unit u."""
    def draw(rng):
        k = rng.choice([2, 3])
        return f"quot(Z{d * k},[{d * _unit_mod(k, rng) % (d * k)}])", zn_known(d)
    return draw


# modules: (spec, |M|, mM = 0) given R = Z_n; mM = 0 holds for R a field or M = Z_n/(p)


def _self_of(n):
    return lambda rng: (_self_module(rng), n, factorize(n) == {n: 1})


def _free_of(n, k):
    return lambda rng: (f"free({k})", n ** k, factorize(n) == {n: 1})


def _cyclic_of(n, d):
    return lambda rng: (_cyclic_module(n, d, rng), d, [d] == list(factorize(n)))


def _idealize(n, module):
    def draw(rng):
        spec, msize, mM0 = module(rng)
        return f"idealize(Z{n},{spec})", idealize_known(zn_known(n), msize, mM0)
    return draw


def _idealize_gf(p, d):
    def draw(rng):
        spec, R = _poly(p, (d, 1))(rng)
        return f"idealize({spec},{_self_module(rng)})", idealize_known(R, R.size, True)
    return draw


# --- analyze-mix -------------------------------------------------------------

# Per round: 55 small rings, 11 medium rings and one zero ring; each count
# is odd, so with whole rounds every median falls inside one item type's
# samples rather than between two.
ANALYZE_SMALL = [
    *(_zn(n) for n in (2, 3, 4, 5, 7, 11, 13, 14, 15, 21)),
    *(_zn(n) for n in (6, 8, 9, 10, 12, 16, 18, 20, 24, 25, 27, 30, 32, 36, 45, 49, 60, 64)),
    _prod(2, 2), _prod(2, 5), _prod(2, 4), _prod(2, 3, 3), _prod(2, 2, 2, 2), _prod(4, 8), _prod(2, 3, 5),
    _prod(3, 4, 5), _prod(2, 2, 9),
    _poly(2, (3, 1)), _poly(5, (2, 1)), _poly(7, (2, 1)), _poly(2, (2, 2)),
    _poly(3, (1, 2)), _poly(2, (1, 3)), _poly(2, (2, 1), (3, 1)), _poly(3, (1, 1), (2, 1)),
    _quot(zero=False), _quot(zero=True),
    _idealize(2, _self_of(2)), _idealize(3, _free_of(3, 2)), _idealize(2, _free_of(2, 3)),
    _idealize(4, _self_of(4)), _idealize(8, _self_of(8)), _idealize(9, _cyclic_of(9, 3)),
    _idealize(16, _cyclic_of(16, 2)), _idealize(6, _self_of(6)), _idealize_gf(2, 2),
]

ANALYZE_MEDIUM = [
    _zn(125), _zn(128), _zn(160),
    _prod(3, 5, 7), _prod(4, 4, 5),
    _poly(11, (2, 1)), _poly(3, (2, 2)),
    _quot_zn(96),
    _idealize(11, _self_of(11)), _idealize(27, _cyclic_of(27, 3)), _idealize(10, _self_of(10)),
]


def _analyze_round(rng) -> list[Item]:
    return [analyze(*draw(rng)) for draw in ANALYZE_SMALL + ANALYZE_MEDIUM]


# --- extension-verify --------------------------------------------------------

THEOREMS = ("ufr-theorem", "bfr-proposition", "ubounded-lemma", "idealization-structure")


def _pair(n, module, theorems=THEOREMS):
    def draw(rng):
        spec, msize, mM0 = module(rng)
        R = zn_known(n)
        T = idealize_known(R, msize, mM0)
        return [Item("verify", f"Z{n}", T, T.size, spec, tid, R) for tid in theorems]
    return draw


def _pair_ring(ring_draw):
    """(R, R) for a ring drawn by ring_draw, R presented as a module over itself."""
    def draw(rng):
        spec, R = ring_draw(rng)
        T = idealize_known(R, R.size, R.field)
        module = _self_module(rng)
        return [Item("verify", spec, T, T.size, module, tid, R) for tid in THEOREMS]
    return draw


# Per round: 41 small items, 25 medium items and 5 example25 stages, odd
# counts for the same reason as in analyze-mix.
EXTENSION_SMALL = [
    _pair(2, _self_of(2)), _pair(3, _self_of(3)), _pair(4, _self_of(4)), _pair(6, _self_of(6)),
    _pair(2, _free_of(2, 2)), _pair(3, _free_of(3, 2)), _pair(2, _free_of(2, 3)),
    _pair(9, _cyclic_of(9, 3)), _pair(8, _cyclic_of(8, 2)), _pair(16, _cyclic_of(16, 2)),
    _pair(5, _self_of(5), ["ufr-theorem"]),
]

EXTENSION_MEDIUM = [
    _pair(9, _self_of(9)), _pair(10, _self_of(10)), _pair(12, _self_of(12)),
    _pair_ring(_prod(3, 5)), _pair_ring(_poly(3, (2, 1))), _pair(27, _cyclic_of(27, 3)),
    _pair(11, _self_of(11), ["bfr-proposition"]),
]


def _extension_round(rng) -> list[Item]:
    items = [it for draw in EXTENSION_SMALL + EXTENSION_MEDIUM for it in draw(rng)]
    return items + [Item("example25", str(s), None, None) for s in range(2, 7)]


# --- cap-reach ---------------------------------------------------------------

CAP_SPECS = [
    ("idealize(Z32,self)", idealize_known(zn_known(32), 32, False)),
    ("Z4 x Z16 x Z16", product_known([zn_known(4), zn_known(16), zn_known(16)])),
    ("idealize(Z64,self)", idealize_known(zn_known(64), 64, False)),
]


def _cap_round(rng) -> list[Item]:
    return [analyze(spec, known) for spec, known in CAP_SPECS]


WORKLOADS = {
    "analyze-mix": _analyze_round,
    "extension-verify": _extension_round,
    "cap-reach": _cap_round,
}


def make_deck(workload: str, seed: int) -> list[list[Item]]:
    """The seeded rounds, each shuffled; a run cycles through them.

    Every round holds one item per cell, so runs that stop at a round
    boundary see the same mix of ring types whatever the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    rounds = []
    for _ in range(1 if workload == "cap-reach" else ROUNDS):
        items = WORKLOADS[workload](rng)
        rng.shuffle(items)
        rounds.append(items)
    return rounds


def example25_dimension(n: int) -> int:
    """Basis size of the stage-n truncation algebra, counted by hand.

    Block i has i+1 variables and contributes the 2^(i+1) - 2 squarefree
    monomials of degree 1..i; the constant adds one and each of the n-1
    identifications sigma_i = sigma_{i+1} removes one.
    """
    return 1 + sum(2 ** (i + 1) - 2 for i in range(1, n + 1)) - (n - 1)
