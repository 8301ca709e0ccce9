"""Finite commutative rings held as dense operation tables.

Elements are integers 0..size-1; index 0 is always the additive zero and
``ring.one`` marks the multiplicative unity (1 for the basic
constructions, fixed by the pair encoding for idealizations and
products).

The carrier is three tables built once at construction: ``add_table``
and ``mul_table`` are lists of ``array('H')`` rows read as
``mul_table[a][b]``, and ``neg_table`` is one ``array('H')``. Each
construction composes its tables from its components' tables. A table
costs 2 bytes per entry, so ``add_table`` and ``mul_table`` take 2 MB
each at n = 1024 and 32 MB each at the default 4096 size cap.
``ring.add``/``ring.mul``/``ring.neg`` look the tables up for callers
that want plain arithmetic; hot paths read the rows directly.

All carriers are immutable after construction; derived data (units,
ideal lattices, ...) is memoized on the ring.
"""

from __future__ import annotations

from array import array
from functools import partial, reduce
from itertools import compress
from math import gcd
from operator import getitem, itemgetter, not_
from typing import Callable, Iterable, Sequence

from .errors import CapacityExceeded, InvalidConstruction, InvalidIdeal, TheoremViolation

DEFAULT_SIZE_CAP = 4096
IDEAL_COUNT_CAP = 100_000
# array('H') holds indices below 2**16
TABLE_SIZE_LIMIT = 1 << 16


class FiniteRing:
    def __init__(
        self,
        add_table: list[array],
        mul_table: list[array],
        neg_table: array,
        *,
        one: int = 1,
        label: str = "",
    ):
        self.size = len(neg_table)
        if self.size < 2:
            raise InvalidConstruction(f"{label or 'the ring'} is the zero ring")
        self.add_table = add_table
        self.mul_table = mul_table
        self.neg_table = neg_table
        self.zero = 0
        self.one = one
        self.label = label or f"ring{self.size}"
        self._cache: dict = {}

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def elements(self) -> range:
        return range(self.size)

    def from_int(self, c: int) -> int:
        """Image of the integer c under the unique map Z -> R."""
        acc = self.zero
        for _ in range(c % self.char()):
            acc = self.add(acc, self.one)
        return acc

    def char(self) -> int:
        if "char" not in self._cache:
            k, acc = 1, self.one
            while acc != self.zero:
                acc = self.add(acc, self.one)
                k += 1
            self._cache["char"] = k
        return self._cache["char"]

    def __repr__(self):
        return f"FiniteRing({self.label}, size={self.size})"


# ---------------------------------------------------------------------------
# table composition


def check_size(size: int, what: str, cap: int) -> None:
    if size > min(cap, TABLE_SIZE_LIMIT):
        raise CapacityExceeded(f"{what} size {size} exceeds cap {min(cap, TABLE_SIZE_LIMIT)}")


def gather(idx: Sequence[int]) -> Callable[[Sequence], tuple]:
    """itemgetter(*idx): row -> (row[i] for i in idx) as one C-level call, a tuple even for one index."""
    return itemgetter(*idx) if len(idx) != 1 else (lambda row, i=idx[0]: (row[i],))


def pair_vector(outer: Iterable[int], inner: list[int] | array) -> array:
    """The map x -> outer[x // k] * k + inner[x % k], with k = len(inner)."""
    k = len(inner)
    return array("H", [o * k + i for o in outer for i in inner])


def pair_table(outer: list[array], inner: list[array]) -> list[array]:
    """The operation (x, y) -> outer[x//k][y//k] * k + inner[x%k][y%k], k = len(inner).

    This is the componentwise operation on pairs encoded as x = xo*k + xi.
    Block v of an inner row, v*k + row, is built once per row and v; each
    table row is then a join of blocks, one lookup per block.
    """
    k, m = len(inner), len(outer)
    span = list(range(m * k))
    shifted = [[array("H", get(span[v * k:v * k + k])).tobytes() for v in range(m)]
               for get in map(gather, inner)]
    return [array("H", b"".join(get(blocks))) for get in map(gather, outer) for blocks in shifted]


def digitwise(f: list[int] | array, d: int) -> array:
    """Apply f to each base-len(f) digit of the indices 0..len(f)**d - 1."""
    return reduce(pair_vector, [f] * d, [0])


def power_table(table: list[array], d: int) -> list[array]:
    """pair_table of d copies of table, split in halves so both factors stay large."""
    return table if d == 1 else pair_table(power_table(table, d - d // 2), power_table(table, d // 2))


def coset_classes(add_table: list[array], subgroup: Iterable[int]) -> tuple[dict[int, int], list[int]]:
    """(class index of each element, least element of each class), classes in that order."""
    get = gather(sorted(subgroup))
    cls: dict[int, int] = {}
    reps: list[int] = []
    for a, row in enumerate(add_table):
        if a not in cls:
            cls.update(dict.fromkeys(get(row), len(reps)))
            reps.append(a)
    return cls, reps


def quotient_table(rows: Iterable[array], cls: dict[int, int], reps: list[int]) -> list[array]:
    """Each row read at the class representatives, as class indices (induced operations)."""
    get = gather(reps)
    return [array("H", gather(get(row))(cls)) for row in rows]


def subgroup_sum(add_table: list[array], A: frozenset, B: frozenset) -> frozenset:
    """A + B as the union of the cosets b + A over b in B, each coset taken once."""
    if A <= B:
        return B
    if B <= A:
        return A
    if len(A) < len(B):
        A, B = B, A
    get = gather(list(A))
    out = set(A)
    for b in B:
        if b not in out:
            out.update(get(add_table[b]))
    return frozenset(out)


def subgroup_span(add_table: list[array], subgroups: Iterable[frozenset]) -> frozenset:
    """The sum of the given subgroups, folded with subgroup_sum from {0}.

    Every input must be a subgroup, as aJ, rN, aR and Rx are: subgroup_sum
    adds whole cosets of one summand, which covers A + B only then.
    """
    return reduce(partial(subgroup_sum, add_table), subgroups, frozenset({0}))


def multiples(rows: list[array], A: Iterable[int], B: Iterable[int]) -> set[frozenset]:
    """The distinct sets aB = {rows[a][b] : b in B} for a in A, each read with one gather."""
    get = gather(list(B))
    return {frozenset(get(rows[a])) for a in A}


def lattice_by_sums(add_table: list[array], cyclic: Iterable[frozenset], label: str) -> list[frozenset]:
    """All sums of the cyclic subgroups given (ideals from principal ideals, submodules),
    smallest first, ties broken by the sorted members.

    Each member is a sum of generators, so adding one generator at a time reaches them all.
    """
    gens = set(cyclic)
    seen = set(gens)
    worklist = list(seen)
    while worklist:
        cur = worklist.pop()
        for g in gens:
            s = subgroup_sum(add_table, cur, g)
            if s not in seen:
                if len(seen) >= IDEAL_COUNT_CAP:
                    raise CapacityExceeded(f"lattice size exceeded cap {IDEAL_COUNT_CAP} on {label}")
                seen.add(s)
                worklist.append(s)
    return sorted(seen, key=lambda m: (len(m), sorted(m)))


# ---------------------------------------------------------------------------
# constructions


def make_zn(n: int) -> FiniteRing:
    if n < 2:
        raise InvalidConstruction(f"Z_n needs n >= 2, got {n}")
    check_size(n, "Z_n", TABLE_SIZE_LIMIT)
    base = array("H", range(n))
    twice = base * 2
    add = [twice[a:a + n] for a in range(n)]
    # row a is every a-th entry of 0..n-1 repeated, and has period n / gcd(a, n);
    # it is read in strided slices of a buffer of 64 copies of 0..n-1
    cycle = base * 64
    mul = [array("H", [0]) * n]
    for a in range(1, n):
        period = n // gcd(a, n)
        row = array("H")
        while len(row) < period:
            start = len(row) * a % n
            row += cycle[start:start + a * (period - len(row)):a]
        mul.append(row * (n // period))
    return FiniteRing(add, mul, base[:1] + base[:0:-1], label=f"Z{n}")


def make_product(R: FiniteRing, S: FiniteRing, *, cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    check_size(R.size * S.size, "product", cap)
    return FiniteRing(
        pair_table(R.add_table, S.add_table),
        pair_table(R.mul_table, S.mul_table),
        pair_vector(R.neg_table, S.neg_table),
        one=R.one * S.size + S.one,
        label=f"{R.label} x {S.label}",
    )


def make_polyquot(R: FiniteRing, monic_poly: Iterable[int], *, cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """R[t]/(f) for a monic f given by coefficients, constant term first.

    Element c_0 + c_1 t + ... + c_{d-1} t^{d-1} has index sum c_i n^i.
    Addition is coefficient-wise. Multiplication is built row by row:
    a = c_0 + t*h gives a*b = c_0*b + t*(h*b), where h < a, c_0*b is
    coefficient-wise and t*x reduces t^d = -(c_{d-1} t^{d-1} + ... + c_0).
    That recurrence is evaluated only at the k low-degree b and at the
    multiples of t^e (k = n^e); the rest of the row follows by additivity,
    a*(u t^e + v) = a*(u t^e) + a*v, one block of k entries per u.
    """
    coeffs = list(monic_poly)
    if len(coeffs) < 2:
        raise InvalidConstruction("modulus must have degree >= 1")
    if coeffs[-1] != R.one:
        raise InvalidConstruction("modulus must be monic")
    d = len(coeffs) - 1
    size = R.size ** d
    check_size(size, "polyquot", cap)
    n = R.size
    add = power_table(R.add_table, d)
    scalar = [digitwise(row, d) for row in R.mul_table]
    # t * x: shift the coefficients up, then subtract c_{d-1} * f
    reduction = [sum(R.neg(R.mul(c, f)) * n ** i for i, f in enumerate(coeffs[:d]))
                 for c in R.elements()]
    shift = gather(range(0, size, n))
    times_t = array("H", b"".join(array("H", shift(add[r])).tobytes() for r in reduction))
    k = n ** ((d + 1) // 2)
    mul = scalar[:]
    for a in range(n, size):
        c0, h = scalar[a % n], mul[a // n]
        low = [add[x][times_t[y]] for x, y in zip(c0[:k], h[:k])]
        high = [add[x][times_t[y]] for x, y in zip(c0[::k], h[::k])]
        get = gather(low)
        mul.append(array("H", b"".join([array("H", get(add[u])).tobytes() for u in high])))
    return FiniteRing(add, mul, digitwise(R.neg_table, d), one=R.one,
                      label=f"{R.label}[t]/(deg{d})")


def is_ideal(R: FiniteRing, members: frozenset) -> bool:
    if R.zero not in members:
        return False
    at, mt = R.add_table, R.mul_table
    return all(
        members.issuperset(mt[a]) and members.issuperset(map(at[a].__getitem__, members))
        for a in members
    )


def quotient_ring(R: FiniteRing, I: Iterable[int]) -> FiniteRing:
    members = frozenset(I)
    if not is_ideal(R, members):
        raise InvalidIdeal(f"{sorted(members)} is not an ideal of {R.label}")
    cls, reps = coset_classes(R.add_table, members)
    get = gather(reps)
    return FiniteRing(
        quotient_table(get(R.add_table), cls, reps),
        quotient_table(get(R.mul_table), cls, reps),
        quotient_table([R.neg_table], cls, reps)[0],
        one=cls[R.one],
        label=f"{R.label}/I{len(members)}",
    )


# ---------------------------------------------------------------------------
# units and ideal theory


def units(R: FiniteRing) -> frozenset:
    """The a whose row holds one: the 2-byte entry ``one`` at an even byte offset of the row's bytes."""
    if "units" not in R._cache:
        one = array("H", [R.one]).tobytes()

        def holds_one(row: array) -> bool:
            data = row.tobytes()
            at = data.find(one)
            while at > 0 and at & 1:  # a hit across two entries
                at = data.find(one, at + 1)
            return at >= 0

        R._cache["units"] = frozenset(compress(R.elements(), map(holds_one, R.mul_table)))
    return R._cache["units"]


def is_unit(R: FiniteRing, a: int) -> bool:
    return a in units(R)


def nonunits(R: FiniteRing) -> frozenset:
    if "nonunits" not in R._cache:
        R._cache["nonunits"] = frozenset(R.elements()) - units(R)
    return R._cache["nonunits"]


def principal_ideal(R: FiniteRing, a: int) -> frozenset:
    # in a commutative unital ring, <a> = {ra : r in R}
    return frozenset(R.mul_table[a])


def principal_ideals(R: FiniteRing) -> dict[frozenset, int]:
    """Each distinct principal ideal aR, mapped to its least generator, one row read per class.

    aR = bR gives b = ua for a unit u in a finite ring, so the class of a is
    the orbit U*a, read from row a at the units; a = 0, 1, ... in turn, and
    each a no earlier orbit holds starts a class.
    """
    if "principal_ideals" not in R._cache:
        orbit = gather(sorted(units(R)))
        rep = [-1] * R.size
        found: dict[frozenset, int] = {}
        for a, row in enumerate(R.mul_table):
            if rep[a] < 0:
                for b in orbit(row):
                    rep[b] = a
                found[frozenset(row)] = a
        R._cache["associate_rep"] = rep
        R._cache["principal_ideals"] = found
    return R._cache["principal_ideals"]


def principal_heights(R: FiniteRing) -> dict[int, int]:
    """Class representative x -> the length of the longest strict chain of principal ideals from xR to (0).

    For y in aR, yR lies strictly inside aR iff y is not an associate of a, so h(a) is one more
    than the largest h(rep[y]) over such y, and h(0) = 0. Smaller ideals are visited first.
    """
    if "heights" not in R._cache:
        rep = associate_class_rep(R)
        height = [0] * R.size
        for m, a in sorted(principal_ideals(R).items(), key=lambda item: len(item[0])):
            below = set(map(rep.__getitem__, m))
            below.discard(a)
            height[a] = 1 + max(map(height.__getitem__, below), default=-1)
        R._cache["heights"] = {a: height[a] for a in principal_ideals(R).values()}
    return R._cache["heights"]


def associate_class_rep(R: FiniteRing) -> list[int]:
    """Map each element to the minimal index generating the same principal ideal."""
    principal_ideals(R)
    return R._cache["associate_rep"]


def generated_ideal(R: FiniteRing, gens: Iterable[int]) -> frozenset:
    return subgroup_span(R.add_table, (principal_ideal(R, g) for g in gens))


def ideal_product(R: FiniteRing, I: frozenset, J: frozenset) -> frozenset:
    """IJ as the sum of the ideals abR, a and b least in their classes in I and J. I and J must
    be ideals: aR = a'R gives aJ = a'J, and J is the sum of its ideals bR."""
    pids, rep = principal_ideals(R), associate_class_rep(R)
    get = gather([b for b in pids.values() if b in J])
    products = {rep[x] for a in pids.values() if a in I for x in get(R.mul_table[a])}
    return subgroup_span(R.add_table, (m for m, g in pids.items() if g in products))


def all_ideals(R: FiniteRing) -> list[frozenset]:
    """The full ideal lattice, by closing {0} and the join-irreducible principal ideals under sums.

    A principal ideal equal to the sum of the principal ideals strictly inside
    it adds nothing to the closure; by induction on size every principal
    ideal, so every ideal, is a sum of the ones kept.
    """
    if "all_ideals" not in R._cache:
        pids = sorted(principal_ideals(R), key=len)
        irreducible = [P for i, P in enumerate(pids)
                       if subgroup_span(R.add_table, (Q for Q in pids[:i] if Q < P)) != P]
        R._cache["all_ideals"] = lattice_by_sums(R.add_table, [frozenset({R.zero}), *irreducible], R.label)
    return R._cache["all_ideals"]


def is_prime_ideal(R: FiniteRing, I: frozenset) -> bool:
    """I is proper and each a outside I is invertible mod I: aR + I = R, read as
    |aR| |I| = |R| |aR & I|, since |A + B| = |A| |B| / |A & B| for subgroups. Then R/I is a
    field, so I is maximal and prime; a prime of a finite ring is maximal. I must be an ideal:
    aR is the same for each a of a class, so one a per class is read.
    """
    if len(I) == R.size:
        return False
    return all(len(A) * len(I) == R.size * len(A & I) for A, a in principal_ideals(R).items() if a not in I)


def maximal_ideals(R: FiniteRing) -> list[frozenset]:
    """The distinct ann(x) over the class representatives x of height 1, smallest first,
    ties broken by the sorted members (ann(ux) = ann(x)).

    h(x) = 1 iff xR is a minimal ideal, and then R/ann(x), isomorphic to xR, is
    simple, so ann(x) is maximal. Every maximal m of a finite (Artin) ring is
    ann(x) for some x (Matsumura, section 6), and then xR, isomorphic to R/m,
    is simple, so h(x) = 1.
    Cross-check: each is prime and together they cover the nonunits, so by
    prime avoidance every maximal ideal, which lies among the nonunits, is one
    of them.
    """
    if "maximal_ideals" not in R._cache:
        socle = {annihilator(R, x) for x, h in principal_heights(R).items() if h == 1}
        maxi = sorted(socle, key=lambda m: (len(m), sorted(m)))
        if not all(is_prime_ideal(R, I) for I in maxi) or frozenset().union(*maxi) != nonunits(R):
            raise TheoremViolation(f"maximal ideals cross-check failed on {R.label}")
        R._cache["maximal_ideals"] = maxi
    return R._cache["maximal_ideals"]


def min_primes(R: FiniteRing) -> list[frozenset]:
    """The maximal ideals: every prime of a finite ring is maximal (dimension zero)."""
    return maximal_ideals(R)


def nilradical(R: FiniteRing) -> frozenset:
    if "nilradical" not in R._cache:
        # a is nilpotent iff a^(2^k) = 0 once 2^k >= |R|: k squarings of every element at once
        power = square = array("H", map(getitem, R.mul_table, R.elements()))
        for _ in range((R.size - 1).bit_length() - 1):
            power = gather(power)(square)
        R._cache["nilradical"] = frozenset(compress(R.elements(), map(not_, power)))
    return R._cache["nilradical"]


def is_reduced(R: FiniteRing) -> bool:
    return len(nilradical(R)) == 1


def jacobson_radical(R: FiniteRing) -> frozenset:
    return frozenset(R.elements()).intersection(*maximal_ideals(R))


def annihilator(R: FiniteRing, a: int) -> frozenset:
    return frozenset(compress(R.elements(), map(not_, R.mul_table[a])))


def is_local(R: FiniteRing) -> bool:
    if "is_local" not in R._cache:
        via_annihilators = len(maximal_ideals(R)) == 1
        # cross-check, once per ring: local iff the nonunits are closed under addition;
        # nu + r inside nu gives nu + ur = u(nu + r) inside nu, so one r per class is read
        nu = nonunits(R)
        at = R.add_table
        closed = all(nu.issuperset(map(at[r].__getitem__, nu)) for r in principal_ideals(R).values() if r in nu)
        if via_annihilators != closed:
            raise TheoremViolation(f"is_local cross-check failed on {R.label}")
        R._cache["is_local"] = via_annihilators
    return R._cache["is_local"]


def maximal_ideal(R: FiniteRing) -> frozenset:
    if not is_local(R):
        raise InvalidIdeal(f"{R.label} is not local")
    return maximal_ideals(R)[0]


def is_field(R: FiniteRing) -> bool:
    via_units = len(units(R)) == R.size - 1
    # finite rings: field iff domain (a nonzero row has its only zero at b = 0)
    domain = all(R.mul_table[a].count(R.zero) == 1 for a in range(1, R.size))
    if via_units != domain:
        raise TheoremViolation(f"is_field cross-check failed on {R.label}")
    return via_units


def is_spir(R: FiniteRing) -> bool:
    """Special principal ideal ring: local with m principal, so every ideal is a power of m
    (Atiyah-Macdonald 8.8); m is nilpotent in any finite local ring."""
    return is_local(R) and maximal_ideal(R) in principal_ideals(R)
