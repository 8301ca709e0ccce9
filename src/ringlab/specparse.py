"""Parser for ring/module construction expressions.

Grammar:
    ring   := term ("x" term)*
    term   := primary ("[t]/(" poly ")")*
    primary:= "Z" int
            | "quot(" ring "," "[" ints "]" ")"
            | "idealize(" ring "," module ")"
    module := "self" | "free(" int ")" | "mquot(" module "," "[" ints "]" ")"
    poly   := integer polynomial in t, e.g. t^2+t+1, monic in the base ring

parse -> to_text -> parse round-trips to an identical tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import CapacityExceeded, InvalidConstruction
from .idealization import idealize
from .modules import (
    FiniteModule,
    make_free,
    make_self_module,
    quotient_module,
)
from .rings import (
    DEFAULT_SIZE_CAP,
    TABLE_SIZE_LIMIT,
    FiniteRing,
    generated_ideal,
    make_polyquot,
    make_product,
    make_zn,
    quotient_ring,
)


class ParseError(InvalidConstruction):
    pass


# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class Zn:
    n: int


@dataclass(frozen=True)
class Prod:
    left: "RingAst"
    right: "RingAst"


@dataclass(frozen=True)
class PolyQuot:
    base: "RingAst"
    coeffs: tuple  # constant term first, nonzero leading integer


@dataclass(frozen=True)
class Quot:
    base: "RingAst"
    gens: tuple


@dataclass(frozen=True)
class Idealize:
    ring: "RingAst"
    module: "ModuleAst"


@dataclass(frozen=True)
class MSelf:
    pass


@dataclass(frozen=True)
class MFree:
    k: int


@dataclass(frozen=True)
class MQuot:
    base: "ModuleAst"
    gens: tuple


RingAst = Zn | Prod | PolyQuot | Quot | Idealize
ModuleAst = MSelf | MFree | MQuot


# -- tokenizer / parser -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(Z\d+|idealize|quot|mquot|free|self|t|\d+|\[t\]/|[()\[\],x+^*])"
)


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"syntax error at position {pos}: {text[pos:pos + 10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


# At most this many constructions keep every recursive pass over a spec shallow
MAX_CONSTRUCTIONS, CONSTRUCTORS = 64, ("x", "[t]/", "quot", "idealize", "mquot")
# t^k and free(k) give more than TABLE_SIZE_LIMIT elements over any ring once k > MAX_EXPONENT
MAX_EXPONENT = TABLE_SIZE_LIMIT.bit_length() - 1


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"integer with {len(text)} digits is too long") from None


class _Parser:
    def __init__(self, tokens: list[str]):
        if sum(t in CONSTRUCTORS for t in tokens) > MAX_CONSTRUCTIONS:
            raise ParseError(f"spec has more than {MAX_CONSTRUCTIONS} constructions")
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return t

    def expect(self, t):
        got = self.next()
        if got != t:
            raise ParseError(f"expected {t!r}, got {got!r}")

    def parse_int(self) -> int:
        t = self.next()
        if not t.isdigit():
            raise ParseError(f"expected integer, got {t!r}")
        return _int(t)

    def parse_ring(self) -> RingAst:
        node = self.parse_term()
        while self.peek() == "x":
            self.next()
            node = Prod(node, self.parse_term())
        return node

    def parse_term(self) -> RingAst:
        node = self.parse_primary()
        while self.peek() == "[t]/":
            self.next()
            self.expect("(")
            coeffs = self.parse_poly()
            self.expect(")")
            node = PolyQuot(node, coeffs)
        return node

    def parse_primary(self) -> RingAst:
        t = self.next()
        if t.startswith("Z") and t[1:].isdigit():
            return Zn(_int(t[1:]))
        if t == "quot":
            self.expect("(")
            base = self.parse_ring()
            self.expect(",")
            gens = self.parse_int_list()
            self.expect(")")
            return Quot(base, gens)
        if t == "idealize":
            self.expect("(")
            ring = self.parse_ring()
            self.expect(",")
            module = self.parse_module()
            self.expect(")")
            return Idealize(ring, module)
        raise ParseError(f"unexpected token {t!r}")

    def parse_module(self) -> ModuleAst:
        t = self.next()
        if t == "self":
            return MSelf()
        if t == "free":
            self.expect("(")
            k = self.parse_int()
            self.expect(")")
            return MFree(k)
        if t == "mquot":
            self.expect("(")
            base = self.parse_module()
            self.expect(",")
            gens = self.parse_int_list()
            self.expect(")")
            return MQuot(base, gens)
        raise ParseError(f"unexpected module token {t!r}")

    def parse_int_list(self) -> tuple:
        self.expect("[")
        vals = []
        if self.peek() != "]":
            vals.append(self.parse_int())
            while self.peek() == ",":
                self.next()
                vals.append(self.parse_int())
        self.expect("]")
        return tuple(vals)

    def parse_poly(self) -> tuple:
        """Terms like t^2+t+1; returns coefficients, constant first."""
        terms: dict[int, int] = {}
        while True:
            coeff, power = 1, 0
            t = self.next()
            if t.isdigit():
                coeff = _int(t)
                if self.peek() == "*":
                    self.next()
                if self.peek() == "t":
                    self.next()
                    power = 1
            elif t == "t":
                power = 1
            else:
                raise ParseError(f"bad polynomial term {t!r}")
            if power == 1 and self.peek() == "^":
                self.next()
                power = self.parse_int()
            terms[power] = (terms.get(power, 0) + coeff)
            if self.peek() != "+":
                break
            self.next()
        # monicity is judged in the base ring (3t^2+1 is monic over Z2), by make_polyquot
        deg = max((p for p, c in terms.items() if c), default=0)
        if deg < 1:
            raise ParseError("modulus must have degree >= 1")
        if deg > MAX_EXPONENT:
            raise CapacityExceeded(f"a modulus of degree {deg} gives more than {TABLE_SIZE_LIMIT} elements")
        return tuple(terms.get(i, 0) for i in range(deg + 1))


def parse_spec(text: str) -> RingAst:
    if not text.strip():
        raise ParseError("empty spec")
    p = _Parser(_tokenize(text))
    node = p.parse_ring()
    if p.peek() is not None:
        raise ParseError(f"trailing input at token {p.i}: {p.peek()!r}")
    return node


def parse_module_spec(text: str) -> ModuleAst:
    if not text.strip():
        raise ParseError("empty module spec")
    p = _Parser(_tokenize(text))
    node = p.parse_module()
    if p.peek() is not None:
        raise ParseError(f"trailing input at token {p.i}: {p.peek()!r}")
    return node


# -- printing -----------------------------------------------------------------


def _poly_text(coeffs: tuple) -> str:
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            tpow = "t" if i == 1 else f"t^{i}"
            parts.append(tpow if c == 1 else f"{c}{tpow}")
    return "+".join(parts)


def to_text(node) -> str:
    match node:
        case Zn(n):
            return f"Z{n}"
        case Prod(l, r):
            return f"{to_text(l)} x {to_text(r)}"
        case PolyQuot(base, coeffs):
            return f"{to_text(base)}[t]/({_poly_text(coeffs)})"
        case Quot(base, gens):
            return f"quot({to_text(base)},[{','.join(map(str, gens))}])"
        case Idealize(ring, module):
            return f"idealize({to_text(ring)},{to_text(module)})"
        case MSelf():
            return "self"
        case MFree(k):
            return f"free({k})"
        case MQuot(base, gens):
            return f"mquot({to_text(base)},[{','.join(map(str, gens))}])"
    raise TypeError(f"not an AST node: {node!r}")


# -- size estimation and building ---------------------------------------------


def size_estimate(node: RingAst) -> int:
    match node:
        case Zn(n):
            return n
        case Prod(l, r):
            return size_estimate(l) * size_estimate(r)
        case PolyQuot(base, coeffs):
            return size_estimate(base) ** min(len(coeffs) - 1, MAX_EXPONENT + 1)
        case Quot(base, _):
            return size_estimate(base)
        case Idealize(ring, module):
            return size_estimate(ring) * _module_size_estimate(module, size_estimate(ring))
    raise TypeError(f"not a ring AST: {node!r}")


def _module_size_estimate(node: ModuleAst, ring_size: int) -> int:
    match node:
        case MSelf():
            return ring_size
        case MFree(k):
            return ring_size ** min(k, MAX_EXPONENT + 1)
        case MQuot(base, _):
            return _module_size_estimate(base, ring_size)
    raise TypeError(f"not a module AST: {node!r}")


def build_ring(node: RingAst, *, cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    limit = min(cap, TABLE_SIZE_LIMIT)
    if size_estimate(node) > limit:
        raise CapacityExceeded(
            f"estimated size {size_estimate(node)} exceeds cap {limit}"
        )
    match node:
        case Zn(n):
            return make_zn(n)
        case Prod(l, r):
            return make_product(build_ring(l, cap=cap), build_ring(r, cap=cap), cap=cap)
        case PolyQuot(base_ast, coeffs):
            base = build_ring(base_ast, cap=cap)
            ring_coeffs = [base.from_int(c) for c in coeffs]
            return make_polyquot(base, ring_coeffs, cap=cap)
        case Quot(base_ast, gens):
            base = build_ring(base_ast, cap=cap)
            _check_elements(gens, base.size, base.label)
            return quotient_ring(base, generated_ideal(base, gens))
        case Idealize(ring_ast, module_ast):
            R = build_ring(ring_ast, cap=cap)
            M = build_module(module_ast, R, cap=cap)
            return idealize(R, M, cap=cap)
    raise TypeError(f"not a ring AST: {node!r}")


def build_module(node: ModuleAst, R: FiniteRing, *, cap: int = DEFAULT_SIZE_CAP) -> FiniteModule:
    match node:
        case MSelf():
            return make_self_module(R)
        case MFree(k):
            return make_free(R, k, cap=cap)
        case MQuot(base_ast, gens):
            base = build_module(base_ast, R, cap=cap)
            _check_elements(gens, base.size, base.label)
            Q = quotient_module(base, gens)
            if Q.size < 2:
                raise InvalidConstruction(f"{to_text(node)} is the zero module")
            return Q
    raise TypeError(f"not a module AST: {node!r}")


def _check_elements(gens: tuple, size: int, label: str) -> None:
    if any(g >= size for g in gens):
        raise InvalidConstruction(f"generators {list(gens)} are not all element indices of {label}")
