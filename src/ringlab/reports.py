"""Property reports: the full predicate vector for one ring, plus replay.

JSON is the canonical format; every witness carries enough indices to be
re-validated by direct arithmetic against a ring rebuilt from the spec
text (see ``recheck_report``).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields

from . import __version__
from .factor import (
    bouvier_class,
    is_accp,
    is_atomic,
    is_bfr,
    is_presimplifiable,
    is_ufr_direct,
    u_boundedness_of_zero,
)
from .rings import (
    DEFAULT_SIZE_CAP,
    FiniteRing,
    associate_class_rep,
    is_field,
    is_local,
    is_reduced,
    is_spir,
    is_unit,
    min_primes,
    nonunits,
    principal_ideals,
    units,
)
from .specparse import build_ring, parse_spec, to_text

@dataclass
class PropertyReport:
    spec: str
    size: int
    unit_count: int
    reduced: bool
    local: bool
    spir: bool
    field: bool
    presimplifiable: bool
    presimplifiable_witness: dict | None
    accp: bool
    accp_height: int
    bfr: bool
    bfr_witness: dict | None
    atomic: bool
    ufr_direct: bool
    ufr_witness: dict | None
    ufr_bouvier: bool
    bouvier_class: str
    u_bounded_max_len: int
    u_bounded_example: list | None
    min_prime_count: int
    version: str

    def to_dict(self) -> dict:
        return asdict(self)

    def violations(self) -> list[str]:
        """Implication-lattice checks; all must be empty on correct code."""
        out = []
        if self.bfr and not self.presimplifiable:
            out.append("BFR but not presimplifiable")
        if self.ufr_direct and not self.bfr:
            out.append("UFR but not BFR")
        if self.bfr and not self.accp:
            out.append("BFR but not ACCP")
        # a nonzero nonunit with no atom factorization has a nonatom factor with none, and so on up
        if self.accp and not self.atomic:
            out.append("ACCP but not atomic")
        if self.ufr_direct != self.ufr_bouvier:
            out.append("ufr_direct disagrees with Bouvier classification")
        # the prefix products of a minimal factorization of 0 descend strictly through principal ideals
        if self.u_bounded_max_len > self.accp_height:
            out.append("minimal factorization of 0 longer than the principal-ideal chain")
        return out


# the CSV columns: every report field except the witnesses and examples
REPORT_FIELDS = [f.name for f in fields(PropertyReport) if not f.name.endswith(("_witness", "_example"))]


def analyze_ring(R: FiniteRing, spec_text: str) -> PropertyReport:
    pres, pres_wit = is_presimplifiable(R)
    accp, height = is_accp(R)
    bfr, bfr_wit = is_bfr(R)
    atomic, _ = is_atomic(R)
    ufr, ufr_wit = is_ufr_direct(R)
    bclass = bouvier_class(R)
    _, umax, uexample = u_boundedness_of_zero(R)
    return PropertyReport(
        spec=spec_text,
        size=R.size,
        unit_count=len(units(R)),
        reduced=is_reduced(R),
        local=is_local(R),
        spir=is_spir(R),
        field=is_field(R),
        presimplifiable=pres,
        presimplifiable_witness=pres_wit or None,
        accp=accp,
        accp_height=height,
        bfr=bfr,
        bfr_witness=bfr_wit or None,
        atomic=atomic,
        ufr_direct=ufr,
        ufr_witness=ufr_wit or None,
        ufr_bouvier=bclass != "none",
        bouvier_class=bclass,
        u_bounded_max_len=umax,
        u_bounded_example=list(uexample) if uexample else None,
        min_prime_count=len(min_primes(R)),
        version=__version__,
    )


def analyze_spec(text: str, *, cap: int = DEFAULT_SIZE_CAP) -> tuple[dict, float]:
    ast = parse_spec(text)
    canonical = to_text(ast)
    R = build_ring(ast, cap=cap)
    t0 = time.perf_counter()
    report = analyze_ring(R, canonical)
    return report.to_dict(), time.perf_counter() - t0


# ---------------------------------------------------------------------------
# witness replay


def _elements(R: FiniteRing, values) -> bool:
    """values is a list of element indices of R (JSON booleans and floats are not)."""
    return isinstance(values, list) and all(type(v) is int and 0 <= v < R.size for v in values)


def _get(w, key):
    return w.get(key) if isinstance(w, dict) else None


def _replay_presimplifiable(R: FiniteRing, w) -> bool:
    a, b = _get(w, "a"), _get(w, "b")
    return _elements(R, [a, b]) and a != R.zero and not is_unit(R, b) and R.mul(a, b) == a


def _replay_cycle(R: FiniteRing, w) -> bool:
    cycle, labels = _get(w, "cycle"), _get(w, "labels")
    if not (_elements(R, cycle) and _elements(R, labels) and cycle and len(cycle) == len(labels)):
        return False
    nus = nonunits(R)
    for k, a in enumerate(cycle):
        s = labels[k]
        t = cycle[(k + 1) % len(cycle)]
        if a == R.zero or s not in nus or R.mul(s, t) != a:
            return False
    return True


def _replay_u_bounded(R: FiniteRing, factors) -> bool:
    if not _elements(R, factors):
        return False
    nus = nonunits(R)
    if any(f not in nus for f in factors):
        return False
    prod = R.one
    for f in factors:
        prod = R.mul(prod, f)
    if prod != R.zero:
        return False
    for k in range(len(factors)):
        sub = R.one
        for j, f in enumerate(factors):
            if j != k:
                sub = R.mul(sub, f)
        if sub == R.zero and len(factors) > 1:
            return False
    return True


def _replay_ufr_witness(R: FiniteRing, w) -> bool:
    reason, a, multisets = _get(w, "reason"), _get(w, "element"), _get(w, "multisets")
    if reason == "not_bfr":
        return _replay_cycle(R, w)
    if not _elements(R, [a]):
        return False
    if reason == "not_atomic" and a != R.zero and not is_unit(R, a):
        # only the atoms that divide a can appear in a factorization of a
        rep = associate_class_rep(R)
        ats = [f for f in nonunits(R) if a in R.mul_table[f] and _is_atom(R, rep, f)]
        products = frontier = set(ats)
        while frontier:
            frontier = {R.mul_table[p][x] for p in ats for x in frontier} - products
            products = products | frontier
        return a not in products
    if reason == "non_unique" and isinstance(multisets, list) and a != R.zero:
        rep = associate_class_rep(R)
        seen = set()
        for multiset in multisets:
            if not _elements(R, multiset) or not all(_is_atom(R, rep, f) for f in multiset):
                return False
            prod = R.one
            for f in multiset:
                prod = R.mul(prod, f)
            if prod != a:
                return False
            seen.add(tuple(sorted(rep[f] for f in multiset)))
        return len(seen) == len(multisets) >= 2
    return False


def _is_atom(R: FiniteRing, rep: list[int], f: int) -> bool:
    """The definition: f is a nonunit, and f = bc makes f ~ b or f ~ c.

    A unit b leaves c ~ f, so only the rows of nonunits b with f in bR are read.
    """
    nus = nonunits(R)
    if f not in nus:
        return False
    ideal = {g: members for members, g in principal_ideals(R).items()}
    for b in nus:
        if rep[b] != rep[f] and f in ideal[rep[b]]:
            if any(rep[c] != rep[f] for c, v in enumerate(R.mul_table[b]) if v == f):
                return False
    return True


def recheck_report(report: dict, *, cap: int = DEFAULT_SIZE_CAP) -> list[str]:
    """Rebuild the ring from the report's spec, re-validate witnesses and recompute the
    fields that are cheap to recompute.

    Returns a list of failure descriptions (empty means everything replays
    and no implication between the verdicts is broken).
    """
    # a corpus row carries more keys than a report; a missing one is a KeyError
    failures = PropertyReport(**{f.name: report[f.name] for f in fields(PropertyReport)}).violations()
    R = build_ring(parse_spec(report["spec"]), cap=cap)
    if report["size"] != R.size:
        failures.append("size mismatch")
    if not report["presimplifiable"]:
        if not _replay_presimplifiable(R, report["presimplifiable_witness"]):
            failures.append("presimplifiable witness does not replay")
    if not report["bfr"]:
        if not _replay_cycle(R, report["bfr_witness"]):
            failures.append("bfr cycle witness does not replay")
    if not report["ufr_direct"]:
        if not _replay_ufr_witness(R, report["ufr_witness"]):
            failures.append("ufr witness does not replay")
    # a positive length claims an example of that length; length 0 claims none
    example = report["u_bounded_example"]
    if report["u_bounded_max_len"] or example is not None:
        if not _replay_u_bounded(R, example) or len(example) != report["u_bounded_max_len"]:
            failures.append("u-bounded example does not replay")
    # classification fields are cheap to recompute, so recheck them outright
    recomputed = {
        "unit_count": len(units(R)),
        "bouvier_class": bouvier_class(R),
        "reduced": is_reduced(R),
        "local": is_local(R),
        "field": is_field(R),
        "spir": is_spir(R),
        "presimplifiable": is_presimplifiable(R)[0],
        "accp_height": is_accp(R)[1],
        "min_prime_count": len(min_primes(R)),
    }
    failures += [f"{name.replace('_', ' ')} mismatch" for name, value in recomputed.items() if report[name] != value]
    if report["u_bounded_max_len"] != u_boundedness_of_zero(R)[1]:
        failures.append("u-bounded length mismatch")
    if report["ufr_direct"] != (report["bouvier_class"] != "none"):
        failures.append("ufr flag inconsistent with bouvier class")
    return failures
