"""The class-level factorization passes against element-by-element references.

``factor`` decides atoms, présimplifiability, atomicity and atom multisets
once per associate class. The references below decide them element by
element, as the package once did: the présimplifiable scan over every
nonunit b and nonzero a, the atom sweep over all nonunit pairs, the atom
divisor index over every (atom, nonunit) pair with its least-fixpoint
atomicity, and atom multisets recursing over elements. Every result and
witness must match.
"""

import json

import pytest

from ringlab.factor import _atom_multisets, atoms, is_atomic, is_bfr, is_presimplifiable
from ringlab import reports
from ringlab.reports import analyze_ring, recheck_report
from ringlab.rings import associate_class_rep, is_local, nonunits
from ringlab.specparse import build_ring, parse_spec

from test_acceptance import RING_SPECS, ring

SPECS = RING_SPECS + [f"Z{n}" for n in range(65, 130)]


def element_presimplifiable(R):
    for b in sorted(nonunits(R)):
        row = R.mul_table[b]
        a = next((a for a in range(1, R.size) if row[a] == a), None)
        if a is not None:
            return False, {"a": a, "b": b}
    return True, {}


def element_atoms(R):
    rep = associate_class_rep(R)
    nus = sorted(nonunits(R))
    broken = set()
    for i, b in enumerate(nus):
        row, rb = R.mul_table[b], rep[b]
        for c in nus[i:]:
            ra = rep[row[c]]
            if ra != rb and ra != rep[c]:
                broken.add(row[c])
    return frozenset(nus) - broken


def element_atom_divisors(R):
    ts = sorted(nonunits(R) - {R.zero})
    index = {}
    for p in sorted(element_atoms(R) - {R.zero}):
        for t, x in zip(ts, map(R.mul_table[p].__getitem__, ts)):
            if x != R.zero:
                index.setdefault(x, []).append((p, t))
    return index


def element_atomic(R):
    ats, nus, divs = element_atoms(R), nonunits(R), element_atom_divisors(R)
    targets = [a for a in range(1, R.size) if a in nus]
    good = set(a for a in targets if a in ats)
    changed = True
    while changed:
        changed = False
        for a in targets:
            if a not in good and any(t in good for _, t in divs.get(a, ())):
                good.add(a)
                changed = True
    bad = [a for a in targets if a not in good]
    return (False, {"element": bad[0]}) if bad else (True, {})


def element_atom_multisets(R):
    """Nonzero nonunit -> its atom multisets over class representatives; needs a BFR."""
    ats, rep, divs = element_atoms(R), associate_class_rep(R), element_atom_divisors(R)
    memo = {}

    def fac(x):
        if x not in memo:
            res = {(rep[x],)} if x in ats else set()
            for p, t in divs.get(x, ()):
                for rest in fac(t):
                    res.add(tuple(sorted((rep[p],) + rest)))
            memo[x] = res
        return memo[x]

    return {a: fac(a) for a in sorted(nonunits(R) - {R.zero})}


@pytest.mark.parametrize("spec", SPECS)
def test_class_passes_match_element_references(spec):
    R = ring(spec)
    assert is_presimplifiable(R) == element_presimplifiable(R)
    assert atoms(R) == element_atoms(R)
    assert is_atomic(R) == element_atomic(R)
    if is_bfr(R)[0]:
        assert {a: _atom_multisets(R, a) for a in sorted(nonunits(R) - {R.zero})} == element_atom_multisets(R)


@pytest.mark.parametrize("spec,local", [("Z8", True), ("idealize(Z4,self)", True),
                                        ("Z6", False), ("Z2 x Z4", False)])
def test_analyze_and_recheck_skip_lattice_and_graph(monkeypatch, spec, local):
    R = build_ring(parse_spec(spec))
    assert is_local(R) == local
    report = json.loads(json.dumps(analyze_ring(R, spec).to_dict()))  # as recheck reads a report file
    rebuilt = []

    def build_and_keep(*args, **kwargs):
        rebuilt.append(build_ring(*args, **kwargs))
        return rebuilt[-1]

    monkeypatch.setattr(reports, "build_ring", build_and_keep)
    assert recheck_report(report) == []
    assert len(rebuilt) == 1
    for S in (R, *rebuilt):
        assert "all_ideals" not in S._cache
        assert "divisor_graph" not in S._cache
