"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(visible even under pytest capture). The corpora are fixed here so the gate
is deterministic and self-contained.
"""

import time
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import pytest

from ringlab.factor import (
    atoms,
    bouvier_class,
    check_prop_bfr,
    check_theorem_ufr,
    divisor_graph,
    is_bfr,
    is_presimplifiable,
    is_ufr_direct,
    u_boundedness_of_zero,
)
from ringlab.blockalg import verify_example25
from ringlab.idealization import (
    idealize,
    verify_ideal_product,
    verify_ideal_shape,
    verify_prime_criterion,
    verify_unit_criterion,
)
from ringlab.rings import is_reduced, is_unit, min_primes, nonunits
from ringlab.specparse import build_module, build_ring, parse_module_spec, parse_spec

from oracles import bf_lengths_oracle, is_ufr_bouvier, max_factorization_length

# the size-8 local ring with square-zero maximal ideal used as the third
# classification witness (not a field, not an SPIR)
LOCAL_SQUAREZERO = "quot(Z2[t]/(t^2)[t]/(t^2),[8])"

# (ring spec, module spec) corpus: 41 pairs, |R|*|M| <= 4096
PAIR_SPECS = [
    ("Z2", "self"), ("Z3", "self"), ("Z5", "self"), ("Z7", "self"), ("Z11", "self"),
    ("Z4", "self"), ("Z6", "self"), ("Z8", "self"), ("Z9", "self"),
    ("Z10", "self"), ("Z12", "self"), ("Z14", "self"), ("Z15", "self"),
    ("Z16", "self"), ("Z18", "self"),
    ("Z4", "mquot(free(1),[2])"), ("Z9", "mquot(free(1),[3])"),
    ("Z8", "mquot(free(1),[2])"), ("Z8", "mquot(free(1),[4])"),
    ("Z12", "mquot(free(1),[4])"), ("Z12", "mquot(free(1),[6])"),
    ("Z2", "free(2)"), ("Z3", "free(2)"), ("Z4", "free(2)"),
    ("Z5", "free(2)"), ("Z6", "free(2)"),
    ("Z2", "free(3)"), ("Z3", "free(3)"),
    (LOCAL_SQUAREZERO, "self"), (LOCAL_SQUAREZERO, "mquot(free(1),[2,4])"),
    ("Z2[t]/(t^2)", "self"), ("Z3[t]/(t^2)", "self"), ("Z2[t]/(t^3)", "self"),
    ("Z2[t]/(t^2+t+1)", "self"), ("Z2[t]/(t^2+t+1)", "free(2)"),
    ("Z2 x Z2", "self"), ("Z2 x Z3", "self"), ("Z2 x Z4", "self"),
    ("Z3 x Z3", "self"), ("Z2 x Z2 x Z2", "self"),
    ("Z2 x Z8", "self"),
]

# ring-only corpus for the classification / length / lattice criteria
RING_SPECS = [f"Z{n}" for n in range(2, 65)] + [
    "Z2 x Z2", "Z2 x Z3", "Z2 x Z2 x Z2", "Z2 x Z4", "Z3 x Z3",
    "Z2[t]/(t^2)", "Z3[t]/(t^2)", "Z2[t]/(t^2+t+1)", "Z2[t]/(t^3)",
    LOCAL_SQUAREZERO, "quot(Z12,[4])",
    "idealize(Z2,self)", "idealize(Z3,self)", "idealize(Z4,self)",
    "idealize(Z6,self)", "idealize(Z8,self)", "idealize(Z9,self)",
    "idealize(Z16,self)",
    "idealize(Z4,mquot(free(1),[2]))",
    "idealize(Z2[t]/(t^2+t+1),self)", "idealize(Z2 x Z2,self)",
]


@lru_cache(maxsize=None)
def ring(spec):
    return build_ring(parse_spec(spec))


@lru_cache(maxsize=None)
def pair(ring_spec, module_spec):
    R = ring(ring_spec)
    M = build_module(parse_module_spec(module_spec), R)
    return R, M


def announce(capsys, number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def is_prime_power(n):
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return False


def prod(R, xs):
    out = R.one
    for x in xs:
        out = R.mul(out, x)
    return out


def test_criterion_1_ufr_theorem_equivalence(capsys):
    t0 = time.perf_counter()
    assert len(PAIR_SPECS) >= 40
    disagreements = []
    for rs, ms in PAIR_SPECS:
        R, M = pair(rs, ms)
        assert R.size * M.size <= 4096, (rs, ms)
        rep = check_theorem_ufr(R, M)
        if not rep.all_agree:
            disagreements.append((rs, ms, rep))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 300
    announce(capsys, 1, "unique-factorization characterizations agree", ok,
             f"{len(PAIR_SPECS)} pairs, {len(disagreements)} discrepancies, "
             f"{elapsed:.1f}s")


def test_criterion_2_bouvier_cross_oracle(capsys):
    t0 = time.perf_counter()
    mismatches = []
    checked = 0
    for spec in RING_SPECS:
        R = ring(spec)
        if R.size > 512:
            continue
        checked += 1
        direct, _ = is_ufr_direct(R)
        if direct != is_ufr_bouvier(R):
            mismatches.append(spec)
    ufr_zn = {n for n in range(2, 65) if is_ufr_direct(ring(f"Z{n}"))[0]}
    expected = {n for n in range(2, 65) if is_prime_power(n)}
    ok = not mismatches and ufr_zn == expected
    announce(capsys, 2, "direct UFR test matches classification oracle", ok,
             f"{checked} rings, Zn UFR set = prime powers: {ufr_zn == expected}, "
             f"{time.perf_counter() - t0:.1f}s")


def test_criterion_3_bounded_factorization_transfer(capsys):
    t0 = time.perf_counter()
    bad = []
    nonvacuous_b = 0
    for rs, ms in PAIR_SPECS:
        R, M = pair(rs, ms)
        rep = check_prop_bfr(R, M)
        if not (rep.impl_a_ok and rep.impl_b_ok):
            bad.append((rs, ms))
        if rep.impl_b_premise:
            nonvacuous_b += 1

    # the (Z4, self) row must exercise implication (b) non-vacuously
    R, M = pair("Z4", "self")
    rep = check_prop_bfr(R, M)
    anchor_ok = rep.impl_b_premise and rep.impl_b_ok
    anchor_ok &= rep.zero_max_minimal_len == 2
    T = idealize(R, M)
    graph_bfr, _ = is_bfr(T)
    brute = bf_lengths_oracle(T)
    anchor_ok &= graph_bfr and all(v is not None for v in brute.values())

    ok = not bad and nonvacuous_b >= 1 and anchor_ok
    announce(capsys, 3, "bounded factorization transfers to the extension", ok,
             f"{len(PAIR_SPECS)} pairs, {nonvacuous_b} non-vacuous (b) rows, "
             f"anchor Z4: {anchor_ok}, {time.perf_counter() - t0:.1f}s")


def test_criterion_4_reduced_minimal_length_bound(capsys):
    t0 = time.perf_counter()
    field_specs = ["Z2", "Z3", "Z2[t]/(t^2+t+1)"]
    violations = []
    equality = {}
    count = 0
    for k in (2, 3, 4):
        for combo in combinations_with_replacement(field_specs, k):
            spec = " x ".join(combo)
            R = ring(spec)
            assert is_reduced(R)
            count += 1
            bounded, maxlen, _ = u_boundedness_of_zero(R)
            n_min = len(min_primes(R))
            if not bounded or maxlen > n_min:
                violations.append(spec)
            if maxlen == n_min:
                equality[spec] = maxlen
    anchors = (equality.get("Z2 x Z3") == 2
               and equality.get("Z2 x Z2 x Z2") == 3)
    ok = not violations and anchors
    announce(capsys, 4, "minimal zero-factorization length ≤ #minimal primes",
             ok, f"{count} reduced rings, equality anchors: {anchors}, "
             f"{time.perf_counter() - t0:.1f}s")


def test_criterion_5_length_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    mismatches = []
    checked = 0
    for spec in RING_SPECS:
        R = ring(spec)
        if R.size > 64:
            continue
        checked += 1
        oracle = bf_lengths_oracle(R)
        for a in R.elements():
            if a == 0 or is_unit(R, a):
                continue
            length, _ = max_factorization_length(R, a)
            if length != oracle.get(a):
                mismatches.append((spec, a, length, oracle.get(a)))

    R6, R8, R4 = ring("Z6"), ring("Z8"), ring("Z4")
    anchors = (max_factorization_length(R6, 3)[0] is None
               and max_factorization_length(R8, 4)[0] == 2
               and max_factorization_length(R4, 2)[0] == 1)
    ok = not mismatches and anchors
    announce(capsys, 5, "graph-based lengths equal brute force", ok,
             f"{checked} rings, {len(mismatches)} mismatches, anchors: {anchors}, "
             f"{time.perf_counter() - t0:.1f}s")


def test_criterion_6_extension_structure_facts(capsys):
    t0 = time.perf_counter()
    failures = []
    for rs, ms in PAIR_SPECS:
        R, M = pair(rs, ms)
        for name, fn in [
            ("units", verify_unit_criterion),
            ("ideal-shape", verify_ideal_shape),
            ("primes", verify_prime_criterion),
            ("ideal-product", verify_ideal_product),
        ]:
            good, wit = fn(R, M)
            if not good:
                failures.append((rs, ms, name, wit))
    ok = not failures
    announce(capsys, 6, "extension-ring structure facts verified", ok,
             f"{len(PAIR_SPECS)} pairs x 4 verifiers, {len(failures)} failures, "
             f"{time.perf_counter() - t0:.1f}s")


def test_criterion_7_truncation_stages(capsys):
    results = []
    ok = True
    for stage in (2, 3, 4):
        t0 = time.perf_counter()
        rep = verify_example25(stage)
        dt = time.perf_counter() - t0
        stage_ok = (rep["pass"] and dt < 60
                    and rep["lengths"] == list(range(2, stage + 2))
                    and rep["factors_nonunit"] and rep["sigmas_equal"]
                    and rep["m_nilpotent"]
                    and rep["m_power_dims"][stage + 1] == 0)
        ok = ok and stage_ok
        results.append(f"stage {stage}: {dt:.2f}s")
    announce(capsys, 7, "graded truncation algebra stages", ok,
             ", ".join(results))


def test_criterion_8_implication_lattice(capsys):
    t0 = time.perf_counter()
    violations = []
    for spec in RING_SPECS:
        R = ring(spec)
        bfr, _ = is_bfr(R)
        presimpl, _ = is_presimplifiable(R)
        ufr, _ = is_ufr_direct(R)
        if bfr and not presimpl:
            violations.append((spec, "bounded-factorization without cancellation"))
        if ufr and not bfr:
            violations.append((spec, "unique factorization without bounds"))
        # graph form: an acyclic divisor graph has no nonunit self-loops
        succ = divisor_graph(R).succ
        if bfr and any(a in s and not is_unit(R, s[a]) for a, s in enumerate(succ)):
            violations.append((spec, "acyclic graph with self-loop"))

    R6 = ring("Z6")
    ok6, wit = is_presimplifiable(R6)
    witness_ok = (not ok6 and (wit["a"], wit["b"]) == (3, 3)
                  and R6.mul(3, 3) == 3 and not is_unit(R6, 3))
    ok = not violations and witness_ok
    announce(capsys, 8, "implication lattice holds corpus-wide", ok,
             f"{len(RING_SPECS)} rings, {len(violations)} violations, "
             f"Z6 witness (3,3): {witness_ok}, {time.perf_counter() - t0:.1f}s")
