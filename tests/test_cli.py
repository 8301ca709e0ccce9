import json
import time

import pytest

from ringlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_z6(capsys):
    code, out = run(capsys, "analyze", "Z6")
    assert code == 0
    payload = json.loads(out)
    rep = payload["report"]
    assert rep["spec"] == "Z6"
    assert rep["size"] == 6
    assert rep["unit_count"] == 2
    assert rep["bouvier_class"] == "none"
    assert not rep["bfr"]
    assert rep["u_bounded_max_len"] == 2
    assert rep["presimplifiable_witness"] == {"a": 3, "b": 3}


def test_analyze_deterministic_report(capsys):
    _, out1 = run(capsys, "analyze", "Z8")
    _, out2 = run(capsys, "analyze", "Z8")
    # timing lives in meta; the report payload itself is byte-stable
    r1 = json.dumps(json.loads(out1)["report"], sort_keys=True)
    r2 = json.dumps(json.loads(out2)["report"], sort_keys=True)
    assert r1 == r2


def test_analyze_bad_spec_exit_1(capsys):
    assert main(["analyze", "Zfoo"]) == 1


@pytest.mark.parametrize("spec,kind", [
    ("quot(Z4,[9])", "InvalidConstruction"),                      # generator outside Z4
    ("idealize(Z4,mquot(free(1),[99]))", "InvalidConstruction"),  # generator outside the module
    ("quot(Z4,[1])", "InvalidConstruction"),                      # the zero ring
    ("idealize(Z4,mquot(free(1),[1]))", "InvalidConstruction"),   # the zero module
    ("idealize(Z4,free(0))", "InvalidConstruction"),              # rank-0 free module
    ("quot(Z4,[x])", "ParseError"),                               # a generator that is no integer
    ("Z4[t]/(2t^2+1)", "InvalidConstruction"),                    # 2t^2+1 is not monic over Z4
    ("block(2) x Z2", "ParseError"),
    ("quot(block(2),[1])", "ParseError"),
])
def test_analyze_invalid_construction_exit_1(capsys, spec, kind):
    assert main(["analyze", spec]) == 1
    assert json.loads(capsys.readouterr().err)["kind"] == kind


def test_analyze_cap_exit_3(capsys):
    assert main(["analyze", "Z99999"]) == 3


def test_analyze_block_backend_rejected(capsys):
    assert main(["analyze", "block(3)"]) == 1


def test_verify_ufr_theorem(capsys):
    code, out = run(capsys, "verify", "ufr-theorem", "--ring", "Z4",
                    "--module", "mquot(free(1),[2])")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["verdict"] == "PASS"
    assert rep["all_agree"] and rep["ufr_direct"]


def test_verify_needs_module(capsys):
    assert main(["verify", "ufr-theorem", "--ring", "Z4"]) == 1


def test_verify_idealization_structure(capsys):
    code, out = run(capsys, "verify", "idealization-structure",
                    "--ring", "Z4", "--module", "self")
    assert code == 0
    rep = json.loads(out)["report"]
    for key in ("unit_criterion", "ideal_shape", "prime_criterion", "ideal_product"):
        assert rep[key]["pass"], key


@pytest.mark.parametrize("theorem", ["ufr-theorem", "bfr-proposition", "idealization-structure"])
def test_verify_caps_the_idealization(capsys, theorem):
    # Z16 and its module fit under 64, Z16(+)Z16 has 256 elements
    argv = ["verify", theorem, "--ring", "Z16", "--module", "self", "--max-ring-size", "64"]
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().err)["kind"] == "CapacityExceeded"


def test_verify_ubounded_lemma_builds_no_idealization(capsys):
    argv = ["verify", "ubounded-lemma", "--ring", "Z16", "--module", "self", "--max-ring-size", "64"]
    assert main(argv) == 0


def test_verify_ubounded_lemma(capsys):
    code, out = run(capsys, "verify", "ubounded-lemma", "--ring", "Z2 x Z3")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["refinement_bound_holds"] is True
    assert rep["zero_max_minimal_len"] == 2


def test_example25(capsys):
    code, out = run(capsys, "example25", "--stage", "2")
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["pass"] and rep["lengths"] == [2, 3]


def test_corpus_and_recheck(tmp_path, capsys):
    cfg = tmp_path / "corpus.txt"
    cfg.write_text("# comment\nrange Zn 2..8\nidealize(Z4,self)\nZ2 x Z3\n")
    code, out = run(capsys, "corpus", str(cfg))
    assert code == 0
    payload = json.loads(out)["report"]
    assert payload["summary"]["rows"] == 9
    assert payload["summary"]["violation_count"] == 0
    specs = [r["spec"] for r in payload["rows"]]
    assert specs == sorted(specs)

    report_file = tmp_path / "out.json"
    report_file.write_text(out)
    code, out = run(capsys, "recheck", str(report_file))
    assert code == 0
    assert json.loads(out)["report"]["failures"] == []


def test_corpus_csv(tmp_path, capsys):
    cfg = tmp_path / "corpus.txt"
    cfg.write_text("Z6\nZ8\n")
    code, out = run(capsys, "corpus", str(cfg), "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("spec,size,")
    assert len(lines) == 3


def test_corpus_parallel_matches_serial(tmp_path, capsys):
    cfg = tmp_path / "corpus.txt"
    cfg.write_text("range Zn 2..10\n")
    _, out1 = run(capsys, "corpus", str(cfg))
    _, out2 = run(capsys, "corpus", str(cfg), "--jobs", "2")
    rows1 = json.loads(out1)["report"]["rows"]
    rows2 = json.loads(out2)["report"]["rows"]
    assert rows1 == rows2


def test_corpus_bad_range(tmp_path, capsys):
    cfg = tmp_path / "corpus.txt"
    cfg.write_text("range Zn oops\n")
    assert main(["corpus", str(cfg)]) == 1


def test_recheck_detects_tampering(tmp_path, capsys):
    _, out = run(capsys, "analyze", "Z6")
    payload = json.loads(out)
    payload["report"]["bouvier_class"] = "SPIR"
    payload["report"]["ufr_direct"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out = run(capsys, "recheck", str(bad))
    assert code == 2
    assert json.loads(out)["report"]["failures"]


def test_recheck_fails_a_report_that_breaks_an_implication(tmp_path, capsys):
    # 3 * 3 = 3 keeps Z6 from being presimplifiable, so a BFR claim with no cycle breaks BFR => presimplifiable
    _, out = run(capsys, "analyze", "Z6")
    payload = json.loads(out)
    payload["report"].update(bfr=True, bfr_witness=None)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out = run(capsys, "recheck", str(bad))
    assert code == 2
    assert json.loads(out)["report"]["failures"] == [{"spec": "Z6", "failure": "BFR but not presimplifiable"}]


def test_recheck_fails_a_u_bounded_length_below_the_maximum(tmp_path, capsys):
    # [0] is a minimal factorization of 0 of length 1 and replays, but Z6's longest is [2, 3]
    _, out = run(capsys, "analyze", "Z6")
    payload = json.loads(out)
    payload["report"].update(u_bounded_max_len=1, u_bounded_example=[0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out = run(capsys, "recheck", str(bad))
    assert code == 2
    assert json.loads(out)["report"]["failures"] == [{"spec": "Z6", "failure": "u-bounded length mismatch"}]


# a cheap field set to a value the ring does not have; no witness or implication catches any of them
TAMPERED_FIELDS = [
    ("Z6", "reduced", False),
    ("Z8", "local", False),
    ("Z4 x Z4", "field", True),
    ("Z8", "spir", False),
    ("Z6", "accp_height", 5),
    ("Z4 x Z4", "min_prime_count", 4),
    ("Z6", "presimplifiable", True),
]


@pytest.mark.parametrize("spec,field,value", TAMPERED_FIELDS)
def test_recheck_recomputes_a_tampered_field(tmp_path, capsys, spec, field, value):
    _, out = run(capsys, "analyze", spec)
    payload = json.loads(out)
    assert payload["report"][field] != value
    payload["report"][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out = run(capsys, "recheck", str(bad))
    assert code == 2
    assert json.loads(out)["report"]["failures"] == [{"spec": spec, "failure": f"{field.replace('_', ' ')} mismatch"}]


def test_recheck_needs_every_report_field(tmp_path, capsys):
    cfg = tmp_path / "corpus.txt"
    cfg.write_text("Z6\nZ8\n")
    _, out = run(capsys, "corpus", str(cfg))
    payload = json.loads(out)
    del payload["report"]["rows"][1]["atomic"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["recheck", str(bad)]) == 1
    assert _error_kind(capsys) == "RinglabError"


def _error_kind(capsys) -> str:
    return json.loads(capsys.readouterr().err)["kind"]


@pytest.mark.parametrize("argv", [
    ["analyze"],                      # no spec
    ["analyze", "Z6", "--json"],      # a removed flag
    ["analyze", "Z6", "--jobs", "2"],  # corpus only
    ["example25", "--stage", "2", "--max-ring-size", "64"],
    ["verify", "no-such-theorem", "--ring", "Z4"],
    ["analyze", "Z6", "--max-ring-size", "many"],
])
def test_usage_errors_exit_1_typed(capsys, argv):
    assert main(argv) == 1
    assert _error_kind(capsys) == "RinglabError"


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["analyze", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0


def test_each_subcommand_lists_only_the_flags_it_reads():
    from ringlab.cli import make_parser

    sub = next(a for a in make_parser()._actions if a.dest == "command")
    flags = {name: sorted(s for a in p._actions for s in a.option_strings if s.startswith("--"))
             for name, p in sub.choices.items()}
    assert flags == {
        "analyze": ["--help", "--max-ring-size"],
        "verify": ["--help", "--max-ring-size", "--module", "--ring"],
        "corpus": ["--csv", "--help", "--jobs", "--max-ring-size"],
        "example25": ["--help", "--stage"],
        "recheck": ["--help", "--max-ring-size"],
    }


def test_corpus_missing_file(tmp_path, capsys):
    assert main(["corpus", str(tmp_path / "missing.txt")]) == 1
    assert _error_kind(capsys) == "RinglabError"


@pytest.mark.parametrize("line", ["range Zn 2..x", "range Zn 2..3..4", "range Zn 5"])
def test_corpus_bad_range_bound(tmp_path, capsys, line):
    cfg = tmp_path / "corpus.txt"
    cfg.write_text(line + "\n")
    assert main(["corpus", str(cfg)]) == 1
    assert _error_kind(capsys) == "RinglabError"


@pytest.mark.parametrize("line,code,kind", [
    ("range Zn 2..200000", 3, "CapacityExceeded"),
    ("range Zn 65530..65537", 3, "CapacityExceeded"),
    ("range Zn 2.." + "9" * 5000, 1, "ParseError"),  # more digits than int() converts
])
def test_corpus_range_past_the_table_limit_is_rejected_at_once(tmp_path, capsys, line, code, kind):
    cfg = tmp_path / "corpus.txt"
    cfg.write_text("Z6\n" + line + "\n")
    t0 = time.perf_counter()
    assert main(["corpus", str(cfg)]) == code
    assert time.perf_counter() - t0 < 0.5  # no spec string was built for the line
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == kind
    if code == 3:
        assert line in err["error"]


def test_corpus_small_range_unchanged(tmp_path, capsys):
    cfg = tmp_path / "corpus.txt"
    cfg.write_text("range Zn 4..6\nrange Zn 9..8\n")
    code, out = run(capsys, "corpus", str(cfg))
    assert code == 0
    assert [r["spec"] for r in json.loads(out)["report"]["rows"]] == ["Z4", "Z5", "Z6"]


def test_corpus_block_line_fails_the_config(tmp_path, capsys):
    cfg = tmp_path / "corpus.txt"
    cfg.write_text("Z6\nblock(2)\n")
    assert main(["corpus", str(cfg)]) == 1
    assert _error_kind(capsys) == "ParseError"


@pytest.mark.parametrize("content", [
    None,                                      # no such file
    "not json {",                              # not JSON
    '{"report": {"spec": "Z6"}}',              # a report without its fields
    '{"report": {"rows": [{"spec": "Z6", "size": 6}]}}',
    "[1, 2]",                                  # JSON, but no report
])
def test_recheck_bad_input_exit_1_typed(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    if content is not None:
        path.write_text(content)
    assert main(["recheck", str(path)]) == 1
    assert _error_kind(capsys) == "RinglabError"


def test_cross_check_failure_is_a_theorem_violation(monkeypatch, capsys):
    from ringlab import factor

    # a cycle finder that finds nothing loses the self-loop 3 = 3 * 3 of Z6
    monkeypatch.setattr(factor, "first_cycle", lambda R: None)
    assert main(["analyze", "Z6"]) == 2
    assert _error_kind(capsys) == "TheoremViolation"


def test_maximal_ideal_cross_check_failure_is_a_theorem_violation(monkeypatch, capsys):
    from ringlab import rings

    # the maximal annihilators of Z6, (2) and (3), are prime; a prime test that rejects them must fail
    monkeypatch.setattr(rings, "is_prime_ideal", lambda R, I: False)
    assert main(["analyze", "Z6"]) == 2
    assert _error_kind(capsys) == "TheoremViolation"


def test_maximal_ideals_that_miss_a_nonunit_are_a_theorem_violation(monkeypatch, capsys):
    from ringlab import rings

    # without the class 2 of Z6 the socle read finds only ann(3) = (2), which is prime but misses 3
    heights = rings.principal_heights
    monkeypatch.setattr(rings, "principal_heights", lambda R: {x: h for x, h in heights(R).items() if x != 2})
    assert main(["analyze", "Z6"]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["kind"] == "TheoremViolation"
    assert error["error"] == "maximal ideals cross-check failed on Z6"


def test_presimplifiable_disagreeing_with_the_class_self_loop_is_a_theorem_violation(monkeypatch, capsys):
    from ringlab import factor

    # Z8 is local, so no class has a self-loop; a stub that reports some ba = a with a != 0 contradicts it
    monkeypatch.setattr(factor, "is_presimplifiable", lambda R: (False, {"a": 4, "b": 3}))
    assert main(["analyze", "Z8"]) == 2
    assert _error_kind(capsys) == "TheoremViolation"


# each negative verdict of Z6 carries a witness; a missing or misshaped one must fail its replay
BAD_WITNESSES = [
    ("presimplifiable_witness", value, "presimplifiable witness does not replay")
    for value in [None, {}, [3, 3], {"a": "3", "b": 3}, {"a": 3, "b": None}, {"a": 3.0, "b": 3},
                  {"a": 99, "b": 3}, {"a": -3, "b": 3}]
] + [
    ("bfr_witness", value, "bfr cycle witness does not replay")
    for value in [None, {}, "2", {"cycle": "2", "labels": [4]}, {"cycle": [2], "labels": 4},
                  {"cycle": [2.0], "labels": [4]}, {"cycle": [2], "labels": [None]},
                  {"cycle": [99], "labels": [4]}]
] + [
    ("ufr_witness", value, "ufr witness does not replay")
    for value in [None, {}, {"reason": "not_bfr"}, {"reason": "not_atomic"},
                  {"reason": "not_atomic", "element": "2"}, {"reason": "non_unique", "element": 2},
                  {"reason": "non_unique", "element": 2, "multisets": "ab"},
                  {"reason": "non_unique", "element": 2, "multisets": [["x"]]}, {"reason": 7}]
] + [
    ("u_bounded_example", value, "u-bounded example does not replay")
    for value in [None, {}, "23", [2, "3"], [2, None], [[2], [3]], [2, 99], [2, 3, 1]]
] + [
    # a finite ring is atomic: 2 = 2 * 1 * ... is a product of atoms of Z6
    ("ufr_witness", {"reason": "not_atomic", "element": 2}, "ufr witness does not replay"),
]


@pytest.mark.parametrize("field,value,failure", BAD_WITNESSES)
def test_recheck_bad_witness_fails_its_replay(tmp_path, capsys, field, value, failure):
    _, out = run(capsys, "analyze", "Z6")
    payload = json.loads(out)
    payload["report"][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out = run(capsys, "recheck", str(bad))
    assert code == 2
    assert {"spec": "Z6", "failure": failure} in json.loads(out)["report"]["failures"]


def test_corpus_error_rows_carry_their_kind(tmp_path, capsys):
    cfg = tmp_path / "corpus.txt"
    cfg.write_text("Z6\nZ99999\nquot(Z4,[1])\n")
    code, out = run(capsys, "corpus", str(cfg))
    assert code == 0
    payload = json.loads(out)["report"]
    kinds = {row["spec"]: row.get("error_kind") for row in payload["rows"]}
    assert kinds == {"Z6": None, "Z99999": "CapacityExceeded", "quot(Z4,[1])": "InvalidConstruction"}
    assert payload["summary"]["errors_by_kind"] == {"CapacityExceeded": 1, "InvalidConstruction": 1}
    assert payload["summary"]["violation_count"] == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_untyped_failure_stays_in_its_row(tmp_path, capsys, monkeypatch, jobs):
    from ringlab import cli

    real = cli.analyze_spec

    def failing_on_z8(spec, *, cap):
        if spec == "Z8":
            raise ZeroDivisionError("boom")
        return real(spec, cap=cap)

    monkeypatch.setattr(cli, "analyze_spec", failing_on_z8)
    cfg = tmp_path / "corpus.txt"
    cfg.write_text("Z6\nZ8\nZ9\n")
    code, out = run(capsys, "corpus", str(cfg), "--jobs", jobs)
    assert code == 2
    payload = json.loads(out)["report"]
    rows = {row["spec"]: row for row in payload["rows"]}
    assert rows["Z6"]["bouvier_class"] == "none" and rows["Z9"]["bouvier_class"] == "local-squarezero"
    assert rows["Z8"]["error_kind"] == "ZeroDivisionError"
    assert "ZeroDivisionError: boom" in rows["Z8"]["traceback"]
    assert payload["summary"]["errors_by_kind"] == {"ZeroDivisionError": 1}
    assert payload["summary"]["violations"] == [{"spec": "Z8", "violation": "ZeroDivisionError: boom"}]


# idealize(Z4,self) reports element 2 as non_unique: its unity is 4, its atoms are
# 1, 3, 8, 9, 10 and 11, and 3 ~ 1; each multiset below multiplies out to 2
@pytest.mark.parametrize("multisets", [[[2], [4, 2]], [[2], [2, 4, 4]], [[1, 8], [3, 8]]])
def test_recheck_non_unique_needs_atom_multisets_of_distinct_classes(tmp_path, capsys, multisets):
    _, out = run(capsys, "analyze", "idealize(Z4,self)")
    payload = json.loads(out)
    assert payload["report"]["ufr_witness"]["reason"] == "non_unique"
    payload["report"]["ufr_witness"]["multisets"] = multisets
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out = run(capsys, "recheck", str(bad))
    assert code == 2
    assert {"spec": "idealize(Z4,self)", "failure": "ufr witness does not replay"} in json.loads(out)["report"]["failures"]


def test_recheck_not_atomic_needs_an_element_with_no_atom_factorization(tmp_path, capsys):
    # element 2 of idealize(Z4,self) is a nonzero nonunit and the product of the atoms 1 and 8
    _, out = run(capsys, "analyze", "idealize(Z4,self)")
    payload = json.loads(out)
    payload["report"]["ufr_witness"] = {"reason": "not_atomic", "element": 2}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out = run(capsys, "recheck", str(bad))
    assert code == 2
    assert {"spec": "idealize(Z4,self)", "failure": "ufr witness does not replay"} in json.loads(out)["report"]["failures"]


@pytest.mark.parametrize("spec", ["idealize(Z4,self)", "idealize(Z8,self)", "idealize(Z9,self)",
                                  "idealize(Z16,self)"])
def test_recheck_replays_non_unique_witnesses(tmp_path, capsys, spec):
    _, out = run(capsys, "analyze", spec)
    assert json.loads(out)["report"]["ufr_witness"]["reason"] == "non_unique"
    report_file = tmp_path / "out.json"
    report_file.write_text(out)
    code, out = run(capsys, "recheck", str(report_file))
    assert code == 0 and json.loads(out)["report"]["failures"] == []


@pytest.mark.parametrize("spec", ["idealize(Z4,self)", "idealize(Z27,mquot(free(1),[3]))"])
def test_recheck_replays_a_non_unique_witness_in_process(spec):
    from ringlab.reports import analyze_spec, recheck_report

    report, _ = analyze_spec(spec)  # no JSON round trip in between
    assert report["ufr_witness"]["reason"] == "non_unique"
    assert recheck_report(report) == []


@pytest.mark.parametrize("spec,field,violation", [
    ("Z521", "ufr_direct", "ufr_direct disagrees with Bouvier classification"),
    ("Z12", "atomic", "ACCP but not atomic"),
])
def test_violations_catch_a_flipped_verdict(spec, field, violation):
    from ringlab.reports import PropertyReport, analyze_spec

    report, _ = analyze_spec(spec)
    assert PropertyReport(**report).violations() == []
    report[field] = not report[field]
    assert violation in PropertyReport(**report).violations()


@pytest.mark.parametrize("spec", ["Z4", "Z64", "Z6", "idealize(Z4,self)"])
def test_violations_catch_a_zero_factorization_longer_than_the_chain(spec):
    from ringlab.reports import PropertyReport, analyze_spec

    report, _ = analyze_spec(spec)
    assert report["u_bounded_max_len"] <= report["accp_height"]
    report["u_bounded_max_len"] = report["accp_height"] + 1
    assert "minimal factorization of 0 longer than the principal-ideal chain" in PropertyReport(**report).violations()
