"""Command-line entry point.

Subcommands: analyze, verify, corpus, example25, recheck. Exit codes:
0 ok, 1 usage/construction error, 2 theorem violation, 3 capacity
exceeded. A corpus row that fails becomes an error row with its
``error_kind``; only theorem violations and untyped errors make corpus
exit 2. All JSON output is deterministic (sorted keys); timings are
kept in a separate "meta" object so the "report" payload is byte-stable.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
import traceback
from dataclasses import asdict

from . import __version__
from .blockalg import verify_example25
from .errors import CapacityExceeded, RinglabError
from .factor import (
    check_lemma_ubounded,
    check_prop_bfr,
    check_theorem_ufr,
)
from .idealization import (
    idealize,
    verify_ideal_product,
    verify_ideal_shape,
    verify_prime_criterion,
    verify_unit_criterion,
)
from .reports import REPORT_FIELDS, PropertyReport, analyze_spec, recheck_report
from .rings import DEFAULT_SIZE_CAP, TABLE_SIZE_LIMIT
from .specparse import _int, build_ring, build_module, parse_module_spec, parse_spec, to_text

THEOREM_IDS = ("ufr-theorem", "bfr-proposition", "ubounded-lemma", "idealization-structure")


def _emit(obj: dict, meta: dict) -> None:
    print(json.dumps({"report": obj, "meta": meta}, sort_keys=True))


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise RinglabError(f"cannot read {path}: {exc}") from None


def _build_pair(ring_text: str, module_text: str | None, cap: int):
    R = build_ring(parse_spec(ring_text), cap=cap)
    M = None
    if module_text is not None:
        M = build_module(parse_module_spec(module_text), R, cap=cap)
    return R, M


def cmd_analyze(args) -> int:
    report, elapsed = analyze_spec(args.spec, cap=args.max_ring_size)
    _emit(report, {"timing_seconds": elapsed, "tool_version": __version__})
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    R, M = _build_pair(args.ring, args.module, args.max_ring_size)
    if M is not None and args.theorem_id != "ubounded-lemma":
        idealize(R, M, cap=args.max_ring_size)  # the checkers reuse this R(+)M
    detail: dict
    if args.theorem_id == "ufr-theorem":
        if M is None:
            raise RinglabError("ufr-theorem needs --module")
        rep = check_theorem_ufr(R, M)
        ok = rep.all_agree
        detail = asdict(rep)
    elif args.theorem_id == "bfr-proposition":
        if M is None:
            raise RinglabError("bfr-proposition needs --module")
        rep = check_prop_bfr(R, M)
        ok = rep.impl_a_ok and rep.impl_b_ok
        detail = asdict(rep)
    elif args.theorem_id == "ubounded-lemma":
        rep = check_lemma_ubounded(R)
        ok = rep.refinement_bound_holds in (True, None)
        detail = asdict(rep)
    else:  # idealization-structure
        if M is None:
            raise RinglabError("idealization-structure needs --module")
        results = {}
        ok = True
        for name, fn in [
            ("unit_criterion", verify_unit_criterion),
            ("ideal_shape", verify_ideal_shape),
            ("prime_criterion", verify_prime_criterion),
            ("ideal_product", verify_ideal_product),
        ]:
            good, wit = fn(R, M)
            results[name] = {"pass": good, "witness": wit or None}
            ok = ok and good
        detail = results
    detail["verdict"] = "PASS" if ok else "FAIL"
    _emit(detail, {"timing_seconds": time.perf_counter() - t0,
                   "tool_version": __version__})
    print("PASS" if ok else "FAIL", file=sys.stderr)
    return 0 if ok else 2


def _parse_corpus_config(text: str) -> list[str]:
    specs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("range "):
            # "range Zn 2..64"
            parts = line.split()
            lo, _, hi = parts[-1].partition("..")
            if len(parts) != 3 or parts[1] != "Zn" or not (lo.isdecimal() and hi.isdecimal()):
                raise RinglabError(f"bad range directive: {line!r}")
            lo, hi = _int(lo), _int(hi)
            if hi > TABLE_SIZE_LIMIT:  # checked before any spec string is built
                raise CapacityExceeded(f"range directive {line!r} goes past Z{TABLE_SIZE_LIMIT}, "
                                       "the largest Z_n a table holds")
            specs.extend(f"Z{n}" for n in range(lo, hi + 1))
        else:
            specs.append(line)
    # canonicalize and order rows deterministically
    return sorted({to_text(parse_spec(s)) for s in specs})


def _corpus_row(spec_and_cap) -> dict:
    spec, cap = spec_and_cap
    try:
        report, elapsed = analyze_spec(spec, cap=cap)
    except Exception as exc:  # one failing row must not end the sweep: it becomes an error row
        row = {"spec": spec, "error": f"{type(exc).__name__}: {exc}", "error_kind": type(exc).__name__}
        if not isinstance(exc, RinglabError):
            row["traceback"] = traceback.format_exc()
        return row
    report["error"] = None
    report["row_timing_seconds"] = elapsed
    return report


def cmd_corpus(args) -> int:
    t0 = time.perf_counter()
    specs = _parse_corpus_config(_read(args.config))
    jobs = [(s, args.max_ring_size) for s in specs]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_corpus_row, jobs))
    else:
        rows = [_corpus_row(j) for j in jobs]

    violations = []
    bouvier_counts: dict[str, int] = {}
    errors_by_kind: dict[str, int] = {}
    for row in rows:
        if row.get("error"):
            kind = row["error_kind"]
            errors_by_kind[kind] = errors_by_kind.get(kind, 0) + 1
            # a capacity or construction error is an answer about the input; a failed
            # cross-check or an untyped error (it carries a traceback) is a fault
            if kind == "TheoremViolation" or "traceback" in row:
                violations.append({"spec": row["spec"], "violation": row["error"]})
            continue
        bc = row["bouvier_class"]
        bouvier_counts[bc] = bouvier_counts.get(bc, 0) + 1
        rep = PropertyReport(**{k: v for k, v in row.items()
                                if k not in ("error", "row_timing_seconds")})
        for v in rep.violations():
            violations.append({"spec": row["spec"], "violation": v})

    summary = {
        "rows": len(rows),
        "bouvier_counts": bouvier_counts,
        "errors_by_kind": errors_by_kind,
        "violations": violations,
        "violation_count": len(violations),
    }
    timings = {r["spec"]: r.pop("row_timing_seconds", None) for r in rows}
    payload = {"rows": rows, "summary": summary}
    if args.csv:
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=REPORT_FIELDS, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            if not row.get("error"):
                writer.writerow(row)
        print(out.getvalue(), end="")
    else:
        _emit(payload, {"timing_seconds": time.perf_counter() - t0,
                        "row_timings": timings, "tool_version": __version__})
    return 0 if not violations else 2


def cmd_example25(args) -> int:
    t0 = time.perf_counter()
    report = verify_example25(args.stage)
    _emit(report, {"timing_seconds": time.perf_counter() - t0,
                   "tool_version": __version__})
    print(("PASS" if report["pass"] else "FAIL")
          + f" lengths={report['lengths']}", file=sys.stderr)
    return 0 if report["pass"] else 2


def cmd_recheck(args) -> int:
    try:
        data = json.loads(_read(args.report_file))
    except json.JSONDecodeError as exc:
        raise RinglabError(f"{args.report_file} is not JSON: {exc}") from None
    failures = []
    try:
        body = data.get("report", data)
        reports = body["rows"] if "rows" in body else [body]
        for rep in reports:
            if rep.get("error"):
                continue
            for f in recheck_report(rep, cap=args.max_ring_size):
                failures.append({"spec": rep["spec"], "failure": f})
    except (LookupError, TypeError, AttributeError) as exc:
        # the file is untrusted input: a field it lacks or misshapes is a bad report
        raise RinglabError(f"{args.report_file} is not a ringlab report "
                           f"({type(exc).__name__}: {exc})") from None
    _emit({"checked": len(reports), "failures": failures},
          {"tool_version": __version__})
    return 0 if not failures else 2


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise, so they exit 1 with a typed JSON error like any bad input."""

    def error(self, message):
        raise RinglabError(f"{self.prog}: {message}")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="ringlab")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    com = argparse.ArgumentParser(add_help=False)
    com.add_argument("--max-ring-size", type=int, default=DEFAULT_SIZE_CAP)

    p = sub.add_parser("analyze", parents=[com])
    p.add_argument("spec")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify", parents=[com])
    p.add_argument("theorem_id", choices=THEOREM_IDS)
    p.add_argument("--ring", required=True)
    p.add_argument("--module")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("corpus", parents=[com])
    p.add_argument("config")
    p.add_argument("--csv", action="store_true", help="CSV projection of the rows")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("example25")
    p.add_argument("--stage", type=int, required=True)
    p.set_defaults(fn=cmd_example25)

    p = sub.add_parser("recheck", parents=[com])
    p.add_argument("report_file")
    p.set_defaults(fn=cmd_recheck)
    return ap


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.fn(args)
    except RinglabError as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
