"""Runs one workload's items in a fresh process and prints the raw results.

``run.py`` starts this file as a child process, so the peak RSS it reads
with ``getrusage(RUSAGE_CHILDREN)`` is that of the process that ran the
items. Modes:

    worker.py --workload W --seed S --seconds T --trace 0|1   timed pass
    worker.py --probe --workload W --seed S                   set-up probe
    worker.py --cap-item SPEC --trace 0|1                     one cap-reach ring
    worker.py --write-golden --workload W                     refresh the golden

The timed pass is a closed loop with one client: the next item starts
when the previous one returns. An item is ``ringlab analyze`` followed by
``recheck_report`` on a freshly built ring, or one ``ringlab verify`` /
``ringlab example25`` call, all through ``ringlab.cli.main`` in-process.
Between items, outside the clock, the worker collects garbage, reads the
box's speed (speed.py) and checks the item against its known answers.
Run it from the root of a ringlab checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field

from spans import Tracer
from speed import Gauge
from workloads import CAP_SPECS, Item, analyze, example25_dimension, make_deck, zn_known

DEFAULT_SEED = 0
ITEM_DEADLINE_S = 30.0
KINDS = ("wrong", "replay", "golden", "crash", "timeout", "capacity")
WRONG = KINDS[:3]   # the kinds that mean an output was incorrect
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")


def import_ringlab() -> None:
    """Import ringlab from ./src of the current directory, and nowhere else."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ringlab", "__init__.py")):
        sys.exit(f"worker: no ringlab sources under {src}")
    sys.path.insert(0, src)
    import ringlab.cli  # noqa: F401  (the CLI imports every layer)

    if not os.path.abspath(sys.modules["ringlab"].__file__).startswith(src + os.sep):
        sys.exit("worker: ringlab was not imported from ./src")


class ItemTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in ringlab swallows it."""


def _alarm(signum, frame):
    raise ItemTimeout()


@dataclass
class Outcome:
    status: str = "ok"              # ok | crash | timeout
    rc: int | None = None
    report: dict | None = None
    report_bytes: str | None = None
    replay: list = field(default_factory=list)
    error: str = ""


def _report_bytes(line: str, obj: dict) -> str:
    """The report value exactly as the CLI printed it (keys sorted, meta first)."""
    prefix = json.dumps({"meta": obj["meta"]}, sort_keys=True)[:-1] + ', "report": '
    if not (line.startswith(prefix) and line.endswith("}")):
        raise ValueError("unexpected CLI output layout")
    return line[len(prefix):-1]


def execute(item: Item, call=None, *, cap: int | None = None,
            deadline: float = ITEM_DEADLINE_S) -> Outcome:
    """Run one item under a deadline. This is the timed region."""
    from ringlab import cli
    from ringlab.reports import recheck_report

    call = call or cli.main
    argv = item.argv() + (["--max-ring-size", str(cap)] if cap else [])
    out = Outcome()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            out.rc = call(argv)
        line = buf.getvalue().strip()
        if line:
            obj = json.loads(line)
            out.report, out.report_bytes = obj["report"], _report_bytes(line, obj)
            if item.kind == "analyze" and out.rc == 0:
                out.replay = recheck_report(out.report)
    except ItemTimeout:
        out.status = "timeout"
    except Exception as exc:  # an untyped error is a result to count, not a benchmark bug
        out.status, out.error = "crash", f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return out


# ---------------------------------------------------------------------------
# checks against known answers


def _analyze_problems(item: Item, rep: dict) -> list[str]:
    from ringlab.reports import PropertyReport

    k = item.known
    expect = {
        "size": k.size, "unit_count": k.unit_count, "local": k.local,
        "reduced": k.reduced, "field": k.field, "min_prime_count": k.min_prime_count,
        "ufr_direct": k.ufr, "ufr_bouvier": k.ufr, "bouvier_class": k.bouvier_class,
        "presimplifiable": k.local, "bfr": k.local, "accp": True,
    }
    if k.zero_len is not None:
        expect["u_bounded_max_len"] = k.zero_len
    out = [f"{key}={rep.get(key)!r}, known {v!r}" for key, v in expect.items() if rep.get(key) != v]
    return out + PropertyReport(**rep).violations()


def _verify_problems(item: Item, rep: dict) -> list[str]:
    T, R = item.known, item.ring_known
    expect = {"verdict": "PASS"}
    if item.theorem == "ufr-theorem":
        expect["ufr_direct"] = T.ufr
    elif item.theorem == "bfr-proposition":
        expect.update(bfr_T=T.local, bfr_R=R.local)
    elif item.theorem == "ubounded-lemma":
        expect.update(reduced=R.reduced, min_prime_count=R.min_prime_count)
        if R.zero_len is not None:
            expect["zero_max_minimal_len"] = R.zero_len
    return [f"{key}={rep.get(key)!r}, known {v!r}" for key, v in expect.items() if rep.get(key) != v]


def _example25_problems(item: Item, rep: dict) -> list[str]:
    n = int(item.spec)
    expect = {"pass": True, "lengths": list(range(2, n + 2)), "dimension": example25_dimension(n)}
    return [f"{key}={rep.get(key)!r}, known {v!r}" for key, v in expect.items() if rep.get(key) != v]


def classify(item: Item, out: Outcome, golden: str | None = None) -> tuple[str | None, str]:
    """(failure kind or None, reason)."""
    if out.status != "ok":
        return out.status, out.error
    if out.rc == 3:
        return "capacity", "capacity exceeded"
    if item.kind == "analyze" and item.known is None:
        # the zero ring: the known answer is a typed error (exit code 1)
        return (None, "") if out.rc == 1 else ("wrong", f"exit {out.rc}, known: typed error")
    if out.rc != 0 or out.report is None:
        return "wrong", f"exit {out.rc}, known: a passing verdict"
    check = {"analyze": _analyze_problems, "verify": _verify_problems,
             "example25": _example25_problems}[item.kind]
    problems = check(item, out.report)
    if problems:
        return "wrong", "; ".join(problems)
    if out.replay:
        return "replay", "; ".join(out.replay)
    if golden is not None and out.report_bytes != golden:
        return "golden", "report bytes differ from the golden"
    return None, ""


def self_test() -> list[str]:
    """Show that each check can fail, each under its own kind."""
    from ringlab.reports import recheck_report

    z12 = Item("analyze", "Z12", zn_known(12), 12)
    good = execute(z12)
    cases = [("untampered report", classify(z12, good, good.report_bytes), None)]

    flipped = dict(good.report, local=not good.report["local"])
    cases.append(("flipped verdict", classify(z12, Outcome(rc=0, report=flipped)), "wrong"))

    bad_wit = dict(good.report, presimplifiable_witness={**good.report["presimplifiable_witness"], "b": 1})
    replay = recheck_report(bad_wit)
    cases.append(("witness index changed", classify(z12, Outcome(rc=0, report=bad_wit, replay=replay)),
                  "replay"))

    cases.append(("report bytes changed", classify(z12, good, good.report_bytes + " "), "golden"))

    def raise_untyped(argv):
        raise RuntimeError("injected")
    cases.append(("untyped exception", classify(z12, execute(z12, raise_untyped)), "crash"))

    def spin(argv):
        while True:
            pass
    cases.append(("missed deadline", classify(z12, execute(z12, spin, deadline=0.05)), "timeout"))
    cases.append(("capacity error", classify(z12, execute(z12, cap=8)), "capacity"))
    # "Z1" is rejected with a typed error; count it against both known answers
    for name, known, want in [("typed error, verdict known", zn_known(12), "wrong"),
                              ("typed error, error known", None, None)]:
        z1 = Item("analyze", "Z1", known, 1)
        cases.append((name, classify(z1, execute(z1)), want))
    return [f"{name}: counted as {got[0]!r}, expected {want!r}"
            for name, got, want in cases if got[0] != want]


# ---------------------------------------------------------------------------
# golden reports of the default seed


def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.jsonl")


def load_golden(workload: str) -> list[str | None]:
    with open(golden_path(workload)) as fh:
        return [json.loads(line)["report"] for line in fh]


def write_golden(workload: str) -> int:
    deck = [it for r in make_deck(workload, DEFAULT_SEED) for it in r]
    rows, bad = [], 0
    for i, item in enumerate(deck):
        out = execute(item)
        kind, why = classify(item, out)
        if kind not in (None, "crash"):
            print(f"golden: item {i} {item.label()}: {kind}: {why}", file=sys.stderr)
            bad += 1
        rows.append({"item": i, "label": item.label(),
                     "report": out.report_bytes if kind is None else None})
    if bad:
        return 1
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(golden_path(workload), "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# timed pass


def run_pass(rounds, count, seconds, golden, tracer=None):
    """Closed loop over the deck: `count` items, or whole rounds until `seconds` of item time.

    Item time is scaled to nominal speed (speed.py), and the pass stops at
    a round boundary, so every run sees the same number of rounds of the
    same ring types however fast the box is at the moment; medians and
    tails then compare across runs and seeds.
    """
    deck = [it for r in rounds for it in r]
    rows, failures = [], []
    gauge = Gauge()
    busy = 0.0
    i = 0
    while i < count if count is not None else (busy < seconds or i % len(rounds[0])):
        item = deck[i % len(deck)]
        # a CLI call starts from a fresh heap: drop the previous items' cyclic garbage
        gc.collect()
        speed = gauge.factor()
        if tracer:
            tracer.begin_item(i, item.band)
        t0 = time.perf_counter()
        out = execute(item)
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_item()
        gold = golden[i % len(golden)] if golden else None
        kind, why = classify(item, out, gold)
        rows.append([item.band, dt * speed, kind, dt])
        busy += dt * speed
        if kind:
            failures.append(f"item {i} {item.label()}: {kind}: {why}")
        i += 1
    return rows, failures


def write_spans(tracer: Tracer, workload: str, seed: int) -> str:
    outdir = os.path.abspath(".bench_out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as fh:
        for sid, name, start, end, parent, item in tracer.spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "item": item}) + "\n")
    return path


def timed(args) -> int:
    deck = make_deck(args.workload, args.seed)
    golden = load_golden(args.workload) if args.seed == DEFAULT_SEED else None
    if golden is not None and len(golden) != sum(map(len, deck)):
        sys.exit("worker: golden does not match the deck; refresh it with --write-golden")
    problems = self_test()
    if problems:
        for p in problems:
            print(f"self-test: {p}", file=sys.stderr)
        return 3
    execute(Item("analyze", "Z6", zn_known(6), 6))  # warm lazy imports and caches
    result: dict = {}
    if args.trace:
        # untraced pass, then the same items traced: their ratio is the overhead
        plain, fails_plain = run_pass(deck, None, args.seconds / 2, golden)
        tracer = Tracer()
        tracer.install()
        try:
            rows, failures = run_pass(deck, len(plain), None, golden, tracer)
        finally:
            tracer.uninstall()
        failures = fails_plain + failures
        # layer times are scaled like item times, by the pass's mean speed factor
        scale = sum(r[1] for r in rows) / sum(r[3] for r in rows)
        result["layers"] = {k: v * scale if k.endswith("_s") else v
                            for k, v in tracer.layer_metrics().items()}
        result["layers_by_band"] = tracer.band_time
        result["overhead_frac"] = sum(r[1] for r in rows) / sum(r[1] for r in plain) - 1
        result["spans_file"] = write_spans(tracer, args.workload, args.seed)
        result["wrong_untraced"] = sum(r[2] in WRONG for r in plain)
    else:
        rows, failures = run_pass(deck, None, args.seconds, golden)
    for f in failures[:20]:
        print(f"failure: {f}", file=sys.stderr)
    result["rows"] = rows
    print(json.dumps(result))
    return 0


def cap_item(args) -> int:
    """One cap-reach ring; with --trace 1 span events stream to stdout as they happen.

    Its time is raw wall time, like the deadline it runs under.
    """
    item = analyze(args.cap_item, dict(CAP_SPECS)[args.cap_item])
    tracer = None
    if args.trace:
        tracer = Tracer(stream=sys.stdout)
        tracer.install()
        tracer.begin_item(0)
    t0 = time.perf_counter()
    out = execute(item, deadline=10 ** 6)
    dt = time.perf_counter() - t0
    if tracer:
        tracer.end_item()
    kind, why = classify(item, out)
    print("R " + json.dumps({"dt": dt, "kind": kind, "why": why}), flush=True)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--cap-item")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()
    import_ringlab()
    signal.signal(signal.SIGALRM, _alarm)
    if args.probe:
        make_deck(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.cap_item:
        return cap_item(args)
    if args.write_golden:
        return write_golden(args.workload)
    return timed(args)


if __name__ == "__main__":
    sys.exit(main())
