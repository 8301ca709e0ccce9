"""ringlab benchmark: time to a checked, replayable verdict.

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 34 --trace 0

Run it from the root of a ringlab checkout; ringlab is imported from
./src. Workloads (workloads.py): analyze-mix, extension-verify and
cap-reach; ``--workload all`` runs the three in turn, one row each.

Load is one closed-loop client in one child process (worker.py): the
next item starts when the previous one returns, and at most one child
runs at a time. A run measures whole rounds of the seeded deck until
``--seconds`` of item time, scaled to nominal speed, have passed. End-to-end metrics (``--trace 0``):

    setup_s              median over 9 fresh processes of start -> ringlab
                         imported and the inputs generated
    items_per_s          items that returned, per second of item time
    verdict_p50_s        median item time, spec text to checked verdict
    verdict_tail_s       the 11th-largest item time, i.e. the highest
                         percentile with ten samples beyond it
    verdict_p50_s.small  median over rings with n <= 64
    verdict_p50_s.medium median over rings with 64 < n <= 324
    peak_rss_mb          peak RSS of our child processes (getrusage)

Times are scaled to the box's nominal speed (speed.py); the raw values
are printed as well. ``--trace 1`` gives per-layer self times and counts
(spans.py) instead, and the tracing overhead.

Every item is checked against known answers (workloads.py), and for the
default seed against golden report bytes. Failures are counted per
kind: wrong (a verdict differs from the known answer, or a verdict came
where a typed error is known, or the reverse), replay (a witness does
not replay), golden (report bytes differ), crash (an untyped exception),
timeout (item deadline missed) and capacity. ``correct`` is false when
any item was wrong, did not replay or missed its golden; ``failed``
counts items of every kind. Only our own processes are measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from spans import COUNTS, LAYERS  # noqa: E402
from speed import factor  # noqa: E402
from worker import KINDS, WRONG  # noqa: E402
from workloads import CAP_SPECS  # noqa: E402

WORKLOADS = ("analyze-mix", "extension-verify", "cap-reach")
SETUP_PROBES = 9
TAIL_BEYOND = 10            # the tail percentile keeps this many samples beyond it
CHILD_LIMIT_S = 150         # a worker that runs longer than this is stopped

UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "verdict_p50_s": "s", "verdict_tail_s": "s",
    "verdict_p50_s.small": "s", "verdict_p50_s.medium": "s", "peak_rss_mb": "MB",
}


def fail(msg: str) -> None:
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of interpreter start to ringlab imported + inputs made."""
    times = []
    for _ in range(SETUP_PROBES):
        speed = factor()
        t0 = time.perf_counter()
        with subprocess.Popen(python_cmd(WORKER, "--probe", "--workload", workload,
                                         "--seed", str(seed)),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append((time.perf_counter() - t0) * speed)
            proc.stdout.read()
            rc = proc.wait()
        if line.strip() != "ready" or rc != 0:
            fail("set-up probe failed")
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(values)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[-TAIL_BEYOND - 1], 100.0 * (1 - TAIL_BEYOND / len(s))


def summarize(rows: list, setup: float) -> tuple[dict, dict]:
    """End-to-end metrics and failure counts from [band, scaled s, kind, raw s] rows."""
    dts = [r[1] for r in rows]
    done = [r for r in rows if r[2] != "timeout"]
    kinds = {k: sum(1 for r in rows if r[2] == k) for k in KINDS}
    value, pct = tail(dts)
    m = {
        "setup_s": setup,
        "items_per_s": len(done) / sum(dts),
        "verdict_p50_s": statistics.median(dts),
        "verdict_tail_s": value,
    }
    for band in ("small", "medium"):
        vals = [r[1] for r in rows if r[0] == band]
        m[f"verdict_p50_s.{band}"] = statistics.median(vals) if vals else None
    m["peak_rss_mb"] = peak_rss_mb()
    raw = [r[3] for r in rows]
    info = {"samples": len(dts), "tail_percentile": pct, "failures": kinds,
            "raw": {"items_per_s": len(done) / sum(raw), "verdict_p50_s": statistics.median(raw)},
            "speed": sum(dts) / sum(raw),
            "fail_frac": sum(kinds.values()) / len(rows),
            "band_samples": {b: sum(1 for r in rows if r[0] == b) for b in ("small", "medium")}}
    return m, info


def run_worker(args, workload: str) -> dict:
    cmd = python_cmd(WORKER, "--workload", workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: worker did not finish in {CHILD_LIMIT_S} s")
    if proc.returncode != 0:
        fail(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cap_ring(spec: str, trace: int, deadline: float) -> dict:
    """One cap-reach ring in a fresh child; spans that end before the deadline are kept.

    Its time is raw wall time, like the deadline.
    """
    proc = subprocess.Popen(python_cmd(WORKER, "--cap-item", spec, "--trace", str(trace)),
                            stdout=subprocess.PIPE, text=True)
    lines: list[str] = []
    reader = threading.Thread(target=lambda: lines.extend(proc.stdout), daemon=True)
    t0 = time.perf_counter()
    reader.start()
    try:
        proc.wait(timeout=deadline)
        kind = "crash"
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        kind = "timeout"
    dt = time.perf_counter() - t0
    reader.join()
    proc.stdout.close()
    self_time: dict[str, float] = {}
    names, open_spans, result = {}, [], None
    for line in lines:
        tag, _, rest = line.partition(" ")
        if tag == "B":
            sid, name, _parent = rest.split()
            names[sid] = name
            open_spans.append(sid)
        elif tag == "E":
            sid, self_s = rest.split()
            self_time[names[sid]] = self_time.get(names[sid], 0.0) + float(self_s)
            open_spans.remove(sid)
        elif tag == "R":
            result = json.loads(rest)
    if result is None:
        result = {"dt": dt, "kind": kind, "why": f"no result within {deadline:.1f} s"}
    result["interrupted"] = [names[s] for s in open_spans]
    result["layers"] = self_time
    return result


def run_cap_reach(args) -> tuple[list, dict]:
    deadline = args.seconds / len(CAP_SPECS)
    rows, layers = [], {}
    for spec, known in CAP_SPECS:
        r = run_cap_ring(spec, args.trace, deadline)
        rows.append([None, r["dt"], r["kind"], r["dt"]])
        where = " > ".join(r["interrupted"]) or "-"
        print(f"  cap-reach {spec} (n={known.size}): {r['kind'] or 'ok'} after {r['dt']:.2f} s;"
              f" open spans: {where}")
        for name, t in r["layers"].items():
            layers[f"{name}_s"] = layers.get(f"{name}_s", 0.0) + t
    return rows, layers


def fmt(v) -> str:
    if v is None:
        return "n/a"
    return str(v) if isinstance(v, int) else f"{v:.6g}"


def run_workload(args, workload: str) -> dict:
    setup = setup_seconds(workload, args.seed)
    if workload == "cap-reach":
        rows, layers = run_cap_reach(args)
        extra = {}
    else:
        raw = run_worker(args, workload)
        rows, layers = raw["rows"], raw.get("layers", {})
        extra = {k: raw[k] for k in ("overhead_frac", "spans_file", "wrong_untraced",
                                     "layers_by_band") if k in raw}
    metrics, info = summarize(rows, setup)
    kinds = info["failures"]
    print(f"{workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"items={info['samples']} (small {info['band_samples']['small']}, "
          f"medium {info['band_samples']['medium']}) fail_frac={info['fail_frac']:.4g}")
    print("  " + "  ".join(f"{k}={fmt(v)} {UNITS[k]}" for k, v in metrics.items()))
    print(f"  verdict_tail_s is p{info['tail_percentile']:.2f} of {info['samples']} items")
    print(f"  times scaled to nominal speed by {info['speed']:.4g} on average (speed.py); raw:"
          + "".join(f"  {k}={fmt(v)}" for k, v in info["raw"].items()))
    print("  failures: " + "  ".join(f"{k}={v}" for k, v in kinds.items()))
    if args.trace:
        layer_names = [f"{n}_s" for n in LAYERS if n != "cli"] + ["cli.residual_s"]
        for name in layer_names + COUNTS:
            if name in layers:
                print(f"  {name:36s} {fmt(layers[name])}")
        for band, times in sorted(extra.get("layers_by_band", {}).items()):
            total = sum(times.values())
            top = sorted(times.items(), key=lambda kv: -kv[1])[:5]
            print(f"  band {band}: {total:.4g} s traced; "
                  + ", ".join(f"{name} {t / total:.1%}" for name, t in top))
        if "overhead_frac" in extra:
            print(f"  tracing overhead: {extra['overhead_frac']:.4g} of the untraced time"
                  f" on the same items; spans in {extra['spans_file']}")
        print("  rings.mul_calls/add_calls count carrier work only while carriers are closures")
    wrong = sum(kinds[k] for k in WRONG) + extra.get("wrong_untraced", 0)
    if args.trace:
        shown = {k: {"value": layers.get(k, 0), "unit": "count" if k in COUNTS else "s"}
                 for k in args.per_layer}
    else:
        shown = {k: {"value": metrics[k], "unit": UNITS[k]} for k in args.end_to_end}
    return {"correct": wrong == 0, "attempted": len(rows),
            "failed": sum(kinds.values()), "metrics": shown}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "ringlab", "__init__.py")):
        fail("run from the root of a ringlab checkout (no src/ringlab here)")
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    args.end_to_end = [m["name"] for m in spec["end_to_end"]]
    args.per_layer = [m["name"] for m in spec["per_layer"]]
    if args.workload != "all":
        print(json.dumps(run_workload(args, args.workload)))
        return 0
    results = {w: run_workload(args, w) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
