"""Time `ringlab analyze` on one ring per hard family at the largest n <= 4096,
and `ringlab verify idealization-structure` on one (ring, module) pair per hard family.

    python3 scripts/cap_ledger.py [--deadline 60] [--which analyze|verify|all]

Each family runs in a fresh child process under the deadline. One row per
family gives the wall time, the child's peak RSS and its exit code (0 a
report, 3 a capacity limit, "timeout" when the deadline killed it).
``getrusage(RUSAGE_CHILDREN)`` keeps the largest RSS of any child waited
for, so each family is measured from a one-family ledger process of its own
(``--one ARG...``, the ringlab arguments). ringlab is imported from the
``src/`` beside this script.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from ringlab.specparse import parse_spec, size_estimate  # noqa: E402

FAMILIES = [
    "Z4096",
    "Z2[t]/(t^12)",
    "idealize(Z64,self)",
    "idealize(Z2,free(11))",
    " x ".join(["Z2"] * 12),
    " x ".join(["Z3"] * 7),
    " x ".join(["Z4"] * 6),
    " x ".join(["Z8"] * 4),
    "Z4 x Z16 x Z16 x Z4",
    "Z64 x Z64",
    "Z2 x Z3 x Z5 x Z7 x Z11",
]

# (ring, module) pairs for `verify idealization-structure`; free(8)'s submodule lattice passes IDEAL_COUNT_CAP
VERIFY_FAMILIES = [
    ("Z2", "free(6)"),
    ("Z2", "free(7)"),
    ("Z2", "free(8)"),
    (" x ".join(["Z2"] * 6), "self"),
    ("Z4 x Z4 x Z4", "self"),
    ("Z8 x Z8", "self"),
    ("Z64", "self"),
]


def measure(argv: list[str], deadline: float) -> dict:
    """Run `ringlab *argv` in a child; this process must have waited for no other child."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "ringlab.cli", *argv]
    t0 = time.perf_counter()
    try:
        code = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
                              timeout=deadline).returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    wall = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KB on Linux
    return {"argv": argv, "wall_s": round(wall, 2), "peak_rss_mb": round(peak_mb), "exit": code}


def row(argv: list[str], deadline: float) -> str:
    """The measured columns of one table row, from a one-family ledger process."""
    out = subprocess.run([sys.executable, __file__, "--deadline", str(deadline), "--one", *argv],
                         capture_output=True, text=True, check=True).stdout
    got = json.loads(out)
    wall = f"{got['wall_s']:.2f} s" if got["exit"] != "timeout" else f"> {deadline:g} s"
    return f"{wall} | {got['peak_rss_mb']} MB | {got['exit']} |"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--deadline", type=float, default=60.0, help="seconds per family (default 60)")
    ap.add_argument("--which", choices=["analyze", "verify", "all"], default="all", help="families to run")
    ap.add_argument("--one", nargs=argparse.REMAINDER, metavar="ARG",
                    help="measure `ringlab ARG...` alone and print one JSON line")
    args = ap.parse_args()
    if args.one is not None:
        print(json.dumps(measure(args.one, args.deadline)))
        return 0

    if args.which in ("analyze", "all"):
        print("| ring | n | wall | peak RSS | exit |")
        print("|---|---|---|---|---|")
        for spec in FAMILIES:
            print(f"| `{spec}` | {size_estimate(parse_spec(spec))} | {row(['analyze', spec], args.deadline)}",
                  flush=True)
    if args.which == "all":
        print()
    if args.which in ("verify", "all"):
        print("| ring / module | \\|R(+)M\\| | wall | peak RSS | exit |")
        print("|---|---|---|---|---|")
        for ring, module in VERIFY_FAMILIES:
            n = size_estimate(parse_spec(f"idealize({ring},{module})"))
            argv = ["verify", "idealization-structure", "--ring", ring, "--module", module]
            print(f"| `{ring}` / `{module}` | {n} | {row(argv, args.deadline)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
