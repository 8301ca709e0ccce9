"""Probe the graded truncation tower: unbounded zero-factorizations by stage.

For each stage n, builds the stage-n algebra over GF(2), verifies that the
self-idealization admits minimal factorizations of zero of every length
2..n+1 with a shared factor list, and prints the dimension and the
nilpotency chain of the augmentation ideal.

Usage:
    python3 scripts/truncation_tower.py [--max-stage 6]
"""

from __future__ import annotations

import argparse
import sys
import time

from ringlab.blockalg import expected_dimension, verify_example25


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-stage", type=int, default=6)
    args = ap.parse_args()

    ok = True
    for stage in range(2, args.max_stage + 1):
        t0 = time.perf_counter()
        report = verify_example25(stage)
        dt = time.perf_counter() - t0
        dim_ok = report["dimension"] == expected_dimension(stage)
        ok = ok and report["pass"] and dim_ok
        note = "" if dim_ok else f" (expected dim {expected_dimension(stage)})"
        print(f"stage {stage}: dim={report['dimension']:4d} "
              f"lengths={report['lengths']} "
              f"m_power_dims={report['m_power_dims']} "
              f"{'PASS' if report['pass'] else 'FAIL'}{note} ({dt:.3f}s)")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
