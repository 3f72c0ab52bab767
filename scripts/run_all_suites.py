#!/usr/bin/env python3
"""Run every verification suite and print a per-suite summary.

Exit code matches the CLI contract: 0 when everything passes, 1 when
any row fails.  Pass --out to also write the full merged report, its
rows sorted by (suite, check) as `hessianlab --suite all` sorts them.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

from hessianlab.report import emit_report
from hessianlab.suites import SUITES, ExperimentConfig, run_suite


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", help="write the merged report here")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    parser.add_argument("--grid-n", type=int, default=None, help="override grid resolution")
    args = parser.parse_args(argv)

    overrides = {}
    if args.grid_n is not None:
        overrides["grid_n"] = args.grid_n

    all_rows = []
    worst = 0
    for name in SUITES:
        if name == "all":
            continue
        t0 = time.perf_counter()
        rows, status = run_suite(ExperimentConfig(suite=name, **overrides))
        dt = time.perf_counter() - t0
        fails = [r for r in rows if not r.passed]
        worst = max(worst, status)
        all_rows.extend(rows)
        print(f"{name:10s} {len(rows):4d} rows  {len(fails):2d} failing  {dt*1e3:8.1f} ms")
        for row in fails:
            print(f"           FAIL {row.check}: lhs={row.lhs:.6g} rhs={row.rhs:.6g}")

    counts = Counter(r.suite for r in all_rows)
    print(f"total      {sum(counts.values()):4d} rows across {len(counts)} suites")
    if args.out:
        all_rows.sort(key=lambda row: (row.suite, row.check))
        emit_report(all_rows, out_path=args.out, fmt=args.format)
        print(f"report written to {args.out}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
