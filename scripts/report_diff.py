#!/usr/bin/env python3
"""Compare the reports of two checkouts, cell by cell.

For each grid and format, runs `python -m hessianlab.cli --suite SUITE
--grid-n GRID --format FMT` once in the base checkout and once in the
head checkout (each on its own `src/`), and compares the outputs.
Identical bytes print one `same` line.  Otherwise every differing cell
is printed; numeric cells (lhs, rhs, margin, ms) with their absolute
and relative drift.

Exits 0 when every pair of reports has the same rows and verdicts
(numeric drift alone is shown but tolerated), and 1 when a row is
missing, added or renamed, a non-numeric cell or a verdict differs, or
the two processes exit with different codes.

    python3 scripts/report_diff.py --base ../parent --head .
    python3 scripts/report_diff.py --base ../parent --head . --suites sym,solve --grids 2048
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

NUMERIC = ("lhs", "rhs", "margin", "ms")


def run_report(checkout: Path, suite: str, grid: int, fmt: str) -> tuple[int, str]:
    src = str(checkout / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "hessianlab.cli", "--suite", suite, "--grid-n", str(grid), "--format", fmt]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def parse_rows(text: str, fmt: str) -> dict[tuple[str, str], dict[str, str]]:
    """Rows keyed by (suite, check), every cell as its text."""
    if fmt == "csv":
        records = list(csv.DictReader(io.StringIO(text)))
    else:
        records = [json.loads(line) for line in text.splitlines() if line]
        for rec in records:
            rec["pass"] = "true" if rec["pass"] else "false"
    return {(rec["suite"], rec["check"]): rec for rec in records}


def drift(a: str, b: str) -> str:
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return "abs n/a"
    gap = abs(y - x)
    scale = max(abs(x), abs(y))
    return f"abs {gap:.3e} rel {gap / scale if scale else 0.0:.3e}"


def compare(base: str, head: str, fmt: str) -> tuple[list[str], bool]:
    """Lines describing each difference, and whether any is a row or
    verdict difference."""
    old, new = parse_rows(base, fmt), parse_rows(head, fmt)
    lines, breaking = [], False
    for key in sorted(old.keys() | new.keys()):
        if key not in new or key not in old:
            lines.append(f"  {'only in base' if key in old else 'only in head'}: {key[0]} {key[1]}")
            breaking = True
            continue
        for cell in old[key]:
            a, b = old[key][cell], new[key][cell]
            if a == b:
                continue
            if cell in NUMERIC:
                lines.append(f"  {key[0]} {key[1]} {cell}: {a} -> {b} ({drift(a, b)})")
            else:
                lines.append(f"  {key[0]} {key[1]} {cell}: {a} -> {b}")
                breaking = True
    return lines, breaking


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--head", type=Path, required=True, help="checkout under test")
    parser.add_argument("--suites", default="all", help="comma-separated suites (default: all)")
    parser.add_argument("--grids", default="2048,8192", help="comma-separated grid sizes")
    args = parser.parse_args(argv)

    status = 0
    for suite in args.suites.split(","):
        for grid in [int(g) for g in args.grids.split(",")]:
            for fmt in ("csv", "jsonl"):
                label = f"--suite {suite} --grid-n {grid} --format {fmt}"
                base_code, base = run_report(args.base.resolve(), suite, grid, fmt)
                head_code, head = run_report(args.head.resolve(), suite, grid, fmt)
                if base_code != head_code:
                    print(f"{label}: exit {base_code} -> {head_code}")
                    status = 1
                if base == head:
                    print(f"{label}: same ({len(head.encode())} bytes, exit {head_code})")
                    continue
                lines, breaking = compare(base, head, fmt)
                if not lines:
                    lines, breaking = ["  the bytes differ but every cell matches"], True
                print(f"{label}: {len(lines)} cells differ" + (" (rows or verdicts)" if breaking else ""))
                print("\n".join(lines))
                status = status or int(breaking)
    return status


if __name__ == "__main__":
    sys.exit(main())
