#!/usr/bin/env python3
"""Compare the reports of two checkouts, cell by cell.

For each suite, grid and format, runs `python -m hessianlab.cli --suite
SUITE --grid-n GRID --format FMT` once in the base checkout and once in
the head checkout (each on its own `src/`), and compares stdout and
stderr.  `--suite all --grid-n 2048` at `--radius 1e-6` and `1e6`, and
at the ends 1e-60 and 1e7 of the accepted radius range, is always
compared too, and so is `--suite all --grid-n 2048` at the explicit
pairs (n, k) = (3, 2), (5, 1), (6, 3) and (8, 4), four bm configs
whose --lambda, --beta or --p is out of range, `all` at n = 171,
past the last dimension with a ball volume, and `all` at a grid size
far above the accepted range (all exit 2, compared by their stderr
line), a bm --beta and a bm --p just inside the library's 1e-12 slack
past the exponent ceiling and the L^p endpoint, abp at (n, k) = (18, 9),
whose bump amplitude search fails to bracket its budget (exit 3,
compared by its stderr line), and the --family and
--tol paths: bm with the mollified-log, newtonian (at (3, 1), and at
(5, 1) where it falls back to power) and constant (exit 2) families,
degiorgi with the constant fixture (exit 1), and `all` at --tol 1e-7.
Last come the two outputs that read the option table and the family
list without running a suite: `--help`, and bm with an unknown family
(exit 2, one stderr line).
Identical bytes on both print one `same` line.  Otherwise every
differing cell is printed, numeric cells (lhs, rhs, margin, ms) with
their absolute and relative drift, and so is every differing stderr
line.  Rows are matched by
suite, check and occurrence: a check name that a report repeats is
told apart by its order there, and its later copies print as `#2`,
`#3`, ...  A config that exits 3 has an empty report on both sides, so
its stderr line (the error it raised) is what tells the two apart.

Then the checkpoint bytes: each checkout solves S_k[u] = c e^{-u},
u(1) = 0 cold at (2,1) c = 1.9 and (4,2) c = 20 on grids 2048 and 8192
and prints the solution as a line `n k R boundary` and then one line
per node with the repr of its node, value and slope, written by this
script's own program with no library format; identical texts print one
`same` line, and otherwise the first differing line is printed.

Exits 0 when every pair of reports has the same rows and verdicts
(numeric drift alone is shown but tolerated), and 1 when a row is
missing, added or renamed, a non-numeric cell, a verdict or a stderr
line differs, a checkpoint differs, or the two processes exit with
different codes.

    python3 scripts/report_diff.py --base ../parent --head .
    python3 scripts/report_diff.py --base ../parent --head . --suites sym,solve --grids 2048
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

NUMERIC = ("lhs", "rhs", "margin", "ms")


# Run after the --suites x --grids product: `all` at the extreme radii
# the numerics must hold at, and at the ends of the accepted range
# (suites.RADIUS_RANGE).
RADIUS_CONFIGS = tuple(
    ("--suite", "all", "--grid-n", "2048", "--radius", radius) for radius in ("1e-6", "1e6", "1e-60", "1e7")
)

# Then `all` at explicit (n, k) pairs beyond the default dimensions.
PAIR_CONFIGS = tuple(
    ("--suite", "all", "--grid-n", "2048", "--n", n, "--k", k)
    for n, k in (("3", "2"), ("5", "1"), ("6", "3"), ("8", "4"))
)

# Then parameters out of range, each refused with one stderr line.
BAD_PARAMETER_CONFIGS = (
    ("--suite", "bm", "--n", "2", "--k", "1", "--lambda", "20"),
    ("--suite", "bm", "--n", "2", "--k", "1", "--beta", "3"),
    ("--suite", "bm", "--n", "3", "--k", "1", "--p", "5"),
    ("--suite", "bm", "--n", "3", "--k", "1", "--p", "0.5"),
    ("--suite", "all", "--n", "171", "--k", "1"),
    ("--suite", "all", "--grid-n", "100000000000"),
)

# Then a --beta and a --p within 1e-12 (relative) past the exponent
# ceiling and the L^p endpoint, which the library's one rule accepts.
EDGE_PARAMETER_CONFIGS = (
    ("--suite", "bm", "--n", "2", "--k", "1", "--beta", "2.0000000000005"),
    ("--suite", "bm", "--n", "5", "--k", "1", "--p", "1.6666666666675"),
)

# Then a config that passes validation and fails inside the library:
# the fixed-budget family's amplitude search at (18, 9), past its cap.
FAILURE_CONFIGS = (
    ("--suite", "abp", "--n", "18", "--k", "9"),
)

# Then the --family and --tol paths at the default grid.
FAMILY_TOL_CONFIGS = (
    ("--suite", "bm", "--family", "mollified-log"),
    ("--suite", "bm", "--n", "3", "--k", "1", "--family", "newtonian"),
    ("--suite", "bm", "--n", "5", "--k", "1", "--family", "newtonian"),
    ("--suite", "bm", "--family", "constant"),
    ("--suite", "degiorgi", "--family", "constant"),
    ("--suite", "all", "--tol", "1e-7"),
)

# Then the help text and an unknown family, which run no suite.
CLI_CONFIGS = (
    ("--help",),
    ("--suite", "bm", "--family", "nope"),
)


# (n, k, c, grid) of each checkpoint compared, and the program that
# writes one to stdout.
CHECKPOINTS = tuple((n, k, c, grid) for n, k, c in ((2, 1, 1.9), (4, 2, 20.0)) for grid in (2048, 8192))
CHECKPOINT_PROGRAM = """
import sys
import numpy as np
from hessianlab.core import HessianDim
from hessianlab.liouville import LiouvilleProblem, solve_liouville
n, k, c, grid = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
u = solve_liouville(LiouvilleProblem(HessianDim(n, k), lambda r: np.full_like(r, c), grid_n=grid))
print(n, k, repr(u.R), repr(u.boundary))
for row in zip(u.nodes.tolist(), u.values.tolist(), u.slope.tolist()):
    print(*map(repr, row))
"""


def run_list(suites: list[str], grids: list[int]) -> list[tuple[str, ...]]:
    """The CLI arguments of every config compared, format excluded."""
    product = [("--suite", s, "--grid-n", str(g)) for s in suites for g in grids]
    extras = (RADIUS_CONFIGS + PAIR_CONFIGS + BAD_PARAMETER_CONFIGS + EDGE_PARAMETER_CONFIGS
              + FAILURE_CONFIGS + FAMILY_TOL_CONFIGS + CLI_CONFIGS)
    return product + list(extras)


def run_python(checkout: Path, args: list[str]) -> tuple[int, str, str]:
    """Run python with args on the checkout's src/: exit code, stdout, stderr."""
    src = str(checkout / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], cwd=checkout, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_report(checkout: Path, config: tuple[str, ...], fmt: str) -> tuple[int, str, str]:
    return run_python(checkout, ["-m", "hessianlab.cli", *config, "--format", fmt])


def run_checkpoint(checkout: Path, checkpoint: tuple) -> tuple[int, str, str]:
    return run_python(checkout, ["-c", CHECKPOINT_PROGRAM, *map(str, checkpoint)])


def parse_rows(text: str, fmt: str) -> dict[tuple[str, str, int], dict[str, str]]:
    """Rows keyed by (suite, check, occurrence), every cell as its text;
    occurrence counts the earlier rows with the same suite and check."""
    if fmt == "csv":
        records = list(csv.DictReader(io.StringIO(text)))
    else:
        records = [json.loads(line) for line in text.splitlines() if line]
        for rec in records:
            rec["pass"] = "true" if rec["pass"] else "false"
    seen: Counter = Counter()
    rows = {}
    for rec in records:
        name = (rec["suite"], rec["check"])
        rows[(*name, seen[name])] = rec
        seen[name] += 1
    return rows


def row_name(key: tuple[str, str, int]) -> str:
    suite, check, occurrence = key
    return f"{suite} {check}" + (f" #{occurrence + 1}" if occurrence else "")


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
            lines.append(f"  {'only in base' if key in old else 'only in head'}: {row_name(key)}")
            breaking = True
            continue
        for cell in old[key]:
            a, b = old[key][cell], new[key][cell]
            if a == b:
                continue
            if cell in NUMERIC:
                lines.append(f"  {row_name(key)} {cell}: {a} -> {b} ({drift(a, b)})")
            else:
                lines.append(f"  {row_name(key)} {cell}: {a} -> {b}")
                breaking = True
    return lines, breaking


def compare_stderr(base: str, head: str) -> list[str]:
    """One line per stderr line that differs; each one is breaking."""
    pairs = itertools.zip_longest(base.splitlines(), head.splitlines(), fillvalue="")
    return [f"  stderr: {a!r} -> {b!r}" for a, b in pairs if a != b]


def compare_checkpoint(base: str, head: str) -> list[str]:
    """The first line at which two checkpoint texts differ, or no line
    when they are the same bytes."""
    if base == head:
        return []
    pairs = itertools.zip_longest(base.splitlines(), head.splitlines(), fillvalue="")
    for number, (a, b) in enumerate(pairs, 1):
        if a != b:
            return [f"  line {number}: {a!r} -> {b!r}"]
    return ["  the bytes differ but every line matches"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--head", type=Path, required=True, help="checkout under test")
    parser.add_argument("--suites", default="all", help="comma-separated suites (default: all)")
    parser.add_argument("--grids", default="2048,8192", help="comma-separated grid sizes")
    args = parser.parse_args(argv)

    status = 0
    for config in run_list(args.suites.split(","), [int(g) for g in args.grids.split(",")]):
        for fmt in ("csv", "jsonl"):
            label = " ".join(config) + f" --format {fmt}"
            base_code, base, base_err = run_report(args.base.resolve(), config, fmt)
            head_code, head, head_err = run_report(args.head.resolve(), config, fmt)
            if base_code != head_code:
                print(f"{label}: exit {base_code} -> {head_code}")
                status = 1
            if base == head and base_err == head_err:
                print(f"{label}: same ({len(head.encode())} bytes, exit {head_code})")
                continue
            lines, breaking = compare(base, head, fmt)
            if base != head and not lines:
                lines, breaking = ["  the bytes differ but every cell matches"], True
            err_lines = compare_stderr(base_err, head_err)
            lines, breaking = lines + err_lines, breaking or bool(err_lines)
            print(f"{label}: {len(lines)} differences" + (" (rows, verdicts or stderr)" if breaking else ""))
            print("\n".join(lines))
            status = status or int(breaking)
    for checkpoint in CHECKPOINTS:
        n, k, c, grid = checkpoint
        label = f"checkpoint ({n},{k}) c={c:g} --grid-n {grid}"
        base_code, base, base_err = run_checkpoint(args.base.resolve(), checkpoint)
        head_code, head, head_err = run_checkpoint(args.head.resolve(), checkpoint)
        lines = compare_checkpoint(base, head) + compare_stderr(base_err, head_err)
        if base_code != head_code:
            lines.insert(0, f"  exit {base_code} -> {head_code}")
        if lines:
            print(f"{label}: {len(lines)} differences")
            print("\n".join(lines))
            status = 1
        else:
            print(f"{label}: same ({len(head.encode())} bytes, exit {head_code})")
    return status


if __name__ == "__main__":
    sys.exit(main())
