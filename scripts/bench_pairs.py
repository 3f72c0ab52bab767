#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload, in alternating pairs.

Each seed runs `perfbench/run.py` once in the base checkout and once in
the head checkout, in alternating order (base first on even pairs), so
a slow phase of a shared machine hits both sides alike.  The raw end-
to-end metrics of every run, and per metric the base and head medians,
their quartiles (from two runs on), the number of pairs in which head
is lower and a verdict, go to a BENCH JSON file.  A run still going
after ten times `--seconds` is stopped; its pair is listed under
`timed_out` and left out of the summary.  A run that exits non-zero is
listed under `failed_runs` (seed, side, exit code, last stderr line),
and its pair is left out too.  Each kept run keeps its `correct`,
`failed` and `attempted`; `failed_ops` gives each side's share of
failed ops and flags a head share above the base share.

Every end-to-end metric is lower-is-better.  The verdict applies the
bound that BENCHMARK.json fixes for the metric:
  worse       the head median is above the base median by more than
              the bound (a fraction of the base median);
  gain        head is lower in at least 9 of 10 pairs and the medians
              differ by more than the base quartile spread;
  unresolved  neither, and either side's quartile spread is wider than
              the bound (or unknown, with one run), unless every head
              run is below every base run;
  same        otherwise.

    python3 scripts/bench_pairs.py --base ../parent --head . \\
        --workload suites-fold --seeds 11-20 --out BENCH_x.json
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# a run takes about twice its loop time with set-up; ten times means it hangs
TIMEOUT_FACTOR = 10


# the fields of a run that are counts and flags, not metrics
RUN_FIELDS = ("seed", "correct", "failed", "attempted")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict | None:
    """The result line of one run; None when it is still running after
    TIMEOUT_FACTOR times its loop time; {"seed", "exit_code", "stderr"}
    when it exits non-zero."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=TIMEOUT_FACTOR * seconds)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"seed": seed, "exit_code": proc.returncode, "stderr": last[0]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"seed": seed, "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], **metrics}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list[float]) -> list[float] | None:
    return statistics.quantiles(values, n=4) if len(values) >= 2 else None


def verdict(b: list[float], h: list[float], bound: float) -> str:
    base_med, head_med = statistics.median(b), statistics.median(h)
    slack = bound * abs(base_med)
    if head_med - base_med > slack:
        return "worse"
    qb, qh = quartiles(b), quartiles(h)
    wins = sum(y < x for x, y in zip(b, h))
    if qb is not None and wins >= 0.9 * len(b) and base_med - head_med > qb[2] - qb[0]:
        return "gain"
    wide = qb is None or max(qb[2] - qb[0], qh[2] - qh[0]) > slack
    return "unresolved" if wide and not max(h) < min(b) else "same"


def summary(base: list[dict], head: list[dict], name: str, bound: float | None) -> dict:
    b = [run[name] for run in base]
    h = [run[name] for run in head]
    qb, qh = quartiles(b), quartiles(h)
    return {
        "base_median": statistics.median(b),
        "head_median": statistics.median(h),
        "base_quartiles": qb and [qb[0], qb[2]],
        "head_quartiles": qh and [qh[0], qh[2]],
        "base_iqr": qb and qb[2] - qb[0],
        "head_lower_pairs": sum(y < x for x, y in zip(b, h)),
        "pairs": len(b),
        "bound": bound,
        "verdict": None if bound is None else verdict(b, h, bound),
    }


def failed_share(runs: list[dict]) -> float | None:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else None


def failed_ops(base: list[dict], head: list[dict]) -> dict:
    """Each side's share of failed ops over the kept runs, and whether
    head's share is above base's."""
    b, h = failed_share(base), failed_share(head)
    return {"base_share": b, "head_share": h,
            "head_above_base": b is not None and h is not None and h > b}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--head", type=Path, required=True, help="checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 11-20")
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    base, head, timed_out, failed_runs = [], [], [], []
    for i, seed in enumerate(args.seeds):
        order = (("base", args.base), ("head", args.head))
        pair = {}
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            pair[side] = run_once(checkout.resolve(), args.workload, seed, args.seconds)
            print(f"seed {seed} {checkout}: {pair[side] or 'timed out'}", flush=True)
        # a pair with a hung or failed side is listed, not compared
        hung = [side for side, run in pair.items() if run is None]
        if hung:
            timed_out.append({"seed": seed, "sides": hung})
        failed = [(side, run) for side, run in pair.items() if run is not None and "exit_code" in run]
        failed_runs.extend({"side": side, **run} for side, run in failed)
        if not hung and not failed:
            base.append(pair["base"])
            head.append(pair["head"])

    names = [n for n in base[0] if n not in RUN_FIELDS] if base else []
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}
    doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy"), "platform": platform.platform()},
        "summary": {name: summary(base, head, name, bounds.get(name)) for name in names},
        "failed_ops": failed_ops(base, head),
        "base": base,
        "head": head,
        "timed_out": timed_out,
        "failed_runs": failed_runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
