#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload, in alternating pairs.

Each seed runs `perfbench/run.py` once in the base checkout and once in
the head checkout, in alternating order (base first on even pairs), so
a slow phase of a shared machine hits both sides alike.  The raw end-
to-end metrics of every run, and per metric the base and head medians,
the base quartile spread and the number of pairs in which head is
lower, go to a BENCH JSON file.

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


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"seed": seed, "failed": result["failed"], "attempted": result["attempted"], **metrics}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(base: list[dict], head: list[dict], name: str) -> dict:
    b = [run[name] for run in base]
    h = [run[name] for run in head]
    q1, _, q3 = statistics.quantiles(b, n=4)
    return {
        "base_median": statistics.median(b),
        "head_median": statistics.median(h),
        "base_iqr": q3 - q1,
        "head_lower_pairs": sum(y < x for x, y in zip(b, h)),
        "pairs": len(b),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--head", type=Path, required=True, help="checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 11-20")
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    base, head = [], []
    for i, seed in enumerate(args.seeds):
        order = ((base, args.base), (head, args.head))
        for runs, checkout in order if i % 2 == 0 else order[::-1]:
            runs.append(run_once(checkout.resolve(), args.workload, seed, args.seconds))
            print(f"seed {seed} {checkout}: {runs[-1]}", flush=True)

    names = [n for n in base[0] if n not in ("seed", "failed", "attempted")]
    doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy"), "platform": platform.platform()},
        "summary": {name: summary(base, head, name) for name in names},
        "base": base,
        "head": head,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
