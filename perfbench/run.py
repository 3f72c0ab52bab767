"""hessianlab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload suites-fold --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
With `--trace 0` the workload runs whole passes of ops in a closed loop
with one client until the next pass would end past `--seconds`, and the
end-to-end metrics of BENCHMARK.json are reported.  With `--trace 1` one
pass runs untraced and then again traced (`--seconds` is not used), and
the per-layer metrics of BENCHMARK.json are reported, with the full layer
table and the spans written under `.perfbench/`.  Every op's output is
checked; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
PROBE_TIMEOUT_S = 120


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def child_float(argv: list[str], env: dict) -> float:
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(wl: workloads.Workload) -> float:
    """Median over SETUP_SAMPLES set-ups: this process's own, then fresh ones."""
    samples = [workloads.setup(wl.name)] if wl.in_process else []
    probe = [sys.executable, str(ROOT / "perfbench" / "probe.py"), wl.name]
    while len(samples) < SETUP_SAMPLES:
        samples.append(child_float(probe, wl.env()))
    return statistics.median(samples)


def import_breakdown(wl: workloads.Workload) -> dict[str, float]:
    """`python -X importtime` of a fresh process, by top-level package; median of runs."""
    runs = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hessianlab"],
                              env=wl.env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        runs.append(spans.parse_importtime(proc.stderr))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


class Tally:
    """Op times by kind of op, attempts and failures of one run."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run_op(self, wl, op, tracer: spans.Tracer | None = None, **run_kwargs) -> float:
        self.attempted += 1
        try:
            start = perf_counter()
            output = wl.run(op, **run_kwargs)
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.paused = True
            try:
                why = wl.check(op, output)
            finally:
                if tracer is not None:
                    tracer.paused = False
        except Exception:  # an op that raises is a failed op; the run goes on
            elapsed = perf_counter() - start
            why = [traceback.format_exc(limit=3)]
        self.durations.setdefault(wl.kind(op), []).append(elapsed)
        if why:
            self.failed += 1
            self.reasons.extend(f"{wl.name} op {op!r}: {w}" for w in why)
        return elapsed


def timed_run(wl: workloads.Workload, seconds: float) -> tuple[Tally, float, int]:
    tally = Tally()
    pass_times: list[float] = []
    start = perf_counter()
    for ops in wl.passes():
        elapsed = perf_counter() - start
        if len(pass_times) >= MIN_PASSES and elapsed + statistics.mean(pass_times) > seconds:
            break
        pass_start = perf_counter()
        for op in ops:
            tally.run_op(wl, op)
        pass_times.append(perf_counter() - pass_start)
    return tally, perf_counter() - start, len(pass_times)


def traced_run(wl: workloads.Workload, trace_dir: Path) -> tuple[Tally, dict[str, float]]:
    """One pass, each op run untraced and then traced; per-layer metrics from the spans.

    Interleaving the two runs of an op keeps drift of the machine out of
    the tracing overhead.
    """
    tally = Tally()
    untraced = traced = 0.0
    processes: list[list[spans.Span]] = []
    tracer = spans.Tracer()
    for i, op in enumerate(next(wl.passes())):
        untraced += tally.run_op(wl, op)
        if wl.in_process:
            with tracer:
                traced += tally.run_op(wl, op, tracer)
        else:
            path = wl.tmp / f"spans-{i}.jsonl"
            traced += tally.run_op(wl, op, spans_path=path)
            processes.append(spans.load_spans(path) if path.is_file() else [])
    if wl.in_process:
        processes.append(tracer.spans)
    metrics = spans.layer_metrics(processes)
    metrics.update(import_breakdown(wl))
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_ratio"] = (traced - untraced) / untraced
    spans.dump_processes(trace_dir / f"spans-{wl.name}.jsonl", processes)
    return tally, metrics


def kind_medians(tally: Tally) -> dict[str, float]:
    return {kind: statistics.median(times) for kind, times in sorted(tally.durations.items())}


def end_to_end(wl, tally: Tally, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of a timed run.

    Op times are summarised per kind of op (a suite, a CLI command, a band
    of c) by their median, then over the kinds: the kinds of one workload
    differ up to 70-fold in time, so a percentile of all ops pooled sits on
    the edge between two kinds and jumps between runs.  `pass_s` is the
    robust inverse of throughput; ops per second over the whole loop, a
    mean, is in the stamp line.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
    medians = kind_medians(tally).values()
    return {
        "setup_s": setup_s,
        "op_s.geomean": math.exp(statistics.fmean(math.log(m) for m in medians)),
        "pass_s": math.fsum(medians),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "oracle_rel_err.max": max(wl.oracle_errors),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hessianlab" / "__init__.py").is_file():
        print(f"perfbench: no hessianlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    cls = workloads.WORKLOADS[args.workload]
    os.environ.pop(workloads.ENV_THREADS, None)
    if cls.threads is not None:
        os.environ[workloads.ENV_THREADS] = cls.threads
    trace_dir = ROOT / ".perfbench"
    trace_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=trace_dir) as tmp:
        wl = cls(ROOT, Path(tmp), reference, args.seed)
        setup_s = measure_setup(wl)
        if args.trace:
            tally, metrics = traced_run(wl, trace_dir)
            passes = 2
            declared = bench["per_layer"]
        else:
            tally, loop_s, passes = timed_run(wl, args.seconds)
            declared = bench["end_to_end"]
        try:
            tally.reasons.extend(wl.finish())
        except Exception:  # a failed closing check is reported, not fatal
            tally.reasons.append(traceback.format_exc(limit=3))
        if not args.trace:
            metrics = end_to_end(wl, tally, setup_s)

    measured = Path(sys.modules["hessianlab"].__file__).resolve().parent
    if measured != ROOT / "src" / "hessianlab":
        print(f"perfbench: measured {measured}, not this checkout", file=sys.stderr)
        return 2
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: BENCHMARK.json names metrics this run cannot give: {missing}", file=sys.stderr)
        return 3

    stamp = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "hessian_lab_threads": cls.threads if cls.threads is not None else "unset",
        "grids": list(wl.grids),
        "passes": passes,
        "op_samples": {kind: len(times) for kind, times in sorted(tally.durations.items())},
        "failed_ratio": tally.failed / tally.attempted,
    }
    if not args.trace:
        stamp["op_s.median"] = kind_medians(tally)
        stamp["ops_per_s"] = tally.attempted / loop_s
    print("perfbench: stamp " + json.dumps(stamp))
    if args.trace:
        (trace_dir / f"layers-{wl.name}.json").write_text(json.dumps(metrics, indent=1) + "\n")
        print("perfbench: layers " + json.dumps(metrics))
    for m in declared:
        print(f"perfbench: {m['name']} = {metrics[m['name']]!r} {m['unit']}")
    for reason in tally.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    result = {
        "correct": not tally.reasons,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
