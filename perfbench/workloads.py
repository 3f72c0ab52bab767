"""The benchmark's workloads: set-up, seeded ops and the checks on their outputs.

Each workload is a closed loop with one client.  `passes()` yields lists
of ops; `run(op)` is the timed part and `check(op, output)` returns the
reasons the op failed (an empty list when it is correct).  Ops and checks
call hessianlab through module attributes, never through names imported
into this file, so that the rebinding of a traced run reaches them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ENV_THREADS = "HESSIAN_LAB_THREADS"
SUITE_NAMES = ("sym", "solve", "capacity", "bm", "abp", "degiorgi", "liouville")
DEFAULT_GRID = 2048
FINE_GRID = 8192
ORACLE_TOL = 1e-7  # about 10x the worst (2,1) oracle error at grid 2048
RESIDUAL_TOL = 1e-6  # the solver's own acceptance threshold
PROBE_C = 1.99  # fixed (2,1) oracle probe of the workloads that do not solve directly

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# (n, k, low, high, solvable): each round takes one c from each band.
LIOUVILLE_BANDS = (
    (2, 1, 0.1, 0.5, True),
    (2, 1, 0.9, 1.1, True),
    (2, 1, 1.85, 1.95, True),
    (2, 1, 1.985, 1.995, True),
    (2, 1, 2.02, 2.1, False),  # past the fold c* = 2
    (4, 2, 0.5, 2.0, True),
    (4, 2, 20.0, 25.0, True),
)


def oracle_values(c: float, nodes):
    """Minimal-branch solution of Laplacian(u) = c exp(-u), u(1) = 0 in 2-d.

    u(r) = 2 log(1 + mu r^2) - log(8 mu / c), with mu the smaller root of
    c mu^2 + (2c - 8) mu + c = 0; real roots exist only for c <= 2.
    """
    import numpy as np

    if not 0 < c <= 2:
        raise ValueError(f"the (2,1) oracle needs 0 < c <= 2, got {c!r}")
    mu = oracle_mu(c)
    return 2.0 * np.log1p(mu * np.asarray(nodes) ** 2) - math.log(8.0 * mu / c)


def oracle_mu(c: float) -> float:
    b = 2.0 * c - 8.0
    # smaller root, written without cancellation: mu = 2c / (-b + sqrt(b^2 - 4c^2))
    return 2.0 * c / (-b + math.sqrt(max(b * b - 4.0 * c * c, 0.0)))


def solution_errors(u, n: int, k: int, c: float) -> tuple[float, float | None]:
    """(relative residual, oracle error) of a solution of S_k[u] = c e^{-u}.

    The residual is the sup mismatch of cumulative masses over the total
    mass; the oracle error (2,1 only) is sup |u - oracle| / sup |oracle|.
    """
    import numpy as np
    from hessianlab import core, radial

    own = radial.s_k_radial(u)
    target = radial.RadialMeasure.from_density(core.HessianDim(n, k), u.R, u.nodes, c * np.exp(-u.values))
    residual = float(np.max(np.abs(own.cumulative - target.cumulative))) / target.total
    if (n, k) != (2, 1):
        return residual, None
    exact = oracle_values(c, u.nodes)
    return residual, float(np.max(np.abs(u.values - exact)) / np.max(np.abs(exact)))


def solve_constant(n: int, k: int, c: float, grid_n: int):
    """Cold solve of S_k[u] = c e^{-u}, u(1) = 0; raises NoSolutionError past the fold."""
    import numpy as np
    from hessianlab import core, liouville

    prob = liouville.LiouvilleProblem(
        dim=core.HessianDim(n, k), V=lambda r: np.full_like(r, c), grid_n=grid_n
    )
    return liouville.solve_liouville(prob)


def solution_failures(residual: float, oracle_error: float | None) -> list[str]:
    failures = []
    if residual > RESIDUAL_TOL:
        failures.append(f"residual {residual:.3e} > {RESIDUAL_TOL}")
    if oracle_error is not None and oracle_error > ORACLE_TOL:
        failures.append(f"oracle error {oracle_error:.3e} > {ORACLE_TOL}")
    return failures


def outcome_failure(expect_solution: bool, solved: bool) -> str | None:
    """Why a solve outcome is wrong; an expected NoSolutionError is a success."""
    if expect_solution and not solved:
        return "unexpected NoSolutionError"
    if solved and not expect_solution:
        return "solved past the fold, where NoSolutionError is expected"
    return None


def verdict_failure(rows: list[list], expected: list[list]) -> str | None:
    """Why report rows differ from the reference verdict table, if they do."""
    if rows == expected:
        return None
    if len(rows) != len(expected):
        return f"{len(rows)} rows, reference has {len(expected)}"
    for got, want in zip(rows, expected):
        if got != want:
            return f"row {got} differs from reference {want}"
    return None


def verdict_rows(rows) -> list[list]:
    """(suite, check, anchor, inputs, pass) of in-memory report rows."""
    return [[r.suite, r.check, r.anchor, r.inputs, bool(r.passed)] for r in rows]


def parse_report(text: str, fmt: str) -> list[list]:
    """(suite, check, anchor, inputs, pass) rows of a CSV or JSONL report."""
    if fmt == "jsonl":
        rows = [json.loads(line) for line in text.splitlines() if line]
        return [[r["suite"], r["check"], r["anchor"], r["inputs"], r["pass"]] for r in rows]
    reader = csv.reader(io.StringIO(text))
    next(reader, None)  # header
    return [[r[0], r[1], r[2], r[3], r[7] == "true"] for r in reader]


class Workload:
    """Common state: the checkout, a scratch directory, the reference table."""

    name = ""
    in_process = True  # False: each op is a child process of the benchmark
    threads: str | None = None  # HESSIAN_LAB_THREADS the program runs with
    grids: tuple[int, ...] = ()
    probe_grid: int | None = None  # grid of the closing (2,1) oracle probe, if any

    def __init__(self, root: Path, tmp: Path, reference: dict, seed: int) -> None:
        self.root = root
        self.tmp = tmp
        self.reference = reference
        self.rng = random.Random(seed)
        self.first_output: dict[str, bytes] = {}
        self.oracle_errors: list[float] = []

    def kind(self, op) -> str:
        """The kind of an op: ops of one kind do the same work."""
        return str(op)

    def env(self) -> dict:
        env = dict(os.environ)
        env.pop(ENV_THREADS, None)
        if self.threads is not None:
            env[ENV_THREADS] = self.threads
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def same_as_before(self, key: str, data: bytes) -> str | None:
        # Digests, not the bytes, so that memory does not grow with the run.
        digest = hashlib.sha256(data).digest()
        first = self.first_output.setdefault(key, digest)
        return None if first == digest else "output differs from an earlier repetition in this run"

    def finish(self) -> list[str]:
        """Closing check, untimed: one (2,1) solve at PROBE_C against the oracle.

        Workloads that do not call the solver directly still run it inside
        the liouville suite; this keeps the oracle metric on every workload.
        """
        if self.probe_grid is None:
            return [] if self.oracle_errors else ["no (2,1) solve was checked against the oracle"]
        u = solve_constant(2, 1, PROBE_C, self.probe_grid)
        residual, err = solution_errors(u, 2, 1, PROBE_C)
        self.oracle_errors.append(err)
        return solution_failures(residual, err)


class CliReport(Workload):
    """`python -m hessianlab.cli` processes, one op per process."""

    name = "cli-report"
    in_process = False
    threads = None
    grids = (DEFAULT_GRID, FINE_GRID)
    probe_grid = DEFAULT_GRID

    def commands(self) -> list[tuple]:
        out = str(self.tmp / "all-8192.jsonl")
        ops = [(s, DEFAULT_GRID, "csv", None, ("--suite", s)) for s in SUITE_NAMES]
        ops.append(("all", DEFAULT_GRID, "csv", None, ("--suite", "all")))
        ops.append(("all", FINE_GRID, "jsonl", out,
                    ("--suite", "all", "--grid-n", str(FINE_GRID), "--format", "jsonl", "--out", out)))
        return ops

    def passes(self):
        ops = self.commands()
        while True:
            self.rng.shuffle(ops)
            yield list(ops)

    def kind(self, op) -> str:
        return f"{op[0]}@{op[1]}"

    def argv(self, op, spans_path: Path | None = None) -> list[str]:
        if spans_path is None:
            return [sys.executable, "-m", "hessianlab.cli", *op[4]]
        return [sys.executable, str(self.root / "perfbench" / "traced_cli.py"), str(spans_path), *op[4]]

    def run(self, op, spans_path: Path | None = None):
        proc = subprocess.run(self.argv(op, spans_path), env=self.env(), cwd=self.root,
                              capture_output=True, timeout=170)
        return proc.returncode, proc.stdout

    def check(self, op, output) -> list[str]:
        suite, grid, fmt, out_path, args = op
        code, stdout = output
        if code != 0:
            return [f"exit code {code}"]
        if out_path is not None:
            path = Path(out_path)
            data = path.read_bytes()
            path.unlink()
        else:
            data = stdout
        rows = parse_report(data.decode("utf-8"), fmt)
        reasons = (verdict_failure(rows, self.reference[f"{grid}/{suite}"]),
                   self.same_as_before(" ".join(args), data))
        return [why for why in reasons if why]


class SuitesFine(Workload):
    """In-process `run_suite` calls at grid 8192, one thread, one op per suite."""

    name = "suites-fine"
    threads = "1"
    grids = (FINE_GRID,)
    probe_grid = FINE_GRID

    def config(self, suite: str):
        from hessianlab import suites

        return suites.config_from_sources(None, {"suite": suite, "grid_n": FINE_GRID})

    def passes(self):
        ops = list(SUITE_NAMES)
        while True:
            self.rng.shuffle(ops)
            yield list(ops)

    def run(self, op):
        from hessianlab import suites

        return suites.run_suite(self.config(op))

    def check(self, op, output) -> list[str]:
        from hessianlab import report

        rows, status = output
        reasons = (f"status {status}" if status else None,
                   verdict_failure(verdict_rows(rows), self.reference[f"{FINE_GRID}/{op}"]),
                   self.same_as_before(op, report.emit_report(rows).encode("utf-8")))
        return [why for why in reasons if why]


class LiouvilleFold(Workload):
    """Cold constant-V solves near the fold, each checkpointed to JSON and back."""

    name = "liouville-fold"
    threads = None
    grids = (DEFAULT_GRID,)

    def passes(self):
        # Round i takes c = lo + frac(u + i * GOLDEN) * (hi - lo) in each band,
        # with the offset u drawn from the seed: any number of rounds covers
        # every band evenly, so the mix of iteration counts, and with it each
        # band's median time, does not hinge on a few lucky draws.  Each round solves
        # every c twice, in two shuffled passes; the second checks repeatability.
        offsets = [self.rng.random() for _ in LIOUVILLE_BANDS]
        for i in itertools.count():
            ops = [(band, lo + ((u + i * GOLDEN) % 1.0) * (hi - lo))
                   for band, ((_, _, lo, hi, _), u) in enumerate(zip(LIOUVILLE_BANDS, offsets))]
            for _ in range(2):
                self.rng.shuffle(ops)
                yield list(ops)

    def kind(self, op) -> str:
        return f"band{op[0]}"

    def checkpoint(self, op) -> Path:
        return self.tmp / f"profile-band{op[0]}.json"

    def run(self, op):
        from hessianlab import errors, profile_io

        band, c = op
        n, k = LIOUVILLE_BANDS[band][:2]
        try:
            u = solve_constant(n, k, c, DEFAULT_GRID)
        except errors.NoSolutionError:
            return None
        path = self.checkpoint(op)
        profile_io.save_profile(u, path)
        return u, profile_io.load_profile(path)

    def check(self, op, output) -> list[str]:
        band, c = op
        n, k, _, _, expect_solution = LIOUVILLE_BANDS[band]
        why = outcome_failure(expect_solution, output is not None)
        if why:
            return [why]
        if output is None:
            return []
        u, loaded = output
        failures = []
        for attr in ("nodes", "values", "slope"):
            if getattr(u, attr).tobytes() != getattr(loaded, attr).tobytes():
                failures.append(f"checkpoint changed {attr}")
        if (u.dim, u.R, u.boundary) != (loaded.dim, loaded.R, loaded.boundary):
            failures.append("checkpoint changed dim, R or boundary")
        why = self.same_as_before(f"{band}:{c!r}", self.checkpoint(op).read_bytes())
        if why:
            failures.append(why)
        residual, err = solution_errors(u, n, k, c)
        if err is not None:
            self.oracle_errors.append(err)
        return failures + solution_failures(residual, err)


class SuitesFold(Workload):
    """The ops of suites-fine and of liouville-fold, shuffled together in one loop.

    A pass is the seven suites at grid 8192 and one round of fold solves,
    all on one thread.  One workload in place of two gives each run twice
    the time, which averages out more of the drift of a shared host.
    """

    name = "suites-fold"
    threads = "1"
    grids = (FINE_GRID, DEFAULT_GRID)
    probe_grid = FINE_GRID

    def __init__(self, root: Path, tmp: Path, reference: dict, seed: int) -> None:
        super().__init__(root, tmp, reference, seed)
        self.parts = (SuitesFine(root, tmp, reference, seed), LiouvilleFold(root, tmp, reference, seed))
        for part in self.parts:  # one seed, one record of outputs and oracle errors
            part.rng, part.first_output, part.oracle_errors = self.rng, self.first_output, self.oracle_errors

    def part(self, op) -> Workload:
        return self.parts[0] if isinstance(op, str) else self.parts[1]

    def passes(self):
        for fold_ops in self.parts[1].passes():
            ops = list(SUITE_NAMES) + fold_ops
            self.rng.shuffle(ops)
            yield ops

    def kind(self, op) -> str:
        return self.part(op).kind(op)

    def run(self, op):
        return self.part(op).run(op)

    def check(self, op, output) -> list[str]:
        return self.part(op).check(op, output)


WORKLOADS = {cls.name: cls for cls in (CliReport, SuitesFold, SuitesFine, LiouvilleFold)}


def setup(name: str) -> float:
    """The workload's set-up in this process; returns its wall time.

    cli-report: what every process pays before `main` (importing the CLI).
    suites-fine: import plus one warm pass over the seven suites.
    liouville-fold: import of the solver and checkpoint modules.
    suites-fold: both of the last two.
    """
    start = perf_counter()
    if name == "cli-report":
        import hessianlab.cli  # noqa: F401
    if name in ("suites-fine", "suites-fold"):
        from hessianlab import suites

        for suite in SUITE_NAMES:
            suites.run_suite(suites.config_from_sources(None, {"suite": suite, "grid_n": FINE_GRID}))
    if name in ("liouville-fold", "suites-fold"):
        import hessianlab.liouville  # noqa: F401
        import hessianlab.profile_io  # noqa: F401
    return perf_counter() - start
