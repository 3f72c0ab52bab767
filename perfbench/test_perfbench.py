"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from hessianlab import liouville, report, suites  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNTS = ("quadrature.calls", "quadrature.points", "liouville.iterations", "liouville.iterations.max",
          "radial.s_k_radial.calls", "radial.solve_dirichlet.calls", "radial.from_density.calls",
          "radial.profile_new.calls")


def traced_counts(run) -> dict:
    tracer = spans.Tracer()
    with tracer:
        run()
    metrics = spans.layer_metrics([tracer.spans])
    return {name: metrics[name] for name in COUNTS}


def test_metric_names_match_pattern():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += list(spans.layer_metrics([])) + list(spans.parse_importtime(""))
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names[: len(bench["end_to_end"]) + len(bench["per_layer"])])) == len(
        bench["end_to_end"]) + len(bench["per_layer"])


def test_expected_no_solution_is_success(tmp_path):
    wl = workloads.LiouvilleFold(ROOT, tmp_path, {}, seed=0)
    past_fold = next(i for i, band in enumerate(workloads.LIOUVILLE_BANDS) if not band[4])
    assert wl.check((past_fold, 2.05), None) == []
    assert wl.run((past_fold, 2.05)) is None


def test_suites_fold_pass_has_every_suite_and_band_once(tmp_path):
    wl = workloads.SuitesFold(ROOT, tmp_path, {}, seed=0)
    kinds = [wl.kind(op) for op in next(wl.passes())]
    assert sorted(kinds) == sorted(list(workloads.SUITE_NAMES) + [f"band{i}" for i in range(7)])
    past_fold = next(i for i, band in enumerate(workloads.LIOUVILLE_BANDS) if not band[4])
    assert wl.check((past_fold, 2.05), None) == []
    assert all(part.oracle_errors is wl.oracle_errors for part in wl.parts)


def test_unexpected_no_solution_is_failure(tmp_path):
    wl = workloads.LiouvilleFold(ROOT, tmp_path, {}, seed=0)
    assert wl.check((0, 0.3), None) == ["unexpected NoSolutionError"]
    assert workloads.outcome_failure(expect_solution=False, solved=True) is not None


def test_verdict_mismatch_is_failure(tmp_path):
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    flipped = [row[:4] + [not row[4]] if i == 0 else row for i, row in enumerate(reference["8192/solve"])]
    wl = workloads.SuitesFine(ROOT, tmp_path, {"8192/solve": flipped}, seed=0)
    output = wl.run("solve")
    assert any("differs from reference" in why for why in wl.check("solve", output))
    wl.reference = {"8192/solve": reference["8192/solve"]}
    assert wl.check("solve", output) == []


def test_parse_report_reads_csv_and_jsonl():
    cfg = suites.config_from_sources(None, {"suite": "solve"})
    rows, _ = suites.run_suite(cfg)
    csv_rows = workloads.parse_report(report.emit_report(rows, fmt="csv"), "csv")
    jsonl_rows = workloads.parse_report(report.emit_report(rows, fmt="jsonl"), "jsonl")
    assert csv_rows == jsonl_rows
    assert len(csv_rows) == len(rows)


def test_traced_run_gives_same_report_rows():
    cfg = suites.config_from_sources(None, {"suite": "capacity"})
    untraced = report.emit_report(suites.run_suite(cfg)[0])
    tracer = spans.Tracer()
    with tracer:
        traced = report.emit_report(suites.run_suite(cfg)[0])
    assert traced == untraced
    assert any(s.layer == "quadrature" for s in tracer.spans)
    # uninstall put every original back
    assert suites.run_suite.__module__ == "hessianlab.suites" and not hasattr(suites.run_suite, "__wrapped__")


def test_count_metrics_repeat_for_one_seed(tmp_path):
    def liouville_pass():
        wl = workloads.LiouvilleFold(ROOT, tmp_path, {}, seed=7)
        for op in next(wl.passes()):
            wl.run(op)

    first, second = traced_counts(liouville_pass), traced_counts(liouville_pass)
    assert first == second
    assert first["liouville.iterations.max"] >= 400  # the past-fold solve runs to or near the cap

    cfg = suites.config_from_sources(None, {"suite": "solve"})
    assert traced_counts(lambda: suites.run_suite(cfg)) == traced_counts(lambda: suites.run_suite(cfg))


def test_iterations_are_counted_inside_each_solve():
    counts = traced_counts(lambda: workloads.solve_constant(2, 1, 1.0, 2048))
    assert counts["liouville.iterations"] == counts["radial.solve_dirichlet.calls"] == 16


@pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 1.9, 1.99, 2.0])
def test_oracle_matches_shifted_bubble(c):
    mu = workloads.oracle_mu(c)
    assert c * mu * mu + (2 * c - 8) * mu + c == pytest.approx(0.0, abs=1e-12)
    assert mu <= 1.0 + 1e-6  # the smaller root: the roots multiply to 1
    bubble = liouville.bubble_profile(math.sqrt(mu), grid_n=2048)
    exact = workloads.oracle_values(c, bubble.nodes)
    assert np.max(np.abs(bubble.values + math.log(c) - exact)) < 1e-13
    assert abs(exact[-1]) < 1e-13  # u(1) = 0


def test_oracle_has_no_solution_past_the_fold():
    with pytest.raises(ValueError):
        workloads.oracle_values(2.05, np.array([0.5, 1.0]))


def test_self_time_subtracts_union_of_overlapping_children():
    parent = spans.Span(1, "parallel.map_ordered", None, thread=1, start=0.0, end=10.0)
    a = spans.Span(2, "suites.task", 1, thread=2, start=1.0, end=6.0)
    b = spans.Span(3, "suites.task", 1, thread=3, start=2.0, end=8.0)
    inner = spans.Span(4, "quadrature.integral", 2, thread=2, start=2.0, end=3.0)
    own = spans.self_times([parent, a, b, inner])
    assert own == {1: pytest.approx(3.0), 2: pytest.approx(4.0), 3: pytest.approx(6.0), 4: pytest.approx(1.0)}


def test_parse_importtime_sums_by_top_level_package():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   numpy.core\n"
        "import time:       300 |        400 | numpy\n"
        "import time:      2000 |       2000 |     scipy.integrate\n"
        "import time:        50 |       2450 | hessianlab\n"
    )
    got = spans.parse_importtime(text)
    assert got["import.numpy_s"] == pytest.approx(4e-4)
    assert got["import.scipy_s"] == pytest.approx(2e-3)
    assert got["import.hessianlab_s"] == pytest.approx(5e-5)
    assert got["import.total_s"] == pytest.approx(2.45e-3)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "liouville-fold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
