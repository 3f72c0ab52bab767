"""The scripts under scripts/.

The two gate scripts are loaded by path and fed synthetic inputs:
report_diff.compare decides whether two reports differ in rows or
verdicts, and report_diff.compare_checkpoint whether two checkpoints
differ; bench_pairs.verdict decides whether a metric got better,
worse, stayed the same or cannot be told apart.  report_diff's
checkpoint program and the other two scripts are run once each in a
subprocess on src/.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hessianlab import quadrature as quad
from hessianlab.suites import RADIUS_RANGE

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_diff = _load("report_diff")
bench_pairs = _load("bench_pairs")

HEADER = "suite,check,pass,lhs,rhs,margin,ms\n"
ROWS = [("sym", "a", "true", "1.0", "2.0", "1.0", "0.0"), ("bm", "b", "true", "3.0", "4.0", "1.0", "0.0")]


def _csv(rows) -> str:
    return HEADER + "".join(",".join(row) + "\n" for row in rows)


def _jsonl(rows) -> str:
    keys = HEADER.strip().split(",")
    lines = []
    for row in rows:
        rec = dict(zip(keys, row))
        rec["pass"] = rec["pass"] == "true"
        lines.append(json.dumps(rec))
    return "\n".join(lines) + "\n"


class TestReportDiff:
    def test_numeric_drift_is_listed_but_not_breaking(self):
        drifted = [ROWS[0][:3] + ("1.0000001",) + ROWS[0][4:], ROWS[1]]
        lines, breaking = report_diff.compare(_csv(ROWS), _csv(drifted), "csv")
        assert len(lines) == 1 and "lhs" in lines[0] and "rel" in lines[0]
        assert not breaking

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_verdict_flip_is_breaking(self, fmt):
        emit = _csv if fmt == "csv" else _jsonl
        flipped = [ROWS[0][:2] + ("false",) + ROWS[0][3:], ROWS[1]]
        lines, breaking = report_diff.compare(emit(ROWS), emit(flipped), fmt)
        assert lines == ["  sym a pass: true -> false"]
        assert breaking

    def test_missing_row_is_breaking(self):
        lines, breaking = report_diff.compare(_csv(ROWS), _csv(ROWS[:1]), "csv")
        assert lines == ["  only in base: bm b"]
        assert breaking

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_repeated_check_is_matched_by_occurrence(self, fmt):
        # Two rows share suite and check; the first flips while the second
        # drifts, and the flip must not be hidden behind the drift.
        emit = _csv if fmt == "csv" else _jsonl
        twice = [ROWS[0], ROWS[0], ROWS[1]]
        changed = [ROWS[0][:2] + ("false",) + ROWS[0][3:], ROWS[0][:3] + ("1.0000000000000002",) + ROWS[0][4:], ROWS[1]]
        lines, breaking = report_diff.compare(emit(twice), emit(changed), fmt)
        assert lines == [
            "  sym a pass: true -> false",
            "  sym a #2 lhs: 1.0 -> 1.0000000000000002 (abs 2.220e-16 rel 2.220e-16)",
        ]
        assert breaking
        assert report_diff.compare(emit(twice), emit(twice[1:]), fmt) == (["  only in base: sym a #2"], True)

    def test_same_reports_give_no_lines(self):
        assert report_diff.compare(_csv(ROWS), _csv(ROWS), "csv") == ([], False)

    def test_stderr_lines_are_compared(self):
        same = "hessianlab: NoSolutionError: no fixed point\n"
        assert report_diff.compare_stderr(same, same) == []
        other = "hessianlab: InvalidArgumentError: grid nodes must be positive\n"
        assert len(report_diff.compare_stderr(same, other)) == 1
        assert len(report_diff.compare_stderr("", same)) == 1

    def test_extreme_radii_are_in_the_run_list(self):
        configs = report_diff.run_list(["sym"], [512])
        assert ("--suite", "sym", "--grid-n", "512") in configs
        for radius in ("1e-6", "1e6", "1e-60", "1e7"):
            assert ("--suite", "all", "--grid-n", "2048", "--radius", radius) in configs
        # the ends of the accepted range
        assert set(RADIUS_RANGE) <= {float(config[-1]) for config in report_diff.RADIUS_CONFIGS}

    def test_run_list_is_pinned(self):
        all_2048 = ("--suite", "all", "--grid-n", "2048")
        bm = ("--suite", "bm", "--n")
        assert report_diff.run_list(["sym", "bm"], [512]) == [
            ("--suite", "sym", "--grid-n", "512"),
            ("--suite", "bm", "--grid-n", "512"),
            *(all_2048 + ("--radius", radius) for radius in ("1e-6", "1e6", "1e-60", "1e7")),
            *(all_2048 + ("--n", n, "--k", k) for n, k in (("3", "2"), ("5", "1"), ("6", "3"), ("8", "4"))),
            bm + ("2", "--k", "1", "--lambda", "20"),
            bm + ("2", "--k", "1", "--beta", "3"),
            bm + ("3", "--k", "1", "--p", "5"),
            bm + ("3", "--k", "1", "--p", "0.5"),
            ("--suite", "all", "--n", "171", "--k", "1"),
            ("--suite", "all", "--grid-n", "100000000000"),
            bm + ("2", "--k", "1", "--beta", "2.0000000000005"),
            bm + ("5", "--k", "1", "--p", "1.6666666666675"),
            ("--suite", "abp", "--n", "18", "--k", "9"),
            ("--suite", "bm", "--family", "mollified-log"),
            bm + ("3", "--k", "1", "--family", "newtonian"),
            bm + ("5", "--k", "1", "--family", "newtonian"),
            ("--suite", "bm", "--family", "constant"),
            ("--suite", "degiorgi", "--family", "constant"),
            ("--suite", "all", "--tol", "1e-7"),
            ("--help",),
            ("--suite", "bm", "--family", "nope"),
        ]

    def test_checkpoint_compare(self):
        text = "2 1 1.0 0.0\n1e-08 -3.5 2.0\n1.0 0.0 2.0\n"
        assert report_diff.compare_checkpoint(text, text) == []
        moved = text.replace("1e-08", "1.0000000000000002e-08")
        assert report_diff.compare_checkpoint(text, moved) == ["  line 2: '1e-08 -3.5 2.0' -> '1.0000000000000002e-08 -3.5 2.0'"]
        assert report_diff.compare_checkpoint(text, text.rstrip("\n")) == ["  the bytes differ but every line matches"]
        assert len(report_diff.compare_checkpoint(text, text + "1.5 0.0 2.0\n")) == 1

    def test_checkpoint_program_writes_every_float_itself(self):
        code, out, err = report_diff.run_checkpoint(ROOT, (2, 1, 1.9, 256))
        assert code == 0 and err == ""
        head, *rows = out.splitlines()
        assert head.split()[:2] == ["2", "1"] and float(head.split()[2]) == 1.0
        assert len(rows) == 256 and all(len(row.split()) == 3 for row in rows)
        nodes = [float(row.split()[0]) for row in rows]
        assert nodes == quad.radial_grid(1.0, 256).tolist()
        assert "profile_io" not in report_diff.CHECKPOINT_PROGRAM

    def test_checkpoints_cover_both_dimensions_and_grids(self):
        assert {(n, k) for n, k, _, _ in report_diff.CHECKPOINTS} == {(2, 1), (4, 2)}
        assert {grid for *_, grid in report_diff.CHECKPOINTS} == {2048, 8192}


class TestBenchVerdict:
    BOUND = 0.25
    BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]

    def test_gain(self):
        head = [0.8 * x for x in self.BASE]
        assert bench_pairs.verdict(self.BASE, head, self.BOUND) == "gain"

    def test_worse(self):
        head = [1.5 * x for x in self.BASE]
        assert bench_pairs.verdict(self.BASE, head, self.BOUND) == "worse"

    def test_unresolved(self):
        # quartile spread of 0.8 against a slack of 0.25 of the median
        base = [0.5, 1.5, 0.6, 1.4, 1.0, 0.5, 1.5, 0.6, 1.4, 1.0]
        head = base[1:] + base[:1]
        assert bench_pairs.verdict(base, head, self.BOUND) == "unresolved"

    def test_same(self):
        head = self.BASE[::-1]
        assert bench_pairs.verdict(self.BASE, head, self.BOUND) == "same"


# perfbench/run.py of a fake checkout: it reports `failed` of 10 ops
# failed and pass_s = seed, or exits 1 on seed `crash`; its stamp line
# gives op kind `a` the median `a` * seed and kind `b` 1 / seed
_FAKE_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == {crash}:
    sys.exit("perfbench: op raised")
print("perfbench: stamp " + json.dumps({{"seed": seed, "op_s.median": {{"a": {a} * seed, "b": 1 / seed}}}}))
print("perfbench: pass_s = " + repr(float(seed)) + " s")
print(json.dumps({{"correct": {failed} == 0, "attempted": 10, "failed": {failed},
                  "metrics": {{"pass_s": {{"value": float(seed)}}}}}}))
"""


def _fake_checkout(root: Path, failed: int, crash: int = -1, a: float = 1.0) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(_FAKE_RUN.format(failed=failed, crash=crash, a=a), encoding="utf-8")
    return root


class TestBenchPairsRuns:
    def _pairs(self, tmp_path, base: Path, head: Path) -> dict:
        out = tmp_path / "bench.json"
        argv = ["--base", str(base), "--head", str(head), "--workload", "w",
                "--seeds", "1-3", "--seconds", "1", "--out", str(out)]
        assert bench_pairs.main(argv) == 0
        return json.loads(out.read_text(encoding="utf-8"))

    def test_failed_run_is_listed_and_its_pair_left_out(self, tmp_path):
        base = _fake_checkout(tmp_path / "base", failed=0)
        head = _fake_checkout(tmp_path / "head", failed=0, crash=2)
        doc = self._pairs(tmp_path, base, head)
        assert doc["failed_runs"] == [
            {"side": "head", "seed": 2, "exit_code": 1, "stderr": "perfbench: op raised"},
        ]
        assert [run["seed"] for run in doc["base"]] == [run["seed"] for run in doc["head"]] == [1, 3]
        assert doc["summary"]["pass_s"]["pairs"] == 2
        assert doc["timed_out"] == []

    def test_runs_keep_their_op_counts(self, tmp_path):
        doc = self._pairs(tmp_path, _fake_checkout(tmp_path / "base", 0), _fake_checkout(tmp_path / "head", 2))
        assert {(r["correct"], r["failed"], r["attempted"]) for r in doc["base"]} == {(True, 0, 10)}
        assert {(r["correct"], r["failed"], r["attempted"]) for r in doc["head"]} == {(False, 2, 10)}
        assert set(doc["summary"]) == {"pass_s"}

    def test_head_failed_share_above_base_is_flagged(self, tmp_path):
        doc = self._pairs(tmp_path, _fake_checkout(tmp_path / "base", 1), _fake_checkout(tmp_path / "head", 2))
        assert doc["failed_ops"] == {"base_share": 0.1, "head_share": 0.2, "head_above_base": True}
        doc = self._pairs(tmp_path, _fake_checkout(tmp_path / "b2", 2), _fake_checkout(tmp_path / "h2", 1))
        assert doc["failed_ops"]["head_above_base"] is False

    def test_op_kind_medians_are_kept_and_summarized(self, tmp_path):
        doc = self._pairs(tmp_path, _fake_checkout(tmp_path / "base", 0, crash=2),
                          _fake_checkout(tmp_path / "head", 0, a=0.01))
        # the crashed pair is left out here too
        assert [run["op_s.median"] for run in doc["base"]] == [{"a": 1.0, "b": 1.0}, {"a": 3.0, "b": 1 / 3}]
        assert [run["op_s.median"] for run in doc["head"]] == [{"a": 0.01, "b": 1.0}, {"a": 0.03, "b": 1 / 3}]
        assert doc["kinds"] == {
            "a": {"base_median": 2.0, "head_median": 0.02, "head_lower_pairs": 2, "pairs": 2},
            "b": {"base_median": 2 / 3, "head_median": 2 / 3, "head_lower_pairs": 0, "pairs": 2},
        }
        assert set(doc["summary"]) == {"pass_s"}

    def test_machine_block_records_the_bytecode_setting(self, tmp_path):
        doc = self._pairs(tmp_path, _fake_checkout(tmp_path / "base", 0), _fake_checkout(tmp_path / "head", 0))
        assert doc["machine"]["dont_write_bytecode"] is sys.dont_write_bytecode


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / f"{name}.py"), *args],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )


class TestScriptRuns:
    def test_blowup_sweep_prints_the_three_verdicts(self):
        run = _run_script("blowup_sweep", "--grid-n", "512")
        assert run.returncode == 0, run.stderr
        verdicts = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("verdict:")]
        assert verdicts == ["concentration", "uniform-divergence", "bounded"]

    def test_gen_sym_fixtures_writes_fifty_matrices(self, tmp_path):
        # The entries depend on the platform's BLAS, so only the shape is checked.
        out = tmp_path / "sym.json"
        run = _run_script("gen_sym_fixtures", "--out", str(out))
        assert run.returncode == 0, run.stderr
        payload = json.loads(out.read_text(encoding="utf-8"))
        sizes = [len(m["entries"]) for m in payload["matrices"]]
        assert payload["count"] == len(sizes) == 50
        assert set(sizes) == {2, 3, 4, 5, 6}
        assert all(len(row) == n for m, n in zip(payload["matrices"], sizes) for row in m["entries"])
