"""Command line contract, config merging, report rendering, and the
profile interchange format."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hessianlab
from hessianlab import quadrature as quad
from hessianlab import (
    CheckRecord,
    ConfigError,
    HessianDim,
    InvalidArgumentError,
    LiouvilleProblem,
    ProfileFormatError,
    ReportRow,
    config_from_sources,
    emit_report,
    load_profile,
    make_profile,
    profile_from_slope,
    row_from_record,
    rows_status,
    run_suite,
    save_profile,
    solve_liouville,
)
from hessianlab.cli import build_parser, config_from_args, main
from hessianlab.families import FamilySpec
from hessianlab.profile_io import FORMAT
from hessianlab.radial import s_k_radial
from hessianlab.report import CSV_HEADER
from hessianlab.suites import CONFIG_KEYS, OPTIONS, RADIUS_RANGE, ExperimentConfig, load_config_file


def run_python(*args):
    """A fresh interpreter that imports this package's source tree."""
    src = str(Path(hessianlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_passing_suite_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "--suite", "capacity", "--grid-n", "512")
        assert code == 0
        assert err == ""
        assert out.startswith(",".join(CSV_HEADER))

    def test_failing_row_exits_one(self, capsys):
        # The constant decay fixture admits no certificate, which is
        # exactly what its row asserts it should.
        code, out, err = run_cli(capsys, "--suite", "degiorgi", "--family", "constant")
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(out)))
        failing = [r for r in rows if r["pass"] == "false"]
        assert [r["check"] for r in failing] == ["degiorgi-fit[constant]"]
        assert failing[0]["lhs"] == "inf"

    def test_bad_dimension_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "--suite", "solve", "--n", "3", "--k", "5")
        assert code == 2
        assert out == ""
        assert err.startswith("hessianlab: ")
        assert "k" in err and "5" in err

    def test_unknown_suite_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--suite", "nope"])
        assert exc.value.code == 2

    def test_unwritable_out_path_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "--suite", "capacity", "--grid-n", "512",
            "--out", "/nonexistent-dir/report.csv",
        )
        assert code == 2
        assert "cannot write report" in err

    def test_off_regime_dim_exits_two_for_named_suite(self, capsys):
        # A subcritical pair cannot run the intermediate-only suite.
        code, out, err = run_cli(capsys, "--suite", "abp", "--n", "3", "--k", "1")
        assert code == 2
        assert "regime" in err

    @pytest.mark.parametrize("suite, n, k", [("bm", "4", "1"), ("all", "5", "1")])
    def test_default_lp_ladder_stops_below_the_endpoint(self, capsys, suite, n, k):
        # The endpoints kn/(n-2k) are 2 and 5/3: the default ladder keeps
        # only its strong exponents below them, then the endpoint itself.
        code, out, err = run_cli(capsys, "--suite", suite, "--n", n, "--k", k)
        assert (code, err) == (0, "")
        checks = [r["check"] for r in csv.DictReader(io.StringIO(out)) if r["suite"] == "bm"]
        assert {c.split(",p=")[1].split(",")[0] for c in checks} == {"1", f"{int(n) / (int(n) - 2):g}"}


# Out-of-range parameters and the one stderr line each prints.
_BAD_PARAMETERS = [
    (("--suite", "bm", "--n", "2", "--k", "1", "--lambda", "20"),
     "lambda must lie in (0, 12.5664) for (n, k) = (2, 1)"),
    (("--suite", "bm", "--n", "2", "--k", "1", "--beta", "3"), "beta must lie in [1, 2] for (n, k) = (2, 1)"),
    (("--suite", "bm", "--n", "3", "--k", "1", "--p", "5"), "p must lie in [1, 3] for (n, k) = (3, 1)"),
    (("--suite", "bm", "--n", "3", "--k", "1", "--p", "0.5"), "p must lie in [1, 3] for (n, k) = (3, 1)"),
]


class TestParameterRanges:
    @pytest.mark.parametrize("argv, message", _BAD_PARAMETERS, ids=["lambda", "beta", "p-above", "p-below"])
    def test_out_of_range_exits_two_with_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"hessianlab: {message}\n")

    def test_all_builds_every_catalog_before_running_a_check(self, capsys):
        # At grid 16 a solve check raises NotAdmissibleError (exit 3), but
        # the bm builder's lambda error comes first because run_suite
        # builds every catalog before it runs any job.
        argv = ("--suite", "all", "--grid-n", "16", "--lambda", "20")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"hessianlab: {_BAD_PARAMETERS[0][1]}\n")

    def test_module_run_prints_the_same_line(self):
        argv, message = _BAD_PARAMETERS[1]
        proc = run_python("-m", "hessianlab.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"hessianlab: {message}\n")


class TestConfigMerging:
    def test_defaults(self):
        cfg = config_from_sources()
        assert cfg.suite == "all"
        assert cfg.fmt == "csv"
        assert cfg.radius == 1.0
        assert cfg.dim is None

    def test_flags_override_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suite": "capacity", "grid_n": 256, "format": "jsonl"}))
        code, out, err = run_cli(
            capsys, "--config", str(path), "--grid-n", "512", "--format", "csv"
        )
        assert code == 0
        assert out.startswith(",".join(CSV_HEADER))

    def test_file_values_apply(self):
        cfg = config_from_sources({"suite": "bm", "lambda": 3.0}, {"n": 2, "k": 1})
        assert cfg.suite == "bm"
        assert cfg.lam == 3.0
        assert cfg.dim == HessianDim(2, 1)

    def test_unknown_key_names_its_origin(self):
        with pytest.raises(ConfigError, match="config file key 'grids'"):
            config_from_sources({"grids": 9})
        with pytest.raises(ConfigError, match="flags key 'shape'"):
            config_from_sources(None, {"shape": "round"})

    def test_type_coercion_errors(self):
        with pytest.raises(ConfigError, match="grid_n"):
            config_from_sources({"grid_n": 2.5})
        with pytest.raises(ConfigError, match="radius"):
            config_from_sources({"radius": "wide"})

    def test_validation_gates(self):
        with pytest.raises(ConfigError, match="both"):
            ExperimentConfig(n=3)
        with pytest.raises(ConfigError, match="suite"):
            ExperimentConfig(suite="mystery")
        with pytest.raises(ConfigError, match="family"):
            ExperimentConfig(family="cubic")
        with pytest.raises(ConfigError, match="grid-n"):
            ExperimentConfig(grid_n=8)
        lo, hi = RADIUS_RANGE
        for radius in (0.0, -1.0, math.inf, math.nan, math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)):
            with pytest.raises(ConfigError, match=r"radius must lie in \[1e-60, 1e\+07\]"):
                ExperimentConfig(radius=radius)
        assert ExperimentConfig(radius=lo).radius == lo
        assert ExperimentConfig(radius=hi).radius == hi

    def test_tol_reaches_exactly_the_grid_accuracy_rows(self):
        # A tolerance no grid meets moves the bound of exactly the rows
        # that read --tol, and nothing else of any row.
        rows, status = run_suite(config_from_sources(None, {"suite": "all"}))
        tight, tight_status = run_suite(config_from_sources(None, {"suite": "all", "tol": 1e-30}))
        assert (status, tight_status) == (0, 1)
        assert [(r.suite, r.check, r.anchor, r.inputs, r.lhs) for r in rows] == [
            (r.suite, r.check, r.anchor, r.inputs, r.lhs) for r in tight
        ]
        moved = Counter(
            (a.suite, a.check.split("[")[0]) for a, b in zip(rows, tight) if (a.rhs, a.margin) != (b.rhs, b.margin)
        )
        assert moved == {
            ("sym", "sym-two-routes"): 50,
            ("solve", "roundtrip-quadratic"): 3, ("solve", "fundamental-log"): 2,
            ("solve", "fundamental-mass-constancy"): 2, ("solve", "newtonian-mass"): 1,
            ("capacity", "extremal-mass"): 3, ("capacity", "levelset-cap"): 6,
        }
        assert sum(a.passed and not b.passed for a, b in zip(rows, tight)) == 60

    def test_malformed_config_file_is_line_anchored(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\n  'suite': 'capacity'\n}\n")
        code, out, err = run_cli(capsys, "--config", str(path))
        assert code == 2
        assert f"{path}:2: invalid JSON:" in err

    def test_non_object_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]\n")
        code, out, err = run_cli(capsys, "--config", str(path))
        assert code == 2
        assert "JSON object" in err


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ("--suite", "capacity", "--grid-n", "512", "--format", "jsonl")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_rows_sorted_by_suite_then_check(self):
        rows, status = run_suite(ExperimentConfig(suite="capacity", grid_n=512))
        assert status == 0
        keys = [(row.suite, row.check) for row in rows]
        assert keys == sorted(keys)


class TestReportRendering:
    def sample_rows(self):
        rec = CheckRecord(
            check="demo[a]", anchor="demo-anchor", inputs={"n": 2, "x": 0.5},
            lhs=1.0, rhs=2.0, margin=1.0, passed=True,
        )
        odd = CheckRecord(
            check="demo[b]", anchor="demo-anchor", inputs={"n": 2},
            lhs=math.inf, rhs=math.nan, margin=-math.inf, passed=False,
        )
        return [row_from_record("demo", rec), row_from_record("demo", odd)]

    def test_csv_round_trip(self):
        text = emit_report(self.sample_rows(), fmt="csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert list(rows[0]) == CSV_HEADER
        assert rows[0]["pass"] == "true"
        assert float(rows[0]["lhs"]) == 1.0
        assert rows[1]["lhs"] == "inf"
        assert rows[1]["rhs"] == "nan"
        assert rows[1]["margin"] == "-inf"

    def test_jsonl_numbers_are_strings(self):
        text = emit_report(self.sample_rows(), fmt="jsonl")
        lines = [json.loads(line) for line in text.strip().split("\n")]
        assert lines[0]["pass"] is True
        assert lines[0]["lhs"] == format(1.0, ".17e")
        assert lines[1]["lhs"] == "inf"
        assert set(lines[0]) == set(CSV_HEADER)

    def test_writes_to_file(self, tmp_path):
        path = tmp_path / "report.csv"
        text = emit_report(self.sample_rows(), out_path=str(path))
        assert path.read_text() == text

    def test_empty_report_rejected(self):
        with pytest.raises(InvalidArgumentError, match="empty"):
            emit_report([], fmt="csv")
        with pytest.raises(InvalidArgumentError, match="format"):
            emit_report(self.sample_rows(), fmt="xml")

    def test_status_helper(self):
        rows = self.sample_rows()
        assert rows_status(rows) == 1
        assert rows_status(rows[:1]) == 0

    def test_digest_is_stable_under_key_order(self):
        a = row_from_record("s", CheckRecord(
            check="c", anchor="a", inputs={"x": 1, "y": 2},
            lhs=0.0, rhs=0.0, margin=0.0, passed=True,
        ))
        b = row_from_record("s", CheckRecord(
            check="c", anchor="a", inputs={"y": 2, "x": 1},
            lhs=0.0, rhs=0.0, margin=0.0, passed=True,
        ))
        assert a.inputs == b.inputs


class TestProfileFormat:
    def make(self):
        return make_profile(FamilySpec("quadratic", 1.5), HessianDim(4, 2), 1.0, 128)

    def test_bitwise_round_trip(self, tmp_path):
        u = self.make()
        path = tmp_path / "u.json"
        save_profile(u, path)
        back = load_profile(path)
        assert back.dim == u.dim
        assert back.R == u.R
        assert back.boundary == u.boundary
        assert np.array_equal(back.nodes, u.nodes)
        assert np.array_equal(back.values, u.values)
        assert np.array_equal(back.slope, u.slope)

    def test_version_gate(self, tmp_path):
        u = self.make()
        path = tmp_path / "u.json"
        save_profile(u, path)
        data = json.loads(path.read_text())
        assert data["format"] == FORMAT
        data["format"] = "hessian-profile/2"
        path.write_text(json.dumps(data))
        with pytest.raises(ProfileFormatError, match="unsupported format"):
            load_profile(path)

    def test_missing_and_extra_keys(self, tmp_path):
        u = self.make()
        path = tmp_path / "u.json"
        save_profile(u, path)
        data = json.loads(path.read_text())
        del data["slope"]
        path.write_text(json.dumps(data))
        with pytest.raises(ProfileFormatError, match="missing keys"):
            load_profile(path)
        save_profile(u, path)
        data = json.loads(path.read_text())
        data["comment"] = "hello"
        path.write_text(json.dumps(data))
        with pytest.raises(ProfileFormatError, match="unknown keys"):
            load_profile(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "u.json"
        path.write_text("{broken")
        with pytest.raises(ProfileFormatError, match="not valid JSON"):
            load_profile(path)

    def test_invalid_payload_values(self, tmp_path):
        u = self.make()
        path = tmp_path / "u.json"
        save_profile(u, path)
        data = json.loads(path.read_text())
        data["atom"] = -1.0
        path.write_text(json.dumps(data))
        with pytest.raises(ProfileFormatError, match="atom"):
            load_profile(path)
        save_profile(u, path)
        data = json.loads(path.read_text())
        data["values"] = data["values"][::-1]
        path.write_text(json.dumps(data))
        with pytest.raises(ProfileFormatError, match="invalid profile data"):
            load_profile(path)

    def test_nan_node_is_rejected(self, tmp_path):
        u = self.make()
        path = tmp_path / "u.json"
        save_profile(u, path)
        data = json.loads(path.read_text())
        data["nodes"][5] = math.nan
        path.write_text(json.dumps(data))
        with pytest.raises(ProfileFormatError, match="grid nodes"):
            load_profile(path)

    def test_boundary_off_the_values_is_not_written(self, tmp_path):
        u = self.make()
        off = dataclasses.replace(u, boundary=1.0)
        path = tmp_path / "u.json"
        with pytest.raises(InvalidArgumentError, match=r"is not values\[-1\]"):
            save_profile(off, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "key,value,match",
        [
            ("n", 4.9, "n must be a JSON integer"),
            ("n", True, "n must be a JSON integer"),
            ("k", "2", "k must be a JSON integer"),
            ("R", "1", "R must be a JSON number"),
            ("boundary", None, "boundary must be a JSON number"),
            ("atom", "0.0", "atom must be a JSON number"),
            ("boundary", math.nan, "boundary value must be finite"),
            ("boundary", 1.0, r"boundary 1.0 is not values\[-1\]"),
            ("atom", 5.0, "atom 5.0 is not the profile's atom"),
        ],
    )
    def test_malformed_field_is_rejected(self, tmp_path, key, value, match):
        u = self.make()
        path = tmp_path / "u.json"
        save_profile(u, path)
        data = json.loads(path.read_text())
        data[key] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ProfileFormatError, match=match):
            load_profile(path)


def _profile_text(u) -> str:
    """The text json.dumps(payload, indent=1) gives for u, plus a newline."""
    payload = {
        "format": FORMAT,
        "n": u.dim.n,
        "k": u.dim.k,
        "R": u.R,
        "boundary": u.boundary,
        "atom": s_k_radial(u).atom,
        "nodes": [float(x) for x in u.nodes],
        "values": [float(x) for x in u.values],
        "slope": [float(x) for x in u.slope],
    }
    return json.dumps(payload, indent=1) + "\n"


class TestProfileLayout:
    """save_profile writes the indent-1 JSON layout byte for byte."""

    # One bounded and one singular closed form per dimension pair.
    KINDS = {(2, 1): ("quadratic", "log"), (4, 2): ("quadratic", "log"), (3, 1): ("quadratic", "newtonian")}

    @pytest.mark.parametrize("grid_n", [16, 2048])
    @pytest.mark.parametrize("R", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("nk", [(2, 1), (4, 2), (3, 1)])
    def test_closed_forms(self, tmp_path, nk, R, grid_n):
        path = tmp_path / "u.json"
        for kind in self.KINDS[nk]:
            u = make_profile(FamilySpec(kind, 1.5), HessianDim(*nk), R, grid_n)
            save_profile(u, path)
            assert path.read_bytes() == _profile_text(u).encode("utf-8")

    def test_solved_liouville_profile(self, tmp_path):
        prob = LiouvilleProblem(HessianDim(2, 1), lambda r: np.full_like(r, 1.5), boundary=0.5, grid_n=2048)
        u = solve_liouville(prob)
        path = tmp_path / "u.json"
        save_profile(u, path)
        assert path.read_bytes() == _profile_text(u).encode("utf-8")
        back = load_profile(path)
        assert np.array_equal(back.values, u.values) and back.boundary == u.boundary


class TestNodeTextMemo:
    """save_profile formats each grid's node column once, in the grid's
    quadrature cache entry, and serves it only to nodes equal to it."""

    @staticmethod
    def profile(nodes, c=1.5):
        return profile_from_slope(HessianDim(2, 1), float(nodes[-1]), nodes, c * nodes, 0.0)

    def assert_saves_exactly(self, u, path):
        save_profile(u, path)
        assert path.read_bytes() == _profile_text(u).encode("utf-8")

    def test_two_saves_on_one_grid(self, tmp_path):
        nodes = quad.radial_grid(1.0, 2048)
        for c in (1.5, 2.5):
            self.assert_saves_exactly(self.profile(nodes, c), tmp_path / "u.json")

    def test_same_key_other_interior_node(self, tmp_path):
        nodes = quad.radial_grid(1.0, 256)
        self.assert_saves_exactly(self.profile(nodes), tmp_path / "u.json")
        moved = nodes.copy()
        moved[100] = 0.5 * (nodes[99] + nodes[101])
        assert (moved.size, moved[0], moved[-1]) == (nodes.size, nodes[0], nodes[-1])
        self.assert_saves_exactly(self.profile(moved), tmp_path / "u.json")

    def test_nodes_written_in_place_after_a_save(self, tmp_path):
        u = self.profile(quad.radial_grid(2.0, 256))
        self.assert_saves_exactly(u, tmp_path / "u.json")
        u.nodes[50] = 0.5 * (u.nodes[49] + u.nodes[51])
        self.assert_saves_exactly(u, tmp_path / "u.json")

    def test_more_grids_than_the_bound(self, tmp_path):
        grids = [quad.radial_grid(1.0 + i, 32 + i) for i in range(quad._CACHE_SIZE + 3)]
        for nodes in grids + grids[:2]:
            self.assert_saves_exactly(self.profile(nodes), tmp_path / "u.json")
            assert "text" in quad._known_grid(nodes).derived
            assert len(quad._grids) <= quad._CACHE_SIZE


class TestRecordInvariants:
    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(suite="solve", grid_n=512),
        ExperimentConfig(suite="all", grid_n=2048),
        ExperimentConfig(suite="degiorgi", family="constant"),
    ], ids=["solve-512", "all-2048", "degiorgi-constant"])
    def test_report_row_pass_margin_convention(self, cfg):
        # margin >= 0 and passed agree on every row, failing ones too.
        rows, _ = run_suite(cfg)
        for row in rows:
            assert row.passed == (row.margin >= 0), row.check

    @pytest.mark.parametrize("value", ["abc", "-1", "0", "4"])
    def test_threads_env_is_ignored(self, capsys, monkeypatch, value):
        # the checks run one after another; the old thread-count variable
        # is not read, so even a malformed value leaves the run unchanged
        argv = ("--suite", "solve", "--grid-n", "512")
        monkeypatch.delenv("HESSIAN_LAB_THREADS", raising=False)
        unset = run_cli(capsys, *argv)
        monkeypatch.setenv("HESSIAN_LAB_THREADS", value)
        assert run_cli(capsys, *argv) == unset


class TestProcess:
    def test_module_run_is_quiet_on_stderr(self):
        proc = run_python("-m", "hessianlab.cli", "--suite", "solve")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith(",".join(CSV_HEADER))

    def test_import_loads_no_thread_pool(self):
        # the suites run serially, so nothing imports a thread pool
        code = "import sys, hessianlab.cli; print('concurrent.futures' in sys.modules)"
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_loads_no_scipy(self):
        code = "import sys, hessianlab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestCheckErrors:
    # A check that raises a HessianLabError exits 3 with one stderr line;
    # exit 1 stays reserved for a failed row.
    @pytest.mark.parametrize("argv", [
        ("--suite", "abp", "--grid-n", "32"),
        ("--suite", "liouville", "--grid-n", "16"),
    ])
    def test_check_error_exits_three(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("hessianlab: ")

    def test_module_run_prints_no_traceback(self):
        proc = run_python("-m", "hessianlab.cli", "--suite", "liouville", "--grid-n", "16")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("hessianlab: ") and proc.stderr.count("\n") == 1


class TestRadiusRange:
    # Outside the range checks raise or overflow: at 1e300 the quadratic
    # closed form overflows, at 1e-100 the level-set capacity check
    # divides by zero.
    @pytest.mark.parametrize("radius", ["1e300", "1e-100"])
    def test_outside_exits_two_with_one_line(self, radius):
        proc = run_python("-m", "hessianlab.cli", "--suite", "all", "--grid-n", "2048", "--radius", radius)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"hessianlab: radius must lie in [1e-60, 1e+07], got {float(radius)!r}\n"

    @pytest.mark.parametrize("radius", RADIUS_RANGE)
    def test_endpoints_pass_quietly(self, radius):
        proc = run_python("-m", "hessianlab.cli", "--suite", "all", "--grid-n", "2048", "--radius", repr(radius))
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith(",".join(CSV_HEADER))


# One value per config key, in the types a JSON file carries.
_KEY_SAMPLES = {
    "suite": "bm", "n": 4, "k": 2, "radius": 2.5, "grid_n": 512, "lambda": 3.0, "beta": 1.2,
    "p": 1.5, "family": "log", "out": "report.csv", "format": "jsonl", "tol": 1e-7,
}


class TestOptionTable:
    def test_samples_cover_every_option(self):
        assert set(_KEY_SAMPLES) == {opt.key for opt in OPTIONS} == set(CONFIG_KEYS)

    @pytest.mark.parametrize("keys", [("suite",), ("n", "k"), ("radius",), ("grid_n",), ("lambda",),
                                      ("beta",), ("p",), ("family",), ("out",), ("format",), ("tol",),
                                      tuple(_KEY_SAMPLES)])
    def test_file_and_flag_give_the_same_config(self, tmp_path, keys):
        data = {key: _KEY_SAMPLES[key] for key in keys}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        from_file = config_from_sources(load_config_file(str(path)))
        argv = [arg for key in keys for arg in (f"--{key.replace('_', '-')}", str(data[key]))]
        from_flags = config_from_args(build_parser().parse_args(argv))
        assert from_file == from_flags
        assert from_file != ExperimentConfig()


class TestOneRowLayout:
    def test_csv_and_jsonl_cells_agree(self):
        rows, _ = run_suite(ExperimentConfig(suite="capacity", grid_n=512))
        rows += TestReportRendering().sample_rows()
        from_csv = list(csv.DictReader(io.StringIO(emit_report(rows, fmt="csv"))))
        from_jsonl = [json.loads(line) for line in emit_report(rows, fmt="jsonl").splitlines()]
        assert all(isinstance(line["pass"], bool) for line in from_jsonl)
        for line in from_jsonl:
            line["pass"] = "true" if line["pass"] else "false"
        assert from_csv == from_jsonl
        assert {line["ms"] for line in from_csv} == {format(0.0, ".17e")}


# The package's exports before each module's __all__ became the API.
_EARLIER_API = """
    BRANCHES CSV_HEADER FORMATS KINDS PROFILE_FORMAT SUITES SUPPORTED_DIMS WEIGHT_KINDS BMQuery
    BlowupReport CapacityConfig CheckRecord ConfigError DeGiorgiData DegenerateProfileError
    ExperimentConfig FamilySpec HarnackRecord HessianDim HessianLabError InvalidArgumentError
    InvalidMeasureError InvalidWeightError LiouvilleProblem NoSolutionError NotAdmissibleError
    OrliczBarrier OrliczWeight PreconditionError ProfileFormatError RadialMeasure RadialProfile
    ReportRow SolutionSequence UnsupportedDimensionError abp_bound_check abp_degiorgi_check
    barrier_epsilon bm_exp_check bm_lp_check bubble_local_mass bubble_problem bubble_profile
    bubble_residual_sup cap_concentric classify_alternative comparison_check config_from_sources
    degiorgi_fit_and_verify degiorgi_from_run degiorgi_threshold domain_volume elem_sym elem_sym_all
    emit_report exp_integral extremal_profile fixed_budget_variation_check gamma_k_membership
    harnack_ratio hessian_integral hessian_mass isocapacitary_margin level_set_radius
    levelset_cap_check load_config_file load_profile local_mass lp_norm maclaurin_means make_family
    make_profile mollified_dirac_family orlicz_h phi_norm principal_minor_sum profile_from_slope
    regular_point_classify row_from_record rows_status run_suite s_k_of_matrix s_k_radial save_profile
    sharpness_probe singular_comparison_check smallness_check solve_dirichlet solve_liouville
    solve_sequence unit_ball_volume verify_gk value_at volume_integral weak_lp_quasinorm
""".split()


class TestPackageApi:
    def test_all_is_the_union_of_the_module_lists(self):
        modules = [getattr(hessianlab, name) for name in (
            "abp", "brezis_merle", "capacity", "core", "errors", "families", "liouville",
            "profile_io", "radial", "report", "suites",
        )]
        expected = [name for module in modules for name in module.__all__]
        assert hessianlab.__all__ == expected + ["PROFILE_FORMAT", "__version__"]
        assert len(set(hessianlab.__all__)) == len(hessianlab.__all__)
        assert all(hasattr(hessianlab, name) for name in hessianlab.__all__)

    def test_earlier_exports_stay(self):
        assert len(_EARLIER_API) == 95
        assert set(_EARLIER_API) <= set(hessianlab.__all__)
