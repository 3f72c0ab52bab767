"""The suite catalog against the recorded verdict table.

perfbench/reference.json holds the (suite, check, anchor, inputs
digest, pass) row of every check that `all` reports at grid 2048.  A
check that is renamed, re-anchored, fed other inputs, dropped, added or
flipped shows up here.  The test only reads that file.
"""

from __future__ import annotations

import json
from pathlib import Path

from hessianlab.parallel import ENV_THREADS
from hessianlab.suites import config_from_sources, run_suite

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_all_at_default_grid_matches_reference(monkeypatch):
    monkeypatch.setenv(ENV_THREADS, "1")
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["2048/all"]
    rows, status = run_suite(config_from_sources(None, {"suite": "all", "grid_n": 2048}))
    got = [[row.suite, row.check, row.anchor, row.inputs, bool(row.passed)] for row in rows]
    assert len(expected) == 187
    assert got == expected
    assert status == 0
