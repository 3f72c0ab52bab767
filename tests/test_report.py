"""The claim constructors: each puts the tolerance inside the margin, a
failed side condition sets it to -inf, and pass is exactly margin >= 0.
The row digest is hashlib's sha256, taken from CPython's built-in module."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hessianlab
from hessianlab import report
from hessianlab.report import digest_inputs, lower_bound, near, upper_bound


def upper(value, bound, **kw):
    return upper_bound("c", "a", {}, value, bound, **kw)


def lower(value, bound, **kw):
    return lower_bound("c", "a", {}, value, bound, **kw)


def agree(value, target, tol):
    return near("c", "a", {}, value, target, tol)


CASES = [
    # (record, expected margin); values inside the slack pass, and a
    # failed side condition fails even with the value inside the bound
    (upper(0.5, 1.0), 0.5),
    (upper(1.0, 1.0), 0.0),
    (upper(1.5, 1.0), -0.5),
    (upper(1.05, 1.0, slack=0.1), (1.0 + 0.1) - 1.05),
    (upper(1.25, 1.0, slack=0.1), (1.0 + 0.1) - 1.25),
    (upper(0.5, 1.0, holds=False), -math.inf),
    (upper(3.0, math.inf, holds=True), math.inf),
    (upper(math.inf, math.inf, holds=False), -math.inf),
    (lower(1.5, 1.0), 0.5),
    (lower(0.95, 1.0, slack=0.1), 0.95 - (1.0 - 0.1)),
    (lower(0.75, 1.0, slack=0.1), 0.75 - (1.0 - 0.1)),
    (lower(1.5, 1.0, holds=False), -math.inf),
    (lower(-3.0, -math.inf, holds=True), math.inf),
    (agree(1.0 + 1e-7, 1.0, 1e-6), 1e-6 - abs(1e-7)),
    (agree(1.0 - 1e-5, 1.0, 1e-6), 1e-6 - abs(-1e-5)),
    (agree(2.0, 2.0, 0.0), 0.0),
]


@pytest.mark.parametrize("rec, margin", CASES)
def test_margin_and_pass_agree(rec, margin):
    assert rec.margin == pytest.approx(margin, rel=1e-12, abs=1e-15)
    assert rec.passed == (rec.margin >= 0)


def test_rhs_is_the_stated_bound():
    rec = upper(1.05, 1.0, slack=0.1)
    assert (rec.lhs, rec.rhs, rec.passed) == (1.05, 1.0, True)


def test_nan_value_fails():
    assert not upper(math.nan, 1.0).passed
    assert not lower(math.nan, 1.0).passed
    assert not agree(math.nan, 1.0, 1e-6).passed


# Nested check inputs: the leaves a check puts in its inputs dict, nan
# and both infinities included, under lists and string-keyed dicts.
_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_NESTED = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_INPUTS = st.dictionaries(st.text(max_size=8), _NESTED, max_size=5)


def _hashlib_digest(inputs):
    blob = json.dumps(report._canonical(inputs), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


@settings(max_examples=200, deadline=None)
@given(_INPUTS)
@example({"x": [math.nan, math.inf, -math.inf, -0.0, 1e-300], "flag": True, "name": "log"})
def test_digest_is_hashlib_sha256(inputs):
    assert digest_inputs(inputs) == _hashlib_digest(inputs)


def test_digest_falls_back_to_hashlib():
    # With the built-in modules made unimportable, the digest comes from
    # hashlib and is the same.  Python's json carries nan and inf.
    inputs = {"x": [math.nan, math.inf, -math.inf, 0.1], "flag": False, "name": "s", "n": {"k": 2}}
    code = (
        "import hashlib, json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from hessianlab import report\n"
        "assert report.sha256 is hashlib.sha256\n"
        "print(report.digest_inputs(json.loads(sys.argv[1])))\n"
    )
    src = str(Path(hessianlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(inputs)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == digest_inputs(inputs) == _hashlib_digest(inputs)
