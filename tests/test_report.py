"""The claim constructors: each puts the tolerance inside the margin, a
failed side condition sets it to -inf, and pass is exactly margin >= 0."""

import math

import pytest

from hessianlab.report import lower_bound, near, upper_bound


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
