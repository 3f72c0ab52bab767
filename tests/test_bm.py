"""Integrability-branch checks: sharp exponential bound, endpoint
quasinorm ratio, and the divergence probe."""

import math
import re

import numpy as np
import pytest

from hessianlab import (
    BMQuery,
    FamilySpec,
    HessianDim,
    InvalidArgumentError,
    UnsupportedDimensionError,
    bm_exp_check,
    bm_lp_check,
    make_family,
    sharpness_probe,
    unit_ball_volume,
)
from hessianlab import families

SUBCRITICAL = HessianDim(3, 1)


class TestExpBranch:
    def test_log_family_sits_on_the_bound(self, intermediate_dim):
        # At the exponent ceiling the log family attains the sharp
        # constant, so every member ratio is 1 regardless of amplitude.
        alpha0 = intermediate_dim.moser_constant
        q = BMQuery(intermediate_dim, "exp", FamilySpec("log"), lam=alpha0 / 2.0)
        records = bm_exp_check(q)
        assert len(records) == q.amplitudes
        for rec in records:
            assert rec.passed
            assert rec.rhs == 1.0
            assert rec.lhs == pytest.approx(1.0, abs=1e-9)
        spread = max(r.lhs for r in records) - min(r.lhs for r in records)
        assert spread <= 1e-12

    def test_check_id_format(self):
        q = BMQuery(HessianDim(2, 1), "exp", FamilySpec("log"), lam=math.pi)
        rec = bm_exp_check(q)[0]
        assert rec.check == "exp-bound[log,n=2,beta=2,lam=3.14159,m=00]"
        assert rec.anchor == "exp-moment-sharp-bound"
        assert rec.inputs["member"] == 0

    def test_quadratic_family_stays_below(self, intermediate_dim):
        # The ratio normalizes by the k-th root of the mass, so the
        # amplitude cancels; the quadratic shape sits strictly under
        # the log extremal.
        q = BMQuery(intermediate_dim, "exp", FamilySpec("quadratic"),
                    lam=intermediate_dim.moser_constant / 2.0)
        records = bm_exp_check(q)
        ratios = [r.lhs for r in records]
        assert all(r.passed for r in records)
        assert max(ratios) < 1.0
        assert max(ratios) - min(ratios) <= 1e-9

    def test_mollified_sweep_shape_and_bound(self):
        q = BMQuery(
            HessianDim(2, 1), "exp", FamilySpec("mollified-log", 1.0, 0.25),
            lam=math.pi, amplitudes=4,
        )
        records = bm_exp_check(q)
        assert len(records) == 4 * 3
        assert all(r.passed for r in records)
        assert all(r.lhs < 1.0 for r in records)

    def test_below_ceiling_claims_finiteness_only(self):
        dim = HessianDim(2, 1)
        q = BMQuery(dim, "exp", FamilySpec("log"), lam=math.pi, beta=1.2)
        records = bm_exp_check(q)
        for rec in records:
            assert rec.passed
            assert rec.rhs == math.inf
            assert math.isfinite(rec.lhs)

    def test_lam_at_sharp_coefficient_is_rejected(self):
        dim = HessianDim(2, 1)
        with pytest.raises(InvalidArgumentError, match="sharpness_probe"):
            bm_exp_check(BMQuery(dim, "exp", FamilySpec("log"), lam=dim.moser_constant))

    def test_power_kind_cannot_enter_intermediate_dims(self):
        q = BMQuery(HessianDim(2, 1), "exp", FamilySpec("power"), lam=1.0)
        with pytest.raises(UnsupportedDimensionError):
            bm_exp_check(q)

    def test_wrong_branch_dispatch(self):
        q = BMQuery(HessianDim(2, 1), "exp", FamilySpec("log"), lam=1.0)
        with pytest.raises(InvalidArgumentError, match="bm_exp_check"):
            bm_lp_check(q)


class TestLpBranch:
    def test_endpoint_ratio_is_frozen_constant(self):
        # Oracle: the (3, 1) fundamental profile -c(1/r - 1/R) has
        # Hessian mass 4 pi c and weak-L^3 quasinorm w3^(1/3) c, so
        # the normalized ratio is w3^(1/3)/(4 pi) for every amplitude.
        expected = unit_ball_volume(3) ** (1.0 / 3.0) / (4.0 * math.pi)
        q = BMQuery(SUBCRITICAL, "lp", FamilySpec("newtonian"), p=3.0)
        records = bm_lp_check(q)
        assert len(records) == q.amplitudes
        for rec in records:
            assert rec.passed
            assert "weak" in rec.check
            assert rec.lhs == pytest.approx(expected, rel=1e-6)

    def test_strong_norms_below_endpoint(self):
        for p in (1.0, 2.0, 2.9):
            q = BMQuery(SUBCRITICAL, "lp", FamilySpec("newtonian"), p=p)
            records = bm_lp_check(q)
            assert all(r.passed and math.isfinite(r.lhs) for r in records)
            assert all("strong" in r.check for r in records)

    def test_ratio_is_amplitude_invariant(self):
        q = BMQuery(SUBCRITICAL, "lp", FamilySpec("power"), p=2.0)
        ratios = [r.lhs for r in bm_lp_check(q)]
        assert max(ratios) - min(ratios) <= 1e-9 * max(ratios)

    def test_exponent_past_endpoint_is_rejected(self):
        q = BMQuery(SUBCRITICAL, "lp", FamilySpec("newtonian"), p=3.5)
        with pytest.raises(InvalidArgumentError, match="endpoint"):
            bm_lp_check(q)

    def test_wrong_branch_dispatch(self):
        q = BMQuery(SUBCRITICAL, "lp", FamilySpec("newtonian"), p=2.0)
        with pytest.raises(InvalidArgumentError, match="bm_lp_check"):
            bm_exp_check(q)


class TestSharpnessProbe:
    def test_dyadic_ladder_and_divergence(self, intermediate_dim):
        rec = sharpness_probe(intermediate_dim)
        assert rec.passed
        assert rec.lhs <= 1e-6
        assert len(rec.details["rungs"]) == 10
        assert rec.details["divergence_boundary"] == pytest.approx(
            intermediate_dim.moser_constant, rel=1e-15
        )
        assert rec.details["diverges_at_boundary"] is True
        assert rec.details["local_exponent_at_boundary"] == intermediate_dim.n

    def test_rung_values_match_closed_form(self):
        # Each rung lam = a0 (1 - 2^-j) makes the bound |B_R| 2^j.
        rec = sharpness_probe(HessianDim(2, 1))
        volume = math.pi
        for rung in rec.details["rungs"]:
            assert rung["target"] == pytest.approx(volume * 2.0 ** rung["j"], rel=1e-15)
            assert rung["value"] == pytest.approx(rung["target"], rel=1e-6)

    def test_below_ceiling_stays_finite_at_boundary(self):
        rec = sharpness_probe(HessianDim(2, 1), beta=1.2)
        assert rec.passed
        assert math.isfinite(rec.lhs)
        assert rec.details["finite_at_sharp_coefficient"] is True

    def test_validation(self):
        with pytest.raises(UnsupportedDimensionError):
            sharpness_probe(SUBCRITICAL)


class TestQueryValidation:
    def test_branch_and_regime_mismatches(self):
        with pytest.raises(InvalidArgumentError, match="branch"):
            BMQuery(HessianDim(2, 1), "weird", FamilySpec("log"), lam=1.0)
        with pytest.raises(UnsupportedDimensionError):
            BMQuery(SUBCRITICAL, "exp", FamilySpec("log"), lam=1.0)
        with pytest.raises(UnsupportedDimensionError):
            BMQuery(HessianDim(2, 1), "lp", FamilySpec("quadratic"), p=2.0)

    def test_missing_or_bad_parameters(self):
        with pytest.raises(InvalidArgumentError, match="p >= 1"):
            BMQuery(SUBCRITICAL, "lp", FamilySpec("newtonian"))
        with pytest.raises(InvalidArgumentError, match="lam > 0"):
            BMQuery(HessianDim(2, 1), "exp", FamilySpec("log"))
        with pytest.raises(InvalidArgumentError, match="beta"):
            BMQuery(HessianDim(2, 1), "exp", FamilySpec("log"), lam=1.0, beta=5.0)
        with pytest.raises(InvalidArgumentError, match="radius"):
            BMQuery(HessianDim(2, 1), "exp", FamilySpec("log"), lam=1.0, R=-1.0)
        with pytest.raises(InvalidArgumentError, match="sweep"):
            BMQuery(HessianDim(2, 1), "exp", FamilySpec("log"), lam=1.0, amplitudes=0)

    @pytest.mark.parametrize(
        "amplitudes", [2.5, math.nan, "3", 0, -1, True],
        ids=["fraction", "nan", "string", "zero", "negative", "bool"],
    )
    def test_amplitudes_follow_the_family_count_rule(self, amplitudes):
        # refused when the query is made, not inside the sweep
        message = "^" + re.escape(f"amplitude sweep size must be a positive integer, got {amplitudes!r}") + "$"
        with pytest.raises(InvalidArgumentError, match=message):
            BMQuery(HessianDim(2, 1), "exp", FamilySpec("log"), lam=1.0, amplitudes=amplitudes)
        with pytest.raises(InvalidArgumentError, match="^family count must be a positive integer"):
            make_family(FamilySpec("log"), HessianDim(2, 1), count=amplitudes)

    @pytest.mark.parametrize("branch, kwargs, message", [
        ("exp", {"lam": "1"}, "lam > 0"),
        ("exp", {"lam": True}, "lam > 0"),
        ("exp", {"R": "1"}, "radius"),
        ("exp", {"beta": "2"}, "beta"),
        ("exp", {"grid_n": 2048.0}, "grid size"),
        ("exp", {"grid_n": True}, "grid size"),
        ("lp", {"p": "2"}, "p >= 1"),
    ], ids=["lam-string", "lam-bool", "R-string", "beta-string", "grid-float", "grid-bool", "p-string"])
    def test_non_real_scalars_are_refused_at_construction(self, branch, kwargs, message):
        # each once raised a bare TypeError, or failed only inside the sweep
        dim, family = (HessianDim(2, 1), FamilySpec("log")) if branch == "exp" else (SUBCRITICAL, FamilySpec("newtonian"))
        base = {"lam": 1.0} if branch == "exp" else {"p": 2.0}
        with pytest.raises(InvalidArgumentError, match=message):
            BMQuery(dim, branch, family, **{**base, **kwargs})

    @pytest.mark.parametrize("kwargs, message", [
        ({"kind": "log", "amplitude": "3"}, "amplitude"),
        ({"kind": "log", "amplitude": False}, "amplitude"),
        ({"kind": "mollified-log", "mollification": "0.1"}, "mollification"),
    ], ids=["amplitude-string", "amplitude-bool", "mollification-string"])
    def test_family_spec_refuses_non_real_scalars(self, kwargs, message):
        with pytest.raises(InvalidArgumentError, match=message):
            FamilySpec(**kwargs)

    def test_beta_rule_is_the_moment_rule(self):
        # a query accepts exactly the betas exp_integral accepts
        dim = HessianDim(2, 1)
        with pytest.raises(InvalidArgumentError, match=r"beta must lie in \[1, 2.0\]"):
            BMQuery(dim, "exp", FamilySpec("log"), lam=1.0, beta=2.0 + 1.5e-12)
        q = BMQuery(dim, "exp", FamilySpec("log"), lam=1.0, beta=2.0 + 1e-12, amplitudes=1, grid_n=256)
        assert len(bm_exp_check(q)) == 1


class TestFamilyStream:
    def test_count_is_checked_at_the_call(self, monkeypatch):
        built = []
        monkeypatch.setattr(families, "make_profile", lambda *args: built.append(args))
        with pytest.raises(InvalidArgumentError, match="^family count must be a positive integer, got 0$"):
            make_family(FamilySpec("log"), HessianDim(2, 1), count=0)
        assert built == []

    def test_members_are_built_as_the_consumer_advances(self, monkeypatch):
        built = []
        monkeypatch.setattr(families, "make_profile", lambda spec, *args: built.append(spec) or spec)
        members = make_family(FamilySpec("mollified-log", 1.0, 0.5), HessianDim(2, 1), count=2)
        assert built == []
        assert next(members) == FamilySpec("mollified-log", 0.5, 0.5)
        assert len(built) == 1
        assert list(members) == built[1:] == [
            FamilySpec("mollified-log", 0.5, 0.125), FamilySpec("mollified-log", 0.5, 0.03125),
            FamilySpec("mollified-log", 1.0, 0.5), FamilySpec("mollified-log", 1.0, 0.125),
            FamilySpec("mollified-log", 1.0, 0.03125),
        ]
