"""Condenser capacity closed forms, the volume bounds, and comparison.

Oracles: hand-derived closed forms (the intermediate saturation
identity |B_rho| exp(n log(R/rho)) = |B_R| is exact), the extremal
profile's Hessian mass, and scaling laws.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessianlab import quadrature as quad
from hessianlab.capacity import (
    CapacityConfig,
    _crossings,
    cap_concentric,
    comparison_check,
    extremal_profile,
    isocapacitary_margin,
    levelset_cap_check,
)
from hessianlab.core import HessianDim
from hessianlab.errors import (
    InvalidArgumentError,
    PreconditionError,
    UnsupportedDimensionError,
)
from hessianlab.families import FamilySpec, make_profile
from hessianlab.radial import RadialMeasure, RadialProfile, hessian_mass, solve_dirichlet
from hessianlab.suites import config_from_sources, run_suite

D21 = HessianDim(2, 1)
D42 = HessianDim(4, 2)
D31 = HessianDim(3, 1)


class TestClosedForms:
    def test_frozen_values(self):
        # log form at rho = R/e: C(n,k) omega_n / 1^k
        assert cap_concentric(
            CapacityConfig(D21, math.exp(-1.0), 1.0)
        ) == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert cap_concentric(
            CapacityConfig(D42, math.exp(-1.0), 1.0)
        ) == pytest.approx(3.0 * math.pi**2, rel=1e-12)
        # subcritical (3,1): 4 pi / (1/rho - 1/R)
        assert cap_concentric(CapacityConfig(D31, 0.5, 1.0)) == pytest.approx(
            4.0 * math.pi, rel=1e-12
        )

    def test_scaling_laws(self):
        # intermediate capacity depends only on rho/R
        a = cap_concentric(CapacityConfig(D42, 0.25, 1.0))
        b = cap_concentric(CapacityConfig(D42, 0.5, 2.0))
        assert a == pytest.approx(b, rel=1e-12)
        # subcritical capacity is (n-2k)-homogeneous in the pair
        c = cap_concentric(CapacityConfig(D31, 0.25, 1.0))
        d = cap_concentric(CapacityConfig(D31, 0.5, 2.0))
        assert d == pytest.approx(2.0 * c, rel=1e-12)

    def test_monotone_in_inner_radius(self):
        caps = [cap_concentric(CapacityConfig(D21, rho, 1.0)) for rho in (0.1, 0.3, 0.5, 0.7)]
        assert all(x < y for x, y in zip(caps, caps[1:]))

    def test_config_validation(self):
        with pytest.raises(UnsupportedDimensionError):
            CapacityConfig(HessianDim(3, 2), 0.5, 1.0)
        with pytest.raises(InvalidArgumentError):
            CapacityConfig(D21, 1.0, 0.5)
        with pytest.raises(InvalidArgumentError):
            CapacityConfig(D21, 0.0, 1.0)


class TestExtremalProfile:
    @pytest.mark.parametrize("dim", [D21, D42, D31], ids=["n2k1", "n4k2", "n3k1"])
    def test_mass_equals_capacity(self, dim):
        cfg = CapacityConfig(dim, 0.3, 1.0)
        u = extremal_profile(cfg)
        assert hessian_mass(u) == pytest.approx(cap_concentric(cfg), rel=1e-6)

    def test_boundary_values(self):
        u = extremal_profile(CapacityConfig(D21, 0.3, 1.0))
        assert u.values[-1] == pytest.approx(0.0, abs=1e-14)
        inner = u.nodes <= 0.3
        assert np.max(np.abs(u.values[inner] + 1.0)) <= 1e-12


class TestSaturation:
    @pytest.mark.parametrize("dim", [D21, D42], ids=["n2k1", "n4k2"])
    @pytest.mark.parametrize("frac", [0.5, 0.1, 0.01])
    def test_exact_at_ceiling(self, dim, frac):
        rec = isocapacitary_margin(CapacityConfig(dim, frac, 1.0), dim.beta_max)
        assert rec.passed
        assert abs(rec.lhs - 1.0) <= 1e-8
        # independent identity: a0 Cap^(-beta/(k+1)) = n log(R/rho)
        cap = cap_concentric(CapacityConfig(dim, frac, 1.0))
        exponent = dim.moser_constant * cap ** (-dim.beta_max / (dim.k + 1.0))
        assert exponent == pytest.approx(dim.n * math.log(1.0 / frac), rel=1e-12)

    def test_below_ceiling_reports_ratio(self):
        cfg = CapacityConfig(D21, 0.5, 1.0)
        rec = isocapacitary_margin(cfg, 1.0)
        assert rec.passed
        cap = cap_concentric(cfg)
        expected = (
            math.pi
            * 0.25
            * math.exp(4.0 * math.pi * cap ** (-0.5))
            / math.pi
        )
        assert rec.lhs == pytest.approx(expected, rel=1e-12)

    def test_subcritical_volume_bound(self):
        # a finiteness claim: lhs is the volume-capacity ratio
        rec = isocapacitary_margin(CapacityConfig(D31, 0.3, 1.0), 2.0)
        assert rec.passed and np.isfinite(rec.lhs) and rec.rhs == math.inf

    def test_exponent_validation(self):
        with pytest.raises(InvalidArgumentError):
            isocapacitary_margin(CapacityConfig(D21, 0.5, 1.0), 2.5)
        with pytest.raises(InvalidArgumentError):
            isocapacitary_margin(CapacityConfig(D21, 0.5, 1.0), 0.5)
        # q ceiling at (3,1) is n(k+1)/(n-2k) = 6
        with pytest.raises(InvalidArgumentError):
            isocapacitary_margin(CapacityConfig(D31, 0.5, 1.0), 6.5)
        assert isocapacitary_margin(CapacityConfig(D31, 0.5, 1.0), 6.0).passed


class TestLevelsetBound:
    @pytest.mark.parametrize("dim", [D21, D42], ids=["n2k1", "n4k2"])
    def test_log_family_saturates(self, dim):
        u = make_profile(FamilySpec("log", amplitude=1.5), dim)
        rec = levelset_cap_check(u, [0.3, 0.8, 1.4, 2.2, 3.0])
        assert rec.passed
        ratios = np.array(rec.details["ratios"])
        assert np.max(np.abs(ratios - 1.0)) <= 1e-8

    def test_quadratic_strictly_below(self):
        u = make_profile(FamilySpec("quadratic"), D21)
        rec = levelset_cap_check(u, [0.1, 0.25, 0.4])
        assert rec.passed
        assert rec.lhs < 1.0
        # hand form 2t / (-log(1 - 2t)) decreases in t, so the worst
        # ratio over the levels sits at the smallest one
        t = 0.1
        expected = 2.0 * t / (-math.log(1.0 - 2.0 * t))
        assert rec.lhs == pytest.approx(expected, rel=1e-9)

    def test_newtonian_saturates(self):
        u = make_profile(FamilySpec("newtonian"), D31)
        rec = levelset_cap_check(u, [0.5, 1.0, 4.0])
        assert rec.passed
        assert np.max(np.abs(np.array(rec.details["ratios"]) - 1.0)) <= 1e-9

    @pytest.mark.parametrize("R", [1e-6, 1.0, 1e6])
    def test_quadratic_ratio_at_any_radius(self, R):
        # (2,1) hand form with x = t/(c R^2): ratio = 2x / (-log(1 - 2x)),
        # taken in 40-digit decimal arithmetic.  Levels near the boundary
        # (x ~ 1e-11) are where forming rho = sqrt(R^2 - 2t/c) first lost
        # the ratio to cancellation.
        u = make_profile(FamilySpec("quadratic"), D21, R)
        levels = [x * R * R for x in (1e-11, 1e-6, 0.1, 0.4)]
        rec = levelset_cap_check(u, levels)
        with localcontext() as ctx:
            ctx.prec = 40
            expected = []
            for t in levels:
                x2 = 2 * Decimal(t) / (Decimal(R) * Decimal(R))
                expected.append(float(x2 / -(1 - x2).ln()))
        assert rec.details["ratios"] == pytest.approx(expected, rel=1e-12)
        assert rec.passed and rec.lhs == pytest.approx(max(expected), rel=1e-12)

    @pytest.mark.parametrize("R", [1e-6, 1.0, 1e6])
    def test_capacity_suite_passes_at_any_radius(self, R):
        rows, status = run_suite(config_from_sources(None, {"suite": "capacity", "radius": R}))
        assert [row.check for row in rows if not row.passed] == []
        assert status == 0

    def test_deep_level_empty_set(self):
        u = make_profile(FamilySpec("quadratic"), D21)
        rec = levelset_cap_check(u, [100.0])
        assert rec.passed and rec.lhs == 0.0

    def test_level_validation(self):
        u = make_profile(FamilySpec("quadratic"), D21)
        with pytest.raises(InvalidArgumentError):
            levelset_cap_check(u, [])
        with pytest.raises(InvalidArgumentError):
            levelset_cap_check(u, [-1.0])

    def test_nonzero_boundary_rejected(self):
        # u = -1 on the sphere, so for t = 0.5 the sublevel set
        # {u < -t} is the whole ball; the bound is for u = 0 there.
        mu = RadialMeasure.from_density(D21, 1.0, quad.radial_grid(1.0, 512), lambda r: np.ones_like(r))
        u = solve_dirichlet(mu, -1.0)
        with pytest.raises(PreconditionError, match="boundary"):
            levelset_cap_check(u, [0.5])


def per_node_crossings(nodes, diff):
    """_crossings with the sign changes found by a scan over every node."""
    log_r = np.log(nodes)
    out = []
    sign = np.sign(diff)
    for i in range(len(nodes) - 1):
        a, b = sign[i], sign[i + 1]
        if a == b or a == 0 and b == 0:
            continue
        lo, hi = log_r[i], log_r[i + 1]
        flo = diff[i]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = float(np.interp(mid, log_r, diff))
            if (flo < 0) == (fmid < 0):
                lo, flo = mid, fmid
            else:
                hi = mid
            if hi - lo < 1e-10:
                break
        out.append(float(np.exp(0.5 * (lo + hi))))
    return out


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.sampled_from([-2.5, -1e-3, 0.0, 0.0, 1e-3, 3.0]) | st.floats(-5.0, 5.0), min_size=16, max_size=64,
))
def test_crossings_match_the_per_node_scan(samples):
    # Zeros, runs of one sign and sign flips between neighbours.
    diff = np.array(samples)
    nodes = quad.radial_grid(1.0, diff.size)
    assert _crossings(nodes, diff) == per_node_crossings(nodes, diff)


class TestComparison:
    def test_log_amplitudes(self, intermediate_dim):
        dim = intermediate_dim
        big = make_profile(FamilySpec("log", amplitude=2.0), dim)
        small = make_profile(FamilySpec("log", amplitude=1.0), dim)
        assert comparison_check(big, small).passed

    def test_extremal_dominates_quadratic(self, intermediate_dim):
        dim = intermediate_dim
        cap = extremal_profile(CapacityConfig(dim, 0.3, 1.0))
        quadratic = make_profile(FamilySpec("quadratic", amplitude=0.5), dim)
        assert comparison_check(cap, quadratic).passed

    def test_rejects_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            comparison_check(
                make_profile(FamilySpec("log"), D21),
                make_profile(FamilySpec("log"), D42),
            )

    def test_rejects_boundary_order(self):
        u = make_profile(FamilySpec("quadratic"), D21)
        lifted = RadialProfile(
            dim=u.dim,
            R=u.R,
            nodes=u.nodes,
            values=u.values + 1.0,
            slope=u.slope,
            boundary=1.0,
        )
        with pytest.raises(PreconditionError):
            comparison_check(u, lifted)
