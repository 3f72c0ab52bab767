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
from hessianlab.radial import RadialMeasure, RadialProfile, hessian_mass, s_k_radial, solve_dirichlet
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
        for tol in (math.nan, -1.0):
            with pytest.raises(InvalidArgumentError, match="tol"):
                levelset_cap_check(u, [0.5], tol=tol)

    def test_nonzero_boundary_rejected(self):
        # u = -1 on the sphere, so for t = 0.5 the sublevel set
        # {u < -t} is the whole ball; the bound is for u = 0 there.
        mu = RadialMeasure.from_density(D21, 1.0, quad.radial_grid(1.0, 512), lambda r: np.ones_like(r))
        u = solve_dirichlet(mu, -1.0)
        with pytest.raises(PreconditionError, match="boundary"):
            levelset_cap_check(u, [0.5])


def bisected_region_masses(nodes, diff, mu_u, mu_v):
    """The region masses by comparison_check's earlier algorithm: sign
    changes of diff bisected on its log-linear interpolant to 1e-10,
    then each interval between edges kept when the interpolant is
    positive at its geometric midpoint."""
    log_r = np.log(nodes)
    cross = []
    sign = np.sign(diff)
    for i in np.flatnonzero(sign[:-1] != sign[1:]).tolist():
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
        cross.append(float(np.exp(0.5 * (lo + hi))))
    edges = [0.0] + cross + [float(nodes[-1])]
    mass_u = mass_v = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid = math.sqrt(max(a, nodes[0] * 0.5) * b) if b > 0 else 0.0
        inside = np.interp(np.log(max(mid, nodes[0])), log_r, diff) > 0
        if a == 0.0 and diff[0] > 0:
            inside = True
        if inside:
            mass_u += float(mu_u.cumulative_at(b) - mu_u.cumulative_at(a))
            mass_v += float(mu_v.cumulative_at(b) - mu_v.cumulative_at(a))
    return mass_u, mass_v


def bisection_blind_spots(diff):
    """Nodes i where a positive run starts after a zero that follows
    another zero or sits at the first node.  The bisection counts a zero
    as positive, so it puts that edge near node i + 1 instead of at
    node i, and the midpoint test then keeps or drops the whole interval
    up to it."""
    starts = (diff[:-1] == 0) & (diff[1:] > 0)
    after_zero = np.concatenate(([True], diff[:-2] == 0))
    return np.flatnonzero(starts & after_zero)


def comparison_pair(samples, dim=D21):
    """Profiles u, v on one grid with v - u = samples up to rounding:
    the measures depend on the slopes alone, and the values only need
    to stay nondecreasing."""
    size = len(samples)
    nodes = quad.radial_grid(1.0, size)
    base = 20.0 * (np.arange(size) - (size - 1))
    u = RadialProfile(dim, 1.0, nodes, base, np.ones_like(nodes), 0.0)
    v = RadialProfile(dim, 1.0, nodes, base + np.array(samples), np.linspace(1.5, 2.5, size), 0.0)
    return u, v


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.sampled_from([-2.5, -1e-3, 0.0, 0.0, 1e-3, 3.0]) | st.floats(-5.0, 5.0), min_size=16, max_size=64,
))
def test_comparison_region_matches_the_bisected_region(samples):
    # Zeros, runs of one sign and sign flips between neighbours.
    u, v = comparison_pair(samples)
    nodes = u.nodes
    log_r = np.log(nodes)
    diff = v.values - u.values  # what the check sees; tiny samples round to zero
    rec = comparison_check(u, v)
    intervals = rec.details["intervals"]
    tol = 1e-12 * max(float(np.max(np.abs(diff))), 1.0)
    edges = [e for interval in intervals for e in interval if 0.0 < e < 1.0]
    assert np.all(np.abs(np.interp(np.log(edges), log_r, diff)) <= tol)
    # Away from its edges, the region is exactly where the interpolant is positive.
    probes = (log_r[:-1, None] + np.diff(log_r)[:, None] * np.linspace(0.05, 0.95, 19)).ravel()
    values = np.interp(probes, log_r, diff)
    inside = np.array([any(a <= x <= b for a, b in intervals) for x in np.exp(probes)])
    clear = np.abs(values) > tol
    assert np.array_equal(inside[clear], values[clear] > 0)
    if bisection_blind_spots(diff).size == 0:
        mu_u, mu_v = s_k_radial(u), s_k_radial(v)
        mass_u, mass_v = bisected_region_masses(nodes, diff, mu_u, mu_v)
        scale = max(mu_u.total, mu_v.total)
        assert abs(rec.rhs - mass_u) <= 1e-9 * scale
        assert abs(rec.lhs - mass_v) <= 1e-9 * scale


def test_a_positive_run_after_zeros_starts_at_the_last_zero():
    # v - u is 0, 0, 2, 2, then negative: the region runs from r_1 to
    # the zero two thirds of the way from r_3 to r_4.  The bisection
    # put the first edge near r_2 and left (r_1, r_2) out.
    u, v = comparison_pair([0.0, 0.0, 2.0, 2.0] + [-1.0] * 12)
    nodes, log_r = u.nodes, np.log(u.nodes)
    rec = comparison_check(u, v)
    [(a, b)] = rec.details["intervals"]
    assert a == pytest.approx(nodes[1], rel=1e-15)
    assert b == pytest.approx(math.exp(log_r[3] + (log_r[4] - log_r[3]) * 2.0 / 3.0), rel=1e-15)
    mu_u, mu_v = s_k_radial(u), s_k_radial(v)
    assert rec.rhs == pytest.approx(mu_u.cumulative_at(b) - mu_u.cumulative[1], rel=1e-12)
    assert rec.lhs == pytest.approx(mu_v.cumulative_at(b) - mu_v.cumulative[1], rel=1e-12)
    bisected = bisected_region_masses(nodes, v.values - u.values, mu_u, mu_v)
    dropped = (mu_u.cumulative[2] - mu_u.cumulative[1], mu_v.cumulative[2] - mu_v.cumulative[1])
    assert rec.rhs == pytest.approx(bisected[0] + dropped[0], rel=1e-9)
    assert rec.lhs == pytest.approx(bisected[1] + dropped[1], rel=1e-9)


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
