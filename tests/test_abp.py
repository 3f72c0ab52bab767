"""Maximum-principle machinery: Orlicz weights and barriers, the
calibrated sup bound, fixed-budget sweeps, and the decay certificate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from hessianlab import (
    HessianDim,
    InvalidArgumentError,
    InvalidWeightError,
    OrliczWeight,
    RadialMeasure,
    UnsupportedDimensionError,
    abp_bound_check,
    abp_degiorgi_check,
    barrier_epsilon,
    degiorgi_fit_and_verify,
    degiorgi_from_run,
    degiorgi_threshold,
    fixed_budget_variation_check,
    mollified_dirac_family,
    orlicz_h,
    sample_family,
    solve_dirichlet,
    verify_gk,
)
from hessianlab import abp
from hessianlab import quadrature as quad
from hessianlab.abp import PHI_ZERO_TOL, DeGiorgiData
from hessianlab.suites import config_from_sources, run_suite

# Twenty decay curves phi0 (1 - s/a)_+^m satisfying the lemma's
# hypotheses, spanning mass scales, decay powers, and vanish levels.
DECAY_FIXTURES = [
    (phi0, m, a)
    for phi0 in (0.25, 1.0, 4.0, 10.0)
    for m in (1, 2, 3)
    for a in (1.0,)
] + [
    (1.0, 1, 0.5), (1.0, 2, 0.5), (1.0, 3, 0.5),
    (1.0, 1, 2.0), (1.0, 2, 2.0), (1.0, 3, 2.0),
    (10.0, 2, 0.5), (0.25, 3, 2.0),
]


def exp_weight(k: int, rate: float | None = None) -> OrliczWeight:
    return OrliczWeight("exp", k=k, rate=float(k) if rate is None else rate)


class TestThreshold:
    def test_unit_case_is_exact(self):
        # 2 * 1 * (1/4)^1 / (1 - 1/2) = 1, no rounding anywhere.
        assert degiorgi_threshold(1.0, 1.0, 0.25, 0.0) == 1.0

    def test_shifted_case(self):
        expected = 4.0 / (1.0 - 2.0**-0.5) + 3.0
        assert degiorgi_threshold(1.0, 0.5, 4.0, 3.0) == pytest.approx(expected, rel=1e-15)

    def test_zero_mass_returns_the_offset(self):
        assert degiorgi_threshold(7.0, 1.3, 0.0, 2.5) == 2.5
        # c0 is irrelevant once phi0 = 0, so its sign is not checked.
        assert degiorgi_threshold(-5.0, 1.3, 0.0, 2.5) == 2.5

    def test_monotone_in_constant_and_mass(self):
        base = degiorgi_threshold(1.0, 1.0, 1.0)
        assert degiorgi_threshold(2.0, 1.0, 1.0) > base
        assert degiorgi_threshold(1.0, 1.0, 2.0) > base

    def test_validation(self):
        with pytest.raises(InvalidArgumentError, match="delta"):
            degiorgi_threshold(1.0, 0.0, 1.0)
        with pytest.raises(InvalidArgumentError, match="phi0"):
            degiorgi_threshold(1.0, 1.0, -1.0)
        with pytest.raises(InvalidArgumentError, match="c0"):
            degiorgi_threshold(0.0, 1.0, 1.0)
        for c0 in (math.nan, math.inf):
            with pytest.raises(InvalidArgumentError, match="c0"):
                degiorgi_threshold(c0, 1.0, 0.0)


def per_delta_fit(s, phi, s0=None) -> DeGiorgiData:
    """degiorgi_fit_and_verify on valid samples, recomputing each live
    i's max_j (s_j - s_i) phi_j for every delta."""
    s = np.asarray(s, dtype=float)
    phi = np.minimum.accumulate(np.asarray(phi, dtype=float))
    s0_val = float(s[0]) if s0 is None else float(s0)
    phi0 = float(phi[0])
    live = phi > PHI_ZERO_TOL
    vanish_level = None if live[-1] else float(s[int(np.argmin(live))])
    best = None
    for delta in np.round(np.arange(1, 21) * 0.1, 10):
        c0 = 0.0
        for i in range(s.size - 1):
            if s[i] < s0_val or not live[i]:
                continue
            t = s[i + 1 :] - s[i]
            c0 = max(c0, float(np.max(t * phi[i + 1 :])) / phi[i] ** (1.0 + delta))
        s_inf = degiorgi_threshold(max(c0, np.finfo(float).tiny), delta, phi0, s0_val)
        beyond = s >= s_inf
        if np.any(beyond) and np.all(phi[beyond] <= PHI_ZERO_TOL):
            if best is None or s_inf < best[2]:
                best = (c0, float(delta), s_inf)
    if best is None:
        best = (math.inf, math.nan, math.inf)
    c0, delta, s_inf = best
    return DeGiorgiData(
        s=s, phi=phi, c0=c0, delta=delta, s0=s0_val,
        s_inf=s_inf, verified=math.isfinite(c0), vanish_level=vanish_level,
    )


@st.composite
def level_set_samples(draw):
    """Strictly increasing levels, nonincreasing masses whose tail either
    vanishes from some sample on or never does, and a start level that
    is the first sample or a shift of it."""
    size = draw(st.integers(8, 40))
    steps = draw(st.lists(st.floats(0.01, 2.0), min_size=size - 1, max_size=size - 1))
    s = np.concatenate([[draw(st.floats(-1.0, 1.0))], steps]).cumsum()
    masses = draw(st.lists(st.floats(1e-6, 100.0), min_size=size, max_size=size))
    phi = np.sort(masses)[::-1].copy()
    vanish_from = draw(st.none() | st.integers(1, size - 1))
    if vanish_from is not None:
        phi[vanish_from:] = 0.0
    shift = draw(st.none() | st.floats(-0.5, 3.0))
    return s, phi, None if shift is None else float(s[0]) + shift


class TestFitAndVerify:
    @settings(max_examples=150, deadline=None)
    @given(level_set_samples())
    def test_fit_matches_the_per_delta_loop(self, samples):
        s, phi, s0 = samples
        got, expected = degiorgi_fit_and_verify(s, phi, s0), per_delta_fit(s, phi, s0)
        assert np.array_equal(got.s, expected.s) and np.array_equal(got.phi, expected.phi)
        for name in ("c0", "delta", "s0", "s_inf", "verified", "vanish_level"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a == b or (math.isnan(a) and math.isnan(b)), name
            assert type(a) is type(b), name

    @pytest.mark.parametrize("phi0,m,a", DECAY_FIXTURES)
    def test_standard_fixtures_verify_and_vanish(self, phi0, m, a):
        s = np.linspace(0.0, 4.0 * a, 33)
        phi = phi0 * np.maximum(1.0 - s / a, 0.0) ** m
        data = degiorgi_fit_and_verify(s, phi)
        assert data.verified
        # The curve hits zero exactly at s = a, which is a sample node.
        assert data.vanish_level == pytest.approx(a, rel=1e-12)
        assert data.vanish_level <= data.s_inf
        assert math.isfinite(data.c0) and data.c0 > 0
        assert 0.1 <= data.delta <= 2.0

    def test_constant_mass_has_no_certificate(self):
        s = np.linspace(0.0, 2.0, 12)
        data = degiorgi_fit_and_verify(s, np.full_like(s, 0.7))
        assert not data.verified
        assert data.c0 == math.inf
        assert math.isnan(data.delta)
        assert data.s_inf == math.inf
        assert data.vanish_level is None

    def test_explicit_start_level(self):
        s = np.linspace(0.0, 4.0, 33)
        phi = np.maximum(1.0 - s, 0.0)
        shifted = degiorgi_fit_and_verify(s, phi, s0=0.5)
        assert shifted.s0 == 0.5
        assert shifted.verified

    def test_validation(self):
        s = np.linspace(0.0, 1.0, 33)
        good = np.maximum(1.0 - s, 0.0)
        with pytest.raises(InvalidArgumentError, match="at least 8"):
            degiorgi_fit_and_verify(s[:5], good[:5])
        with pytest.raises(InvalidArgumentError, match="increasing"):
            degiorgi_fit_and_verify(s[::-1], good)
        with pytest.raises(InvalidArgumentError, match="nonincreasing"):
            degiorgi_fit_and_verify(s, good[::-1])
        with pytest.raises(InvalidArgumentError, match="nonnegative"):
            degiorgi_fit_and_verify(s, good - 0.5)
        with pytest.raises(InvalidArgumentError, match="finite"):
            degiorgi_fit_and_verify(s, np.where(s < 0.5, np.inf, 0.0))


class TestOrliczWeight:
    def test_exp_tail_closed_form(self):
        # Phi = exp(k t) has Phi^(-1/k) = exp(-t), so the tail from s
        # is exp(-s) and the total budget is 1.
        w = exp_weight(2)
        assert w.lam == pytest.approx(1.0, rel=1e-15)
        assert w.tail(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert w.value(0.5) == pytest.approx(math.exp(1.0), rel=1e-15)

    def test_constant_weight_has_infinite_tail(self):
        w = exp_weight(1, rate=0.0)
        assert w.lam == math.inf

    def test_power_tail(self):
        # (1 + t)^m with m > k integrates to k/(m - k) from zero.
        w = OrliczWeight("power", k=1, exponent=2.0)
        assert w.lam == pytest.approx(1.0, rel=1e-15)
        assert OrliczWeight("power", k=2, exponent=2.0).lam == math.inf

    def test_tabulated_tracks_the_exponential(self):
        t = np.linspace(0.0, 8.0, 400)
        w = OrliczWeight("tabulated", k=1, nodes=t, values=np.exp(t))
        assert w.lam == pytest.approx(1.0, rel=1e-4)
        assert w.tail(2.0) == pytest.approx(math.exp(-2.0), rel=1e-4)

    def test_tabulated_validation(self):
        t = np.array([0.0, 1.0, 2.0])
        with pytest.raises(InvalidWeightError, match="nondecreasing"):
            OrliczWeight("tabulated", k=1, nodes=t, values=np.array([2.0, 1.0, 0.5]))
        with pytest.raises(InvalidWeightError, match="positive"):
            OrliczWeight("tabulated", k=1, nodes=t, values=np.array([0.0, 1.0, 2.0]))
        with pytest.raises(InvalidWeightError, match="increasing"):
            OrliczWeight("tabulated", k=1, nodes=t[::-1], values=np.ones(3))
        with pytest.raises(InvalidWeightError, match="length >= 2"):
            OrliczWeight("tabulated", k=1, nodes=t[:1], values=np.ones(1))

    def test_kind_and_parameter_validation(self):
        with pytest.raises(InvalidWeightError, match="kind"):
            OrliczWeight("gaussian", k=1)
        with pytest.raises(InvalidWeightError, match="rate"):
            OrliczWeight("exp", k=1, rate=-1.0)
        with pytest.raises(InvalidWeightError, match="exponent"):
            OrliczWeight("power", k=1)
        with pytest.raises(InvalidWeightError, match="k must"):
            OrliczWeight("exp", k=0, rate=1.0)


class TestBarrier:
    def test_exp_barrier_closed_form(self):
        # scale = (q/alpha) N^(1/k) = (2/4) * 4 = 2 for N = 16, k = 2.
        barrier = orlicz_h(exp_weight(2), budget=16.0, q=2.0, alpha=4.0)
        assert barrier.scale == pytest.approx(2.0, rel=1e-15)
        assert barrier.s0 == pytest.approx(2.0, rel=1e-15)
        assert barrier.h(0.0) == pytest.approx(-2.0, rel=1e-15)
        assert barrier.h_prime(0.0) == pytest.approx(2.0, rel=1e-15)
        assert barrier.h_second(0.0) == pytest.approx(-2.0, rel=1e-15)

    @pytest.mark.parametrize(
        "weight",
        [
            exp_weight(1),
            OrliczWeight("power", k=1, exponent=3.0),
            OrliczWeight(
                "tabulated", k=1,
                nodes=np.linspace(0.0, 8.0, 200),
                values=np.exp(np.linspace(0.0, 8.0, 200)),
            ),
        ],
        ids=["exp", "power", "tabulated"],
    )
    def test_h_is_concave_increasing_negative(self, weight):
        barrier = orlicz_h(weight, budget=2.0, q=1.5, alpha=1.0)
        s = np.linspace(0.0, 5.0, 101)
        h = barrier.h(s)
        assert np.all(h < 0)
        assert np.all(np.diff(h) > 0)
        assert np.all(barrier.h_prime(s) > 0)
        assert np.all(barrier.h_second(s) <= 1e-12)

    def test_divergent_weight_is_rejected(self):
        with pytest.raises(InvalidWeightError, match="diverges"):
            orlicz_h(exp_weight(1, rate=0.0), budget=1.0, q=2.0, alpha=1.0)

    def test_parameter_validation(self):
        w = exp_weight(1)
        with pytest.raises(InvalidArgumentError, match="q > 1"):
            orlicz_h(w, budget=1.0, q=1.0, alpha=1.0)
        with pytest.raises(InvalidArgumentError, match="alpha"):
            orlicz_h(w, budget=1.0, q=2.0, alpha=0.0)
        with pytest.raises(InvalidArgumentError, match="budget"):
            orlicz_h(w, budget=-1.0, q=2.0, alpha=1.0)

    def test_barrier_epsilon_homogeneity_and_value(self):
        # ((k+1)/k)^(k/(k+1)) A^(1/(k+1)); k = 1, A = 1 gives sqrt(2).
        assert barrier_epsilon(1.0, 1) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        for k in (1, 2, 3):
            one = barrier_epsilon(1.0, k)
            assert barrier_epsilon(2.0 ** (k + 1), k) == pytest.approx(2.0 * one, rel=1e-12)
        with pytest.raises(InvalidArgumentError):
            barrier_epsilon(-1.0, 1)
        with pytest.raises(InvalidArgumentError):
            barrier_epsilon(1.0, 0)


class TestVerifyGk:
    def test_constant_density(self, intermediate_dim):
        rec = verify_gk(intermediate_dim, lambda r: np.full_like(r, 2.0), exp_weight(intermediate_dim.k))
        assert rec.passed
        assert rec.details["moment_ok"]
        assert rec.details["budget"] > 0

    def test_gaussian_bump_density(self, intermediate_dim):
        def density(r):
            return 1.0 + 5.0 * np.exp(-(r**2) / 0.02)

        rec = verify_gk(intermediate_dim, density, exp_weight(intermediate_dim.k))
        assert rec.passed
        assert rec.check == f"gk-pointwise[n={intermediate_dim.n},k={intermediate_dim.k},exp]"

    def test_validation(self):
        dim = HessianDim(2, 1)
        with pytest.raises(UnsupportedDimensionError):
            verify_gk(HessianDim(3, 1), lambda r: np.ones_like(r), exp_weight(1))
        with pytest.raises(UnsupportedDimensionError):
            verify_gk(HessianDim(3, 1), lambda r: np.ones_like(r), exp_weight(2))
        with pytest.raises(InvalidWeightError, match="^weight is for k = 2, dimension has k = 1$"):
            verify_gk(dim, lambda r: np.ones_like(r), exp_weight(2))
        with pytest.raises(InvalidWeightError, match="^weight is for k = 2, dimension has k = 1$"):
            sample_family(dim, [("one", np.ones_like)], exp_weight(2), grid_n=64)
        with pytest.raises(InvalidArgumentError, match="alpha"):
            verify_gk(dim, lambda r: np.ones_like(r), exp_weight(1), alpha=dim.moser_constant)
        with pytest.raises(InvalidArgumentError, match="positive"):
            verify_gk(dim, lambda r: np.zeros_like(r), exp_weight(1))


class TestBoundCheck:
    def test_dirac_family_held_out_members_pass(self, intermediate_dim):
        weight = OrliczWeight("exp", intermediate_dim.k, rate=1.0)
        family = mollified_dirac_family(intermediate_dim, weight)
        records = abp_bound_check(sample_family(intermediate_dim, family, weight))
        assert len(records) == len(family)
        assert all(rec.passed for rec in records)
        held = [rec.inputs["held_out"] for rec in records]
        assert held == [False] * 3 + [True] * 3
        assert all(rec.details["c2"] >= 0 for rec in records)

    def test_zero_density_family(self):
        dim = HessianDim(2, 1)
        family = [(f"zero-{i}", lambda r: np.zeros_like(r)) for i in range(4)]
        records = abp_bound_check(sample_family(dim, family, exp_weight(1)))
        for rec in records:
            assert rec.passed
            assert rec.lhs == 0.0

    def test_constant_density_sup_is_half(self):
        # S_k[u] = binom(n, k) solves to the unit quadratic, whose
        # depth on the unit ball is exactly 1/2.
        dim = HessianDim(2, 1)
        c = float(math.comb(dim.n, dim.k))
        family = [(f"flat-{i}", lambda r, c=c: np.full_like(r, c)) for i in range(4)]
        records = abp_bound_check(sample_family(dim, family, exp_weight(1)))
        for rec in records:
            assert rec.lhs == pytest.approx(0.5, rel=1e-8)
            assert rec.passed

    def test_validation(self):
        dim = HessianDim(2, 1)
        w = exp_weight(1)
        fam = mollified_dirac_family(dim, w)
        with pytest.raises(UnsupportedDimensionError):
            abp_bound_check(sample_family(HessianDim(3, 1), fam, w))
        with pytest.raises(InvalidWeightError):
            sample_family(dim, fam, exp_weight(2))
        with pytest.raises(InvalidArgumentError, match="at least 4"):
            abp_bound_check(sample_family(dim, fam[:3], w))
        bad = [("neg", lambda r: -np.ones_like(r))] + fam[:3]
        with pytest.raises(InvalidArgumentError, match="nonnegative"):
            sample_family(dim, bad, w)


class TestFixedBudgetFamily:
    def test_budgets_match_and_heights_blow_up(self):
        # With Phi = e^t and k = 2 the budget is quadratic in the
        # density, so the balancing amplitude grows like eps^-2 and the
        # sweep's height ratio clears 1e3; k = 1 only reaches ~2^5.
        dim = HessianDim(4, 2)
        weight = OrliczWeight("exp", 2, rate=1.0)
        family = mollified_dirac_family(dim, weight)
        assert [label for label, _ in family] == [
            "dirac-eps=0.125", "dirac-eps=0.0625", "dirac-eps=0.03125",
            "dirac-eps=0.015625", "dirac-eps=0.0078125", "dirac-eps=0.00390625",
        ]
        heights = [float(fn(np.array([0.0]))[0]) for _, fn in family]
        assert all(b > a for a, b in zip(heights, heights[1:]))
        assert heights[-1] / heights[0] > 1e3

    def test_validation(self):
        dim = HessianDim(2, 1)
        w = exp_weight(1)
        with pytest.raises(UnsupportedDimensionError):
            mollified_dirac_family(HessianDim(3, 1), w)
        with pytest.raises(InvalidArgumentError, match="lift"):
            mollified_dirac_family(dim, w, budget_lift=1.0)
        with pytest.raises(InvalidArgumentError, match="base"):
            mollified_dirac_family(dim, w, base=0.0)
        with pytest.raises(InvalidArgumentError, match="scale"):
            mollified_dirac_family(dim, w, scales=(1.5,))

    def test_nan_lift_is_rejected(self):
        # nan <= 1 is False, so a NaN lift once gave six flat members; an
        # infinite lift once failed in the amplitude search.
        for lift in (math.nan, math.inf):
            with pytest.raises(InvalidArgumentError, match=f"^budget lift must be finite and exceed 1, got {lift!r}$"):
                mollified_dirac_family(HessianDim(2, 1), exp_weight(1), budget_lift=lift)

    def test_amplitudes_match_brentq(self, intermediate_dim):
        # scipy's brentq on the same budget gap is the oracle for the
        # bracketing root find; a member's height at r = 0 is 1 + amplitude.
        dim = intermediate_dim
        weight = OrliczWeight("exp", dim.k, rate=1.0)
        nodes = quad.radial_grid(1.0, 2048)
        target = 1.05 * abp._orlicz_budget(dim, nodes, np.ones_like(nodes), weight)
        family = mollified_dirac_family(dim, weight, grid_n=2048)
        assert len(family) == 6
        for j, (_, fn) in enumerate(family, start=3):
            bump = np.exp(-(nodes**2) / (2.0 * 4.0**-j))

            def gap(amp, bump=bump):
                return abp._orlicz_budget(dim, nodes, 1.0 + amp * bump, weight) - target

            expected = brentq(gap, 0.0, 1e6, xtol=1e-14, rtol=1e-14)
            assert float(fn(np.array([0.0]))[0]) - 1.0 == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("R", [1e-6, 1.0, 1e6])
    def test_abp_suite_passes_at_any_radius(self, R):
        rows, status = run_suite(config_from_sources(None, {"suite": "abp", "radius": R}))
        assert [row.check for row in rows if not row.passed] == []
        assert status == 0

    def test_abp_suite_solves_each_member_once(self, monkeypatch):
        # Two verify_gk runs, six mollified Dirac members and one decay
        # run: the bound and fixed-budget records read the same solves.
        calls = []
        original = abp.solve_dirichlet

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(abp, "solve_dirichlet", counting)
        rows, status = run_suite(config_from_sources(None, {"suite": "abp", "n": 4, "k": 2}))
        assert status == 0
        assert any(row.check.startswith("abp-fixed-budget") for row in rows)
        assert len(calls) == 9

    def test_variation_check_passes(self):
        dim, weight = HessianDim(4, 2), OrliczWeight("exp", 2, rate=1.0)
        rec = fixed_budget_variation_check(sample_family(dim, mollified_dirac_family(dim, weight), weight))
        assert rec.passed
        assert rec.lhs <= rec.rhs
        assert rec.details["height_ratio"] > 1e3
        assert rec.details["budget_spread"] <= 1e-9
        assert len(rec.details["sup_values"]) == 6


def budget_before_hoisting(dim, nodes, g, weight) -> float:
    # The Orlicz budget as it was computed before n omega_n and r^(n-1)
    # were taken once per grid: the zero masks on every density, then
    # volume_integral's formula written out.
    with np.errstate(divide="ignore"):
        logs = np.where(g > 0, np.log(np.where(g > 0, g, 1.0)), 0.0)
    integrand = np.where(g > 0, g * weight.value(logs), 0.0)
    shell = dim.n * dim.ball_volume * integrand * nodes ** (dim.n - 1)
    return float(quad.cumulative_from_origin(nodes, shell)[-1])


BUDGET_WEIGHTS = {
    "exp": lambda k: OrliczWeight("exp", k, rate=1.0),
    "power": lambda k: OrliczWeight("power", k, exponent=3.0),
    "tabulated": lambda k: OrliczWeight(
        "tabulated", k, nodes=np.linspace(-2.0, 8.0, 64), values=np.exp(np.linspace(-2.0, 8.0, 64)),
    ),
}

# Heights 1 + A(eps) at r = 0 of the six members of the suite's families
# (Phi = e^t, R = 1, grid 2048), taken before the budget factors were
# hoisted; the fixed-budget record reads these heights.
MOLLIFIED_HEIGHTS = {
    (2, 1): ["0x1.aeeb8a967b94ap+0", "0x1.8ca4d5550e5e5p+1", "0x1.9b7fb7b647eb6p+2",
             "0x1.ae65b10eb1bddp+3", "0x1.bb103aaecde25p+4", "0x1.c239e4b6f0492p+5"],
    (4, 2): ["0x1.f865333e880eep+2", "0x1.2d6500b6ab3fbp+5", "0x1.3dea825066187p+7",
             "0x1.4252cbb9a8e7ep+9", "0x1.437150417a66bp+11", "0x1.43b93889e8bb5p+13"],
}


class TestBudgetHelper:
    @settings(max_examples=60, deadline=None)
    @given(
        nk=st.sampled_from([(2, 1), (4, 2)]),
        kind=st.sampled_from(sorted(BUDGET_WEIGHTS)),
        R=st.sampled_from([1e-3, 1.0, 7.5]),
        base=st.floats(0.0, 5.0),
        amp=st.floats(0.0, 1e3),
        width=st.floats(0.01, 1.0),
        zeros=st.tuples(st.integers(0, 255), st.integers(0, 64)),
    )
    def test_equals_the_budget_before_hoisting(self, nk, kind, R, base, amp, width, zeros):
        dim = HessianDim(*nk)
        weight = BUDGET_WEIGHTS[kind](dim.k)
        nodes = quad.radial_grid(R, 256)
        g = base + amp * np.exp(-((nodes / R) ** 2) / (2.0 * width**2))
        start, count = zeros
        g[start : start + count] = 0.0
        expected = budget_before_hoisting(dim, nodes, g, weight)
        # the second call reads r^(n-1) from the grid's cache entry
        for _ in range(2):
            assert abp._orlicz_budget(dim, nodes, g, weight) == expected

    @pytest.mark.parametrize("nk", sorted(MOLLIFIED_HEIGHTS))
    def test_mollified_heights_are_unchanged(self, nk):
        dim = HessianDim(*nk)
        family = mollified_dirac_family(dim, OrliczWeight("exp", dim.k, rate=1.0), grid_n=2048)
        heights = [float(fn(np.array([0.0]))[0]).hex() for _, fn in family]
        assert heights == MOLLIFIED_HEIGHTS[nk]


class TestPipeline:
    def test_end_to_end_decay_certificate(self, intermediate_dim):
        def density(r):
            return 3.0 * np.exp(-(r**2) / 0.08)

        rec = abp_degiorgi_check(intermediate_dim, density)
        assert rec.passed
        assert rec.lhs <= rec.rhs
        assert math.isfinite(rec.details["c0"])
        assert rec.details["levels"] >= 33

    @pytest.mark.parametrize("s_max", [math.nan, -1.0, 0.0, math.inf])
    def test_from_run_validation(self, s_max):
        mu = RadialMeasure.from_density(HessianDim(2, 1), 1.0, quad.radial_grid(1.0, 256), lambda r: np.ones_like(r))
        solution = solve_dirichlet(mu, 0.0)
        with pytest.raises(InvalidArgumentError, match="s_max"):
            degiorgi_from_run(solution, mu, s_max=s_max)
