"""Exponential-equation solver and its blow-up diagnostics, anchored
on the exact n = 2 scale family."""

import math
import warnings
import weakref

import numpy as np
import pytest

from hessianlab import (
    HessianDim,
    InvalidArgumentError,
    LiouvilleProblem,
    NoSolutionError,
    PreconditionError,
    UnsupportedDimensionError,
    bubble_local_mass,
    bubble_problem,
    bubble_profile,
    bubble_residual_sup,
    branch_solution,
    classify_alternative,
    config_from_sources,
    fold_value,
    harnack_ratio,
    hessian_mass,
    local_mass,
    make_profile,
    regular_point_classify,
    run_suite,
    singular_comparison_check,
    smallness_check,
    solve_liouville,
    solve_sequence,
)
from hessianlab import liouville as liouville_mod
from hessianlab import quadrature as quad
from hessianlab.families import FamilySpec
from hessianlab.radial import RadialMeasure, s_k_radial

DIM2 = HessianDim(2, 1)
DIM4 = HessianDim(4, 2)


def minimal_branch_scale(c: float) -> float:
    # Zero-boundary constant-weight solutions are scale-family members
    # with c = 8b/(1+b)^2; the branch below the fold at c = 2 takes the
    # smaller root of c b^2 + (2c - 8) b + c = 0.
    disc = (2.0 * c - 8.0) ** 2 - 4.0 * c * c
    return ((8.0 - 2.0 * c) - math.sqrt(disc)) / (2.0 * c)


def constant_problem(c: float, **kwargs) -> LiouvilleProblem:
    return LiouvilleProblem(DIM2, lambda r, c=c: np.full_like(r, c), **kwargs)


def rising_problem(c: float, **kwargs) -> LiouvilleProblem:
    # V = c (1 + r^2): min V = c, so for c <= 2 the fold precheck lets it
    # through, yet at grid 2048 a continuation sweep in steps of 0.05
    # solves c = 1.6 and fails at 1.65: from about 1.65 on it has no
    # solution, and the loop must find that out itself.
    return LiouvilleProblem(DIM2, lambda r, c=c: c * (1.0 + r * r), **kwargs)


@pytest.fixture
def solves(monkeypatch):
    # the boundary value of each Dirichlet solve the Liouville solver makes
    calls = []
    inner = liouville_mod.solve_dirichlet

    def counted(mu, boundary):
        calls.append(boundary)
        return inner(mu, boundary)

    monkeypatch.setattr(liouville_mod, "solve_dirichlet", counted)
    return calls


class TestBubbleOracle:
    @pytest.mark.parametrize("lam", [1.0, 4.0, 16.0])
    def test_defining_identity_holds_pointwise(self, lam):
        # Laplacian and right side agree in closed form; the residual
        # is pure round-off relative to the 8 lam^2 scale.
        assert bubble_residual_sup(lam) <= 1e-10 * 8.0 * lam * lam

    def test_local_mass_closed_form(self):
        # int_{B_r} exp(-u) = 8 pi t/(1+t) with t = (lam r)^2.
        assert bubble_local_mass(2.0, 1.0) == pytest.approx(
            8.0 * math.pi * 4.0 / 5.0, rel=1e-15
        )
        # The full-plane mass saturates at 8 pi.
        assert bubble_local_mass(1e6, 1.0) == pytest.approx(8.0 * math.pi, rel=1e-9)

    @pytest.mark.parametrize("lam", [1.0, 4.0, 16.0])
    def test_quadrature_matches_closed_form(self, lam):
        u = bubble_profile(lam, grid_n=8192)
        got = local_mass(u, lambda r: np.ones_like(r), 1.0)
        assert got == pytest.approx(bubble_local_mass(lam, 1.0), rel=1e-6)

    @pytest.mark.parametrize("lam", [0.25, 1.0, 4.0, 16.0, 1e3])
    @pytest.mark.parametrize("grid_n", [64, 2048])
    def test_residual_keeps_the_hand_written_laplacian_bits(self, lam, grid_n):
        # the (2,1) Laplacian u'' + u'/r as it was written out by hand
        nodes = liouville_mod.quad.radial_grid(1.0, grid_n)
        t = (lam * nodes) ** 2
        lap = 4.0 * lam * lam * (1.0 - t) / (1.0 + t) ** 2 + 4.0 * lam * lam / (1.0 + t)
        rhs = 8.0 * lam * lam / (1.0 + t) ** 2
        assert bubble_residual_sup(lam, grid_n=grid_n) == float(np.max(np.abs(lap - rhs)))

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            bubble_profile(0.0)
        with pytest.raises(InvalidArgumentError):
            bubble_profile(-2.0)


class TestSolver:
    @pytest.mark.parametrize("lam", [1.0, 4.0, 16.0])
    def test_bubble_is_stationary(self, lam):
        exact = bubble_profile(lam, grid_n=8192)
        u = solve_liouville(bubble_problem(lam, grid_n=8192), initial=exact)
        assert float(np.max(np.abs(u.values - exact.values))) <= 1e-9

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 1.9])
    def test_flat_start_finds_the_small_branch(self, c):
        u = solve_liouville(constant_problem(c))
        assert not u.unbounded_origin
        b = minimal_branch_scale(c)
        exact = 2.0 * np.log1p(b * u.nodes**2) - math.log(8.0 * b / c)
        assert float(np.max(np.abs(u.values - exact))) <= 1e-7
        mass = local_mass(u, lambda r: np.full_like(r, c), 1.0)
        assert mass == pytest.approx(8.0 * math.pi * b / (1.0 + b), rel=1e-7)

    def test_zero_weight_returns_the_boundary_constant(self):
        prob = LiouvilleProblem(DIM2, lambda r: np.zeros_like(r), boundary=0.7)
        u = solve_liouville(prob)
        assert np.all(u.values == 0.7)

    def test_weak_weight_linearizes(self):
        # For small eps the equation linearizes to Laplacian(u) = eps,
        # i.e. u ~ eps (r^2 - R^2)/4 with an O(eps^2) defect.
        eps = 1e-3
        u = solve_liouville(constant_problem(eps))
        approx = eps * (u.nodes**2 - 1.0) / 4.0
        assert float(np.max(np.abs(u.values - approx))) <= 10.0 * eps * eps

    def test_past_the_fold_no_solution(self):
        with pytest.raises(NoSolutionError):
            solve_liouville(constant_problem(2.2), max_iter=200)

    @pytest.mark.parametrize("c", [1e2, 1e3, 1e4, 1e5])
    def test_large_weight_has_no_solution(self, c):
        # V = c r^2 vanishes at the origin, so the fold precheck lets it
        # through.  The first image sinks to about -0.0625 c at the center;
        # from c = 1e3 on the second image's density exp(-u) can no longer
        # be integrated (at 1e5 it overflows at the clip), at c = 1e2 the
        # 16th can not, and either must end the solve with no solution.
        with np.errstate(over="ignore"):
            with pytest.raises(NoSolutionError, match="clip/overflow"):
                solve_liouville(LiouvilleProblem(DIM2, lambda r: c * r * r, grid_n=256))

    @pytest.mark.parametrize("c", [1e4, 1e5])
    def test_large_weight_fails_without_a_warning(self, c):
        # the overflow at the clip is what ends the solve, not news
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            with pytest.raises(NoSolutionError, match="clip/overflow"):
                solve_liouville(LiouvilleProblem(DIM2, lambda r: c * r * r, grid_n=256))

    def test_initial_guess_dimension_mismatch(self):
        prob = constant_problem(1.0)
        other = make_profile(FamilySpec("quadratic"), HessianDim(4, 2), 1.0, 64)
        with pytest.raises(InvalidArgumentError, match="different"):
            solve_liouville(prob, initial=other)
        with pytest.raises(InvalidArgumentError, match="max_iter"):
            solve_liouville(prob, max_iter=0)

    @pytest.mark.parametrize("max_iter", [1.5, math.nan])
    def test_non_integer_max_iter_is_rejected(self, max_iter):
        with pytest.raises(InvalidArgumentError, match=f"^max_iter must be a positive integer, got {max_iter!r}$"):
            solve_liouville(constant_problem(1.0), max_iter=max_iter)

    def test_solution_holds_the_grids_shared_nodes(self, monkeypatch):
        # the solve works on the grid entry's own array from the start, so
        # every lookup in it hits and none builds a grid again
        nodes = quad.radial_grid(1.0, 512)

        def refuse(x):
            raise AssertionError("grid built inside the solve")

        monkeypatch.setattr(quad, "_build", refuse)
        u = solve_liouville(constant_problem(1.0, grid_n=512))
        assert u.nodes is nodes is quad._grids[512, 1.0].nodes
        assert not u.nodes.flags.writeable

    def test_continuation_sweep_tracks_the_branch(self):
        cs = (0.5, 1.0, 1.5, 1.9)
        pairs = solve_sequence([constant_problem(c) for c in cs], continuation=True)
        masses = np.array([local_mass(u, prob.V, u.R) for prob, u in pairs])
        assert np.all(np.diff(masses) > 0)
        for c, mass in zip(cs, masses):
            b = minimal_branch_scale(c)
            assert mass == pytest.approx(8.0 * math.pi * b / (1.0 + b), rel=1e-7)


def test_catalog_solves_the_steady_problem_once(monkeypatch):
    # 3 solver-bubble rows, 4 divergence and 12 smallness members at
    # (2,1), the residual row and 4 smallness members at (4,2), and one
    # solve shared by the four classify-bounded members.
    calls = []
    inner = liouville_mod.solve_liouville

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(liouville_mod, "solve_liouville", counted)
    rows, status = run_suite(config_from_sources(None, {"suite": "liouville"}))
    assert status == 0
    assert any(row.check == "classify-bounded" for row in rows)
    assert len(calls) == 25


class TestIterationBudget:
    """Anderson acceleration bounds the Dirichlet solves per Liouville
    solve; each iteration makes exactly one."""

    def test_near_the_fold(self, solves):
        # damped Picard needed 178 solves here
        solve_liouville(constant_problem(1.99, grid_n=2048))
        assert len(solves) <= 20

    def test_seeded_near_the_fold(self, solves):
        # the closed-form minimal branch is the start; cold from u = 0 this
        # took 13 solves
        solve_liouville(constant_problem(1.99, grid_n=2048))
        assert len(solves) <= 6

    def test_liouville_suite_at_the_fine_grid(self, solves):
        # every solve of the suite has a constant weight, and at grid 8192
        # most end after one solve; cold starts made 144
        _, status = run_suite(config_from_sources(None, {"suite": "liouville", "grid_n": 8192}))
        assert status == 0
        assert len(solves) <= 35

    def test_a_varying_weight_starts_cold(self, solves):
        solve_liouville(LiouvilleProblem(DIM2, lambda r: 1.0 + r * r, grid_n=2048))
        assert len(solves) == 8

    @pytest.mark.parametrize("lam", [4.0, 16.0])
    def test_a_callers_initial_is_used_as_given(self, lam):
        # The lam-bubble with lam = 4 or 16 is an upper-branch solution of
        # V = 1 (x = lam^2/8 > k = 1).  The solver-bubble rows start from it
        # and must end there, 5.5 and 11.1 from the minimal branch at the
        # center, where the solve ends when it is given no initial guess.
        prob = bubble_problem(lam, grid_n=2048)
        exact = bubble_profile(lam, grid_n=2048)
        minimal = branch_solution(DIM2, 1.0, boundary=prob.boundary, grid_n=2048)
        assert np.max(np.abs(solve_liouville(prob, initial=exact).values - exact.values)) <= 1e-8
        assert np.max(np.abs(solve_liouville(prob).values - minimal.values)) <= 1e-8

    def test_fully_nonlinear_case(self, solves):
        # damped Picard needed 38 solves here
        prob = LiouvilleProblem(HessianDim(4, 2), lambda r: np.full_like(r, 25.0), grid_n=2048)
        solve_liouville(prob)
        assert len(solves) <= 20

    def test_past_the_fold_stalls_early(self, solves):
        # damped Picard needed about 492 solves to give up on constant
        # V = 2.05; this weight passes the fold precheck and stalls after 21
        with pytest.raises(NoSolutionError, match="stalled"):
            solve_liouville(rising_problem(1.8, grid_n=2048))
        assert len(solves) <= 60

    def test_overflowing_iterate_stops(self, solves):
        # Past its fold the extrapolated iterate diverges and the 5th image
        # reaches |u| ~ 1e304, so the least-squares system overflows;
        # lstsq never returned on it.
        with pytest.raises(NoSolutionError, match="clip/overflow after 5 iterations"):
            solve_liouville(LiouvilleProblem(DIM2, lambda r: 20.0 * r * r, grid_n=2048))
        assert len(solves) == 5

    @pytest.mark.parametrize(
        "c, seed_error",
        [(0.3, 6.3e-9), (1.0, 2.4e-9), (1.9, 2.1e-9), (1.99, 7.6e-9), (1.995, 1.1e-8)],
    )
    def test_oracle_error_is_no_worse_than_damped_picard(self, c, seed_error):
        # seed_error: damped Picard's sup |u - exact| / sup |exact| at grid 2048
        u = solve_liouville(constant_problem(c, grid_n=2048))
        b = minimal_branch_scale(c)
        exact = 2.0 * np.log1p(b * u.nodes**2) - math.log(8.0 * b / c)
        assert np.max(np.abs(u.values - exact)) / np.max(np.abs(exact)) <= seed_error

    def test_clipped_fixed_point_is_rejected(self, solves):
        # V = 48 with V = 32 = c* on r < 1e-3 passes the (4,2) fold
        # precheck; like constant 48 the iteration then converges after 12
        # solves on a fixed point of the exp-clipped map with min u near
        # -1e152, and the unclipped residual exposes it.
        prob = LiouvilleProblem(HessianDim(4, 2), lambda r: np.where(r < 1e-3, 32.0, 48.0), grid_n=2048)
        with pytest.raises(NoSolutionError, match="clip/overflow after 12 iterations"):
            solve_liouville(prob)
        assert len(solves) == 12

    def test_failure_message_explains_the_stop(self):
        with pytest.raises(NoSolutionError) as exc:
            solve_liouville(rising_problem(1.8), max_iter=3)
        message = str(exc.value)
        assert "iteration cap after 3 iterations" in message
        assert "last step" in message and "last residual" in message


class TestFoldPrecheck:
    """fold_value's closed form, and the solve refusing weights past it."""

    @pytest.mark.parametrize("n, k, value", [(2, 1, 2.0), (4, 2, 32.0), (6, 3, 1080.0), (8, 4, 57344.0)])
    def test_unit_ball_values(self, n, k, value):
        assert fold_value(HessianDim(n, k)) == value

    @pytest.mark.parametrize("dim", [DIM2, DIM4, HessianDim(6, 3)], ids=lambda d: f"n{d.n}k{d.k}")
    @pytest.mark.parametrize("R, b", [(0.5, 0.0), (2.0, -0.7), (1e-3, 1.5), (10.0, 3.0)])
    def test_scales_as_the_radius_and_the_boundary_value(self, dim, R, b):
        assert fold_value(dim, R, b) == pytest.approx(fold_value(dim) * R ** -dim.n * math.exp(b), rel=1e-15)

    def test_agrees_with_the_minimal_branch_discriminant(self):
        # c b^2 + (2c - 8) b + c = 0 has a real root exactly when c <= 2
        fold = fold_value(DIM2)
        disc = lambda c: (2.0 * c - 8.0) ** 2 - 4.0 * c * c
        assert disc(fold) == 0.0
        assert disc(math.nextafter(fold, 0.0)) > 0.0 > disc(math.nextafter(fold, 3.0))
        assert minimal_branch_scale(fold) == 1.0
        with pytest.raises(ValueError):
            minimal_branch_scale(math.nextafter(fold, 3.0))

    def test_validation(self):
        with pytest.raises(UnsupportedDimensionError, match="2k = n"):
            fold_value(HessianDim(3, 1))
        for kwargs in ({"R": 0.0}, {"R": "1"}, {"R": math.inf}, {"boundary": math.nan}, {"boundary": "0"}):
            with pytest.raises(InvalidArgumentError):
                fold_value(DIM2, **kwargs)

    @pytest.mark.parametrize("prob", [
        constant_problem(1.01 * 2.0, grid_n=2048),
        constant_problem(2.0 * (1.0 + 1e-11), grid_n=2048),
        rising_problem(2.1, grid_n=2048),
        LiouvilleProblem(DIM4, lambda r: np.full_like(r, 1.01 * 32.0), grid_n=2048),
        LiouvilleProblem(DIM4, lambda r: 33.0 * (1.0 + r * r), grid_n=2048),
        constant_problem(1.01 * 16.0, R=0.5, boundary=math.log(2.0)),
        constant_problem(1e4, grid_n=256),
    ], ids=["const-1.01", "const-1e-11", "rising-2.1", "n4-const-1.01", "n4-rising-33", "R-and-b", "const-1e4"])
    def test_past_the_fold_makes_no_dirichlet_solve(self, prob, solves):
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            with pytest.raises(NoSolutionError, match="past the fold"):
                solve_liouville(prob)
        assert solves == []

    def test_message_names_the_weight_the_fold_and_the_problem(self):
        with pytest.raises(NoSolutionError) as exc:
            solve_liouville(LiouvilleProblem(DIM4, lambda r: 30.0 + r, R=0.5, boundary=-3.0))
        assert str(exc.value) == (
            "no fixed point: min V = 30 is past the fold c* = 25.490979 of "
            "(n, k) = (4, 2) with R = 0.5 and boundary -3"
        )

    @pytest.mark.parametrize("prob", [
        constant_problem(2.0, grid_n=256),
        constant_problem(2.0 * (1.0 + 1e-13), grid_n=256),
        rising_problem(2.0, grid_n=256),
        LiouvilleProblem(DIM4, lambda r: np.full_like(r, 32.0), grid_n=256),
        LiouvilleProblem(DIM2, lambda r: 1e3 * r * r, grid_n=256),
    ], ids=["const-fold", "const-1e-13", "rising-2", "n4-const-fold", "vanishing"])
    def test_never_fires_at_or_below_the_fold(self, prob, solves):
        # min V <= c* (1 + 1e-12): the loop runs and decides
        try:
            solve_liouville(prob)
        except NoSolutionError as exc:
            assert "past the fold" not in str(exc)
        assert len(solves) >= 1

    def test_the_bubble_on_the_fold_still_solves(self):
        # V = 1 sits exactly on the fold of the lam = 1 bubble problem, whose
        # c* computes to 1 + 2^-52; the solver-bubble[lam=1] row solves it
        prob = bubble_problem(1.0, grid_n=8192)
        assert fold_value(DIM2, prob.R, prob.boundary) == 1.0000000000000002
        exact = bubble_profile(1.0, grid_n=8192)
        u = solve_liouville(prob, initial=exact)
        assert float(np.max(np.abs(u.values - exact.values))) <= 1e-9


def mass_mismatch(dim, c, u) -> float:
    # sup |S_k[u](B_r) - int_{B_r} c e^{-u}| over the total mass
    target = RadialMeasure.from_density(dim, u.R, u.nodes, c * np.exp(-u.values))
    return float(np.max(np.abs(s_k_radial(u).cumulative - target.cumulative))) / target.total


class TestMinimalBranch:
    """branch_solution's closed form, and the constant-V solve that
    starts from it."""

    @pytest.mark.parametrize("dim", [DIM2, DIM4], ids=lambda d: f"n{d.n}k{d.k}")
    @pytest.mark.parametrize("grid_n", [2048, 8192])
    @pytest.mark.parametrize("R", [1e-3, 1.0, 10.0])
    @pytest.mark.parametrize("b", [0.0, 5.0])
    @pytest.mark.parametrize("fraction", [0.3, 0.9, 1.0])
    def test_solves_the_equation_on_the_grid(self, dim, grid_n, R, b, fraction):
        # The mismatch is the quadrature's and falls at fourth order:
        # measured at most 4.4e-9 at grid 2048 and 1.7e-11 at 8192.
        c = fraction * fold_value(dim, R, b)
        u = branch_solution(dim, c, R, b, grid_n)
        assert u.nodes is quad.radial_grid(R, grid_n)
        assert u.values[-1] == b
        assert mass_mismatch(dim, c, u) <= 6e-9 * (2048 / grid_n) ** 4

    @pytest.mark.parametrize("dim", [HessianDim(6, 3), HessianDim(8, 4)], ids=lambda d: f"n{d.n}k{d.k}")
    @pytest.mark.parametrize("fraction", [0.3, 0.9, 1.0])
    def test_solves_the_equation_past_the_supported_dimensions(self, dim, fraction):
        # the bisection branch for k >= 3; measured at most 6.5e-11
        c = fraction * fold_value(dim)
        assert mass_mismatch(dim, c, branch_solution(dim, c, grid_n=8192)) <= 1e-10

    @pytest.mark.parametrize("c", [0.3, 1.0, 1.9, 1.99, 2.0])
    def test_agrees_with_the_quadratic_root_at_n2(self, c):
        b = minimal_branch_scale(c)
        u = branch_solution(DIM2, c, grid_n=256)
        exact = 2.0 * np.log1p(b * u.nodes**2) - math.log(8.0 * b / c)
        assert np.max(np.abs(u.values - exact)) <= 1e-14

    @pytest.mark.parametrize("dim", [DIM2, DIM4, HessianDim(6, 3)], ids=lambda d: f"n{d.n}k{d.k}")
    @pytest.mark.parametrize("R, b", [(1.0, 0.0), (1e-3, 5.0), (10.0, -2.0)])
    def test_the_fold_carries_the_quantum(self, dim, R, b):
        # x = k at c = c*: u(0) = b - (k+1) log(1+k), u'(R) = 2k/R, and the
        # Hessian mass is the concentration quantum
        k = dim.k
        u = branch_solution(dim, fold_value(dim, R, b), R, b)
        assert u.values[0] == pytest.approx(b - (k + 1) * math.log1p(k), abs=1e-14)
        assert u.slope[-1] == pytest.approx(2.0 * k / R, rel=1e-15)
        assert hessian_mass(u) == pytest.approx(dim.concentration_quantum(), rel=1e-14)

    def test_zero_weight_is_the_boundary_constant(self):
        u = branch_solution(DIM4, 0.0, boundary=0.7, grid_n=256)
        assert np.all(u.values == 0.7) and np.all(u.slope == 0.0)

    @pytest.mark.parametrize("c", ["1", math.nan, math.inf, -1.0, None])
    def test_a_bad_weight_is_refused(self, c):
        with pytest.raises(InvalidArgumentError, match=f"^constant weight must be finite and nonnegative, got {c!r}$"):
            branch_solution(DIM2, c)

    def test_past_the_fold_is_refused_as_the_solve_refuses_it(self):
        with pytest.raises(NoSolutionError) as exc:
            branch_solution(DIM4, 30.0, R=0.5, boundary=-3.0)
        assert str(exc.value) == (
            "no fixed point: c = 30 is past the fold c* = 25.490979 of "
            "(n, k) = (4, 2) with R = 0.5 and boundary -3"
        )
        with pytest.raises(NoSolutionError, match="past the fold"):
            branch_solution(DIM2, 2.0 * (1.0 + 1e-11))
        # within the slack the branch is the one on the fold
        inside = branch_solution(DIM2, 2.0 * (1.0 + 1e-13), grid_n=256)
        assert np.array_equal(inside.values, branch_solution(DIM2, 2.0, grid_n=256).values)

    @pytest.mark.parametrize("c", [25.0, 30.0, 31.5, 31.9])
    def test_the_solve_returns_the_minimal_branch_at_n4(self, c):
        # A cold start from u = 0 ended on the upper branch at c = 31.9,
        # with u(0) = -3.4938 against -3.1062.  The distance to the closed
        # form is the grid's discretization error, measured at most 8.5e-9.
        u = solve_liouville(LiouvilleProblem(DIM4, lambda r: np.full_like(r, c), grid_n=2048))
        assert np.max(np.abs(u.values - branch_solution(DIM4, c, grid_n=2048).values)) <= 2e-8


class TestProblemValidation:
    def test_dimension_gate(self):
        with pytest.raises(UnsupportedDimensionError, match="2k = n"):
            LiouvilleProblem(HessianDim(3, 1), lambda r: np.ones_like(r))
        with pytest.raises(UnsupportedDimensionError, match="supported"):
            LiouvilleProblem(HessianDim(6, 3), lambda r: np.ones_like(r))

    def test_parameter_gates(self):
        with pytest.raises(InvalidArgumentError, match="radius"):
            constant_problem(1.0, R=0.0)
        with pytest.raises(InvalidArgumentError, match="exponent"):
            constant_problem(1.0, p=1.0)
        with pytest.raises(InvalidArgumentError, match="boundary"):
            constant_problem(1.0, boundary=math.inf)
        with pytest.raises(InvalidArgumentError, match="callable"):
            LiouvilleProblem(DIM2, 5.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"R": "1"}, "^radius must be positive, got '1'$"),
        ({"R": True}, "^radius must be positive, got True$"),
        ({"boundary": "0"}, "^boundary value must be finite, got '0'$"),
        ({"p": "2"}, "^integrability exponent must lie in \\(1, inf\\], got '2'$"),
        ({"grid_n": 2048.0}, "^grid size must be an integer >= 16, got 2048.0$"),
        ({"grid_n": True}, "^grid size must be an integer >= 16, got True$"),
    ], ids=["R-string", "R-bool", "boundary-string", "p-string", "grid-float", "grid-bool"])
    def test_non_real_scalars_are_refused_at_construction(self, kwargs, message):
        # each once raised a bare TypeError, or failed only at solve time
        with pytest.raises(InvalidArgumentError, match=message):
            constant_problem(1.0, **kwargs)

    def test_conjugate_exponent_and_threshold(self):
        assert constant_problem(1.0).p_prime == 1.0
        assert constant_problem(1.0, p=2.0).p_prime == 2.0
        assert constant_problem(1.0).threshold == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert constant_problem(1.0, p=2.0).threshold == pytest.approx(
            2.0 * math.pi, rel=1e-15
        )

    def test_negative_weight_rejected_at_solve_time(self):
        prob = LiouvilleProblem(DIM2, lambda r: -np.ones_like(r))
        with pytest.raises(InvalidArgumentError, match="nonnegative"):
            solve_liouville(prob)


class TestLocalMass:
    @pytest.mark.parametrize("V", [
        lambda r: np.ones(3), lambda r: 1.0, lambda r: -np.ones_like(r),
        lambda r: np.full_like(r, math.inf), lambda r: np.full_like(r, math.nan),
    ], ids=["short", "scalar", "negative", "inf", "nan"])
    def test_bad_weight_is_named(self, V):
        u = bubble_profile(2.0, grid_n=256)
        with pytest.raises(InvalidArgumentError) as exc:
            local_mass(u, V, 0.5)
        assert str(exc.value) == "V must be nonnegative, finite, and radial on the grid"

    def test_matches_the_measure_of_the_clipped_density(self):
        u = bubble_profile(2.0, grid_n=256)
        density = 2.0 * np.exp(np.minimum(-u.values, 700.0))
        mu = liouville_mod.RadialMeasure.from_density(DIM2, 1.0, u.nodes, density)
        assert local_mass(u, lambda r: np.full_like(r, 2.0), 0.5) == mu.cumulative_at(0.5)


class TestSmallness:
    def sweep(self):
        return solve_sequence([constant_problem(c) for c in (0.5, 1.0, 1.5, 1.9)])

    def test_sub_threshold_sweep_reports_a_bound(self):
        rec = smallness_check(self.sweep())
        assert rec.passed
        assert math.isfinite(rec.lhs) and rec.lhs <= 0.0
        assert rec.details["uniform_bound"] == -rec.lhs
        assert max(rec.details["masses"]) <= 0.9 * 4.0 * math.pi

    def test_budget_violation_is_a_precondition_error(self):
        # the minimal branch at c = 1.99 carries 11.678 > 0.9 * 4 pi = 11.310
        pairs = list(solve_sequence([constant_problem(c) for c in (0.5, 1.0, 1.5, 1.99)]))
        prob, u = pairs[-1]
        assert local_mass(u, prob.V, 1.0) > 0.9 * 4.0 * math.pi
        with pytest.raises(PreconditionError, match="exceeds"):
            smallness_check(pairs)

    def test_each_member_is_measured_over_its_own_ball(self):
        # the last member's mass over R = 1.411 is above 0.9 * 4 pi; over
        # the first member's R = 0.5 it would pass
        pairs = list(solve_sequence([LiouvilleProblem(DIM2, lambda r: np.ones_like(r), R=R) for R in (0.5, 1.0, 1.2, 1.411)]))
        prob, u = pairs[-1]
        assert local_mass(u, prob.V, 0.5) <= 0.9 * 4.0 * math.pi < local_mass(u, prob.V, prob.R)
        with pytest.raises(PreconditionError, match="exceeds"):
            smallness_check(pairs)
        rec = smallness_check(pairs[:3])
        assert rec.details["masses"] == [local_mass(u, prob.V, prob.R) for prob, u in pairs[:3]]

    def test_mixed_sweeps_rejected(self):
        u = solve_liouville(constant_problem(0.5))
        pairs = [(constant_problem(0.5), u), (constant_problem(0.5, p=2.0), u)]
        with pytest.raises(InvalidArgumentError, match="share"):
            smallness_check(pairs)


class TestClassification:
    def bubble_sweep(self, weight=1.0):
        lams = [2.0**j for j in range(1, 9)]
        problems = tuple(
            LiouvilleProblem(DIM2, lambda r, w=weight: np.full_like(r, w), label=f"lam={lam:g}")
            for lam in lams
        )
        return [(prob, bubble_profile(lam)) for prob, lam in zip(problems, lams)]

    def test_concentration_at_the_center(self):
        report = classify_alternative(self.bubble_sweep())
        assert report.classification == "concentration"
        assert report.blowup_radii == (0.0,)
        # The scale family's center mass tends to 8 pi, twice the
        # quantum 4 pi.
        assert report.atom_masses[0] == pytest.approx(8.0 * math.pi, rel=1e-2)
        assert report.atom_masses[0] >= report.threshold

    def test_atom_mass_is_the_last_members_local_mass(self):
        pairs = self.bubble_sweep()
        report = classify_alternative(iter(pairs))
        prob, u = pairs[-1]
        assert report.atom_masses == (local_mass(u, prob.V, 0.05),)

    def test_sub_quantum_atom_is_inconclusive(self):
        # Same profiles under a weight a tenth as large: the center
        # still sinks and the annulus still rises, but the limiting
        # atom stays below the quantum, so no classification is made.
        report = classify_alternative(self.bubble_sweep(weight=0.1))
        assert report.classification == "inconclusive"
        assert report.atom_masses[0] < report.threshold

    def test_uniform_divergence(self):
        # Lifting the boundary with a vanishing weight sends the whole
        # profile up: both probes rise without concentration.
        probs = [
            LiouvilleProblem(DIM2, lambda r, j=j: np.full_like(r, math.exp(-j)), boundary=float(j))
            for j in (5.0, 10.0, 15.0, 20.0)
        ]
        report = classify_alternative(solve_sequence(probs))
        assert report.classification == "uniform-divergence"
        assert report.margins["annulus_rise"] >= 5.0

    def test_bounded_sweep(self):
        probs = [constant_problem(1.0) for _ in range(4)]
        report = classify_alternative(solve_sequence(probs))
        assert report.classification == "bounded"
        assert report.margins["annulus_spread"] <= 1e-9

    def test_validation(self):
        short = self.bubble_sweep()[:3]
        with pytest.raises(InvalidArgumentError, match="^need at least 4 sweep members, got 3$"):
            classify_alternative(short)
        pairs = self.bubble_sweep()
        pairs[2] = (constant_problem(1.0, R=2.0), pairs[2][1])
        with pytest.raises(InvalidArgumentError, match="^sweep members must share \\(n, k\\), p', and R$"):
            classify_alternative(pairs)


class TestSweepStreams:
    """solve_sequence and the two sweep checks hold one member at a time."""

    def tracked_solves(self, monkeypatch):
        # for each solve, in call order: which earlier profiles are still
        # alive when it starts, and the index of the one it starts from
        log = []
        refs = []
        inner = liouville_mod.solve_liouville

        def tracked(prob, initial=None, **kwargs):
            start = None if initial is None else next(i for i, ref in enumerate(refs) if ref() is initial)
            log.append(([ref() is not None for ref in refs], start))
            u = inner(prob, initial=initial, **kwargs)
            refs.append(weakref.ref(u))
            return u

        monkeypatch.setattr(liouville_mod, "solve_liouville", tracked)
        return log, refs

    def problems(self, *cs):
        return [constant_problem(c, grid_n=256) for c in cs]

    def test_members_are_solved_as_the_consumer_advances(self, monkeypatch):
        log, _ = self.tracked_solves(monkeypatch)
        pairs = solve_sequence(self.problems(0.5, 1.0, 1.5))
        assert len(log) == 0
        first = next(pairs)
        assert len(log) == 1
        second = next(pairs)
        assert len(log) == 2
        assert [prob.V(np.ones(1))[0] for prob, _ in (first, second)] == [0.5, 1.0]
        assert len(list(pairs)) == 1 and len(log) == 3

    def test_a_dropped_member_is_freed_before_the_next_solve(self, monkeypatch):
        log, refs = self.tracked_solves(monkeypatch)
        for _prob, u in solve_sequence(self.problems(0.5, 1.0, 1.5)):
            del u
        assert [alive for alive, _ in log] == [[], [False], [False, False]]
        assert [start for _, start in log] == [None, None, None]
        assert all(ref() is None for ref in refs)

    def test_continuation_holds_only_the_previous_profile(self, monkeypatch):
        log, refs = self.tracked_solves(monkeypatch)
        for _prob, u in solve_sequence(self.problems(0.5, 1.0, 1.5), continuation=True):
            del u
        assert log == [([], None), ([True], 0), ([False, True], 1)]

    def test_smallness_holds_no_earlier_member_while_the_next_solves(self, monkeypatch):
        log, _ = self.tracked_solves(monkeypatch)
        smallness_check(solve_sequence(self.problems(0.5, 1.0, 1.5)))
        assert [alive for alive, _ in log] == [[], [False], [False, False]]

    def test_classify_holds_only_the_last_member_while_the_next_solves(self, monkeypatch):
        # the last pair is kept for the atom mass
        log, _ = self.tracked_solves(monkeypatch)
        probs = [
            LiouvilleProblem(DIM2, lambda r, j=j: np.full_like(r, math.exp(-j)), boundary=float(j), grid_n=256)
            for j in (5.0, 10.0, 15.0, 20.0)
        ]
        assert classify_alternative(solve_sequence(probs)).classification == "uniform-divergence"
        assert [alive for alive, _ in log] == [[], [True], [False, True], [False, False, True]]

    def test_an_empty_sweep_is_an_invalid_argument(self):
        with pytest.raises(InvalidArgumentError, match="^need a nonempty sweep$"):
            smallness_check(solve_sequence([]))
        with pytest.raises(InvalidArgumentError, match="^need at least 4 sweep members, got 0$"):
            classify_alternative(iter(()))

    @pytest.mark.parametrize("check", [smallness_check, classify_alternative])
    def test_a_members_no_solution_reaches_the_caller(self, monkeypatch, check):
        # member 2 is past its own fold and stalls in the loop: it has no
        # solution, and the member after it is never solved
        log, _ = self.tracked_solves(monkeypatch)
        problems = self.problems(0.5, 1.0, 1.5)
        problems.insert(2, rising_problem(1.8, grid_n=256))
        with pytest.raises(NoSolutionError, match="^no fixed point: stalled"):
            check(solve_sequence(problems))
        assert len(log) == 3


class TestHarnack:
    def test_quadratic_ratio_is_exact(self):
        u = make_profile(FamilySpec("quadratic"), DIM2, 1.0, 2048)
        rec = harnack_ratio(u, 0.4, density_bound=10.0, eps=2.0)
        assert rec.sup_abs == pytest.approx(0.5, rel=1e-15)
        assert rec.inf_abs == pytest.approx(0.42, rel=1e-15)
        assert rec.ratio == pytest.approx(1.0 / 0.84, rel=1e-12)

    def test_origin_atom_is_rejected(self):
        u = make_profile(FamilySpec("log"), DIM2, 1.0, 2048)
        with pytest.raises(PreconditionError, match="atom"):
            harnack_ratio(u, 0.4, density_bound=10.0, eps=2.0)

    def test_positive_values_are_rejected(self):
        from hessianlab import RadialMeasure, solve_dirichlet
        import hessianlab.quadrature as quadr

        nodes = quadr.radial_grid(1.0, 512)
        mu = RadialMeasure.from_density(DIM2, 1.0, nodes, np.full_like(nodes, 2.0))
        lifted = solve_dirichlet(mu, 1.0)
        with pytest.raises(PreconditionError, match="nonpositive"):
            harnack_ratio(lifted, 0.4, density_bound=10.0, eps=2.0)

    def test_density_hypothesis_enforced(self):
        # mu(B_s) ~ s^2 beats M s^3 near the origin, so eps = 3 puts
        # the quadratic profile outside the hypothesis class.
        u = make_profile(FamilySpec("quadratic"), DIM2, 1.0, 2048)
        with pytest.raises(PreconditionError, match="measure-density"):
            harnack_ratio(u, 0.4, density_bound=1e3, eps=3.0)

    def test_argument_validation(self):
        u = make_profile(FamilySpec("quadratic"), DIM2, 1.0, 256)
        with pytest.raises(InvalidArgumentError):
            harnack_ratio(u, 2.0, density_bound=1.0, eps=1.0)
        with pytest.raises(InvalidArgumentError):
            harnack_ratio(u, 0.4, density_bound=0.0, eps=1.0)
        with pytest.raises(InvalidArgumentError):
            harnack_ratio(u, 0.4, density_bound=1.0, eps=0.0)


class TestSingularComparison:
    @pytest.mark.parametrize("factor", [1.0, 2.0])
    def test_log_bound_holds(self, intermediate_dim, factor):
        rec = singular_comparison_check(intermediate_dim, atom_factor=factor)
        assert rec.passed
        assert rec.details["atom"] == pytest.approx(
            factor * intermediate_dim.concentration_quantum(1.0), rel=1e-15
        )

    def test_background_density_keeps_the_bound(self):
        rec = singular_comparison_check(DIM2, background=0.5)
        assert rec.passed

    def test_weaker_integrability_shifts_the_quantum(self):
        rec = singular_comparison_check(DIM2, p_prime=2.0)
        assert rec.passed
        assert rec.details["quantum"] == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_sub_quantum_atom_rejected(self):
        with pytest.raises(InvalidArgumentError, match="quantum"):
            singular_comparison_check(DIM2, atom_factor=0.5)
        with pytest.raises(InvalidArgumentError, match="background"):
            singular_comparison_check(DIM2, background=-1.0)

    @pytest.mark.parametrize("key, message", [
        ("atom_factor", "the bound needs a finite atom at or above the quantum, got factor {}"),
        ("background", "background density must be finite and nonnegative, got {}"),
    ])
    def test_nan_is_rejected_up_front(self, key, message):
        # NaN and inf once passed both range checks and failed inside the measure.
        for value in (math.nan, math.inf):
            with pytest.raises(InvalidArgumentError, match=f"^{message.format(value)}$"):
                singular_comparison_check(DIM2, **{key: value})


class TestRegularPointClassify:
    def test_quantum_split(self):
        labels = regular_point_classify(
            DIM2,
            [(0.0, 4.0 * math.pi), (0.2, 4.0 * math.pi - 1e-6), (0.5, 0.0)],
        )
        assert [lab["singular"] for lab in labels] == [True, False, False]
        assert labels[0]["threshold"] == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_weaker_integrability(self):
        labels = regular_point_classify(DIM2, [(0.0, 2.0 * math.pi)], p_prime=2.0)
        assert labels[0]["singular"]

    def test_no_atoms_means_all_regular(self):
        assert regular_point_classify(DIM2, []) == []

    def test_validation(self):
        with pytest.raises(InvalidArgumentError, match="mass"):
            regular_point_classify(DIM2, [(0.0, -1.0)])
        with pytest.raises(InvalidArgumentError, match="location"):
            regular_point_classify(DIM2, [(-0.5, 1.0)])
