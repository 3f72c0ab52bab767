"""Radial profiles, Hessian measures, the Dirichlet solve, and norms.

Oracles: an off-axis finite-difference Hessian of the full function of
x (no radial shortcut), scipy.integrate.quad for every integral that
has no closed form, and hand-derived closed forms for the canonical
families.
"""

from __future__ import annotations

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson
from scipy.integrate import quad as sciquad

from hessianlab import quadrature as quad
from hessianlab.core import HessianDim
from hessianlab.errors import (
    DegenerateProfileError,
    InvalidArgumentError,
    InvalidMeasureError,
    NotAdmissibleError,
    UnsupportedDimensionError,
)
from hessianlab.families import KINDS, FamilySpec, make_profile
from hessianlab.liouville import local_mass
from hessianlab.profile_io import save_profile
from hessianlab.radial import (
    RadialMeasure,
    _s_k_density,
    _s_k_second,
    _sampled,
    RadialProfile,
    domain_volume,
    exp_integral,
    hessian_integral,
    hessian_mass,
    level_set_radius,
    lp_norm,
    phi_norm,
    profile_from_slope,
    s_k_density,
    s_k_radial,
    solve_dirichlet,
    value_at,
    volume_integral,
    weak_lp_quasinorm,
)

D21 = HessianDim(2, 1)
D42 = HessianDim(4, 2)
D31 = HessianDim(3, 1)

RADII = [1e-6, 1.0, 1e6]


def canonical(kind: str, R: float) -> RadialProfile:
    """One profile of the kind on the ball of radius R; the power kinds
    live at (3, 1), the others at (2, 1)."""
    dim = D31 if kind in ("power", "newtonian") else D21
    spec = FamilySpec(kind, mollification=0.05 * R) if kind == "mollified-log" else FamilySpec(kind)
    return make_profile(spec, dim, R, grid_n=257)


def fd_hessian(fn, x0: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Full central-difference Hessian of fn: R^n -> R at x0."""
    n = x0.size
    H = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (fn(x0 + ei) - 2.0 * fn(x0) + fn(x0 - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            H[i, j] = H[j, i] = (
                fn(x0 + ei + ej) - fn(x0 + ei - ej) - fn(x0 - ei + ej) + fn(x0 - ei - ej)
            ) / (4.0 * h**2)
    return H


def sigma_k(eigs: np.ndarray, k: int) -> float:
    return float(sum(math.prod(sub) for sub in combinations(eigs.tolist(), k)))


class TestQuadratureKernel:
    @pytest.mark.parametrize("grid_n", [16, 17, 2048, 2049])
    def test_matches_scipy_on_geometric_grids(self, grid_n):
        nodes = quad.radial_grid(1.0, grid_n)
        samples = np.exp(-nodes) * np.cos(7.0 * nodes) + nodes**-0.5
        expected = cumulative_simpson(samples * nodes, x=np.log(nodes), initial=0.0)
        assert np.array_equal(quad.cumulative_from_left(nodes, samples), expected)
        assert quad.cumulative_from_right(nodes, samples)[0] == expected[-1]

    def test_matches_scipy_on_random_grid(self):
        rng = np.random.default_rng(20260)
        nodes = np.sort(rng.uniform(1e-3, 2.0, 301))
        samples = rng.normal(size=nodes.size)
        expected = cumulative_simpson(samples * nodes, x=np.log(nodes), initial=0.0)
        assert np.array_equal(quad.cumulative_from_left(nodes, samples), expected)

    @pytest.mark.parametrize("p", [-0.5, 0.0, 2.0])
    def test_origin_call_integrates_powers_from_zero(self, p):
        nodes = quad.radial_grid(1.0, 2048)
        got = quad.cumulative_from_origin(nodes, nodes**p)
        # the stub alone is exact for a power law
        assert got[0] == pytest.approx(nodes[0] ** (p + 1.0) / (p + 1.0), rel=1e-12)
        # Simpson error, fourth order in the log step 0.009
        assert np.allclose(got, nodes ** (p + 1.0) / (p + 1.0), rtol=1e-7, atol=0.0)

    @pytest.mark.parametrize("p", [-1.0, -1.5])
    def test_origin_call_flags_a_divergent_stub(self, p):
        nodes = quad.radial_grid(1.0, 64)
        assert np.all(quad.cumulative_from_origin(nodes, nodes**p) == math.inf)


def _scipy_cumulative(nodes, samples):
    return cumulative_simpson(samples * nodes, x=np.log(nodes), initial=0.0)


def _fresh_volume_integral(dim, nodes, g):
    # volume_integral's formula with r^(n-1) taken from the nodes given
    shell = dim.n * dim.ball_volume * g * nodes ** (dim.n - 1)
    return float(quad.cumulative_from_origin(nodes, shell)[-1])


class TestGridCache:
    """The per-grid cache serves a grid's stencils and derived values
    only to nodes equal to it."""

    def test_equal_copy_hits(self):
        nodes = quad.radial_grid(3.0, 2048)
        samples = np.exp(-nodes) + nodes**-0.5
        first = quad.cumulative_from_left(nodes, samples)
        assert quad._known_grid(nodes.copy()) is not None
        assert np.array_equal(quad.cumulative_from_left(nodes.copy(), samples), first)

    def test_same_key_other_interior_is_fresh(self):
        nodes = quad.radial_grid(3.0, 2048)
        samples = np.cos(5.0 * nodes) + 2.0
        quad.cumulative_from_left(nodes, samples)
        # same size and end nodes, one interior node moved
        moved = nodes.copy()
        moved[1000] = 0.5 * (nodes[999] + nodes[1001])
        got = quad.cumulative_from_left(moved, samples)
        assert np.array_equal(got, _scipy_cumulative(moved, samples))

    def test_nodes_mutated_in_place_are_fresh(self):
        nodes = quad.radial_grid(5.0, 64)
        samples = nodes**2 + 1.0
        quad.cumulative_from_left(nodes, samples)
        nodes[20] = 0.5 * (nodes[19] + nodes[21])
        got = quad.cumulative_from_left(nodes, samples)
        assert np.array_equal(got, _scipy_cumulative(nodes, samples))

    def test_cache_is_bounded(self):
        for i in range(50):
            quad.cumulative_from_left(quad.radial_grid(1.0 + i, 32 + i), np.ones(32 + i))
        assert len(quad._grids) <= quad._CACHE_SIZE

    def test_cache_with_derived_values_is_bounded(self, tmp_path):
        for i in range(3 * quad._CACHE_SIZE):
            nodes = quad.radial_grid(1.0 + i, 32 + i)
            volume_integral(D42, nodes, np.ones_like(nodes))
            save_profile(profile_from_slope(D21, float(nodes[-1]), nodes, nodes, 0.0), tmp_path / "u.json")
            assert set(quad._known_grid(nodes).derived) == {quad._GEOMETRIC, ("power", 4), "text"}
            assert len(quad._grids) <= quad._CACHE_SIZE

    def test_evicted_grid_rebuilds_its_values_bit_equal(self):
        nodes = quad.radial_grid(2.0, 512)
        g = np.exp(-nodes) + 1.0
        first = volume_integral(D42, nodes, g)
        power = quad._known_grid(nodes).derived[("power", 4)]
        assert not power.flags.writeable
        for i in range(quad._CACHE_SIZE):
            quad.cumulative_from_left(quad.radial_grid(3.0 + i, 64), np.ones(64))
        assert quad._known_grid(nodes) is None
        assert volume_integral(D42, nodes, g) == first
        assert quad._known_grid(nodes).derived[("power", 4)].tobytes() == power.tobytes()

    def test_nodes_mutated_in_place_get_fresh_powers(self):
        nodes = quad.radial_grid(5.0, 64)
        g = nodes**2 + 1.0
        volume_integral(D42, nodes, g)
        RadialMeasure.from_density(D42, 5.0, nodes, g)
        nodes[20] = 0.5 * (nodes[19] + nodes[21])
        assert volume_integral(D42, nodes, g) == _fresh_volume_integral(D42, nodes, g)
        mu = RadialMeasure.from_density(D42, 5.0, nodes, g)
        want = quad.cumulative_from_origin(nodes, D42.n * D42.ball_volume * g * nodes**3)
        assert mu.cumulative.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", ["zero", "repeated", "nan"])
    def test_bad_nodes_with_a_cached_key_are_rejected(self, bad):
        nodes = quad.radial_grid(1.0, 256)
        samples = np.ones_like(nodes)
        quad.cumulative_from_left(nodes, samples)
        wrong = nodes.copy()
        wrong[100] = {"zero": 0.0, "repeated": wrong[99], "nan": math.nan}[bad]
        assert (wrong.size, wrong[0], wrong[-1]) == (nodes.size, nodes[0], nodes[-1])
        with pytest.raises(InvalidArgumentError):
            quad.cumulative_from_left(wrong, samples)
        with pytest.raises(InvalidArgumentError):
            quad.cumulative_from_origin(wrong, samples)
        with pytest.raises(InvalidArgumentError, match="grid nodes"):
            RadialProfile(D21, 1.0, wrong, nodes**2 - 1.0, 2.0 * nodes, 0.0)

    def test_rejected_nan_grid_leaves_the_real_grid_cached(self):
        nodes = quad.radial_grid(1.0, 16)
        quad.cumulative_from_left(nodes, np.ones(16))
        wrong = nodes.copy()
        wrong[5] = math.nan
        try:
            quad.cumulative_from_left(wrong, np.ones(16))
        except InvalidArgumentError:
            pass
        assert quad._known_grid(quad.radial_grid(1.0, 16)) is not None

    def test_concurrent_lookups_stay_exact(self):
        # more threads than cores and more grids than the bound, with a
        # short switch interval so inserts and evictions interleave
        grids = [quad.radial_grid(1.0, 40 + i) for i in range(3 * quad._CACHE_SIZE)]
        jobs = [grids[i % len(grids)] for i in range(4000)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(quad.cumulative_from_left, x, np.sin(x) + 2.0) for x in jobs]
                volumes = [pool.submit(volume_integral, D42, x, np.sin(x) + 2.0) for x in jobs]
                results = [f.result(timeout=60) for f in futures]
                volumes = [f.result(timeout=60) for f in volumes]
        finally:
            sys.setswitchinterval(interval)
        for x, got, volume in zip(jobs, results, volumes):
            assert np.array_equal(got, _scipy_cumulative(x, np.sin(x) + 2.0))
            assert volume == _fresh_volume_integral(D42, x, np.sin(x) + 2.0)
        assert len(quad._grids) <= quad._CACHE_SIZE


class TestGridMemo:
    """radial_grid serves each geometric grid from the per-grid cache,
    as a fresh writable copy."""

    # the fixed inner cutoff stays a parameter, so each case's id names it
    @pytest.mark.parametrize("R, grid_n, rmin", [
        (R, grid_n, quad.DEFAULT_RMIN_FACTOR)
        for R, grid_n in ((1.0, 2048), (1e-6, 8192), (1e6, 64), (2.5, 16), (7, 100))
    ])
    def test_bitwise_geomspace(self, R, grid_n, rmin):
        expected = np.geomspace(rmin * R, R, grid_n)
        for _ in range(2):
            got = quad.radial_grid(R, grid_n)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    def test_each_call_is_a_fresh_writable_copy(self):
        first = quad.radial_grid(3.0, 512)
        assert first.flags.writeable
        expected = first.copy()
        first[:] = -1.0
        second = quad.radial_grid(3.0, 512)
        assert second is not first
        assert np.array_equal(second, expected)

    def test_memo_is_bounded(self):
        for i in range(3 * quad._CACHE_SIZE):
            quad.radial_grid(1.0 + i, 32 + i)
        assert len(quad._grids) <= quad._CACHE_SIZE

    def test_threads_get_exact_copies(self):
        # more threads than cores and more keys than the bound, with a
        # short switch interval so inserts and evictions interleave
        keys = [(1.0 + i, 40 + i) for i in range(3 * quad._CACHE_SIZE)]
        jobs = [keys[i % len(keys)] for i in range(2000)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(quad.radial_grid, *key) for key in jobs]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (R, grid_n), got in zip(jobs, results):
            assert got.tobytes() == np.geomspace(quad.DEFAULT_RMIN_FACTOR * R, R, grid_n).tobytes()
        assert len({id(got) for got in results}) == len(results)
        assert len(quad._grids) <= quad._CACHE_SIZE

    def test_threads_never_get_a_moved_grid(self):
        # grids with one interior node moved share each key, and are
        # cached by other threads between the radial_grid calls
        keys = [(1.0 + i, 40 + i) for i in range(3 * quad._CACHE_SIZE)]
        wants = {key: np.geomspace(quad.DEFAULT_RMIN_FACTOR * key[0], key[0], key[1]) for key in keys}
        moved = {}
        for key, want in wants.items():
            moved[key] = want.copy()
            moved[key][5] = 0.5 * (want[4] + want[6])
        jobs = [keys[i % len(keys)] for i in range(2000)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(quad.radial_grid, *key) for key in jobs]
                others = [pool.submit(quad.cumulative_from_left, moved[key], np.ones(key[1])) for key in jobs]
                results = [f.result(timeout=60) for f in futures]
                for f in others:
                    f.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        for key, got in zip(jobs, results):
            assert got.tobytes() == wants[key].tobytes()
        assert len(quad._grids) <= quad._CACHE_SIZE

    @pytest.mark.parametrize("first", ["moved", "geometric"])
    def test_a_moved_grid_under_the_key_is_never_served(self, first):
        R, grid_n = 4.25, 515
        want = np.geomspace(quad.DEFAULT_RMIN_FACTOR * R, R, grid_n)
        moved = want.copy()
        moved[200] = 0.5 * (want[199] + want[201])
        assert (moved.size, moved[0], moved[-1]) == (grid_n, quad.DEFAULT_RMIN_FACTOR * R, R)
        if first == "geometric":
            quad.radial_grid(R, grid_n)
        quad.cumulative_from_left(moved, np.ones(grid_n))
        assert quad._known_grid(moved) is not None
        for _ in range(2):
            assert quad.radial_grid(R, grid_n).tobytes() == want.tobytes()
        assert quad._GEOMETRIC in quad._known_grid(want).derived

    def test_grid_is_served_from_the_cache_entry(self):
        nodes = quad.radial_grid(6.5, 300)
        entry = quad._known_grid(nodes)
        assert entry.derived[quad._GEOMETRIC] is True
        assert quad.radial_grid(6.5, 300).tobytes() == entry.nodes.tobytes()
        assert quad._known_grid(nodes) is entry

    @pytest.mark.parametrize("args", [(0.0, 64), (math.inf, 64), (1.0, 8), (1.0, 64.0)])
    def test_bad_arguments_are_rejected_after_a_hit(self, args):
        quad.radial_grid(1.0, 64)
        with pytest.raises(InvalidArgumentError):
            quad.radial_grid(*args)


_FORMULA_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300]) | st.floats(-1e6, 1e6)


class TestFormulaBothWays:
    """_s_k_second is _s_k_density solved for u''."""

    @settings(max_examples=200, deadline=None)
    @given(
        nk=st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        size=st.integers(1, 12),
        data=st.data(),
    )
    def test_keeps_the_bits_of_the_inline_inversion(self, nk, size, data):
        n, k = nk
        density = np.array(data.draw(st.lists(_FORMULA_FLOATS, min_size=size, max_size=size)))
        ratio = np.array(data.draw(st.lists(_FORMULA_FLOATS, min_size=size, max_size=size)))
        with np.errstate(all="ignore"):
            # the inversion as it was written inline in verify_gk
            lead = math.comb(n - 1, k - 1) * ratio ** (k - 1)
            want = (density - math.comb(n - 1, k) * ratio**k) / lead
            got = _s_k_second(HessianDim(n, k), density, ratio)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("nk", [(2, 1), (3, 1), (4, 2), (6, 3), (8, 4), (5, 5)])
    def test_inverts_the_density(self, nk):
        dim = HessianDim(*nk)
        ratio = np.linspace(0.5, 3.0, 7)
        second = np.linspace(-0.2, 4.0, 7)
        density = _s_k_density(dim, second, ratio)
        assert np.allclose(_s_k_second(dim, density, ratio), second, rtol=1e-12, atol=1e-12)


class TestSampled:
    def test_returns_the_samples_as_floats(self):
        nodes = quad.radial_grid(1.0, 64)
        got = _sampled(lambda r: (r > 0.5).astype(int), nodes)
        assert got.dtype == float and np.array_equal(got, (nodes > 0.5).astype(float))

    @pytest.mark.parametrize("positive, word", [(False, "nonnegative"), (True, "strictly positive")])
    @pytest.mark.parametrize("fn", [
        lambda r: np.ones(3), lambda r: -np.ones_like(r), lambda r: np.full_like(r, math.nan),
        lambda r: np.full_like(r, math.inf),
    ], ids=["shape", "negative", "nan", "inf"])
    def test_bad_samples_are_named(self, fn, positive, word):
        with pytest.raises(InvalidArgumentError) as exc:
            _sampled(fn, quad.radial_grid(1.0, 64), "weight", positive)
        assert str(exc.value) == f"weight must be {word}, finite, and radial on the grid"

    def test_zero_is_refused_only_when_positive(self):
        nodes = quad.radial_grid(1.0, 64)
        assert not _sampled(np.zeros_like, nodes).any()
        with pytest.raises(InvalidArgumentError, match="density must be strictly positive"):
            _sampled(np.zeros_like, nodes, positive=True)


class TestAgainstFullHessian:
    """The radial S_k formula against the off-axis FD oracle for
    U(x) = |x|^4, whose Hessian has eigenvalues 12r^2 and 4r^2."""

    @pytest.mark.parametrize(
        "dim,x0",
        [
            (D31, np.array([0.3, 0.4, 0.5])),
            (D42, np.array([0.3, 0.4, 0.5, 0.1])),
            (D21, np.array([0.3, 0.4])),
        ],
        ids=["n3k1", "n4k2", "n2k1"],
    )
    def test_quartic_profile(self, dim, x0):
        r0 = float(np.linalg.norm(x0))
        H = fd_hessian(lambda x: float(np.dot(x, x)) ** 2, x0)
        oracle = sigma_k(np.linalg.eigvalsh(H), dim.k)

        nodes = np.geomspace(1e-3, 1.0, 4096)
        u = profile_from_slope(dim, 1.0, nodes, 4.0 * nodes**3, 0.0, values=nodes**4 - 1.0)
        got = float(np.interp(r0, nodes, s_k_density(u)))
        assert got == pytest.approx(oracle, rel=1e-5)

    def test_quartic_closed_form(self):
        # eigenvalues (12r^2, 4r^2 x3) at n=4 give sigma_2 = 192 r^4
        x0 = np.array([0.3, 0.4, 0.5, 0.1])
        H = fd_hessian(lambda x: float(np.dot(x, x)) ** 2, x0)
        r0sq = float(np.dot(x0, x0))
        assert sigma_k(np.linalg.eigvalsh(H), 2) == pytest.approx(192.0 * r0sq**2, rel=1e-5)


class TestCanonicalMeasures:
    def test_quadratic_density_constant(self, intermediate_dim):
        dim = intermediate_dim
        for c in (0.5, 1.0, 2.0):
            u = make_profile(FamilySpec("quadratic", amplitude=c), dim)
            mu = s_k_radial(u)
            expected = dim.n_choose_k * c**dim.k
            assert mu.atom == 0.0
            assert np.max(np.abs(s_k_density(u) - expected)) <= 1e-10 * expected
            # mass identity: m(r) = C(n,k) omega_n c^k r^n, exact
            closed = dim.n_choose_k * dim.ball_volume * c**dim.k * mu.nodes**dim.n
            assert np.max(np.abs(mu.cumulative - closed)) <= 1e-12 * closed[-1]

    def test_log_fundamental_atom(self):
        # S_k[log r] = C(n,k) omega_n delta_0 in the intermediate regime
        for dim, expected in ((D21, 2.0 * math.pi), (D42, 3.0 * math.pi**2)):
            mu = s_k_radial(make_profile(FamilySpec("log"), dim))
            assert mu.atom == pytest.approx(expected, rel=1e-9)
            assert np.max(np.abs(mu.cumulative - expected)) <= 1e-8 * expected

    def test_newtonian_atom(self):
        # u = -c(1/r - 1/R) at (3,1) carries mass 4 pi c at the origin
        for c in (1.0, 3.0):
            mu = s_k_radial(make_profile(FamilySpec("newtonian", amplitude=c), D31))
            assert mu.atom == pytest.approx(4.0 * math.pi * c, rel=1e-9)
            assert np.max(np.abs(mu.cumulative - mu.atom)) <= 1e-9 * mu.atom

    def test_profile_scaling_law(self, intermediate_dim):
        # slope scales linearly, so the measure scales by t^k
        dim = intermediate_dim
        base = s_k_radial(make_profile(FamilySpec("quadratic", amplitude=1.0), dim))
        scaled = s_k_radial(make_profile(FamilySpec("quadratic", amplitude=3.0), dim))
        assert scaled.total == pytest.approx(3.0**dim.k * base.total, rel=1e-12)


class TestDirichletSolve:
    @pytest.mark.parametrize("dim", [D21, D42, D31], ids=["n2k1", "n4k2", "n3k1"])
    def test_roundtrip_quadratic(self, dim):
        u = make_profile(FamilySpec("quadratic", amplitude=1.5), dim)
        v = solve_dirichlet(s_k_radial(u), 0.0)
        scale = float(np.max(np.abs(u.values)))
        assert np.max(np.abs(u.values - v.values)) <= 1e-8 * scale

    @pytest.mark.parametrize("dim", [D21, D42], ids=["n2k1", "n4k2"])
    def test_fundamental_atom_gives_log(self, dim):
        nodes = quad.radial_grid(1.0, 2048)
        atom = dim.n_choose_k * dim.ball_volume
        mu = RadialMeasure.from_atom(dim, 1.0, nodes, atom)
        u = solve_dirichlet(mu, 0.0)
        mask = nodes >= 1e-6
        err = np.max(np.abs(u.values[mask] - np.log(nodes[mask])))
        assert err <= 1e-6
        assert u.unbounded_origin

    def test_atom_plus_background(self):
        # atom + constant background solves to log + quadratic exactly
        dim = D21
        nodes = quad.radial_grid(1.0, 2048)
        mu = RadialMeasure.from_parts(dim, 1.0, nodes, 2.0 * math.pi, np.full_like(nodes, 2.0))
        u = solve_dirichlet(mu, 0.0)
        # m(r) = 2 pi + 2 pi r^2 so u' = 1/r + ... no closed form splits;
        # verify by measure roundtrip instead
        mu2 = s_k_radial(u)
        assert np.max(np.abs(mu2.cumulative - mu.cumulative)) <= 1e-8 * mu.total

    def test_boundary_datum_shifts_values(self):
        mu = s_k_radial(make_profile(FamilySpec("quadratic"), D21))
        u0 = solve_dirichlet(mu, 0.0)
        u5 = solve_dirichlet(mu, 5.0)
        assert np.max(np.abs((u5.values - u0.values) - 5.0)) <= 1e-12


class TestMeasureContainer:
    def test_from_atom_and_cumulative_at(self):
        nodes = quad.radial_grid(1.0, 256)
        mu = RadialMeasure.from_atom(D21, 1.0, nodes, 7.0)
        assert mu.total == 7.0
        assert mu.cumulative_at(1e-12) == 7.0
        assert mu.cumulative_at(0.0) == 0.0
        assert mu.cumulative_at(-1.0) == 0.0
        assert mu.cumulative_at(0.5) == 7.0

    def test_from_density_matches_quad(self):
        nodes = quad.radial_grid(1.0, 2048)
        g = 1.0 + nodes**2
        mu = RadialMeasure.from_density(D21, 1.0, nodes, g)
        oracle = sciquad(lambda r: 2.0 * math.pi * r * (1.0 + r * r), 0.0, 1.0)[0]
        assert mu.total == pytest.approx(oracle, rel=2e-7)
        i = 1200
        node_val = sciquad(lambda r: 2.0 * math.pi * r * (1.0 + r * r), 0.0, float(nodes[i]))[0]
        assert mu.cumulative_at(float(nodes[i])) == pytest.approx(node_val, rel=2e-7)
        mid = sciquad(lambda r: 2.0 * math.pi * r * (1.0 + r * r), 0.0, 0.37)[0]
        # off-node evaluation interpolates and carries O(h^2) bias
        assert mu.cumulative_at(0.37) == pytest.approx(mid, rel=2e-4)

    def test_rejects_bad_measures(self):
        nodes = quad.radial_grid(1.0, 256)
        with pytest.raises(InvalidMeasureError):
            RadialMeasure.from_density(D21, 1.0, nodes, -np.ones_like(nodes))
        with pytest.raises(InvalidMeasureError):
            RadialMeasure.from_atom(D21, 1.0, nodes, -1.0)
        with pytest.raises(InvalidMeasureError):
            RadialMeasure(
                dim=D21,
                R=1.0,
                nodes=nodes,
                atom=0.0,
                cumulative=np.linspace(1.0, 0.0, nodes.size),
            )


class TestProfileValidation:
    def test_rejects_decreasing_values(self):
        nodes = quad.radial_grid(1.0, 256)
        with pytest.raises(NotAdmissibleError):
            RadialProfile(
                dim=D21,
                R=1.0,
                nodes=nodes,
                values=np.linspace(0.0, -1.0, nodes.size),
                slope=np.ones_like(nodes),
                boundary=0.0,
            )

    def test_rejects_negative_slope(self):
        nodes = quad.radial_grid(1.0, 256)
        with pytest.raises(NotAdmissibleError):
            RadialProfile(
                dim=D21,
                R=1.0,
                nodes=nodes,
                values=np.linspace(-1.0, 0.0, nodes.size),
                slope=-np.ones_like(nodes),
                boundary=0.0,
            )

    @pytest.mark.parametrize("boundary", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_boundary(self, boundary):
        # abs(nan) > tol is False, so a NaN boundary would pass as zero downstream.
        nodes = quad.radial_grid(1.0, 256)
        with pytest.raises(InvalidArgumentError, match="boundary value must be finite"):
            RadialProfile(
                dim=D21,
                R=1.0,
                nodes=nodes,
                values=0.5 * (nodes**2 - 1.0),
                slope=nodes,
                boundary=boundary,
            )

    def test_rejects_inadmissible_mass_profile(self):
        # decreasing cumulative mass must be caught by s_k_radial
        nodes = quad.radial_grid(1.0, 256)
        slope = np.where(nodes < 0.5, nodes, 0.1 * nodes)
        values = quad.cumulative_from_left(nodes, slope)
        values -= values[-1]
        u = RadialProfile(
            dim=D21, R=1.0, nodes=nodes, values=values, slope=slope, boundary=0.0
        )
        with pytest.raises(NotAdmissibleError):
            s_k_radial(u)


class TestLevelSets:
    def test_closed_form_kinds(self):
        cases = [
            (make_profile(FamilySpec("log", amplitude=2.0), D21), lambda t: math.exp(-t / 2.0)),
            (
                make_profile(FamilySpec("quadratic", amplitude=2.0), D42),
                lambda t: math.sqrt(max(1.0 - t, 0.0)),
            ),
            (
                make_profile(FamilySpec("newtonian", amplitude=1.0), D31),
                lambda t: 1.0 / (t + 1.0),
            ),
        ]
        for u, inverse in cases:
            for t in (0.1, 0.5, 1.0, 2.0):
                assert level_set_radius(u, t) == pytest.approx(inverse(t), abs=1e-15)

    @pytest.mark.parametrize("R", RADII)
    @pytest.mark.parametrize("kind", KINDS)
    def test_value_inverts_level_set(self, kind, R):
        u = canonical(kind, R)
        for t in np.linspace(0.1, 0.9, 5) * min(-u.min_value(), 20.0):
            rho = level_set_radius(u, float(t))
            # u(rho) moves by rho u'(rho) per unit relative change of rho
            cond = 1.0 + rho * float(np.interp(rho, u.nodes, u.slope))
            assert abs(value_at(u, rho) + t) <= 1e-12 * t + 1e-14 * cond

    def test_mollified_log_inversion(self):
        eps = 0.05
        u = make_profile(FamilySpec("mollified-log", amplitude=1.0, mollification=eps), D21)
        t = 1.3
        r = level_set_radius(u, t)
        # definition check: u(r) = -t
        assert value_at(u, r) == pytest.approx(-t, abs=1e-14)

    def test_generic_profile_matches_analytic(self):
        # strip the kind tag to force the grid path
        base = make_profile(FamilySpec("quadratic", amplitude=2.0), D21)
        u = RadialProfile(
            dim=base.dim,
            R=base.R,
            nodes=base.nodes,
            values=base.values,
            slope=base.slope,
            boundary=base.boundary,
        )
        for t in (0.2, 0.7):
            assert level_set_radius(u, t) == pytest.approx(math.sqrt(1.0 - t), rel=1e-4)

    def test_level_validation(self):
        u = make_profile(FamilySpec("quadratic"), D21)
        with pytest.raises(InvalidArgumentError):
            level_set_radius(u, 0.0)
        with pytest.raises(InvalidArgumentError):
            level_set_radius(u, math.nan)
        # deeper than the profile: empty sublevel set
        assert level_set_radius(u, 100.0) == 0.0


class TestValueAt:
    def test_closed_forms(self):
        u = make_profile(FamilySpec("quadratic", amplitude=3.0), D42)
        assert value_at(u, 0.0) == pytest.approx(-1.5, rel=1e-15)
        assert value_at(u, 0.4) == pytest.approx(3.0 * (0.16 - 1.0) / 2.0, rel=1e-15)
        ulog = make_profile(FamilySpec("log"), D21)
        assert value_at(ulog, 0.25) == pytest.approx(math.log(0.25), rel=1e-15)
        assert value_at(ulog, 0.0) == -math.inf

    @pytest.mark.parametrize("R", RADII)
    @pytest.mark.parametrize("kind", KINDS)
    def test_closed_form_matches_nodes(self, kind, R):
        u = canonical(kind, R)
        assert [value_at(u, float(r)) for r in u.nodes] == u.values.tolist()

    def test_generic_interpolation(self):
        base = make_profile(FamilySpec("quadratic"), D21)
        u = RadialProfile(
            dim=base.dim,
            R=base.R,
            nodes=base.nodes,
            values=base.values,
            slope=base.slope,
            boundary=base.boundary,
        )
        i = 1000
        assert value_at(u, float(u.nodes[i])) == pytest.approx(float(u.values[i]), rel=1e-12)
        with pytest.raises(InvalidArgumentError):
            value_at(u, 2.0)

    @pytest.mark.parametrize("r", [-0.1, 1.5, math.nan])
    @pytest.mark.parametrize("at", [value_at, lambda u, r: local_mass(u, np.ones_like, r)])
    def test_value_and_local_mass_give_one_radius_message(self, at, r):
        u = make_profile(FamilySpec("quadratic"), D21)
        with pytest.raises(InvalidArgumentError) as err:
            at(u, r)
        assert str(err.value) == f"need 0 <= r <= 1, got {r!r}"


class TestNorms:
    def test_newtonian_l1_oracle(self):
        u = make_profile(FamilySpec("newtonian"), D31)
        oracle = sciquad(lambda r: 4.0 * math.pi * r * r * (1.0 / r - 1.0), 0.0, 1.0)[0]
        assert oracle == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)
        assert lp_norm(u, 1.0) == pytest.approx(oracle, rel=2e-7)

    def test_newtonian_lp_ladder(self):
        u = make_profile(FamilySpec("newtonian"), D31)
        vol = domain_volume(D31, 1.0)
        normed = [lp_norm(u, p) / vol ** (1.0 / p) for p in (1.0, 2.0, 2.9)]
        assert all(np.isfinite(normed))
        assert normed[0] < normed[1] < normed[2]
        assert lp_norm(u, 3.0) == math.inf
        assert lp_norm(u, 3.5) == math.inf

    def test_newtonian_weak_endpoint(self):
        # sup_t t |{u < -t}|^(1/3) = omega_3^(1/3) c; mass = 4 pi c
        for c in (1.0, 2.5):
            u = make_profile(FamilySpec("newtonian", amplitude=c), D31)
            expected = (4.0 * math.pi / 3.0) ** (1.0 / 3.0) * c
            assert weak_lp_quasinorm(u, 3.0) == pytest.approx(expected, rel=1e-9)
            ratio = weak_lp_quasinorm(u, 3.0) / hessian_mass(u)
            assert ratio == pytest.approx(
                (4.0 * math.pi / 3.0) ** (1.0 / 3.0) / (4.0 * math.pi), rel=1e-6
            )

    def test_weak_above_endpoint_diverges(self):
        u = make_profile(FamilySpec("newtonian"), D31)
        assert weak_lp_quasinorm(u, 3.5) == math.inf

    def test_norm_validation(self):
        u = make_profile(FamilySpec("quadratic"), D21)
        with pytest.raises(InvalidArgumentError, match=r"^exponent p must satisfy p >= 1, got 0\.5$"):
            lp_norm(u, 0.5)
        with pytest.raises(InvalidArgumentError, match="^exponent p must satisfy p >= 1, got nan$"):
            weak_lp_quasinorm(u, math.nan)


class TestExponentialMoment:
    def test_log_family_closed_form(self, intermediate_dim):
        dim = intermediate_dim
        a0 = dim.moser_constant
        vol = domain_volume(dim, 1.0)
        for lam_frac in (0.25, 0.5, 0.75):
            lam = lam_frac * a0
            values = [
                exp_integral(make_profile(FamilySpec("log", amplitude=c), dim), lam, dim.beta_max)
                for c in (0.5, 1.0, 2.0)
            ]
            expected = vol * a0 / (a0 - lam)
            for v in values:
                assert v == pytest.approx(expected, rel=1e-6)
            # amplitude independence is exact for the canonical family
            assert max(values) - min(values) <= 1e-12 * expected

    def test_log_family_quad_oracle(self):
        # n=2: integrand is (1/r)^(lam/2pi); quad integrates it directly
        lam = 2.0 * math.pi
        u = make_profile(FamilySpec("log"), D21)
        oracle = sciquad(lambda r: 2.0 * math.pi * r * r ** (-lam / (2.0 * math.pi)), 0.0, 1.0)[0]
        assert oracle == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert exp_integral(u, lam, 2.0) == pytest.approx(oracle, rel=1e-10)

    def test_divergence_at_coefficient(self, intermediate_dim):
        dim = intermediate_dim
        u = make_profile(FamilySpec("log"), dim)
        assert exp_integral(u, dim.moser_constant, dim.beta_max) == math.inf

    def test_mollified_stays_below_ceiling_value(self):
        u = make_profile(FamilySpec("mollified-log", mollification=0.05), D21)
        a0 = D21.moser_constant
        ceiling = domain_volume(D21, 1.0) * a0 / (a0 - a0 / 2.0)
        assert exp_integral(u, a0 / 2.0, 2.0) < ceiling

    def test_validation(self):
        u = make_profile(FamilySpec("log"), D21)
        with pytest.raises(UnsupportedDimensionError):
            exp_integral(make_profile(FamilySpec("newtonian"), D31), 1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            exp_integral(u, 1.0, 5.0)
        with pytest.raises(InvalidArgumentError):
            exp_integral(u, -1.0, 2.0)
        shifted = solve_dirichlet(s_k_radial(u), 3.0)
        with pytest.raises(InvalidArgumentError):
            exp_integral(shifted, 1.0, 2.0)


class TestEnergyFunctionals:
    def test_quadratic_energy_oracle(self):
        # int (-u) dmu for u = c(r^2 - R^2)/2, dmu = C(n,k) c^k dx
        dim, c = D21, 1.0
        u = make_profile(FamilySpec("quadratic", amplitude=c), dim)
        oracle = sciquad(
            lambda r: 2.0 * math.pi * r * 2.0 * c * c * (1.0 - r * r) / 2.0, 0.0, 1.0
        )[0]
        assert hessian_integral(u) == pytest.approx(oracle, rel=5e-7)
        assert phi_norm(u) == pytest.approx(oracle ** (1.0 / (dim.k + 1)), rel=5e-7)

    def test_log_energy_diverges(self):
        assert hessian_integral(make_profile(FamilySpec("log"), D21)) == math.inf
        assert phi_norm(make_profile(FamilySpec("log"), D21)) == math.inf

    def test_volume_integral_vs_quad(self):
        nodes = quad.radial_grid(1.0, 2048)
        g = np.exp(-(nodes**2))
        got = volume_integral(D42, nodes, g)
        oracle = sciquad(lambda r: 2.0 * math.pi**2 * r**3 * math.exp(-r * r), 0.0, 1.0)[0]
        assert got == pytest.approx(oracle, rel=2e-7)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        R=st.sampled_from([1e-3, 1.0, 7.5]),
        width=st.floats(0.01, 1.0),
        zeros=st.tuples(st.integers(0, 255), st.integers(0, 64)),
    )
    def test_volume_integral_keeps_the_formula_bits(self, n, R, width, zeros):
        # n omega_n g r^(n-1) in this product order, as volume_integral
        # formed it per call before r^(n-1) was kept with the grid
        dim = HessianDim(n, 1)
        nodes = quad.radial_grid(R, 256)
        g = 2.0 + np.exp(-((nodes / R) ** 2) / (2.0 * width**2))
        start, count = zeros
        g[start : start + count] = 0.0
        expected = _fresh_volume_integral(dim, nodes, g)
        # the later calls read r^(n-1) from the grid's cache entry
        for x in (nodes, nodes, nodes.copy()):
            assert volume_integral(dim, x, g) == expected

    def test_domain_volume(self):
        assert domain_volume(D21, 2.0) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert domain_volume(D42, 1.0) == pytest.approx(math.pi**2 / 2.0, rel=1e-15)


@settings(max_examples=25, deadline=None)
@given(
    c=st.floats(min_value=0.05, max_value=20.0),
    boundary=st.floats(min_value=-3.0, max_value=3.0),
)
def test_roundtrip_property(c, boundary):
    """solve_dirichlet inverts s_k_radial for smooth admissible data."""
    u = make_profile(FamilySpec("quadratic", amplitude=c), D42)
    shifted = RadialProfile(
        dim=u.dim,
        R=u.R,
        nodes=u.nodes,
        values=u.values + boundary,
        slope=u.slope,
        boundary=boundary,
        kind=u.kind,
        params=u.params,
    )
    v = solve_dirichlet(s_k_radial(shifted), boundary)
    # solver error scales with the slope amplitude, not the sup of u
    assert np.max(np.abs(shifted.values - v.values)) <= 1e-7 * max(1.0, c)


# Parent-code pins.  The functions below are the code that the Simpson
# kernel, RadialMeasure.from_parts and the profile and measure checks
# replaced, kept verbatim as references: the current code must give the
# same floats bit for bit and the same exception class and message.

_MONOTONE_SLACK = 1e-9


def _reference_cumulative(grid, y):
    f = y * grid.nodes
    near, mid, far = f[:-2:2], f[1:-1:2], f[2::2]
    out = np.empty(f.size)
    out[0] = 0.0
    a, b, c, d = grid.forward
    out[1:-1:2] = a * (b * near + c * mid - d * far)
    a, b, c, d = grid.backward
    out[2::2] = a * (b * far + c * mid - d * near)
    a, b, c, d = grid.last
    out[-1] = a * (b * f[-1] + c * f[-2] - d * f[-3])
    np.cumsum(out[1:], out=out[1:])
    return out


def _reference_measure(nodes, atom, cumulative):
    """The checks and stored (atom, cumulative) of RadialMeasure.__post_init__."""
    nodes = np.asarray(nodes, dtype=float)
    cumulative = np.asarray(cumulative, dtype=float)
    if nodes.ndim != 1 or cumulative.shape != nodes.shape:
        raise InvalidArgumentError("measure arrays must be matching 1-d arrays")
    if atom < 0 or not np.isfinite(atom):
        raise InvalidMeasureError(f"atom must be finite and >= 0, got {atom!r}")
    scale = max(float(cumulative[-1]), 1.0)
    step = np.min(np.diff(cumulative))
    if step < -_MONOTONE_SLACK * scale:
        raise InvalidMeasureError("cumulative mass must be nondecreasing")
    if not step >= 0:
        cumulative = np.maximum.accumulate(cumulative)
    return float(atom), cumulative


def _reference_from_parts(dim, R, nodes, atom, density):
    nodes = np.asarray(nodes, dtype=float)
    f = density(nodes) if callable(density) else np.asarray(density, dtype=float)
    f = np.broadcast_to(np.asarray(f, dtype=float), nodes.shape)
    if np.any(f < 0) or not np.all(np.isfinite(f)):
        raise InvalidMeasureError("density must be finite and nonnegative")
    n = dim.n
    shell = dim.ball_volume * n * f * nodes ** (n - 1)
    mass = quad.cumulative_from_origin(nodes, shell)
    # mass[0] is the origin stub alone
    if not np.isfinite(mass[0]):
        raise InvalidMeasureError("density is not integrable near the origin")
    return _reference_measure(nodes, float(atom), float(atom) + mass)


def _reference_profile(R, nodes, values, slope, boundary):
    """The checks of RadialProfile.__post_init__."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    slope = np.asarray(slope, dtype=float)
    if not np.isfinite(R) or R <= 0:
        raise InvalidArgumentError(f"radius must be positive, got {R!r}")
    if not np.isfinite(boundary):
        raise InvalidArgumentError(f"boundary value must be finite, got {boundary!r}")
    quad._grid(nodes)  # validates the nodes
    if values.shape != nodes.shape or slope.shape != nodes.shape:
        raise InvalidArgumentError("values and slope must match the grid shape")
    if abs(nodes[-1] - R) > 1e-12 * R:
        raise InvalidArgumentError("last grid node must sit on the boundary radius")
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(slope))):
        raise InvalidArgumentError("profile samples must be finite")
    scale = max(float(np.max(np.abs(slope))), 1.0)
    if np.min(slope) < -1e-12 * scale:
        raise NotAdmissibleError("negative slope: profile leaves the admissible cone")
    vscale = max(float(np.max(np.abs(values))), 1.0)
    if np.min(np.diff(values)) < -_MONOTONE_SLACK * vscale:
        raise NotAdmissibleError("values must be nondecreasing in r")


# The one outcome that changed: a finite density whose first shell
# overflows was refused by the quadrature's stub check, and is now a
# measure error, as a divergent stub is.
_EDGE_OVERFLOW_BEFORE = ("raised", InvalidArgumentError, "origin stub needs nonnegative finite edge samples")
_EDGE_OVERFLOW_NOW = ("raised", InvalidMeasureError, "density overflows at the innermost node")


def _now(want):
    """The reference outcome of from_parts, with that change applied."""
    result, warned = want
    return (_EDGE_OVERFLOW_NOW if result == _EDGE_OVERFLOW_BEFORE else result), warned


def _outcome(fn, *args):
    """What fn(*args) did: its exception class and message, or its
    result; plus the text of every warning it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("returned", fn(*args))
        except Exception as exc:  # the class and message are what is compared
            result = ("raised", type(exc), str(exc))
    return result, [str(w.message) for w in caught]


def _measure_parts(mu):
    return mu.atom, mu.cumulative


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


# Densities with zeros, subnormals and values whose shells overflow.
_DENSITY_ENTRIES = (
    st.sampled_from([0.0, 0.0, 5e-324, 1e-310, 2.2e-308, 1e300, 1.7e308])
    | st.floats(min_value=0.0, max_value=1e6)
)


class TestParentPins:
    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(3, 80),
        data=st.data(),
        log_spaced=st.booleans(),
    )
    def test_kernel_matches_the_reference_bitwise(self, size, data, log_spaced):
        if log_spaced:
            nodes = np.geomspace(1e-8, 1.0, size)
        else:
            steps = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=size, max_size=size))
            nodes = np.cumsum(steps)
        samples = data.draw(st.lists(
            st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324]) | st.floats(-1e6, 1e6),
            min_size=size, max_size=size,
        ))
        grid = quad._grid(nodes)
        y = np.array(samples)
        with np.errstate(all="ignore"):
            assert _bits(quad._cumulative(grid, y)) == _bits(_reference_cumulative(grid, y))

    @settings(max_examples=120, deadline=None)
    @given(
        nk=st.sampled_from([(2, 1), (4, 2), (3, 1)]),
        R=st.sampled_from([1e-6, 1.0, 1e6]),
        grid_n=st.sampled_from([16, 17, 64]),
        atom=st.sampled_from([0.0, 2.5]),
        data=st.data(),
    )
    def test_from_parts_matches_the_reference_bitwise(self, nk, R, grid_n, atom, data):
        dim = HessianDim(*nk)
        nodes = quad.radial_grid(R, grid_n)
        density = np.array(data.draw(st.lists(_DENSITY_ENTRIES, min_size=grid_n, max_size=grid_n)))
        want = _now(_outcome(_reference_from_parts, dim, R, nodes, atom, density))
        # the second call reads r^(n-1) from the grid's cache entry
        for _ in range(2):
            got = _outcome(lambda: _measure_parts(RadialMeasure.from_parts(dim, R, nodes, atom, density)))
            assert got[1] == want[1]
            if want[0][0] == "raised":
                assert got[0] == want[0]
            else:
                (w_atom, w_cum), (g_atom, g_cum) = want[0][1], got[0][1]
                assert _bits(g_atom) == _bits(w_atom) and _bits(g_cum) == _bits(w_cum)

    @pytest.mark.parametrize("nk", [(2, 1), (4, 2), (3, 1)])
    @pytest.mark.parametrize(
        "bad",
        ["negative", "nan", "inf", "divergent stub", "overflowing edge", "scalar", "callable"],
    )
    def test_measure_integrator_raises_like_from_parts(self, nk, bad):
        dim = HessianDim(*nk)
        nodes = quad.radial_grid(1.0, 64)
        density = {
            "negative": np.where(nodes > 0.5, -1.0, 1.0),
            "nan": np.where(nodes > 0.5, math.nan, 1.0),
            "inf": np.where(nodes > 0.5, math.inf, 1.0),
            # r^(-n-1) dx is not integrable at the origin
            "divergent stub": nodes ** (-nk[0] - 1.0),
            "overflowing edge": np.full_like(nodes, 1.7e308) * (nodes < 1e-7) + 1.0,
            "scalar": 3.0,
            "callable": lambda r: 1.0 + r,
        }[bad]
        before = _outcome(_reference_from_parts, dim, 1.0, nodes, 0.0, density)
        want = _now(before)
        got = _outcome(lambda: _measure_parts(RadialMeasure.from_parts(dim, 1.0, nodes, 0.0, density)))
        assert got[1] == want[1]
        assert got[0][0] == want[0][0]
        if want[0][0] == "raised":
            assert got[0] == want[0]
        else:
            assert _bits(got[0][1][1]) == _bits(want[0][1][1])
        if bad in ("negative", "nan", "inf", "divergent stub", "overflowing edge"):
            assert want[0][0] == "raised" and want[0][1] is InvalidMeasureError
        if bad == "overflowing edge":
            assert before[0] == _EDGE_OVERFLOW_BEFORE

    @staticmethod
    def _profile_case(case):
        nodes = quad.radial_grid(1.0, 64)
        values, slope = 0.5 * (nodes**2 - 1.0), nodes.copy()
        args = {"R": 1.0, "nodes": nodes, "values": values, "slope": slope, "boundary": 0.0}
        change = {
            "valid": {},
            "nan R": {"R": math.nan},
            "inf R": {"R": math.inf},
            "negative R": {"R": -1.0},
            "numpy scalar R": {"R": np.float64(1.0)},
            "numpy scalar nan R": {"R": np.float64(math.nan)},
            "0-d array R": {"R": np.array(1.0)},
            "0-d array nan R": {"R": np.array(math.nan)},
            "R off the last node": {"R": 2.0},
            "inf boundary": {"boundary": math.inf},
            "nan boundary": {"boundary": math.nan},
            "numpy scalar boundary": {"boundary": np.float64(0.0)},
            "nan values": {"values": np.where(nodes > 0.5, math.nan, values)},
            "inf slope": {"slope": np.where(nodes > 0.5, math.inf, slope)},
            "negative slope": {"slope": -slope},
            "tiny negative slope": {"slope": slope - 1e-13},
            "decreasing values": {"values": values[::-1].copy()},
            "shape mismatch": {"values": values[:-1]},
            "bad nodes": {"nodes": nodes[::-1].copy()},
        }[case]
        return {**args, **change}

    @pytest.mark.parametrize(
        "case",
        [
            "valid", "nan R", "inf R", "negative R", "numpy scalar R", "numpy scalar nan R", "0-d array R",
            "0-d array nan R", "R off the last node", "inf boundary", "nan boundary", "numpy scalar boundary",
            "nan values", "inf slope", "negative slope", "tiny negative slope", "decreasing values",
            "shape mismatch", "bad nodes",
        ],
    )
    def test_profile_checks_match_the_reference(self, case):
        a = self._profile_case(case)
        want = _outcome(_reference_profile, a["R"], a["nodes"], a["values"], a["slope"], a["boundary"])
        got = _outcome(lambda: RadialProfile(D21, a["R"], a["nodes"], a["values"], a["slope"], a["boundary"]))
        assert got[1] == want[1]
        if want[0][0] == "raised":
            assert got[0] == want[0]
        else:
            assert got[0][0] == "returned"

    @pytest.mark.parametrize(
        "case",
        ["valid", "nan atom", "inf atom", "negative atom", "numpy atom", "0-d atom", "decreasing",
         "slightly decreasing", "nan entry", "shape mismatch", "2-d nodes"],
    )
    def test_measure_checks_match_the_reference(self, case):
        nodes = quad.radial_grid(1.0, 64)
        cum = 1.0 + nodes**2
        atom, cumulative, grid = {
            "valid": (1.0, cum, nodes),
            "nan atom": (math.nan, cum, nodes),
            "inf atom": (math.inf, cum, nodes),
            "negative atom": (-1.0, cum, nodes),
            "numpy atom": (np.float64(1.0), cum, nodes),
            "0-d atom": (np.array(1.0), cum, nodes),
            "decreasing": (0.0, cum[::-1].copy(), nodes),
            "slightly decreasing": (0.0, np.where(nodes > 0.5, cum - 1e-12, cum), nodes),
            "nan entry": (0.0, np.where(nodes > 0.5, math.nan, cum), nodes),
            "shape mismatch": (0.0, cum[:-1], nodes),
            "2-d nodes": (0.0, cum, nodes[None, :]),
        }[case]
        want = _outcome(_reference_measure, grid, atom, cumulative)
        got = _outcome(lambda: _measure_parts(RadialMeasure(D21, 1.0, grid, atom, cumulative)))
        assert got[1] == want[1]
        assert got[0][0] == want[0][0]
        if want[0][0] == "raised":
            assert got[0] == want[0]
        else:
            (w_atom, w_cum), (g_atom, g_cum) = want[0][1], got[0][1]
            assert _bits(g_atom) == _bits(w_atom) and _bits(g_cum) == _bits(w_cum)
