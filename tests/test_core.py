"""Spectral kernels, dimensional constants and the regime rules.

Oracles: elementary symmetrics by explicit subset-product enumeration,
minors by explicit determinant enumeration, ball volumes against the
gamma-function formula.  Frozen constants carry their closed forms.
"""

from __future__ import annotations

import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from hessianlab.core import (
    HessianDim,
    elem_sym_all,
    maclaurin_means,
    principal_minor_sums,
    s_k_all_of_matrix,
    unit_ball_volume,
)
from hessianlab import abp, radial
from hessianlab import brezis_merle as bm
from hessianlab import liouville as liu
from hessianlab.capacity import CapacityConfig
from hessianlab.errors import InvalidArgumentError, InvalidWeightError, UnsupportedDimensionError
from hessianlab.families import FamilySpec, make_profile


def sigma_oracle(eigs: np.ndarray, j: int) -> float:
    """Subset-product enumeration, independent of the recurrence."""
    if j == 0:
        return 1.0
    return float(sum(math.prod(sub) for sub in combinations(eigs.tolist(), j)))


finite_eigs = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=1, max_size=6
)


class TestElementarySymmetric:
    @given(finite_eigs)
    def test_matches_enumeration(self, eigs):
        lam = np.array(eigs)
        scale = max(1.0, float(np.max(np.abs(lam)))) ** lam.size
        e = elem_sym_all(lam)
        assert e.shape == (lam.size + 1,) and e[0] == 1.0
        for j in range(lam.size + 1):
            assert e[j] == pytest.approx(sigma_oracle(lam, j), abs=1e-9 * scale)

    @given(finite_eigs, st.floats(min_value=0.01, max_value=100.0))
    def test_homogeneity(self, eigs, t):
        # sigma_j is j-homogeneous.  Rounding t * lam alone moves a
        # cancelled sigma_j by ~1e-16 of its terms' size sigma_j(|lam|),
        # so the error is bounded against that, not against sigma_j.
        lam = np.array(eigs)
        base = elem_sym_all(lam)
        scaled = elem_sym_all(t * lam)
        magnitude = elem_sym_all(np.abs(lam))
        for j in range(lam.size + 1):
            tol = max(1e-12 * t**j * magnitude[j], 1e-300)
            assert scaled[j] == pytest.approx(t**j * base[j], rel=1e-12, abs=tol)

    def test_rejects_bad_spectra(self):
        with pytest.raises(InvalidArgumentError):
            elem_sym_all([])
        with pytest.raises(InvalidArgumentError):
            elem_sym_all([1.0, math.nan])
        with pytest.raises(InvalidArgumentError):
            elem_sym_all(1.0)
        with pytest.raises(InvalidArgumentError):
            elem_sym_all(np.zeros((2, 0)))


def per_order_routes(mat, k: int) -> tuple[float, float]:
    """S_k by the spectrum and by the principal minors as computed before
    the all-orders forms, each order symmetrizing the matrix again."""
    m = np.asarray(mat, dtype=float)
    m = 0.5 * (m + m.T)
    via_eigs = float(elem_sym_all(np.linalg.eigvalsh(m))[k])
    idx = np.array(list(combinations(range(m.shape[0]), k)))
    via_minors = 0.0
    for det in np.linalg.det(m[idx[:, :, None], idx[:, None, :]]).tolist():
        via_minors += det
    return via_eigs, via_minors


def assert_all_orders_match(mat):
    n = mat.shape[0]
    via_eigs, via_minors = s_k_all_of_matrix(mat), principal_minor_sums(mat)
    assert via_eigs.shape == via_minors.shape == (n,)
    for k in range(1, n + 1):
        expected = per_order_routes(mat, k)
        assert (via_eigs[k - 1], via_minors[k - 1]) == expected


class TestMatrixRoutes:
    def test_all_orders_forms_on_corpus(self, sym_matrices):
        for mat in sym_matrices:
            assert_all_orders_match(mat)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        entries=st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=64, max_size=64),
    )
    def test_all_orders_forms_on_nearly_symmetric(self, n, entries):
        # an asymmetry well inside the 1e-12 tolerance, so the
        # symmetrization changes the bits the routes see
        a = np.array(entries).reshape(8, 8)[:n, :n]
        sym = 0.5 * (a + a.T)
        scale = float(np.max(np.abs(sym))) or 1.0
        assert_all_orders_match(sym + 5e-16 * scale * (a - a.T))

    @pytest.mark.parametrize(
        "route", [s_k_all_of_matrix, principal_minor_sums], ids=["s_k_all_of_matrix", "principal_minor_sums"],
    )
    @pytest.mark.parametrize(
        "mat",
        [
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, np.nan], [np.nan, 1.0]],
            [[-np.inf, 0.0], [0.0, -np.inf]],
            np.full((2, 2), np.inf),
            np.full((3, 3), np.nan),
        ],
        ids=["inf diagonal", "nan pair", "-inf diagonal", "all inf", "all nan"],
    )
    def test_nonfinite_entries_are_rejected_up_front(self, route, mat):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="matrix entries must be finite"):
                route(np.array(mat))

    def test_two_routes_agree_on_corpus(self, sym_matrices):
        # acceptance-grade bound: 1e-9 relative against a spread-aware scale
        for mat in sym_matrices:
            n = mat.shape[0]
            eigs = np.linalg.eigvalsh(mat)
            spread = max(1.0, float(np.max(np.abs(eigs))))
            all_eigs, all_minors = s_k_all_of_matrix(mat), principal_minor_sums(mat)
            for k in range(1, n + 1):
                via_eigs, via_minors = all_eigs[k - 1], all_minors[k - 1]
                oracle = sigma_oracle(eigs, k)
                scale = max(abs(via_eigs), abs(via_minors), math.comb(n, k) * spread**k)
                assert abs(via_eigs - via_minors) <= 1e-9 * scale
                assert abs(via_eigs - oracle) <= 1e-9 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        entries=st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=64, max_size=64),
    )
    def test_minor_sum_matches_the_per_minor_loop(self, n, entries):
        # The minors go through one batched det call; each det and the
        # left-to-right sum must be those of one call per minor.
        a = np.array(entries).reshape(8, 8)[:n, :n]
        mat = 0.5 * (a + a.T)
        sums = principal_minor_sums(mat)
        for k in range(1, n + 1):
            expected = 0.0
            for idx in combinations(range(n), k):
                expected += float(np.linalg.det(mat[np.ix_(idx, idx)]))
            assert sums[k - 1] == expected

    def test_stacks_match_one_matrix_at_a_time(self, sym_matrices):
        # each route on one stack per size gives, bit for bit, the floats
        # of one call per matrix
        for n in range(2, 7):
            mats = [mat for mat in sym_matrices if mat.shape[0] == n]
            stack = np.stack(mats)
            for route in (s_k_all_of_matrix, principal_minor_sums):
                assert np.array_equal(route(stack), np.stack([route(mat) for mat in mats]))
            spectra = np.linalg.eigvalsh(stack)
            assert np.array_equal(elem_sym_all(spectra), np.stack([elem_sym_all(lam) for lam in spectra]))
            # a stack of stacks keeps its leading axes
            assert principal_minor_sums(stack.reshape(2, -1, n, n)).shape == (2, len(mats) // 2, n)

    @pytest.mark.parametrize("route", [s_k_all_of_matrix, principal_minor_sums])
    @pytest.mark.parametrize(
        "bad, message",
        [(np.inf, "matrix entries must be finite"), (1.0, "matrix is not symmetric within tolerance")],
        ids=["non-finite", "asymmetric"],
    )
    def test_one_bad_matrix_fails_its_stack(self, sym_matrices, route, bad, message):
        stack = np.stack([mat for mat in sym_matrices if mat.shape[0] == 4])
        stack[3, 0, 1] += bad
        with pytest.raises(InvalidArgumentError, match=message):
            route(stack)

    def test_one_matrix_keeps_its_shapes(self):
        mat = np.diag([1.0, 2.0, 3.0])
        assert s_k_all_of_matrix(mat).shape == principal_minor_sums(mat).shape == (3,)
        assert elem_sym_all([1.0, 2.0, 3.0]).shape == (4,)

    def test_corpus_sizes(self, sym_matrices):
        assert sorted({m.shape[0] for m in sym_matrices}) == [2, 3, 4, 5, 6]

    def test_diag_matrix_exact(self):
        mat = np.diag([1.0, 2.0, 3.0])
        assert s_k_all_of_matrix(mat) == pytest.approx([6.0, 11.0, 6.0], rel=1e-14)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidArgumentError):
            s_k_all_of_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(InvalidArgumentError):
            principal_minor_sums(np.ones((2, 3)))


class TestCone:
    @given(
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=6),
    )
    def test_maclaurin_chain_on_positive_spectra(self, eigs):
        lam = np.array(eigs)
        means = maclaurin_means(lam, lam.size)
        assert np.all(np.isfinite(means))
        assert np.all(np.diff(means) <= 1e-12 * max(1.0, float(means[0])))

    def test_maclaurin_values(self):
        # (e_1/3, (e_2/3)^(1/2)) for spectrum (1,2,3): e_1=6, e_2=11
        means = maclaurin_means([1.0, 2.0, 3.0], 2)
        assert means[0] == pytest.approx(2.0, rel=1e-14)
        assert means[1] == pytest.approx(math.sqrt(11.0 / 3.0), rel=1e-14)


class TestConstants:
    def test_ball_volume_against_gamma(self):
        for n in range(1, 11):
            expected = math.pi ** (n / 2.0) / float(gamma(n / 2.0 + 1.0))
            assert unit_ball_volume(n) == pytest.approx(expected, rel=1e-14)

    def test_ball_volume_frozen(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
        assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0, rel=1e-15)

    def test_ball_volume_rejects(self):
        with pytest.raises(InvalidArgumentError):
            unit_ball_volume(0)
        with pytest.raises(InvalidArgumentError):
            unit_ball_volume(2.5)
        # 171! overflows a float; 170 is the last dimension with a volume
        assert unit_ball_volume(170) == 6.425934302368584e-87
        for n in (171, 342, 400):
            with pytest.raises(UnsupportedDimensionError) as exc:
                unit_ball_volume(n)
            assert str(exc.value) == f"dimension n must be at most 170, got {n}"

    def test_sharp_coefficient_frozen(self):
        # n (omega_n C(n,k))^(2/n): exactly 4 pi at (2,1), 4 sqrt(3) pi at (4,2)
        assert HessianDim(2, 1).moser_constant == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert HessianDim(4, 2).moser_constant == pytest.approx(
            4.0 * math.sqrt(3.0) * math.pi, rel=1e-14
        )

    def test_exponent_ceiling(self):
        assert HessianDim(2, 1).beta_max == pytest.approx(2.0, rel=1e-15)
        d42 = HessianDim(4, 2)
        assert d42.beta_max == pytest.approx(1.5, rel=1e-15)
        assert d42.n_choose_k == 6
        assert d42.ball_volume == pytest.approx(math.pi**2 / 2.0, rel=1e-15)
        with pytest.raises(UnsupportedDimensionError):
            HessianDim(3, 1).beta_max

    def test_quantum_frozen(self):
        assert HessianDim(2, 1).concentration_quantum() == pytest.approx(
            4.0 * math.pi, rel=1e-14
        )
        assert HessianDim(4, 2).concentration_quantum() == pytest.approx(
            48.0 * math.pi**2, rel=1e-14
        )
        # doubling p' scales the quantum by 2^-k
        assert HessianDim(4, 2).concentration_quantum(2.0) == pytest.approx(
            12.0 * math.pi**2, rel=1e-14
        )
        with pytest.raises(InvalidArgumentError):
            HessianDim(2, 1).concentration_quantum(0.5)

    def test_lp_endpoint(self):
        assert HessianDim(3, 1).lp_endpoint() == pytest.approx(3.0, rel=1e-15)
        with pytest.raises(UnsupportedDimensionError):
            HessianDim(2, 1).lp_endpoint()

    def test_dim_validation(self):
        with pytest.raises(UnsupportedDimensionError):
            HessianDim(3, 5)
        with pytest.raises(UnsupportedDimensionError):
            HessianDim(0, 0)
        for n, k in ((171, 1), (400, 200)):
            with pytest.raises(UnsupportedDimensionError, match=f"^dimension n must be at most 170, got {n}$"):
                HessianDim(n, k)


_D21, _D31 = HessianDim(2, 1), HessianDim(3, 1)
_EXP_WEIGHT = abp.OrliczWeight("exp", 1, rate=1.0)


def _ones(r):
    return np.ones_like(r)


# Every operation that needs one regime, called at a dimension outside
# it: (operation name in the message, the regime it needs, the call).
_GUARD_SITES = [
    ("barrier machinery", "2k = n", lambda: abp.verify_gk(_D31, _ones, _EXP_WEIGHT, grid_n=64)),
    ("the sup-bound check", "2k = n", lambda: abp.abp_bound_check(
        abp.SampledFamily(_D31, _EXP_WEIGHT, 1.0, ("a",) * 4, (1.0,) * 4, (1.0,) * 4, (1.0,) * 4))),
    ("the fixed-budget family", "2k = n", lambda: abp.mollified_dirac_family(_D31, _EXP_WEIGHT, grid_n=64)),
    ("the exponential branch", "2k = n", lambda: bm.BMQuery(_D31, "exp", FamilySpec("log"), lam=1.0)),
    ("the sharpness probe", "2k = n", lambda: bm.sharpness_probe(_D31, grid_n=64)),
    ("the exponential equation", "2k = n", lambda: liu.LiouvilleProblem(_D31, _ones)),
    ("the comparison", "2k = n", lambda: liu.singular_comparison_check(_D31, grid_n=64)),
    ("exponential moment", "2k = n", lambda: radial.exp_integral(
        make_profile(FamilySpec("newtonian"), _D31, 1.0, 64), 1.0, 1.0)),
    ("the exponent ceiling", "2k = n", lambda: _D31.beta_max),
    ("the L^p branch", "2k < n", lambda: bm.BMQuery(_D21, "lp", FamilySpec("log"), p=2.0)),
    ("a power profile", "2k < n", lambda: make_profile(FamilySpec("power"), _D21, 1.0, 64)),
    ("the strong integrability endpoint", "2k < n", lambda: _D21.lp_endpoint()),
]


class TestRegimeRules:
    """HessianDim owns the regime split and the rules on beta; every
    guarded operation raises through it."""

    @pytest.mark.parametrize("what, regime, call", _GUARD_SITES, ids=[site[0] for site in _GUARD_SITES])
    def test_each_guard_names_its_operation_and_the_pair(self, what, regime, call):
        pair = "(3, 1)" if regime == "2k = n" else "(2, 1)"
        with pytest.raises(UnsupportedDimensionError) as exc:
            call()
        assert str(exc.value) == f"{what} needs {regime}, got (n, k) = {pair}"

    def test_require_passes_inside_the_regime(self):
        assert _D21.require_intermediate("x") is None
        assert _D31.require_subcritical("x") is None
        with pytest.raises(UnsupportedDimensionError, match="x needs 2k < n"):
            HessianDim(4, 3).require_subcritical("x")

    @pytest.mark.parametrize("beta", [1.0, 1.5, 2.0, 2.0 + 1e-12])
    def test_check_beta_accepts(self, beta):
        assert _D21.check_beta(beta) is None

    @pytest.mark.parametrize("beta", [0.999, 2.0 + 1.5e-12, 3.0, math.inf, -math.inf, math.nan])
    def test_check_beta_rejects(self, beta):
        with pytest.raises(InvalidArgumentError) as exc:
            _D21.check_beta(beta)
        assert str(exc.value) == f"beta must lie in [1, 2.0], got {beta!r}"

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 3.0 * (1.0 + 1e-12)])
    def test_check_p_accepts(self, p):
        assert _D31.check_p(p) is None

    @pytest.mark.parametrize("p", [0.999, 3.0 * (1.0 + 2e-12), 5.0, math.inf, math.nan])
    def test_check_p_rejects(self, p):
        with pytest.raises(InvalidArgumentError) as exc:
            _D31.check_p(p)
        assert str(exc.value) == f"p must lie in [1, endpoint 3.0], got {p!r}"

    def test_check_p_needs_the_subcritical_regime(self):
        with pytest.raises(UnsupportedDimensionError, match="integrability endpoint"):
            _D21.check_p(1.0)

    def test_check_beta_needs_the_intermediate_regime(self):
        with pytest.raises(UnsupportedDimensionError, match="exponent ceiling"):
            _D31.check_beta(1.0)

    def test_at_ceiling(self):
        assert _D21.at_ceiling(2.0)
        assert _D21.at_ceiling(2.0 - 5e-13)
        assert not _D21.at_ceiling(2.0 - 2e-12)
        assert HessianDim(4, 2).at_ceiling(1.5)
        assert not HessianDim(4, 2).at_ceiling(2.0)


@settings(max_examples=30)
@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
                min_size=n * (n + 1) // 2,
                max_size=n * (n + 1) // 2,
            ),
        )
    )
)
def test_matrix_routes_agree_on_random_symmetric(args):
    n, tri = args
    mat = np.zeros((n, n))
    mat[np.triu_indices(n)] = tri
    mat = 0.5 * (mat + mat.T)
    spread = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(mat)))))
    gap = np.abs(s_k_all_of_matrix(mat) - principal_minor_sums(mat))
    for k in range(1, n + 1):
        assert gap[k - 1] <= 1e-9 * math.comb(n, k) * spread**k


_D42 = HessianDim(4, 2)
_EXP1 = abp.OrliczWeight("exp", 1, rate=1.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: abp.OrliczWeight("exp", 1, rate="1"), InvalidWeightError, "exp weight needs rate >= 0, got '1'"),
        (lambda: abp.OrliczWeight("power", 1, exponent="2"), InvalidWeightError,
         "power weight needs exponent >= 0, got '2'"),
        (lambda: abp.degiorgi_threshold("1", 1.0, 1.0), InvalidArgumentError,
         "c0 must be finite, and positive when phi0 > 0, got '1'"),
        (lambda: abp.degiorgi_threshold(1.0, "1", 1.0), InvalidArgumentError, "delta must be positive, got '1'"),
        (lambda: abp.degiorgi_threshold(1.0, 1.0, "1"), InvalidArgumentError, "phi0 must be nonnegative, got '1'"),
        (lambda: abp.degiorgi_threshold(1.0, 1.0, 1.0, "0"), InvalidArgumentError, "s0 must be finite, got '0'"),
        (lambda: CapacityConfig(_D42, "0.5", 1.0), InvalidArgumentError,
         "need 0 < inner < outer, got inner='0.5', outer=1.0"),
        (lambda: CapacityConfig(_D42, 0.5, "1"), InvalidArgumentError,
         "need 0 < inner < outer, got inner=0.5, outer='1'"),
        (lambda: liu.singular_comparison_check(_D42, atom_factor="2"), InvalidArgumentError,
         "the bound needs a finite atom at or above the quantum, got factor '2'"),
        (lambda: liu.singular_comparison_check(_D42, background="0"), InvalidArgumentError,
         "background density must be finite and nonnegative, got '0'"),
        (lambda: liu.regular_point_classify(_D42, [(0.0, "1")]), InvalidArgumentError,
         "atom mass must be nonnegative, got '1'"),
        (lambda: liu.regular_point_classify(_D42, [("0", 1.0)]), InvalidArgumentError,
         "atom location must be a radius >= 0, got '0'"),
        (lambda: liu.harnack_ratio(liu.bubble_profile(1.0, grid_n=256), "0.5", 1.0, 1.0), InvalidArgumentError,
         "need 0 < r <= 1, got '0.5'"),
        (lambda: liu.harnack_ratio(liu.bubble_profile(1.0, grid_n=256), 0.5, "1", 1.0), InvalidArgumentError,
         "density bound must be positive, got '1'"),
        (lambda: liu.harnack_ratio(liu.bubble_profile(1.0, grid_n=256), 0.5, 1.0, "1"), InvalidArgumentError,
         "eps must be positive, got '1'"),
        (lambda: liu.bubble_profile("1"), InvalidArgumentError, "bubble scale must be positive, got '1'"),
        (lambda: abp.degiorgi_fit_and_verify(np.linspace(0.0, 1.0, 8), np.zeros(8), s0="0"), InvalidArgumentError,
         "s0 must be finite, got '0'"),
        (lambda: abp.degiorgi_from_run(liu.bubble_profile(1.0, grid_n=256), None, s_max="1"), InvalidArgumentError,
         "s_max must be positive, got '1'"),
        (lambda: abp.orlicz_h(_EXP1, "1", 2.0, 1.0), InvalidArgumentError, "need a positive finite budget, got '1'"),
        (lambda: abp.orlicz_h(_EXP1, 1.0, "2", 1.0), InvalidArgumentError, "need q > 1, got '2'"),
        (lambda: abp.orlicz_h(_EXP1, 1.0, 2.0, "1"), InvalidArgumentError, "need alpha > 0, got '1'"),
        (lambda: _D42.concentration_quantum("1"), InvalidArgumentError, "conjugate exponent p' must be >= 1, got '1'"),
    ],
)
def test_string_numbers_are_refused_with_the_range_message(call, error, message):
    # each once raised a bare TypeError from np.isfinite
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
