"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Each test exercises the public API at the gate tolerances and appends
a PASS/FAIL line to ACCEPTANCE_LINES; the conftest terminal-summary
hook replays those lines after the run so the verdicts are visible
regardless of capture settings.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from hessianlab import (
    BlowupReport,
    CapacityConfig,
    FamilySpec,
    HessianDim,
    LiouvilleProblem,
    OrliczWeight,
    RadialMeasure,
    abp_bound_check,
    bubble_problem,
    bubble_profile,
    classify_alternative,
    degiorgi_fit_and_verify,
    degiorgi_threshold,
    domain_volume,
    exp_integral,
    fixed_budget_variation_check,
    isocapacitary_margin,
    levelset_cap_check,
    local_mass,
    lp_norm,
    make_profile,
    mollified_dirac_family,
    principal_minor_sums,
    profile_from_slope,
    s_k_all_of_matrix,
    s_k_density,
    s_k_radial,
    sample_family,
    smallness_check,
    solve_dirichlet,
    solve_liouville,
    solve_sequence,
    unit_ball_volume,
    weak_lp_quasinorm,
)
from hessianlab import quadrature as quad

INTERMEDIATE = (HessianDim(2, 1), HessianDim(4, 2))

ACCEPTANCE_LINES: list[str] = []


def verdict(idx: int, name: str, passed: bool, detail: str) -> None:
    line = f"[{idx:02d}] {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_01_sharp_exponential_equality():
    worst = 0.0
    diverges = True
    for dim in INTERMEDIATE:
        a0 = dim.moser_constant
        bound_of = lambda lam: domain_volume(dim, 1.0) * a0 / (a0 - lam)
        for c in (0.5, 1.0, 2.0):
            u = make_profile(FamilySpec("log", c), dim, 1.0, 2048)
            for frac in (0.25, 0.5, 0.75):
                lam = frac * a0
                got = exp_integral(u, lam, dim.beta_max)
                worst = max(worst, abs(got - bound_of(lam)) / bound_of(lam))
        u = make_profile(FamilySpec("log"), dim, 1.0, 2048)
        diverges = diverges and math.isinf(exp_integral(u, a0, dim.beta_max))
    passed = worst <= 1e-6 and diverges
    verdict(
        1, "sharp exponential moment equality",
        passed, f"worst rel {worst:.3e} vs 1e-6; divergence at the sharp coefficient: {diverges}",
    )
    assert worst <= 1e-6
    assert diverges


def test_criterion_02_capacity_saturation():
    worst = 0.0
    for dim in INTERMEDIATE:
        for frac in (0.5, 0.1, 0.01):
            rec = isocapacitary_margin(CapacityConfig(dim, frac, 1.0), dim.beta_max)
            assert rec.passed
            worst = max(worst, abs(rec.lhs - 1.0))
    passed = worst <= 1e-8
    verdict(2, "isocapacitary saturation", passed, f"worst |ratio-1| {worst:.3e} vs 1e-8")
    assert passed


def test_criterion_03_levelset_capacity_bound():
    worst_eq = 0.0
    for dim in INTERMEDIATE:
        u = make_profile(FamilySpec("log"), dim, 1.0, 2048)
        rec = levelset_cap_check(u, (0.1, 0.5, 1.0, 2.0, 4.0))
        assert rec.passed
        worst_eq = max(worst_eq, max(abs(r - 1.0) for r in rec.details["ratios"]))
    strict_ok = True
    newton = make_profile(FamilySpec("newtonian"), HessianDim(3, 1), 1.0, 2048)
    rec = levelset_cap_check(newton, (0.5, 1.0, 2.0, 4.0, 8.0))
    strict_ok &= all(r <= 1.0 + 1e-12 for r in rec.details["ratios"])
    for dim in INTERMEDIATE:
        quadr = make_profile(FamilySpec("quadratic"), dim, 1.0, 2048)
        rec = levelset_cap_check(quadr, (0.1, 0.2, 0.3, 0.4, 0.45))
        strict_ok &= all(r <= 1.0 + 1e-12 for r in rec.details["ratios"])
    passed = worst_eq <= 1e-8 and strict_ok
    verdict(
        3, "level-set capacity bound",
        passed, f"log-family worst |ratio-1| {worst_eq:.3e} vs 1e-8; other families ratio <= 1: {strict_ok}",
    )
    assert passed


def test_criterion_04_fundamental_solution():
    worst_sup = 0.0
    worst_mass = 0.0
    for dim in INTERMEDIATE:
        atom = dim.n_choose_k * unit_ball_volume(dim.n)
        nodes = quad.radial_grid(1.0, 2048)
        u = solve_dirichlet(RadialMeasure.from_atom(dim, 1.0, nodes, atom), 0.0)
        mask = nodes >= 1e-6
        worst_sup = max(worst_sup, float(np.max(np.abs(u.values[mask] - np.log(nodes[mask])))))
        mu = s_k_radial(make_profile(FamilySpec("log"), dim, 1.0, 2048))
        worst_mass = max(worst_mass, float(np.max(np.abs(mu.cumulative - atom))) / atom)
    passed = worst_sup <= 1e-6 and worst_mass <= 1e-8
    verdict(
        4, "fundamental atom and its solution",
        passed, f"sup defect {worst_sup:.3e} vs 1e-6; mass constancy {worst_mass:.3e} vs 1e-8",
    )
    assert passed


def test_criterion_05_decay_threshold_and_fixtures():
    exact = degiorgi_threshold(1.0, 1.0, 0.25, 0.0) == 1.0
    fixtures = [
        (phi0, m, a)
        for phi0 in (0.25, 1.0, 4.0, 10.0)
        for m in (1, 2, 3)
        for a in (1.0,)
    ] + [
        (1.0, 1, 0.5), (1.0, 2, 0.5), (1.0, 3, 0.5),
        (1.0, 1, 2.0), (1.0, 2, 2.0), (1.0, 3, 2.0),
        (10.0, 2, 0.5), (0.25, 3, 2.0),
    ]
    assert len(fixtures) == 20
    all_verified = True
    for phi0, m, a in fixtures:
        s = np.linspace(0.0, 4.0 * a, 33)
        phi = phi0 * np.maximum(1.0 - s / a, 0.0) ** m
        data = degiorgi_fit_and_verify(s, phi)
        all_verified &= data.verified and data.vanish_level <= data.s_inf
    passed = exact and all_verified
    verdict(
        5, "decay threshold and twenty fixtures",
        passed, f"threshold(1, 1, 1/4, 0) == 1 exactly: {exact}; all fixtures vanish by s_inf: {all_verified}",
    )
    assert passed


def test_criterion_06_scale_family_and_concentration():
    worst_sup = 0.0
    worst_mass = 0.0
    for lam in (1.0, 4.0, 16.0):
        exact = bubble_profile(lam, grid_n=8192)
        u = solve_liouville(bubble_problem(lam, grid_n=8192), initial=exact)
        worst_sup = max(worst_sup, float(np.max(np.abs(u.values - exact.values))))
        mass = local_mass(u, lambda r: np.ones_like(r), 1.0)
        target = 8.0 * math.pi * lam * lam / (1.0 + lam * lam)
        worst_mass = max(worst_mass, abs(mass - target) / target)
    lams = [2.0**j for j in range(1, 9)]
    report = classify_alternative(
        (LiouvilleProblem(HessianDim(2, 1), lambda r: np.ones_like(r), label=f"lam={lam:g}"), bubble_profile(lam))
        for lam in lams
    )
    atom = report.atom_masses[0] if report.atom_masses else 0.0
    concentrated = report.classification == "concentration" and atom >= 4.0 * math.pi
    passed = worst_sup <= 1e-4 and worst_mass <= 1e-6 and concentrated
    verdict(
        6, "exact scale family and concentration",
        passed,
        f"solver sup defect {worst_sup:.3e} vs 1e-4; mass rel {worst_mass:.3e} vs 1e-6; "
        f"atom {atom:.4f} >= {4 * math.pi:.4f} (margin {atom - 4 * math.pi:+.4f}, expect ~{8 * math.pi:.4f})",
    )
    assert passed


def test_criterion_07_smallness_uniform_bound():
    weights = np.linspace(0.15, 1.9, 12)
    problems = [
        LiouvilleProblem(HessianDim(2, 1), lambda r, c=c: np.full_like(r, c)) for c in weights
    ]
    rec = smallness_check(solve_sequence(problems))
    budget_ok = max(rec.details["masses"]) <= 0.9 * 4.0 * math.pi
    passed = rec.passed and budget_ok
    verdict(
        7, "sub-threshold uniform lower bound",
        passed,
        f"12 members, masses <= {0.9 * 4 * math.pi:.4f}: {budget_ok}; "
        f"reported uniform bound: min u >= {rec.lhs:.6f}",
    )
    assert passed


def test_criterion_08_weak_endpoint():
    dim = HessianDim(3, 1)
    u = make_profile(FamilySpec("newtonian"), dim, 1.0, 2048)
    mass = s_k_radial(u).total
    ratio = weak_lp_quasinorm(u, 3.0) / mass ** (1.0 / dim.k)
    expected = unit_ball_volume(3) ** (1.0 / 3.0) / (4.0 * math.pi)
    endpoint_rel = abs(ratio - expected) / expected
    ladder = [lp_norm(u, p) / domain_volume(dim, 1.0) ** (1.0 / p) for p in (1.0, 2.0, 2.9)]
    monotone = all(math.isfinite(v) for v in ladder) and ladder[0] < ladder[1] < ladder[2]
    diverges = math.isinf(lp_norm(u, 3.0))
    passed = endpoint_rel <= 1e-6 and monotone and diverges
    verdict(
        8, "weak endpoint and strong ladder",
        passed,
        f"endpoint ratio rel {endpoint_rel:.3e} vs 1e-6; ladder finite+monotone: {monotone}; "
        f"strong norm diverges at the endpoint: {diverges}",
    )
    assert passed


def test_criterion_09_fixed_budget_boundedness():
    dim = HessianDim(4, 2)
    weight = OrliczWeight("exp", 2, rate=1.0)
    rec = fixed_budget_variation_check(sample_family(dim, mollified_dirac_family(dim, weight), weight))
    growth = rec.details["height_ratio"]
    held_ok = True
    for d in INTERMEDIATE:
        w = OrliczWeight("exp", d.k, rate=1.0)
        family = mollified_dirac_family(d, w)
        rows = abp_bound_check(sample_family(d, family, w))
        held_ok &= all(r.passed for r in rows if r.inputs["held_out"])
    passed = rec.passed and rec.lhs < 0.20 and growth > 1e3 and held_ok
    verdict(
        9, "fixed-budget boundedness",
        passed,
        f"sup-u variation {rec.lhs:.4f} < 0.20; height growth {growth:.0f} > 1e3; "
        f"held-out fit (slack 0.10) passes: {held_ok}",
    )
    assert passed


def test_criterion_10_oracle_equivalence(sym_matrices):
    worst_matrix = 0.0
    for mat in sym_matrices:
        n = mat.shape[0]
        spread = float(np.max(np.abs(np.linalg.eigvalsh(mat))))
        via_eigs, via_minors = s_k_all_of_matrix(mat), principal_minor_sums(mat)
        for k in range(1, n + 1):
            a, b = float(via_eigs[k - 1]), float(via_minors[k - 1])
            scale = max(abs(a), abs(b), math.comb(n, k) * spread**k)
            worst_matrix = max(worst_matrix, abs(a - b) / scale)
    worst_fd = 0.0
    cases = [
        (HessianDim(3, 1), np.array([0.3, 0.4, 0.5])),
        (HessianDim(4, 2), np.array([0.3, 0.4, 0.5, 0.1])),
        (HessianDim(2, 1), np.array([0.3, 0.4])),
    ]
    for dim, x0 in cases:
        r0 = float(np.linalg.norm(x0))
        fd = _fd_hessian(lambda x: float(np.dot(x, x)) ** 2, x0)
        eigs = np.linalg.eigvalsh(fd)
        oracle = float(sum(math.prod(sub) for sub in combinations(eigs.tolist(), dim.k)))
        nodes = np.geomspace(1e-3, 1.0, 4096)
        u = profile_from_slope(dim, 1.0, nodes, 4.0 * nodes**3, 0.0, values=nodes**4 - 1.0)
        got = float(np.interp(r0, nodes, s_k_density(u)))
        worst_fd = max(worst_fd, abs(got - oracle) / abs(oracle))
    passed = worst_matrix <= 1e-9 and worst_fd <= 1e-5
    verdict(
        10, "matrix and finite-difference oracles",
        passed,
        f"50 fixtures eigen vs minor worst rel {worst_matrix:.3e} vs 1e-9; "
        f"radial vs full-Hessian FD worst rel {worst_fd:.3e} vs 1e-5",
    )
    assert passed


def _fd_hessian(fn, x0: np.ndarray, h: float = 1e-3) -> np.ndarray:
    n = x0.size
    out = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (fn(x0 + ei) - 2.0 * fn(x0) + fn(x0 - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            out[i, j] = out[j, i] = (
                fn(x0 + ei + ej) - fn(x0 + ei - ej) - fn(x0 - ei + ej) + fn(x0 - ei - ej)
            ) / (4.0 * h**2)
    return out
