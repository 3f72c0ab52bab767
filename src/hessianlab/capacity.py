"""Relative k-Hessian capacity of concentric balls and its inequalities.

For the condenser (closed ball of radius rho inside the ball of radius
R) the capacity has closed forms: with binom = C(n,k) and
m = (n - 2k)/k,

    2k = n:  binom omega_n / log(R/rho)^k
    2k < n:  binom omega_n m^k / (rho^-m - R^-m)^k,

each equal to the total Hessian mass of the relative extremal profile
(-1 inside, k-harmonic in the annulus, 0 on the outer boundary).  The
checks here verify the volume-capacity bounds, the level-set capacity
bound against normalized Hessian mass, and the measure comparison
principle on sublevel regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from .core import HessianDim, _finite_real
from .errors import InvalidArgumentError, PreconditionError, UnsupportedDimensionError
from .radial import (
    RadialMeasure, RadialProfile, domain_volume, hessian_mass, level_set_log_ratio, profile_from_slope, s_k_radial,
)
from .report import CheckRecord, near, upper_bound

__all__ = [
    "CapacityConfig",
    "cap_concentric",
    "extremal_profile",
    "isocapacitary_margin",
    "levelset_cap_check",
    "comparison_check",
]


@dataclass(frozen=True)
class CapacityConfig:
    """Concentric condenser: inner closed ball of radius inner inside
    the open ball of radius outer."""

    dim: HessianDim
    inner: float
    outer: float

    def __post_init__(self) -> None:
        if 2 * self.dim.k > self.dim.n:
            raise UnsupportedDimensionError(
                f"capacity needs 2k <= n, got (n, k) = ({self.dim.n}, {self.dim.k})"
            )
        if not (_finite_real(self.inner) and _finite_real(self.outer)) or not 0 < self.inner < self.outer:
            raise InvalidArgumentError(
                f"need 0 < inner < outer, got inner={self.inner!r}, outer={self.outer!r}"
            )


def _cap_value(dim: HessianDim, L: float, R: float) -> float:
    """Capacity of the closed ball of radius rho inside B_R, from
    L = log(R/rho); rho^-m - R^-m is written as R^-m expm1(m L), which
    keeps its digits when rho is close to R."""
    k = dim.k
    binom_omega = dim.n_choose_k * dim.ball_volume
    if dim.is_intermediate:
        return binom_omega / L**k
    m = dim.power_exponent
    return binom_omega * m**k / (R**-m * math.expm1(m * L)) ** k


def cap_concentric(cfg: CapacityConfig) -> float:
    """Closed-form relative capacity of the concentric condenser."""
    return _cap_value(cfg.dim, math.log(cfg.outer / cfg.inner), cfg.outer)


def extremal_profile(cfg: CapacityConfig, grid_n: int = quad.DEFAULT_GRID_N) -> RadialProfile:
    """Relative extremal of the condenser: -1 on the inner ball,
    k-harmonic in the annulus, 0 on the outer boundary.

    Its Hessian mass concentrates on the inner sphere and totals the
    capacity, which is what the mass-oracle test checks.
    """
    dim, rho, R = cfg.dim, cfg.inner, cfg.outer
    r = quad.radial_grid(R, grid_n)
    if dim.is_intermediate:
        denom = math.log(R / rho)
        values = np.maximum(np.log(r / R) / denom, -1.0)
        slope = np.where(r > rho, 1.0 / (r * denom), 0.0)
    else:
        m = dim.power_exponent
        denom = rho**-m - R**-m
        values = np.maximum(-(r**-m - R**-m) / denom, -1.0)
        slope = np.where(r > rho, m * r ** (-m - 1.0) / denom, 0.0)
    return profile_from_slope(
        dim,
        R,
        r,
        slope,
        0.0,
        values=values,
        kind="cap-extremal",
        unbounded_origin=False,
    )


def isocapacitary_margin(cfg: CapacityConfig, exponent: float) -> CheckRecord:
    """Volume-capacity margin of the condenser.

    Subcritical regime: reports |B_inner| / Cap^(q/(k+1)) for the given
    exponent q; the sweep-level assertion is only that the ratio stays
    bounded, so a single record passes when it is finite.  Intermediate
    regime: reports |B_inner| exp(a0 Cap^(-beta/(k+1))) / |B_outer|; at
    the exponent ceiling this saturates to exactly 1 and is asserted at
    1e-8, below the ceiling the ratio is reported as-is.
    """
    dim = cfg.dim
    cap = cap_concentric(cfg)
    inner_volume = domain_volume(dim, cfg.inner)
    if dim.is_subcritical:
        q_max = dim.n * (dim.k + 1.0) / (dim.n - 2.0 * dim.k)
        if not np.isfinite(exponent) or not 1.0 <= exponent <= q_max + 1e-12:
            raise InvalidArgumentError(f"exponent q must lie in [1, {q_max}], got {exponent!r}")
        ratio = inner_volume / cap ** (exponent / (dim.k + 1.0))
        return upper_bound(
            f"isocap-volume[n={dim.n},k={dim.k},q={exponent:g},inner={cfg.inner:g}]", "isocap-volume-bound",
            {"n": dim.n, "k": dim.k, "q": exponent, "inner": cfg.inner, "outer": cfg.outer},
            ratio, math.inf, {"capacity": cap, "inner_volume": inner_volume}, holds=bool(np.isfinite(ratio)),
        )
    dim.check_beta(exponent)
    outer_volume = domain_volume(dim, cfg.outer)
    ratio = inner_volume * math.exp(dim.moser_constant * cap ** (-exponent / (dim.k + 1.0))) / outer_volume
    at_ceiling = dim.at_ceiling(exponent)
    check = f"isocap-exp[n={dim.n},k={dim.k},beta={exponent:g},inner={cfg.inner:g}]"
    anchor = "isocap-saturation"
    inputs = {"n": dim.n, "k": dim.k, "beta": exponent, "inner": cfg.inner, "outer": cfg.outer}
    details = {"capacity": cap, "saturating": at_ceiling}
    if at_ceiling:
        return near(check, anchor, inputs, ratio, 1.0, 1e-8, details)
    # below the ceiling the claim is finiteness alone
    return upper_bound(check, anchor, inputs, ratio, math.inf, details, holds=bool(np.isfinite(ratio)))


def levelset_cap_check(u: RadialProfile, t_values, tol: float = 1e-8) -> CheckRecord:
    """Level-set capacity bound: for each level t > 0 the sublevel ball
    {u < -t} has capacity at most (M^(1/k) / t)^k in the outer ball.

    The record carries the worst ratio over the supplied levels; the
    closed-form point-mass families saturate it with equality.  The
    bound is for functions that vanish on the outer sphere.
    """
    ts = np.atleast_1d(np.asarray(t_values, dtype=float))
    if ts.size == 0 or np.any(~np.isfinite(ts)) or np.any(ts <= 0):
        raise InvalidArgumentError("levels must be a nonempty collection of positive numbers")
    if not (np.isfinite(tol) and tol >= 0):
        raise InvalidArgumentError(f"tol must be nonnegative, got {tol!r}")
    if u.boundary != 0:
        raise PreconditionError(f"the level-set bound needs u = 0 on the boundary, got {u.boundary!r}")
    mass = hessian_mass(u)
    dim = u.dim
    ratios = []
    for t in ts:
        L = level_set_log_ratio(u, float(t))
        bound = mass / float(t) ** dim.k
        if math.isinf(L):
            ratios.append(0.0)
            continue
        cap = _cap_value(dim, L, u.R)
        ratios.append(cap / bound if bound > 0 else float("inf"))
    return upper_bound(
        f"levelset-cap[{u.kind or 'profile'},n={dim.n},k={dim.k}]", "levelset-cap-bound",
        {"n": dim.n, "k": dim.k, "kind": u.kind, "levels": [float(t) for t in ts]},
        float(np.max(ratios)), 1.0, {"ratios": ratios, "mass": mass}, slack=tol,
    )


def comparison_check(u: RadialProfile, v: RadialProfile) -> CheckRecord:
    """Comparison principle on the sublevel region {u < v}: the Hessian
    measure of u dominates that of v there.

    Profiles must live on the same ball with u >= v on the boundary.
    The region is where the log-linear interpolant of v - u on u's
    nodes is positive; its edges are that interpolant's exact zeros, and
    masses are differences of the cumulative functions at the edges.
    The claim holds up to 1e-9 of the larger total mass (at least 1).
    """
    if (u.dim.n, u.dim.k) != (v.dim.n, v.dim.k) or abs(u.R - v.R) > 1e-12 * u.R:
        raise InvalidArgumentError("comparison needs matching dimension, order, and domain radius")
    vscale = max(float(np.max(np.abs(u.values))), float(np.max(np.abs(v.values))), 1.0)
    if u.boundary < v.boundary - 1e-12 * vscale:
        raise PreconditionError("comparison needs u >= v on the boundary")
    log_r = np.log(u.nodes)
    diff = np.interp(log_r, np.log(v.nodes), v.values) - u.values
    # At a flip one side is > 0 and the other <= 0, so the denominator is nonzero.
    i = np.flatnonzero((diff[:-1] > 0) != (diff[1:] > 0))
    cross = np.exp(log_r[i] + (log_r[i + 1] - log_r[i]) * diff[i] / (diff[i] - diff[i + 1]))
    edges = [0.0, *cross.tolist(), u.R]
    # The region starts inside exactly when diff[0] > 0 and alternates at each edge.
    intervals = list(zip(edges[:-1], edges[1:]))[0 if diff[0] > 0 else 1::2]
    mu_u: RadialMeasure = s_k_radial(u)
    mu_v: RadialMeasure = s_k_radial(v)
    mass_u = 0.0
    mass_v = 0.0
    for a, b in intervals:
        mass_u += float(mu_u.cumulative_at(b) - mu_u.cumulative_at(a))
        mass_v += float(mu_v.cumulative_at(b) - mu_v.cumulative_at(a))
    scale = max(mu_u.total, mu_v.total, 1.0)
    # The measure of u dominates that of v on the region.
    return upper_bound(
        f"comparison[{u.kind or 'profile'}-vs-{v.kind or 'profile'},n={u.dim.n},k={u.dim.k}]",
        "measure-comparison", {"n": u.dim.n, "k": u.dim.k, "R": u.R, "kinds": [u.kind, v.kind]},
        mass_v, mass_u, {"intervals": intervals, "empty": not intervals}, slack=1e-9 * scale,
    )
