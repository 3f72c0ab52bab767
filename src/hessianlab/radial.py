"""Radial k-Hessian profiles, their measures, and the Dirichlet solver.

For a radial function u on a ball the Hessian spectrum at radius r is
u''(r) once and u'(r)/r with multiplicity n-1, so the k-Hessian density
is

    C(n-1, k-1) u'' (u'/r)^(k-1) + C(n-1, k) (u'/r)^k,

and the mass of the closed ball of radius r obeys the exact identity

    m(r) = n omega_n (C(n-1, k-1) / k) r^(n-k) u'(r)^k.

Everything in this module is built on that identity: the forward map
(profile to measure) evaluates it directly, and the Dirichlet solver
inverts it for u'(r) and integrates inward from the boundary datum.
Atoms at the origin are the r -> 0 limit of m.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import quadrature as quad
from .core import HessianDim
from .errors import (
    DegenerateProfileError,
    InvalidArgumentError,
    InvalidMeasureError,
    NotAdmissibleError,
    UnsupportedDimensionError,
)

__all__ = [
    "CLOSED_FORMS",
    "ClosedForm",
    "KindParams",
    "kind_params",
    "RadialProfile",
    "RadialMeasure",
    "profile_from_slope",
    "s_k_radial",
    "solve_dirichlet",
    "hessian_mass",
    "hessian_integral",
    "phi_norm",
    "level_set_radius",
    "level_set_log_ratio",
    "value_at",
    "lp_norm",
    "weak_lp_quasinorm",
    "exp_integral",
    "exp_moment_bound",
    "volume_integral",
    "domain_volume",
]

_MONOTONE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Radial function u(r) on a ball of radius R, sampled on a graded grid.

    values and slope hold u and u' at the nodes; slope must be
    nonnegative (nondecreasing profiles are the admissible ones here).
    unbounded_origin marks profiles whose values diverge to -inf as the
    grid is refined toward r = 0.  kind optionally tags a canonical
    closed-form family so that downstream operations may use exact
    branches; params carries that family's parameters.
    """

    dim: HessianDim
    R: float
    nodes: np.ndarray
    values: np.ndarray
    slope: np.ndarray
    boundary: float
    unbounded_origin: bool = False
    kind: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        slope = np.asarray(self.slope, dtype=float)
        if not np.isfinite(self.R) or self.R <= 0:
            raise InvalidArgumentError(f"radius must be positive, got {self.R!r}")
        if nodes.ndim != 1 or nodes.size < 3:
            raise InvalidArgumentError("profile needs a 1-d grid with >= 3 nodes")
        if values.shape != nodes.shape or slope.shape != nodes.shape:
            raise InvalidArgumentError("values and slope must match the grid shape")
        if np.any(nodes <= 0) or np.any(np.diff(nodes) <= 0):
            raise InvalidArgumentError("grid nodes must be positive and strictly increasing")
        if abs(nodes[-1] - self.R) > 1e-12 * self.R:
            raise InvalidArgumentError("last grid node must sit on the boundary radius")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(slope))):
            raise InvalidArgumentError("profile samples must be finite")
        scale = max(float(np.max(np.abs(slope))), 1.0)
        if np.min(slope) < -1e-12 * scale:
            raise NotAdmissibleError("negative slope: profile leaves the admissible cone")
        vscale = max(float(np.max(np.abs(values))), 1.0)
        if np.min(np.diff(values)) < -_MONOTONE_SLACK * vscale:
            raise NotAdmissibleError("values must be nondecreasing in r")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "slope", np.maximum(slope, 0.0))
        object.__setattr__(self, "boundary", float(self.boundary))

    @property
    def grid_n(self) -> int:
        return int(self.nodes.size)

    def min_value(self) -> float:
        """u at the innermost node; -inf is approached but never stored."""
        return float(self.values[0])


@dataclass(frozen=True, eq=False)
class RadialMeasure:
    """Nonnegative radial measure: an atom at the origin plus a density.

    cumulative[i] is the mass of the closed ball of radius nodes[i],
    atom included, and is the authoritative field; density is the
    pointwise derivative and is diagnostic.
    """

    dim: HessianDim
    R: float
    nodes: np.ndarray
    atom: float
    density: np.ndarray
    cumulative: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        density = np.asarray(self.density, dtype=float)
        cumulative = np.asarray(self.cumulative, dtype=float)
        if nodes.ndim != 1 or density.shape != nodes.shape or cumulative.shape != nodes.shape:
            raise InvalidArgumentError("measure arrays must be matching 1-d arrays")
        if self.atom < 0 or not np.isfinite(self.atom):
            raise InvalidMeasureError(f"atom must be finite and >= 0, got {self.atom!r}")
        scale = max(float(cumulative[-1]), 1.0)
        if np.min(np.diff(cumulative)) < -_MONOTONE_SLACK * scale:
            raise InvalidMeasureError("cumulative mass must be nondecreasing")
        dscale = max(float(np.max(np.abs(density))), 1.0)
        if np.min(density) < -1e-9 * dscale:
            raise InvalidMeasureError("density must be nonnegative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "density", np.maximum(density, 0.0))
        object.__setattr__(self, "cumulative", np.maximum.accumulate(cumulative))
        object.__setattr__(self, "atom", float(self.atom))

    @property
    def total(self) -> float:
        return float(self.cumulative[-1])

    def cumulative_at(self, r) -> np.ndarray | float:
        """Mass of the closed ball of radius r, log-linear between nodes.

        r = 0 returns 0; any 0 < r < nodes[0] returns the atom.
        """
        r_arr = np.asarray(r, dtype=float)
        out = np.interp(
            np.log(np.maximum(r_arr, self.nodes[0])),
            np.log(self.nodes),
            self.cumulative,
        )
        out = np.where(r_arr < self.nodes[0], self.atom, out)
        out = np.where(r_arr <= 0.0, 0.0, out)
        return float(out) if np.isscalar(r) else out

    @classmethod
    def from_density(cls, dim: HessianDim, R: float, nodes, density) -> "RadialMeasure":
        return cls.from_parts(dim, R, nodes, 0.0, density)

    @classmethod
    def from_atom(cls, dim: HessianDim, R: float, nodes, atom: float) -> "RadialMeasure":
        nodes = np.asarray(nodes, dtype=float)
        zero = np.zeros_like(nodes)
        return cls(dim, R, nodes, atom, zero, np.full_like(nodes, float(atom)))

    @classmethod
    def from_parts(cls, dim: HessianDim, R: float, nodes, atom: float, density) -> "RadialMeasure":
        """Build atom + density measure, integrating the density exactly
        enough for round trips (log-Simpson plus a power-law stub)."""
        nodes = np.asarray(nodes, dtype=float)
        f = density(nodes) if callable(density) else np.asarray(density, dtype=float)
        f = np.broadcast_to(np.asarray(f, dtype=float), nodes.shape).copy()
        if np.any(f < 0) or not np.all(np.isfinite(f)):
            raise InvalidMeasureError("density must be finite and nonnegative")
        n = dim.n
        shell = dim.ball_volume * n * f * nodes ** (n - 1)
        stub = quad.origin_stub(nodes, shell)
        if not np.isfinite(stub):
            raise InvalidMeasureError("density is not integrable near the origin")
        cumulative = float(atom) + stub + quad.cumulative_from_left(nodes, shell)
        return cls(dim, R, nodes, float(atom), f, cumulative)


class KindParams(NamedTuple):
    """What the closed forms read: amplitude c, domain radius R, power
    exponent m = (n - 2k)/k, and mollification scale eps."""

    c: float
    R: float
    m: float
    eps: float


def _require_subcritical(dim: HessianDim) -> None:
    if not dim.is_subcritical:
        raise UnsupportedDimensionError(
            f"power profiles need 2k < n, got (n, k) = ({dim.n}, {dim.k})"
        )


def _require_newtonian(dim: HessianDim) -> None:
    if (dim.n, dim.k) != (3, 1):
        raise UnsupportedDimensionError("the newtonian kind is the (n, k) = (3, 1) power profile")


def _neg_half_log1p(x: float) -> float:
    # -log(rho/R) from x = (rho/R)^2 - 1; the sublevel ball is empty at x <= -1
    return -0.5 * math.log1p(x) if x > -1.0 else math.inf


@dataclass(frozen=True)
class ClosedForm:
    """Closed forms of one canonical profile kind, each taking KindParams p.

    value(r, p) and slope(r, p) give u and u' on an array of radii;
    log_ratio(t, p) gives log(R/rho) for the sublevel ball
    {u < -t} = B_rho (inf when it is empty); exponent(p) gives m with
    u ~ -c r^(-m) at the origin, 0 for log-type or no divergence.
    unbounded says whether u -> -inf at the origin, and check_dim
    raises when (n, k) cannot host the kind.
    """

    value: Callable
    slope: Callable
    log_ratio: Callable
    exponent: Callable
    unbounded: bool
    check_dim: Callable = lambda dim: None


def _power_form(check_dim: Callable) -> ClosedForm:
    # u = -c (r^-m - R^-m), the point-mass profile of the subcritical regime
    return ClosedForm(
        value=lambda r, p: -p.c * (r**-p.m - p.R**-p.m),
        slope=lambda r, p: p.c * p.m * r ** (-p.m - 1.0),
        log_ratio=lambda t, p: math.log1p(t * p.R**p.m / p.c) / p.m,
        exponent=lambda p: p.m,
        unbounded=True,
        check_dim=check_dim,
    )


# The one home of each canonical kind's formulas.  Tags without a record
# ("bubble", "cap-extremal", untagged profiles) use the grid.
CLOSED_FORMS: dict[str, ClosedForm] = {
    # u = c log(r/R): the point mass of the intermediate regime
    "log": ClosedForm(
        value=lambda r, p: p.c * np.log(r / p.R),
        slope=lambda r, p: p.c / r,
        log_ratio=lambda t, p: t / p.c,
        exponent=lambda p: 0.0,
        unbounded=True,
    ),
    "power": _power_form(_require_subcritical),
    # u = c (r^2 - R^2)/2: constant density
    "quadratic": ClosedForm(
        value=lambda r, p: p.c * (r**2 - p.R**2) / 2.0,
        slope=lambda r, p: p.c * r,
        log_ratio=lambda t, p: _neg_half_log1p(-2.0 * t / (p.c * p.R**2)),
        exponent=lambda p: 0.0,
        unbounded=False,
    ),
    # u = c log(sqrt(r^2 + eps^2) / sqrt(R^2 + eps^2)): the bounded log
    "mollified-log": ClosedForm(
        value=lambda r, p: 0.5 * p.c * (np.log(r**2 + p.eps**2) - np.log(p.R**2 + p.eps**2)),
        slope=lambda r, p: p.c * r / (r**2 + p.eps**2),
        log_ratio=lambda t, p: _neg_half_log1p((1.0 + (p.eps / p.R) ** 2) * math.expm1(-2.0 * t / p.c)),
        exponent=lambda p: 0.0,
        unbounded=False,
    ),
    # the (3, 1) power profile, the Newtonian potential
    "newtonian": _power_form(_require_newtonian),
}


def kind_params(dim: HessianDim, R: float, params: dict) -> KindParams:
    """The closed-form parameters of a canonical profile's params dict."""
    return KindParams(
        c=params["amplitude"],
        R=R,
        m=(dim.n - 2.0 * dim.k) / dim.k,
        eps=params.get("mollification", 0.0),
    )


def _closed_form(u: RadialProfile) -> tuple[ClosedForm, KindParams] | None:
    form = CLOSED_FORMS.get(u.kind)
    params = u.params or {}
    c = params.get("amplitude")
    if form is None or c is None or c <= 0:
        return None
    return form, kind_params(u.dim, u.R, params)


def _slope_origin_exponent(nodes: np.ndarray, slope: np.ndarray) -> float | None:
    """Local power-law exponent of u' at the inner edge, or None."""
    if slope[0] <= 0 or slope[1] <= 0:
        return None
    return float(np.log(slope[1] / slope[0]) / np.log(nodes[1] / nodes[0]))


def _looks_unbounded(nodes: np.ndarray, slope: np.ndarray) -> bool:
    p = _slope_origin_exponent(nodes, slope)
    return p is not None and p <= -1.0 + 1e-9


def profile_from_slope(
    dim: HessianDim,
    R: float,
    nodes: np.ndarray,
    slope: np.ndarray,
    boundary: float,
    values: np.ndarray | None = None,
    kind: str | None = None,
    params: dict | None = None,
    unbounded_origin: bool | None = None,
) -> RadialProfile:
    """Assemble a profile from slope data, integrating for the values
    unless exact ones are supplied."""
    nodes = np.asarray(nodes, dtype=float)
    slope = np.asarray(slope, dtype=float)
    if values is None:
        values = boundary - quad.cumulative_from_right(nodes, slope)
    if unbounded_origin is None:
        unbounded_origin = _looks_unbounded(nodes, slope)
    return RadialProfile(
        dim=dim,
        R=float(R),
        nodes=nodes,
        values=np.asarray(values, dtype=float),
        slope=slope,
        boundary=float(boundary),
        unbounded_origin=bool(unbounded_origin),
        kind=kind,
        params=dict(params or {}),
    )


def _mass_coefficient(dim: HessianDim) -> float:
    # n omega_n C(n-1, k-1) / k, the constant in the radial mass identity
    return dim.n * dim.ball_volume * math.comb(dim.n - 1, dim.k - 1) / dim.k


def _s_k_density(dim: HessianDim, second, ratio):
    # S_k of a radial function from u'' and u'/r
    n, k = dim.n, dim.k
    return math.comb(n - 1, k - 1) * second * ratio ** (k - 1) + math.comb(n - 1, k) * ratio**k


def s_k_radial(u: RadialProfile) -> RadialMeasure:
    """k-Hessian measure of a radial profile.

    The cumulative function comes from the exact identity and is the
    trusted output; the density is recovered by differentiating the
    slope and carries ordinary finite-difference error.  The atom is the
    cumulative value extrapolated to the inner cutoff, declared zero
    below 1e-10 of the total.
    """
    dim, r = u.dim, u.nodes
    n, k = dim.n, dim.k
    m = _mass_coefficient(dim) * r ** (n - k) * u.slope**k
    total = float(m[-1])
    if total > 0 and np.min(np.diff(m)) < -1e-9 * total:
        raise NotAdmissibleError("cumulative Hessian mass decreases: profile is not k-admissible")
    m = np.maximum.accumulate(m)
    atom = float(m[0])
    if atom < 1e-10 * total:
        atom = 0.0
    density = np.maximum(_s_k_density(dim, np.gradient(u.slope, r), u.slope / r), 0.0)
    return RadialMeasure(dim=dim, R=u.R, nodes=r, atom=atom, density=density, cumulative=m)


def solve_dirichlet(mu: RadialMeasure, boundary: float) -> RadialProfile:
    """Radial Dirichlet solve: the k-admissible profile whose Hessian
    measure is mu and whose boundary value is the given datum.

    Inverts the mass identity for the slope,

        u'(r) = (k m(r) / (n omega_n C(n-1, k-1)))^(1/k) r^((k-n)/k),

    then integrates inward from the boundary.
    """
    dim, r = mu.dim, mu.nodes
    n, k = dim.n, dim.k
    slope = (mu.cumulative / _mass_coefficient(dim)) ** (1.0 / k) * r ** ((k - n) / k)
    return profile_from_slope(dim, mu.R, r, slope, boundary)


def hessian_mass(u: RadialProfile) -> float:
    """Total k-Hessian mass of the ball, atom included."""
    return s_k_radial(u).total


def _require_zero_boundary(u: RadialProfile, op: str) -> None:
    scale = max(float(np.max(np.abs(u.values))), 1.0)
    if abs(u.boundary) > 1e-12 * scale:
        raise InvalidArgumentError(f"{op} needs boundary value 0, got {u.boundary!r}")


def hessian_integral(u: RadialProfile) -> float:
    """Integral of (-u) against the k-Hessian measure of u.

    Computed as the level-set identity integral of u'(r) m(r) dr, which
    absorbs the atom contribution; an atom sitting where u = -inf makes
    the integral +inf.
    """
    _require_zero_boundary(u, "hessian integral")
    mu = s_k_radial(u)
    if mu.atom > 0 and u.unbounded_origin:
        return float("inf")
    integrand = u.slope * mu.cumulative
    stub = quad.origin_stub(u.nodes, integrand)
    if not np.isfinite(stub):
        return float("inf")
    return float(stub + quad.integral(u.nodes, integrand))


def phi_norm(u: RadialProfile) -> float:
    """Variational norm: the (k+1)-st root of the Hessian integral."""
    total = hessian_integral(u)
    if not np.isfinite(total):
        return float("inf")
    return total ** (1.0 / (u.dim.k + 1))


def _require_level(t: float) -> None:
    if not np.isfinite(t) or t <= 0:
        raise InvalidArgumentError(f"level t must be positive, got {t!r}")


def value_at(u: RadialProfile, r: float) -> float:
    """Profile value at radius r.

    Canonical kinds evaluate their closed form (grid interpolation
    biases by O(h^2), which is fatal for equality checks at 1e-8);
    anything else interpolates the grid in log radius, holding the
    first node's value below it.
    """
    if not (np.isfinite(r) and 0.0 <= r <= u.R * (1.0 + 1e-12)):
        raise InvalidArgumentError(f"need 0 <= r <= {u.R:g}, got {r!r}")
    r = min(float(r), u.R)
    closed = _closed_form(u)
    if closed is not None:
        form, p = closed
        # the same array expression make_profile samples, so nodes agree exactly
        with np.errstate(divide="ignore"):
            return float(form.value(np.array([r]), p)[0])
    if r <= u.nodes[0]:
        return float(u.values[0])
    return float(np.interp(math.log(r), np.log(u.nodes), u.values))


def level_set_log_ratio(u: RadialProfile, t: float) -> float:
    """log(R/rho) for the sublevel ball {u < -t} = B_rho: 0 when it is
    the whole ball, inf when it is empty.

    Canonical kinds return the logarithm in closed form, so it stays
    accurate when rho is close to R, where forming rho first cancels.
    """
    _require_level(t)
    if u.boundary < -t:
        return 0.0
    closed = _closed_form(u)
    if closed is not None:
        form, p = closed
        return form.log_ratio(t, p)
    rho = _grid_level_radius(u, t)
    return math.log(u.R / rho) if rho > 0 else math.inf


def _grid_level_radius(u: RadialProfile, t: float) -> float:
    """Sublevel radius by log-radius interpolation of the grid values."""
    v = u.values
    if v[0] >= -t:
        return 0.0
    i = int(np.searchsorted(v, -t, side="left"))
    i = min(max(i, 1), v.size - 1)
    lo, hi = v[i - 1], v[i]
    if hi <= lo:
        return float(u.nodes[i - 1])
    w = (-t - lo) / (hi - lo)
    log_r = (1 - w) * np.log(u.nodes[i - 1]) + w * np.log(u.nodes[i])
    return float(np.exp(log_r))


def level_set_radius(u: RadialProfile, t: float) -> float:
    """Radius of the sublevel ball {u < -t}; 0 when the set is empty."""
    return float(u.R * math.exp(-level_set_log_ratio(u, t)))


def domain_volume(dim: HessianDim, R: float) -> float:
    return dim.ball_volume * float(R) ** dim.n


def exp_moment_bound(dim: HessianDim, R: float, lam: float) -> float:
    """The sharp bound |B_R| a0/(a0 - lam) on the normalized exponential
    moment at the exponent ceiling, for lam < a0."""
    alpha0 = dim.moser_constant
    return domain_volume(dim, R) * alpha0 / (alpha0 - lam)


def volume_integral(dim: HessianDim, nodes: np.ndarray, g: np.ndarray) -> float:
    """Integral of a radial function g over the ball, n omega_n
    int g r^(n-1) dr, origin stub included."""
    shell = dim.n * dim.ball_volume * np.asarray(g, dtype=float) * nodes ** (dim.n - 1)
    stub = quad.origin_stub(nodes, shell)
    if not np.isfinite(stub):
        return float("inf")
    return float(stub + quad.integral(nodes, shell))


def _power_singularity(u: RadialProfile) -> float | None:
    """Exponent m with u ~ -c r^(-m) near the origin, if any.

    Canonical kinds report it exactly (0 for log-type divergence, which
    never trips the power-divergence tests); otherwise it is estimated
    from the inner nodes.
    """
    closed = _closed_form(u)
    if closed is not None:
        form, p = closed
        return form.exponent(p)
    if not u.unbounded_origin:
        return None
    depth = -float(u.values[0])
    if depth <= 0:
        return None
    return float(u.nodes[0] * u.slope[0] / depth)


def lp_norm(u: RadialProfile, p: float) -> float:
    """Strong L^p norm of the profile over the ball.

    Profiles with a power singularity r^(-m) at the origin are flagged
    +inf at and above the endpoint p = n/m.
    """
    if not np.isfinite(p) or p < 1:
        raise InvalidArgumentError(f"exponent p must satisfy p >= 1, got {p!r}")
    m_sing = _power_singularity(u)
    if m_sing is not None and m_sing > 0 and p * m_sing >= u.dim.n * (1.0 - 1e-12):
        return float("inf")
    integrand = np.abs(u.values) ** p
    total = volume_integral(u.dim, u.nodes, integrand)
    if not np.isfinite(total):
        return float("inf")
    return total ** (1.0 / p)


def weak_lp_quasinorm(u: RadialProfile, p: float) -> float:
    """Weak L^p quasinorm sup_t t |{u < -t}|^(1/p).

    The supremum over levels is scanned on the grid (each node r is the
    level t = -u(r)) and, for profiles with a recognized power
    singularity, the analytic t -> inf tail is included.
    """
    if not np.isfinite(p) or p < 1:
        raise InvalidArgumentError(f"exponent p must satisfy p >= 1, got {p!r}")
    dim = u.dim
    neg = -u.values
    mask = neg > 0
    best = 0.0
    if np.any(mask):
        candidates = neg[mask] * (dim.ball_volume * u.nodes[mask] ** dim.n) ** (1.0 / p)
        best = float(np.max(candidates))
    m_sing = _power_singularity(u)
    if m_sing is not None and m_sing > 0:
        endpoint = dim.n / m_sing
        if p > endpoint * (1.0 + 1e-12):
            return float("inf")
        closed = _closed_form(u)
        if abs(p - endpoint) <= 1e-12 * endpoint and closed is not None:
            c = closed[1].c
            tail = dim.ball_volume ** (1.0 / p) * c ** (dim.n / (m_sing * p))
            best = max(best, tail)
    return best


def exp_integral(u: RadialProfile, lam: float, beta: float) -> float:
    """Exponential moment int exp(lam ((-u)/M^(1/k))^(k beta/(k+1))) dx.

    Defined in the intermediate regime 2k = n for boundary datum 0 and
    beta between 1 and the exponent ceiling.  The canonical log family
    at the ceiling uses the exact closed form |B_R| a0/(a0 - lam), with
    divergence flagged analytically for lam >= a0 rather than through
    overflow; other profiles are integrated on the grid after an
    analytic divergence test on their origin exponent.
    """
    dim = u.dim
    if not dim.is_intermediate:
        raise UnsupportedDimensionError(
            f"exponential moment needs 2k = n, got (n, k) = ({dim.n}, {dim.k})"
        )
    beta_max = dim.beta_max
    if not np.isfinite(beta) or not 1.0 <= beta <= beta_max + 1e-12:
        raise InvalidArgumentError(f"beta must lie in [1, {beta_max}], got {beta!r}")
    if not np.isfinite(lam) or lam < 0:
        raise InvalidArgumentError(f"coefficient lam must be >= 0, got {lam!r}")
    _require_zero_boundary(u, "exponential moment")
    mass = hessian_mass(u)
    if mass <= 0:
        raise DegenerateProfileError("exponential moment needs positive Hessian mass")
    n, k = dim.n, dim.k
    alpha0 = dim.moser_constant
    at_ceiling = abs(beta - beta_max) <= 1e-12
    if at_ceiling and u.unbounded_origin:
        if u.kind == "log":
            # normalization removes the amplitude: the local exponent is
            # n lam / a0 independently of c
            if lam >= alpha0 * (1.0 - 1e-12):
                return float("inf")
        else:
            coeff = float(u.nodes[0] * u.slope[0])
            gamma = lam * coeff / mass ** (1.0 / k)
            if gamma >= n * (1.0 - 1e-9):
                return float("inf")
    if u.kind == "log" and at_ceiling:
        return exp_moment_bound(dim, u.R, lam)
    w = np.maximum(-u.values, 0.0) / mass ** (1.0 / k)
    integrand = np.exp(lam * w ** (k * beta / (k + 1.0)))
    return volume_integral(dim, u.nodes, integrand)
