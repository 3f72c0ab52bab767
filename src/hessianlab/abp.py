"""Barrier construction and maximum-estimate checks in the borderline
dimension 2k = n.

The pipeline: an Orlicz weight t -> Phi(t) with integrable Phi^(-1/k)
tail turns a density exp(G) into a budget N = int exp(G) Phi(G); the
auxiliary potential psi1 solves the unit-mass equation
S_k[psi1] = exp(G) Phi(G) / N; the concave reparametrization

    h(s) = -(q/alpha) N^(1/k) int_s^inf Phi(t)^(-1/k) dt

composes to a barrier psi = -h(-(alpha/q) psi1) whose Hessian density
dominates exp(G) wherever G >= -(alpha/q) psi1, while the complementary
branch is absorbed by exp(-(alpha/q) psi1) directly.  verify_gk checks
that pointwise inequality on a grid; abp_bound_check turns it into the
sup-bound sup u <= c1 + c2 N^(1/k) by calibrating (c1, c2) on half of a
density family and holding the other half out.

The decay lemma lives here too: given nonincreasing level-set masses
phi(s) with t phi(s + t) <= C0 phi(s)^(1+delta), phi vanishes past

    s_inf = 2 C0 phi0^delta / (1 - 2^(-delta)) + s0,

and degiorgi_fit_and_verify fits (C0, delta) from samples and confirms
the vanishing prediction against the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import quadrature as quad
from .core import HessianDim
from .errors import InvalidArgumentError, InvalidWeightError
from .radial import (
    RadialMeasure,
    _s_k_density,
    _s_k_second,
    _sampled,
    RadialProfile,
    exp_integral,
    exp_moment_bound,
    level_set_radius,
    solve_dirichlet,
    volume_integral,
)
from .report import CheckRecord, upper_bound

__all__ = [
    "WEIGHT_KINDS",
    "OrliczWeight",
    "OrliczBarrier",
    "orlicz_h",
    "verify_gk",
    "SampledFamily",
    "sample_family",
    "abp_bound_check",
    "mollified_dirac_family",
    "fixed_budget_variation_check",
    "barrier_epsilon",
    "degiorgi_threshold",
    "DeGiorgiData",
    "degiorgi_fit_and_verify",
    "degiorgi_from_run",
    "abp_degiorgi_check",
]

WEIGHT_KINDS = ("exp", "power", "tabulated")

# Level-set masses at or below this count as "vanished" for the decay
# lemma's conclusion.
PHI_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class OrliczWeight:
    """Positive nondecreasing weight t -> Phi(t) with its k-th-root tail.

    kind "exp" is Phi(t) = exp(rate t); "power" is (1 + max(t, 0))^exponent;
    "tabulated" interpolates given samples and continues the tail with a
    log-linear fit of the last two.  `lam` is int_0^inf Phi^(-1/k) dt and
    may be infinite (e.g. a constant weight); operations that need the
    barrier reject such weights.
    """

    kind: str
    k: int
    rate: float | None = None
    exponent: float | None = None
    nodes: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in WEIGHT_KINDS:
            raise InvalidWeightError(f"unknown weight kind {self.kind!r}; expected one of {WEIGHT_KINDS}")
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise InvalidWeightError(f"k must be a positive integer, got {self.k!r}")
        if self.kind == "exp":
            if self.rate is None or not np.isfinite(self.rate) or self.rate < 0:
                raise InvalidWeightError(f"exp weight needs rate >= 0, got {self.rate!r}")
        elif self.kind == "power":
            if self.exponent is None or not np.isfinite(self.exponent) or self.exponent < 0:
                raise InvalidWeightError(f"power weight needs exponent >= 0, got {self.exponent!r}")
        else:
            if self.nodes is None or self.values is None:
                raise InvalidWeightError("tabulated weight needs nodes and values")
            t = np.asarray(self.nodes, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if t.ndim != 1 or t.size < 2 or v.shape != t.shape:
                raise InvalidWeightError("tabulated weight needs matching 1-d nodes and values, length >= 2")
            if not np.all(np.diff(t) > 0):
                raise InvalidWeightError("tabulated nodes must be strictly increasing")
            if not (np.all(np.isfinite(v)) and np.all(v > 0)):
                raise InvalidWeightError("tabulated values must be positive and finite")
            if np.any(np.diff(v) < 0):
                raise InvalidWeightError("weight must be nondecreasing")
            object.__setattr__(self, "nodes", t)
            object.__setattr__(self, "values", v)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "exp":
            return np.exp(self.rate * t)
        if self.kind == "power":
            return (1.0 + np.maximum(t, 0.0)) ** self.exponent
        return np.interp(t, self.nodes, self.values)

    @cached_property
    def _tab_tail_parts(self):
        # Right-cumulative of Phi^(-1/k) on the samples, plus a
        # log-linear continuation past the last node.
        w = self.values ** (-1.0 / self.k)
        segs = 0.5 * (w[1:] + w[:-1]) * np.diff(self.nodes)
        right = np.concatenate([np.cumsum(segs[::-1])[::-1], [0.0]])
        b = (math.log(self.values[-1]) - math.log(self.values[-2])) / (
            self.nodes[-1] - self.nodes[-2]
        )
        cont = (self.k / b) * self.values[-1] ** (-1.0 / self.k) if b > 0 else math.inf
        return w, right, cont, b

    def tail(self, s):
        """int_s^inf Phi(t)^(-1/k) dt, elementwise."""
        s = np.asarray(s, dtype=float)
        k = float(self.k)
        if self.kind == "exp":
            if self.rate == 0:
                return np.full_like(s, math.inf)
            return (k / self.rate) * np.exp(-self.rate * s / k)
        if self.kind == "power":
            m = self.exponent
            if m <= k:
                return np.full_like(s, math.inf)
            head = (k / (m - k)) * (1.0 + np.maximum(s, 0.0)) ** (-(m - k) / k)
            return head + np.maximum(-s, 0.0)
        w, right, cont, b = self._tab_tail_parts
        if not np.isfinite(cont):
            return np.full_like(s, math.inf)
        t0, t1 = self.nodes[0], self.nodes[-1]
        out = np.empty_like(s)
        low = s < t0
        high = s > t1
        mid = ~(low | high)
        at_t0 = right[0] + cont
        out[low] = (t0 - s[low]) * w[0] + at_t0
        out[mid] = np.interp(s[mid], self.nodes, right) + cont
        out[high] = cont * np.exp(-b * (s[high] - t1) / k)
        return out

    @cached_property
    def lam(self) -> float:
        """The tail budget int_0^inf Phi^(-1/k); may be +inf."""
        return float(self.tail(0.0))


@dataclass(frozen=True)
class OrliczBarrier:
    """Concave increasing reparametrization h and its derivatives.

    h(s) = -scale * tail(s) with scale = (q/alpha) N^(1/k), so h < 0,
    h' = scale * Phi(s)^(-1/k) > 0, h'' <= 0.
    """

    weight: OrliczWeight
    scale: float
    s0: float

    def h(self, s):
        return -self.scale * self.weight.tail(s)

    def h_prime(self, s):
        return self.scale * self.weight.value(s) ** (-1.0 / self.weight.k)

    def h_second(self, s):
        s = np.asarray(s, dtype=float)
        w = self.weight
        k = float(w.k)
        if w.kind == "exp":
            return -self.scale * (w.rate / k) * np.exp(-w.rate * s / k)
        if w.kind == "power":
            m = w.exponent
            out = np.zeros_like(s)
            pos = s > 0
            out[pos] = -self.scale * (m / k) * (1.0 + s[pos]) ** (-m / k - 1.0)
            return out
        # Tabulated weights get a centered difference of h'; the step is
        # relative so large s stay well conditioned.
        eps = 1e-6 * (1.0 + np.abs(s))
        return (self.h_prime(s + eps) - self.h_prime(s - eps)) / (2.0 * eps)


def orlicz_h(weight: OrliczWeight, budget: float, q: float, alpha: float) -> OrliczBarrier:
    """Build the barrier reparametrization for a given Orlicz budget.

    Rejects weights whose tail integral diverges: without a finite
    tail there is no finite starting level s0 = -h(0).
    """
    if not np.isfinite(weight.lam):
        raise InvalidWeightError(
            f"weight tail integral diverges (kind={weight.kind!r}); barrier undefined"
        )
    if not (np.isfinite(q) and q > 1):
        raise InvalidArgumentError(f"need q > 1, got {q!r}")
    if not (np.isfinite(alpha) and alpha > 0):
        raise InvalidArgumentError(f"need alpha > 0, got {alpha!r}")
    if not (np.isfinite(budget) and budget > 0):
        raise InvalidArgumentError(f"need a positive finite budget, got {budget!r}")
    scale = (q / alpha) * budget ** (1.0 / weight.k)
    return OrliczBarrier(weight=weight, scale=scale, s0=scale * weight.lam)


def barrier_epsilon(amplitude: float, k: int) -> float:
    """Comparison constant ((k+1)/k)^(k/(k+1)) A^(1/(k+1)).

    Homogeneous of degree 1/(k+1) in the amplitude A.
    """
    if not (np.isfinite(amplitude) and amplitude >= 0):
        raise InvalidArgumentError(f"amplitude must be finite and >= 0, got {amplitude!r}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidArgumentError(f"k must be a positive integer, got {k!r}")
    return ((k + 1.0) / k) ** (k / (k + 1.0)) * amplitude ** (1.0 / (k + 1.0))


def _require_weight_order(dim: HessianDim, weight: OrliczWeight) -> None:
    if weight.k != dim.k:
        raise InvalidWeightError(f"weight is for k = {weight.k}, dimension has k = {dim.k}")


def verify_gk(
    dim: HessianDim,
    density,
    weight: OrliczWeight,
    q: float = 2.0,
    alpha: float | None = None,
    R: float = 1.0,
    grid_n: int = quad.DEFAULT_GRID_N,
) -> CheckRecord:
    """Grid check of the barrier's pointwise domination inequality.

    `density` is a callable r -> exp(G(r)), strictly positive and
    bounded.  The check: with psi1 the unit-mass auxiliary potential
    and psi = -h(-(alpha/q) psi1),

        exp(G) <= S_k[psi] + min(exp(-(alpha/q) psi1), exp(G))

    holds at every node within 1e-6 of the density's maximum, and the
    unit-mass exponential moment of psi1 respects the sharp bound
    |Omega| a0/(a0 - alpha).  Both derivatives of psi come from the
    chain rule; psi1'' is recovered exactly from the equation it
    solves, so no numerical differentiation enters.
    """
    dim.require_intermediate("barrier machinery")
    _require_weight_order(dim, weight)
    alpha0 = dim.moser_constant
    alpha_val = 0.5 * alpha0 if alpha is None else float(alpha)
    if not 0 < alpha_val < alpha0 * (1.0 - 1e-12):
        raise InvalidArgumentError(f"need 0 < alpha < {alpha0:g}, got {alpha_val!r}")
    nodes = quad.radial_grid(R, grid_n)
    g = _sampled(density, nodes, positive=True)
    big_g = np.log(g)
    weighted = g * weight.value(big_g)
    budget = volume_integral(dim, nodes, weighted)
    f_unit = weighted / budget
    mu = RadialMeasure.from_density(dim, R, nodes, f_unit)
    psi1 = solve_dirichlet(mu, 0.0)

    moment = exp_integral(psi1, alpha_val, dim.beta_max)
    moment_bound = exp_moment_bound(dim, R, alpha_val)
    moment_ok = moment <= moment_bound * (1.0 + 1e-6)

    n, k = dim.n, dim.k
    # psi1'' from the equation S_k[psi1] = f_unit
    psi1_second = _s_k_second(dim, f_unit, psi1.slope / nodes)

    barrier = orlicz_h(weight, budget, q, alpha_val)
    s = -(alpha_val / q) * psi1.values
    s = np.maximum(s, 0.0)
    hp = barrier.h_prime(s)
    hs = barrier.h_second(s)
    c = alpha_val / q
    psi_slope = c * hp * psi1.slope
    psi_second = c * hp * psi1_second - c * c * hs * psi1.slope**2
    sk_psi = _s_k_density(dim, psi_second, psi_slope / nodes)

    absorb = np.minimum(np.exp(s), g)
    residual = g - (sk_psi + absorb)
    worst = float(np.max(residual))
    tol = 1e-6 * float(np.max(g))
    n_sharp = int(np.sum(big_g >= s))
    return upper_bound(
        f"gk-pointwise[n={n},k={k},{weight.kind}]",
        "gk-pointwise",
        {"n": n, "k": k, "weight": weight.kind, "q": q, "alpha": alpha_val, "R": R},
        worst,
        tol,
        {
            "budget": budget,
            "moment_ratio": moment / moment_bound,
            "moment_ok": bool(moment_ok),
            "branch_sharp": n_sharp,
            "branch_absorbed": int(big_g.size - n_sharp),
            "s0": barrier.s0,
        },
        holds=moment_ok,
    )


def _orlicz_budget(dim: HessianDim, nodes, g, weight: OrliczWeight) -> float:
    """The Orlicz budget N(g) = n omega_n int g Phi(log g) r^(n-1) dr of
    one density g >= 0 over the ball, origin stub included; zeros of g
    add nothing.  A density positive at every node skips the masks that
    keep zeros of g out of the log; both paths give the same float there.
    """
    pos = g > 0
    if pos.all():
        return volume_integral(dim, nodes, g * weight.value(np.log(g)))
    with np.errstate(divide="ignore"):
        logs = np.where(pos, np.log(np.where(pos, g, 1.0)), 0.0)
    return volume_integral(dim, nodes, np.where(pos, g * weight.value(logs), 0.0))


@dataclass(frozen=True)
class SampledFamily:
    """A density family on one grid: per member its label, sup norm,
    Orlicz budget and the sup of the solution of S_k[u] = g, u = 0 on
    the sphere."""

    dim: HessianDim
    weight: OrliczWeight
    R: float
    labels: tuple[str, ...]
    heights: tuple[float, ...]
    budgets: tuple[float, ...]
    sups: tuple[float, ...]


def sample_family(
    dim: HessianDim,
    densities,
    weight: OrliczWeight,
    R: float = 1.0,
    grid_n: int = quad.DEFAULT_GRID_N,
) -> SampledFamily:
    """Sample each (label, callable) density on the grid, take its
    Orlicz budget and solve its Dirichlet problem once, for the checks
    that read the family."""
    _require_weight_order(dim, weight)
    nodes = quad.radial_grid(R, grid_n)
    labels, heights, budgets, sups = [], [], [], []
    for label, fn in densities:
        g = _sampled(fn, nodes, f"density {label!r}")
        budget = _orlicz_budget(dim, nodes, g, weight)
        if not np.isfinite(budget):
            raise InvalidArgumentError(f"density {label!r} has an infinite Orlicz budget")
        u = solve_dirichlet(RadialMeasure.from_density(dim, R, nodes, g), 0.0)
        labels.append(str(label))
        heights.append(float(np.max(g)))
        budgets.append(budget)
        sups.append(-float(u.values[0]))
    return SampledFamily(dim, weight, R, tuple(labels), tuple(heights), tuple(budgets), tuple(sups))


def abp_bound_check(family: SampledFamily) -> list[CheckRecord]:
    """Calibrate-then-hold-out test of sup u <= c1 + c2 N^(1/k).

    The first half of the family calibrates (c1, c2) by least squares
    (c2 clamped >= 0, c1 lifted so the calibration half satisfies the
    bound outright); the remaining members are held out and must pass
    with a multiplicative slack of 0.10 on the c2 term.  One record
    per member, held-out ones marked.
    """
    dim = family.dim
    dim.require_intermediate("the sup-bound check")
    count = len(family.labels)
    if count < 4:
        raise InvalidArgumentError(f"need at least 4 family members, got {count}")
    x = np.array([budget ** (1.0 / dim.k) for budget in family.budgets])
    y = np.array(family.sups)
    calib = np.arange(count) < (count + 1) // 2
    if float(np.ptp(x[calib])) <= 1e-9 * (1.0 + float(np.max(np.abs(x)))):
        c2 = 0.0
    else:
        c2 = max(float(np.polyfit(x[calib], y[calib], 1)[0]), 0.0)
    c1 = float(np.max(y[calib] - c2 * x[calib]))

    records = []
    for i, label in enumerate(family.labels):
        held_out = not calib[i]
        bound = float(c1 + (1.0 + 0.10) * c2 * x[i] if held_out else c1 + c2 * x[i])
        records.append(upper_bound(
            f"abp-bound[n={dim.n},k={dim.k},{label}]",
            "abp-orlicz-bound",
            {
                "n": dim.n, "k": dim.k, "member": label, "weight": family.weight.kind,
                "R": family.R, "held_out": held_out,
            },
            float(y[i]), bound, {"c1": c1, "c2": c2, "budget_root": float(x[i])},
            slack=1e-12 * abs(bound) + 1e-15,
        ))
    return records


def _increasing_root(f, lo: float, hi: float) -> float:
    """Root of an increasing f with f(lo) < 0 <= f(hi), by regula falsi
    with the Illinois fix: when one end moves twice in a row, the other
    end's value is halved, so both ends close in.  Stops at an exact
    zero or once the bracket is narrower than 1e-15 (1 + hi), a few
    ulps of the root, where f is rounding noise."""
    f_lo, f_hi = f(lo), f(hi)
    x, fx, moved = hi, f_hi, None
    while fx != 0 and hi - lo > 1e-15 * (1.0 + hi):
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx < 0:
            if moved == "lo":
                f_hi /= 2
            lo, f_lo, moved = x, fx, "lo"
        else:
            if moved == "hi":
                f_lo /= 2
            hi, f_hi, moved = x, fx, "hi"
    return x


def mollified_dirac_family(
    dim: HessianDim,
    weight: OrliczWeight,
    R: float = 1.0,
    base: float = 1.0,
    budget_lift: float = 1.05,
    scales: tuple[float, ...] = (2**-3, 2**-4, 2**-5, 2**-6, 2**-7, 2**-8),
    grid_n: int = quad.DEFAULT_GRID_N,
) -> list[tuple[str, object]]:
    """Fixed-budget densities base + A(eps) exp(-r^2 / (2 eps^2)), with
    eps = R * frac for each fraction in `scales`.

    Every member has the same Orlicz budget (the flat density's budget
    times `budget_lift`), enforced by root-solving the bump amplitude,
    while the sup norm blows up as eps shrinks.  The default lift keeps
    the widest bump a modest share of the budget; pushing it far past 1
    lets that member's extra mass show up in sup u.

    Each trial density is at least base > 0, so each budget takes the
    unmasked path of _orlicz_budget.
    """
    dim.require_intermediate("the fixed-budget family")
    if not (np.isfinite(base) and base > 0):
        raise InvalidArgumentError(f"base level must be positive, got {base!r}")
    if not (np.isfinite(budget_lift) and budget_lift > 1.0):
        raise InvalidArgumentError(f"budget lift must be finite and exceed 1, got {budget_lift!r}")
    nodes = quad.radial_grid(R, grid_n)
    flat = _orlicz_budget(dim, nodes, np.full_like(nodes, base), weight)
    target = budget_lift * flat

    members = []
    for frac in scales:
        if not 0 < frac < 1:
            raise InvalidArgumentError(f"bump scale must be a fraction of R in (0, 1), got {frac!r}")
        eps = R * frac
        bump = np.exp(-(nodes**2) / (2.0 * eps * eps))

        def gap(amp, bump=bump):
            return _orlicz_budget(dim, nodes, base + amp * bump, weight) - target

        hi = 1.0
        while gap(hi) < 0:
            hi *= 4.0
            if hi > 1e18:
                raise InvalidArgumentError("bump amplitude search failed to bracket the budget")
        amp = _increasing_root(gap, 0.0, hi)

        def density(r, amp=amp, eps=eps):
            return base + amp * np.exp(-(r**2) / (2.0 * eps * eps))

        members.append((f"dirac-eps={eps:g}", density))
    return members


def fixed_budget_variation_check(family: SampledFamily) -> CheckRecord:
    """Uniform boundedness of sup u across the fixed-budget sweep.

    `family` is normally the sampled mollified_dirac_family.  Passes
    when the relative spread of sup u stays under 0.20 while the
    family's sup-norm ratio is at least 1e3, i.e. the maximum estimate
    really ignores the density's height.
    """
    dim = family.dim
    sups = np.array(family.sups)
    variation = float((np.max(sups) - np.min(sups)) / np.max(sups))
    height_ratio = float(np.max(family.heights) / np.min(family.heights))
    budget_spread = float(np.ptp(family.budgets) / np.max(family.budgets))
    return upper_bound(
        f"abp-fixed-budget[n={dim.n},k={dim.k}]",
        "abp-fixed-budget",
        {"n": dim.n, "k": dim.k, "weight": family.weight.kind, "R": family.R, "members": len(sups)},
        variation,
        0.20,
        {"sup_values": list(family.sups), "height_ratio": height_ratio, "budget_spread": budget_spread},
        holds=height_ratio >= 1e3,
    )


def degiorgi_threshold(c0: float, delta: float, phi0: float, s0: float = 0.0) -> float:
    """Level past which the decay lemma forces phi to vanish."""
    if not (np.isfinite(delta) and delta > 0):
        raise InvalidArgumentError(f"delta must be positive, got {delta!r}")
    if not (np.isfinite(phi0) and phi0 >= 0):
        raise InvalidArgumentError(f"phi0 must be nonnegative, got {phi0!r}")
    # a finite c0 is sign-checked only when phi0 > 0, where it matters
    if not np.isfinite(c0) or (phi0 > 0 and c0 <= 0):
        raise InvalidArgumentError(f"c0 must be finite, and positive when phi0 > 0, got {c0!r}")
    return 2.0 * c0 * phi0**delta / (1.0 - 2.0**-delta) + s0


@dataclass(frozen=True)
class DeGiorgiData:
    """Sampled level-set mass curve with its fitted decay certificate."""

    s: np.ndarray
    phi: np.ndarray
    c0: float
    delta: float
    s0: float
    s_inf: float
    verified: bool
    vanish_level: float | None

    def record(self, check: str, inputs: dict, details: dict) -> CheckRecord:
        """The decay lemma's claim: phi has vanished by the level s_inf,
        under the side condition that the fit is valid."""
        vanish = self.vanish_level if self.vanish_level is not None else math.inf
        return upper_bound(
            check, "degiorgi-vanishing", inputs, vanish, self.s_inf, details, holds=self.verified
        )


def degiorgi_fit_and_verify(s, phi, s0: float | None = None) -> DeGiorgiData:
    """Fit (C0, delta) from samples and confirm the vanishing prediction.

    For each delta on the grid 0.1, 0.2, ..., 2.0 the minimal C0
    satisfying t phi(s + t) <= C0 phi(s)^(1+delta) on all sampled pairs
    is computed; a fit is valid when the sample range reaches past the
    implied s_inf and phi is zero (<= 1e-12) at every sample beyond it.
    The valid fit with the smallest s_inf wins.  With no valid fit the
    certificate is flagged (c0 infinite, verified False).
    """
    s = np.asarray(s, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if s.ndim != 1 or s.size < 8 or phi.shape != s.shape:
        raise InvalidArgumentError("need matching 1-d sample arrays with at least 8 entries")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(phi))):
        raise InvalidArgumentError("samples must be finite")
    if not np.all(np.diff(s) > 0):
        raise InvalidArgumentError("levels must be strictly increasing")
    if np.any(phi < 0):
        raise InvalidArgumentError("level-set masses must be nonnegative")
    scale = float(phi[0]) if phi[0] > 0 else 1.0
    if np.any(np.diff(phi) > 1e-12 * scale):
        raise InvalidArgumentError("level-set masses must be nonincreasing")
    phi = np.minimum.accumulate(phi)
    s0_val = float(s[0]) if s0 is None else float(s0)
    phi0 = float(phi[0])

    live = phi > PHI_ZERO_TOL
    vanish_level: float | None = None
    if not live[-1]:
        vanish_level = float(s[int(np.argmin(live))])

    # max_j (s_j - s_i) phi_j does not depend on delta: one per live i.
    pairs = [
        (float(np.max((s[i + 1 :] - s[i]) * phi[i + 1 :])), phi[i])
        for i in range(s.size - 1)
        if not s[i] < s0_val and live[i]
    ]
    best: tuple[float, float, float] | None = None
    for delta in np.round(np.arange(1, 21) * 0.1, 10):
        c0 = 0.0
        exponent = 1.0 + delta
        for top, base in pairs:
            c0 = max(c0, top / base**exponent)
        s_inf = degiorgi_threshold(max(c0, np.finfo(float).tiny), delta, phi0, s0_val)
        beyond = s >= s_inf
        if np.any(beyond) and np.all(phi[beyond] <= PHI_ZERO_TOL):
            if best is None or s_inf < best[2]:
                best = (c0, float(delta), s_inf)
    if best is None:
        return DeGiorgiData(
            s=s, phi=phi, c0=math.inf, delta=math.nan, s0=s0_val,
            s_inf=math.inf, verified=False, vanish_level=vanish_level,
        )
    c0, delta, s_inf = best
    return DeGiorgiData(
        s=s, phi=phi, c0=c0, delta=delta, s0=s0_val,
        s_inf=s_inf, verified=True, vanish_level=vanish_level,
    )


def degiorgi_from_run(solution: RadialProfile, mu: RadialMeasure, s_max: float | None = None):
    """Sample phi(s) = mu{solution < -s} at 33 levels from a solved
    Dirichlet run.

    The solution is the (nonpositive) potential; s ranges from 0 to
    four times its depth by default so the vanished stretch is visible
    to the fitter.
    """
    depth = -float(solution.values[0])
    if s_max is None:
        s_max = 4.0 * depth if depth > 0 else 1.0
    elif not (np.isfinite(s_max) and s_max > 0):
        raise InvalidArgumentError(f"s_max must be positive, got {s_max!r}")
    s = np.linspace(0.0, s_max, 33)
    phi = np.empty_like(s)
    phi[0] = mu.total
    for i in range(1, s.size):
        radius = level_set_radius(solution, float(s[i]))
        phi[i] = mu.cumulative_at(radius) if radius > 0 else 0.0
    return s, phi


def abp_degiorgi_check(
    dim: HessianDim,
    density,
    R: float = 1.0,
    grid_n: int = quad.DEFAULT_GRID_N,
) -> CheckRecord:
    """End-to-end decay check on one solved density.

    Solves the Dirichlet problem, samples the level-set masses, fits
    the decay certificate, and passes when the fit is valid; validity
    already encodes that the measured vanishing level never exceeds
    the predicted s_inf.
    """
    nodes = quad.radial_grid(R, grid_n)
    g = _sampled(density, nodes)
    mu = RadialMeasure.from_density(dim, R, nodes, g)
    solution = solve_dirichlet(mu, 0.0)
    s, phi = degiorgi_from_run(solution, mu)
    data = degiorgi_fit_and_verify(s, phi)
    # If the fitted threshold fell past the sampled range the samples
    # are extended (phi is identically zero there) and refit once.
    if not data.verified and np.isfinite(data.c0):
        s, phi = degiorgi_from_run(solution, mu, s_max=4.0 * float(s[-1]))
        data = degiorgi_fit_and_verify(s, phi)
    return data.record(
        f"degiorgi-run[n={dim.n},k={dim.k}]",
        {"n": dim.n, "k": dim.k, "R": R},
        {"c0": data.c0, "delta": data.delta, "levels": int(s.size)},
    )
