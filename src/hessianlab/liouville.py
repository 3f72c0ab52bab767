"""Radial solver and blow-up diagnostics for S_k[u] = V exp(-u) with
2k = n.

An Anderson-accelerated fixed-point iteration drives u toward the
fixed point of u <- dirichlet_solve(V exp(-u) dx, b).  On top of the
solver sit the diagnostics: local masses of V exp(-u), the
uniform-boundedness check under a sub-threshold mass budget, the
regular/singular split of limit atoms against the quantum (a0/p')^k,
the three-way limit classification of solution sweeps (bounded /
uniform divergence / concentration at the center), the Harnack-type
ratio probe, and the logarithmic comparison bound near a singular
point.

Dimensions are restricted to (n, k) = (2, 1) and (4, 2): the first has
an exact closed-form oracle (the bubble below), the second is the first
genuinely fully nonlinear borderline case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature as quad
from .core import HessianDim
from .errors import (
    InvalidArgumentError,
    InvalidMeasureError,
    NoSolutionError,
    PreconditionError,
    UnsupportedDimensionError,
)
from .radial import (
    RadialMeasure,
    RadialProfile,
    s_k_radial,
    solve_dirichlet,
    value_at,
)
from .report import CheckRecord, lower_bound, upper_bound

__all__ = [
    "SUPPORTED_DIMS",
    "LiouvilleProblem",
    "SolutionSequence",
    "solve_liouville",
    "equation_residual",
    "solve_sequence",
    "local_mass",
    "smallness_check",
    "regular_point_classify",
    "BlowupReport",
    "classify_alternative",
    "HarnackRecord",
    "harnack_ratio",
    "singular_comparison_check",
    "bubble_profile",
    "bubble_residual_sup",
    "bubble_local_mass",
    "bubble_problem",
]

SUPPORTED_DIMS = ((2, 1), (4, 2))


@dataclass(frozen=True, eq=False)
class LiouvilleProblem:
    """One Dirichlet problem S_k[u] = V exp(-u) on a centered ball.

    `V` is a callable of the radius array, nonnegative and bounded on
    the grid.  `p` is the integrability exponent of V in (1, inf]; the
    conjugate p' = p/(p-1) (p = inf gives exactly 1) sets the
    concentration quantum (a0/p')^k.
    """

    dim: HessianDim
    V: object
    R: float = 1.0
    p: float = math.inf
    boundary: float = 0.0
    grid_n: int = quad.DEFAULT_GRID_N
    label: str = ""

    def __post_init__(self) -> None:
        if not self.dim.is_intermediate:
            raise UnsupportedDimensionError(
                f"the exponential equation needs 2k = n, got (n, k) = ({self.dim.n}, {self.dim.k})"
            )
        if (self.dim.n, self.dim.k) not in SUPPORTED_DIMS:
            raise UnsupportedDimensionError(
                f"supported dimensions are {SUPPORTED_DIMS}, got ({self.dim.n}, {self.dim.k})"
            )
        if not (np.isfinite(self.R) and self.R > 0):
            raise InvalidArgumentError(f"radius must be positive, got {self.R!r}")
        if not (self.p == math.inf or (np.isfinite(self.p) and self.p > 1)):
            raise InvalidArgumentError(f"integrability exponent must lie in (1, inf], got {self.p!r}")
        if not np.isfinite(self.boundary):
            raise InvalidArgumentError(f"boundary value must be finite, got {self.boundary!r}")
        if not callable(self.V):
            raise InvalidArgumentError("V must be callable on a radius array")

    @property
    def p_prime(self) -> float:
        if self.p == math.inf:
            return 1.0
        return self.p / (self.p - 1.0)

    @property
    def threshold(self) -> float:
        return self.dim.concentration_quantum(self.p_prime)

    def density_on(self, nodes: np.ndarray) -> np.ndarray:
        v = np.asarray(self.V(nodes), dtype=float)
        if v.shape != nodes.shape or not np.all(np.isfinite(v)) or np.any(v < 0):
            raise InvalidArgumentError("V must be nonnegative, finite, and radial on the grid")
        return v


# Anderson depth, and the number of steps without halving the best step
# after which a solve counts as stalled.
_DEPTH = 5
_STALL = 20
# exp(-u) is clipped at exp(700) inside the loop, below overflow.
_EXP_CLIP = 700.0


def _image(prob: LiouvilleProblem, nodes: np.ndarray, v: np.ndarray, x: np.ndarray) -> RadialProfile | None:
    """One application of the map u -> dirichlet_solve(V exp(-u) dx, b),
    or None when the clipped density is too large to integrate."""
    density = v * np.exp(np.minimum(-x, _EXP_CLIP))
    try:
        target = RadialMeasure.from_density(prob.dim, prob.R, nodes, density)
    except InvalidMeasureError:
        # Super-exponential growth between nodes breaks the quadrature;
        # that only happens on a divergent iteration.
        return None
    if not np.isfinite(target.total):
        return None
    return solve_dirichlet(target, prob.boundary)


def equation_residual(prob: LiouvilleProblem, u: RadialProfile) -> float:
    """Sup mismatch of cumulative masses, S_k[u] against the unclipped
    V exp(-u) dx, over the total mass; inf where exp(-u) passes the
    solver's clip."""
    if np.max(-u.values) > _EXP_CLIP:
        return math.inf
    v = prob.density_on(u.nodes)
    try:
        target = RadialMeasure.from_density(prob.dim, prob.R, u.nodes, v * np.exp(-u.values))
    except InvalidMeasureError:
        return math.inf
    if target.total == 0.0:
        return 0.0
    return float(np.max(np.abs(s_k_radial(u).cumulative - target.cumulative))) / target.total


def solve_liouville(
    prob: LiouvilleProblem,
    initial: RadialProfile | None = None,
    max_iter: int = 500,
    update_tol: float = 1e-10,
    residual_tol: float = 1e-6,
) -> RadialProfile:
    """Anderson-accelerated fixed-point solve of S_k[u] = V exp(-u),
    u(R) = boundary.

    Iterates G: u -> dirichlet_solve(V exp(-u) dx, b) with one Dirichlet
    solve per iteration; the next iterate mixes the last five images by
    the weights that minimize the mixed residual G(u) - u (Anderson
    acceleration; Walker & Ni, SINUM 2011).  Stops when the sup-norm
    step |G(u) - u| falls below `update_tol` (relative to
    max(1, sup |G(u)|)), when 20 steps in a row fail to halve the best
    step (a stall: how the iteration behaves past the fold), or at
    `max_iter`.  The last image is returned when its cumulative-mass
    residual against the unclipped V exp(-u) is below `residual_tol`
    times the total mass, else no-solution.
    """
    if max_iter < 1:
        raise InvalidArgumentError("max_iter must be at least 1")
    nodes = quad.radial_grid(prob.R, prob.grid_n)
    v = prob.density_on(nodes)
    if initial is None:
        x = np.full_like(nodes, float(prob.boundary))
    else:
        if initial.dim != prob.dim:
            raise InvalidArgumentError("initial guess has a different (n, k)")
        x = np.interp(np.log(nodes), np.log(initial.nodes), initial.values)
        x += prob.boundary - x[-1]
    # Rows hold differences of successive residuals G(x) - x and of
    # successive images G(x); the oldest row is overwritten first.
    d_f = np.empty((_DEPTH, nodes.size))
    d_g = np.empty((_DEPTH, nodes.size))
    f_prev = g_prev = image = None
    step = best = math.inf
    since_best = 0
    reason = "iteration cap"
    for it in range(1, max_iter + 1):
        image = _image(prob, nodes, v, x)
        if image is None:
            reason = "clip/overflow"
            break
        g = image.values
        f = g - x
        step = float(np.max(np.abs(f)))
        if step <= update_tol * max(1.0, float(np.max(np.abs(g)))):
            reason = "converged"
            break
        since_best = 0 if step <= best / 2.0 else since_best + 1
        best = min(best, step)
        if since_best >= _STALL:
            reason = "stalled"
            break
        if f_prev is None:
            x = g
        else:
            row = (it - 2) % _DEPTH
            np.subtract(f, f_prev, out=d_f[row])
            np.subtract(g, g_prev, out=d_g[row])
            depth = min(it - 1, _DEPTH)
            gram = d_f[:depth] @ d_f[:depth].T
            weights = np.linalg.lstsq(gram, d_f[:depth] @ f, rcond=1e-14)[0]
            x = g - weights @ d_g[:depth]
        f_prev, g_prev = f, g
    # Acceptance is decided by the equation residual of the last image
    # against its own density, not by why the loop stopped.
    res = math.inf if image is None else equation_residual(prob, image)
    if res < residual_tol:
        return image
    if math.isinf(res):
        reason = "clip/overflow"
    raise NoSolutionError(
        f"no fixed point: {reason} after {it} iterations "
        f"(last step {step:.3e}, last residual {res:.3e}); "
        "expected near the blow-up regime"
    )


@dataclass(frozen=True, eq=False)
class SolutionSequence:
    """Solved members of a problem sweep, in sweep order."""

    problems: tuple[LiouvilleProblem, ...]
    profiles: tuple[RadialProfile, ...]

    def __post_init__(self) -> None:
        if len(self.problems) != len(self.profiles) or not self.problems:
            raise InvalidArgumentError("need matching, nonempty problem and profile tuples")

    def __len__(self) -> int:
        return len(self.problems)

    def min_values(self) -> np.ndarray:
        # Profiles are nondecreasing in r, so the minimum sits at the
        # innermost node.
        return np.array([p.values[0] for p in self.profiles])

    def local_masses(self, r: float) -> np.ndarray:
        return np.array(
            [local_mass(u, prob.V, r) for prob, u in zip(self.problems, self.profiles)]
        )

    def total_masses(self) -> np.ndarray:
        return self.local_masses(self.problems[0].R)


def solve_sequence(problems, continuation: bool = False, **kwargs) -> SolutionSequence:
    """Solve a sweep in order; with continuation each solve starts from
    the previous solution, otherwise each starts cold."""
    problems = tuple(problems)
    profiles = []
    for prob in problems:
        initial = profiles[-1] if continuation and profiles else None
        profiles.append(solve_liouville(prob, initial=initial, **kwargs))
    return SolutionSequence(problems=problems, profiles=tuple(profiles))


def local_mass(u: RadialProfile, V, r: float) -> float:
    """int over B_r of V exp(-u), by radial quadrature."""
    if not (np.isfinite(r) and 0 <= r <= u.R * (1.0 + 1e-12)):
        raise InvalidArgumentError(f"need 0 <= r <= {u.R:g}, got {r!r}")
    v = np.asarray(V(u.nodes), dtype=float)
    density = v * np.exp(np.minimum(-u.values, _EXP_CLIP))
    mu = RadialMeasure.from_density(u.dim, u.R, u.nodes, density)
    return mu.cumulative_at(min(r, u.R))


def smallness_check(seq: SolutionSequence, mass_budget: float | None = None) -> CheckRecord:
    """Uniform lower bound on min u across a sub-threshold sweep.

    Every member's total mass must stay at or below the budget, itself
    strictly below the quantum (a0/p')^k; under that smallness the
    minima admit a uniform bound, which is what gets reported.
    """
    dims = {(p.dim.n, p.dim.k) for p in seq.problems}
    primes = {p.p_prime for p in seq.problems}
    if len(dims) != 1 or len(primes) != 1:
        raise InvalidArgumentError("sweep members must share (n, k) and p'")
    threshold = seq.problems[0].threshold
    budget = 0.9 * threshold if mass_budget is None else float(mass_budget)
    if not 0 < budget < threshold:
        raise InvalidArgumentError(
            f"mass budget must sit in (0, {threshold:g}), got {budget!r}"
        )
    masses = seq.total_masses()
    worst = float(np.max(masses))
    if worst > budget * (1.0 + 1e-12):
        raise PreconditionError(
            f"a member's mass {worst:.6g} exceeds the budget {budget:.6g}"
        )
    floor = float(np.min(np.minimum(seq.min_values(), 0.0)))
    return lower_bound(
        f"smallness[n={seq.problems[0].dim.n},members={len(seq)}]",
        "smallness-uniform-bound",
        {
            "n": seq.problems[0].dim.n, "k": seq.problems[0].dim.k,
            "p_prime": seq.problems[0].p_prime, "budget": budget, "members": len(seq),
        },
        floor, -math.inf,
        {"uniform_bound": -floor, "masses": [float(m) for m in masses], "threshold": threshold},
        holds=bool(np.isfinite(floor)),
    )


def regular_point_classify(dim: HessianDim, atoms, p_prime: float = 1.0) -> list[dict]:
    """Label limit-measure atoms regular or singular by the quantum.

    `atoms` is a sequence of (location radius, mass) pairs; an atom is
    singular exactly when its mass reaches (a0/p')^k.  No atoms means
    every point is regular.
    """
    threshold = dim.concentration_quantum(p_prime)
    labels = []
    for location, mass in atoms:
        if not (np.isfinite(mass) and mass >= 0):
            raise InvalidArgumentError(f"atom mass must be nonnegative, got {mass!r}")
        if not (np.isfinite(location) and location >= 0):
            raise InvalidArgumentError(f"atom location must be a radius >= 0, got {location!r}")
        singular = mass >= threshold * (1.0 - 1e-12)
        labels.append(
            {
                "location": float(location),
                "mass": float(mass),
                "threshold": threshold,
                "singular": bool(singular),
                "margin": float(mass - threshold),
            }
        )
    return labels


@dataclass(frozen=True)
class BlowupReport:
    """Outcome of the three-way limit classification of a sweep."""

    classification: str
    blowup_radii: tuple[float, ...]
    atom_masses: tuple[float, ...]
    threshold: float
    margins: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def _trend(series: np.ndarray, sign: float, margin: float) -> bool:
    # Limit behavior is a tail property: require monotonicity over the
    # second half of the sweep (early members may sit in a different
    # regime) plus an overall move of at least `margin`.
    tail = series[len(series) // 2 :]
    diffs = sign * np.diff(tail)
    scale = max(1.0, float(np.max(np.abs(series))))
    return bool(np.all(diffs >= -1e-9 * scale) and sign * (series[-1] - series[0]) >= margin)


def classify_alternative(
    seq: SolutionSequence,
    window: tuple[float, float] = (0.25, 0.75),
    trend_margin: float = 5.0,
    bounded_spread: float = 1.0,
    atom_radius_factor: float = 0.05,
    tol: float = 1e-3,
) -> BlowupReport:
    """Sort a solution sweep into bounded / uniform-divergence /
    concentration, from grid diagnostics alone.

    The probes: the central value u_i(0+) and the minimum over the
    compact annulus window.  Concentration needs the center to sink
    while the annulus rises, and is only accepted when the limiting
    local mass near the center clears the quantum within `tol`;
    anything that fits no case is reported as inconclusive rather than
    guessed.
    """
    if len(seq) < 4:
        raise InvalidArgumentError(f"need at least 4 sweep members, got {len(seq)}")
    dims = {(p.dim.n, p.dim.k) for p in seq.problems}
    primes = {p.p_prime for p in seq.problems}
    radii = {p.R for p in seq.problems}
    if len(dims) != 1 or len(primes) != 1 or len(radii) != 1:
        raise InvalidArgumentError("sweep members must share (n, k), p', and R")
    if not 0.0 < window[0] < window[1] < 1.0:
        raise InvalidArgumentError(f"window must satisfy 0 < a < b < 1, got {window!r}")
    R = seq.problems[0].R
    threshold = seq.problems[0].threshold

    near0 = seq.min_values()
    annulus_min = []
    annulus_sup = []
    for u in seq.profiles:
        mask = (u.nodes >= window[0] * R) & (u.nodes <= window[1] * R)
        vals = u.values[mask]
        annulus_min.append(float(np.min(vals)))
        annulus_sup.append(float(np.max(np.abs(vals))))
    annulus_min = np.array(annulus_min)
    annulus_sup = np.array(annulus_sup)

    diagnostics = {
        "near0": [float(x) for x in near0],
        "annulus_min": [float(x) for x in annulus_min],
        "annulus_sup_abs": [float(x) for x in annulus_sup],
    }
    sinking_center = _trend(near0, -1.0, trend_margin)
    rising_center = _trend(near0, +1.0, trend_margin)
    rising_annulus = _trend(annulus_min, +1.0, trend_margin)

    blowup_radii: tuple[float, ...] = ()
    atom_masses: tuple[float, ...] = ()
    if sinking_center and rising_annulus:
        atom = float(seq.local_masses(atom_radius_factor * R)[-1])
        atom_masses = (atom,)
        margins = {"atom_minus_threshold": atom - threshold}
        if atom >= threshold * (1.0 - tol):
            classification, blowup_radii = "concentration", (0.0,)
        else:
            classification = "inconclusive"
    elif rising_annulus and rising_center:
        classification = "uniform-divergence"
        margins = {"annulus_rise": float(annulus_min[-1] - annulus_min[0])}
    else:
        spread = float(np.max(annulus_sup) - np.min(annulus_sup))
        margins = {"annulus_spread": spread}
        steady = not (sinking_center or rising_center or rising_annulus)
        classification = "bounded" if steady and spread <= bounded_spread else "inconclusive"
    return BlowupReport(
        classification=classification,
        blowup_radii=blowup_radii,
        atom_masses=atom_masses,
        threshold=threshold,
        margins=margins,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class HarnackRecord:
    sup_abs: float
    inf_abs: float
    ratio: float
    r: float
    density_bound: float
    eps: float


def harnack_ratio(u: RadialProfile, r: float, density_bound: float, eps: float) -> HarnackRecord:
    """Oscillation ratio sup|u| / inf|u| on B_r for nonpositive u.

    Requires the measure-density hypothesis mu(B_s) <= M s^(n-2k+eps)
    at every sampled s <= r; an origin atom violates it and is
    rejected.  Diagnostic only: the caller watches the ratio across a
    refinement sweep, nothing is asserted about its value here.
    """
    if not (np.isfinite(r) and 0 < r <= u.R * (1.0 + 1e-12)):
        raise InvalidArgumentError(f"need 0 < r <= {u.R:g}, got {r!r}")
    if not (np.isfinite(density_bound) and density_bound > 0):
        raise InvalidArgumentError(f"density bound must be positive, got {density_bound!r}")
    if not (np.isfinite(eps) and eps > 0):
        raise InvalidArgumentError(f"eps must be positive, got {eps!r}")
    vscale = max(1.0, float(np.max(np.abs(u.values))))
    if np.any(u.values > 1e-12 * vscale):
        raise PreconditionError("profile must be nonpositive")
    mu = s_k_radial(u)
    n, k = u.dim.n, u.dim.k
    if mu.atom > 0:
        raise PreconditionError("origin atom violates the measure-density hypothesis")
    mask = u.nodes <= r
    allowed = density_bound * u.nodes[mask] ** (n - 2 * k + eps)
    got = mu.cumulative[mask]
    if np.any(got > allowed * (1.0 + 1e-9)):
        worst = int(np.argmax(got - allowed))
        raise PreconditionError(
            f"measure-density hypothesis fails at radius {u.nodes[mask][worst]:.6g}"
        )
    sup_abs = -value_at(u, 0.0)
    inf_abs = max(-value_at(u, r), 0.0)
    ratio = sup_abs / inf_abs if inf_abs > 0 else math.inf
    return HarnackRecord(
        sup_abs=sup_abs, inf_abs=inf_abs, ratio=ratio,
        r=float(r), density_bound=float(density_bound), eps=float(eps),
    )


def singular_comparison_check(
    dim: HessianDim,
    p_prime: float = 1.0,
    R: float = 1.0,
    atom_factor: float = 1.0,
    background: float = 0.0,
    grid_n: int = quad.DEFAULT_GRID_N,
) -> CheckRecord:
    """Logarithmic upper bound near a singular point.

    Solves S_k[z] dx = atom + background with the atom at least the
    quantum (a0/p')^k; then z - (n/p') log r must be nondecreasing, so
    z stays below (n/p') log r plus its boundary offset everywhere.
    """
    if not dim.is_intermediate:
        raise UnsupportedDimensionError(
            f"the comparison needs 2k = n, got (n, k) = ({dim.n}, {dim.k})"
        )
    if atom_factor < 1.0:
        raise InvalidArgumentError(
            f"the bound needs an atom at or above the quantum, got factor {atom_factor!r}"
        )
    if background < 0:
        raise InvalidArgumentError(f"background density must be nonnegative, got {background!r}")
    quantum = dim.concentration_quantum(p_prime)
    atom = atom_factor * quantum
    nodes = quad.radial_grid(R, grid_n)
    mu = RadialMeasure.from_parts(dim, R, nodes, atom, np.full_like(nodes, background))
    z = solve_dirichlet(mu, 0.0)
    shifted = z.values - (dim.n / p_prime) * np.log(nodes)
    offset = float(shifted[-1])
    excess = float(np.max(shifted - offset))
    scale = max(1.0, abs(offset))
    tol = 1e-9 * scale
    return upper_bound(
        f"singular-comparison[n={dim.n},k={dim.k},p'={p_prime:g},factor={atom_factor:g}]",
        "singular-log-comparison",
        {
            "n": dim.n, "k": dim.k, "p_prime": p_prime, "R": R,
            "atom_factor": atom_factor, "background": background,
        },
        excess,
        tol,
        {"atom": atom, "quantum": quantum, "boundary_offset": offset},
    )


_BUBBLE_DIM = HessianDim(2, 1)


def bubble_profile(lam: float, R: float = 1.0, grid_n: int = quad.DEFAULT_GRID_N) -> RadialProfile:
    """Exact n = 2 solution u(r) = 2 log(1 + lam^2 r^2) - log(8 lam^2)
    of the unit-weight equation."""
    if not (np.isfinite(lam) and lam > 0):
        raise InvalidArgumentError(f"bubble scale must be positive, got {lam!r}")
    nodes = quad.radial_grid(R, grid_n)
    t = (lam * nodes) ** 2
    values = 2.0 * np.log1p(t) - math.log(8.0 * lam * lam)
    slope = 4.0 * lam * lam * nodes / (1.0 + t)
    return RadialProfile(
        dim=_BUBBLE_DIM, R=R, nodes=nodes, values=values, slope=slope,
        boundary=float(values[-1]), kind="bubble", params={"lam": float(lam)},
    )


def bubble_residual_sup(lam: float, R: float = 1.0, grid_n: int = quad.DEFAULT_GRID_N) -> float:
    """Sup of |Laplacian(u) - exp(-u)| for the bubble, all in closed
    form; zero up to round-off by the defining identity."""
    nodes = quad.radial_grid(R, grid_n)
    t = (lam * nodes) ** 2
    lap = 4.0 * lam * lam * (1.0 - t) / (1.0 + t) ** 2 + 4.0 * lam * lam / (1.0 + t)
    rhs = 8.0 * lam * lam / (1.0 + t) ** 2
    return float(np.max(np.abs(lap - rhs)))


def bubble_local_mass(lam: float, r: float) -> float:
    """Closed-form int over B_r of exp(-u) for the bubble: the value
    tends to 8 pi as lam r grows."""
    t = (lam * r) ** 2
    return 8.0 * math.pi * t / (1.0 + t)


def bubble_problem(lam: float, R: float = 1.0, grid_n: int = quad.DEFAULT_GRID_N) -> LiouvilleProblem:
    """The unit-weight problem whose solution is the lam-bubble."""
    boundary = float(2.0 * math.log1p((lam * R) ** 2) - math.log(8.0 * lam * lam))
    return LiouvilleProblem(
        dim=_BUBBLE_DIM,
        V=lambda r: np.ones_like(r),
        R=R,
        boundary=boundary,
        grid_n=grid_n,
        label=f"bubble-lam={lam:g}",
    )
