"""Radial solver and blow-up diagnostics for S_k[u] = V exp(-u) with
2k = n.

An Anderson-accelerated fixed-point iteration drives u toward the
fixed point of u <- dirichlet_solve(V exp(-u) dx, b).  Before it runs,
a closed-form precheck refuses weights past the fold: for constant V
the radial solutions on B_R with u(R) = b form one bubble family, which
folds at c* = k^(k-1) C(n-1,k-1) n 2^k/(k+1) R^(-n) e^b (fold_value),
where the Hessian mass is exactly the quantum a0^k.  The map above
preserves order and decreases as V grows, so a solution for a weight
with min V > c* would be a subsolution of the constant problem at
min V, under the supersolution u = b, and monotone iteration would
give that problem a solution; so no weight with min V > c* has one.
The solve raises NoSolutionError when min V over the grid nodes
exceeds c* (1 + 1e-12), the slack covering rounding in c* only.  For
every other weight, one with no solution is still found by the loop,
as a stall, an iteration cap or a clip/overflow.  The family's
minimal branch, the one below the fold, is closed form too
(branch_solution).  A constant-V solve with no initial guess starts
from it, so the loop only corrects its discretization error and ends on
the minimal branch, where a cold start near the (4,2) fold could end on
the upper one.  On top of the
solver sit the diagnostics: local masses of V exp(-u), the
uniform-boundedness check under a sub-threshold mass budget, the
regular/singular split of limit atoms against the quantum (a0/p')^k,
the three-way limit classification of solution sweeps (bounded /
uniform divergence / concentration at the center), the Harnack-type
ratio probe, and the logarithmic comparison bound near a singular
point.  Sweeps are streams of (problem, profile) pairs, solved as the
sweep checks ask for them, so a check holds one solved member at a time.

Dimensions are restricted to (n, k) = (2, 1) and (4, 2): the first has
the exact bubble below as a second oracle, the second is the first
genuinely fully nonlinear borderline case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature as quad
from .core import HessianDim, _finite_real
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
    _require_radius,
    _s_k_density,
    _sampled,
    profile_from_slope,
    s_k_radial,
    solve_dirichlet,
    value_at,
)
from .report import CheckRecord, lower_bound, upper_bound

__all__ = [
    "SUPPORTED_DIMS",
    "LiouvilleProblem",
    "fold_value",
    "branch_solution",
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
        self.dim.require_intermediate("the exponential equation")
        if (self.dim.n, self.dim.k) not in SUPPORTED_DIMS:
            raise UnsupportedDimensionError(
                f"supported dimensions are {SUPPORTED_DIMS}, got ({self.dim.n}, {self.dim.k})"
            )
        if not (_finite_real(self.R) and self.R > 0):
            raise InvalidArgumentError(f"radius must be positive, got {self.R!r}")
        if not (self.p == math.inf or (_finite_real(self.p) and self.p > 1)):
            raise InvalidArgumentError(f"integrability exponent must lie in (1, inf], got {self.p!r}")
        if not _finite_real(self.boundary):
            raise InvalidArgumentError(f"boundary value must be finite, got {self.boundary!r}")
        quad._require_grid_n(self.grid_n)
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
        return _sampled(self.V, nodes, "V")


# Anderson depth, and the number of steps without halving the best step
# after which a solve counts as stalled.
_DEPTH = 5
_STALL = 20
# exp(-u) is clipped at exp(700) inside the loop, below overflow.
_EXP_CLIP = 700.0
# The fold precheck refuses min V > fold_value (1 + _FOLD_SLACK).  The
# slack absorbs rounding in fold_value only, a few ulps (V = 1 sits exactly
# on the fold of the lam = 1 bubble problem, whose c* computes to
# 1 + 2^-52); it allows no discrete solution past the continuum fold.
_FOLD_SLACK = 1e-12


def fold_value(dim: HessianDim, R: float = 1.0, boundary: float = 0.0) -> float:
    """The fold c* of S_k[u] = c exp(-u) on B_R, u(R) = boundary, for
    2k = n: the largest constant c with a radial solution,
    k^(k-1) C(n-1,k-1) n 2^k/(k+1) R^(-n) e^boundary.

    The bubbles u = (k+1) log(1 + x r^2/R^2) - (k+1) log(1 + x) + b,
    x > 0, solve it with c(x) = x^k (1+x)^(-k-1) e^b / (beta^k R^n),
    beta^k = k / (C(n-1,k-1) n (2(k+1))^k); c(x) peaks at x = k, where
    the Hessian mass equals dim.concentration_quantum().  On the unit
    ball with b = 0: 2, 32, 1080 and 57344 for (n, k) = (2,1), (4,2),
    (6,3) and (8,4).  The product is taken in floats, a few ulps from
    exact; out of their range it overflows or underflows quietly.
    """
    dim.require_intermediate("the fold value")
    if not (_finite_real(R) and R > 0):
        raise InvalidArgumentError(f"radius must be positive, got {R!r}")
    if not _finite_real(boundary):
        raise InvalidArgumentError(f"boundary value must be finite, got {boundary!r}")
    n, k = dim.n, dim.k
    unit = k ** (k - 1) * math.comb(n - 1, k - 1) * n * 2**k / (k + 1)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return float(unit * np.power(float(R), -n) * np.exp(float(boundary)))


def _refuse_past_the_fold(dim: HessianDim, R: float, boundary: float, low: float, what: str) -> float:
    """fold_value(dim, R, boundary), after raising NoSolutionError when
    the constant weight `low` (named `what`) exceeds it by more than the
    slack."""
    fold = fold_value(dim, R, boundary)
    if low > fold * (1.0 + _FOLD_SLACK):
        raise NoSolutionError(
            f"no fixed point: {what} = {low:.9g} is past the fold c* = {fold:.9g} of "
            f"(n, k) = ({dim.n}, {dim.k}) with R = {R:g} and boundary {boundary:g}"
        )
    return fold


def _branch_scale(k: int, q: float) -> float:
    """The minimal branch's x in [0, k]: the root of
    x^k (1+x)^(-k-1) = q k^k (1+k)^(-k-1), which rises on (0, k), at the
    fraction q = c/c* of the fold; x = k from q >= 1 on."""
    if q >= 1.0:
        return float(k)
    if q == 0.0:
        return 0.0
    if k == 1:
        # the smaller root of q (1+x)^2 = 4x, written without cancellation
        return q / (2.0 - q + 2.0 * math.sqrt(1.0 - q))
    # Bisection in s = log x.  As (1+x)^(-k-1) lies between 1 and
    # (1+k)^(-k-1) on (0, k), the root lies between k q^(1/k)
    # (1+k)^(-(k+1)/k) and k q^(1/k).
    log_k, log_q, log1p_k = math.log(k), math.log(q), math.log1p(k)
    lo = log_k + (log_q - (k + 1) * log1p_k) / k
    hi = log_k + log_q / k
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return math.exp(mid)
        if k * (mid - log_k) - (k + 1) * (math.log1p(math.exp(mid)) - log1p_k) < log_q:
            lo = mid
        else:
            hi = mid


def branch_solution(
    dim: HessianDim,
    c: float,
    R: float = 1.0,
    boundary: float = 0.0,
    grid_n: int = quad.DEFAULT_GRID_N,
) -> RadialProfile:
    """The minimal-branch radial solution of S_k[u] = c exp(-u) on B_R,
    u(R) = boundary, for a constant c >= 0 and 2k = n, in closed form:

        u(r) = (k+1) log(1 + x r^2/R^2) - (k+1) log(1 + x) + boundary,

    x in [0, k] the root of x^k (1+x)^(-k-1) = c e^(-boundary) beta^k R^n
    (beta^k as in fold_value).  The left side rises on (0, k) and peaks
    at the fold x = k, where c = fold_value(dim, R, boundary) and the
    Hessian mass is dim.concentration_quantum(); c = 0 gives
    u = boundary.  For k = 1 x is the smaller root of a quadratic, for
    k >= 2 a bisection in log x.  Past the fold by more than 1e-12
    relative there is no solution, and NoSolutionError is raised as
    solve_liouville's precheck raises it.
    """
    if not (_finite_real(c) and c >= 0):
        raise InvalidArgumentError(f"constant weight must be finite and nonnegative, got {c!r}")
    fold = _refuse_past_the_fold(dim, R, boundary, c, "c")
    k = dim.k
    x = _branch_scale(k, c / fold if c > 0 else 0.0)
    nodes = quad.radial_grid(R, grid_n)
    z = x * (nodes / R) ** 2
    # z[-1] is x itself, so the last value is the boundary value exactly
    log_z = np.log1p(z)
    values = (k + 1) * (log_z - log_z[-1]) + boundary
    slope = 2.0 * (k + 1) * z / (nodes * (1.0 + z))
    return profile_from_slope(dim, R, nodes, slope, boundary, values=values, unbounded_origin=False)


def _exp_measure(dim: HessianDim, R: float, nodes: np.ndarray, v: np.ndarray, u: np.ndarray) -> RadialMeasure:
    """V exp(-u) dx from samples, exp(-u) clipped at exp(700).  Overflow
    is quiet: it ends as InvalidMeasureError or an infinite total, which
    every caller handles."""
    with np.errstate(over="ignore"):
        return RadialMeasure.from_density(dim, R, nodes, v * np.exp(np.minimum(-u, _EXP_CLIP)))


def _image(prob: LiouvilleProblem, nodes: np.ndarray, v: np.ndarray, x: np.ndarray) -> RadialProfile | None:
    """One application of the map u -> dirichlet_solve(V exp(-u) dx, b),
    or None when the clipped density is too large to integrate."""
    try:
        target = _exp_measure(prob.dim, prob.R, nodes, v, x)
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
    return _residual(prob, prob.density_on(u.nodes), u)


def _residual(prob: LiouvilleProblem, v: np.ndarray, u: RadialProfile) -> float:
    """equation_residual with V already sampled on u's nodes."""
    if np.max(-u.values) > _EXP_CLIP:
        return math.inf
    try:
        # below the clip, so the measure is the unclipped one
        target = _exp_measure(prob.dim, prob.R, u.nodes, v, u.values)
    except InvalidMeasureError:
        return math.inf
    if target.total == 0.0:
        return 0.0
    return float(np.max(np.abs(s_k_radial(u).cumulative - target.cumulative))) / target.total


def solve_liouville(
    prob: LiouvilleProblem,
    initial: RadialProfile | None = None,
    max_iter: int = 500,
) -> RadialProfile:
    """Anderson-accelerated fixed-point solve of S_k[u] = V exp(-u),
    u(R) = boundary.

    V is sampled once on the grid nodes.  When min V exceeds
    fold_value(dim, R, boundary) (1 + 1e-12), NoSolutionError is raised
    before any Dirichlet solve: by comparison no weight above the fold
    has a solution (module docstring), and the slack covers rounding in
    the closed form only.  Otherwise the solve iterates
    G: u -> dirichlet_solve(V exp(-u) dx, b) with one Dirichlet
    solve per iteration; the next iterate mixes the last five images by
    the weights that minimize the mixed residual G(u) - u (Anderson
    acceleration; Walker & Ni, SINUM 2011).  It starts from `initial`
    (interpolated onto the nodes and shifted to the boundary value) when
    one is given; else, when V is constant on the nodes, from the
    closed-form minimal branch at that constant (branch_solution),
    sampled on the same nodes, so the solve ends on the minimal branch;
    else from u = boundary.  Stops when the sup-norm
    step |G(u) - u| falls below 1e-11 (relative to max(1, sup |G(u)|)),
    when 20 steps in a row fail to halve the best step (a stall: how the
    iteration behaves past the fold of a weight the precheck passes), or
    at `max_iter`.  The last image is returned when its cumulative-mass
    residual against the unclipped V exp(-u) is below 1e-6 times the
    total mass, else no-solution.
    """
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise InvalidArgumentError(f"max_iter must be a positive integer, got {max_iter!r}")
    if initial is not None and initial.dim != prob.dim:
        raise InvalidArgumentError("initial guess has a different (n, k)")
    # the grid's read-only nodes, which every image shares
    nodes = quad.radial_grid(prob.R, prob.grid_n)
    v = prob.density_on(nodes)
    low = float(v.min())
    _refuse_past_the_fold(prob.dim, prob.R, prob.boundary, low, "min V")
    if initial is not None:
        x = np.interp(np.log(nodes), np.log(initial.nodes), initial.values)
        x += prob.boundary - x[-1]
    elif low == v.max():
        # on the same nodes: branch_solution samples the grid's shared array
        x = branch_solution(prob.dim, low, prob.R, prob.boundary, prob.grid_n).values
    else:
        x = np.full_like(nodes, float(prob.boundary))
    # the loop's iterates and history are freed before the residual
    image, it, step, reason = _anderson(prob, nodes, v, x, max_iter)
    # Acceptance is decided by the equation residual of the last image
    # against its own density, not by why the loop stopped.
    res = math.inf if image is None else _residual(prob, v, image)
    if res < 1e-6:
        return image
    if math.isinf(res):
        reason = "clip/overflow"
    raise NoSolutionError(
        f"no fixed point: {reason} after {it} iterations "
        f"(last step {step:.3e}, last residual {res:.3e}); "
        "expected near the blow-up regime"
    )


def _anderson(prob: LiouvilleProblem, nodes: np.ndarray, v: np.ndarray, x: np.ndarray, max_iter: int):
    """The fixed-point loop of solve_liouville from the start x, on the
    grid nodes and the samples v of V there: the last image (None when
    it overflowed), the iteration count, the last step and the stop
    reason."""
    # Rows hold differences of successive residuals G(x) - x and of
    # successive images G(x); the oldest row is overwritten first.  Both
    # are one block: glibc raises its heap trim threshold to twice the
    # largest mmap'd block freed, and one block (640 KiB at grid 8192, not
    # two of 320 KiB) lifts it above what a suite frees, so later solves
    # and checks do not fault the same pages back in.
    d_f, d_g = np.empty((2, _DEPTH, nodes.size))
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
        if step <= 1e-11 * max(1.0, float(np.max(np.abs(g)))):
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
            # a diverging iterate overflows the least-squares system, and
            # LAPACK does not return on non-finite input
            with np.errstate(over="ignore", invalid="ignore"):
                gram = d_f[:depth] @ d_f[:depth].T
                rhs = d_f[:depth] @ f
            if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
                reason = "clip/overflow"
                break
            weights = np.linalg.lstsq(gram, rhs, rcond=1e-14)[0]
            x = g - weights @ d_g[:depth]
        f_prev, g_prev = f, g
    return image, it, step, reason


def solve_sequence(problems, continuation: bool = False, **kwargs):
    """Solve a sweep in order, lazily: yields (problem, profile) pairs,
    solving each member when the consumer asks for it.  With
    continuation each solve starts from the previous solution, the only
    profile the stream keeps; otherwise each starts cold and the stream
    keeps none."""
    previous = None
    for prob in problems:
        u = solve_liouville(prob, initial=previous, **kwargs)
        if continuation:
            previous = u
        yield prob, u
        del u  # hold no member while the next one solves


def local_mass(u: RadialProfile, V, r: float) -> float:
    """int over B_r of V exp(-u), by radial quadrature."""
    r = _require_radius(u, r)
    v = _sampled(V, u.nodes, "V")
    return _exp_measure(u.dim, u.R, u.nodes, v, u.values).cumulative_at(r)


def smallness_check(pairs) -> CheckRecord:
    """Uniform lower bound on min u across a sub-threshold sweep.

    `pairs` is any iterable of (problem, profile) pairs, such as
    solve_sequence(...); each member is reduced to its total mass over
    its own ball and its minimum before the next one is asked for.
    Every member's mass must stay at or below the budget
    0.9 (a0/p')^k, strictly below the quantum; under that smallness
    the minima admit a uniform bound, which is what gets reported.
    """
    first = None
    masses = []
    minima = []
    for prob, u in pairs:
        first = first or prob
        if (prob.dim, prob.p_prime) != (first.dim, first.p_prime):
            raise InvalidArgumentError("sweep members must share (n, k) and p'")
        masses.append(local_mass(u, prob.V, u.R))
        # Profiles are nondecreasing in r, so the minimum sits at the
        # innermost node.
        minima.append(u.values[0])
        del u  # hold no member while the next one solves
    if first is None:
        raise InvalidArgumentError("need a nonempty sweep")
    threshold = first.threshold
    budget = 0.9 * threshold
    masses = np.array(masses)
    worst = float(np.max(masses))
    if worst > budget * (1.0 + 1e-12):
        raise PreconditionError(
            f"a member's mass {worst:.6g} exceeds the budget {budget:.6g}"
        )
    floor = float(np.min(np.minimum(np.array(minima), 0.0)))
    return lower_bound(
        f"smallness[n={first.dim.n},members={len(masses)}]",
        "smallness-uniform-bound",
        {
            "n": first.dim.n, "k": first.dim.k,
            "p_prime": first.p_prime, "budget": budget, "members": len(masses),
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
        if not (_finite_real(mass) and mass >= 0):
            raise InvalidArgumentError(f"atom mass must be nonnegative, got {mass!r}")
        if not (_finite_real(location) and location >= 0):
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


def _trend(series: np.ndarray, sign: float) -> bool:
    # Limit behavior is a tail property: require monotonicity over the
    # second half of the sweep (early members may sit in a different
    # regime) plus an overall move of at least 5.
    tail = series[len(series) // 2 :]
    diffs = sign * np.diff(tail)
    scale = max(1.0, float(np.max(np.abs(series))))
    return bool(np.all(diffs >= -1e-9 * scale) and sign * (series[-1] - series[0]) >= 5.0)


def classify_alternative(pairs) -> BlowupReport:
    """Sort a solution sweep into bounded / uniform-divergence /
    concentration, from grid diagnostics alone.

    `pairs` is any iterable of at least 4 (problem, profile) pairs,
    such as solve_sequence(...); each member is reduced to its probes
    before the next one is asked for, and only the last pair is kept.
    The probes: the central value u_i(0+) and the minimum over the
    compact annulus 0.25 R <= r <= 0.75 R.  A trend is a monotone
    second half of the sweep and an overall move of at least 5.
    Concentration needs the center to sink while the annulus rises, and
    is only accepted when the last member's mass in B_{0.05 R} reaches
    the quantum within a relative 1e-3; bounded needs no trend and a
    spread of sup |u| over the annulus of at most 1.  Anything that
    fits no case is reported as inconclusive rather than guessed.
    """
    first = None
    near0 = []
    annulus_min = []
    annulus_sup = []
    for prob, u in pairs:
        first = first or prob
        if (prob.dim, prob.p_prime, prob.R) != (first.dim, first.p_prime, first.R):
            raise InvalidArgumentError("sweep members must share (n, k), p', and R")
        near0.append(u.values[0])
        mask = (u.nodes >= 0.25 * first.R) & (u.nodes <= 0.75 * first.R)
        vals = u.values[mask]
        annulus_min.append(float(np.min(vals)))
        annulus_sup.append(float(np.max(np.abs(vals))))
    if len(near0) < 4:
        raise InvalidArgumentError(f"need at least 4 sweep members, got {len(near0)}")
    R = first.R
    threshold = first.threshold
    near0 = np.array(near0)
    annulus_min = np.array(annulus_min)
    annulus_sup = np.array(annulus_sup)

    diagnostics = {
        "near0": [float(x) for x in near0],
        "annulus_min": [float(x) for x in annulus_min],
        "annulus_sup_abs": [float(x) for x in annulus_sup],
    }
    sinking_center = _trend(near0, -1.0)
    rising_center = _trend(near0, +1.0)
    rising_annulus = _trend(annulus_min, +1.0)

    blowup_radii: tuple[float, ...] = ()
    atom_masses: tuple[float, ...] = ()
    if sinking_center and rising_annulus:
        # prob and u still hold the last pair
        atom = local_mass(u, prob.V, 0.05 * R)
        atom_masses = (atom,)
        margins = {"atom_minus_threshold": atom - threshold}
        if atom >= threshold * (1.0 - 1e-3):
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
        classification = "bounded" if steady and spread <= 1.0 else "inconclusive"
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
    if not (_finite_real(r) and 0 < r <= u.R * (1.0 + 1e-12)):
        raise InvalidArgumentError(f"need 0 < r <= {u.R:g}, got {r!r}")
    if not (_finite_real(density_bound) and density_bound > 0):
        raise InvalidArgumentError(f"density bound must be positive, got {density_bound!r}")
    if not (_finite_real(eps) and eps > 0):
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
    dim.require_intermediate("the comparison")
    if not (_finite_real(atom_factor) and atom_factor >= 1.0):
        raise InvalidArgumentError(
            f"the bound needs a finite atom at or above the quantum, got factor {atom_factor!r}"
        )
    if not (_finite_real(background) and background >= 0):
        raise InvalidArgumentError(f"background density must be finite and nonnegative, got {background!r}")
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
    if not (_finite_real(lam) and lam > 0):
        raise InvalidArgumentError(f"bubble scale must be positive, got {lam!r}")
    nodes = quad.radial_grid(R, grid_n)
    t = (lam * nodes) ** 2
    values = 2.0 * np.log1p(t) - math.log(8.0 * lam * lam)
    slope = 4.0 * lam * lam * nodes / (1.0 + t)
    return RadialProfile(
        dim=_BUBBLE_DIM, R=R, nodes=nodes, values=values, slope=slope,
        boundary=float(values[-1]), kind="bubble",
    )


def bubble_residual_sup(lam: float, R: float = 1.0, grid_n: int = quad.DEFAULT_GRID_N) -> float:
    """Sup of |Laplacian(u) - exp(-u)| for the bubble, all in closed
    form; zero up to round-off by the defining identity."""
    nodes = quad.radial_grid(R, grid_n)
    t = (lam * nodes) ** 2
    lap = _s_k_density(_BUBBLE_DIM, 4.0 * lam * lam * (1.0 - t) / (1.0 + t) ** 2, 4.0 * lam * lam / (1.0 + t))
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
