"""Experiment configuration and the named verification suites.

Each suite is a catalog: `_suite_<name>(cfg, soft)` validates the
config against the suite's regime, then returns a list of jobs, each a
check function bound to its arguments with functools.partial: a check
module's own function where it needs nothing else (for example
`partial(cap_mod.isocapacitary_margin, condenser, q)`), else one
defined here (`partial(_roundtrip, cfg, dim)`).  A job returns one
CheckRecord or a list of them.  run_suite executes the jobs one after
another and returns order-stable report rows.  Without explicit (n, k)
a suite runs its canonical dimensions.  With an explicit pair, a named
suite rejects a regime mismatch as a config error, while the combined
"all" run simply skips the suites that cannot host that pair; genuine
parameter errors (a lambda, beta or p outside its admissible range, an
unknown family) are config errors in both modes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from importlib import resources

import numpy as np

from . import abp as abp_mod
from . import brezis_merle as bm_mod
from . import capacity as cap_mod
from . import liouville as liu_mod
from . import quadrature as quad
from .core import HessianDim, principal_minor_sums, s_k_all_of_matrix
from .errors import ConfigError, HessianLabError
from .families import KINDS, FamilySpec, make_profile
from .radial import (
    RadialMeasure,
    domain_volume,
    hessian_mass,
    lp_norm,
    s_k_radial,
    solve_dirichlet,
)
from .report import ReportRow, lower_bound, row_from_record, upper_bound

SUITES = ("sym", "solve", "capacity", "bm", "abp", "degiorgi", "liouville", "all")
FORMATS = ("csv", "jsonl")
# Radii at which every suite gives a report.  Sweeps at grids 2048 and
# 8192 met checks that raise below about 1e-77 and from 1e26 on, where
# r^n and the level-set masses leave the float range, and between about
# 2.4e7 and 4.4e7, where the abp suite's bump density (width 0.2, not
# scaled with R) meets the grid's inner node r = 1e-8 R and its origin
# stub reads as divergent.
RADIUS_RANGE = (1e-60, 1e7)

# Fixture names accepted by --family on top of the profile kinds.
_FIXTURE_FAMILIES = ("standard", "constant")

__all__ = [
    "SUITES",
    "RADIUS_RANGE",
    "FORMATS",
    "OPTIONS",
    "CONFIG_KEYS",
    "Option",
    "ExperimentConfig",
    "config_from_sources",
    "load_config_file",
    "run_suite",
    "rows_status",
]


@dataclass(frozen=True)
class ExperimentConfig:
    suite: str = "all"
    n: int | None = None
    k: int | None = None
    radius: float = 1.0
    grid_n: int = quad.DEFAULT_GRID_N
    lam: float | None = None
    beta: float | None = None
    p: float | None = None
    family: str | None = None
    out: str | None = None
    fmt: str = "csv"
    tol: float | None = None

    def __post_init__(self) -> None:
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; expected one of {SUITES}")
        if self.fmt not in FORMATS:
            raise ConfigError(f"unknown format {self.fmt!r}; expected one of {FORMATS}")
        lo, hi = RADIUS_RANGE
        # spelled so that a NaN radius fails it
        if not lo <= self.radius <= hi:
            raise ConfigError(f"radius must lie in [{lo:g}, {hi:g}], got {self.radius!r}")
        if not isinstance(self.grid_n, int) or self.grid_n < 16:
            raise ConfigError(f"grid-n must be an integer >= 16, got {self.grid_n!r}")
        if (self.n is None) != (self.k is None):
            raise ConfigError("give both --n and --k or neither")
        if self.n is not None:
            try:
                HessianDim(self.n, self.k)
            except HessianLabError as exc:
                raise ConfigError(str(exc)) from exc
        if self.family is not None and self.family not in KINDS + _FIXTURE_FAMILIES:
            raise ConfigError(
                f"unknown family {self.family!r}; expected one of "
                f"{KINDS + _FIXTURE_FAMILIES}"
            )
        if self.tol is not None and not (np.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be positive, got {self.tol!r}")
        for name in ("lam", "beta", "p"):
            value = getattr(self, name)
            if value is not None and (math.isnan(value) or value <= 0):
                raise ConfigError(f"{name} must be positive, got {value!r}")

    @property
    def dim(self) -> HessianDim | None:
        return None if self.n is None else HessianDim(self.n, self.k)


@dataclass(frozen=True)
class Option:
    """One configuration option.  `key` is the JSON config key, and the
    CLI flag is `--` plus the key with `_` written `-`; `field` is the
    ExperimentConfig field and the argparse destination."""

    key: str
    field: str
    type: type
    help: str
    choices: tuple[str, ...] | None = None
    metavar: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


# The one table of options: config_from_sources and the CLI parser both
# read it.
OPTIONS = (
    Option("suite", "suite", str, "suite to run (default: all)", choices=SUITES),
    Option("n", "n", int, "ambient dimension"),
    Option("k", "k", int, "Hessian order, 1 <= k <= n"),
    Option("radius", "radius", float, "domain ball radius in [{:g}, {:g}] (default 1); ".format(*RADIUS_RANGE)
           + "read by the solve, capacity, bm and abp suites only: sym and degiorgi have no ball,"
           + " liouville runs on the unit ball"),
    Option("grid_n", "grid_n", int, "radial grid size (default 2048)"),
    Option("lambda", "lam", float, "exponential-moment coefficient"),
    Option("beta", "beta", float, "exponential-moment exponent"),
    Option("p", "p", float, "integrability exponent"),
    Option("family", "family", str, "profile family or fixture name"),
    Option("out", "out", str, "write the report here instead of stdout", metavar="PATH"),
    Option("format", "fmt", str, "report format (default csv)", choices=FORMATS),
    Option("tol", "tol", float, "override the grid-accuracy tolerances; read by the sym, solve and"
           + " capacity suites only: the sym-two-routes, solve, extremal-mass and levelset-cap rows"),
)
_OPTION_BY_KEY = {opt.key: opt for opt in OPTIONS}
CONFIG_KEYS = {opt.key: opt.field for opt in OPTIONS}


def _coerce(opt: Option, value):
    try:
        if opt.type is int:
            if isinstance(value, bool):
                raise ValueError("expected an integer")
            if isinstance(value, float) and not value.is_integer():
                raise ValueError("not an integer")
            return int(value)
        if opt.type is float:
            if isinstance(value, bool):
                raise ValueError("expected a number")
            out = float(value)
            if math.isnan(out):
                raise ValueError("nan")
            return out
        if not isinstance(value, str):
            raise ValueError("expected a string")
        return value
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {opt.field!r}: {value!r} ({exc})") from exc


def config_from_sources(file_data: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults <- config file <- flag overrides into a validated
    config.  Unknown keys anywhere are config errors."""
    merged: dict = {}
    for source, origin in ((file_data, "config file"), (overrides, "flags")):
        if not source:
            continue
        for key, value in source.items():
            opt = _OPTION_BY_KEY.get(key)
            if opt is None:
                raise ConfigError(
                    f"unknown {origin} key {key!r}; expected one of {sorted(CONFIG_KEYS)}"
                )
            if value is None:
                continue
            merged[opt.field] = _coerce(opt, value)
    return ExperimentConfig(**merged)


def load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


# --- suite catalogs --------------------------------------------------
# Catalog functions validate the config up front, so a bad request
# fails before any computation starts.


def _constant(r, c=1.0):
    return np.full_like(r, c)


def _constant_problem(cfg, dim, c=1.0, boundary=0.0):
    """S_k[u] = c exp(-u) on the unit ball with u(1) = boundary."""
    return liu_mod.LiouvilleProblem(dim=dim, V=partial(_constant, c=c), boundary=boundary, grid_n=cfg.grid_n)


def _tol(cfg: ExperimentConfig, default: float) -> float:
    """The --tol override of a grid-accuracy tolerance, else its default."""
    return cfg.tol if cfg.tol is not None else default


def _dims_for(cfg: ExperimentConfig, canonical, predicate, regime: str, soft: bool):
    if cfg.dim is None:
        return list(canonical)
    if not predicate(cfg.dim):
        if soft:
            return []
        raise ConfigError(f"(n, k) = ({cfg.n}, {cfg.k}) is outside the {regime} regime")
    return [cfg.dim]


def _load_sym_fixtures():
    text = resources.files("hessianlab").joinpath("fixtures/sym_matrices.json").read_text("utf-8")
    return json.loads(text)


def _sym_two_routes(cfg):
    tol = _tol(cfg, 1e-9)
    records = []
    for i, entry in enumerate(_load_sym_fixtures()["matrices"]):
        mat = np.asarray(entry["entries"], dtype=float)
        n = mat.shape[0]
        eig_route = s_k_all_of_matrix(mat)
        minor_route = principal_minor_sums(mat)
        spread = float(np.max(np.abs(np.linalg.eigvalsh(mat))))
        scale = np.maximum(
            np.maximum(np.abs(eig_route), np.abs(minor_route)),
            [math.comb(n, k) * spread**k for k in range(1, n + 1)],
        )
        rel = float(np.max(np.abs(eig_route - minor_route) / scale))
        records.append(upper_bound(
            f"sym-two-routes[{i:02d}]", "sigma-k-two-routes", {"index": i, "n": n},
            rel, tol, {"orders": n},
        ))
    return records


def _suite_sym(cfg: ExperimentConfig, soft: bool = False):
    # The fixture matrices span several sizes; (n, k) restrictions do
    # not apply here.
    return [partial(_sym_two_routes, cfg)]


# Canonical dimensions of the suites that take every regime, and of
# those that need 2k = n.
_CANONICAL = (HessianDim(2, 1), HessianDim(4, 2), HessianDim(3, 1))
_CANONICAL_2K_EQ_N = (HessianDim(2, 1), HessianDim(4, 2))


def _roundtrip(cfg, dim):
    R = cfg.radius
    u = make_profile(FamilySpec("quadratic"), dim, R, cfg.grid_n)
    back = solve_dirichlet(s_k_radial(u), u.boundary)
    err = float(np.max(np.abs(back.values - u.values)))
    tol = _tol(cfg, 1e-8) * max(1.0, float(np.max(np.abs(u.values))))
    return upper_bound(
        f"roundtrip-quadratic[n={dim.n},k={dim.k}]", "dirichlet-roundtrip",
        {"n": dim.n, "k": dim.k, "R": R}, err, tol, {"mass": hessian_mass(u)},
    )


def _fundamental(cfg, dim):
    R = cfg.radius
    atom = dim.n_choose_k * dim.ball_volume
    nodes = quad.radial_grid(R, cfg.grid_n)
    u = solve_dirichlet(RadialMeasure.from_atom(dim, R, nodes, atom), 0.0)
    target = np.log(nodes / R)
    mask = nodes >= 1e-6 * R
    err = float(np.max(np.abs(u.values[mask] - target[mask])))
    return upper_bound(
        f"fundamental-log[n={dim.n},k={dim.k}]", "fundamental-solution",
        {"n": dim.n, "k": dim.k, "R": R, "atom": atom}, err, _tol(cfg, 1e-6), {"atom": atom},
    )


def _mass_constancy(cfg, dim):
    R = cfg.radius
    mu = s_k_radial(make_profile(FamilySpec("log"), dim, R, cfg.grid_n))
    expected = dim.n_choose_k * dim.ball_volume
    rel = float(np.max(np.abs(mu.cumulative - expected)) / expected)
    return upper_bound(
        f"fundamental-mass-constancy[n={dim.n},k={dim.k}]", "fundamental-solution",
        {"n": dim.n, "k": dim.k, "R": R}, rel, _tol(cfg, 1e-8), {"expected": expected},
    )


def _newtonian(cfg, dim):
    R = cfg.radius
    mass = hessian_mass(make_profile(FamilySpec("newtonian"), dim, R, cfg.grid_n))
    expected = 4.0 * math.pi  # unit-amplitude point mass at (3, 1)
    rel = abs(mass - expected) / expected
    return upper_bound(
        f"newtonian-mass[n={dim.n},k={dim.k}]", "newtonian-atom",
        {"n": dim.n, "k": dim.k, "R": R}, rel, _tol(cfg, 1e-9), {"mass": mass},
    )


def _suite_solve(cfg: ExperimentConfig, soft: bool = False):
    jobs = []
    for dim in _dims_for(cfg, _CANONICAL, lambda d: True, "radial", soft):
        jobs.append(partial(_roundtrip, cfg, dim))
        if dim.is_intermediate:
            jobs.append(partial(_fundamental, cfg, dim))
            jobs.append(partial(_mass_constancy, cfg, dim))
        if (dim.n, dim.k) == (3, 1):
            jobs.append(partial(_newtonian, cfg, dim))
    return jobs


def _condenser(cfg, dim, frac=0.3):
    return cap_mod.CapacityConfig(dim, frac * cfg.radius, cfg.radius)


def _extremal_mass(cfg, dim):
    c = _condenser(cfg, dim)
    cap = cap_mod.cap_concentric(c)
    mass = hessian_mass(cap_mod.extremal_profile(c, cfg.grid_n))
    rel = abs(mass - cap) / cap
    return upper_bound(
        f"extremal-mass[n={dim.n},k={dim.k}]", "cap-extremal-mass",
        {"n": dim.n, "k": dim.k, "inner": 0.3 * cfg.radius, "outer": cfg.radius},
        rel, _tol(cfg, 1e-6), {"cap": cap, "mass": mass},
    )


def _levelset(cfg, dim, kind):
    u = make_profile(FamilySpec(kind), dim, cfg.radius, cfg.grid_n)
    ts = np.linspace(0.1, 0.9, 5) * min(float(-u.values[0]), 20.0)
    return cap_mod.levelset_cap_check(u, ts, tol=_tol(cfg, 1e-8))


def _comparisons(cfg, dim):
    R, grid_n = cfg.radius, cfg.grid_n
    if not dim.is_intermediate:
        return [cap_mod.comparison_check(
            make_profile(FamilySpec("power", amplitude=2.0), dim, R, grid_n),
            make_profile(FamilySpec("power", amplitude=1.0), dim, R, grid_n),
        )]
    deep = make_profile(FamilySpec("log", amplitude=2.0), dim, R, grid_n)
    shallow = make_profile(FamilySpec("log", amplitude=1.0), dim, R, grid_n)
    return [
        cap_mod.comparison_check(deep, shallow),
        cap_mod.comparison_check(
            cap_mod.extremal_profile(_condenser(cfg, dim), grid_n),
            make_profile(FamilySpec("quadratic"), dim, R, grid_n),
        ),
    ]


def _suite_capacity(cfg: ExperimentConfig, soft: bool = False):
    jobs = []
    for dim in _dims_for(cfg, _CANONICAL, lambda d: 2 * d.k <= d.n, "capacity (2k <= n)", soft):
        jobs.append(partial(_extremal_mass, cfg, dim))
        jobs.append(partial(_levelset, cfg, dim, "quadratic"))
        jobs.append(partial(_comparisons, cfg, dim))
        if dim.is_intermediate:
            for frac in (0.5, 0.1, 0.01):
                jobs.append(partial(cap_mod.isocapacitary_margin, _condenser(cfg, dim, frac), dim.beta_max))
            jobs.append(partial(_levelset, cfg, dim, "log"))
        else:
            jobs.append(partial(cap_mod.isocapacitary_margin, _condenser(cfg, dim), 2.0))
            if (dim.n, dim.k) == (3, 1):
                jobs.append(partial(_levelset, cfg, dim, "newtonian"))
    return jobs


# Branch-compatible profile kinds for the --family override.
_EXP_KINDS = ("log", "mollified-log", "quadratic")
_LP_KINDS = ("power", "newtonian")


def _bm_query(cfg, dim, branch, kind, **params):
    spec = FamilySpec(kind, mollification=0.05) if kind == "mollified-log" else FamilySpec(kind)
    return bm_mod.BMQuery(
        dim=dim, branch=branch, family=spec, R=cfg.radius, amplitudes=3, grid_n=cfg.grid_n, **params,
    )


# The default strong-norm exponents; a dimension keeps those below its
# endpoint kn/(n - 2k), where bm_lp_check switches to the weak quasinorm.
_LP_LADDER = (1.0, 2.0, 2.9)


def _strong_ps(dim) -> tuple[float, ...]:
    endpoint = dim.lp_endpoint()
    return tuple(p for p in _LP_LADDER if p < endpoint)


def _lp_monotone(cfg, dim, kind):
    R = cfg.radius
    u = make_profile(FamilySpec(kind), dim, R, cfg.grid_n)
    volume = domain_volume(dim, R)
    ps = _strong_ps(dim)
    means = [lp_norm(u, p) / volume ** (1.0 / p) for p in ps]
    worst = float(np.min(np.diff(means)))
    return lower_bound(
        f"lp-normalized-monotone[n={dim.n},k={dim.k}]", "mass-normalized-lp",
        {"n": dim.n, "k": dim.k, "R": R, "ps": list(ps)}, worst, 0.0,
        {"means": [float(m) for m in means]}, slack=1e-12,
    )


def _suite_bm(cfg: ExperimentConfig, soft: bool = False):
    dims = _dims_for(
        cfg, _CANONICAL, lambda d: d.is_intermediate or d.is_subcritical,
        "integrability", soft,
    )
    family = cfg.family
    if family in _FIXTURE_FAMILIES:
        if not soft:
            raise ConfigError(f"family {family!r} belongs to the degiorgi suite")
        family = None
    jobs = []
    for dim in dims:
        if dim.is_intermediate:
            alpha0 = dim.moser_constant
            if cfg.lam is not None:
                if not 0 < cfg.lam < alpha0:
                    raise ConfigError(
                        f"lambda must lie in (0, {alpha0:g}) for (n, k) = ({dim.n}, {dim.k})"
                    )
                lams = [cfg.lam]
            else:
                lams = [alpha0 / 4, alpha0 / 2, 3 * alpha0 / 4]
            if cfg.beta is not None and not 1.0 <= cfg.beta <= dim.beta_max:
                raise ConfigError(
                    f"beta must lie in [1, {dim.beta_max:g}] for (n, k) = ({dim.n}, {dim.k})"
                )
            exp_kind = family if family in _EXP_KINDS else "log"
            exp_runs = [(lam, exp_kind) for lam in lams]
            if exp_kind == "log":
                exp_runs.append((alpha0 / 2, "mollified-log"))
            for lam, kind in exp_runs:
                query = _bm_query(cfg, dim, "exp", kind, lam=lam, beta=cfg.beta)
                jobs.append(partial(bm_mod.bm_exp_check, query))
            jobs.append(partial(bm_mod.sharpness_probe, dim, R=cfg.radius, grid_n=cfg.grid_n))
        else:
            endpoint = dim.lp_endpoint()
            strong = _strong_ps(dim)
            if cfg.p is not None:
                if not 1.0 <= cfg.p <= endpoint:
                    raise ConfigError(
                        f"p must lie in [1, {endpoint:g}] for (n, k) = ({dim.n}, {dim.k})"
                    )
                ps = [cfg.p]
            else:
                ps = [*strong, endpoint]
            default_kind = "newtonian" if (dim.n, dim.k) == (3, 1) else "power"
            lp_kind = family if family in _LP_KINDS else default_kind
            if lp_kind == "newtonian" and (dim.n, dim.k) != (3, 1):
                lp_kind = "power"
            for p in ps:
                jobs.append(partial(bm_mod.bm_lp_check, _bm_query(cfg, dim, "lp", lp_kind, p=p)))
            if len(strong) > 1:
                # monotonicity needs two strong exponents to compare
                jobs.append(partial(_lp_monotone, cfg, dim, lp_kind))
    return jobs


def _bump_density(r):
    return 1.0 + 3.0 * np.exp(-(r**2) / (2 * 0.2**2))


def _degiorgi_density(r):
    return 1.0 + 4.0 * np.exp(-(r**2) / (2 * 0.25**2))


def _abp_bound(cfg, dim):
    """The sup-bound records of the mollified Dirac family and, at
    (4, 2), the fixed-budget record of the same family."""
    R, grid_n = cfg.radius, cfg.grid_n
    weight = abp_mod.OrliczWeight("exp", dim.k, rate=1.0)
    densities = abp_mod.mollified_dirac_family(dim, weight, R=R, grid_n=grid_n)
    family = abp_mod.sample_family(dim, densities, weight, R=R, grid_n=grid_n)
    records = abp_mod.abp_bound_check(family)
    if (dim.n, dim.k) == (4, 2):
        records.append(abp_mod.fixed_budget_variation_check(family))
    return records


def _suite_abp(cfg: ExperimentConfig, soft: bool = False):
    jobs = []
    grid = {"R": cfg.radius, "grid_n": cfg.grid_n}
    for dim in _dims_for(cfg, _CANONICAL_2K_EQ_N, lambda d: d.is_intermediate, "barrier (2k = n)", soft):
        weight = abp_mod.OrliczWeight("exp", dim.k, rate=float(dim.k))
        for density in (partial(_constant, c=float(dim.n_choose_k)), _bump_density):
            jobs.append(partial(abp_mod.verify_gk, dim, density, weight, **grid))
        jobs.append(partial(_abp_bound, cfg, dim))
        jobs.append(partial(abp_mod.abp_degiorgi_check, dim, _degiorgi_density, **grid))
    return jobs


# (phi0, power, vanish scale) for the synthetic decay fixtures; twenty
# hypothesis-satisfying curves phi0 (1 - s/a)_+^m.
_DEGIORGI_STANDARD = (
    (0.25, 1, 1.0), (0.25, 2, 1.0), (0.25, 3, 1.0),
    (1.0, 1, 1.0), (1.0, 2, 1.0), (1.0, 3, 1.0),
    (4.0, 1, 1.0), (4.0, 2, 1.0), (4.0, 3, 1.0),
    (10.0, 1, 1.0), (10.0, 2, 1.0), (10.0, 3, 1.0),
    (1.0, 1, 0.5), (1.0, 2, 0.5), (1.0, 3, 0.5),
    (1.0, 1, 2.0), (1.0, 2, 2.0), (1.0, 3, 2.0),
    (10.0, 2, 0.5), (0.25, 3, 2.0),
)

# (label, degiorgi_threshold arguments, closed-form threshold)
_DEGIORGI_THRESHOLDS = (
    ("unit", (1.0, 1.0, 0.25, 0.0), 1.0),
    ("shifted", (2.0, 0.5, 1.0, 3.0), 4.0 / (1.0 - 2.0**-0.5) + 3.0),
    ("zero-mass", (7.0, 1.3, 0.0, 2.5), 2.5),
)


def _threshold_row(label, args, expected):
    got = abp_mod.degiorgi_threshold(*args)
    rel = abs(got - expected) / max(1.0, abs(expected))
    return upper_bound(
        f"threshold[{label}]", "degiorgi-threshold", {"args": list(args)},
        rel, 1e-12, {"value": got, "expected": expected},
    )


def _fit_row(i, phi0, m, a):
    s = np.linspace(0.0, 4.0 * a, 33)
    phi = phi0 * np.maximum(1.0 - s / a, 0.0) ** m
    data = abp_mod.degiorgi_fit_and_verify(s, phi)
    return data.record(
        f"degiorgi-fit[{i:02d},phi0={phi0:g},m={m},a={a:g}]",
        {"phi0": phi0, "m": m, "a": a},
        {"c0": data.c0, "delta": data.delta},
    )


def _constant_row():
    s = np.linspace(0.0, 2.0, 12)
    data = abp_mod.degiorgi_fit_and_verify(s, np.full_like(s, 0.7))
    return data.record("degiorgi-fit[constant]", {"phi0": 0.7}, {"c0": data.c0})


def _suite_degiorgi(cfg: ExperimentConfig, soft: bool = False):
    fixture = "standard"
    if cfg.family in _FIXTURE_FAMILIES:
        fixture = cfg.family
    elif cfg.family is not None and not soft:
        raise ConfigError(
            f"degiorgi fixtures are {_FIXTURE_FAMILIES}, got family {cfg.family!r}"
        )
    if fixture == "constant":
        return [_constant_row]
    jobs = [partial(_threshold_row, *row) for row in _DEGIORGI_THRESHOLDS]
    for i, (phi0, m, a) in enumerate(_DEGIORGI_STANDARD):
        jobs.append(partial(_fit_row, i, phi0, m, a))
    return jobs


# Bubble rows verify that the exact solution is a fixed point of the
# discrete solver; the grid is pinned high enough that the first update
# already sits inside the stationarity tolerance.
_BUBBLE_GRID_N = 8192


def _bubble_identity(cfg):
    residual = liu_mod.bubble_residual_sup(4.0, R=1.0, grid_n=cfg.grid_n)
    return upper_bound("bubble-identity", "bubble-oracle", {"lam": 4.0}, residual, 1e-12)


def _solver_vs_bubble(cfg, lam):
    bg = max(cfg.grid_n, _BUBBLE_GRID_N)
    initial = liu_mod.bubble_profile(lam, grid_n=bg)
    u = liu_mod.solve_liouville(liu_mod.bubble_problem(lam, grid_n=bg), initial=initial)
    err = float(np.max(np.abs(u.values - initial.values)))
    return upper_bound(f"solver-bubble[lam={lam:g}]", "bubble-oracle", {"lam": lam}, err, 1e-4)


def _bubble_mass(cfg):
    lam = 4.0
    u = liu_mod.bubble_profile(lam, grid_n=cfg.grid_n)
    worst = 0.0
    for r in (0.25, 1.0):
        got = liu_mod.local_mass(u, np.ones_like, r)
        expected = liu_mod.bubble_local_mass(lam, r)
        worst = max(worst, abs(got - expected) / expected)
    return upper_bound("bubble-local-mass", "bubble-oracle", {"lam": lam}, worst, 1e-6)


def _classify_concentration(cfg):
    lams = [2.0**j for j in range(1, 9)]
    problems = tuple(liu_mod.bubble_problem(lam, grid_n=cfg.grid_n) for lam in lams)
    profiles = tuple(liu_mod.bubble_profile(lam, grid_n=cfg.grid_n) for lam in lams)
    report = liu_mod.classify_alternative(liu_mod.SolutionSequence(problems=problems, profiles=profiles))
    atom = report.atom_masses[0] if report.atom_masses else 0.0
    return lower_bound(
        "classify-concentration", "blowup-trichotomy", {"lams": lams}, atom, report.threshold,
        {"classification": report.classification},
        slack=1e-3 * report.threshold, holds=report.classification == "concentration",
    )


def _classification(check, inputs, sequence, expected):
    report = liu_mod.classify_alternative(sequence)
    # The indicator of the expected classification, at least 1.
    hit = 1.0 if report.classification == expected else 0.0
    return lower_bound(
        check, "blowup-trichotomy", inputs, hit, 1.0, {"classification": report.classification},
    )


def _classify_divergence(cfg):
    problems = tuple(_constant_problem(cfg, HessianDim(2, 1), math.exp(-j), float(j)) for j in (5, 10, 15, 20))
    return _classification(
        "classify-divergence", {"boundaries": [5, 10, 15, 20]},
        liu_mod.solve_sequence(problems), "uniform-divergence",
    )


def _classify_bounded(cfg):
    # The members pose one problem, so one cold solve stands for all four.
    prob = _constant_problem(cfg, HessianDim(2, 1))
    sequence = liu_mod.SolutionSequence(problems=(prob,) * 4, profiles=(liu_mod.solve_liouville(prob),) * 4)
    return _classification("classify-bounded", {"members": 4}, sequence, "bounded")


def _smallness(cfg, dim, levels):
    problems = tuple(_constant_problem(cfg, dim, c) for c in levels)
    return liu_mod.smallness_check(liu_mod.solve_sequence(problems))


def _harnack(cfg):
    u = make_profile(FamilySpec("quadratic"), HessianDim(2, 1), 1.0, cfg.grid_n)
    ratios = [liu_mod.harnack_ratio(u, r, 10.0, 0.5).ratio for r in (0.4, 0.2, 0.1)]
    expected = 1.0 / (1.0 - 0.4**2)
    rel = abs(ratios[0] - expected) / expected
    return upper_bound(
        "harnack-quadratic", "harnack-ratio", {"radii": [0.4, 0.2, 0.1]}, rel, 1e-9,
        {"ratios": [float(x) for x in ratios]}, holds=all(np.isfinite(ratios)),
    )


def _residual_row(cfg, dim):
    prob = _constant_problem(cfg, dim)
    residual = liu_mod.equation_residual(prob, liu_mod.solve_liouville(prob))
    return upper_bound(
        f"solve-residual[n={dim.n},k={dim.k}]", "exp-equation-residual",
        {"n": dim.n, "k": dim.k}, residual, 1e-6,
    )


def _suite_liouville(cfg: ExperimentConfig, soft: bool = False):
    dims = _dims_for(
        cfg,
        _CANONICAL_2K_EQ_N,
        lambda d: (d.n, d.k) in liu_mod.SUPPORTED_DIMS,
        "exponential equation ((2,1) or (4,2))",
        soft,
    )
    jobs = []
    for dim in dims:
        singular = partial(liu_mod.singular_comparison_check, dim, grid_n=cfg.grid_n)
        if (dim.n, dim.k) == (2, 1):
            jobs.append(partial(_bubble_identity, cfg))
            for lam in (1.0, 4.0, 16.0):
                jobs.append(partial(_solver_vs_bubble, cfg, lam))
            jobs.append(partial(_bubble_mass, cfg))
            jobs.append(partial(_classify_concentration, cfg))
            jobs.append(partial(_classify_divergence, cfg))
            jobs.append(partial(_classify_bounded, cfg))
            # The constant-weight problem folds at c = 2 on the unit
            # ball; the sweep stays below it so the minimal branch is
            # uniformly contracting.
            levels = tuple(float(c) for c in np.linspace(0.15, 1.9, 12))
            jobs.append(partial(_smallness, cfg, dim, levels))
            jobs.append(partial(_harnack, cfg))
            jobs.append(partial(singular, atom_factor=2.0, background=float(dim.n_choose_k)))
        else:
            jobs.append(partial(_residual_row, cfg, dim))
            jobs.append(partial(_smallness, cfg, dim, (1.0, 4.0, 10.0, 25.0)))
        jobs.append(partial(singular, atom_factor=1.0, background=0.0))
    return jobs


_BUILDERS = {
    "sym": _suite_sym,
    "solve": _suite_solve,
    "capacity": _suite_capacity,
    "bm": _suite_bm,
    "abp": _suite_abp,
    "degiorgi": _suite_degiorgi,
    "liouville": _suite_liouville,
}


def run_suite(cfg: ExperimentConfig) -> tuple[list[ReportRow], int]:
    """Execute the configured suite.  Every catalog is built before any
    job runs, so a config error in one suite's builder wins over a check
    error in another's jobs.  Rows come back sorted by (suite, check),
    which puts `all` in suite-name order."""
    soft = cfg.suite == "all"
    names = list(_BUILDERS) if soft else [cfg.suite]
    labeled: list[tuple[str, object]] = []
    for name in names:
        for thunk in _BUILDERS[name](cfg, soft=soft):
            labeled.append((name, thunk))
    rows: list[ReportRow] = []
    for suite_name, thunk in labeled:
        outcome = thunk()
        records = outcome if isinstance(outcome, list) else [outcome]
        for rec in records:
            rows.append(row_from_record(suite_name, rec))
    rows.sort(key=lambda row: (row.suite, row.check))
    return rows, rows_status(rows)


def rows_status(rows: list[ReportRow]) -> int:
    return 0 if all(row.passed for row in rows) else 1
