"""Integrability checks for k-admissible profiles with zero boundary data.

Subcritical regime 2k < n: the strong L^p norm normalized by the k-th
root of the Hessian mass stays bounded strictly below the endpoint
p = kn/(n - 2k), and the weak quasinorm takes over at the endpoint.

Intermediate regime 2k = n: the exponential moment with sharp
coefficient a0 obeys

    int exp(lam ((-u)/M^(1/k))^(k beta/(k+1))) dx <= C |B_R| a0/(a0 - lam)

for lam < a0.  At the exponent ceiling beta = 1 + 1/k the log family
attains C = 1 exactly and every other shipped family falls below it;
the probe walks a dyadic ladder toward the sharp coefficient to pin
the divergence boundary at a0 itself.

Every ratio here is invariant under amplitude rescaling, because the
functionals normalize by the Hessian mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from .core import HessianDim
from .errors import DegenerateProfileError, InvalidArgumentError, UnsupportedDimensionError
from .families import FamilySpec, make_family, make_profile
from .radial import (
    domain_volume, exp_integral, exp_moment_bound, hessian_mass, lp_norm, weak_lp_quasinorm,
)
from .report import CheckRecord, near, upper_bound

__all__ = ["BRANCHES", "BMQuery", "bm_lp_check", "bm_exp_check", "sharpness_probe"]

BRANCHES = ("lp", "exp")


@dataclass(frozen=True)
class BMQuery:
    """One integrability question about one canonical family sweep.

    `branch` picks the regime: "lp" needs 2k < n and an exponent p;
    "exp" needs 2k = n and a coefficient lam (beta defaults to the
    exponent ceiling 1 + 1/k).
    """

    dim: HessianDim
    branch: str
    family: FamilySpec
    R: float = 1.0
    p: float | None = None
    lam: float | None = None
    beta: float | None = None
    amplitudes: int = 8
    mollification_levels: int = 3
    grid_n: int = quad.DEFAULT_GRID_N

    def __post_init__(self) -> None:
        if self.branch not in BRANCHES:
            raise InvalidArgumentError(f"branch must be one of {BRANCHES}, got {self.branch!r}")
        if not (np.isfinite(self.R) and self.R > 0):
            raise InvalidArgumentError(f"radius must be positive, got {self.R!r}")
        if self.amplitudes < 1 or self.mollification_levels < 1:
            raise InvalidArgumentError("sweep sizes must be positive")
        if self.branch == "lp":
            if not self.dim.is_subcritical:
                raise UnsupportedDimensionError(
                    f"the L^p branch needs 2k < n, got (n, k) = ({self.dim.n}, {self.dim.k})"
                )
            if self.p is None or not np.isfinite(self.p) or self.p < 1:
                raise InvalidArgumentError(f"the L^p branch needs p >= 1, got {self.p!r}")
        else:
            if not self.dim.is_intermediate:
                raise UnsupportedDimensionError(
                    f"the exponential branch needs 2k = n, got (n, k) = ({self.dim.n}, {self.dim.k})"
                )
            if self.lam is None or not np.isfinite(self.lam) or self.lam <= 0:
                raise InvalidArgumentError(f"the exponential branch needs lam > 0, got {self.lam!r}")
            if self.beta is not None and not 1.0 <= self.beta <= self.dim.beta_max * (1.0 + 1e-12):
                raise InvalidArgumentError(
                    f"beta must lie in [1, {self.dim.beta_max:g}], got {self.beta!r}"
                )

    @property
    def beta_value(self) -> float:
        return self.dim.beta_max if self.beta is None else float(self.beta)

    def members(self):
        levels = self.mollification_levels if self.family.kind == "mollified-log" else 1
        return make_family(
            self.family, self.dim, self.R, count=self.amplitudes, grid_n=self.grid_n,
            mollification_levels=levels,
        )


def bm_lp_check(q: BMQuery) -> list[CheckRecord]:
    """Mass-normalized L^p ratios over a family sweep, one record per
    member.

    Strictly below the endpoint kn/(n-2k) the strong norm is used and
    each ratio must be finite; at the endpoint the weak quasinorm
    replaces it.  Exponents above the endpoint are rejected since
    nothing is claimed there.
    """
    if q.branch != "lp":
        raise InvalidArgumentError("query has the exponential branch; use bm_exp_check")
    dim = q.dim
    endpoint = dim.lp_endpoint()
    if q.p > endpoint * (1.0 + 1e-12):
        raise InvalidArgumentError(
            f"p = {q.p:g} exceeds the endpoint {endpoint:g}; no bound is claimed there"
        )
    at_endpoint = abs(q.p - endpoint) <= 1e-12 * endpoint
    route = "weak" if at_endpoint else "strong"
    ratios = []
    for u in q.members():
        mass = hessian_mass(u)
        if mass <= 0:
            raise DegenerateProfileError("family member has zero Hessian mass")
        norm = weak_lp_quasinorm(u, q.p) if at_endpoint else lp_norm(u, q.p)
        ratios.append(norm / mass ** (1.0 / dim.k))
    sup_ratio = float(np.max(ratios))
    records = []
    for i, ratio in enumerate(ratios):
        records.append(upper_bound(
            f"lp-bound[{q.family.kind},n={dim.n},k={dim.k},p={q.p:g},{route},m={i:02d}]",
            "mass-normalized-lp",
            {
                "n": dim.n, "k": dim.k, "p": q.p, "family": q.family.kind,
                "R": q.R, "route": route, "member": i,
            },
            float(ratio), math.inf, {"family_sup": sup_ratio, "endpoint": endpoint},
            holds=bool(np.isfinite(ratio)),
        ))
    return records


def bm_exp_check(q: BMQuery) -> list[CheckRecord]:
    """Exponential moments over a family sweep against the sharp bound,
    one record per member.

    Each record carries the ratio E / (|B_R| a0/(a0 - lam)).  At the
    exponent ceiling the log family must sit at 1 within 1e-6 and any
    other family at or below 1 + 1e-6; below the ceiling finiteness is
    the claim and the ratio is the reported empirical constant.
    """
    if q.branch != "exp":
        raise InvalidArgumentError("query has the L^p branch; use bm_lp_check")
    dim = q.dim
    alpha0 = dim.moser_constant
    if q.lam >= alpha0:
        raise InvalidArgumentError(
            f"lam = {q.lam:g} is at or past the sharp coefficient {alpha0:g}; use sharpness_probe"
        )
    beta = q.beta_value
    at_ceiling = abs(beta - dim.beta_max) <= 1e-12
    bound = exp_moment_bound(dim, q.R, q.lam)
    ratios = [exp_integral(u, q.lam, beta) / bound for u in q.members()]
    sup_ratio = float(np.max(ratios))
    tol = 1e-6
    records = []
    anchor = "exp-moment-sharp-bound"
    for i, ratio in enumerate(ratios):
        check = f"exp-bound[{q.family.kind},n={dim.n},beta={beta:g},lam={q.lam:g},m={i:02d}]"
        inputs = {
            "n": dim.n, "k": dim.k, "family": q.family.kind,
            "lam": q.lam, "beta": beta, "R": q.R, "member": i,
        }
        details = {"bound": bound, "empirical_constant": sup_ratio}
        if at_ceiling and q.family.kind == "log":
            rec = near(check, anchor, inputs, ratio, 1.0, tol, details)
        elif at_ceiling:
            rec = upper_bound(check, anchor, inputs, ratio, 1.0, details, slack=tol)
        else:
            rec = upper_bound(check, anchor, inputs, ratio, math.inf, details, holds=bool(np.isfinite(ratio)))
        records.append(rec)
    return records


def sharpness_probe(
    dim: HessianDim,
    R: float = 1.0,
    beta: float | None = None,
    levels: int = 10,
    grid_n: int = quad.DEFAULT_GRID_N,
) -> CheckRecord:
    """Walk lam = a0 (1 - 2^-j) toward the sharp coefficient on the log
    family.

    At the exponent ceiling every rung must be finite and match the
    closed form |B_R| 2^j within 1e-6, and the moment must be flagged
    divergent at lam = a0 exactly: the local integrand exponent there
    reaches the space dimension, analytically, not by overflow.  Below
    the ceiling the moment stays finite even at lam = a0.
    """
    if not dim.is_intermediate:
        raise UnsupportedDimensionError(
            f"the sharpness probe needs 2k = n, got (n, k) = ({dim.n}, {dim.k})"
        )
    if not isinstance(levels, (int, np.integer)) or levels < 1:
        raise InvalidArgumentError(f"levels must be a positive integer, got {levels!r}")
    beta_val = dim.beta_max if beta is None else float(beta)
    alpha0 = dim.moser_constant
    u = make_profile(FamilySpec("log"), dim, R, grid_n)
    volume = domain_volume(dim, R)
    at_ceiling = abs(beta_val - dim.beta_max) <= 1e-12
    if not at_ceiling:
        value = exp_integral(u, alpha0, beta_val)
        finite = bool(np.isfinite(value))
        return upper_bound(
            f"sharpness[n={dim.n},beta={beta_val:g}]", "exp-moment-sharpness",
            {"n": dim.n, "k": dim.k, "beta": beta_val, "R": R},
            value, math.inf, {"finite_at_sharp_coefficient": finite}, holds=finite,
        )
    worst_rel = 0.0
    rungs = []
    for j in range(1, int(levels) + 1):
        lam = alpha0 * (1.0 - 2.0**-j)
        value = exp_integral(u, lam, beta_val)
        target = volume * 2.0**j
        rel = abs(value - target) / target
        worst_rel = max(worst_rel, rel)
        rungs.append({"j": j, "lam": lam, "value": value, "target": target})
    diverges_at_sharp = not np.isfinite(exp_integral(u, alpha0, beta_val))
    diverges_above = not np.isfinite(exp_integral(u, alpha0 * (1 + 1e-9), beta_val))
    tol = 1e-6
    return upper_bound(
        f"sharpness[n={dim.n},beta=ceiling,levels={levels}]",
        "exp-moment-sharpness",
        {"n": dim.n, "k": dim.k, "beta": beta_val, "R": R, "levels": levels},
        worst_rel,
        tol,
        {
            "rungs": rungs,
            "divergence_boundary": alpha0,
            # At the boundary the log-family integrand behaves like
            # r^(-n lam/a0) r^(n-1), i.e. the local exponent hits n.
            "local_exponent_at_boundary": float(dim.n),
            "diverges_at_boundary": diverges_at_sharp,
        },
        holds=diverges_at_sharp and diverges_above,
    )
