"""Canonical radial families with closed-form values and slopes.

These are the exactly solvable profiles the verification suites lean
on: the log family (point mass in the intermediate regime), the pure
power family (point mass in the subcritical regime, Newtonian potential
at n = 3, k = 1), the quadratic family (constant density), and the
mollified log family (bounded regularization of the log profile).
Their formulas live in radial.CLOSED_FORMS, one record per kind; this
module samples them on the grid and streams families of them:
make_family builds each member only when its consumer asks for it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from .core import HessianDim, _finite_real
from .errors import InvalidArgumentError
from .radial import CLOSED_FORMS, KindParams, RadialProfile, profile_from_slope

KINDS = tuple(CLOSED_FORMS)

__all__ = ["FamilySpec", "KINDS", "make_profile", "make_family"]


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for one canonical profile: kind, amplitude, mollification."""

    kind: str
    amplitude: float = 1.0
    mollification: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidArgumentError(f"unknown family kind {self.kind!r}, expected one of {KINDS}")
        if not _finite_real(self.amplitude) or self.amplitude <= 0:
            raise InvalidArgumentError(f"amplitude must be positive, got {self.amplitude!r}")
        if self.kind == "mollified-log":
            if not _finite_real(self.mollification) or self.mollification <= 0:
                raise InvalidArgumentError("mollified-log needs a positive mollification scale")
        elif self.mollification:
            raise InvalidArgumentError(f"kind {self.kind!r} takes no mollification scale")


def make_profile(
    spec: FamilySpec,
    dim: HessianDim,
    R: float = 1.0,
    grid_n: int = quad.DEFAULT_GRID_N,
) -> RadialProfile:
    """Build one canonical profile on the standard graded grid from its
    closed-form record; the profile keeps the KindParams it was sampled
    with, for the exact branches."""
    r = quad.radial_grid(R, grid_n)
    form = CLOSED_FORMS[spec.kind]
    form.check_dim(dim)
    p = KindParams(c=spec.amplitude, R=float(R), m=dim.power_exponent, eps=spec.mollification)
    return profile_from_slope(
        dim, R, r, form.slope(r, p), 0.0, values=form.value(r, p),
        kind=spec.kind, closed=p, unbounded_origin=form.unbounded,
    )


def _require_count(count, what: str = "family count") -> int:
    """The one rule for the size of a family sweep: a positive integer,
    not a bool."""
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool) or count < 1:
        raise InvalidArgumentError(f"{what} must be a positive integer, got {count!r}")
    return int(count)


def make_family(
    spec: FamilySpec,
    dim: HessianDim,
    R: float = 1.0,
    count: int = 8,
    grid_n: int = quad.DEFAULT_GRID_N,
) -> Iterator[RadialProfile]:
    """Deterministic family sweep around the base spec, as a stream.

    Amplitudes run over the dyadic ladder amplitude * 2^(i - count//2);
    for the mollified kind each amplitude is repeated at
    mollification / 4^j for j = 0, 1, 2.  `count` is checked at the
    call; the members are then built one at a time as the consumer
    asks for them, and the stream keeps none it has yielded.
    """
    count = _require_count(count)
    scales = [spec.mollification / 4.0**j for j in range(3)] if spec.kind == "mollified-log" else [0.0]
    specs = [
        FamilySpec(spec.kind, spec.amplitude * 2.0 ** (i - count // 2), eps) for i in range(count) for eps in scales
    ]
    return (make_profile(member, dim, R, grid_n) for member in specs)
