"""Cumulative quadrature on geometrically graded radial grids.

The default grid is uniform in log r, so every integral is computed in
that coordinate where composite Simpson is fourth order.  Each interval
gets the integral of the parabola through three neighbouring nodes:
the forward stencil (i, i+1, i+2) on even intervals, the backward one
(i-1, i, i+1) on odd intervals and on the last, for any spacing.  This
is the cumulative Simpson rule of Cartwright (2017).  Integrands
proportional to 1/r become constants there and integrate exactly, which
is what the singular canonical profiles need.  The stub over
(0, r_min] is closed by fitting a local power law to the first two
samples; a fitted exponent at or below -1 marks a divergent integral.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

DEFAULT_GRID_N = 2048
DEFAULT_RMIN_FACTOR = 1e-8

__all__ = [
    "DEFAULT_GRID_N",
    "DEFAULT_RMIN_FACTOR",
    "radial_grid",
    "cumulative_from_left",
    "cumulative_from_right",
    "integral",
    "origin_stub",
]


def radial_grid(R: float, grid_n: int = DEFAULT_GRID_N, rmin_factor: float = DEFAULT_RMIN_FACTOR) -> np.ndarray:
    """Geometric grid on [rmin_factor * R, R] with grid_n nodes."""
    if not np.isfinite(R) or R <= 0:
        raise InvalidArgumentError(f"radius must be positive and finite, got {R!r}")
    if not isinstance(grid_n, (int, np.integer)) or grid_n < 16:
        raise InvalidArgumentError(f"grid size must be an integer >= 16, got {grid_n!r}")
    if not 0 < rmin_factor < 1:
        raise InvalidArgumentError(f"inner cutoff factor must lie in (0, 1), got {rmin_factor!r}")
    return np.geomspace(rmin_factor * R, R, int(grid_n))


def _validate(nodes: np.ndarray, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(nodes, dtype=float)
    y = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 3 or y.shape != x.shape:
        raise InvalidArgumentError("nodes and samples must be matching 1-d arrays with >= 3 points")
    if np.any(x <= 0) or np.any(np.diff(x) <= 0):
        raise InvalidArgumentError("nodes must be positive and strictly increasing")
    return x, y


def _parabola_integrals(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Integral over step i (of width h[i]) of the parabola through
    samples i, i+1 and i+2."""
    h1, h2 = h[:-1], h[1:]
    r = h1 / (h1 + h2)
    rr = r * (h1 / h2)
    return h1 / 6 * ((3 - r) * f[:-2] + (3 + rr + r) * f[1:-1] - rr * f[2:])


def cumulative_from_left(nodes, samples) -> np.ndarray:
    """F_i = integral of samples over [nodes[0], nodes[i]].

    The stub below nodes[0] is not included; see origin_stub.
    """
    x, y = _validate(nodes, samples)
    f, h = y * x, np.diff(np.log(x))
    backward = _parabola_integrals(f[::-1], h[::-1])[::-1]
    pieces = np.empty(h.size)
    pieces[:-1:2] = _parabola_integrals(f, h)[::2]
    pieces[1::2] = backward[::2]
    pieces[-1] = backward[-1]
    return np.concatenate(([0.0], np.cumsum(pieces)))


def cumulative_from_right(nodes, samples) -> np.ndarray:
    """G_i = integral of samples over [nodes[i], nodes[-1]]."""
    F = cumulative_from_left(nodes, samples)
    return F[-1] - F


def integral(nodes, samples) -> float:
    """Integral of samples over [nodes[0], nodes[-1]]."""
    return float(cumulative_from_left(nodes, samples)[-1])


def origin_stub(nodes, samples) -> float:
    """Closed-form estimate of the integral over (0, nodes[0]].

    Fits samples ~ C r^p on the first strictly positive pair; exact for
    power-law data.  Returns +inf when the fitted tail fails to
    integrate (p <= -1), 0.0 when the data vanishes at the edge.
    """
    x, y = _validate(nodes, samples)
    y0, y1 = y[0], y[1]
    if y0 < 0 or not np.isfinite(y0):
        raise InvalidArgumentError("origin stub needs nonnegative finite edge samples")
    if y0 == 0.0:
        return 0.0
    if y1 <= 0.0:
        # no usable local exponent, fall back to a constant continuation
        return float(y0 * x[0])
    p = np.log(y1 / y0) / np.log(x[1] / x[0])
    if p <= -1.0 + 1e-12:
        return float("inf")
    return float(y0 * x[0] / (p + 1.0))
