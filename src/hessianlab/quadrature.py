"""Cumulative quadrature on geometrically graded radial grids.

The default grid is uniform in log r, so every integral is computed in
that coordinate where composite Simpson is fourth order.  Each interval
gets the integral of the parabola through three neighbouring nodes:
the forward stencil (i, i+1, i+2) on even intervals, the backward one
(i-1, i, i+1) on odd intervals and on the last, for any spacing.  This
is the cumulative Simpson rule of Cartwright (2017).  Integrands
proportional to 1/r become constants there and integrate exactly, which
is what the singular canonical profiles need.  cumulative_from_origin
adds the stub over (0, r_min], a local power law fitted to the first
two samples (an exponent at or below -1 marks a divergent integral);
a radial measure's mass is its origin atom plus that one call.

Everything fixed per grid lives in one module-private cache of at most
_CACHE_SIZE grids, oldest dropped first, and it holds only the grids
radial_grid builds, keyed on (size, R): the stencils, built on entry,
and what other modules derive from the nodes alone (the powers r^(n-1)
of the volume element, a saved profile's node text), built on first
use by _per_grid.  An entry holds its nodes as a read-only array, and
that array is the one every profile and measure on the grid holds:
radial_grid returns it, and RadialProfile and RadialMeasure.from_atom
and from_parts store the array their lookup returns, so a grid's nodes
live once.  A lookup hits only when handed an entry's own array, which
cannot have been written since.  Any other array, a copy of a cached
grid or an evicted entry's array included, is validated in full
(positive, strictly increasing, >= 3 points, no NaN) and gets stencils
built from a read-only copy of its own, which the lookup returns and
the cache does not keep.  Threads racing on a derived value may build
it twice; no cached array is written to.

The kernel evaluates each parabola piece a (b f0 + c f1 - d f2) with the
operations of that expression in their order, written through two
scratch arrays allocated per call rather than one temporary per
operation, so its floats are those of the plain expression.  Scratch
is never shared between calls, since library callers may run checks on
threads.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

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
    "cumulative_from_origin",
]

_CACHE_SIZE = 8
_cache_lock = threading.Lock()


def radial_grid(R: float, grid_n: int = DEFAULT_GRID_N) -> np.ndarray:
    """Geometric grid on [1e-8 R, R] (DEFAULT_RMIN_FACTOR) with grid_n
    nodes, bit-equal to np.geomspace.

    The result is the read-only node array of the grid's cache entry,
    the same object on every call while the entry is cached; writing
    into it raises ValueError, so copy it for a grid of your own.
    np.geomspace puts the last node exactly at R.
    """
    if not np.isfinite(R) or R <= 0:
        raise InvalidArgumentError(f"radius must be positive and finite, got {R!r}")
    _require_grid_n(grid_n)
    R, grid_n = float(R), int(grid_n)
    grid = _grids.get((grid_n, R))
    if grid is None:
        grid = _build(np.geomspace(DEFAULT_RMIN_FACTOR * R, R, grid_n))
        with _cache_lock:
            grid = _grids.setdefault((grid_n, R), grid)
            while len(_grids) > _CACHE_SIZE:
                del _grids[next(iter(_grids))]
    return grid.nodes


def _require_grid_n(grid_n) -> None:
    """The one rule on a grid size: an integer >= 16, not a bool."""
    if not isinstance(grid_n, (int, np.integer)) or isinstance(grid_n, bool) or grid_n < 16:
        raise InvalidArgumentError(f"grid size must be an integer >= 16, got {grid_n!r}")


def _stencil(h1, h2) -> tuple:
    """Coefficients (a, b, c, d) of the integral a (b f0 + c f1 - d f2)
    over a step of width h1 of the parabola through f0 at its near end,
    f1 at its far end and f2 one step of width h2 beyond."""
    r = h1 / (h1 + h2)
    rr = r * (h1 / h2)
    return h1 / 6, 3 - r, 3 + rr + r, rr


class _Grid(NamedTuple):
    """Validated nodes of one grid, the stencils of its n - 1 pieces and
    the values derived from its nodes so far.

    With m = (n - 1) // 2, forward holds the stencils of pieces 0, 2, ...,
    2m - 2 and backward those of pieces 1, 3, ..., 2m - 1; last is the
    backward stencil of piece n - 2.
    """

    nodes: np.ndarray
    forward: tuple
    backward: tuple
    last: tuple
    derived: dict


_grids: dict[tuple, _Grid] = {}


def _build(x: np.ndarray) -> _Grid:
    """The grid of the nodes x, an array no one else holds, validated
    and made read-only."""
    # spelled so that a NaN node fails it
    if not (np.all(x > 0) and np.all(np.diff(x) > 0)):
        raise InvalidArgumentError("grid nodes must be positive and strictly increasing")
    x.flags.writeable = False
    h = np.diff(np.log(x))
    return _Grid(x, _stencil(h[:-1:2], h[1::2]), _stencil(h[1::2], h[:-1:2]), _stencil(h[-1], h[-2]), {})


def _grid(nodes) -> _Grid:
    """The cache entry whose array nodes is, or else the grid of a
    validated read-only copy of nodes, which the cache does not keep."""
    x = np.asarray(nodes, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise InvalidArgumentError("grid nodes must be a 1-d array with >= 3 points")
    grid = _grids.get((x.size, x[-1]))
    if grid is not None and grid.nodes is x:
        return grid
    return _build(x.copy())


def _per_grid(grid: _Grid, key, build):
    """The value build(grid.nodes) kept under key in grid's entry, built
    on first use; an array is made read-only before it is kept."""
    value = grid.derived.get(key)
    if value is None:
        value = build(grid.nodes)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        grid.derived[key] = value
    return value


def _samples(grid: _Grid, samples) -> np.ndarray:
    y = np.asarray(samples, dtype=float)
    if y.shape != grid.nodes.shape:
        raise InvalidArgumentError("samples must match the nodes in shape")
    return y


def _cumulative(grid: _Grid, y: np.ndarray) -> np.ndarray:
    f = y * grid.nodes
    near, mid, far = f[:-2:2], f[1:-1:2], f[2::2]
    out = np.empty(f.size)
    out[0] = 0.0
    # a * (b * f0 + c * f1 - d * f2) per piece, through per-call scratch
    s, t = np.empty(near.size), np.empty(near.size)
    pieces = ((grid.forward, near, far, out[1:-1:2]), (grid.backward, far, near, out[2::2]))
    for (a, b, c, d), f0, f2, piece in pieces:
        np.multiply(b, f0, out=s)
        np.multiply(c, mid, out=t)
        s += t
        np.multiply(d, f2, out=t)
        s -= t
        np.multiply(a, s, out=piece)
    a, b, c, d = grid.last
    out[-1] = a * (b * f[-1] + c * f[-2] - d * f[-3])
    np.cumsum(out[1:], out=out[1:])
    return out


def cumulative_from_left(nodes, samples) -> np.ndarray:
    """F_i = integral of samples over [nodes[0], nodes[i]].

    The stub below nodes[0] is not included; see cumulative_from_origin.
    """
    grid = _grid(nodes)
    return _cumulative(grid, _samples(grid, samples))


def cumulative_from_right(nodes, samples) -> np.ndarray:
    """G_i = integral of samples over [nodes[i], nodes[-1]]."""
    F = cumulative_from_left(nodes, samples)
    return F[-1] - F


def cumulative_from_origin(nodes, samples) -> np.ndarray:
    """C_i = integral of samples over (0, nodes[i]], so C_0 is the stub.

    The stub fits samples ~ C r^p on the first two nodes; exact for
    power-law data.  It is 0 when the data vanishes at the edge and
    +inf when the fitted tail fails to integrate (p <= -1), which
    makes every C_i +inf.
    """
    grid = _grid(nodes)
    y = _samples(grid, samples)
    x, y0, y1 = grid.nodes, y[0], y[1]
    if y0 < 0 or not np.isfinite(y0):
        raise InvalidArgumentError("origin stub needs nonnegative finite edge samples")
    if y0 == 0.0:
        stub = 0.0
    elif y1 <= 0.0:
        # no usable local exponent, fall back to a constant continuation
        stub = float(y0 * x[0])
    else:
        p = np.log(y1 / y0) / np.log(x[1] / x[0])
        stub = float("inf") if p <= -1.0 + 1e-12 else float(y0 * x[0] / (p + 1.0))
    return stub + _cumulative(grid, y)
