"""The hessian-profile/1 JSON interchange format.

One radial profile per file: dimensions, radius, boundary value, the
origin atom of its Hessian measure, and the node/value/slope arrays.
Floats are serialized with Python's shortest round-trip repr, so a
save/load cycle reproduces every number bitwise.  Unknown versions,
missing keys, stray keys, non-integer n or k, non-numeric scalars, and
a boundary or atom that disagrees with the arrays are all rejected: the
format is versioned precisely so readers never guess.

Every profile on one radial_grid grid writes the same node column, so
its text is formatted once per grid and kept in the grid's quadrature
cache entry, beside its stencils; such a profile's nodes are that
entry's read-only array, so they cannot be written in place.  The
node column of any other grid, and the values and slope columns, are
formatted per save.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import quadrature as quad
from .core import HessianDim
from .errors import HessianLabError, InvalidArgumentError, ProfileFormatError
from .radial import RadialProfile, profile_from_slope, s_k_radial

FORMAT = "hessian-profile/1"

# Relative tolerance of the stored boundary against values[-1], on the
# scale max(|values|, 1), and of the stored atom against the atom of the
# loaded arrays, on the scale of the total mass.  save_profile writes
# the atom of the same arrays and refuses a boundary that would fail.
MATCH_RTOL = 1e-12

_KEYS = ("format", "n", "k", "R", "boundary", "atom", "nodes", "values", "slope")

__all__ = ["FORMAT", "save_profile", "load_profile"]


def save_profile(u: RadialProfile, path) -> None:
    """Write u as the text of json.dumps(payload, indent=1) plus a newline.

    The layout is fixed: one key per line, then one array entry per
    line.  The arrays are finite (RadialProfile checks), so each entry
    is its float repr, which is what the JSON encoder writes too; only
    the six scalars go through json.dumps.
    """
    if not _boundary_matches(u):
        raise InvalidArgumentError(f"boundary {u.boundary!r} is not values[-1] = {u.values[-1]!r}")
    scalars = {
        "format": FORMAT,
        "n": u.dim.n,
        "k": u.dim.k,
        "R": u.R,
        "boundary": u.boundary,
        "atom": s_k_radial(u).atom,
    }
    fields = [f' "{key}": {json.dumps(value)}' for key, value in scalars.items()]
    node_text = quad._per_grid(quad._grid(u.nodes), "text", _entries)
    for key, text in (("nodes", node_text), ("values", _entries(u.values)), ("slope", _entries(u.slope))):
        fields.append(f' "{key}": [\n  {text}\n ]')
    Path(path).write_text("{\n" + ",\n".join(fields) + "\n}\n", encoding="utf-8")


def _entries(arr: np.ndarray) -> str:
    return ",\n  ".join(map(repr, arr.tolist()))


def load_profile(path) -> RadialProfile:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ProfileFormatError(f"{path}: not valid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ProfileFormatError(f"{path}: expected a JSON object")
    if data.get("format") != FORMAT:
        raise ProfileFormatError(
            f"{path}: unsupported format {data.get('format')!r}; this reader handles {FORMAT!r}"
        )
    missing = [key for key in _KEYS if key not in data]
    if missing:
        raise ProfileFormatError(f"{path}: missing keys {missing}")
    extra = sorted(set(data) - set(_KEYS))
    if extra:
        raise ProfileFormatError(f"{path}: unknown keys {extra}")
    for key in ("n", "k"):
        if not _is_int(data[key]):
            raise ProfileFormatError(f"{path}: {key} must be a JSON integer, got {data[key]!r}")
    for key in ("R", "boundary", "atom"):
        if not (_is_int(data[key]) or isinstance(data[key], float)):
            raise ProfileFormatError(f"{path}: {key} must be a JSON number, got {data[key]!r}")
    atom = float(data["atom"])
    if not (np.isfinite(atom) and atom >= 0):
        raise ProfileFormatError(f"{path}: atom must be a nonnegative number")
    try:
        u = profile_from_slope(
            dim=HessianDim(data["n"], data["k"]),
            R=float(data["R"]),
            nodes=np.asarray(data["nodes"], dtype=float),
            slope=np.asarray(data["slope"], dtype=float),
            boundary=float(data["boundary"]),
            values=np.asarray(data["values"], dtype=float),
        )
        mu = s_k_radial(u)
    except (HessianLabError, TypeError, ValueError) as exc:
        raise ProfileFormatError(f"{path}: invalid profile data: {exc}") from exc
    if not _boundary_matches(u):
        raise ProfileFormatError(f"{path}: boundary {u.boundary!r} is not values[-1] = {u.values[-1]!r}")
    if abs(atom - mu.atom) > MATCH_RTOL * mu.total:
        raise ProfileFormatError(f"{path}: atom {atom!r} is not the profile's atom {mu.atom!r}")
    return u


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _boundary_matches(u: RadialProfile) -> bool:
    scale = max(float(np.max(np.abs(u.values))), 1.0)
    return abs(u.boundary - float(u.values[-1])) <= MATCH_RTOL * scale
