"""Check records and the deterministic report emitter.

A CheckRecord is the in-memory result of one verification, and this
module alone turns a claim into one.  Every claim is one of three
kinds, each with its constructor:

- upper_bound: value <= bound, margin = (bound + slack) - value;
- lower_bound: value >= bound, margin = value - (bound - slack);
- near: |value - target| <= tol, margin = tol - |value - target|.

lhs is the value, rhs the bound or target as the paper states it, and
the tolerance sits inside the margin.  A side condition `holds` that
fails sets the margin to -inf.  A finiteness claim is an upper bound
at +inf (a lower bound at -inf) with holds = isfinite(value).  In
every record, pass is exactly margin >= 0.

ReportRow is the flattened, serializable form of a record.  Reports
are required to be byte-identical across runs for a fixed
configuration, so every field is derived from the inputs alone; in
particular the ms column is always zero rather than wall time (timing
lives in the perfbench harness).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

from .errors import InvalidArgumentError

CSV_HEADER = ["suite", "check", "anchor", "inputs", "lhs", "rhs", "margin", "pass", "ms"]

__all__ = [
    "CheckRecord", "ReportRow", "CSV_HEADER", "digest_inputs", "row_from_record", "emit_report",
    "upper_bound", "lower_bound", "near",
]


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one named check against one named inequality.

    lhs is the measured value and rhs the bound or target as the paper
    states it; margin says how far inside the claim lhs sits, any stated
    tolerance included, and passed is exactly margin >= 0.  Build
    records with upper_bound, lower_bound or near, never by hand.
    details may carry auxiliary diagnostics and is not serialized into
    report rows.
    """

    check: str
    anchor: str
    inputs: dict
    lhs: float
    rhs: float
    margin: float
    passed: bool
    details: dict = field(default_factory=dict)


def _record(check, anchor, inputs, value, bound, margin, holds, details) -> CheckRecord:
    margin = margin if holds else -math.inf
    return CheckRecord(check, anchor, inputs, value, bound, margin, bool(margin >= 0), details or {})


def upper_bound(check: str, anchor: str, inputs: dict, value: float, bound: float,
                details: dict | None = None, *, slack: float = 0.0, holds: bool = True) -> CheckRecord:
    """The claim value <= bound, up to an absolute slack: margin is
    (bound + slack) - value.  holds is a side condition the check also
    asserts; when it fails the margin is -inf."""
    return _record(check, anchor, inputs, value, bound, (bound + slack) - value, holds, details)


def lower_bound(check: str, anchor: str, inputs: dict, value: float, bound: float,
                details: dict | None = None, *, slack: float = 0.0, holds: bool = True) -> CheckRecord:
    """The claim value >= bound, up to an absolute slack: margin is
    value - (bound - slack).  holds as in upper_bound."""
    return _record(check, anchor, inputs, value, bound, value - (bound - slack), holds, details)


def near(check: str, anchor: str, inputs: dict, value: float, target: float, tol: float,
         details: dict | None = None) -> CheckRecord:
    """The claim |value - target| <= tol: margin is tol - |value - target|."""
    return _record(check, anchor, inputs, value, target, tol - abs(value - target), True, details)


@dataclass(frozen=True)
class ReportRow:
    suite: str
    check: str
    anchor: str
    inputs: str
    lhs: float
    rhs: float
    margin: float
    passed: bool


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return repr(obj)
    return repr(obj)


def digest_inputs(inputs: dict) -> str:
    """Short stable digest of the check inputs."""
    blob = json.dumps(_canonical(inputs), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def row_from_record(suite: str, rec: CheckRecord) -> ReportRow:
    return ReportRow(
        suite=suite,
        check=rec.check,
        anchor=rec.anchor,
        inputs=digest_inputs(rec.inputs),
        lhs=rec.lhs,
        rhs=rec.rhs,
        margin=rec.margin,
        passed=rec.passed,
    )


def _fmt(x: float) -> str:
    # full precision scientific notation, round-trips exactly
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17e")


def emit_report(rows: list[ReportRow], out_path: str | None = None, fmt: str = "csv") -> str:
    """Render rows as CSV or JSON lines; optionally write to a file.

    Returns the rendered text.  Empty row lists are rejected so silent
    no-op runs cannot masquerade as green reports.
    """
    if not rows:
        raise InvalidArgumentError("refusing to emit an empty report")
    if fmt not in ("csv", "jsonl"):
        raise InvalidArgumentError(f"format must be 'csv' or 'jsonl', got {fmt!r}")
    # One row's cells in CSV_HEADER order; pass stays a bool until
    # rendered, and ms is the constant zero.
    cells = [
        [row.suite, row.check, row.anchor, row.inputs,
         _fmt(row.lhs), _fmt(row.rhs), _fmt(row.margin), bool(row.passed), _fmt(0.0)]
        for row in rows
    ]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for line in cells:
            writer.writerow([("true" if c else "false") if isinstance(c, bool) else c for c in line])
        text = buf.getvalue()
    else:
        text = "".join(
            json.dumps(dict(zip(CSV_HEADER, line)), separators=(",", ":")) + "\n" for line in cells
        )
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
