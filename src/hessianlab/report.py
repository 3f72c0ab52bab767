"""Check records and the deterministic report emitter.

A CheckRecord is the in-memory result of one verification: the two
sides of the inequality or identity it examined, the margin, and a
pass flag.  ReportRow is its flattened, serializable form.  Reports
are required to be byte-identical across runs for a fixed
configuration, so every field is derived from the inputs alone; in
particular the ms column is pinned to zero rather than wall time.
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
    "CheckRecord", "ReportRow", "CSV_HEADER", "digest_inputs", "row_from_record", "emit_report", "upper_bound",
]


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one named check against one named inequality.

    margin is rhs - lhs for one-sided checks and the (negated)
    deviation for equality checks, so that margin >= 0 means pass in
    both conventions.  details may carry auxiliary diagnostics and is
    not serialized into report rows.
    """

    check: str
    anchor: str
    inputs: dict
    lhs: float
    rhs: float
    margin: float
    passed: bool
    details: dict = field(default_factory=dict)


def upper_bound(
    check: str,
    anchor: str,
    inputs: dict,
    value: float,
    tol: float,
    details: dict | None = None,
    holds: bool = True,
) -> CheckRecord:
    """Record of the one-sided claim value <= tol, with margin tol - value.

    holds carries any side condition the check also asserts; the record
    passes only when both hold.
    """
    return CheckRecord(
        check=check,
        anchor=anchor,
        inputs=inputs,
        lhs=value,
        rhs=tol,
        margin=tol - value,
        passed=bool(value <= tol and holds),
        details=details or {},
    )


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
    ms: float = 0.0


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
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.suite,
                    row.check,
                    row.anchor,
                    row.inputs,
                    _fmt(row.lhs),
                    _fmt(row.rhs),
                    _fmt(row.margin),
                    "true" if row.passed else "false",
                    _fmt(row.ms),
                ]
            )
        text = buf.getvalue()
    else:
        lines = []
        for row in rows:
            lines.append(
                json.dumps(
                    {
                        "suite": row.suite,
                        "check": row.check,
                        "anchor": row.anchor,
                        "inputs": row.inputs,
                        "lhs": _fmt(row.lhs),
                        "rhs": _fmt(row.rhs),
                        "margin": _fmt(row.margin),
                        "pass": row.passed,
                        "ms": _fmt(row.ms),
                    },
                    separators=(",", ":"),
                )
            )
        text = "\n".join(lines) + "\n"
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
