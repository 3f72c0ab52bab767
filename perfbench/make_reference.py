"""Print the reference verdict table as JSON on standard output.

    PYTHONPATH=src python3 perfbench/make_reference.py > perfbench/reference.json

The table records, for every single suite and for `all` at the default
grid and at grid 8192, the (suite, check, anchor, inputs digest, pass)
rows of the report.  lhs, rhs and margin are left out on purpose: later
kernels may move their last bits without changing a verdict.  The
benchmark only reads this file; it never rewrites it.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import DEFAULT_GRID, ENV_THREADS, FINE_GRID, SUITE_NAMES, verdict_rows


def main() -> int:
    os.environ[ENV_THREADS] = "1"
    from hessianlab import suites

    table = {}
    for grid in (DEFAULT_GRID, FINE_GRID):
        for name in (*SUITE_NAMES, "all"):
            cfg = suites.config_from_sources(None, {"suite": name, "grid_n": grid})
            rows, _status = suites.run_suite(cfg)
            table[f"{grid}/{name}"] = verdict_rows(rows)
    # one row per line keeps diffs of this file readable
    blocks = []
    for key, rows in table.items():
        lines = ",\n".join(json.dumps(row) for row in rows)
        blocks.append(f"{json.dumps(key)}: [\n{lines}\n]")
    sys.stdout.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
