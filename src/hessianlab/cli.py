"""Command line entry point.

Runs one named suite (or all of them), prints or writes the report,
and exits 0 when every row passed, 1 when any failed, 2 on an invalid
configuration.  Flags override config-file values which override the
defaults.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, ProfileFormatError
from .report import emit_report
from .suites import CONFIG_KEYS, FORMATS, SUITES, config_from_sources, load_config_file, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessianlab",
        description="Run the k-Hessian verification suites and emit a pass/fail report.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file; flags override it")
    parser.add_argument("--suite", choices=SUITES, help="suite to run (default: all)")
    parser.add_argument("--n", type=int, help="ambient dimension")
    parser.add_argument("--k", type=int, help="Hessian order, 1 <= k <= n")
    parser.add_argument("--radius", type=float, help="domain ball radius (default 1)")
    parser.add_argument("--grid-n", type=int, dest="grid_n", help="radial grid size (default 2048)")
    parser.add_argument("--lambda", type=float, dest="lam", help="exponential-moment coefficient")
    parser.add_argument("--beta", type=float, help="exponential-moment exponent")
    parser.add_argument("--p", type=float, help="integrability exponent")
    parser.add_argument("--family", help="profile family or fixture name")
    parser.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=FORMATS, dest="fmt", help="report format (default csv)")
    parser.add_argument("--tol", type=float, help="override the grid-accuracy tolerances")
    return parser


# argparse destination (the config field name) -> external config key.
_DEST_TO_KEY = {field: key for key, field in CONFIG_KEYS.items()}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_data = load_config_file(args.config) if args.config else None
        overrides = {
            key: getattr(args, dest)
            for dest, key in _DEST_TO_KEY.items()
            if getattr(args, dest) is not None
        }
        cfg = config_from_sources(file_data, overrides)
        rows, status = run_suite(cfg)
        text = emit_report(rows, out_path=cfg.out, fmt=cfg.fmt)
        if cfg.out is None:
            sys.stdout.write(text)
    except (ConfigError, ProfileFormatError) as exc:
        print(f"hessianlab: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"hessianlab: cannot write report: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
