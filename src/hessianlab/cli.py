"""Command line entry point.

Runs one named suite (or all of them), prints or writes the report,
and exits 0 when every row passed, 1 when any failed, 2 on an invalid
configuration, and 3 when a check raised a HessianLabError (an input
it could not handle, or a solver that found no solution); exit 3
prints one `hessianlab: ...` line to stderr and no report.  Flags
override config-file values which override the defaults; the flags
come from the option table `suites.OPTIONS`.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, HessianLabError
from .report import emit_report
from .suites import OPTIONS, ExperimentConfig, config_from_sources, load_config_file, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessianlab",
        description="Run the k-Hessian verification suites and emit a pass/fail report.",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file; flags override it")
    for opt in OPTIONS:
        # argparse passes strings through unconverted when given no type.
        kind = None if opt.type is str else opt.type
        parser.add_argument(
            opt.flag, dest=opt.field, type=kind, choices=opt.choices, metavar=opt.metavar, help=opt.help,
        )
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults <- the --config file <- the flags given."""
    file_data = load_config_file(args.config) if args.config else None
    return config_from_sources(file_data, {opt.key: getattr(args, opt.field) for opt in OPTIONS})


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        rows, status = run_suite(cfg)
        text = emit_report(rows, out_path=cfg.out, fmt=cfg.fmt)
        if cfg.out is None:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"hessianlab: {exc}", file=sys.stderr)
        return 2
    except HessianLabError as exc:
        print(f"hessianlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"hessianlab: cannot write report: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
