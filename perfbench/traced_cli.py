"""Run the hessianlab CLI with its layers traced, and write the spans out.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS.jsonl --suite all

Everything after the spans path is passed to `hessianlab.cli.main`; the
report and the exit code are the CLI's own.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import hessianlab.cli

    tracer = Tracer().install()
    try:
        return hessianlab.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
