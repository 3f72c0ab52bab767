"""Time one workload's set-up in a fresh process and print it in seconds.

    PYTHONPATH=src python3 perfbench/probe.py suites-fold
"""

import sys

from workloads import setup

if __name__ == "__main__":
    print(repr(setup(sys.argv[1])))
