"""One set-up sample: a fresh interpreter imports the program and
renders a workload's nets to text, then exits.

    python3 perfbench/probe.py deadlock-explicit
"""

import sys

from workloads import render

if __name__ == "__main__":
    render(sys.argv[1])
