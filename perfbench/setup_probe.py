"""Set-up probe: a fresh interpreter imports qlambda and builds one workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

run.py times this whole process from spawn to exit and reports the median
as setup_s.
"""
import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.build(name, seed, workdir)
