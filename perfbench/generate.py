"""Write one workload's input files for one seed.

    python3 perfbench/generate.py <workload> <seed>

The benchmark runs this in a child process, so that generating the inputs
does not count towards the measured process's peak memory.
"""

from __future__ import annotations

import sys

from run import ROOT, use_checkout_package  # perfbench/ is sys.path[0] here

if __name__ == "__main__":
    use_checkout_package()
    from perfbench import workloads

    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.generate(workloads.WORKLOADS[name], seed, ROOT, workloads.WORK)
