"""Set-up probe: import equilat.cli and write a workload's inputs, then exit.

    python3 bench/probe.py <workload> <seed> <directory>

run.py times this from process start to exit in fresh interpreters for
setup_s, and checks that the printed input digest equals its own.
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    workload, seed, target = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.import_cli()
    _, digest = workloads.generate_inputs(workload, seed, target,
                                          workloads.pool_size(workload))
    print(digest)
