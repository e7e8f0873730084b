"""One set-up sample: import negdimcd and build a workload's shared inputs.

    python3 perfbench/setup_probe.py <workload> <seed> [--smoke]

``run.py`` times this script in fresh interpreters; its wall time is the
``setup_s`` sample.
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]), smoke="--smoke" in sys.argv[3:])
