"""Child process timed by the ``setup_s`` metric.

It does what a fresh benchmark process does before its first scenario:
imports dexo (numpy, cryptography, the GF(256) tables) and builds the
workload's configs and adversary scripts. It then prints ``ready`` and exits.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
