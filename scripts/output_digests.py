#!/usr/bin/env python3
"""Digest every output of every benchmark scenario, to show that a change
leaves traces, gas logs, contract dumps and summaries byte-identical.

For each scenario of the three ``perfbench`` workloads at workload seeds 1
and 90210, and for the first 200 randomized adversary schedules of the test
suite (``scenarioutil.random_cases``, seed 208), it prints one line
``<workload> <seed> <label> <sha256>``, where the digest covers the
serialized trace followed by the run summary.

Usage:
    python scripts/output_digests.py > before.txt      # on the old tree
    python scripts/output_digests.py --compare before.txt

With ``--compare`` it lists the scenarios whose digest differs from (or is
missing in) the given file, prints how many differ, and exits 1 if any do.
"""

import argparse
import hashlib
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from dexo.harness import summarize  # noqa: E402
from dexo.netsim import run_scenario  # noqa: E402
from scenarioutil import random_cases  # noqa: E402
from workloads import build  # noqa: E402

WORKLOADS = ("sweep_honest", "adversary_suite", "tamper_scaling")
SEEDS = (1, 90210)
RANDOM_SCHEDULES = 200


def _digest(config, script) -> str:
    trace = run_scenario(config, script)
    return hashlib.sha256((trace.serialize() + summarize(trace)).encode()).hexdigest()


def digests() -> dict[str, str]:
    out = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            for scenario in build(workload, seed):
                out[f"{workload} {seed} {scenario.label}"] = _digest(
                    scenario.config, scenario.script
                )
    for case, (config, script) in enumerate(random_cases(RANDOM_SCHEDULES)):
        out[f"random_schedules 208 case={case},{script.name}"] = _digest(config, script)
    return out


def read_digests(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rsplit(" ", 1) for line in fh.read().splitlines() if line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="digests written earlier by this script")
    args = parser.parse_args()
    current = digests()
    if args.compare is None:
        for key, digest in current.items():
            print(key, digest)
        return 0
    recorded = read_digests(args.compare)
    differing = [k for k in current if recorded.get(k) != current[k]]
    differing += [k for k in recorded if k not in current]
    for key in differing:
        print(f"differs: {key}")
    print(f"{len(differing)} differing scenarios out of {len(current)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
