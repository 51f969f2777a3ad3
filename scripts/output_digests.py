#!/usr/bin/env python3
"""Digest every output of every benchmark scenario, to show that a change
leaves traces, gas logs, contract dumps and summaries byte-identical.

For each scenario of the three ``perfbench`` workloads at workload seeds 1
and 90210, it prints one line
``<workload> <seed> <label> <outputs sha256> <hashes sha256> <log sha256>``.
The three parts are those of ``scenarioutil.output_digests``: the
serialized trace without its payload hash column, followed by the run
summary; that hash column alone, so a change to how payloads are hashed
moves only the second digest; and the run's whole log, record by record.
Only these families are digested here, because nothing else gates them:
the test suite's schedule families (``scenarioutil.suite_schedules``) are
compared against the committed ``tests/golden_digests.txt`` by
``tests/test_golden_digests.py`` on every tier-1 run.

Usage:
    python scripts/output_digests.py > before.txt      # on the old tree
    python scripts/output_digests.py --compare before.txt

With ``--compare`` it lists, part by part and in sorted order, the
scenarios whose digest differs from (or is missing in) the given file,
prints how many differ in each part, and exits 1 if any do.
"""

import argparse
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from dexo.netsim import run_scenario  # noqa: E402
from scenarioutil import (  # noqa: E402
    DIGEST_PARTS,
    changed_digests,
    format_digests,
    output_digests,
    read_digests,
)
from workloads import build  # noqa: E402

WORKLOADS = ("sweep_honest", "adversary_suite", "tamper_scaling")
SEEDS = (1, 90210)


def digests() -> dict[str, tuple[str, str, str]]:
    out = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            for scenario in build(workload, seed):
                out[f"{workload} {seed} {scenario.label}"] = output_digests(
                    run_scenario(scenario.config, scenario.script)
                )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="digests written earlier by this script")
    args = parser.parse_args()
    current = digests()
    if args.compare is None:
        sys.stdout.write(format_digests(current))
        return 0
    changes = changed_digests(read_digests(args.compare), current)
    for part in DIGEST_PARTS:
        differing = [label for label, p in changes if p == part]
        for label in differing:
            print(f"{part} differ: {label}")
        print(f"{part}: {len(differing)} differing scenarios out of {len(current)}")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
