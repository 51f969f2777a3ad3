#!/usr/bin/env python3
"""Digest every output of every benchmark scenario, to show that a change
leaves traces, gas logs, contract dumps and summaries byte-identical.

For each scenario of the three ``perfbench`` workloads at workload seeds 1
and 90210, for the first 200 randomized adversary schedules of the test
suite (``scenarioutil.random_cases``, seed 208), for those schedules
redrawn under a full-range description that every garbage datum meets
(``scenarioutil.full_range_cases``), and for the generated schedules that
``AdversaryScript.validate`` admits from seeds 0-1999
(``scenarioutil.generated_schedule``: every role's actions, among them
refusing and corrupted consumers that buy), it prints one line
``<workload> <seed> <label> <outputs sha256> <hashes sha256> <log sha256>``.
The first digest covers the serialized trace without its version line and
without the payload hash column of its ``[events]`` lines, followed by the
run summary; the second covers that hash column alone. A change to how
payloads are hashed then moves only the second digest, and shows whether
anything else moved with it. The third covers the run's whole log
(``Trace.log``) in order:
the record type and every field of each message, note, dispute, contract
call and revert, so it also shows how calls, notes and reverts interleave
with messages.

Usage:
    python scripts/output_digests.py > before.txt      # on the old tree
    python scripts/output_digests.py --compare before.txt

With ``--compare`` it lists, part by part, the scenarios whose digest differs
from (or is missing in) the given file, prints how many differ in each part,
and exits 1 if any do.
"""

import argparse
import dataclasses
import hashlib
import os
import random
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from dexo.harness import summarize  # noqa: E402
from dexo.netsim import ScriptError, run_scenario  # noqa: E402
from scenarioutil import full_range_cases, generated_schedule, random_cases  # noqa: E402
from workloads import build  # noqa: E402

WORKLOADS = ("sweep_honest", "adversary_suite", "tamper_scaling")
SEEDS = (1, 90210)
RANDOM_SCHEDULES = 200
GENERATED_SEEDS = 2000
PARTS = ("outputs", "hashes", "log")


def _record(r) -> str:
    fields = (repr(getattr(r, f.name)) for f in dataclasses.fields(r))
    return " ".join([type(r).__name__, *fields])


def _digest(config, script) -> tuple[str, str, str]:
    trace = run_scenario(config, script)
    _, body = trace.serialize().split("\n", 1)  # the version line
    head, rest = body.split("[events]\n", 1)
    events, tail = rest.split("[gas]\n", 1)
    lines = [line.rsplit(" ", 1) for line in events.splitlines()]
    outputs = "".join((head, "[events]\n", *(f"{e}\n" for e, _ in lines), "[gas]\n", tail,
                       summarize(trace)))
    hashes = "".join(f"{h}\n" for _, h in lines)
    log = "".join(f"{_record(r)}\n" for r in trace.log)
    return tuple(hashlib.sha256(part.encode()).hexdigest() for part in (outputs, hashes, log))


def digests() -> dict[str, tuple[str, str, str]]:
    out = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            for scenario in build(workload, seed):
                out[f"{workload} {seed} {scenario.label}"] = _digest(
                    scenario.config, scenario.script
                )
    for case, (config, script) in enumerate(random_cases(RANDOM_SCHEDULES)):
        out[f"random_schedules 208 case={case},{script.name}"] = _digest(config, script)
    for case, config, script in full_range_cases(RANDOM_SCHEDULES):
        out[f"full_range_schedules 208 case={case},{script.name}"] = _digest(config, script)
    for seed in range(GENERATED_SEEDS):
        config, script = generated_schedule(random.Random(seed))
        try:
            script.validate(config)
        except ScriptError:
            continue
        out[f"generated_schedules {seed} {script.name}"] = _digest(config, script)
    return out


def read_digests(path: str) -> dict[str, tuple[str, str, str]]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rsplit(" ", len(PARTS)) for line in fh.read().splitlines() if line]
    return {key: tuple(parts) for key, *parts in rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="digests written earlier by this script")
    args = parser.parse_args()
    current = digests()
    if args.compare is None:
        for key, parts in current.items():
            print(key, *parts)
        return 0
    recorded = read_digests(args.compare)
    missing = (None,) * len(PARTS)
    any_differ = False
    for i, part in enumerate(PARTS):
        differing = [k for k in current if recorded.get(k, missing)[i] != current[k][i]]
        differing += [k for k in recorded if k not in current]
        for key in differing:
            print(f"{part} differ: {key}")
        print(f"{part}: {len(differing)} differing scenarios out of {len(current)}")
        any_differ = any_differ or bool(differing)
    return 1 if any_differ else 0


if __name__ == "__main__":
    sys.exit(main())
