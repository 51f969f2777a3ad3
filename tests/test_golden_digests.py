"""Byte-identity and fairness of every schedule the suite defines, from one
run of each: the one golden of whole-run outputs, and the fairness oracle.

For each run of ``scenarioutil.suite_schedules`` (2,140 runs: 200 random
schedules, those of them a full-range description admits, the admitted
generated schedules of seeds 0-1999, the eight standard scripts at the
suite config and seeds 0, 1 and 300-304, the unmerged-query and shared-key
honest flows, and ``TAMPER_SHARES`` at N=13) ``golden_digests.txt`` holds
one line ``<label> <outputs> <hashes> <log>``: the first 16 hex digits of
each of the three digests of ``scenarioutil.output_digests``. A change that
moves any trace (messages, gas log, terminal balances and contract dump),
summary (disputes, anomalies, reverts, refunds, finish reason), payload
hash or run-log record of any of these runs fails here, named by scenario
and part. Payload hashes have a part of their own, so a change to
off-chain message contents moves ``hashes`` and leaves ``outputs`` as it is.

The same run's end state is checked by ``scenarioutil.fairness_problems``:
currency conserved, no escrow left, no node outside the script's corrupted
set refunded unless a case-1 ruling was accepted, and settled data equal to
the devices'. A failure names each unfair scenario and what broke.

The digests came out identical under CPython 3.11.7 (``cryptography``
48.0.0) and 3.13.13 (``cryptography`` 45.0.7). Python 3.10 is unverified.

Regenerate (only when a change to run output is intended) with:
    PYTHONPATH=src python tests/test_golden_digests.py
It prints every label and part whose digest changed, so the size of a
re-record is visible, and then every fairness problem, so a moved run that
stopped being fair is visible too.
"""

from functools import cache
from pathlib import Path

from dexo.netsim import run_scenario
from scenarioutil import (
    changed_digests,
    fairness_problems,
    format_digests,
    output_digests,
    read_digests,
    suite_schedules,
)

GOLDEN = Path(__file__).parent / "golden_digests.txt"
PREFIX = 16


@cache
def run_all() -> dict[str, tuple[tuple[str, ...], list[str]]]:
    """{label: (digests, fairness problems)}, from one run of each schedule."""
    results = {}
    for label, config, script in suite_schedules():
        trace = run_scenario(config, script)
        digests = tuple(d[:PREFIX] for d in output_digests(trace))
        results[label] = digests, fairness_problems(trace, script)
    return results


def changed(old: dict, new: dict) -> list[str]:
    return [f"{label}: {part} changed" for label, part in changed_digests(old, new)]


def recorded() -> dict[str, tuple[str, ...]]:
    return {label: digests for label, (digests, _) in run_all().items()}


def problems() -> list[str]:
    return [f"{label}: {problem}" for label, (_, found) in run_all().items()
            for problem in found]


def test_every_suite_schedule_matches_its_golden_digests():
    golden = read_digests(GOLDEN)
    assert len(golden) == 2140
    differing = changed(golden, recorded())
    assert not differing, f"{len(differing)} digests differ:\n" + "\n".join(differing)


def test_every_suite_schedule_ends_fair():
    unfair = problems()
    assert not unfair, f"{len(unfair)} fairness problems:\n" + "\n".join(unfair)


if __name__ == "__main__":
    old = read_digests(GOLDEN) if GOLDEN.exists() else {}
    new = recorded()
    GOLDEN.write_text(format_digests(new))
    for line in changed(old, new) + problems():
        print(line)
    print(f"wrote {GOLDEN}")
