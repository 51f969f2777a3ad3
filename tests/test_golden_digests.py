"""Byte-identity of every schedule the suite defines, pinned by digest: the
one golden of whole-run outputs.

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

The digests came out identical under CPython 3.11.7 (``cryptography``
48.0.0) and 3.13.13 (``cryptography`` 45.0.7). Python 3.10 is unverified.

Regenerate (only when a change to run output is intended) with:
    PYTHONPATH=src python tests/test_golden_digests.py
It prints every label and part whose digest changed, so the size of a
re-record is visible.
"""

from pathlib import Path

from scenarioutil import (
    changed_digests,
    format_digests,
    output_digests,
    read_digests,
    suite_schedules,
)

GOLDEN = Path(__file__).parent / "golden_digests.txt"
PREFIX = 16


def record_all() -> dict[str, tuple[str, ...]]:
    return {
        label: tuple(d[:PREFIX] for d in output_digests(config, script))
        for label, config, script in suite_schedules()
    }


def changed(old: dict, new: dict) -> list[str]:
    return [f"{label}: {part} changed" for label, part in changed_digests(old, new)]


def test_every_suite_schedule_matches_its_golden_digests():
    golden = read_digests(GOLDEN)
    assert len(golden) == 2140
    differing = changed(golden, record_all())
    assert not differing, f"{len(differing)} digests differ:\n" + "\n".join(differing)


if __name__ == "__main__":
    old = read_digests(GOLDEN) if GOLDEN.exists() else {}
    new = record_all()
    GOLDEN.write_text(format_digests(new))
    for line in changed(old, new):
        print(line)
    print(f"wrote {GOLDEN}")
