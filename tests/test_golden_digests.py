"""Byte-identity of every schedule the suite defines, pinned by digest.

For each run of ``scenarioutil.suite_schedules`` (200 random schedules,
those of them a full-range description admits, and the admitted generated
schedules of seeds 0-1999: 2,080 runs) ``golden_digests.txt`` holds one line
``<label> <outputs> <hashes> <log>``: the first 16 hex digits of each of the
three digests of ``scenarioutil.output_digests``. A change that moves any
trace, gas log, contract dump, summary, payload hash or run-log record of
any of these runs fails here, named by scenario and part.

The digests came out identical under CPython 3.11.7 (``cryptography``
48.0.0) and 3.13.13 (``cryptography`` 45.0.7). Python 3.10 is unverified.

Regenerate (only when a change to run output is intended) with:
    PYTHONPATH=src python tests/test_golden_digests.py
It prints every label and part whose digest changed, so the size of a
re-record is visible.
"""

from pathlib import Path

from scenarioutil import DIGEST_PARTS, output_digests, suite_schedules

GOLDEN = Path(__file__).parent / "golden_digests.txt"
PREFIX = 16


def record_all() -> dict[str, tuple[str, ...]]:
    return {
        label: tuple(d[:PREFIX] for d in output_digests(config, script))
        for label, config, script in suite_schedules()
    }


def read_golden() -> dict[str, tuple[str, ...]]:
    rows = [line.rsplit(" ", len(DIGEST_PARTS)) for line in GOLDEN.read_text().splitlines()]
    return {label: tuple(parts) for label, *parts in rows}


def changed(old: dict, new: dict) -> list[str]:
    """One line per label and part whose digest differs between two
    recordings; a label only one of them holds differs in every part."""
    missing = (None,) * len(DIGEST_PARTS)
    return [
        f"{label}: {part} changed"
        for label in sorted(old.keys() | new.keys())
        for i, part in enumerate(DIGEST_PARTS)
        if old.get(label, missing)[i] != new.get(label, missing)[i]
    ]


def test_every_suite_schedule_matches_its_golden_digests():
    golden = read_golden()
    assert len(golden) == 2080
    differing = changed(golden, record_all())
    assert not differing, f"{len(differing)} digests differ:\n" + "\n".join(differing)


if __name__ == "__main__":
    old = read_golden() if GOLDEN.exists() else {}
    new = record_all()
    GOLDEN.write_text("".join(f"{label} {' '.join(parts)}\n" for label, parts in new.items()))
    for line in changed(old, new):
        print(line)
    print(f"wrote {GOLDEN}")
