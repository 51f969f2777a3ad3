"""Whole-run outputs pinned by digest: the sha256 of ``Trace.serialize()``
(message trace, gas log, terminal state) and of ``harness.summarize()``
(disputes, anomalies, counts) for every standard script at the suite config
and for the unmerged-query and shared-key honest flows. Unlike the dispute
golden, this covers message payload hashes and the anomaly notes.

Regenerate (only when a change to run output is intended) with:
    PYTHONPATH=src python tests/test_trace_golden.py
It prints every label whose ``serialize`` or ``summarize`` digest changed,
so the size of a re-record is visible.
"""

import hashlib
import json
from pathlib import Path

from dexo.harness import summarize
from dexo.netsim import run_scenario
from scenarioutil import suite_config
from test_acceptance import SUITE_EXPECTATIONS

GOLDEN = Path(__file__).parent / "golden_traces.json"


def golden_runs():
    """(label, config) for every pinned run."""
    for name in SUITE_EXPECTATIONS:
        for seed in (0, 1):
            yield f"{name} seed={seed}", suite_config(
                adversary=name, seed=seed, shared_key=(name == "SHARED_KEY_LEAK")
            )
    yield "HONEST unmerged", suite_config(merged_query=False, seed=2)
    yield "HONEST shared_key n=10", suite_config(
        n_nodes=10, threshold=6, max_faulty=4, shared_key=True, seed=6
    )


def digests(config) -> dict:
    trace = run_scenario(config)
    return {
        "serialize": hashlib.sha256(trace.serialize().encode()).hexdigest(),
        "summarize": hashlib.sha256(summarize(trace).encode()).hexdigest(),
    }


def record_all() -> dict:
    return {label: digests(config) for label, config in golden_runs()}


def test_trace_and_summary_match_golden():
    golden = json.loads(GOLDEN.read_text())
    fresh = record_all()
    assert fresh.keys() == golden.keys()
    for label, expected in golden.items():
        assert fresh[label] == expected, f"{label}: output differs"


def changed_labels(old: dict, new: dict) -> list[str]:
    """One line per label and digest that differs between two recordings."""
    return [
        f"{label}: {kind} changed"
        for label in sorted(old.keys() | new.keys())
        for kind in ("serialize", "summarize")
        if old.get(label, {}).get(kind) != new.get(label, {}).get(kind)
    ]


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = record_all()
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    for line in changed_labels(old, new):
        print(line)
    print(f"wrote {GOLDEN}")
