"""Dispute outcomes pinned byte for byte: gas log, terminal state (balances and
contract dump), dispute log, refunded sessions and finish reason of every
standard script, of TAMPER_SHARES at N=13, and of the first randomized
adversary cases. Event payload hashes are not pinned, so the off-chain
message contents may change while everything the contract sees may not.

Regenerate (only when an on-chain change is intended) with:
    PYTHONPATH=src python tests/test_dispute_golden.py
"""

import json
from pathlib import Path

from dexo.config import ScenarioConfig
from dexo.netsim import Trace, run_scenario
from scenarioutil import random_cases, suite_config
from test_acceptance import SUITE_EXPECTATIONS

GOLDEN = Path(__file__).parent / "golden_dispute_outcomes.json"
RANDOM_CASES = 30


def dispute_runs():
    """(label, config, script or None) for every pinned run."""
    for name in SUITE_EXPECTATIONS:
        for seed in range(300, 305):
            cfg = suite_config(
                adversary=name, seed=seed, shared_key=(name == "SHARED_KEY_LEAK")
            )
            yield f"{name} seed={seed}", cfg, None
    for seed in (11, 12):
        cfg = ScenarioConfig(
            n_nodes=13, threshold=7, max_faulty=6, providers=3,
            datum_size_bytes=8, value_min=0, value_max=100,
            adversary="TAMPER_SHARES", seed=seed,
        )
        yield f"TAMPER_SHARES n=13 seed={seed}", cfg, None
    # the same draws as test_atomicity_and_replay_over_randomized_runs
    for case, (cfg, script) in enumerate(random_cases(RANDOM_CASES)):
        yield f"random case {case}", cfg, script


def outcome_record(trace: Trace) -> dict:
    o = trace.outcome
    return {
        "gas_csv": trace.gas_csv,
        "terminal": trace.terminal,
        "disputes": list(o.disputes),
        "refunded_sessions": list(o.refunded_sessions),
        "finished_reason": o.finished_reason,
    }


def record_all() -> dict:
    return {
        label: outcome_record(run_scenario(cfg, script))
        for label, cfg, script in dispute_runs()
    }


def test_dispute_outcomes_match_golden():
    golden = json.loads(GOLDEN.read_text())
    fresh = record_all()
    assert fresh.keys() == golden.keys()
    for label, expected in golden.items():
        for field, value in expected.items():
            assert fresh[label][field] == value, f"{label}: {field} differs"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
