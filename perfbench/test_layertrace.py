"""Self-test of the outside-in tracer on honest runs.

Run with: python3 -m pytest perfbench -q
"""

import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from dexo import netsim  # noqa: E402
from dexo.config import ScenarioConfig  # noqa: E402
from dexo.harness import valid_fault_bound  # noqa: E402

from layertrace import TARGET_MODULES, Tracer  # noqa: E402

HONEST = [(5, 3, 3), (10, 6, 7)]  # (N, t, M)


def honest_config(n: int, t: int, m: int) -> ScenarioConfig:
    return ScenarioConfig(
        n_nodes=n, threshold=t, max_faulty=valid_fault_bound(n, t), providers=m,
        value_max=100, seed=17,
    )


def bindings() -> dict:
    return {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "dexo" or name.startswith("dexo.")
        for key, value in vars(module).items()
        if callable(value)
    }


@pytest.mark.parametrize("n,t,m", HONEST)
def test_counts_match_the_protocol(n, t, m):
    with Tracer() as tracer:
        trace = netsim.run_scenario(honest_config(n, t, m))
    assert tracer.calls("crypto.verify") == n * m
    assert tracer.calls("crypto.sign") == n * m + 2 * m
    ledger_calls = tracer.calls("ledger") - tracer.calls("ledger.settle_timeouts")
    assert ledger_calls == trace.outcome.total_calls
    assert tracer.calls("netsim.send") == len(trace.events)
    assert tracer.calls_from("crypto.reconstruct", "dexo.participants") == m


@pytest.mark.parametrize("n,t,m", HONEST)
def test_tracing_leaves_outputs_byte_identical(n, t, m):
    config = honest_config(n, t, m)
    plain = netsim.run_scenario(config)
    with Tracer():
        traced = netsim.run_scenario(config)
    assert traced.serialize() == plain.serialize()
    assert traced.gas_csv == plain.gas_csv


def test_from_imports_are_rebound_and_restored():
    for name in TARGET_MODULES:
        importlib.import_module(name)
    from dexo import crypto, participants, tee

    originals = [
        crypto.shamir.reconstruct,
        crypto.shamir.evaluate_at,
        crypto.primitives.sign,
        crypto.primitives.sha256,
        participants.Consumer.__dict__["on_tick"],
    ]
    before = bindings()
    with Tracer():
        rebound = [
            participants.reconstruct,
            participants.evaluate_at,
            tee.sign,
            crypto.merkle.sha256,
            participants.Consumer.__dict__["on_tick"],
        ]
        assert all(new is not old for new, old in zip(rebound, originals))
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert participants.Consumer.__dict__["on_tick"] is originals[-1]


def test_self_times_sum_to_the_root_span():
    with Tracer() as tracer:
        netsim.run_scenario(honest_config(5, 3, 3))
    root = tracer.inclusive_time("harness.run_scenario")
    assert tracer.span_count() > 0
    assert tracer.total_self() == pytest.approx(root, rel=1e-9)
