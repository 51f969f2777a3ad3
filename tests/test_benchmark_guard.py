"""The benchmark in ``perfbench/`` still runs against the current code.

The benchmark checks the outcome of every scenario it times, and its layer
tracer rebinds dexo's functions by name, so a changed outcome or a renamed
function makes a benchmark run fail. This test only reads ``perfbench/``:
the first scenario of ``sweep_honest`` and ``tamper_scaling`` and one run
of each adversary script pass the benchmark's own checks and replay, and
the tracer finds every target and puts every binding back.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layertrace  # noqa: E402
import workloads  # noqa: E402

from dexo import harness, netsim  # noqa: E402

SEED = 1  # the benchmark's default workload seed

GUARDED = (
    workloads.build("sweep_honest", SEED)[:1]
    + workloads.build("tamper_scaling", SEED)[:1]
    + workloads.build("adversary_suite", SEED)[: len(workloads.SUITE_OUTCOMES)]
)


@pytest.mark.parametrize("scenario", GUARDED, ids=lambda s: s.label)
def test_benchmark_scenario_passes_its_check_and_replays(scenario):
    trace = harness.run_scenario(scenario.config, scenario.script)
    workloads.check(scenario, trace)
    assert netsim.replay(trace)


def _bindings() -> dict:
    """Every name bound in a dexo module, and every traced method."""
    found = {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "dexo" or name.startswith("dexo.")
        for key, value in vars(module).items()
    }
    for _, module, cls, method in layertrace.METHOD_TARGETS:
        found[cls, method] = vars(getattr(sys.modules[module], cls))[method]
    return found


def test_layer_tracer_resolves_every_target_and_restores_it():
    for name in layertrace.TARGET_MODULES:
        importlib.import_module(name)
    before = _bindings()
    with layertrace.Tracer():
        for _, module, attr in layertrace.FUNCTION_TARGETS:
            assert getattr(sys.modules[module], attr) is not before[module, attr]
        for _, module, cls, method in layertrace.METHOD_TARGETS:
            assert vars(getattr(sys.modules[module], cls))[method] is not before[cls, method]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
