"""Benchmark workloads: scenario lists derived from a seed, and the
correctness check each scenario's outcome must pass.

A workload is a fixed list of scenarios; one pass runs them serially as a
closed loop (each scenario starts after the previous one finished). Scenario
seeds come from the workload seed, so the same seed gives the same pass.
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass

from dexo import netsim
from dexo.config import ScenarioConfig
from dexo.harness import family_configs
from dexo.netsim import AdversaryScript, Trace, standard_scripts

HERE = os.path.dirname(os.path.abspath(__file__))

# acceptance cost family: M=60 providers, 100 B per user
SWEEP_N = (5, 10, 20, 30, 40, 50)
SWEEP_PROVIDERS = 60
SWEEP_DATUM = 100

# adversary suite config of the acceptance gate, 40 seeds per script
SUITE_SEEDS = 40

# TAMPER_SHARES at t=(N+1)/2, F=t-1; N=19 takes 20 s+ and N=25 never ends
TAMPER_RUNS = ((13, 4), (15, 4))  # (N, seeds)

# terminal outcome of every standard script at the suite config:
# (finished_reason, reconstruction_valid, refunded sessions, paid sessions,
# dispute count); constant over seeds
SUITE_OUTCOMES = {
    "HONEST": ("settled", True, (), 4, 0),
    "WITHHOLD_KEYS": ("settled", True, (1, 2, 3), 7, 0),
    "TAMPER_SHARES": ("settled", True, (1, 2, 3), 7, 1),
    "SOURCE_NODE_COLLUSION": ("aborted-by-dispute", False, (1, 2, 3, 4, 5, 6, 7), 7, 1),
    "CONSUMER_NODE_COLLUSION": ("refused-payment", False, (), 0, 0),
    "SHARED_KEY_LEAK": ("refused-payment", False, (), 0, 0),
    "SERVER_PERMUTE": ("settled", True, (), 4, 2),
    "TAMPERED_TEE_PROVIDER": ("listing-never-initialized", False, (), 0, 0),
}


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Scenario:
    label: str
    config: ScenarioConfig
    script: AdversaryScript
    replay: bool  # re-execute and compare the serialized trace byte for byte
    check: str  # "honest", "suite" or "tamper"


def gas_key(config: ScenarioConfig) -> str:
    return (f"{config.n_nodes},{config.threshold},{config.providers},"
            f"{config.datum_size_bytes}")


@functools.cache
def expected_gas() -> dict[str, int]:
    """Recorded honest gas per ``gas_key``; gas does not depend on the seed."""
    with open(os.path.join(HERE, "expected_gas.json")) as fh:
        return json.load(fh)


def suite_config(adversary: str, seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        n_nodes=7, threshold=4, max_faulty=3, providers=3,
        datum_size_bytes=8, value_min=0, value_max=100, timeout_blocks=10,
        adversary=adversary, shared_key=(adversary == "SHARED_KEY_LEAK"),
        seed=seed,
    )


def tamper_config(n: int, seed: int) -> ScenarioConfig:
    t = (n + 1) // 2
    return ScenarioConfig(
        n_nodes=n, threshold=t, max_faulty=t - 1, providers=3,
        datum_size_bytes=8, value_min=0, value_max=100,
        adversary="TAMPER_SHARES", seed=seed,
    )


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**32) for _ in range(count)]


def build(workload: str, seed: int) -> list[Scenario]:
    """The scenarios of one pass of ``workload`` under workload seed ``seed``.

    Every adversary-suite run is replayed; the other workloads replay only
    their first (smallest) scenario, as a determinism check.
    """
    if workload == "sweep_honest":
        grid = [(rule, n) for rule in ("half", "two_thirds") for n in SWEEP_N]
        scenarios = []
        for (rule, n), s in zip(grid, _seeds(workload, seed, len(grid))):
            [(label, config)] = family_configs(
                [n], rule, SWEEP_PROVIDERS, SWEEP_DATUM, seed=s
            )
            script = netsim.resolve_script(config)
            scenarios.append(Scenario(label, config, script, not scenarios, "honest"))
        return scenarios
    if workload == "adversary_suite":
        scenarios = []
        for s in _seeds(workload, seed, SUITE_SEEDS):
            for name in SUITE_OUTCOMES:
                config = suite_config(name, s)
                script = standard_scripts(config)[name]
                scenarios.append(
                    Scenario(f"{name},seed={s}", config, script, True, "suite")
                )
        return scenarios
    if workload == "tamper_scaling":
        scenarios = []
        for n, count in TAMPER_RUNS:
            for s in _seeds(f"{workload}:{n}", seed, count):
                config = tamper_config(n, s)
                script = standard_scripts(config)["TAMPER_SHARES"]
                scenarios.append(
                    Scenario(f"n={n},seed={s}", config, script, not scenarios, "tamper")
                )
        return scenarios
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- checks


def block_height(trace: Trace) -> int:
    first = trace.terminal.split("\n", 1)[0]
    key, _, value = first.partition("=")
    if key != "block_height":
        raise CheckFailed(f"terminal state does not start with block_height: {first!r}")
    return int(value)


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def _common(trace: Trace) -> None:
    """Fair exchange and conservation, as the acceptance gate states them."""
    o, cfg = trace.outcome, trace.config
    _require(o.escrow_left == 0, f"escrow left behind: {o.escrow_left}")
    price = cfg.resolved_price()
    spent = o.paid_sessions * (price // cfg.n_nodes)
    _require(o.paid_out + o.refund_to_buyer + price - spent == price, "currency leak")
    if o.reconstruction_valid:
        _require(o.paid_out > 0, "buyer obtained data yet nobody was paid")
    else:
        _require(o.paid_out == 0, "providers paid without valid data")


def check(scenario: Scenario, trace: Trace) -> None:
    """Raise :class:`CheckFailed` unless the outcome is the expected one."""
    o, cfg = trace.outcome, trace.config
    _common(trace)
    if scenario.check == "honest":
        n, t = cfg.n_nodes, cfg.threshold
        _require(o.exchange_calls == 3 * n + 3 * t + 2,
                 f"{o.exchange_calls} exchange calls, law says {3 * n + 3 * t + 2}")
        _require(o.reconstruction_valid and o.reconstructed == o.expected,
                 "reconstruction differs from the device output")
        expected = expected_gas().get(gas_key(cfg))
        _require(o.gas_total == expected, f"gas {o.gas_total}, recorded {expected}")
    elif scenario.check == "suite":
        reason, valid, refunded, paid, disputes = SUITE_OUTCOMES[scenario.script.name]
        _require(
            (o.finished_reason, o.reconstruction_valid, tuple(o.refunded_sessions),
             o.paid_sessions, len(o.disputes)) == (reason, valid, refunded, paid, disputes),
            f"outcome {o.finished_reason}/{o.reconstruction_valid}/"
            f"{o.refunded_sessions}/{o.paid_sessions}/{len(o.disputes)}",
        )
        if valid:
            _require(o.reconstructed == o.expected, "reconstruction differs")
        name = scenario.script.name
        if name == "SOURCE_NODE_COLLUSION":
            _require(o.paid_out == 0 and o.refund_to_buyer == o.paid_sessions * 100,
                     "source collusion not fully refunded")
        if name == "CONSUMER_NODE_COLLUSION":
            _require(max(o.coalition_max.values()) <= cfg.threshold - 1,
                     "coalition reached the threshold")
        if name == "SHARED_KEY_LEAK":
            _require(set(o.coalition_max.values()) == {cfg.threshold - 1},
                     "coalition share count is not t-1")
        if name == "SERVER_PERMUTE":
            _require(any("accepted=False" in d for d in o.disputes),
                     "mislabel probe was not rejected")
    elif scenario.check == "tamper":
        corrupted = set(range(1, cfg.max_faulty + 1))
        _require(o.reconstruction_valid and o.reconstructed == o.expected,
                 "no valid reconstruction")
        _require(set(o.refunded_sessions) <= corrupted,
                 f"refund against an honest node: {o.refunded_sessions}")
    else:
        raise ValueError(f"unknown check {scenario.check!r}")
