"""Adversarial gate at the paper's scale: every standard script at N=25,
t=13, F=12, M=3 over three seeds, and TAMPER_SHARES at N=19, each ending in
its mandated outcome within a wall bound. The consumer identifies faulty
nodes by share authentication, so no script's cost may grow
combinatorially in N.
"""

import time

from dexo import participants
from dexo.config import ScenarioConfig
from dexo.netsim import Trace, replay, run_scenario
from scenarioutil import assert_conserved, assert_fair_exchange
from test_acceptance import SUITE_EXPECTATIONS

# measured at about 2 s (8 scripts x 3 seeds, each replayed) and 0.05 s
# (TAMPER_SHARES at N=19) on a 2-core host; a subset search over the nodes
# needs about 20 s for the N=19 run alone
SUITE_BOUND_S = 6.0
TAMPER_BOUND_S = 1.0


def paper_config(**overrides) -> ScenarioConfig:
    params = dict(
        n_nodes=25, threshold=13, max_faulty=12, providers=3,
        datum_size_bytes=8, value_min=0, value_max=100, timeout_blocks=10,
    )
    params.update(overrides)
    return ScenarioConfig(**params)


def tamper_config(n: int, seed: int) -> ScenarioConfig:
    t = (n + 1) // 2
    return paper_config(n_nodes=n, threshold=t, max_faulty=t - 1,
                        adversary="TAMPER_SHARES", seed=seed)


def check_expectation(trace: Trace, expect: dict, label: str) -> None:
    """The per-script outcome checks of the acceptance suite."""
    o, cfg = trace.outcome, trace.config
    corrupted = set(range(1, cfg.max_faulty + 1))
    assert_fair_exchange(trace)
    assert_conserved(trace)
    assert o.reconstruction_valid == expect["valid"], label
    if expect["valid"]:
        assert o.reconstructed == o.expected, label
        assert set(o.refunded_sessions) <= corrupted, label
        assert bool(o.refunded_sessions) == expect["refunds"], label
    if expect.get("full_refund"):
        assert o.paid_out == 0 and o.refund_to_buyer > 0, label
        assert o.refund_to_buyer == o.paid_sessions * 100, label
    if expect.get("coalition_below"):
        assert max(o.coalition_max.values()) <= cfg.threshold - 1, label
    if expect.get("coalition_exact"):
        assert set(o.coalition_max.values()) == {cfg.threshold - 1}, label
    if expect.get("probe_rejected"):
        assert any("accepted=False" in d for d in o.disputes), label
        assert not o.refunded_sessions, label
    if expect.get("no_exchange"):
        assert o.paid_sessions == 0 and o.paid_out == 0, label


def test_adversarial_suite_at_paper_scale():
    start = time.perf_counter()
    for name, expect in SUITE_EXPECTATIONS.items():
        for seed in (900, 901, 902):
            cfg = paper_config(adversary=name, seed=seed,
                               shared_key=(name == "SHARED_KEY_LEAK"))
            trace = run_scenario(cfg)
            label = f"{name} seed={seed}"
            check_expectation(trace, expect, label)
            assert replay(trace), label
    elapsed = time.perf_counter() - start
    assert elapsed < SUITE_BOUND_S, f"paper-scale suite took {elapsed:.1f}s"


def test_tamper_shares_at_n19_is_fast():
    cfg = tamper_config(19, seed=903)
    start = time.perf_counter()
    trace = run_scenario(cfg)
    elapsed = time.perf_counter() - start
    check_expectation(trace, SUITE_EXPECTATIONS["TAMPER_SHARES"], "TAMPER_SHARES n=19")
    assert elapsed < TAMPER_BOUND_S, f"TAMPER_SHARES at N=19 took {elapsed:.2f}s"


def test_tamper_shares_reconstructs_linearly(monkeypatch):
    """Fault identification costs no subset search: at N=15 the consumer
    reconstructs at most 2M + N times.
    """
    calls = []
    original = participants.reconstruct

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(participants, "reconstruct", counting)
    cfg = tamper_config(15, seed=904)
    trace = run_scenario(cfg)
    assert trace.outcome.reconstruction_valid
    assert len(calls) <= 2 * cfg.providers + cfg.n_nodes, len(calls)
