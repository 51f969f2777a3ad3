"""Whole-protocol behavior per stage and per adversary script."""

import random

import pytest

from dexo import tee
from dexo.config import ScenarioConfig
from dexo.ledger import Ledger, SessionStatus
from dexo.netsim import (
    AdversaryScript,
    CoalitionMonitor,
    Rule,
    Simulator,
    run_scenario,
    standard_scripts,
)
from dexo.participants import (
    stage0_setup,
    stage1_produce,
    stage2_register,
    stage3_exchange,
)
from scenarioutil import assert_conserved, assert_fair_exchange, suite_config


def _staged_run(config: ScenarioConfig, script: AdversaryScript | None = None):
    """Drive the stages by hand so tests can inspect participant internals."""
    script = script or standard_scripts(config)[config.adversary]
    script.validate(config)
    rng = random.Random(config.seed)
    sessions = config.max_faulty + 1 if config.shared_key else config.threshold
    sim = Simulator(Ledger(), rng, CoalitionMonitor(config.threshold, sessions))
    setup = stage0_setup(sim, config, script)
    stage1_produce(sim, setup)
    stage2_register(sim, setup)
    stage3_exchange(sim, setup)
    return sim, setup


# ---------------------------------------------------------------- stages


def test_stage1_every_node_holds_one_share_per_provider():
    sim, setup = _staged_run(suite_config(providers=2, n_nodes=3, threshold=2,
                                          max_faulty=1))
    for node in setup.nodes.values():
        assert sorted(node.received) == [1, 2]
        for provider, (share, report, _) in node.received.items():
            assert share.provider_index == provider
            assert share.node_index == node.index
            assert tee.attest_report(setup.registry, report)


def test_server_retains_no_shares():
    sim, setup = _staged_run(suite_config())
    assert setup.server.retained_shares == {}
    assert setup.server.forwarded == 7 * 3


def test_honest_reconstruction_matches_device_output():
    sim, setup = _staged_run(suite_config(seed=21))
    for device in setup.devices:
        expected = tee.preprocess(device.raw, device.rule)
        assert setup.consumer.reconstructed[device.provider_index] == expected


def test_priority_group_members_share_one_commitment():
    config = suite_config(n_nodes=10, threshold=6, max_faulty=4, shared_key=True)
    sim, setup = _staged_run(config)
    contract = sim.ledger.contracts[setup.cid]
    group = setup.priority_group
    assert group == [1, 2]
    assert contract.commitment[1] == contract.commitment[2]
    coms = {contract.commitment[j].digest for j in range(3, 11)}
    assert len(coms) == 8  # outside the group, every commitment is distinct


def test_tampered_device_blocks_registration():
    config = suite_config(adversary="TAMPERED_TEE_PROVIDER")
    sim, setup = _staged_run(config)
    assert all(node.attestation_failed for node in setup.nodes.values())
    assert all(not node.initialized for node in setup.nodes.values())
    assert setup.consumer.finished_reason == "listing-never-initialized"
    assert sim.ledger.conservation_total() == sim.ledger.minted


# ---------------------------------------------------------------- honest runs


def test_honest_call_count_formula():
    for n, t in [(5, 3), (7, 4), (10, 6)]:
        f = min(t - 1, n - t, (n - 1) // 2)
        cfg = ScenarioConfig(n_nodes=n, threshold=t, max_faulty=f, providers=2,
                             value_max=100, seed=3)
        outcome = run_scenario(cfg).outcome
        assert outcome.exchange_calls == 3 * n + 3 * t + 2
        assert outcome.total_calls == 3 * n + 3 * t + 3  # plus settlement


def test_honest_call_count_independent_of_providers():
    counts = set()
    for m in (1, 5, 20):
        cfg = suite_config(providers=m, seed=4)
        counts.add(run_scenario(cfg).outcome.exchange_calls)
    assert counts == {3 * 7 + 3 * 4 + 2}


def test_unmerged_query_uses_one_call_per_node():
    merged = run_scenario(suite_config(seed=5)).outcome
    unmerged = run_scenario(suite_config(seed=5, merged_query=False)).outcome
    assert unmerged.exchange_calls == merged.exchange_calls + (7 - 1)
    assert unmerged.reconstruction_valid


def test_shared_key_reduces_sessions():
    cfg = suite_config(n_nodes=10, threshold=6, max_faulty=4, shared_key=True, seed=6)
    outcome = run_scenario(cfg).outcome
    assert outcome.paid_sessions == 4 + 1
    assert outcome.exchange_calls == 3 * 10 + 3 * 5 + 2
    assert outcome.reconstruction_valid


# ---------------------------------------------------------------- adversaries


def test_withhold_keys_recovers_and_refunds():
    trace = run_scenario(suite_config(adversary="WITHHOLD_KEYS", seed=8))
    o = trace.outcome
    assert o.reconstruction_valid
    assert o.refunded_sessions == (1, 2, 3)
    assert set(o.settled_sessions) == {4, 5, 6, 7}
    assert o.refund_to_buyer == 3 * 100
    assert_fair_exchange(trace)
    assert_conserved(trace)


def test_wrong_key_behaves_like_withholding():
    script = AdversaryScript(
        name="WRONG_KEY",
        corrupted_nodes=frozenset({1}),
        rules=(Rule("stage3_reveal", "wrong_key"),),
    )
    trace = run_scenario(suite_config(seed=9), script)
    o = trace.outcome
    assert o.reconstruction_valid
    assert 1 in o.refunded_sessions
    assert any("bad key" in a for a in o.anomalies)
    assert_fair_exchange(trace)


def test_tamper_shares_disputed_and_flagged():
    trace = run_scenario(suite_config(adversary="TAMPER_SHARES", seed=10))
    o = trace.outcome
    assert o.reconstruction_valid
    assert o.refunded_sessions == (1, 2, 3)
    assert any("case2" in d and "accepted=True" in d for d in o.disputes)
    assert_fair_exchange(trace)


def test_tamper_never_refunds_honest_nodes():
    for seed in range(5):
        trace = run_scenario(suite_config(adversary="TAMPER_SHARES", seed=seed))
        assert set(trace.outcome.refunded_sessions) <= {1, 2, 3}


def test_unauthenticated_consistent_node_is_never_refunded():
    """A node whose openings blob is unreadable cannot authenticate its
    shares, so the consumer accuses it; the contract rejects the accusation
    because its shares are consistent, and only the tampering nodes lose.
    """
    config = suite_config(seed=17)
    script = AdversaryScript(
        name="TAMPER_TWO_GARBLE_ONE",
        corrupted_nodes=frozenset({1, 2, 3}),
        rules=(Rule("stage2_commit", "substitute_share", 1),
               Rule("stage2_commit", "substitute_share", 2)),
    )
    sim = Simulator(Ledger(), random.Random(config.seed),
                    CoalitionMonitor(config.threshold, config.threshold))
    setup = stage0_setup(sim, config, script)
    stage1_produce(sim, setup)
    stage2_register(sim, setup)
    setup.nodes[3].openings = b"garbled"
    stage3_exchange(sim, setup)
    consumer = setup.consumer
    assert consumer.reconstruction_valid
    assert consumer.sessions_in_state("REFUNDED", sim.ledger) == (1, 2)
    assert consumer.dispute_log[0] == "case2 provider 1: accepted=True refunded=[1, 2]"
    assert all("accepted=False" in d for d in consumer.dispute_log[1:])


def test_source_collusion_full_refund():
    trace = run_scenario(suite_config(adversary="SOURCE_NODE_COLLUSION", seed=11))
    o = trace.outcome
    assert not o.reconstruction_valid
    assert o.paid_out == 0
    assert o.refund_to_buyer == o.paid_sessions * 100
    assert any("case1" in d and "accepted=True" in d for d in o.disputes)
    assert_fair_exchange(trace)


def test_consumer_collusion_cannot_reconstruct():
    trace = run_scenario(suite_config(adversary="CONSUMER_NODE_COLLUSION", seed=12))
    o = trace.outcome
    assert o.paid_sessions == 0
    assert o.paid_out == 0
    assert max(o.coalition_max.values()) <= suite_config().threshold - 1
    assert_fair_exchange(trace)


def test_shared_key_leak_bounded_at_t_minus_1():
    cfg = suite_config(adversary="SHARED_KEY_LEAK", shared_key=True, seed=13)
    trace = run_scenario(cfg)
    o = trace.outcome
    assert o.paid_sessions == 0
    # the worst case is exactly t-1 shares per provider, never t
    assert set(o.coalition_max.values()) == {cfg.threshold - 1}
    assert_fair_exchange(trace)


def test_server_permute_resolves_without_false_refund():
    trace = run_scenario(suite_config(adversary="SERVER_PERMUTE", seed=14))
    o = trace.outcome
    assert o.reconstruction_valid
    assert o.refunded_sessions == ()
    assert any("mislabel probe" in d and "accepted=False" in d for d in o.disputes)
    assert any("labeled for node" in a for a in o.anomalies)
    assert_fair_exchange(trace)


def test_drop_delivery_falls_back_to_other_nodes():
    script = AdversaryScript(
        name="DROP",
        corrupted_nodes=frozenset({1, 2}),
        rules=(Rule("stage3_deliver", "drop"),),
    )
    trace = run_scenario(suite_config(seed=15), script)
    o = trace.outcome
    assert o.reconstruction_valid
    assert set(o.settled_sessions) <= {3, 4, 5, 6, 7}
    assert_fair_exchange(trace)


def test_equivocating_delivery_is_never_paid():
    script = AdversaryScript(
        name="EQUIVOCATE",
        corrupted_nodes=frozenset({1}),
        rules=(Rule("stage3_deliver", "equivocate"),),
    )
    trace = run_scenario(suite_config(seed=16), script)
    o = trace.outcome
    assert o.reconstruction_valid
    assert 1 not in o.settled_sessions
    assert any("digest mismatch" in a for a in o.anomalies)
    assert_fair_exchange(trace)


def test_refusing_node_blocks_listing():
    script = AdversaryScript(
        name="REFUSE",
        corrupted_nodes=frozenset({1}),
        rules=(Rule("stage2_register", "refuse"),),
    )
    trace = run_scenario(suite_config(seed=17), script)
    o = trace.outcome
    assert o.finished_reason == "listing-never-initialized"
    assert o.paid_sessions == 0
    assert_fair_exchange(trace)


def test_key_reveal_soundness_in_all_scripts():
    from dexo.crypto import open_commitment

    config = suite_config(seed=18)
    for name, script in standard_scripts(config).items():
        cfg = suite_config(seed=18, adversary=name,
                           shared_key=name == "SHARED_KEY_LEAK")
        sim, setup = _staged_run(cfg)
        contract = sim.ledger.contracts[setup.cid]
        for j, key in contract.key_revealed.items():
            assert open_commitment(key, contract.commitment[j])
