"""Whole-protocol behavior per stage and per adversary script."""

import ast
import dataclasses
import hashlib
import inspect
import random
import types

import pytest

from dexo import participants, tee, wire
from dexo.config import ScenarioConfig
from dexo.crypto import SecretShare, merkle, primitives
from dexo.ledger import SessionStatus
from dexo.netsim import (
    Action,
    AdversaryScript,
    Dispute,
    Note,
    Rule,
    Sent,
    Simulator,
    replay,
    run_scenario,
    standard_scripts,
    texts,
)
from dexo.participants import (
    Ciphertext,
    ShareDelivery,
    stage0_setup,
    stage1_produce,
    stage2_register,
    stage3_exchange,
)
from scenarioutil import (
    assert_conserved,
    assert_fair_exchange,
    count_calls,
    suite_config,
)


def _staged_run(config: ScenarioConfig, script: AdversaryScript | None = None):
    """Drive the stages by hand so tests can inspect participant internals."""
    script = script or standard_scripts(config)[config.adversary]
    script.validate(config)
    sim = Simulator(config)
    setup = stage0_setup(sim, config, script)
    stage1_produce(sim, setup)
    stage2_register(sim, setup)
    stage3_exchange(sim, setup)
    return sim, setup


# ---------------------------------------------------------------- stages


def test_stage1_every_node_holds_one_share_per_provider():
    config = suite_config(providers=2, n_nodes=3, threshold=2, max_faulty=1)
    sim = Simulator(config)
    setup = stage0_setup(sim, config, standard_scripts(config)["HONEST"])
    stage1_produce(sim, setup)
    for node in setup.nodes.values():
        assert sorted(node.received) == [1, 2]
        for provider, report in node.received.items():
            share = report.share
            assert share.provider_index == provider
            assert share.node_index == node.index
            assert tee.attest_report(sim.registry, report)


def _holds_share(value) -> bool:
    if isinstance(value, (SecretShare, tee.AttestationReport)):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, (list, tuple, set)) and any(_holds_share(v) for v in value)


def test_server_retains_no_shares():
    sim, setup = _staged_run(suite_config())
    assert not any(_holds_share(v) for v in vars(setup.server).values())
    relayed = [r for r in sim.log if type(r) is Sent and r.mtype == "share_delivery"]
    assert len(relayed) == 7 * 3


def test_honest_reconstruction_matches_device_output():
    sim, setup = _staged_run(suite_config(seed=21))
    for device in setup.devices:
        expected = tee.preprocess(device.raw, device.rule)
        assert setup.consumer.reconstructed[device.provider_index] == expected


def test_priority_group_members_share_one_commitment():
    config = suite_config(n_nodes=10, threshold=6, max_faulty=4, shared_key=True)
    sim, setup = _staged_run(config)
    contract = sim.ledger.contracts[setup.cid]
    assert config.priority_group() == [1, 2]
    assert contract.commitment[1] == contract.commitment[2]
    coms = {contract.commitment[j].digest for j in range(3, 11)}
    assert len(coms) == 8  # outside the group, every commitment is distinct


def test_tampered_device_blocks_registration():
    config = suite_config(adversary="TAMPERED_TEE_PROVIDER")
    sim, setup = _staged_run(config)
    assert sim.ledger.contracts[setup.cid].delta == {}  # no node registered
    noted = texts(sim.log, Note)
    for node in setup.nodes.values():
        assert f"{node.name}: attestation failed for provider 1" in noted
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


# honest configs (N, t, F, M, overrides): each one's run performs the
# per-run operation laws exactly
OPERATION_LAW_CONFIGS = {
    "n5": (5, 3, 2, 3, {}),
    "n10": (10, 6, 4, 7, {}),
    "n20_m60_100B_full_range": (20, 14, 6, 60, dict(datum_size_bytes=100, value_max=255)),
    "n10_shared_key": (10, 6, 4, 4, dict(shared_key=True)),
    "n7_unmerged": (7, 4, 3, 3, dict(merged_query=False)),
}


def _interior_nodes(leaves: int) -> int:
    """Interior nodes of a Merkle tree whose odd levels duplicate their last node."""
    count = 0
    while leaves > 1:
        leaves = (leaves + 1) // 2
        count += leaves
    return count


def _count_hashes_in_attestation(monkeypatch) -> list[int]:
    """Count the ``hashlib.sha256`` calls made inside ``tee.attest_report``,
    through the ``hashlib`` bindings of the modules on its path. ``tee``
    binds none today; the stand-in keeps the count whole if it ever does."""
    inside, hashes = [0], [0]

    def sha256(*args):
        hashes[0] += bool(inside[0])
        return hashlib.sha256(*args)

    for module in (tee, merkle, primitives):
        monkeypatch.setattr(module, "hashlib", types.SimpleNamespace(sha256=sha256),
                            raising=module is not tee)
    attest = tee.attest_report

    def attesting(*args):
        inside[0] += 1
        try:
            return attest(*args)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(tee, "attest_report", attesting)
    return hashes


@pytest.mark.parametrize("params", OPERATION_LAW_CONFIGS.values(),
                         ids=list(OPERATION_LAW_CONFIGS))
def test_one_root_verification_per_datum(monkeypatch, params):
    n, t, f, m, overrides = params
    calls = count_calls(monkeypatch, tee, "generate_keypair", "verify", "sign",
                        "attest_report")
    hashes = _count_hashes_in_attestation(monkeypatch)
    # the payloads are encrypted through participants' binding, the salts
    # of the openings through tee's, and no keystream runs through wire's
    streams = {module: count_calls(monkeypatch, module, "keystream_xor")["keystream_xor"]
               for module in (participants, tee, wire)}
    cfg = ScenarioConfig(n_nodes=n, threshold=t, max_faulty=f, providers=m,
                         seed=19, **{"value_max": 100, **overrides})
    outcome = run_scenario(cfg).outcome
    assert outcome.reconstruction_valid
    assert len(calls["generate_keypair"]) == m  # one trusted app per device
    # every node opens every share it holds, and the consumer each share it buys
    assert len(calls["attest_report"]) == (n + t) * m
    assert len(calls["verify"]) == m  # but each datum's root is verified once
    assert len(set(calls["verify"])) == m
    # and each device tree's node hashed once: a commitment and a leaf per
    # share the nodes open, the tree's interior nodes once per datum, and
    # nothing for the consumer's t·M openings, which the nodes passed
    assert hashes[0] == 2 * n * m + m * _interior_nodes(n)
    # one attestation answer and one root signature per device
    assert len(calls["sign"]) == 2 * m
    # N nodes encrypt, and the consumer decrypts t, one payload and one
    # openings blob each
    payloads, salts = streams[participants], streams[tee]
    assert len(payloads) == len(salts) == n + t and not streams[wire]
    record = wire.record_length(cfg.datum_size_bytes)
    assert sum(len(args[1]) for args in payloads) == (n + t) * m * record
    assert sum(len(args[1]) for args in salts) == (n + t) * 32 * m


@pytest.mark.parametrize("span", [1, 4, 101, 155, 256])
def test_readings_are_drawn_as_randint_draws_them(span):
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        lo = 255 - span + 1
        drawn = participants._uniform_ints(ours, lo, 255, 40)
        assert drawn == [theirs.randint(lo, 255) for _ in range(40)]
        assert ours.getstate() == theirs.getstate()


def test_readings_from_an_empty_range_are_refused():
    rng = random.Random(0)
    state = rng.getstate()
    for lo, hi in ((256, 255), (10, 3)):
        with pytest.raises(ValueError):
            random.Random(0).randint(lo, hi)
        with pytest.raises(ValueError):
            participants._uniform_ints(rng, lo, hi, 5)
    assert rng.getstate() == state


def test_altered_shares_cost_no_verification(monkeypatch):
    n, m = 13, 3
    calls = count_calls(monkeypatch, tee, "verify", "sign")
    cfg = suite_config(n_nodes=n, threshold=7, max_faulty=6, adversary="TAMPER_SHARES",
                       seed=12)
    outcome = run_scenario(cfg).outcome
    assert outcome.reconstruction_valid and outcome.refunded_sessions == tuple(range(1, 7))
    assert len(calls["verify"]) == m
    assert len(calls["sign"]) == 2 * m


def test_consumer_rejects_an_altered_opening(monkeypatch):
    """Node 1's openings blob reaches the consumer with provider 1's salt
    altered and provider 2's proof swapped for provider 3's: those two
    shares fail authentication, the untouched one passes, and the consumer
    still settles with the device's data."""
    config = suite_config(seed=20)
    width = 32 + 64 + 32 + 32 * (config.n_nodes - 1).bit_length()
    send = Simulator.send

    def altering(self, sender, receiver, message):
        if type(message) is Ciphertext and sender == "node-1":
            blob = bytearray(message.openings)
            blob[96] ^= 1  # the salts are a keystream XOR, so one bit flips
            blob[width + 128 : 2 * width] = blob[2 * width + 128 : 3 * width]
            message = Ciphertext(message.cipher, bytes(blob))
        send(self, sender, receiver, message)

    monkeypatch.setattr(Simulator, "send", altering)
    _, setup = _staged_run(config)
    consumer = setup.consumer
    assert 1 in consumer.delivered and 1 not in consumer.openings  # its payload opened
    assert [(1, p) in consumer.authentic for p in range(1, 4)] == [False, False, True]
    assert consumer.reconstruction_valid
    assert consumer.reconstructed == {
        d.provider_index: tee.preprocess(d.raw, d.rule) for d in setup.devices
    }


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
        rules=(Rule(Action.WRONG_KEY),),
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


def test_tamper_shares_under_a_full_range_description():
    """Under a description that every byte string of the right length meets,
    a reconstruction from tampered shares looks valid; the consumer still
    gets the device's data, because it reconstructs from authentic shares
    only, and it has the tampering nodes refunded."""
    for seed in range(300, 305):
        trace = run_scenario(suite_config(adversary="TAMPER_SHARES", value_max=255,
                                          seed=seed))
        o = trace.outcome
        assert o.reconstruction_valid and o.reconstructed == o.expected, seed
        assert o.refunded_sessions and set(o.refunded_sessions) <= {1, 2, 3}, seed
        assert_fair_exchange(trace)
        assert_conserved(trace)


# the eight standard scripts, an honest priority-group run and an honest run
# with one query per node
RULE_FLOWS = {
    **{name: dict(adversary=name, shared_key=script.requires_shared_key)
       for name, script in standard_scripts(suite_config()).items()},
    "HONEST-shared_key": dict(n_nodes=10, threshold=6, max_faulty=4, shared_key=True),
    "HONEST-unmerged": dict(merged_query=False),
}


@pytest.mark.parametrize("overrides", RULE_FLOWS.values(), ids=list(RULE_FLOWS))
def test_consumer_reconstructs_only_from_authentic_shares(monkeypatch, overrides):
    passed = []
    original = participants.reconstruct

    def recording(t, n, shares):
        passed.extend(shares)
        return original(t, n, shares)

    monkeypatch.setattr(participants, "reconstruct", recording)
    attested = count_calls(monkeypatch, tee, "attest_report")["attest_report"]
    config = suite_config(seed=40, **overrides)
    _, setup = _staged_run(config)
    consumer = setup.consumer
    held = {id(s): (j, p) for j, shares in consumer.node_shares.items()
            for p, s in shares.items()}
    assert all(held[id(s)] in consumer.authentic for s in passed)
    # the consumer checks each share it holds once, when its payload opens
    checked = [held[id(report.share)] for _, report in attested if id(report.share) in held]
    assert len(checked) == len(set(checked))
    if any(s is not SessionStatus.QUERIED for s in (consumer.status or {}).values()):
        assert len(passed) >= config.threshold * config.providers


def test_a_key_revealed_without_notice_is_read_off_the_chain():
    """Tampering nodes that reveal their keys on chain but send no
    ``notice_key`` are checked all the same: the consumer takes every key
    the chain shows as out, disputes, and pays only the honest nodes."""
    script = AdversaryScript(
        name="SILENT_REVEAL",
        corrupted_nodes=frozenset({1, 2, 3}),
        rules=(Rule(Action.SUBSTITUTE_SHARE), Rule(Action.SILENT_REVEAL)),
    )
    trace = run_scenario(suite_config(seed=300), script)
    o = trace.outcome
    assert not any(e.mtype == "notice_key" and e.sender in ("node-1", "node-2", "node-3")
                   for e in trace.events)
    assert o.settled_sessions == (4, 5, 6, 7)
    assert o.refunded_sessions == (1, 2, 3)
    assert o.disputes == ("case2 provider 1: accepted=True refunded=[1, 2, 3]",)
    assert o.refund_to_buyer == 3 * 100
    assert o.reconstruction_valid and o.reconstructed == o.expected
    assert o.finished_reason == "settled"
    assert_fair_exchange(trace)
    assert_conserved(trace)
    assert replay(trace)


def test_unauthenticated_consistent_node_is_never_refunded():
    """A node whose openings blob is unreadable cannot authenticate its
    shares, so the consumer accuses it; the contract rejects the accusation
    because its shares are consistent, and only the tampering nodes lose.
    """
    config = suite_config(seed=17)
    script = AdversaryScript(
        name="TAMPER_TWO_GARBLE_ONE",
        corrupted_nodes=frozenset({1, 2, 3}),
        rules=(Rule(Action.SUBSTITUTE_SHARE, 1), Rule(Action.SUBSTITUTE_SHARE, 2)),
    )
    sim = Simulator(config)
    setup = stage0_setup(sim, config, script)
    stage1_produce(sim, setup)
    stage2_register(sim, setup)
    setup.nodes[3].openings = b"garbled"
    stage3_exchange(sim, setup)
    consumer = setup.consumer
    assert consumer.reconstruction_valid
    status = sim.ledger.snapshot_buyer(setup.cid, consumer.account)
    assert sorted(j for j, s in status.items() if s is SessionStatus.REFUNDED) == [1, 2]
    disputes = texts(sim.log, Dispute)
    assert disputes[0] == "case2 provider 1: accepted=True refunded=[1, 2]"
    assert all("accepted=False" in d for d in disputes[1:])


def test_registration_encrypts_the_payload_and_the_salts_only(monkeypatch):
    """A node encrypts its share records and one 32-byte salt per provider;
    the rest of its openings blob travels in the clear."""
    config = suite_config(seed=4)
    sim = Simulator(config)
    setup = stage0_setup(sim, config, standard_scripts(config)["HONEST"])
    stage1_produce(sim, setup)
    encrypted = []
    keystream_xor = primitives.keystream_xor

    def counting(key, data, nonce, offset=0):
        encrypted.append(len(data))
        return keystream_xor(key, data, nonce, offset)

    for module in (primitives, wire, tee, participants):
        monkeypatch.setattr(module, "keystream_xor", counting)
    stage2_register(sim, setup)
    payload = config.providers * wire.record_length(config.datum_size_bytes)
    assert sum(encrypted) == config.n_nodes * (payload + 32 * config.providers)


def test_openings_in_flight_hide_only_the_salts(monkeypatch):
    delivered = []
    received = {}  # by node name, then by provider
    send = Simulator.send

    def capture(self, sender, receiver, message):
        if type(message) is Ciphertext:
            delivered.append((sender, message))
        elif type(message) is ShareDelivery:
            report = message.report
            received.setdefault(receiver, {})[report.share.provider_index] = report
        send(self, sender, receiver, message)

    monkeypatch.setattr(Simulator, "send", capture)
    config = suite_config(seed=4)
    sim, setup = _staged_run(config)
    assert len(delivered) == config.n_nodes
    width = 32 + 64 + 32 + 32 * (config.n_nodes - 1).bit_length()
    nonce = wire.payload_nonce(sim.ledger.contracts[setup.cid].tid)
    nodes = {node.name: node for node in setup.nodes.values()}
    for sender, message in delivered:
        node, reports = nodes[sender], received[sender]
        blob = message.openings
        assert len(blob) == config.providers * width
        assert sorted(reports) == list(range(1, config.providers + 1))
        for provider, report in reports.items():
            at = (provider - 1) * width
            assert blob[at : at + 32] == report.platform_public_key
            assert blob[at + 32 : at + 96] == report.signature
            assert blob[at + 96 : at + 128] != report.salt
            assert blob[at + 128 : at + width] == b"".join(report.proof.siblings)
        shares = {p: r.share for p, r in reports.items()}
        opened = tee.open_openings(blob, shares, node.key, nonce, node.index,
                                   config.n_nodes, sim.registry.expected_measurement)
        assert opened == reports
    consumer = setup.consumer
    assert consumer.node_shares
    assert consumer.authentic == {
        (j, p) for j in consumer.node_shares for p in range(1, config.providers + 1)
    }


def test_a_node_speaks_only_for_itself():
    """Ciphertexts that node 1 sends for the other nodes are node 1's: a
    ciphertext has no field that could name another node, and the consumer
    takes a sender's index from its channel, so the honest nodes' deliveries
    are still verified and bought."""
    assert [f.name for f in dataclasses.fields(Ciphertext)] == ["cipher", "openings"]
    for seed in range(3):
        config = suite_config(seed=seed)
        sim = Simulator(config)
        setup = stage0_setup(sim, config, standard_scripts(config)["HONEST"])
        stage1_produce(sim, setup)
        stage2_register(sim, setup)
        for _ in range(2, config.n_nodes + 1):  # one forgery per other node
            sim.send("node-1", "consumer", Ciphertext(bytes(16), b""))
        stage3_exchange(sim, setup)
        assert texts(sim.log, Note) == ("consumer: digest mismatch from node 1",) * 6
        consumer = setup.consumer
        assert sorted(consumer.delivered) == list(range(1, config.n_nodes + 1))
        assert consumer.finished_reason == "settled" and consumer.reconstruction_valid


def test_a_node_files_each_report_under_its_own_provider():
    """A delivery holds its report and nothing else, so a relay has no label
    to set apart from the share's own: the node files and seals each report
    by its share's provider, so every share opens to its device's signed
    root."""
    assert [f.name for f in dataclasses.fields(ShareDelivery)] == ["report"]
    config = suite_config(seed=3)
    sim = Simulator(config)
    setup = stage0_setup(sim, config, standard_scripts(config)["HONEST"])
    stage1_produce(sim, setup)
    node = setup.nodes[4]
    shares = {r.share.provider_index: r.share for r in node.received.values()}
    stage2_register(sim, setup)
    assert not node.received  # released once sealed
    opened = tee.open_openings(
        node.openings, shares, node.key, wire.payload_nonce(sim.ledger.contracts[setup.cid].tid),
        node.index, config.n_nodes, sim.registry.expected_measurement,
    )
    assert sorted(opened) == [1, 2, 3]
    assert all(tee.attest_report(sim.registry, r) for r in opened.values())


def test_parties_read_listing_terms_from_the_published_listing():
    """No party reads the contract's state behind the chain's back: listing
    terms come from ``Ledger.snapshot_listing`` and session states from
    ``Ledger.snapshot_buyer``, so no ``.contracts`` attribute is read."""
    tree = ast.parse(inspect.getsource(participants))
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "contracts"]
    assert reads == []


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


def test_each_payload_is_decrypted_at_most_once(monkeypatch):
    """Under SHARED_KEY_LEAK at N=10, t=6, F=4 every node encrypts its
    payload once, and the corrupted consumer decrypts each of the two group
    payloads once, under the leaked group key, though it also tries that key
    on every later ciphertext."""
    cfg = suite_config(n_nodes=10, threshold=6, max_faulty=4, adversary="SHARED_KEY_LEAK",
                       shared_key=True, seed=13)
    calls = count_calls(monkeypatch, participants, "keystream_xor")
    sim, setup = _staged_run(cfg)
    nonce = wire.payload_nonce(sim.ledger.contracts[setup.cid].tid)
    assert len(cfg.priority_group()) == 2
    assert sum(1 for args in calls["keystream_xor"] if args[2] == nonce) == cfg.n_nodes + 2
    assert sim.monitor.max_counts() == {1: 5, 2: 5, 3: 5}
    assert sim.monitor.violations == []


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
        rules=(Rule(Action.DROP),),
    )
    trace = run_scenario(suite_config(seed=15), script)
    o = trace.outcome
    assert o.reconstruction_valid
    assert set(o.settled_sessions) <= {3, 4, 5, 6, 7}
    assert_fair_exchange(trace)


def test_equivocating_delivery_is_never_paid(monkeypatch):
    script = AdversaryScript(
        name="EQUIVOCATE",
        corrupted_nodes=frozenset({1}),
        rules=(Rule(Action.EQUIVOCATE),),
    )
    trace = run_scenario(suite_config(seed=16), script)
    o = trace.outcome
    assert o.reconstruction_valid
    assert 1 not in o.settled_sessions
    assert "consumer: digest mismatch from node 1" in o.anomalies
    assert_fair_exchange(trace)
    # the altered bytes miss the run's root memo: one more root, not a reuse
    roots = count_calls(monkeypatch, wire, "merkle_root")
    sim, setup = _staged_run(suite_config(seed=16), script)
    assert len(roots["merkle_root"]) == setup.config.n_nodes + 1
    assert "consumer: digest mismatch from node 1" in texts(sim.log, Note)
    assert 1 not in setup.consumer.delivered
    assert sim.ledger.snapshot_buyer(setup.cid, "consumer")[1] is SessionStatus.QUERIED


# node payloads that break the listing's fixed layout, built from the honest
# payload and the record length (header and y bytes at N=7, M=3, 8 B)
_OFF_LAYOUT = {
    "first record at x = 0": lambda p, rl: p[:3] + b"\0" + p[4:],
    "provider 3's record alone, corrupted, at offset 0":
        lambda p, rl: p[2 * rl : 2 * rl + 6] + bytes(b ^ 0xFF for b in p[2 * rl + 6 : 3 * rl]),
}


@pytest.mark.parametrize("forge", list(_OFF_LAYOUT))
def test_a_payload_off_the_listing_layout_is_undecodable(monkeypatch, forge):
    """Node 1 commits to, and delivers, a payload that does not hold one
    datum-sized record per provider in provider order at a nonzero x. The
    consumer notes it as undecodable, once, as it does a truncated payload,
    and settles on the other nodes' shares."""
    encode = wire.encode_node_payload

    def node_1_forges(shares):
        payload = encode(shares)
        if shares[0].node_index != 1:
            return payload
        return _OFF_LAYOUT[forge](payload, wire.record_length(8))

    monkeypatch.setattr(wire, "encode_node_payload", node_1_forges)
    trace = run_scenario(suite_config(seed=3))
    o = trace.outcome
    # decrypted and noted once, though node 1's key is read off the chain
    assert o.anomalies.count("consumer: undecodable payload from node 1") == 1
    assert o.finished_reason == "settled"
    assert o.reconstruction_valid and o.reconstructed == o.expected
    assert_fair_exchange(trace)
    assert_conserved(trace)


def test_each_payload_root_is_computed_once_per_run(monkeypatch):
    """The node's δ_j and the consumer's check of delivery j share one
    Merkle root; a replay is a new run and computes every root again."""
    n = 5
    roots = count_calls(monkeypatch, wire, "merkle_root")
    trace = run_scenario(ScenarioConfig(n_nodes=n, threshold=3, max_faulty=2, providers=3,
                                        seed=21))
    assert trace.outcome.reconstruction_valid
    assert len(roots["merkle_root"]) == n
    roots["merkle_root"].clear()
    assert replay(trace)
    assert len(roots["merkle_root"]) == n


def test_refusing_node_blocks_listing():
    script = AdversaryScript(
        name="REFUSE",
        corrupted_nodes=frozenset({1}),
        rules=(Rule(Action.REFUSE_REGISTER),),
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
        cfg = suite_config(seed=18, adversary=name, shared_key=script.requires_shared_key)
        sim, setup = _staged_run(cfg)
        contract = sim.ledger.contracts[setup.cid]
        for j, key in contract.key_revealed.items():
            assert open_commitment(key, contract.commitment[j])
