"""Simulator determinism, replay, script catalog, and config handling."""

import dataclasses
import random
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexo import netsim
from dexo.config import ConfigError, ScenarioConfig, format_config, parse_config
from dexo.crypto import KeyMaterial, MerkleProof, SecretShare
from dexo.ledger import Call, InvariantViolation
from dexo.netsim import (
    Action,
    AdversaryScript,
    CoalitionMonitor,
    Rule,
    ScriptError,
    Sent,
    Simulator,
    _payload_digest,
    drain_budget,
    parse_trace_header,
    replay,
    resolve_script,
    run_scenario,
    standard_scripts,
)
from dexo.participants import Message, ShareDelivery, stage0_setup, stage1_produce
from dexo.tee import (
    AttestationReport,
    PreprocessingRule,
    RuntimeMeasurement,
    TeePlatform,
    encode_readings,
)
from oracles import oracle_payload_digest
from scenarioutil import random_cases, suite_config

STANDARD_NAMES = [
    "HONEST",
    "WITHHOLD_KEYS",
    "TAMPER_SHARES",
    "SOURCE_NODE_COLLUSION",
    "CONSUMER_NODE_COLLUSION",
    "SHARED_KEY_LEAK",
    "SERVER_PERMUTE",
    "TAMPERED_TEE_PROVIDER",
]


def test_run_is_deterministic():
    cfg = suite_config(adversary="TAMPER_SHARES", seed=9)
    assert run_scenario(cfg).serialize() == run_scenario(cfg).serialize()


def test_seed_changes_trace():
    a = run_scenario(suite_config(seed=1)).serialize()
    b = run_scenario(suite_config(seed=2)).serialize()
    assert a != b


def test_script_changes_trace():
    a = run_scenario(suite_config(seed=3)).serialize()
    b = run_scenario(suite_config(seed=3, adversary="WITHHOLD_KEYS")).serialize()
    assert a != b


def test_replay_roundtrip():
    trace = run_scenario(suite_config(adversary="WITHHOLD_KEYS", seed=4))
    assert replay(trace)


def test_replay_detects_perturbation():
    trace = run_scenario(suite_config(seed=5))
    perturbed = dataclasses.replace(trace, config=dataclasses.replace(trace.config, seed=6))
    assert not replay(perturbed)


def test_trace_header_roundtrip():
    trace = run_scenario(suite_config(adversary="SERVER_PERMUTE", seed=7))
    config, script = parse_trace_header(trace.serialize())
    assert config == trace.config
    assert script == trace.script


def test_catalog_has_all_standard_scripts():
    cfg = suite_config()
    catalog = standard_scripts(cfg)
    assert set(STANDARD_NAMES) <= set(catalog)
    assert len(catalog) >= 8
    for script in catalog.values():
        assert len(script.corrupted_nodes) <= cfg.max_faulty


def test_consumer_collusion_marks_consumer():
    catalog = standard_scripts(suite_config())
    assert "consumer" in catalog["CONSUMER_NODE_COLLUSION"].corrupted_roles
    assert "server" in catalog["SOURCE_NODE_COLLUSION"].corrupted_roles


def _script(*rules, **fields) -> AdversaryScript:
    """A script read back from its trace form: ``[trigger, name, target]``
    rules and sorted lists."""
    data = dict(name="CUSTOM", corrupted_nodes=[], corrupted_roles=[],
                tampered_providers=[], rules=list(rules), requires_shared_key=False)
    return AdversaryScript.from_dict({**data, **fields})


def test_script_validation():
    cfg = suite_config()
    with pytest.raises(ScriptError):
        AdversaryScript(
            name="TOO_MANY", corrupted_nodes=frozenset({1, 2, 3, 4})
        ).validate(cfg)
    for pair in (["x", "explode"], ["stage3_reveal", "drop"], ["stage2_commit", "refuse"]):
        with pytest.raises(ScriptError, match="no action"):
            _script([*pair, 0], corrupted_nodes=[1])
    with pytest.raises(ScriptError):
        standard_scripts(cfg)["SHARED_KEY_LEAK"].validate(cfg)  # shared_key off
    with pytest.raises(ScriptError):
        resolve_script(suite_config(adversary="NO_SUCH_SCRIPT"))


# each would run exactly as if no adversary were there
NEVER_FIRING = {
    "node target not corrupted": (["stage3_reveal", "withhold_key", 2], {"corrupted_nodes": [1]}),
    "server not corrupted": (["stage1_forward", "permute", 0], {}),
    "oversell, consumer corrupted": (["stage1_produce", "oversell", 0],
                                     {"corrupted_roles": ["consumer"]}),
    "consumer not corrupted": (["stage3_pay", "refuse", 0], {"corrupted_roles": ["server"]}),
    "provider not tampered": (["stage0_install", "tamper_tee", 2], {"tampered_providers": [1]}),
    "permute past the last provider": (["stage1_forward", "permute", 4],
                                       {"corrupted_roles": ["server"]}),
    "leak_to, no consumer": (["stage1_receive", "leak_to", 0], {"corrupted_nodes": [1]}),
    "leak_key, no consumer": (["stage2_key", "leak_key", 1], {"corrupted_nodes": [1]}),
    # target 0 aims at every corrupted node or tampered provider: here none
    "withhold_key, nobody corrupted": (["stage3_reveal", "withhold_key", 0], {}),
    "substitute_share, nobody corrupted": (["stage2_commit", "substitute_share", 0], {}),
    "tamper_tee, nobody tampered": (["stage0_install", "tamper_tee", 0], {}),
    "tampered provider without a rule": (["stage0_install", "tamper_tee", 1],
                                         {"tampered_providers": [1, 2]}),
}


@pytest.mark.parametrize("case", NEVER_FIRING)
def test_a_rule_that_never_fires_is_rejected(case):
    rule, fields = NEVER_FIRING[case]
    script = _script(rule, **fields)
    with pytest.raises(ScriptError, match="can never fire"):
        script.validate(suite_config(shared_key=True))


def test_a_provider_or_node_pair_the_run_lacks_is_rejected():
    cfg = suite_config()  # 3 providers
    _script(["stage1_forward", "permute", 3], corrupted_roles=["server"]).validate(cfg)
    with pytest.raises(ScriptError, match="tampered provider out of range"):
        _script(["stage0_install", "tamper_tee", 4], tampered_providers=[4]).validate(cfg)
    with pytest.raises(ScriptError, match="tampered provider out of range"):
        _script(tampered_providers=[0]).validate(cfg)
    # the permutation swaps nodes 2 and 3
    for n in (1, 2):
        small = ScenarioConfig(n, 1, 0, 1)
        with pytest.raises(ScriptError, match="can never fire"):
            standard_scripts(small)["SERVER_PERMUTE"].validate(small)


def test_a_second_permute_rule_is_rejected():
    """The server swaps one provider's shares, the one its single permute
    rule names."""
    cfg = suite_config()  # 3 providers
    server = {"corrupted_roles": ["server"]}
    _script(["stage1_forward", "permute", 2], **server).validate(cfg)
    with pytest.raises(ScriptError, match="more than one permute rule"):
        _script(["stage1_forward", "permute", 1], ["stage1_forward", "permute", 2],
                **server).validate(cfg)


# at F=0 no node is corrupted, so a node rule can never fire, and
# SHARED_KEY_LEAK's one corrupted node exceeds F
NODE_SCRIPTS = {"WITHHOLD_KEYS", "TAMPER_SHARES", "CONSUMER_NODE_COLLUSION", "SHARED_KEY_LEAK"}


def test_every_standard_and_random_script_can_fire():
    """Standard scripts with node rules are config errors at F=0; every
    other standard script, and every random one, can fire."""
    for n in range(3, 14):
        for f in range((n + 1) // 2):
            for t in range(f + 1, n - f + 1):
                cfg = ScenarioConfig(n, t, f, 1, shared_key=True, value_max=100)
                for name, script in standard_scripts(cfg).items():
                    if f == 0 and name in NODE_SCRIPTS:
                        with pytest.raises(ScriptError):
                            script.validate(cfg)
                        continue
                    script.validate(cfg)
    for cfg, script in random_cases(2000):
        script.validate(cfg)


def test_the_monitor_flags_t_shares_held_before_the_paid_sessions():
    monitor = CoalitionMonitor(threshold=3, sessions_required=3, log=[])
    monitor.log.append(Call(0, "consumer", "accept", 74_843))
    monitor.record_share(4, 1)
    monitor.record_share(4, 2)
    assert monitor.violations == []
    monitor.record_share(4, 5)
    assert monitor.violations == [
        "coalition holds 3 shares of provider 4 with only 1/3 sessions paid"
    ]
    assert monitor.max_counts() == {4: 3}


def test_a_repeated_x_or_a_fully_paid_exchange_is_no_violation():
    monitor = CoalitionMonitor(threshold=3, sessions_required=2, log=[])
    for x in (1, 2, 2, 1):
        monitor.record_share(1, x)
    assert monitor.max_counts() == {1: 2}
    monitor.log += [Call(0, "consumer", "accept", 74_843)] * 2
    monitor.record_share(1, 3)
    assert monitor.max_counts() == {1: 3}
    assert monitor.violations == []


def test_a_run_whose_coalition_reaches_the_threshold_raises(monkeypatch):
    """CONSUMER_NODE_COLLUSION's F corrupted nodes hold F shares of every
    provider before any payment: one short of t, and a violation against a
    monitor whose threshold is F."""
    cfg = suite_config(adversary="CONSUMER_NODE_COLLUSION", seed=12)
    f = cfg.max_faulty
    monkeypatch.setattr(netsim, "CoalitionMonitor",
                        lambda threshold, sessions, log: CoalitionMonitor(f, sessions, log))
    expected = (f"coalition holds {f} shares of provider 1 with only "
                f"0/{cfg.sessions_required()} sessions paid")
    with pytest.raises(InvariantViolation, match=expected):
        run_scenario(cfg)


def test_script_dict_roundtrip():
    for script in standard_scripts(suite_config()).values():
        assert AdversaryScript.from_dict(script.to_dict()) == script


# ---------------------------------------------------------------- drain budget


@dataclasses.dataclass(frozen=True, slots=True)
class _Ping:
    mtype = "echo"


class _Echo:
    """Answers every message with one to its peer, forever."""

    def __init__(self, name: str, peer: str):
        self.name, self.peer = name, peer

    def on_message(self, sim, sender, message) -> None:
        sim.send(self.name, self.peer, _Ping())


def test_participants_that_echo_forever_exceed_the_drain_budget():
    config = suite_config()
    sim = Simulator(config)
    sim.register(_Echo("a", "b"))
    sim.register(_Echo("b", "a"))
    sim.send("a", "b", _Ping())
    with pytest.raises(InvariantViolation, match="message budget exceeded"):
        sim.drain()
    # the first message, then one more per delivery, the last one over budget
    assert len(sim.log) == 1 + drain_budget(config) + 1


def test_the_drain_budget_covers_stage1_of_the_largest_admitted_datums():
    """Stage 1 delivers in one drain M solicitations, M device replies and
    N·M share deliveries; at N=255, M=800 that is more than the fixed
    200,000 deliveries the budget once was."""
    config = suite_config()
    sim = Simulator(config)
    setup = stage0_setup(sim, config, standard_scripts(config)["HONEST"])
    before = len(sim.log)
    stage1_produce(sim, setup)
    n, m = config.n_nodes, config.providers
    assert [type(r) for r in sim.log[before:]] == [Sent] * (n * m + 2 * m)
    wide = ScenarioConfig(n_nodes=255, threshold=128, max_faulty=127, providers=800,
                          datum_size_bytes=1, value_max=255)
    wide.validate()
    assert drain_budget(wide) >= 255 * 800 + 2 * 800 > 200_000


# ---------------------------------------------------------------- config


def test_config_text_roundtrip():
    cfg = suite_config(adversary="WITHHOLD_KEYS", shared_key=False, seed=11)
    assert parse_config(format_config(cfg)) == cfg


def test_config_rejects_unknown_keys():
    text = format_config(suite_config()) + "mystery_knob = 3\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_config_requires_schema_version():
    text = format_config(suite_config()).replace("schema_version = 1\n", "")
    with pytest.raises(ConfigError):
        parse_config(text)
    bad = format_config(suite_config()).replace("schema_version = 1", "schema_version = 9")
    with pytest.raises(ConfigError):
        parse_config(bad)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_nodes=4, max_faulty=2),          # F < N/2 violated
        dict(threshold=2),                      # t <= F
        dict(threshold=5),                      # t > N - F
        dict(datum_size_bytes=0),
        dict(price=101),                        # not divisible by N
        dict(value_min=50, value_max=10),
    ],
)
def test_config_validation_boundaries(overrides):
    with pytest.raises(ConfigError):
        suite_config(**overrides).validate()


def test_threshold_band_accepts_boundary():
    # t = N - F is the inclusive upper bound
    suite_config(n_nodes=7, max_faulty=3, threshold=4).validate()


# ---------------------------------------------------------------- payload digests


_digests = st.binary(min_size=32, max_size=32)
_shares = st.builds(
    SecretShare,
    provider_index=st.integers(min_value=0, max_value=65_535),
    node_index=st.integers(min_value=0, max_value=255),
    x_coordinate=st.integers(min_value=1, max_value=255),
    y_values=st.binary(max_size=12),
)
_measurements = st.builds(RuntimeMeasurement, digest=_digests)
_reports = st.builds(
    AttestationReport,
    share=_shares,
    measurement=_measurements,
    signature=st.binary(min_size=64, max_size=64),
    platform_public_key=_digests,
    salt=_digests,
    proof=st.builds(
        MerkleProof,
        leaf_index=st.integers(min_value=0, max_value=65_535),
        siblings=st.lists(_digests, max_size=3).map(tuple),
        leaf_count=st.integers(min_value=0, max_value=65_535),
    ),
)
# the value types protocol messages carry
_leaves = st.one_of(
    st.binary(max_size=20),
    st.integers(),
    _shares,
    _reports,
    st.builds(KeyMaterial, key=_digests),
    _measurements,
)
_payloads = st.recursive(_leaves, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
MESSAGE_KINDS = typing.get_args(Message)


def _as_payload(message) -> dict:
    """A message's fields as the payload dict the oracle walks."""
    return {f.name: getattr(message, f.name) for f in dataclasses.fields(message)}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(MESSAGE_KINDS), data=st.data())
def test_payload_digest_matches_the_recursive_walk(kind, data):
    """Any value of the carried types, in any field of any message kind,
    hashes as the oracle walks the message's fields as a dict."""
    message = kind(*(data.draw(_payloads, label=f.name) for f in dataclasses.fields(kind)))
    assert _payload_digest(message) == oracle_payload_digest(kind.mtype, _as_payload(message))


@dataclasses.dataclass(frozen=True)
class _Envelope:
    body: bytes


class _Blob(bytes):
    pass


# shapes the oracle's isinstance walk hashes but no protocol message carries
UNSENT_SHAPES = {
    "tuple": (b"x",), "str": "text", "None": None, "bool": True, "float": 1.5,
    "bytearray": bytearray(b"x"), "bytes subclass": _Blob(b"x"),
    "dataclass": _Envelope(b"x"), "dict": {"k": b"x"}, "int key": {1: b"x"},
    "bytes key": {b"k": 1},
}


@pytest.mark.parametrize("shape", UNSENT_SHAPES)
def test_a_payload_type_no_message_sends_is_rejected(shape):
    """A record holding the shape, in a field or inside a list, has no
    trace encoding."""
    value = UNSENT_SHAPES[shape]
    for message in (ShareDelivery(value), ShareDelivery([1, [value]])):
        with pytest.raises(TypeError, match="no trace encoding for payload type"):
            _payload_digest(message)


# configs beside the standard scripts, each with a message flow of its own
_DIGEST_CONFIGS = {
    "UNMERGED_QUERY": dict(merged_query=False, seed=2),
    "SHARED_KEY_GROUP": dict(n_nodes=10, threshold=6, max_faulty=4, shared_key=True, seed=6),
}
# scripts beside the standard ones, each run at the suite config, seed 300
_DIGEST_SCRIPTS = {
    "SILENT_REVEAL": AdversaryScript(
        name="SILENT_REVEAL",
        corrupted_nodes=frozenset({1, 2, 3}),
        rules=(Rule(Action.SUBSTITUTE_SHARE), Rule(Action.SILENT_REVEAL)),
    ),
}
DIGEST_CASES = STANDARD_NAMES + list(_DIGEST_CONFIGS) + list(_DIGEST_SCRIPTS)


def _run_digest_case(name: str):
    if name in _DIGEST_SCRIPTS:
        return run_scenario(suite_config(seed=300), _DIGEST_SCRIPTS[name])
    config = _DIGEST_CONFIGS.get(
        name, dict(adversary=name, shared_key=name == "SHARED_KEY_LEAK", seed=3)
    )
    return run_scenario(suite_config(**config))


# the keys of every message type's payload, written apart from the records.
# A payload restates neither its sender, which the authenticated channel
# names, nor a share's provider, which the share carries; the one exception
# is att_report's provider, which restates its device.
PAYLOAD_KEYS = {
    "attest": set(),
    "att_report": {"provider", "measurement", "signature", "mpk"},
    "solicit": set(),
    "data_shares": {"reports"},
    "share_delivery": {"report"},
    "leaked_share": {"share"},
    "group_key": {"key"},
    "leaked_key": {"key"},
    "register": set(),
    "notice_buy": set(),
    "ciphertext": {"cipher", "openings"},
    "notice_accept": set(),
    "notice_key": set(),
}
# message types a case must send; together the cases send every type
_MUST_SEND = {
    "HONEST": {
        "attest", "att_report", "solicit", "data_shares", "share_delivery",
        "register", "notice_buy", "ciphertext", "notice_accept", "notice_key",
    },
    "CONSUMER_NODE_COLLUSION": {"leaked_share"},
    "SHARED_KEY_LEAK": {"leaked_key"},
    "SHARED_KEY_GROUP": {"group_key"},
}


def test_the_digest_cases_send_every_message_type():
    assert set().union(*_MUST_SEND.values()) == set(PAYLOAD_KEYS)
    assert len(PAYLOAD_KEYS) == 13
    assert set(_MUST_SEND) <= set(DIGEST_CASES)


def test_the_message_alias_holds_exactly_the_thirteen_kinds():
    assert len(MESSAGE_KINDS) == len(PAYLOAD_KEYS) == 13
    assert {kind.mtype: {f.name for f in dataclasses.fields(kind)}
            for kind in MESSAGE_KINDS} == PAYLOAD_KEYS


@pytest.mark.parametrize("name", DIGEST_CASES)
def test_every_protocol_message_hashes_like_the_walk(monkeypatch, name):
    checked = []

    def both(message):
        digest = _payload_digest(message)
        expected = oracle_payload_digest(message.mtype, _as_payload(message))
        assert digest == expected, message.mtype
        checked.append(message.mtype)
        return digest

    monkeypatch.setattr(netsim, "_payload_digest", both)
    _run_digest_case(name)
    assert checked
    assert _MUST_SEND.get(name, set()) <= set(checked)


@pytest.mark.parametrize("name", DIGEST_CASES)
def test_every_payload_has_exactly_its_schema_keys(monkeypatch, name):
    sent = []
    send = netsim.Simulator.send

    def recording(self, sender, receiver, message):
        sent.append((message.mtype, set(_as_payload(message))))
        send(self, sender, receiver, message)

    monkeypatch.setattr(netsim.Simulator, "send", recording)
    _run_digest_case(name)
    assert sent
    assert [(m, keys) for m, keys in sent if keys != PAYLOAD_KEYS[m]] == []


def _one_byte_flips(value: bytes) -> list[bytes]:
    return [value[:i] + bytes([value[i] ^ 1]) + value[i + 1 :] for i in range(len(value))]


def test_flipping_any_byte_of_a_relayed_report_changes_its_digest():
    app = TeePlatform(random.Random(31), b"ta")
    rule = PreprocessingRule(kind="clamp", value_min=0, value_max=255)
    report = app.resume_gendata(n=5, t=3, raw=encode_readings([5, 6, 7]), rule=rule)[2]
    share, proof = report.share, report.proof
    assert len(proof.siblings) == 3
    altered = [dataclasses.replace(report, share=dataclasses.replace(share, y_values=y))
               for y in _one_byte_flips(share.y_values)]
    for name in ("salt", "signature", "platform_public_key"):
        altered += [dataclasses.replace(report, **{name: v})
                    for v in _one_byte_flips(getattr(report, name))]
    altered += [dataclasses.replace(report, measurement=RuntimeMeasurement(v))
                for v in _one_byte_flips(report.measurement.digest)]
    for k, sibling in enumerate(proof.siblings):
        altered += [
            dataclasses.replace(report, proof=dataclasses.replace(
                proof, siblings=proof.siblings[:k] + (v,) + proof.siblings[k + 1 :]))
            for v in _one_byte_flips(sibling)
        ]
    assert len(altered) == 3 + 32 + 64 + 32 + 32 + 3 * 32
    digests = {_payload_digest(ShareDelivery(r)) for r in [report, *altered]}
    assert len(digests) == 1 + len(altered)
