"""Deterministic message-passing simulator with scriptable Byzantine faults.

Participants exchange messages, one frozen record per kind
(``participants.Message``), over authenticated FIFO channels; a fixed
(seed-shuffled) rotation delivers one message per ready participant per step,
so a run is a pure function of (config, script, seed). The simulator only
delivers messages: the exchange stage (``participants.stage3_exchange``)
ticks the consumer when the network goes quiet and, if it stays quiet,
advances the block height, which drives timeout settlement. One append-only
run log holds, in order, every metered ledger call (or its revert), message,
note and dispute; the trace, the gas log and the outcome's disputes,
anomalies and reverts are derived from it, and a trace can be re-executed
and compared byte-for-byte.
"""

from __future__ import annotations

import hashlib
import random
from ast import literal_eval
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING

from .config import ConfigError, ScenarioConfig, format_config, parse_config
from .crypto import KeyMaterial, SecretShare
from .ledger import Call, InvariantViolation, Ledger, Revert, SessionStatus
from .tee import (
    RATIFIED_TA, AttestationRegistry, AttestationReport, RuntimeMeasurement, measure, preprocess
)
from .wire import PayloadMemo, encode_share

if TYPE_CHECKING:
    from .participants import Message


class ScriptError(Exception):
    pass


class Action(Enum):
    """Every adversary action, with the role that takes it, the decision
    point where it is taken, and its name in a trace's ``[script]``."""

    LEAK_TO = ("node", "stage1_receive", "leak_to")
    LEAK_KEY = ("node", "stage2_key", "leak_key")
    REFUSE_REGISTER = ("node", "stage2_register", "refuse")
    SUBSTITUTE_SHARE = ("node", "stage2_commit", "substitute_share")
    CORRUPT_BYTES = ("node", "stage2_commit", "corrupt_bytes")
    DROP = ("node", "stage3_deliver", "drop")
    EQUIVOCATE = ("node", "stage3_deliver", "equivocate")
    WITHHOLD_KEY = ("node", "stage3_reveal", "withhold_key")
    WRONG_KEY = ("node", "stage3_reveal", "wrong_key")
    SILENT_REVEAL = ("node", "stage3_reveal", "silent_reveal")
    OVERSELL = ("server", "stage1_produce", "oversell")
    PERMUTE = ("server", "stage1_forward", "permute")
    REFUSE_PAYMENT = ("consumer", "stage3_pay", "refuse")
    TAMPER_TEE = ("provider", "stage0_install", "tamper_tee")

    def __init__(self, role: str, trigger: str, label: str):
        self.role = role
        self.trigger = trigger
        self.label = label


@dataclass(frozen=True)
class Rule:
    action: Action
    # node or provider index, 0 = every corrupted one; for a permute, the
    # provider whose reports it swaps, 0 = provider 1
    target: int = 0


@dataclass(frozen=True)
class AdversaryScript:
    name: str = "HONEST"
    corrupted_nodes: frozenset[int] = frozenset()
    corrupted_roles: frozenset[str] = frozenset()  # subset of {consumer, server}
    tampered_providers: frozenset[int] = frozenset()
    rules: tuple[Rule, ...] = ()
    requires_shared_key: bool = False

    def aims(self, r: Rule, at: int) -> bool:
        """Whether rule ``r`` makes the script act at ``at``: a node or a
        provider index, the provider whose reports a permute swaps, or 0 for
        the server's other action and the consumer's."""
        role = r.action.role
        if role in ("node", "provider"):
            actors = self.corrupted_nodes if role == "node" else self.tampered_providers
            return at in actors and r.target in (0, at)
        spot = (r.target or 1) if r.action is Action.PERMUTE else 0
        return role in self.corrupted_roles and at == spot

    def acts(self, action: Action, at: int) -> bool:
        return any(r.action is action and self.aims(r, at) for r in self.rules)

    def validate(self, config: ScenarioConfig) -> None:
        if self.acts(Action.OVERSELL, 0) and config.value_max >= 255:
            raise ScriptError(f"{self.name}: overselling needs headroom above value_max")
        if len(self.corrupted_nodes) > config.max_faulty:
            raise ScriptError(
                f"{self.name}: {len(self.corrupted_nodes)} corrupted nodes exceed "
                f"F={config.max_faulty}"
            )
        if any(not 1 <= j <= config.n_nodes for j in self.corrupted_nodes):
            raise ScriptError(f"{self.name}: corrupted node out of range")
        if any(not 1 <= i <= config.providers for i in self.tampered_providers):
            raise ScriptError(f"{self.name}: tampered provider out of range")
        if self.requires_shared_key and not config.shared_key:
            raise ScriptError(f"{self.name} requires the shared_key optimization")
        if sum(r.action is Action.PERMUTE for r in self.rules) > 1:
            # the server swaps the reports of one provider only
            raise ScriptError(f"{self.name}: more than one permute rule")
        # a rule that can never fire would run as if no adversary were there:
        # each must aim at a node or provider this config has, or at 0 for a
        # role; a leak also needs a corrupted consumer, and a permute, which
        # swaps nodes 2 and 3, needs N >= 3
        for r in self.rules:
            last = config.n_nodes if r.action.role == "node" else config.providers
            fires = any(self.aims(r, at) for at in range(last + 1))
            if r.action in (Action.LEAK_TO, Action.LEAK_KEY):
                fires = fires and "consumer" in self.corrupted_roles
            if r.action is Action.PERMUTE:
                fires = fires and config.n_nodes >= 3
            if not fires:
                raise ScriptError(f"{self.name}: {r.action.label} at {r.action.trigger} "
                                  f"(target {r.target}) can never fire")
        for i in sorted(self.tampered_providers):
            if not self.acts(Action.TAMPER_TEE, i):
                raise ScriptError(f"{self.name}: tampering provider {i} can never fire "
                                  f"without a {Action.TAMPER_TEE.label} rule")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "corrupted_nodes": sorted(self.corrupted_nodes),
            "corrupted_roles": sorted(self.corrupted_roles),
            "tampered_providers": sorted(self.tampered_providers),
            "rules": [[r.action.trigger, r.action.label, r.target] for r in self.rules],
            "requires_shared_key": self.requires_shared_key,
        }

    @staticmethod
    def from_dict(data: dict) -> "AdversaryScript":
        actions = {(a.trigger, a.label): a for a in Action}
        for trigger, label, _ in data["rules"]:
            if (trigger, label) not in actions:
                raise ScriptError(f"no action {label!r} at {trigger!r}")
        return AdversaryScript(
            name=data["name"],
            corrupted_nodes=frozenset(data["corrupted_nodes"]),
            corrupted_roles=frozenset(data["corrupted_roles"]),
            tampered_providers=frozenset(data["tampered_providers"]),
            rules=tuple(Rule(actions[t, a], target) for t, a, target in data["rules"]),
            requires_shared_key=data["requires_shared_key"],
        )


def standard_scripts(config: ScenarioConfig) -> dict[str, AdversaryScript]:
    """Named adversary scripts sized for one scenario's N, t, F."""
    n, t, f = config.n_nodes, config.threshold, config.max_faulty
    low = frozenset(range(1, f + 1))
    group_size = t - f
    # one priority-group member plus F-1 outsiders (group is nodes 1..t-F)
    leak_member = min(group_size, 2) if group_size >= 1 else 1
    outsiders = frozenset(range(group_size + 1, group_size + f))
    catalog = {
        "HONEST": AdversaryScript(name="HONEST"),
        "WITHHOLD_KEYS": AdversaryScript(
            name="WITHHOLD_KEYS",
            corrupted_nodes=low,
            rules=(Rule(Action.WITHHOLD_KEY),),
        ),
        "TAMPER_SHARES": AdversaryScript(
            name="TAMPER_SHARES",
            corrupted_nodes=low,
            rules=(Rule(Action.SUBSTITUTE_SHARE),),
        ),
        "SOURCE_NODE_COLLUSION": AdversaryScript(
            name="SOURCE_NODE_COLLUSION",
            corrupted_nodes=low,
            corrupted_roles=frozenset({"server"}),
            rules=(Rule(Action.OVERSELL),),
        ),
        "CONSUMER_NODE_COLLUSION": AdversaryScript(
            name="CONSUMER_NODE_COLLUSION",
            corrupted_nodes=low,
            corrupted_roles=frozenset({"consumer"}),
            rules=(
                Rule(Action.LEAK_TO),
                Rule(Action.REFUSE_PAYMENT),
            ),
        ),
        "SHARED_KEY_LEAK": AdversaryScript(
            name="SHARED_KEY_LEAK",
            corrupted_nodes=frozenset({leak_member}) | outsiders,
            corrupted_roles=frozenset({"consumer"}),
            rules=(
                Rule(Action.LEAK_KEY, leak_member),
                Rule(Action.LEAK_TO),
                Rule(Action.REFUSE_PAYMENT),
            ),
            requires_shared_key=True,
        ),
        "SERVER_PERMUTE": AdversaryScript(
            name="SERVER_PERMUTE",
            corrupted_roles=frozenset({"server"}),
            rules=(Rule(Action.PERMUTE),),
        ),
        "TAMPERED_TEE_PROVIDER": AdversaryScript(
            name="TAMPERED_TEE_PROVIDER",
            tampered_providers=frozenset({1}),
            rules=(Rule(Action.TAMPER_TEE, 1),),
        ),
    }
    return catalog


# ---------------------------------------------------------------- monitor


def paid_sessions(log: list) -> int:
    """The sessions paid so far: the run log's ``accept`` calls."""
    return sum(1 for r in log if type(r) is Call and r.function == "accept")


class CoalitionMonitor:
    """Tracks how many distinct shares per provider the adversary coalition
    holds; reaching the threshold without the consumer having paid for the
    protocol's full session count is a confidentiality violation. Payments
    are read off the run log ``log``, where the chain records them.
    """

    def __init__(self, threshold: int, sessions_required: int, log: list):
        self.threshold = threshold
        self.sessions_required = sessions_required
        self.log = log
        self.known: dict[int, set[int]] = {}
        self.violations: list[str] = []

    def record_share(self, provider: int, x: int) -> None:
        self.known.setdefault(provider, set()).add(x)
        count = len(self.known[provider])
        if count >= self.threshold and (paid := paid_sessions(self.log)) < self.sessions_required:
            self.violations.append(
                f"coalition holds {count} shares of provider {provider} with only "
                f"{paid}/{self.sessions_required} sessions paid"
            )

    def max_counts(self) -> dict[int, int]:
        return {p: len(xs) for p, xs in sorted(self.known.items())}


# ---------------------------------------------------------------- simulator


def _encode(value, out: list) -> None:
    """Append a payload value's byte stream to ``out``, by one dispatch on
    its exact type over the types messages carry; any other type is a
    :class:`TypeError`. A share is ``b"S"`` and its wire record. A report is
    ``b"R"`` and its share as above, then its opening without the proof's
    leaf index and count, which follow from the share's label and N."""
    cls = type(value)
    if cls is bytes:
        out += (b"b", value)
    elif cls is SecretShare:
        out += (b"S", encode_share(value))
    elif cls is AttestationReport:
        out += (b"RS", encode_share(value.share), value.measurement.digest, value.signature,
                value.platform_public_key, value.salt)
        out += value.proof.siblings
    elif cls is list:
        out.append(b"l")
        for item in value:
            _encode(item, out)
    elif cls is int:
        out.append(b"%d" % value)
    elif cls is KeyMaterial:
        out += (b"KeyMaterial", b"b", value.key)
    elif cls is RuntimeMeasurement:
        out += (b"RuntimeMeasurement", b"b", value.digest)
    else:
        raise TypeError(f"no trace encoding for payload type {cls.__name__}")


def _payload_digest(message: Message) -> str:
    """A message's trace hash: its ``mtype``, then ``b"d"`` and each field's
    name and value in name order."""
    out = [message.mtype.encode(), b"d"]
    for name in sorted(message.__match_args__):
        out.append(name.encode())
        _encode(getattr(message, name), out)
    return hashlib.sha256(b"".join(out)).hexdigest()[:16]


# the three run records below are write-once, enforced by
# tests/test_write_once.py: `frozen` would make every construction three
# to six times as slow
@dataclass(slots=True)
class Sent:
    """A message in the run log; its sequence number is its place among the
    run's messages. It holds the payload's digest, not the payload: a trace
    outlives its run, and holding payloads cost 6.6 % more peak RSS."""

    sender: str
    receiver: str
    mtype: str
    payload_hash: str


@dataclass(slots=True)
class Note:
    """An anomaly a participant observed."""

    text: str


@dataclass(slots=True)
class Dispute:
    """A challenge the consumer submitted, with the contract's answer."""

    text: str


def texts(log: list, kind: type) -> tuple[str, ...]:
    return tuple(r.text for r in log if type(r) is kind)


# one drain may deliver this many times the honest run's message law
# N·M + 4M + 4N + t before the run is declared livelocked; no known schedule
# delivers more than 0.9 of it in one drain, or 1.3 of it in a whole run
DRAIN_BUDGET_FACTOR = 4


def drain_budget(config: ScenarioConfig) -> int:
    n, m = config.n_nodes, config.providers
    return DRAIN_BUDGET_FACTOR * (n * m + 4 * m + 4 * n + config.threshold)


class Simulator:
    """One run's network, chain, attestation registry and monitor, built from its config."""

    def __init__(self, config: ScenarioConfig):
        self.ledger = Ledger()
        self.rng = random.Random(config.seed)
        self.log = self.ledger.log  # the run log, shared with the ledger
        self.monitor = CoalitionMonitor(config.threshold, config.sessions_required(), self.log)
        self.registry = AttestationRegistry(expected_measurement=measure(RATIFIED_TA))
        self.budget = drain_budget(config)  # deliveries per drain
        self.participants: dict[str, object] = {}
        self.inboxes: dict[str, deque] = {}
        self.memo = PayloadMemo()  # payload roots, for this run only
        self._rotation: list[str] = []

    def register(self, participant) -> None:
        name = participant.name
        self.participants[name] = participant
        self.inboxes[name] = deque()
        self._rotation = sorted(self.participants)
        self.rng.shuffle(self._rotation)

    def send(self, sender: str, receiver: str, message: Message) -> None:
        if receiver not in self.participants:
            raise KeyError(f"unknown participant {receiver!r}")
        self.log.append(Sent(sender, receiver, message.mtype, _payload_digest(message)))
        self.inboxes[receiver].append((sender, message))

    def note(self, text: str) -> None:
        self.log.append(Note(text))

    def drain(self) -> bool:
        """Deliver queued messages round-robin until quiet; True if any moved."""
        delivered_any = False
        steps = 0
        while any(self.inboxes.values()):
            for name in self._rotation:
                queue = self.inboxes[name]
                if queue:
                    sender, message = queue.popleft()
                    self.participants[name].on_message(self, sender, message)
                    delivered_any = True
                    steps += 1
                    if steps > self.budget:
                        raise InvariantViolation("message budget exceeded (livelock?)")
        return delivered_any


# ---------------------------------------------------------------- trace


@dataclass
class ExchangeOutcome:
    reconstructed: dict[int, bytes | None] = field(default_factory=dict)
    expected: dict[int, bytes] = field(default_factory=dict)
    reconstruction_valid: bool = False
    paid_out: int = 0
    escrow_left: int = 0
    exchange_calls: int = 0
    total_calls: int = 0
    paid_sessions: int = 0
    gas_total: int = 0
    refund_to_buyer: int = 0
    settled_sessions: tuple[int, ...] = ()
    refunded_sessions: tuple[int, ...] = ()
    disputes: tuple[str, ...] = ()
    anomalies: tuple[str, ...] = ()
    reverts: tuple[Revert, ...] = ()
    coalition_max: dict[int, int] = field(default_factory=dict)
    finished_reason: str = ""


TRACE_VERSION = "# trace v2"


@dataclass
class Trace:
    config: ScenarioConfig
    script: AdversaryScript
    log: list  # the run's whole log of typed records, in order
    gas_csv: str
    terminal: str
    outcome: ExchangeOutcome

    @property
    def events(self) -> list[Sent]:
        """The run's messages, in order: the log's ``Sent`` records."""
        return [r for r in self.log if type(r) is Sent]

    def serialize(self) -> str:
        lines = [TRACE_VERSION]
        lines.append("[config]")
        lines.append(format_config(self.config).rstrip())
        lines.append("[script]")
        lines.append(repr(self.script.to_dict()))
        lines.append("[events]")
        for seq, e in enumerate(self.events):
            lines.append(f"{seq} {e.sender} {e.receiver} {e.mtype} {e.payload_hash}")
        lines.append("[gas]")
        lines.append(self.gas_csv.rstrip())
        lines.append("[terminal]")
        lines.append(self.terminal.rstrip())
        return "\n".join(lines) + "\n"


def parse_trace_header(text: str) -> tuple[ScenarioConfig, AdversaryScript]:
    """The config and script a trace was run with; every defect in them is
    a :class:`ConfigError`."""
    if "[config]" not in text or "[script]" not in text:
        raise ConfigError("cannot read trace: not a trace file")
    version = text.split("\n", 1)[0]
    if version != TRACE_VERSION:
        raise ConfigError(f"cannot read trace: version {version!r}, expected {TRACE_VERSION!r}")
    config_part = text.split("[config]", 1)[1].split("[script]", 1)[0]
    script_part = text.split("[script]", 1)[1].split("[events]", 1)[0].strip()
    try:
        config = parse_config(config_part)
    except ConfigError as exc:
        raise ConfigError(f"cannot read trace: [config] {exc}") from None
    try:
        script = AdversaryScript.from_dict(literal_eval(script_part))
        script.validate(config)
    except KeyError as exc:
        raise ConfigError(f"cannot read trace: [script] lacks {exc}") from None
    except (ScriptError, SyntaxError, ValueError, TypeError) as exc:
        raise ConfigError(f"cannot read trace: [script] {exc}") from None
    except (RecursionError, MemoryError):  # the parser's limits, hit on deep nesting
        raise ConfigError("cannot read trace: [script] nests too deeply") from None
    return config, script


# ---------------------------------------------------------------- running


def resolve_script(config: ScenarioConfig) -> AdversaryScript:
    catalog = standard_scripts(config)
    try:
        return catalog[config.adversary]
    except KeyError:
        raise ScriptError(
            f"unknown adversary {config.adversary!r}; known: {sorted(catalog)}"
        ) from None


def run_scenario(
    config: ScenarioConfig, script: AdversaryScript | None = None
) -> Trace:
    """Execute all protocol stages end to end under one adversary script."""
    from . import participants as roles

    config.validate()
    if script is None:
        script = resolve_script(config)
    script.validate(config)
    if script.name != config.adversary:
        config = replace(config, adversary=script.name)

    sim = Simulator(config)
    ledger, monitor = sim.ledger, sim.monitor

    setup = roles.stage0_setup(sim, config, script)
    roles.stage1_produce(sim, setup)
    roles.stage2_register(sim, setup)
    roles.stage3_exchange(sim, setup)
    ledger.assert_conserved()

    # payment facts come from the ledger: the buyer was funded the price and
    # each accept call escrowed one session's share of it
    consumer = setup.consumer
    expected = {
        d.provider_index: preprocess(d.raw, d.rule) for d in setup.devices
    }
    balance = ledger.balances.get(consumer.account, 0)
    paid_out = sum(ledger.balances.values()) - balance
    escrow_left = sum(c.escrow_total() for c in ledger.contracts.values())
    price = config.resolved_price()
    calls = ledger.calls()
    paid = paid_sessions(ledger.log)
    status = sorted((ledger.snapshot_buyer(setup.cid, consumer.account) or {}).items())
    outcome = ExchangeOutcome(
        reconstructed=dict(consumer.reconstructed),
        expected=expected,
        reconstruction_valid=consumer.reconstruction_valid,
        paid_out=paid_out,
        escrow_left=escrow_left,
        # calls in the exchange proper: everything except settlement and disputes
        exchange_calls=sum(1 for c in calls if c.function not in ("noComplain", "challenge")),
        total_calls=len(calls),
        paid_sessions=paid,
        gas_total=sum(c.gas for c in calls),
        refund_to_buyer=balance - (price - paid * (price // config.n_nodes)),
        settled_sessions=tuple(j for j, s in status if s is SessionStatus.SETTLED),
        refunded_sessions=tuple(j for j, s in status if s is SessionStatus.REFUNDED),
        disputes=texts(ledger.log, Dispute),
        anomalies=texts(ledger.log, Note),
        reverts=tuple(r for r in ledger.log if type(r) is Revert),
        coalition_max=monitor.max_counts(),
        finished_reason=consumer.finished_reason,
    )
    if monitor.violations:
        raise InvariantViolation("; ".join(monitor.violations))

    terminal_lines = [
        f"block_height={ledger.block_height}",
        f"balances={sorted(ledger.balances.items())}",
        f"reason={outcome.finished_reason}",
        f"valid={outcome.reconstruction_valid}",
        f"paid_sessions={outcome.paid_sessions}",
        f"coalition={sorted(outcome.coalition_max.items())}",
        ledger.contracts[setup.cid].dump().rstrip(),
    ]
    return Trace(
        config=config,
        script=script,
        log=ledger.log,
        gas_csv=ledger.gas_csv(),
        terminal="\n".join(terminal_lines),
        outcome=outcome,
    )


def replay(trace: Trace) -> bool:
    """Re-execute from the trace's config and script; True iff byte-identical."""
    again = run_scenario(trace.config, trace.script)
    return again.serialize() == trace.serialize()
