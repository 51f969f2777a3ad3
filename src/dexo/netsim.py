"""Deterministic message-passing simulator with scriptable Byzantine faults.

Participants exchange messages over authenticated FIFO channels; a fixed
(seed-shuffled) rotation delivers one message per ready participant per step,
so a run is a pure function of (config, script, seed). When the network goes
quiet the simulator ticks participants, and if still quiet advances the block
height, which drives timeout settlement. Every message and every metered
ledger call ends up in the trace, which can be re-executed and compared
byte-for-byte.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field, replace

from .config import ScenarioConfig
from .crypto import SecretShare
from .ledger import Ledger
from .tee import AttestationReport

NODE_ACTIONS = frozenset(
    {
        "drop",
        "corrupt_bytes",
        "substitute_share",
        "equivocate",
        "leak_to",
        "withhold_key",
        "wrong_key",
        "refuse",
        "leak_key",
    }
)
SERVER_ACTIONS = frozenset({"permute", "oversell"})
CONSUMER_ACTIONS = frozenset({"refuse"})
PROVIDER_ACTIONS = frozenset({"tamper_tee"})


class ScriptError(Exception):
    pass


class InvariantViolation(Exception):
    pass


@dataclass(frozen=True)
class Rule:
    trigger: str  # stage or decision point, e.g. "stage2_commit"
    action: str
    target: int = 0  # node index or provider index; 0 = all corrupted


@dataclass(frozen=True)
class AdversaryScript:
    name: str = "HONEST"
    corrupted_nodes: frozenset[int] = frozenset()
    corrupted_roles: frozenset[str] = frozenset()  # subset of {consumer, server}
    tampered_providers: frozenset[int] = frozenset()
    rules: tuple[Rule, ...] = ()
    requires_shared_key: bool = False

    def node_action(self, node_index: int, action: str, trigger: str) -> bool:
        if node_index not in self.corrupted_nodes:
            return False
        return any(
            r.action == action
            and r.trigger == trigger
            and r.target in (0, node_index)
            for r in self.rules
        )

    def role_action(self, role: str, action: str, trigger: str) -> bool:
        if role not in self.corrupted_roles:
            return False
        return any(r.action == action and r.trigger == trigger for r in self.rules)

    def rule_for(self, action: str) -> Rule | None:
        for r in self.rules:
            if r.action == action:
                return r
        return None

    def validate(self, config: ScenarioConfig) -> None:
        if len(self.corrupted_nodes) > config.max_faulty:
            raise ScriptError(
                f"{self.name}: {len(self.corrupted_nodes)} corrupted nodes exceed "
                f"F={config.max_faulty}"
            )
        if any(not 1 <= j <= config.n_nodes for j in self.corrupted_nodes):
            raise ScriptError(f"{self.name}: corrupted node out of range")
        if self.requires_shared_key and not config.shared_key:
            raise ScriptError(f"{self.name} requires the shared_key optimization")
        for r in self.rules:
            known = NODE_ACTIONS | SERVER_ACTIONS | CONSUMER_ACTIONS | PROVIDER_ACTIONS
            if r.action not in known:
                raise ScriptError(f"unknown action {r.action!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "corrupted_nodes": sorted(self.corrupted_nodes),
            "corrupted_roles": sorted(self.corrupted_roles),
            "tampered_providers": sorted(self.tampered_providers),
            "rules": [[r.trigger, r.action, r.target] for r in self.rules],
            "requires_shared_key": self.requires_shared_key,
        }

    @staticmethod
    def from_dict(data: dict) -> "AdversaryScript":
        return AdversaryScript(
            name=data["name"],
            corrupted_nodes=frozenset(data["corrupted_nodes"]),
            corrupted_roles=frozenset(data["corrupted_roles"]),
            tampered_providers=frozenset(data["tampered_providers"]),
            rules=tuple(Rule(*r) for r in data["rules"]),
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
            rules=(Rule("stage3_reveal", "withhold_key"),),
        ),
        "TAMPER_SHARES": AdversaryScript(
            name="TAMPER_SHARES",
            corrupted_nodes=low,
            rules=(Rule("stage2_commit", "substitute_share"),),
        ),
        "SOURCE_NODE_COLLUSION": AdversaryScript(
            name="SOURCE_NODE_COLLUSION",
            corrupted_nodes=low,
            corrupted_roles=frozenset({"server"}),
            rules=(Rule("stage1_produce", "oversell"),),
        ),
        "CONSUMER_NODE_COLLUSION": AdversaryScript(
            name="CONSUMER_NODE_COLLUSION",
            corrupted_nodes=low,
            corrupted_roles=frozenset({"consumer"}),
            rules=(
                Rule("stage1_receive", "leak_to"),
                Rule("stage3_pay", "refuse"),
            ),
        ),
        "SHARED_KEY_LEAK": AdversaryScript(
            name="SHARED_KEY_LEAK",
            corrupted_nodes=frozenset({leak_member}) | outsiders,
            corrupted_roles=frozenset({"consumer"}),
            rules=(
                Rule("stage2_key", "leak_key", leak_member),
                Rule("stage1_receive", "leak_to"),
                Rule("stage3_pay", "refuse"),
            ),
            requires_shared_key=True,
        ),
        "SERVER_PERMUTE": AdversaryScript(
            name="SERVER_PERMUTE",
            corrupted_roles=frozenset({"server"}),
            rules=(Rule("stage1_forward", "permute"),),
        ),
        "TAMPERED_TEE_PROVIDER": AdversaryScript(
            name="TAMPERED_TEE_PROVIDER",
            tampered_providers=frozenset({1}),
            rules=(Rule("stage0_install", "tamper_tee", 1),),
        ),
    }
    return catalog


# ---------------------------------------------------------------- monitor


class CoalitionMonitor:
    """Tracks how many distinct shares per provider the adversary coalition
    holds; reaching the threshold without the consumer having paid for the
    protocol's full session count is a confidentiality violation.
    """

    def __init__(self, threshold: int, sessions_required: int):
        self.threshold = threshold
        self.sessions_required = sessions_required
        self.known: dict[int, set[int]] = {}
        self.paid_sessions = 0
        self.violations: list[str] = []

    def record_share(self, provider: int, x: int) -> None:
        self.known.setdefault(provider, set()).add(x)
        count = len(self.known[provider])
        if count >= self.threshold and self.paid_sessions < self.sessions_required:
            self.violations.append(
                f"coalition holds {count} shares of provider {provider} with only "
                f"{self.paid_sessions}/{self.sessions_required} sessions paid"
            )

    def record_payment(self) -> None:
        self.paid_sessions += 1

    def max_counts(self) -> dict[int, int]:
        return {p: len(xs) for p, xs in sorted(self.known.items())}


# ---------------------------------------------------------------- simulator


def _feed(h, value) -> None:
    """Feed a payload value into a hash without building large reprs."""
    if isinstance(value, bytes):
        h.update(b"b")
        h.update(value)
    elif isinstance(value, SecretShare):
        h.update(b"S")
        h.update(value.provider_index.to_bytes(2, "big"))
        h.update(bytes((value.node_index, value.x_coordinate)))
        h.update(value.y_values)
    elif isinstance(value, AttestationReport):
        h.update(b"R")
        _feed(h, value.share)
        h.update(value.measurement.digest)
        h.update(value.signature)
        h.update(value.platform_public_key)
    elif isinstance(value, (list, tuple)):
        h.update(b"l")
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(b"d")
        for k in sorted(value):
            h.update(str(k).encode())
            _feed(h, value[k])
    elif hasattr(value, "__dataclass_fields__"):
        h.update(type(value).__name__.encode())
        for name in value.__dataclass_fields__:
            if not name.startswith("_"):
                _feed(h, getattr(value, name))
    else:
        h.update(repr(value).encode())


def _payload_digest(mtype: str, payload: dict) -> str:
    h = hashlib.sha256(mtype.encode())
    _feed(h, payload)
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Message:
    sender: str
    receiver: str
    mtype: str
    payload: dict


@dataclass(frozen=True)
class Event:
    seq: int
    sender: str
    receiver: str
    mtype: str
    payload_hash: str


class Simulator:
    def __init__(self, ledger: Ledger, rng: random.Random, monitor: CoalitionMonitor):
        self.ledger = ledger
        self.rng = rng
        self.monitor = monitor
        self.participants: dict[str, object] = {}
        self.inboxes: dict[str, deque] = {}
        self.events: list[Event] = []
        self.anomalies: list[str] = []
        self._rotation: list[str] = []

    def register(self, participant) -> None:
        name = participant.name
        self.participants[name] = participant
        self.inboxes[name] = deque()
        self._rotation = sorted(self.participants)
        self.rng.shuffle(self._rotation)

    def send(self, sender: str, receiver: str, mtype: str, payload: dict) -> None:
        if receiver not in self.participants:
            raise KeyError(f"unknown participant {receiver!r}")
        msg = Message(sender, receiver, mtype, payload)
        digest = _payload_digest(mtype, payload)
        self.events.append(
            Event(len(self.events), sender, receiver, mtype, digest)
        )
        self.inboxes[receiver].append(msg)

    def note(self, text: str) -> None:
        self.anomalies.append(text)

    def drain(self, max_steps: int = 200_000) -> bool:
        """Deliver queued messages round-robin until quiet; True if any moved."""
        delivered_any = False
        steps = 0
        while any(self.inboxes.values()):
            for name in self._rotation:
                queue = self.inboxes[name]
                if queue:
                    msg = queue.popleft()
                    self.participants[name].on_message(self, msg)
                    delivered_any = True
                    steps += 1
                    if steps > max_steps:
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
    coalition_max: dict[int, int] = field(default_factory=dict)
    finished_reason: str = ""


@dataclass
class Trace:
    config: ScenarioConfig
    script: AdversaryScript
    events: list[Event]
    gas_csv: str
    terminal: str
    outcome: ExchangeOutcome

    def serialize(self) -> str:
        from .config import format_config

        lines = ["# trace v1"]
        lines.append("[config]")
        lines.append(format_config(self.config).rstrip())
        lines.append("[script]")
        lines.append(repr(self.script.to_dict()))
        lines.append("[events]")
        for e in self.events:
            lines.append(f"{e.seq} {e.sender} {e.receiver} {e.mtype} {e.payload_hash}")
        lines.append("[gas]")
        lines.append(self.gas_csv.rstrip())
        lines.append("[terminal]")
        lines.append(self.terminal.rstrip())
        return "\n".join(lines) + "\n"


def parse_trace_header(text: str) -> tuple[ScenarioConfig, AdversaryScript]:
    from ast import literal_eval

    from .config import parse_config

    if "[config]" not in text or "[script]" not in text:
        raise ValueError("not a trace file")
    config_part = text.split("[config]", 1)[1].split("[script]", 1)[0]
    script_part = text.split("[script]", 1)[1].split("[events]", 1)[0].strip()
    config = parse_config(config_part)
    script = AdversaryScript.from_dict(literal_eval(script_part))
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

    rng = random.Random(config.seed)
    ledger = Ledger()
    sessions_required = (
        config.max_faulty + 1 if config.shared_key else config.threshold
    )
    monitor = CoalitionMonitor(config.threshold, sessions_required)
    sim = Simulator(ledger, rng, monitor)

    setup = roles.stage0_setup(sim, config, script)
    roles.stage1_produce(sim, setup)
    roles.stage2_register(sim, setup)
    roles.stage3_exchange(sim, setup)
    ledger.assert_conserved()

    consumer = setup.consumer
    from .tee import preprocess

    expected = {
        d.provider_index: preprocess(d.raw, d.rule) for d in setup.devices
    }
    paid_out = sum(ledger.balances.values()) - ledger.balances.get("consumer", 0)
    escrow_left = sum(c.escrow_total() for c in ledger.contracts.values())
    outcome = ExchangeOutcome(
        reconstructed=dict(consumer.reconstructed),
        expected=expected,
        reconstruction_valid=consumer.reconstruction_valid,
        paid_out=paid_out,
        escrow_left=escrow_left,
        exchange_calls=ledger.exchange_call_count(),
        total_calls=ledger.call_count(),
        paid_sessions=consumer.paid_sessions,
        gas_total=ledger.total_gas(),
        refund_to_buyer=consumer.refunds_received(ledger),
        settled_sessions=consumer.sessions_in_state("SETTLED", ledger),
        refunded_sessions=consumer.sessions_in_state("REFUNDED", ledger),
        disputes=tuple(consumer.dispute_log),
        anomalies=tuple(sim.anomalies),
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
    ]
    if setup.cid is not None:
        terminal_lines.append(ledger.contracts[setup.cid].dump().rstrip())
    return Trace(
        config=config,
        script=script,
        events=sim.events,
        gas_csv=ledger.gas_csv(),
        terminal="\n".join(terminal_lines),
        outcome=outcome,
    )


def replay(trace: Trace) -> bool:
    """Re-execute from the trace's config and script; True iff byte-identical."""
    again = run_scenario(trace.config, trace.script)
    return again.serialize() == trace.serialize()
