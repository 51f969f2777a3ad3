"""Participant state machines: provider devices, their server, oracle nodes,
and the consumer, each driven purely by received messages and ledger state.

Stage 0 builds the trusted app of every device and deploys the contract.
Stage 1 solicits raw data; devices preprocess, share, and sign inside the
TEE, and the server relays share j to node j. Stage 2 has each node attest
every provider's report, encrypt its shares under a fresh (or group) key,
and register the digest and key commitment on-chain. Stage 3 is the
consumer-driven exchange: query, off-chain ciphertext delivery, Merkle
verification, escrowed payments, key reveals, decryption, reconstruction,
and settlement or dispute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import tee, wire
from .config import ScenarioConfig
from .crypto import (
    KeyMaterial,
    SecretShare,
    commit,
    keystream_xor,
    reconstruct,
)
from .ledger import (
    BadKeyError,
    ChallengeResult,
    DataDescription,
    LedgerError,
    Listing,
    SessionStatus,
    conforms_to_description,
)
from .netsim import Action, AdversaryScript, Dispute, Simulator


def _device_rule(config: ScenarioConfig, oversold: bool) -> tee.PreprocessingRule:
    if oversold:
        # the scam: devices format against the full byte range while the
        # listing advertises a narrower one
        return tee.PreprocessingRule(
            kind="clamp", value_min=0, value_max=255, window=config.window
        )
    return tee.PreprocessingRule(
        kind=config.preprocessing,
        value_min=config.value_min,
        value_max=config.value_max,
        window=config.window,
    )


def _device_readings(config: ScenarioConfig, rng: random.Random, oversold: bool) -> list[int]:
    count = config.datum_size_bytes
    if config.preprocessing == "moving_average":
        count += config.window - 1
    if oversold:
        return _uniform_ints(rng, config.value_max + 1, 255, count)
    return _uniform_ints(rng, config.value_min, config.value_max, count)


def _uniform_ints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` draws of ``rng.randint(lo, hi)``, without its per-call cost.

    Each value is ``lo + r`` for the first ``r = getrandbits(k)`` below the
    span, k being the span's bit length. That is CPython's own rule for
    ``randint``, so the values and the generator's final state are the same.
    """
    span = hi - lo + 1
    if span < 1:
        raise ValueError(f"empty range [{lo}, {hi}]")
    bits, draw = span.bit_length(), rng.getrandbits
    values = []
    while len(values) < count:
        r = draw(bits)
        if r < span:
            values.append(lo + r)
    return values


# ---------------------------------------------------------------- device
# one frozen record per message kind; its class attribute ``mtype`` names it in a trace


@dataclass(frozen=True, slots=True)
class AttReport:
    mtype = "att_report"
    provider: int  # restates the sender, which the channel already names
    measurement: tee.RuntimeMeasurement
    signature: bytes
    mpk: bytes


@dataclass(frozen=True, slots=True)
class DataShares:
    mtype = "data_shares"
    reports: list[tee.AttestationReport]


class DeviceHost:
    """Host side of one provider device; its trusted app does the real work."""

    def __init__(
        self,
        provider_index: int,
        app: tee.TeePlatform,
        raw: bytes,
        rule: tee.PreprocessingRule,
        config: ScenarioConfig,
    ):
        self.name = f"device-{provider_index}"
        self.provider_index = provider_index
        self.app = app
        self.raw = raw
        self.rule = rule
        self.config = config

    def on_message(self, sim: Simulator, sender: str, message: Message) -> None:
        match message:
            case Attest():
                sim.send(self.name, sender,
                         AttReport(self.provider_index, *self.app.resume_attest()))
            case Solicit():
                reports = self.app.resume_gendata(
                    n=self.config.n_nodes, t=self.config.threshold, raw=self.raw,
                    rule=self.rule, provider_index=self.provider_index)
                sim.send(self.name, sender, DataShares(reports))


# ---------------------------------------------------------------- server


@dataclass(frozen=True, slots=True)
class Attest:
    mtype = "attest"


@dataclass(frozen=True, slots=True)
class Solicit:
    mtype = "solicit"


@dataclass(frozen=True, slots=True)
class ShareDelivery:
    mtype = "share_delivery"
    report: tee.AttestationReport


@dataclass(frozen=True, slots=True)
class Register:
    mtype = "register"


class PDAppServer:
    """Frontend of the provider app: relays shares, never retains them."""

    name = "server"
    account = "server"

    def __init__(self, config: ScenarioConfig, script: AdversaryScript):
        self.config = config
        self.script = script

    def deploy(self, sim: Simulator) -> str:
        config = self.config
        desc = DataDescription(
            datum_size=config.datum_size_bytes,
            value_min=config.value_min,
            value_max=config.value_max,
            providers=config.providers,
            n_nodes=config.n_nodes,
            threshold=config.threshold,
            timeout_blocks=config.timeout_blocks,
        )
        return sim.ledger.create_contract(
            caller=self.account,
            seller_nodes=[f"node-{j}" for j in range(1, config.n_nodes + 1)],
            data_sources=[f"provider-{i}" for i in range(1, config.providers + 1)],
            price=config.resolved_price(),
            desc=desc,
            node_fee=config.node_fee,
        )

    def on_message(self, sim: Simulator, sender: str, message: Message) -> None:
        match message:
            case AttReport(provider, measurement, _, mpk):
                if not sim.registry.admits(mpk, measurement):
                    sim.note(f"server: device {provider} failed attestation")
            case DataShares(reports):
                self._relay(sim, reports)

    def _relay(self, sim: Simulator, reports: list[tee.AttestationReport]) -> None:
        destinations = {r.share.node_index: r for r in reports}
        if self.script.acts(Action.PERMUTE, reports[0].share.provider_index):
            destinations[2], destinations[3] = destinations[3], destinations[2]
        for node_index, report in sorted(destinations.items()):
            sim.send(self.name, f"node-{node_index}", ShareDelivery(report))


# ---------------------------------------------------------------- node


@dataclass(frozen=True, slots=True)
class LeakedShare:
    mtype = "leaked_share"
    share: SecretShare


@dataclass(frozen=True, slots=True)
class GroupKey:
    mtype = "group_key"
    key: KeyMaterial


@dataclass(frozen=True, slots=True)
class LeakedKey:
    mtype = "leaked_key"
    key: KeyMaterial


@dataclass(frozen=True, slots=True)
class Ciphertext:
    mtype = "ciphertext"
    cipher: bytes
    openings: bytes


@dataclass(frozen=True, slots=True)
class NoticeKey:
    mtype = "notice_key"


class DexoNode:
    """One oracle-network node: custodian of the j-th share of every datum."""

    def __init__(self, index: int, config: ScenarioConfig, script: AdversaryScript,
                 cid: str, key_seed: bytes):
        self.index = index
        self.name = f"node-{index}"
        self.account = self.name
        self.config = config
        self.script = script
        self.cid = cid
        self.rng = random.Random(key_seed)
        self.received: dict[int, tee.AttestationReport] = {}  # by provider
        self.key: KeyMaterial | None = None
        self.group_key: KeyMaterial | None = None
        self.cipher: bytes | None = None
        self.openings: bytes | None = None
        self.reveal_attempted = False

    def _act(self, action: Action) -> bool:
        return self.script.acts(action, self.index)

    def on_message(self, sim: Simulator, sender: str, message: Message) -> None:
        match message:
            case ShareDelivery(report):
                self._on_share_delivery(sim, report)
            case GroupKey(key):
                self.group_key = key
                self._maybe_leak_key(sim, key)
            case Register():
                self._on_register(sim)
            case NoticeBuy():
                self._on_notice_buy(sim, sender)
            case NoticeAccept():
                self._on_notice_accept(sim, sender)

    def _on_share_delivery(self, sim: Simulator, report: tee.AttestationReport) -> None:
        share = report.share
        self.received[share.provider_index] = report
        if self.index in self.script.corrupted_nodes:
            sim.monitor.record_share(share.provider_index, share.x_coordinate)
        if self._act(Action.LEAK_TO):
            sim.send(self.name, "consumer", LeakedShare(share))

    def form_group(self, sim: Simulator, members: list[int]) -> None:
        """Lead the priority group: draw its key and send it to ``members``."""
        self.group_key = KeyMaterial(self.rng.randbytes(32))
        self._maybe_leak_key(sim, self.group_key)
        for j in members:
            sim.send(self.name, f"node-{j}", GroupKey(self.group_key))

    def _maybe_leak_key(self, sim: Simulator, key: KeyMaterial) -> None:
        if self._act(Action.LEAK_KEY):
            sim.send(self.name, "consumer", LeakedKey(key))

    def _on_register(self, sim: Simulator) -> None:
        reports = [self.received[p] for p in sorted(self.received)]
        self.received.clear()  # registration is their only reader
        if self._act(Action.REFUSE_REGISTER):
            sim.note(f"{self.name}: refused to register")
            return
        failed = [r for r in reports if not tee.attest_report(sim.registry, r)]
        for report in failed:
            sim.note(f"{self.name}: attestation failed for provider "
                     f"{report.share.provider_index}")
        if failed or len(reports) < self.config.providers:
            return
        shares = [r.share for r in reports]
        # one random draw per share: it replaces the share's bytes, or masks them
        substitute = self._act(Action.SUBSTITUTE_SHARE)
        if substitute or self._act(Action.CORRUPT_BYTES):
            shares = [
                SecretShare(s.provider_index, s.node_index, s.x_coordinate,
                            bytes(m if substitute else b ^ m for b, m in
                                  zip(s.y_values, self.rng.randbytes(len(s.y_values)))))
                for s in shares
            ]
        self.key = self.group_key or KeyMaterial(self.rng.randbytes(32))
        if self.group_key is None:
            self._maybe_leak_key(sim, self.key)
        nonce = wire.payload_nonce(sim.ledger.snapshot_listing(self.cid).tid)
        payload = wire.encode_node_payload(shares)
        self.cipher = keystream_xor(self.key, payload, nonce)
        # sealed from the reports as received, so a share altered above no
        # longer opens to its device's signed root
        self.openings = tee.seal_openings(reports, self.key, nonce, self.index)
        sim.ledger.initialize(
            self.account, self.cid, sim.memo.root(self.cipher), commit(self.key)
        )

    def _on_notice_buy(self, sim: Simulator, buyer: str) -> None:
        status = sim.ledger.read(self.account, self.cid, buyer, self.index)
        if status is not SessionStatus.QUERIED or self.cipher is None:
            return
        if self._act(Action.DROP):
            sim.note(f"{self.name}: dropped ciphertext delivery")
            return
        cipher = self.cipher
        if self._act(Action.EQUIVOCATE):
            cipher = bytes([cipher[0] ^ 0xFF]) + cipher[1:]
            sim.note(f"{self.name}: equivocated on delivery")
        sim.send(self.name, buyer, Ciphertext(cipher, self.openings))

    def _on_notice_accept(self, sim: Simulator, buyer: str) -> None:
        status = sim.ledger.read(self.account, self.cid, buyer, self.index)
        if status is not SessionStatus.ACCEPTED or self.reveal_attempted:
            return
        self.reveal_attempted = True
        if self._act(Action.WITHHOLD_KEY):
            sim.note(f"{self.name}: withheld key")
            return
        key = self.key
        if self._act(Action.WRONG_KEY):
            key = KeyMaterial(self.rng.randbytes(32))
        try:
            sim.ledger.reveal_key(self.account, self.cid, key)
        except BadKeyError:
            sim.note(f"{self.name}: reveal rejected (bad key)")
            return
        if self._act(Action.SILENT_REVEAL):
            sim.note(f"{self.name}: revealed its key without notice")
            return
        sim.send(self.name, buyer, NoticeKey())


# ---------------------------------------------------------------- consumer


@dataclass(frozen=True, slots=True)
class NoticeBuy:
    mtype = "notice_buy"


@dataclass(frozen=True, slots=True)
class NoticeAccept:
    mtype = "notice_accept"


Message = (Attest | AttReport | Solicit | DataShares | ShareDelivery | LeakedShare | GroupKey
           | LeakedKey | Register | NoticeBuy | Ciphertext | NoticeAccept | NoticeKey)


@dataclass(eq=False)  # the consumer extends it, and a participant is compared by identity
class BuyerView:
    """What the buyer's policy reads: the listing's terms, what the buyer has
    verified, its sessions' status on the chain and what woke it (a
    ciphertext, a node's notice that its key is out, or a quiet network).
    The executor updates it in place; a policy only reads it. Each fact is
    held once: the sessions bought are the chain's, and a payload is opened
    exactly when its openings blob has been taken."""

    config: ScenarioConfig
    listing: Listing | None = None
    responded: set[int] = field(default_factory=set)  # nodes that sent a ciphertext
    delivered: dict[int, bytes] = field(default_factory=dict)  # digest-verified ciphertexts
    openings: dict[int, bytes] = field(default_factory=dict)  # blob of each unopened payload
    keys: set[int] = field(default_factory=set)  # sessions whose key was read off the chain
    node_shares: dict[int, dict[int, SecretShare]] = field(default_factory=dict)
    # (node, provider) of every held share that opens to its device's root
    authentic: set[tuple[int, int]] = field(default_factory=set)
    status: dict[int, SessionStatus] | None = None  # None before the query
    # what woke the buyer, until the executor has acted on it
    quiet: bool = False  # the network is quiet
    notice: int | None = None  # the node whose key notice arrived
    quiet_ticks: int = 0
    judged: bool = False  # a verdict covers every session bought
    reconstructed: dict[int, bytes | None] = field(default_factory=dict)
    rulings: dict[str, ChallengeResult | None] = field(default_factory=dict)  # None: rejected
    finished_reason: str = ""

    @property
    def reconstruction_valid(self) -> bool:
        """Every provider's datum was reconstructed and meets the description."""
        return bool(self.reconstructed) and all(
            d is not None and conforms_to_description(d, self.listing.desc)
            for d in self.reconstructed.values()
        )


# the buyer's steps, one type per action


@dataclass(frozen=True)
class Query:
    """Open a session with every node, then ask each for its ciphertext."""


@dataclass(frozen=True)
class Accept:
    nodes: tuple[int, ...]
    notify: tuple[int, ...]  # the nodes told afterwards that sessions were accepted


@dataclass(frozen=True)
class TakeKey:
    node: int


@dataclass(frozen=True)
class Verdict:
    reconstructed: dict[int, bytes | None]


@dataclass(frozen=True)
class Challenge:
    case: int
    label: str
    first: list[tuple[SecretShare, int]]  # (share, source node) entries
    second: list[tuple[SecretShare, int]]


@dataclass(frozen=True)
class Settle:
    """Call noComplain."""


@dataclass(frozen=True)
class Finish:
    reason: str


Step = Query | Accept | TakeKey | Verdict | Challenge | Settle | Finish


def decide(view: BuyerView) -> list[Step]:
    """The honest buyer's policy, one clause per rule: its next steps, given
    what it has verified. It changes nothing; the executor performs the
    steps, folds their results into the view and asks again until none is
    left."""
    config, status, desc, t = view.config, view.status, view.listing.desc, view.config.threshold
    if view.finished_reason:
        return []
    if not view.listing.initialized:
        return [Finish("listing-never-initialized")]
    if status is None:
        return [Query()]
    bought = _bought(view)
    if not bought:
        # buy once every node has answered or the network is quiet; give up
        # when nothing can be bought and no answer is left to wait for
        all_in = len(view.responded) == config.n_nodes
        if not (all_in or view.quiet):
            return []
        if chosen := _choose_sessions(view):
            return [Accept(tuple(chosen), tuple(range(1, config.n_nodes + 1)))]
        return [Finish("too-few-valid-deliveries")] if all_in or view.quiet_ticks > 2 else []
    if not view.judged:
        # read the keys of live (bought, unrefunded) sessions: a notice reads
        # its own key; a quiet tick reads every key the chain shows as out
        live = [j for j in bought if status[j] is not SessionStatus.REFUNDED]
        reads = [TakeKey(j) for j in live if j not in view.keys and (
            j == view.notice or view.quiet and status[j] is SessionStatus.KEY_OUT)]
        if reads:
            return reads
        # replace sessions refunded by timeout
        missing = config.sessions_required() - len(live)
        if missing > 0 and (replacements := _buyable(view)[:missing]):
            return [Accept((j,), (j,)) for j in replacements]  # each node notified alone
        # once every live session's key is in, reconstruct each provider from
        # its first t authentic shares
        if any(j not in view.keys for j in live):
            return []
        data = {}
        for provider in range(1, config.providers + 1):
            entries = _reference(view, provider, t)
            data[provider] = (reconstruct(t, config.n_nodes, [s for s, _ in entries])
                              if len(entries) == t else None)
        return [Verdict(data)]
    if view.reconstruction_valid:
        # accuse, provider by provider, every held share that fails
        # authentication, skipping nodes already refunded
        for provider in range(1, config.providers + 1):
            label = f"case2 provider {provider}"
            suspects = [
                (shares[provider], j) for j, shares in sorted(view.node_shares.items())
                if (j, provider) not in view.authentic
                and status.get(j) is not SessionStatus.REFUNDED
            ]
            if suspects and label not in view.rulings:
                return [Challenge(2, label, _reference(view, provider, t), suspects)]
        # accuse each mislabeled share alone; the contract rejects it if its
        # data lies on the references' polynomial
        mislabeled = sorted(
            (provider, j) for j, shares in view.node_shares.items()
            for provider, share in shares.items() if share.node_index != j
        )
        for provider, j in mislabeled:
            label = f"case2 node {j} provider {provider} (mislabel probe)"
            if label not in view.rulings:
                return [Challenge(2, label, _reference(view, provider, t),
                                  [(view.node_shares[j][provider], j)])]
        # settle, calling noComplain only while a session is KEY_OUT
        settle = [Settle()] if SessionStatus.KEY_OUT in status.values() else []
        return [*settle, Finish("settled")]
    # data that fails the description: buy every verified delivery still
    # buyable to gain authentic shares
    if remaining := _buyable(view):
        return [Accept((j,), (j,)) for j in remaining]
    # with none left, two differing (t+1)-sets of a failing provider's
    # authentic shares prove that its device's data breaks the description
    # (case 1) and return all escrow; otherwise give up, and timeouts settle
    if any(ruling is not None and ruling.accepted for ruling in view.rulings.values()):
        return [Finish("aborted-by-dispute")]
    for provider, datum in view.reconstructed.items():
        label = f"case1 provider {provider}"
        if label in view.rulings or (
                datum is not None and conforms_to_description(datum, desc)):
            continue
        entries = _reference(view, provider, t + 2)
        if len(entries) == t + 2:
            return [Challenge(1, label, entries[: t + 1], entries[:t] + entries[t + 1 :])]
    return [Finish("no-valid-reconstruction")]


def refuse_payment(view: BuyerView) -> list[Step]:
    """A buyer that never pays: the honest buyer's steps, except that
    wherever they would buy, it finishes instead."""
    steps = decide(view)
    if any(isinstance(step, Accept) for step in steps):
        return [Finish("refused-payment")]
    return steps


def _choose_sessions(view: BuyerView) -> list[int] | None:
    config = view.config
    valid = sorted(view.delivered)
    needed = config.sessions_required()
    group = config.priority_group()
    if group:
        leader = next((j for j in group if j in valid), None)
        outside = [j for j in valid if j not in group]
        if leader is not None and len(outside) >= needed - 1:
            return [leader] + outside[: needed - 1]
        # degenerate: fall back to plain threshold selection
        needed = config.threshold
    return valid[:needed] if len(valid) >= needed else None


def _bought(view: BuyerView) -> list[int]:
    """Every session bought: only an accept moves a session off QUERIED."""
    return sorted(j for j, s in view.status.items() if s is not SessionStatus.QUERIED)


def _buyable(view: BuyerView) -> list[int]:
    """Verified deliveries still open for purchase. Sessions whose shares the
    buyer already holds are left out: a priority-group member opened by its
    leader's key would never move to KEY_OUT if bought."""
    return [
        j for j in sorted(view.delivered)
        if j not in view.node_shares and view.status.get(j) is SessionStatus.QUERIED
    ]


def _reference(view: BuyerView, provider: int, count: int) -> list[tuple[SecretShare, int]]:
    """Up to ``count`` authentic (share, node) entries for one provider:
    nodes in ascending order, skipping a repeated x-coordinate."""
    entries: list[tuple[SecretShare, int]] = []
    xs: set[int] = set()
    for j, shares in sorted(view.node_shares.items()):
        share = shares[provider]
        if (j, provider) in view.authentic and share.x_coordinate not in xs:
            entries.append((share, j))
            xs.add(share.x_coordinate)
            if len(entries) == count:
                break
    return entries


class Consumer(BuyerView):
    """The buyer: the one executor of its policy over its own view, which is
    :func:`decide`, or :func:`refuse_payment` when the script has it refuse.
    It folds what reaches it into the view, performs each step the policy
    returns through the simulator and the ledger, and folds the result back.

    The consumer trusts only shares its devices made. Every node forwards, in
    its openings blob, each share's salt and Merkle path together with the
    root its device signed; when a key opens node j's payload, the consumer
    checks each of its shares against those openings and keeps the verdict.
    """

    name = "consumer"
    account = "consumer"

    def __init__(self, config: ScenarioConfig, script: AdversaryScript, cid: str):
        super().__init__(config)
        self.policy = refuse_payment if script.acts(Action.REFUSE_PAYMENT, 0) else decide
        self.cid = cid
        self.corrupted = "consumer" in script.corrupted_roles
        # a node's index comes from the authenticated channel it sends on
        self.node_index = {f"node-{j}": j for j in range(1, config.n_nodes + 1)}
        self._leaked_keys: list[KeyMaterial] = []

    @property
    def finished(self) -> bool:
        return bool(self.finished_reason)

    # -- what wakes the buyer

    def start(self, sim: Simulator) -> None:
        self.listing = sim.ledger.snapshot_listing(self.cid)
        self._run(sim)

    def on_message(self, sim: Simulator, sender: str, message: Message) -> None:
        if self.finished:
            return
        match message:
            case Ciphertext(cipher, openings):
                j = self.node_index[sender]
                self.responded.add(j)
                if sim.memo.root(cipher) == self.listing.delta[j]:
                    self.delivered[j] = cipher
                    self.openings[j] = openings
                    for key in self._leaked_keys:
                        self._open_with(sim, key)
                else:
                    sim.note(f"consumer: digest mismatch from node {j}")
                self._run(sim)
            case NoticeKey():
                self._run(sim, notice=self.node_index[sender])
            case LeakedKey(key) if self.corrupted:
                # keys leak in stage 2, before the listing is fetched; each is
                # tried on every ciphertext as it arrives
                self._leaked_keys.append(key)

    def on_tick(self, sim: Simulator) -> None:
        """Called when the network is quiet; handles drops and timeouts."""
        if not self.finished:
            self.quiet_ticks += 1
            self._run(sim, quiet=True)

    # -- the executor

    def _run(self, sim: Simulator, quiet: bool = False, notice: int | None = None) -> None:
        """Perform the policy's steps until it has none left. What woke the
        buyer holds for the first round only; every round reads the chain's
        session status afresh."""
        self.quiet, self.notice = quiet, notice
        while True:
            self.status = sim.ledger.snapshot_buyer(self.cid, self.account)
            steps = self.policy(self)
            if not steps:
                return
            for step in steps:
                self._perform(sim, step)
            self.quiet, self.notice = False, None

    def _perform(self, sim: Simulator, step: Step) -> None:
        ledger, account, cid = sim.ledger, self.account, self.cid
        match step:
            case Query():
                # None: one merged query opens every session
                merged = self.config.merged_query
                for j in [None] if merged else range(1, self.config.n_nodes + 1):
                    ledger.query(account, cid, node_index=j)
                for name in self.node_index:
                    sim.send(self.name, name, NoticeBuy())
            case Accept(nodes, notify):
                for j in nodes:
                    ledger.accept(account, cid, j, self.listing.session_price)
                for j in notify:
                    sim.send(self.name, f"node-{j}", NoticeAccept())
                self.judged = False
            case TakeKey(j):
                key = ledger.check_key(account, cid, j)
                if key is not None:
                    self.keys.add(j)
                    self._open_with(sim, key)
            case Verdict(reconstructed):
                self.reconstructed, self.judged = reconstructed, True
            case Challenge(case, label, first, second):
                submit = ledger.challenge_case1 if case == 1 else ledger.challenge_case2
                size = self.config.datum_size_bytes
                first_ev, second_ev = (
                    [wire.build_share_evidence(s, j, self.delivered[j], size) for s, j in entries]
                    for entries in (first, second)
                )
                try:
                    result = submit(account, cid, first_ev, second_ev)
                except LedgerError as exc:
                    result, ruling = None, f"rejected ({exc})"
                else:
                    ruling = f"accepted={result.accepted} refunded={list(result.refunded_nodes)}"
                self.rulings[label] = result
                sim.log.append(Dispute(f"{label}: {ruling}"))
            case Settle():
                ledger.no_complain(account, cid)
            case Finish(reason):
                self.finished_reason = reason

    def _open_with(self, sim: Simulator, key: KeyMaterial) -> None:
        """Open every payload whose openings blob is still held and whose
        commitment ``key`` opens: a session's own key, a priority group's, or
        a leaked one. The blob is taken as the payload opens, so each opens
        once. A share is authentic if it opens to its device's signed root;
        the proof's leaf is the share's own node label, and a missing or
        malformed blob authenticates nothing. A payload off the listing's
        layout is noted and gives no shares. A corrupted consumer's monitor
        counts every share it opens.
        """
        opened = commit(key)
        desc = self.listing.desc
        nonce = wire.payload_nonce(self.listing.tid)
        for j, com in self.listing.commitment.items():
            if com != opened or j not in self.openings:
                continue
            openings = self.openings.pop(j)
            try:
                shares = wire.decode_shares(
                    keystream_xor(key, self.delivered[j], nonce), desc.providers, desc.datum_size
                )
            except ValueError:
                sim.note(f"consumer: undecodable payload from node {j}")
                continue
            for share in shares:
                if share.node_index != j:
                    sim.note(
                        f"consumer: node {j} delivered a share labeled for node "
                        f"{share.node_index}"
                    )
                if self.corrupted:
                    sim.monitor.record_share(share.provider_index, share.x_coordinate)
            held = self.node_shares[j] = {s.provider_index: s for s in shares}
            reports = tee.open_openings(openings, held, key, nonce, j, desc.n_nodes,
                                        sim.registry.expected_measurement)
            self.authentic.update(
                (j, p) for p, r in reports.items() if tee.attest_report(sim.registry, r)
            )


# ---------------------------------------------------------------- stages


@dataclass
class ProtocolSetup:
    config: ScenarioConfig
    server: PDAppServer
    devices: list[DeviceHost]
    nodes: dict[int, DexoNode]
    consumer: Consumer
    cid: str


def stage0_setup(
    sim: Simulator, config: ScenarioConfig, script: AdversaryScript
) -> ProtocolSetup:
    """Build the trusted app of every device, attest, and deploy the contract."""
    config.validate()
    oversold = script.acts(Action.OVERSELL, 0)

    platform = random.Random(sim.rng.getrandbits(64))  # every device's app draws here
    server = PDAppServer(config, script)
    sim.register(server)

    devices = []
    for i in range(1, config.providers + 1):
        app = tee.TeePlatform(platform, tee.RATIFIED_TA,
                              tampered=script.acts(Action.TAMPER_TEE, i))
        sim.registry.register_key(app.public_key)
        raw = tee.encode_readings(_device_readings(config, sim.rng, oversold))
        device = DeviceHost(
            provider_index=i,
            app=app,
            raw=raw,
            rule=_device_rule(config, oversold),
            config=config,
        )
        devices.append(device)
        sim.register(device)

    cid = server.deploy(sim)
    sim.ledger.fund("consumer", config.resolved_price())

    nodes = {}
    for j in range(1, config.n_nodes + 1):
        node = DexoNode(
            index=j, config=config, script=script, cid=cid,
            key_seed=sim.rng.randbytes(32),
        )
        nodes[j] = node
        sim.register(node)

    consumer = Consumer(config, script, cid)
    sim.register(consumer)

    for device in devices:
        sim.send(server.name, device.name, Attest())
    sim.drain()

    return ProtocolSetup(
        config=config, server=server, devices=devices,
        nodes=nodes, consumer=consumer, cid=cid,
    )


def stage1_produce(sim: Simulator, setup: ProtocolSetup) -> None:
    """Solicit every device; the trusted app shares and signs, the server relays."""
    for device in setup.devices:
        sim.send(setup.server.name, device.name, Solicit())
    sim.drain()


def stage2_register(sim: Simulator, setup: ProtocolSetup) -> None:
    """Distribute the group key (if enabled), then let every node attest its
    reports and publish digest and commitment on-chain.
    """
    group = setup.config.priority_group()
    if group:
        setup.nodes[group[0]].form_group(sim, group[1:])
        sim.drain()
    for j in sorted(setup.nodes):
        sim.send("server", setup.nodes[j].name, Register())
    sim.drain()


def stage3_exchange(sim: Simulator, setup: ProtocolSetup) -> None:
    """Consumer-driven fair exchange, with block time advancing on quiet."""
    consumer = setup.consumer
    consumer.start(sim)
    sim.drain()
    ledger = sim.ledger
    idle_blocks = 0
    limit = 3 * setup.config.timeout_blocks + 30
    while not consumer.finished and idle_blocks < limit:
        consumer.on_tick(sim)
        if sim.drain():
            continue
        if consumer.finished:
            break
        ledger.advance_block(1)
        ledger.settle_timeouts(setup.cid)
        idle_blocks += 1
    # close any windows still open so escrow reaches a terminal state
    ledger.advance_block(setup.config.timeout_blocks)
    ledger.settle_timeouts(setup.cid)
    sim.drain()
