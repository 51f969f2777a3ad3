"""Participant state machines: provider devices, their server, oracle nodes,
and the consumer, each driven purely by received messages and ledger state.

Stage 0 installs the trusted app on every device and deploys the contract.
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
from dataclasses import dataclass
from enum import Enum

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
    DataDescription,
    LedgerError,
    Listing,
    SessionStatus,
    conforms_to_description,
)
from .netsim import Action, AdversaryScript, Dispute, Message, Simulator

RATIFIED_TA = b"data-market-trusted-formatter-v1"


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
        return [rng.randint(config.value_max + 1, 255) for _ in range(count)]
    return [rng.randint(config.value_min, config.value_max) for _ in range(count)]


# ---------------------------------------------------------------- device


class DeviceHost:
    """Host side of one provider device; the TEE instance does the real work."""

    def __init__(
        self,
        provider_index: int,
        platform: tee.TeePlatform,
        eid: str,
        raw: bytes,
        rule: tee.PreprocessingRule,
        config: ScenarioConfig,
    ):
        self.name = f"device-{provider_index}"
        self.provider_index = provider_index
        self.platform = platform
        self.eid = eid
        self.raw = raw
        self.rule = rule
        self.config = config

    def on_message(self, sim: Simulator, msg: Message) -> None:
        if msg.mtype == "attest":
            measurement, sig, mpk = self.platform.resume_attest(self.eid)
            sim.send(
                self.name,
                msg.sender,
                "att_report",
                {"provider": self.provider_index, "measurement": measurement,
                 "signature": sig, "mpk": mpk},
            )
        elif msg.mtype == "solicit":
            reports = self.platform.resume_gendata(
                self.eid,
                n=self.config.n_nodes,
                t=self.config.threshold,
                raw=self.raw,
                rule=self.rule,
                provider_index=self.provider_index,
            )
            sim.send(
                self.name,
                msg.sender,
                "data_shares",
                {"reports": reports},
            )


# ---------------------------------------------------------------- server


class PDAppServer:
    """Frontend of the provider app: relays shares, never retains them."""

    name = "server"
    account = "server"

    def __init__(self, config: ScenarioConfig, script: AdversaryScript,
                 registry: tee.AttestationRegistry):
        self.config = config
        self.script = script
        self.registry = registry

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

    def on_message(self, sim: Simulator, msg: Message) -> None:
        if msg.mtype == "att_report":
            if not self.registry.admits(msg.payload["mpk"], msg.payload["measurement"]):
                sim.note(f"server: device {msg.payload['provider']} failed attestation")
        elif msg.mtype == "data_shares":
            self._relay(sim, msg.payload["reports"])

    def _relay(self, sim: Simulator, reports: list[tee.AttestationReport]) -> None:
        destinations = {r.share.node_index: r for r in reports}
        if self.script.role_action(Action.PERMUTE):
            rule = self.script.rule_for(Action.PERMUTE)
            if reports[0].share.provider_index == (rule.target or 1):
                destinations[2], destinations[3] = destinations[3], destinations[2]
        for node_index, report in sorted(destinations.items()):
            sim.send(self.name, f"node-{node_index}", "share_delivery", {"report": report})


# ---------------------------------------------------------------- node


class DexoNode:
    """One oracle-network node: custodian of the j-th share of every datum."""

    def __init__(self, index: int, config: ScenarioConfig, script: AdversaryScript,
                 registry: tee.AttestationRegistry, cid: str, key_seed: bytes):
        self.index = index
        self.name = f"node-{index}"
        self.account = self.name
        self.config = config
        self.script = script
        self.registry = registry
        self.cid = cid
        self.rng = random.Random(key_seed)
        self.received: dict[int, tee.AttestationReport] = {}  # by provider
        self.key: KeyMaterial | None = None
        self.group_key: KeyMaterial | None = None
        self.cipher: bytes | None = None
        self.openings: bytes | None = None
        self.reveal_attempted = False

    def _act(self, action: Action) -> bool:
        return self.script.node_action(self.index, action)

    def on_message(self, sim: Simulator, msg: Message) -> None:
        handler = self._HANDLERS.get(msg.mtype)
        if handler:
            handler(self, sim, msg)

    def _on_share_delivery(self, sim: Simulator, msg: Message) -> None:
        report = msg.payload["report"]
        share = report.share
        self.received[share.provider_index] = report
        if self.index in self.script.corrupted_nodes:
            sim.monitor.record_share(share.provider_index, share.x_coordinate)
        if self._act(Action.LEAK_TO):
            sim.send(self.name, "consumer", "leaked_share", {"share": share})

    def _on_group_key(self, sim: Simulator, msg: Message) -> None:
        self.group_key = msg.payload["key"]
        self._maybe_leak_key(sim, self.group_key)

    def _maybe_leak_key(self, sim: Simulator, key: KeyMaterial) -> None:
        if self._act(Action.LEAK_KEY):
            sim.send(self.name, "consumer", "leaked_key", {"key": key})

    def _on_register(self, sim: Simulator, msg: Message) -> None:
        if self._act(Action.REFUSE_REGISTER):
            sim.note(f"{self.name}: refused to register")
            return
        reports = [self.received[p] for p in sorted(self.received)]
        failed = [r for r in reports if not tee.attest_report(self.registry, r)]
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
        nonce = wire.payload_nonce(sim.ledger.contracts[self.cid].tid)
        payload = wire.encode_node_payload(shares)
        self.cipher = keystream_xor(self.key, payload, nonce)
        # sealed from the reports as received, so a share altered above no
        # longer opens to its device's signed root
        self.openings = tee.seal_openings(reports, self.key, nonce, self.index)
        sim.ledger.initialize(
            self.account, self.cid, sim.memo.root(self.cipher), commit(self.key)
        )

    def _on_notice_buy(self, sim: Simulator, msg: Message) -> None:
        buyer = msg.sender
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
        sim.send(self.name, buyer, "ciphertext", {"cipher": cipher, "openings": self.openings})

    def _on_notice_accept(self, sim: Simulator, msg: Message) -> None:
        buyer = msg.sender
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
        sim.send(self.name, buyer, "notice_key", {})

    _HANDLERS = {
        "share_delivery": _on_share_delivery,
        "group_key": _on_group_key,
        "register": _on_register,
        "notice_buy": _on_notice_buy,
        "notice_accept": _on_notice_accept,
    }


# ---------------------------------------------------------------- consumer


class Phase(Enum):
    AWAIT_CIPHERTEXTS = "await_ciphertexts"
    AWAIT_KEYS = "await_keys"
    DONE = "done"


class Consumer:
    """Buyer state machine: pays only for digest-verified deliveries, settles
    only after a description-conformant reconstruction, disputes otherwise.

    The consumer trusts only shares its devices made. Every node forwards, in
    its openings blob, each share's salt and Merkle path together with the
    root its device signed; when a key opens node j's payload, the consumer
    checks each of its shares against those openings and keeps the verdict.
    Each provider is reconstructed from its first t authentic shares in node
    order, and every held share that fails authentication is accused.
    """

    name = "consumer"
    account = "consumer"

    def __init__(self, config: ScenarioConfig, script: AdversaryScript, cid: str,
                 registry: tee.AttestationRegistry):
        self.config = config
        self.script = script
        self.cid = cid
        self.registry = registry
        self.corrupted = "consumer" in script.corrupted_roles
        self.refuses_payment = script.role_action(Action.REFUSE_PAYMENT)
        # a node's index comes from the authenticated channel it sends on
        self.node_index = {f"node-{j}": j for j in range(1, config.n_nodes + 1)}
        self.listing: Listing | None = None
        self.delivered: dict[int, bytes] = {}
        self.openings: dict[int, bytes] = {}  # unopened blob per node, salts encrypted
        self.responded: set[int] = set()
        self.accepted: set[int] = set()
        self.keys: dict[int, KeyMaterial] = {}
        self.node_shares: dict[int, dict[int, SecretShare]] = {}
        self.share_keys: set[int] = set()  # nodes whose payload a key has opened
        # (node, provider) of every held share that opens to its device's root
        self.authentic: set[tuple[int, int]] = set()
        self.phase = Phase.AWAIT_CIPHERTEXTS
        self.finished_reason = ""
        self.reconstructed: dict[int, bytes | None] = {}
        self.reconstruction_valid = False
        self._leaked_keys: list[KeyMaterial] = []
        self._stall_ticks = 0

    # -- protocol entry

    def start(self, sim: Simulator) -> None:
        self.listing = sim.ledger.snapshot_listing(self.cid)
        if not self.listing.initialized:
            self._finish("listing-never-initialized")
            return
        if self.config.merged_query:
            sim.ledger.query(self.account, self.cid)
        else:
            for j in range(1, self.config.n_nodes + 1):
                sim.ledger.query(self.account, self.cid, node_index=j)
        for name in self.node_index:
            sim.send(self.name, name, "notice_buy", {})

    # -- message handling

    def on_message(self, sim: Simulator, msg: Message) -> None:
        if self.finished:
            return
        if msg.mtype == "ciphertext":
            self._on_ciphertext(sim, self.node_index[msg.sender], msg.payload)
        elif msg.mtype == "notice_key":
            self._take_key(sim, self.node_index[msg.sender])
        elif msg.mtype == "leaked_key" and self.corrupted:
            # keys leak in stage 2, before the listing is fetched; each is
            # tried on every ciphertext as it arrives
            self._leaked_keys.append(msg.payload["key"])

    def _on_ciphertext(self, sim: Simulator, j: int, payload: dict) -> None:
        self.responded.add(j)
        cipher = payload["cipher"]
        if sim.memo.root(cipher) == self.listing.delta[j]:
            self.delivered[j] = cipher
            self.openings[j] = payload["openings"]
            for key in self._leaked_keys:
                self._open_with(sim, key)
        else:
            sim.note(f"consumer: digest mismatch from node {j}")
        if self.phase is Phase.AWAIT_CIPHERTEXTS and len(self.responded) == self.config.n_nodes:
            self._accept_phase(sim)

    def _take_key(self, sim: Simulator, j: int) -> None:
        """Read node j's revealed key off the chain; reconstruct once every
        accepted session's key is in."""
        if j in self.keys or j not in self.accepted:
            return
        key = sim.ledger.check_key(self.account, self.cid, j)
        if key is None:
            return
        self.keys[j] = key
        self._open_with(sim, key)
        if self.phase is Phase.AWAIT_KEYS and all(k in self.keys for k in self.accepted):
            self._reconstruct_phase(sim)

    def _open_with(self, sim: Simulator, key: KeyMaterial) -> None:
        """Open, once each, every delivered payload whose commitment ``key``
        opens: a session's own key, a priority group's, or a leaked one, and
        with it the node's openings blob. A share is authentic if it opens to
        its device's signed root; the proof's leaf is the share's own node
        label, and a missing or malformed blob authenticates nothing. A
        payload off the listing's layout is noted and gives no shares. A
        corrupted consumer's monitor counts every share it opens.
        """
        opened = commit(key)
        desc = self.listing.desc
        nonce = wire.payload_nonce(self.listing.tid)
        for j, com in self.listing.commitment.items():
            if com != opened or j not in self.delivered or j in self.share_keys:
                continue
            self.share_keys.add(j)
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
            reports = tee.open_openings(openings, held, key, nonce, j, self.config.n_nodes,
                                        self.registry.expected_measurement)
            self.authentic.update(
                (j, p) for p, r in reports.items() if tee.attest_report(self.registry, r)
            )

    # -- phases

    def _choose_sessions(self) -> list[int] | None:
        valid = sorted(self.delivered)
        needed = self.config.sessions_required()
        group = self.config.priority_group()
        if group:
            leader = next((j for j in group if j in valid), None)
            outside = [j for j in valid if j not in group]
            if leader is not None and len(outside) >= needed - 1:
                return [leader] + outside[: needed - 1]
            # degenerate: fall back to plain threshold selection
            needed = self.config.threshold
        if len(valid) >= needed:
            return valid[:needed]
        return None

    def _accept_phase(self, sim: Simulator) -> None:
        if self.refuses_payment:
            self._finish("refused-payment")
            return
        chosen = self._choose_sessions()
        if chosen is None:
            self._finish("too-few-valid-deliveries")
            return
        self.phase = Phase.AWAIT_KEYS
        for j in chosen:
            self._accept_session(sim, j)
        for name in self.node_index:
            sim.send(self.name, name, "notice_accept", {})

    def _accept_session(self, sim: Simulator, j: int) -> None:
        price = sim.ledger.contracts[self.cid].session_price
        sim.ledger.accept(self.account, self.cid, j, price)
        self.accepted.add(j)
        sim.monitor.record_payment()

    def _reconstruct_phase(self, sim: Simulator) -> None:
        """Reconstruct every provider from its reference set. If every datum
        meets the description, accuse the held shares that fail
        authentication, probe the mislabeled ones and settle; otherwise buy
        more or dispute.
        """
        t, n = self.config.threshold, self.config.n_nodes
        references: dict[int, list[tuple[SecretShare, int]]] = {}
        failing = []
        for provider in range(1, self.config.providers + 1):
            entries = references[provider] = self._reference(provider, t)
            datum = reconstruct(t, n, [s for s, _ in entries]) if len(entries) == t else None
            self.reconstructed[provider] = datum
            if datum is None or not conforms_to_description(datum, self.listing.desc):
                failing.append(provider)
        if failing:
            self._remediate(sim, failing)
            return
        self.reconstruction_valid = True
        self._dispute_case2(sim, references)
        self._probe_mislabeled(sim, references)
        self._settle(sim)

    def _buyable(self, sim: Simulator) -> list[int]:
        """Verified deliveries still open for purchase. Sessions whose shares
        the consumer already holds are left out: a priority-group member
        opened by its leader's key would never move to KEY_OUT if bought.
        """
        status = sim.ledger.snapshot_buyer(self.cid, self.account)
        return [
            j for j in sorted(self.delivered)
            if j not in self.node_shares and status.get(j) is SessionStatus.QUERIED
        ]

    def _buy(self, sim: Simulator, sessions: list[int]) -> None:
        """A later purchase: accept each session and notify its node alone."""
        for j in sessions:
            self._accept_session(sim, j)
            sim.send(self.name, f"node-{j}", "notice_accept", {})

    def _remediate(self, sim: Simulator, failing: list[int]) -> None:
        """Buy the remaining verified deliveries to gain authentic shares,
        then dispute with the enlarged share pool.
        """
        remaining = self._buyable(sim)
        if remaining:
            self.phase = Phase.AWAIT_KEYS
            self._buy(sim, remaining)
            return
        self._dispute(sim, failing)

    # -- disputes

    def _reference(self, provider: int, count: int) -> list[tuple[SecretShare, int]]:
        """Up to ``count`` authentic (share, node) entries for one provider:
        nodes in ascending order, skipping a repeated x-coordinate.
        """
        entries: list[tuple[SecretShare, int]] = []
        xs: set[int] = set()
        for j in sorted(self.node_shares):
            if len(entries) == count:
                break
            if (j, provider) not in self.authentic:
                continue
            share = self.node_shares[j][provider]
            if share.x_coordinate not in xs:
                entries.append((share, j))
                xs.add(share.x_coordinate)
        return entries

    def _evidence(self, share: SecretShare, source_node: int) -> wire.ShareEvidence:
        return wire.build_share_evidence(
            share, source_node, self.delivered[source_node],
            self.config.datum_size_bytes,
        )

    def _challenge(self, sim: Simulator, label: str, challenge, first: list, second: list):
        """Submit one challenge built from (share, source node) entries and log
        its result; None if the contract rejected it.
        """
        first_ev = [self._evidence(s, src) for s, src in first]
        second_ev = [self._evidence(s, src) for s, src in second]
        try:
            result = challenge(self.account, self.cid, first_ev, second_ev)
        except LedgerError as exc:
            sim.log.append(Dispute(f"{label}: rejected ({exc})"))
            return None
        sim.log.append(Dispute(
            f"{label}: accepted={result.accepted} refunded={list(result.refunded_nodes)}"
        ))
        return result

    def _dispute(self, sim: Simulator, failing: list[int]) -> None:
        """No reference set of a failing provider meets the description, with
        every verified delivery bought. If its authentic shares hold two
        differing (t+1)-sets, they prove that the device's data breaks the
        description (case 1) and all escrow returns; otherwise the consumer
        gives up and timeouts settle the sessions.
        """
        t, n = self.config.threshold, self.config.n_nodes
        for provider in failing:
            entries = self._reference(provider, t + 2)
            if len(entries) < t + 2:
                continue
            datum = reconstruct(t, n, [s for s, _ in entries[:t]])
            if conforms_to_description(datum, self.listing.desc):
                continue
            result = self._challenge(
                sim, f"case1 provider {provider}", sim.ledger.challenge_case1,
                entries[: t + 1], entries[:t] + entries[t + 1 :],
            )
            if result is not None and result.accepted:
                self._finish("aborted-by-dispute")
                return
        self._finish("no-valid-reconstruction")

    def _dispute_case2(
        self, sim: Simulator, references: dict[int, list[tuple[SecretShare, int]]]
    ) -> None:
        """Accuse, provider by provider, every node whose share fails
        authentication; an honest run holds none.
        """
        already_refunded: set[int] = set()
        for provider, good_entries in references.items():
            accused = [
                (shares[provider], j) for j, shares in sorted(self.node_shares.items())
                if j not in already_refunded and (j, provider) not in self.authentic
            ]
            if not accused:
                continue
            result = self._challenge(
                sim, f"case2 provider {provider}", sim.ledger.challenge_case2,
                good_entries, accused,
            )
            if result is not None:
                already_refunded.update(result.refunded_nodes)

    def _probe_mislabeled(
        self, sim: Simulator, references: dict[int, list[tuple[SecretShare, int]]]
    ) -> None:
        """Challenge sessions that delivered mislabeled shares, one accused
        node at a time; the contract rejects each accusation whose share data
        lies on the references' polynomial.
        """
        mislabeled = sorted(
            (provider, j) for j, shares in self.node_shares.items()
            for provider, share in shares.items() if share.node_index != j
        )
        for provider, j in mislabeled:
            self._challenge(
                sim, f"case2 node {j} provider {provider} (mislabel probe)",
                sim.ledger.challenge_case2, references[provider],
                [(self.node_shares[j][provider], j)],
            )

    # -- settlement

    def _settle(self, sim: Simulator) -> None:
        status = sim.ledger.snapshot_buyer(self.cid, self.account)
        if status and SessionStatus.KEY_OUT in status.values():
            sim.ledger.no_complain(self.account, self.cid)
        self._finish("settled")

    @property
    def finished(self) -> bool:
        return self.phase is Phase.DONE

    def _finish(self, reason: str) -> None:
        self.finished_reason = reason
        self.phase = Phase.DONE

    # -- stall handling

    def on_tick(self, sim: Simulator) -> None:
        """Called when the network is quiet; handles drops and timeouts."""
        if self.finished:
            return
        self._stall_ticks += 1
        if self.phase is Phase.AWAIT_CIPHERTEXTS:
            chosen = self._choose_sessions()
            if chosen is not None:
                self._accept_phase(sim)
            elif self._stall_ticks > 2:
                self._finish("too-few-valid-deliveries")
        elif self.phase is Phase.AWAIT_KEYS:
            status = sim.ledger.snapshot_buyer(self.cid, self.account)
            # the chain, not a node's notice, says that a key is out
            for j in sorted(self.accepted):
                if status.get(j) is SessionStatus.KEY_OUT:
                    self._take_key(sim, j)
            refunded = {
                j for j in self.accepted if status.get(j) is SessionStatus.REFUNDED
            }
            if refunded:
                # sessions timed out without a reveal and were refunded
                self.accepted -= refunded
                missing = max(0, self.config.sessions_required() - len(self.accepted))
                replacements = self._buyable(sim)[:missing]
                self._buy(sim, replacements)
                if not replacements and all(j in self.keys for j in self.accepted):
                    self._reconstruct_phase(sim)


# ---------------------------------------------------------------- stages


@dataclass
class ProtocolSetup:
    config: ScenarioConfig
    registry: tee.AttestationRegistry
    server: PDAppServer
    devices: list[DeviceHost]
    nodes: dict[int, DexoNode]
    consumer: Consumer
    cid: str


def stage0_setup(
    sim: Simulator, config: ScenarioConfig, script: AdversaryScript
) -> ProtocolSetup:
    """Install the trusted app on every device, attest, and deploy the contract."""
    config.validate()
    oversold = script.role_action(Action.OVERSELL)

    platform = tee.TeePlatform(rng=random.Random(sim.rng.getrandbits(64)))
    registry = tee.AttestationRegistry(
        expected_measurement=tee.measure(RATIFIED_TA)
    )
    server = PDAppServer(config, script, registry)
    sim.register(server)

    devices = []
    for i in range(1, config.providers + 1):
        tampered = script.provider_action(i, Action.TAMPER_TEE)
        eid = platform.install(RATIFIED_TA, tampered=tampered)
        registry.register_key(platform.public_key(eid))
        raw = tee.encode_readings(_device_readings(config, sim.rng, oversold))
        device = DeviceHost(
            provider_index=i,
            platform=platform,
            eid=eid,
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
            index=j, config=config, script=script, registry=registry, cid=cid,
            key_seed=sim.rng.randbytes(32),
        )
        nodes[j] = node
        sim.register(node)

    consumer = Consumer(config, script, cid, registry)
    sim.register(consumer)

    for device in devices:
        sim.send(server.name, device.name, "attest", {})
    sim.drain()

    return ProtocolSetup(
        config=config, registry=registry, server=server, devices=devices,
        nodes=nodes, consumer=consumer, cid=cid,
    )


def stage1_produce(sim: Simulator, setup: ProtocolSetup) -> None:
    """Solicit every device; the trusted app shares and signs, the server relays."""
    for device in setup.devices:
        sim.send(setup.server.name, device.name, "solicit", {})
    sim.drain()


def stage2_register(sim: Simulator, setup: ProtocolSetup) -> None:
    """Distribute the group key (if enabled), then let every node attest its
    reports and publish digest and commitment on-chain.
    """
    group = setup.config.priority_group()
    if group:
        leader = setup.nodes[group[0]]
        group_key = KeyMaterial(leader.rng.randbytes(32))
        leader.group_key = group_key
        leader._maybe_leak_key(sim, group_key)
        for j in group[1:]:
            sim.send(leader.name, setup.nodes[j].name, "group_key", {"key": group_key})
        sim.drain()
    for j in sorted(setup.nodes):
        sim.send("server", setup.nodes[j].name, "register", {})
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
