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
from dataclasses import dataclass, field

from . import tee, wire
from .config import ScenarioConfig
from .crypto import (
    KeyMaterial,
    SecretShare,
    ShamirError,
    commit,
    decrypt,
    encrypt,
    reconstruct,
)
from .crypto.shamir import evaluate_at  # noqa: F401  (perfbench traces calls via this binding)
from .ledger import (
    BadKeyError,
    LedgerError,
    SessionStatus,
    conforms_to_description,
)
from .netsim import AdversaryScript, Message, Simulator

RATIFIED_TA = b"data-market-trusted-formatter-v1"


class StageError(Exception):
    pass


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
            shares, reports, mpk = self.platform.resume_gendata(
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
                {"provider": self.provider_index, "shares": shares,
                 "reports": reports, "mpk": mpk},
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
        self.cid: str | None = None
        self.forwarded = 0
        self.retained_shares: dict[int, list] = {}  # stays empty by design

    def deploy(self, sim: Simulator) -> str:
        from .ledger import DataDescription

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
        self.cid = sim.ledger.create_contract(
            deployer=self.account,
            seller_nodes=[f"node-{j}" for j in range(1, config.n_nodes + 1)],
            data_sources=[f"provider-{i}" for i in range(1, config.providers + 1)],
            price=config.resolved_price(),
            desc=desc,
            node_fee=config.node_fee,
        )
        return self.cid

    def on_message(self, sim: Simulator, msg: Message) -> None:
        if msg.mtype == "att_report":
            report_ok = (
                msg.payload["mpk"] in self.registry.genuine_keys
                and msg.payload["measurement"] == self.registry.expected_measurement
            )
            if not report_ok:
                sim.note(f"server: device {msg.payload['provider']} failed attestation")
        elif msg.mtype == "data_shares":
            self._relay(sim, msg.payload)

    def _relay(self, sim: Simulator, payload: dict) -> None:
        provider = payload["provider"]
        pairs = list(zip(payload["shares"], payload["reports"]))
        destinations = {s.node_index: (s, r) for s, r in pairs}
        if self.script.role_action("server", "permute", "stage1_forward"):
            rule = self.script.rule_for("permute")
            if provider == (rule.target or 1) and self.config.n_nodes >= 3:
                destinations[2], destinations[3] = destinations[3], destinations[2]
        for node_index, (share, report) in sorted(destinations.items()):
            sim.send(
                self.name,
                f"node-{node_index}",
                "share_delivery",
                {"provider": provider, "share": share, "report": report,
                 "mpk": payload["mpk"]},
            )
            self.forwarded += 1


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
        self.received: dict[int, tuple] = {}
        self.shares: list[SecretShare] = []
        self.key: KeyMaterial | None = None
        self.group_key: KeyMaterial | None = None
        self.cipher: bytes | None = None
        self.openings: bytes | None = None
        self.initialized = False
        self.attestation_failed = False
        self.revealed = False
        self.reveal_attempted = False

    def _act(self, action: str, trigger: str) -> bool:
        return self.script.node_action(self.index, action, trigger)

    def on_message(self, sim: Simulator, msg: Message) -> None:
        handler = {
            "share_delivery": self._on_share_delivery,
            "group_key": self._on_group_key,
            "register": self._on_register,
            "notice_buy": self._on_notice_buy,
            "notice_accept": self._on_notice_accept,
        }.get(msg.mtype)
        if handler:
            handler(sim, msg)

    def _on_share_delivery(self, sim: Simulator, msg: Message) -> None:
        provider = msg.payload["provider"]
        share = msg.payload["share"]
        self.received[provider] = (share, msg.payload["report"], msg.payload["mpk"])
        if self.index in self.script.corrupted_nodes:
            sim.monitor.record_share(provider, share.x_coordinate)
        if self._act("leak_to", "stage1_receive") and "consumer" in self.script.corrupted_roles:
            sim.send(self.name, "consumer", "leaked_share",
                     {"provider": provider, "share": share})

    def _on_group_key(self, sim: Simulator, msg: Message) -> None:
        self.group_key = msg.payload["key"]
        self._maybe_leak_key(sim, self.group_key)

    def _maybe_leak_key(self, sim: Simulator, key: KeyMaterial) -> None:
        if self._act("leak_key", "stage2_key") and "consumer" in self.script.corrupted_roles:
            sim.send(self.name, "consumer", "leaked_key", {"key": key})

    def _on_register(self, sim: Simulator, msg: Message) -> None:
        if self._act("refuse", "stage2_register"):
            sim.note(f"{self.name}: refused to register")
            return
        for provider in sorted(self.received):
            _, report, _ = self.received[provider]
            if not tee.attest_report(self.registry, report):
                self.attestation_failed = True
                sim.note(f"{self.name}: attestation failed for provider {provider}")
        if self.attestation_failed or len(self.received) < self.config.providers:
            return
        self.shares = [self.received[p][0] for p in sorted(self.received)]
        if self._act("substitute_share", "stage2_commit"):
            self.shares = [
                SecretShare(s.provider_index, s.node_index, s.x_coordinate,
                            self.rng.randbytes(len(s.y_values)))
                for s in self.shares
            ]
        elif self._act("corrupt_bytes", "stage2_commit"):
            self.shares = [
                SecretShare(s.provider_index, s.node_index, s.x_coordinate,
                            bytes(b ^ m for b, m in
                                  zip(s.y_values, self.rng.randbytes(len(s.y_values)))))
                for s in self.shares
            ]
        self.key = self.group_key or KeyMaterial(self.rng.randbytes(32))
        if self.group_key is None:
            self._maybe_leak_key(sim, self.key)
        nonce = sim.ledger.contracts[self.cid].nonce()
        payload = wire.encode_node_payload(self.shares)
        self.cipher = encrypt(self.key, payload, nonce)
        # built from the reports as received, so a share altered above no
        # longer matches its signature
        reports = [self.received[p][1] for p in sorted(self.received)]
        openings = wire.encode_openings(
            [(r.platform_public_key, r.signature) for r in reports]
        )
        self.openings = encrypt(self.key, openings, wire.openings_nonce(nonce, self.index))
        sim.ledger.initialize(
            self.account, self.cid, wire.payload_root(self.cipher), commit(self.key)
        )
        self.initialized = True

    def _on_notice_buy(self, sim: Simulator, msg: Message) -> None:
        buyer = msg.sender
        status = sim.ledger.read(
            self.account, self.cid, f"buyers.{buyer}.status.{self.index}"
        )
        if status != SessionStatus.QUERIED or self.cipher is None:
            return
        if self._act("drop", "stage3_deliver"):
            sim.note(f"{self.name}: dropped ciphertext delivery")
            return
        cipher = self.cipher
        if self._act("equivocate", "stage3_deliver"):
            cipher = bytes([cipher[0] ^ 0xFF]) + cipher[1:]
            sim.note(f"{self.name}: equivocated on delivery")
        sim.send(self.name, buyer, "ciphertext",
                 {"node": self.index, "cipher": cipher, "openings": self.openings})

    def _on_notice_accept(self, sim: Simulator, msg: Message) -> None:
        buyer = msg.sender
        status = sim.ledger.read(
            self.account, self.cid, f"buyers.{buyer}.status.{self.index}"
        )
        if status != SessionStatus.ACCEPTED or self.reveal_attempted:
            return
        self.reveal_attempted = True
        if self._act("withhold_key", "stage3_reveal"):
            sim.note(f"{self.name}: withheld key")
            return
        key = self.key
        if self._act("wrong_key", "stage3_reveal"):
            key = KeyMaterial(self.rng.randbytes(32))
        try:
            sim.ledger.reveal_key(self.account, self.cid, key)
        except BadKeyError:
            sim.note(f"{self.name}: reveal rejected (bad key)")
            return
        self.revealed = True
        sim.send(self.name, buyer, "notice_key", {"node": self.index})


# ---------------------------------------------------------------- consumer


class Consumer:
    """Buyer state machine: pays only for digest-verified deliveries, settles
    only after a description-conformant reconstruction, disputes otherwise.

    Faulty nodes are found from the device signatures: every node forwards,
    in its openings blob, the signature its device made over each share. When
    reconstruction fails or a mislabeled share is to be probed, the consumer
    checks shares against their signatures, node by node in ascending order,
    and takes each provider's first t authentic shares as its reference set.
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
        self.refuses_payment = script.role_action("consumer", "refuse", "stage3_pay")
        self.listing: dict | None = None
        self.delivered: dict[int, bytes] = {}
        self.openings: dict[int, bytes] = {}  # encrypted openings blob per node
        self.invalid_deliveries: set[int] = set()
        self.responded: set[int] = set()
        self.accepted: set[int] = set()
        self.keys: dict[int, KeyMaterial] = {}
        self.node_shares: dict[int, dict[int, SecretShare]] = {}
        self.share_keys: dict[int, KeyMaterial] = {}  # key that opened node j's blobs
        self._opened: dict[int, list[tuple[bytes, bytes]]] = {}  # decoded openings
        self._authentic: dict[tuple[int, int], bool] = {}  # (node, provider) -> verdict
        self.mislabeled: list[tuple[int, int]] = []
        self.phase = "idle"
        self.finished = False
        self.finished_reason = ""
        self.paid_sessions = 0
        self.reconstructed: dict[int, bytes | None] = {}
        self.reconstruction_valid = False
        self.dispute_log: list[str] = []
        self._initial_balance = 0
        self._leaked_keys: list[KeyMaterial] = []
        self._stall_ticks = 0

    # -- protocol entry

    def start(self, sim: Simulator) -> None:
        self._initial_balance = sim.ledger.balances.get(self.account, 0)
        self.listing = sim.ledger.snapshot_listing(self.cid)
        if not self.listing["initialized"]:
            self._finish(sim, "listing-never-initialized")
            return
        if self.config.merged_query:
            sim.ledger.query(self.account, self.cid)
        else:
            for j in range(1, self.config.n_nodes + 1):
                sim.ledger.query(self.account, self.cid, node_index=j)
        self.phase = "await_ciphertexts"
        for j in range(1, self.config.n_nodes + 1):
            sim.send(self.name, f"node-{j}", "notice_buy", {})

    # -- message handling

    def on_message(self, sim: Simulator, msg: Message) -> None:
        if self.finished:
            return
        if msg.mtype == "ciphertext":
            self._on_ciphertext(sim, msg)
        elif msg.mtype == "notice_key":
            self._on_notice_key(sim, msg)
        elif msg.mtype == "leaked_share":
            if self.corrupted:
                share = msg.payload["share"]
                sim.monitor.record_share(msg.payload["provider"], share.x_coordinate)
        elif msg.mtype == "leaked_key":
            if self.corrupted:
                self._leaked_keys.append(msg.payload["key"])
                self._derive_coalition_shares(sim)

    def _derive_coalition_shares(self, sim: Simulator) -> None:
        """Account for every share a corrupted consumer can derive from the
        ciphertexts it holds and the keys it has (leaked or bought).
        """
        if not self.corrupted or self.listing is None:
            return
        nonce = self.listing["tid"].encode()
        for key in list(self._leaked_keys) + list(self.keys.values()):
            opened = commit(key)
            for j, com in self.listing["commitment"].items():
                if com != opened or j not in self.delivered:
                    continue
                try:
                    shares = wire.decode_shares(decrypt(key, self.delivered[j], nonce))
                except ValueError:
                    continue
                for share in shares:
                    sim.monitor.record_share(share.provider_index, share.x_coordinate)

    def _on_ciphertext(self, sim: Simulator, msg: Message) -> None:
        j = msg.payload["node"]
        self.responded.add(j)
        cipher = msg.payload["cipher"]
        if wire.payload_root(cipher) == self.listing["delta"][j]:
            self.delivered[j] = cipher
            self.openings[j] = msg.payload.get("openings", b"")
        else:
            self.invalid_deliveries.add(j)
            sim.note(f"consumer: digest mismatch from node {j}")
        self._derive_coalition_shares(sim)
        if self.phase == "await_ciphertexts" and len(self.responded) == self.config.n_nodes:
            self._accept_phase(sim)

    def _on_notice_key(self, sim: Simulator, msg: Message) -> None:
        j = msg.payload["node"]
        if j in self.keys or j not in self.accepted:
            return
        key = sim.ledger.read(self.account, self.cid, f"key_revealed.{j}")
        if key is None:
            return
        self.keys[j] = key
        self._ingest_shares(sim, j, key)
        self._group_decrypt(sim, key)
        self._derive_coalition_shares(sim)
        if self.phase == "await_keys" and all(k in self.keys for k in self.accepted):
            self._reconstruct_phase(sim)

    # -- phases

    def _needed_sessions(self) -> int:
        if self.config.shared_key:
            return self.config.max_faulty + 1
        return self.config.threshold

    def _choose_sessions(self) -> list[int] | None:
        valid = sorted(self.delivered)
        needed = self._needed_sessions()
        if self.config.shared_key:
            group = list(range(1, self.config.threshold - self.config.max_faulty + 1))
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
            self._finish(sim, "refused-payment")
            return
        chosen = self._choose_sessions()
        if chosen is None:
            self._finish(sim, "too-few-valid-deliveries")
            return
        self.phase = "await_keys"
        for j in chosen:
            self._accept_session(sim, j)
        for j in range(1, self.config.n_nodes + 1):
            sim.send(self.name, f"node-{j}", "notice_accept", {})

    def _accept_session(self, sim: Simulator, j: int) -> None:
        price = sim.ledger.contracts[self.cid].session_price
        sim.ledger.accept(self.account, self.cid, j, price)
        self.accepted.add(j)
        self.paid_sessions += 1
        sim.monitor.record_payment()

    def _ingest_shares(self, sim: Simulator, j: int, key: KeyMaterial) -> None:
        if j not in self.delivered:
            return
        nonce = self.listing["tid"].encode()
        payload = decrypt(key, self.delivered[j], nonce)
        try:
            shares = wire.decode_shares(payload)
        except ValueError:
            sim.note(f"consumer: undecodable payload from node {j}")
            return
        self.share_keys[j] = key
        for share in shares:
            if share.node_index != j:
                self.mislabeled.append((j, share.provider_index))
                sim.note(
                    f"consumer: node {j} delivered a share labeled for node "
                    f"{share.node_index}"
                )
            self.node_shares.setdefault(j, {})[share.provider_index] = share

    def _group_decrypt(self, sim: Simulator, key: KeyMaterial) -> None:
        """A key unlocks every delivered blob whose commitment it opens."""
        opened = commit(key)
        for j, com in self.listing["commitment"].items():
            if com == opened and j in self.delivered and j not in self.node_shares:
                self._ingest_shares(sim, j, key)

    def _try_reconstruct(self, provider: int) -> tuple[bytes | None, bool]:
        """Reconstruct from the t lowest distinct x-coordinates held for one
        provider; also say whether the datum meets the description.
        """
        t = self.config.threshold
        pool: dict[int, SecretShare] = {}
        for j in sorted(self.node_shares):
            share = self.node_shares[j].get(provider)
            if share is not None:
                pool.setdefault(share.x_coordinate, share)
        if len(pool) < t:
            return None, False
        try:
            datum = reconstruct(t, self.config.n_nodes, [pool[x] for x in sorted(pool)[:t]])
        except ShamirError:
            return None, False
        return datum, conforms_to_description(datum, self.listing["desc"])

    def _reconstruct_phase(self, sim: Simulator) -> None:
        self.phase = "reconstructing"
        failing = []
        for provider in range(1, self.config.providers + 1):
            datum, ok = self._try_reconstruct(provider)
            self.reconstructed[provider] = datum
            if not ok:
                failing.append(provider)
        if not failing:
            if self.mislabeled:
                self._probe_mislabeled(sim)
            self._settle(sim)
            return
        self._remediate(sim, failing)

    def _remediate(self, sim: Simulator, failing: list[int]) -> None:
        """Buy the remaining verified deliveries to gain redundancy, then
        dispute with the enlarged share pool.
        """
        record = sim.ledger.snapshot_buyer(self.cid, self.account)
        remaining = [
            j for j in sorted(self.delivered)
            if record["status"].get(j) == "QUERIED"
        ]
        if remaining:
            self.phase = "await_keys"
            for j in remaining:
                self._accept_session(sim, j)
                sim.send(self.name, f"node-{j}", "notice_accept", {})
            return
        self._dispute(sim, failing)

    # -- disputes

    def _is_authentic(self, j: int, provider: int) -> bool:
        """Does node j's share of ``provider`` verify against the device
        signature in the node's openings blob? A missing or malformed blob
        authenticates nothing. Blobs are opened once and verdicts kept, so
        each share costs at most one signature check.
        """
        if j not in self._opened:
            nonce = wire.openings_nonce(self.listing["tid"].encode(), j)
            blob = decrypt(self.share_keys[j], self.openings[j], nonce)
            try:
                self._opened[j] = wire.decode_openings(blob, self.config.providers)
            except ValueError:
                self._opened[j] = []
        if (j, provider) not in self._authentic:
            records = self._opened[j]
            verdict = False
            if provider <= len(records):
                public_key, signature = records[provider - 1]
                share = self.node_shares[j][provider]
                measurement = self.registry.expected_measurement
                report = tee.AttestationReport(share, measurement, signature, public_key)
                verdict = tee.attest_report(self.registry, report)
            self._authentic[j, provider] = verdict
        return self._authentic[j, provider]

    def _reference(self, provider: int, count: int) -> list[tuple[SecretShare, int]]:
        """Up to ``count`` authentic (share, node) entries for one provider:
        nodes in ascending order, skipping a repeated x-coordinate. Shares
        past the last entry needed are not checked.
        """
        entries: list[tuple[SecretShare, int]] = []
        xs: set[int] = set()
        for j in sorted(self.node_shares):
            if len(entries) == count:
                break
            share = self.node_shares[j].get(provider)
            if share is None or share.x_coordinate in xs or not self._is_authentic(j, provider):
                continue
            entries.append((share, j))
            xs.add(share.x_coordinate)
        return entries

    def _evidence(self, share: SecretShare, source_node: int) -> wire.ShareEvidence:
        return wire.build_share_evidence(
            share, source_node, self.delivered[source_node],
            self.config.datum_size_bytes,
        )

    def _challenge(self, label: str, challenge, first: list, second: list):
        """Submit one challenge built from (share, source node) entries and log
        its result; None if the contract rejected it.
        """
        first_ev = [self._evidence(s, src) for s, src in first]
        second_ev = [self._evidence(s, src) for s, src in second]
        try:
            result = challenge(self.account, self.cid, first_ev, second_ev)
        except LedgerError as exc:
            self.dispute_log.append(f"{label}: rejected ({exc})")
            return None
        self.dispute_log.append(
            f"{label}: accepted={result.accepted} refunded={list(result.refunded_nodes)}"
        )
        return result

    def _dispute(self, sim: Simulator, failing: list[int]) -> None:
        """Reconstruct each provider from its first t authentic shares. If a
        datum breaks the description, two differing authentic (t+1)-sets
        prove it (case 1) and all escrow returns; otherwise accuse every node
        holding a share that fails authentication (case 2) and settle.
        """
        self.phase = "disputing"
        t, n = self.config.threshold, self.config.n_nodes
        desc = self.listing["desc"]
        for provider in failing:
            entries = self._reference(provider, t + 2)
            if len(entries) < t + 2:
                continue
            datum = reconstruct(t, n, [s for s, _ in entries[:t]])
            if conforms_to_description(datum, desc):
                continue
            result = self._challenge(
                f"case1 provider {provider}", sim.ledger.challenge_case1,
                entries[: t + 1], entries[:t] + entries[t + 1 :],
            )
            if result is not None and result.accepted:
                for p in range(1, self.config.providers + 1):
                    self.reconstructed.setdefault(p, None)
                self.reconstruction_valid = False
                self._finish(sim, "aborted-by-dispute")
                return
        references: dict[int, list[tuple[SecretShare, int]]] = {}
        data: dict[int, bytes] = {}
        for provider in range(1, self.config.providers + 1):
            entries = self._reference(provider, t)
            if len(entries) < t:
                break
            datum = reconstruct(t, n, [s for s, _ in entries])
            if not conforms_to_description(datum, desc):
                break
            references[provider], data[provider] = entries, datum
        if len(data) < self.config.providers:
            self._finish(sim, "no-valid-reconstruction")
            return
        self._dispute_case2(sim, references)
        self.reconstructed.update(data)
        self.reconstruction_valid = True
        self._settle(sim)

    def _dispute_case2(
        self, sim: Simulator, references: dict[int, list[tuple[SecretShare, int]]]
    ) -> None:
        """Accuse, provider by provider, every node outside the reference set
        whose share fails authentication.
        """
        already_refunded: set[int] = set()
        for provider, good_entries in references.items():
            good = {j for _, j in good_entries}
            accused = [
                (self.node_shares[j][provider], j)
                for j in sorted(self.node_shares)
                if j not in good and j not in already_refunded
                and provider in self.node_shares[j]
                and not self._is_authentic(j, provider)
            ]
            if not accused:
                continue
            # order the reference set so its first t-1 entries avoid the
            # accused x-coordinates
            accused_x = {s.x_coordinate for s, _ in accused}
            ordered = sorted(good_entries, key=lambda e: e[0].x_coordinate in accused_x)
            result = self._challenge(
                f"case2 provider {provider}", sim.ledger.challenge_case2, ordered, accused
            )
            if result is not None:
                already_refunded.update(result.refunded_nodes)

    def _probe_mislabeled(self, sim: Simulator) -> None:
        """Challenge sessions that delivered mislabeled shares, one accused
        node at a time so reference sets can dodge x-coordinate collisions;
        the contract rejects each accusation whose share data is consistent.
        """
        t = self.config.threshold
        for j, provider in sorted(set(self.mislabeled), key=lambda e: (e[1], e[0])):
            share = self.node_shares.get(j, {}).get(provider)
            good_entries = self._reference(provider, t)
            if share is None or len(good_entries) < t:
                continue
            ordered = sorted(
                good_entries, key=lambda e: e[0].x_coordinate == share.x_coordinate
            )
            if any(s.x_coordinate == share.x_coordinate for s, _ in ordered[: t - 1]):
                continue
            self._challenge(
                f"case2 node {j} provider {provider} (mislabel probe)",
                sim.ledger.challenge_case2, ordered, [(share, j)],
            )

    # -- settlement

    def _settle(self, sim: Simulator) -> None:
        if not self.reconstruction_valid:
            desc = self.listing["desc"]
            self.reconstruction_valid = all(
                self.reconstructed.get(p) is not None
                and conforms_to_description(self.reconstructed[p], desc)
                for p in range(1, self.config.providers + 1)
            )
        record = sim.ledger.snapshot_buyer(self.cid, self.account)
        if record and any(s == "KEY_OUT" for s in record["status"].values()):
            sim.ledger.no_complain(self.account, self.cid)
        self._finish(sim, "settled")

    def _finish(self, sim: Simulator, reason: str) -> None:
        self.finished = True
        self.finished_reason = reason
        self.phase = "done"

    # -- stall handling

    def on_tick(self, sim: Simulator) -> None:
        """Called when the network is quiet; handles drops and timeouts."""
        if self.finished:
            return
        self._stall_ticks += 1
        if self.phase == "await_ciphertexts":
            chosen = self._choose_sessions()
            if chosen is not None:
                self._accept_phase(sim)
            elif self._stall_ticks > 2:
                self._finish(sim, "too-few-valid-deliveries")
        elif self.phase == "await_keys":
            record = sim.ledger.snapshot_buyer(self.cid, self.account)
            refunded = {
                j for j in self.accepted
                if record["status"].get(j) == "REFUNDED"
            }
            if refunded:
                # sessions timed out without a reveal and were refunded
                self.accepted -= refunded
                replacements = [
                    j for j in sorted(self.delivered)
                    if j not in self.accepted and j not in refunded
                    and record["status"].get(j) == "QUERIED"
                ]
                missing = max(0, self._needed_sessions() - len(self.accepted))
                took = 0
                for j in replacements:
                    if took >= missing:
                        break
                    self._accept_session(sim, j)
                    sim.send(self.name, f"node-{j}", "notice_accept", {})
                    took += 1
                if took == 0 and all(j in self.keys for j in self.accepted):
                    self._reconstruct_phase(sim)

    def refunds_received(self, ledger) -> int:
        spent = self.paid_sessions * (
            self.config.resolved_price() // self.config.n_nodes
        )
        balance = ledger.balances.get(self.account, 0)
        return balance - (self._initial_balance - spent)

    def sessions_in_state(self, state: str, ledger) -> tuple[int, ...]:
        record = ledger.snapshot_buyer(self.cid, self.account)
        if record is None:
            return ()
        return tuple(
            sorted(j for j, s in record["status"].items() if s == state)
        )


# ---------------------------------------------------------------- stages


@dataclass
class ProtocolSetup:
    config: ScenarioConfig
    script: AdversaryScript
    platform: tee.TeePlatform
    registry: tee.AttestationRegistry
    server: PDAppServer
    devices: list[DeviceHost]
    nodes: dict[int, DexoNode]
    consumer: Consumer
    cid: str | None = None
    priority_group: list[int] = field(default_factory=list)


def stage0_setup(
    sim: Simulator, config: ScenarioConfig, script: AdversaryScript
) -> ProtocolSetup:
    """Install the trusted app on every device, attest, and deploy the contract."""
    config.validate()
    oversold = script.role_action("server", "oversell", "stage1_produce")
    if oversold and config.value_max >= 255:
        raise StageError("oversell scenario needs headroom above value_max")

    platform = tee.TeePlatform(rng=random.Random(sim.rng.getrandbits(64)))
    registry = tee.AttestationRegistry(
        expected_measurement=tee.measure(RATIFIED_TA)
    )
    server = PDAppServer(config, script, registry)
    sim.register(server)

    devices = []
    for i in range(1, config.providers + 1):
        tampered = i in script.tampered_providers
        eid = platform.install(RATIFIED_TA, tampered=tampered)
        _, _, mpk = platform.resume_attest(eid)
        registry.register_key(mpk)
        raw = tee.encode_readings(
            _device_readings(config, sim.rng, oversold), width=2
        )
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

    group = (
        list(range(1, config.threshold - config.max_faulty + 1))
        if config.shared_key
        else []
    )
    return ProtocolSetup(
        config=config, script=script, platform=platform, registry=registry,
        server=server, devices=devices, nodes=nodes, consumer=consumer,
        cid=cid, priority_group=group,
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
    if setup.priority_group:
        leader = setup.nodes[setup.priority_group[0]]
        group_key = KeyMaterial(leader.rng.randbytes(32))
        leader.group_key = group_key
        leader._maybe_leak_key(sim, group_key)
        for j in setup.priority_group[1:]:
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
