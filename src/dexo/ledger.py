"""In-process blockchain hosting the data-exchange contract.

The ledger is a single serialization point: callers invoke operations one at
a time, and each metered operation is one transaction (:func:`_metered`)
that appends a :class:`Call` to the run log, or a :class:`Revert` if the
contract rejects it; the gas log is that log's calls. Gas amounts for deploy,
initialize, accept, revealKey, checkKey, and noComplain are calibrated
constants; query, challenge and every revert carry model-estimated figures
that reports must flag as such.

Contract flow per buyer session (one session per seller node):

    QUERIED -> ACCEPTED -> KEY_OUT -> SETTLED | REFUNDED

Each open (ACCEPTED or KEY_OUT) session runs on one clock, started when it
was accepted or moved to KEY_OUT. A key reveal opens a dispute window of
``timeout_blocks``; within it the buyer may settle early (noComplain) or
submit a challenge. ``timeout_blocks`` after its clock started, an open
session closes: SETTLED if its key is out, REFUNDED if its node never
revealed.
"""

from __future__ import annotations

import csv
import functools
import inspect
import io
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from . import wire
from .crypto import (
    Commitment,
    KeyMaterial,
    MerkleRoot,
    ShamirError,
    commit,
    evaluate_at,
    open_commitment,
    reconstruct,
)

# ---------------------------------------------------------------- errors


class InvariantViolation(Exception):
    """A run broke a property that must hold whatever its inputs."""


class LedgerError(Exception):
    pass


class InvalidParamsError(LedgerError):
    pass


class UnknownContractError(LedgerError):
    pass


class UnauthorizedCallerError(LedgerError):
    pass


class DoubleInitializeError(LedgerError):
    pass


class NotInitializedError(LedgerError):
    pass


class NotQueriedError(LedgerError):
    pass


class WrongPaymentError(LedgerError):
    pass


class InsufficientBalanceError(LedgerError):
    pass


class BadKeyError(LedgerError):
    pass


class NoAcceptedBuyerError(LedgerError):
    pass


class NotBuyerError(LedgerError):
    pass


class PendingDisputeError(LedgerError):
    pass


class BadMerkleProofError(LedgerError):
    pass


class WindowClosedError(LedgerError):
    pass


class SharesInconsistentError(LedgerError):
    pass


# ---------------------------------------------------------------- gas model


@dataclass(frozen=True)
class GasSchedule:
    deployment: int = 2_325_998
    initialize: int = 74_248
    no_complain_base: int = 37_194
    no_complain_per_source: int = 5_735
    accept: int = 74_843
    reveal_key: int = 84_334
    check_key: int = 3_457
    # no published measurements exist for these two; modeled, never compared
    # against the calibrated constants above
    query: int = 74_843
    challenge_base: int = 120_000
    challenge_per_share: int = 8_000


GAS = GasSchedule()
MODEL_ESTIMATED_FUNCTIONS = frozenset({"query", "challenge"})


# write-once, enforced by tests/test_write_once.py: `frozen` would make
# every construction three to six times as slow
@dataclass(slots=True)
class Call:
    """One metered contract call in the run log."""

    block: int
    caller: str
    function: str
    gas: int


@dataclass(slots=True)
class Revert:
    """A metered contract call the contract rejected, as an EVM ``REVERT``:
    it changes no contract state and no balance, and it is charged the gas
    the call would have cost. No rejected call has a published measurement,
    so that gas is model-estimated. ``reason`` is the error's text."""

    block: int
    caller: str
    function: str
    gas: int
    reason: str


def _metered(function: str, gas: int | Callable[..., int]):
    """Make a :class:`Ledger` method one metered transaction, logged as
    ``function`` at price ``gas``: a constant, or a function of the ledger
    and the method's arguments after ``caller``, in order however the call
    passed them. A call that returns appends its :class:`Call`; one that
    raises :class:`LedgerError` appends a :class:`Revert` at the same price
    and re-raises. Every method body validates before it mutates, so a
    rejected call changes nothing else."""

    def wrap(method):
        bind = inspect.signature(method).bind

        @functools.wraps(method)
        def transact(self, caller, *args, **kwargs):
            cost = (gas(self, *bind(self, caller, *args, **kwargs).args[2:])
                    if callable(gas) else gas)
            try:
                result = method(self, caller, *args, **kwargs)
            except LedgerError as exc:
                self.log.append(Revert(self.block_height, caller, function, cost, str(exc)))
                raise
            self.log.append(Call(self.block_height, caller, function, cost))
            return result

        return transact

    return wrap


def _no_complain_price(ledger: Ledger, cid: str) -> int:
    """noComplain's price grows with the listing's sources. A call on an
    unknown contract has no listing to price against, so its revert is
    charged the base alone."""
    contract = ledger.contracts.get(cid)
    sources = len(contract.data_sources) if contract else 0
    return GAS.no_complain_base + GAS.no_complain_per_source * sources


def _challenge_price(ledger: Ledger, cid: str, first: list, second: list) -> int:
    return GAS.challenge_base + GAS.challenge_per_share * (len(first) + len(second))


# ---------------------------------------------------------------- state


class SessionStatus(Enum):
    QUERIED = "QUERIED"
    ACCEPTED = "ACCEPTED"
    KEY_OUT = "KEY_OUT"
    SETTLED = "SETTLED"
    REFUNDED = "REFUNDED"


@dataclass(frozen=True)
class DataDescription:
    """Advertised listing terms; the dispute predicate checks data against it."""

    datum_size: int
    value_min: int
    value_max: int
    providers: int
    n_nodes: int
    threshold: int
    timeout_blocks: int

    def __post_init__(self):
        if self.value_min > self.value_max:
            raise InvalidParamsError("value_min exceeds value_max")
        if self.datum_size < 1:
            raise InvalidParamsError("datum_size must be positive")


def conforms_to_description(datum: bytes, desc: DataDescription) -> bool:
    """The on-chain validity predicate over reconstructed data: every byte
    is one value inside the advertised range."""
    if len(datum) != desc.datum_size:
        return False
    return desc.value_min <= min(datum) and max(datum) <= desc.value_max


@dataclass(frozen=True, slots=True)
class Listing:
    """Off-chain view of a listing: what a buyer needs before querying."""

    tid: str
    desc: DataDescription
    delta: dict[int, MerkleRoot]
    commitment: dict[int, Commitment]
    session_price: int  # the escrow one accepted session takes

    @property
    def initialized(self) -> bool:
        """Every node has registered its digest and commitment."""
        return len(self.delta) == self.desc.n_nodes


@dataclass
class BuyerRecord:
    account: str
    status: dict[int, SessionStatus]
    # the block at which each open session was accepted or moved to KEY_OUT;
    # each holds one session price in escrow
    since: dict[int, int] = field(default_factory=dict)
    no_complain_called: bool = False


@dataclass
class ContractState:
    cid: str
    tid: str
    seller_nodes: list[str]
    data_sources: list[str]
    price: int
    node_fee: int
    desc: DataDescription
    delta: dict[int, MerkleRoot] = field(default_factory=dict)
    commitment: dict[int, Commitment] = field(default_factory=dict)
    buyers: dict[str, BuyerRecord] = field(default_factory=dict)
    key_revealed: dict[int, KeyMaterial] = field(default_factory=dict)
    reveal_block: dict[int, int] = field(default_factory=dict)
    flagged_nodes: set[int] = field(default_factory=set)

    @property
    def n_nodes(self) -> int:
        return len(self.seller_nodes)

    @property
    def session_price(self) -> int:
        return self.price // self.n_nodes

    def node_index_of(self, account: str) -> int:
        return self.seller_nodes.index(account) + 1

    def escrow_total(self) -> int:
        return self.session_price * sum(len(b.since) for b in self.buyers.values())

    def dump(self) -> str:
        """Deterministic structured-text dump for golden-file tests."""
        lines = [f"contract {self.cid} tid={self.tid}"]
        lines.append(f"  price={self.price} node_fee={self.node_fee}")
        lines.append(
            "  desc datum_size={0.datum_size} range=[{0.value_min},{0.value_max}]"
            " providers={0.providers} nodes={0.n_nodes} threshold={0.threshold}"
            " timeout={0.timeout_blocks}".format(self.desc)
        )
        lines.append("  sellers=" + ",".join(self.seller_nodes))
        lines.append("  sources=" + ",".join(self.data_sources))
        for j in sorted(self.delta):
            lines.append(f"  delta[{j}]={self.delta[j].digest.hex()}/{self.delta[j].leaf_count}")
        for j in sorted(self.commitment):
            lines.append(f"  com[{j}]={self.commitment[j].digest.hex()}")
        for j in sorted(self.key_revealed):
            lines.append(f"  key[{j}]={self.key_revealed[j].key.hex()}")
        for account in sorted(self.buyers):
            rec = self.buyers[account]
            per = " ".join(
                f"{j}:{rec.status[j].value}:{self.session_price if j in rec.since else 0}"
                for j in sorted(rec.status)
            )
            lines.append(f"  buyer {account} noComplain={rec.no_complain_called} {per}")
        if self.flagged_nodes:
            lines.append("  flagged=" + ",".join(map(str, sorted(self.flagged_nodes))))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ChallengeResult:
    accepted: bool
    refunded_nodes: tuple[int, ...] = ()


# ---------------------------------------------------------------- ledger


class Ledger:
    """The chain. ``log`` is the run log: this ledger appends its calls, and
    a simulator built on it appends messages, notes and disputes.
    """

    def __init__(self):
        self.contracts: dict[str, ContractState] = {}
        self.block_height = 0
        self.log: list = []
        self.balances: dict[str, int] = {}
        self.minted = 0
        self._next_cid = 0

    # -- plumbing

    def fund(self, account: str, amount: int) -> None:
        """Genesis mint; the only operation that creates currency."""
        self.balances[account] = self.balances.get(account, 0) + amount
        self.minted += amount

    def _contract(self, cid: str) -> ContractState:
        try:
            return self.contracts[cid]
        except KeyError:
            raise UnknownContractError(f"no contract {cid!r}") from None

    def _credit(self, account: str, amount: int) -> None:
        self.balances[account] = self.balances.get(account, 0) + amount

    def conservation_total(self) -> int:
        return sum(self.balances.values()) + sum(
            c.escrow_total() for c in self.contracts.values()
        )

    def assert_conserved(self) -> None:
        total = self.conservation_total()
        if total != self.minted:
            raise InvariantViolation(
                f"currency not conserved: {total} in circulation, {self.minted} minted"
            )

    def calls(self) -> list[Call]:
        """The successful calls: the gas log. Reverts are left out."""
        return [r for r in self.log if type(r) is Call]

    def gas_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["block", "caller", "function", "gas_units", "cumulative_gas"])
        running = 0
        for c in self.calls():
            running += c.gas
            writer.writerow([c.block, c.caller, c.function, c.gas, running])
        return out.getvalue()

    # -- contract lifecycle

    @_metered("deploy", GAS.deployment)
    def create_contract(
        self,
        caller: str,
        seller_nodes: list[str],
        data_sources: list[str],
        price: int,
        desc: DataDescription,
        node_fee: int = 0,
    ) -> str:
        if not seller_nodes or not data_sources:
            raise InvalidParamsError("seller_nodes and data_sources must be nonempty")
        if price <= 0:
            raise InvalidParamsError("price must be positive")
        if price % len(seller_nodes):
            raise InvalidParamsError(
                "price must divide evenly into per-session payments"
            )
        if desc.n_nodes != len(seller_nodes) or desc.providers != len(data_sources):
            raise InvalidParamsError("description does not match participant lists")
        if not 0 <= node_fee <= price // len(seller_nodes):
            raise InvalidParamsError("node_fee must fit within the session price")
        self._next_cid += 1
        cid = f"c{self._next_cid}"
        self.contracts[cid] = ContractState(
            cid=cid,
            tid=f"{cid}:listing",
            seller_nodes=list(seller_nodes),
            data_sources=list(data_sources),
            price=price,
            node_fee=node_fee,
            desc=desc,
        )
        return cid

    @_metered("initialize", GAS.initialize)
    def initialize(
        self, caller: str, cid: str, delta: MerkleRoot, com: Commitment
    ) -> None:
        contract = self._contract(cid)
        if caller not in contract.seller_nodes:
            raise UnauthorizedCallerError(f"{caller} is not a seller node")
        j = contract.node_index_of(caller)
        if j in contract.delta:
            raise DoubleInitializeError(f"node {j} already initialized")
        contract.delta[j] = delta
        contract.commitment[j] = com

    @_metered("query", GAS.query)
    def query(self, caller: str, cid: str, node_index: int | None = None) -> None:
        """Open exchange sessions. ``node_index=None`` is the merged form:
        one call opens a session with every node. A specific index opens just
        that session (the un-merged protocol variant).
        """
        contract = self._contract(cid)
        if node_index is None:
            if len(contract.delta) != contract.n_nodes:
                raise NotInitializedError(
                    f"{len(contract.delta)}/{contract.n_nodes} nodes initialized"
                )
            if caller in contract.buyers:
                raise InvalidParamsError(f"{caller} already queried")
            contract.buyers[caller] = BuyerRecord(
                account=caller,
                status={
                    j: SessionStatus.QUERIED for j in range(1, contract.n_nodes + 1)
                },
            )
        else:
            if node_index not in contract.delta:
                raise NotInitializedError(f"node {node_index} not initialized")
            record = contract.buyers.get(caller) or BuyerRecord(account=caller, status={})
            if node_index in record.status:
                raise InvalidParamsError(f"session {node_index} already queried")
            contract.buyers[caller] = record
            record.status[node_index] = SessionStatus.QUERIED

    @_metered("accept", GAS.accept)
    def accept(self, caller: str, cid: str, node_index: int, payment: int) -> None:
        contract = self._contract(cid)
        record = contract.buyers.get(caller)
        if record is None or record.status.get(node_index) != SessionStatus.QUERIED:
            raise NotQueriedError(f"no queried session {node_index} for {caller}")
        if payment != contract.session_price:
            raise WrongPaymentError(
                f"payment {payment} != session price {contract.session_price}"
            )
        if self.balances.get(caller, 0) < payment:
            raise InsufficientBalanceError(f"{caller} cannot cover {payment}")
        self.balances[caller] -= payment
        record.since[node_index] = self.block_height
        record.status[node_index] = SessionStatus.ACCEPTED

    @_metered("revealKey", GAS.reveal_key)
    def reveal_key(self, caller: str, cid: str, key: KeyMaterial) -> None:
        contract = self._contract(cid)
        if caller not in contract.seller_nodes:
            raise UnauthorizedCallerError(f"{caller} is not a seller node")
        j = contract.node_index_of(caller)
        if not any(
            rec.status.get(j) == SessionStatus.ACCEPTED
            for rec in contract.buyers.values()
        ):
            raise NoAcceptedBuyerError(f"no accepted session for node {j}")
        if j not in contract.commitment or not open_commitment(
            key, contract.commitment[j]
        ):
            raise BadKeyError(f"key does not open node {j}'s commitment")
        # release the key for every node committed to it: a group of nodes
        # sharing one key is served by its leader's single reveal, and a
        # later reveal of that key moves sessions accepted since then, each
        # with a full dispute window of its own
        opened = commit(key)
        for m, com in contract.commitment.items():
            if com != opened:
                continue
            if m not in contract.key_revealed:
                contract.key_revealed[m] = key
                contract.reveal_block[m] = self.block_height
            for rec in contract.buyers.values():
                if rec.status.get(m) == SessionStatus.ACCEPTED:
                    rec.status[m] = SessionStatus.KEY_OUT
                    rec.since[m] = self.block_height

    @_metered("read", 0)
    def read(self, caller: str, cid: str, buyer: str, j: int) -> SessionStatus | None:
        """Metered read of one buyer's session status; it costs no gas."""
        record = self._contract(cid).buyers.get(buyer)
        return record.status.get(j) if record else None

    @_metered("read", GAS.check_key)
    def check_key(self, caller: str, cid: str, j: int) -> KeyMaterial | None:
        """Metered read of node j's revealed key at the published checkKey
        cost; it is logged as a ``read`` like every state read."""
        return self._contract(cid).key_revealed.get(j)

    def snapshot_listing(self, cid: str) -> Listing:
        """Free off-chain view of listing metadata (browsing, not metered)."""
        contract = self._contract(cid)
        return Listing(
            tid=contract.tid,
            desc=contract.desc,
            delta=dict(contract.delta),
            commitment=dict(contract.commitment),
            session_price=contract.session_price,
        )

    def snapshot_buyer(self, cid: str, account: str) -> dict[int, SessionStatus] | None:
        """Free off-chain view of the caller's own session states."""
        record = self._contract(cid).buyers.get(account)
        return None if record is None else dict(record.status)

    # -- settlement

    def _distribute(self, contract: ContractState, node_index: int, amount: int) -> None:
        """Pay out one session's escrow: node fee first, remainder to sources."""
        fee = min(contract.node_fee, amount)
        if fee:
            self._credit(contract.seller_nodes[node_index - 1], fee)
        pool = amount - fee
        m = len(contract.data_sources)
        per, rem = divmod(pool, m)
        for i, source in enumerate(contract.data_sources):
            self._credit(source, per + (1 if i < rem else 0))

    def _close(
        self, contract: ContractState, record: BuyerRecord, j: int, status: SessionStatus
    ) -> None:
        """The one way escrow leaves a session: pay it out (SETTLED) or
        return it to the buyer (REFUNDED)."""
        del record.since[j]
        if status is SessionStatus.SETTLED:
            self._distribute(contract, j, contract.session_price)
        else:
            self._credit(record.account, contract.session_price)
        record.status[j] = status

    @_metered("noComplain", _no_complain_price)
    def no_complain(self, caller: str, cid: str) -> None:
        contract = self._contract(cid)
        record = contract.buyers.get(caller)
        if record is None:
            raise NotBuyerError(f"{caller} has no exchange in progress")
        if any(s == SessionStatus.ACCEPTED for s in record.status.values()):
            raise PendingDisputeError("sessions still awaiting key reveal")
        for j, status in record.status.items():
            if status == SessionStatus.KEY_OUT:
                self._close(contract, record, j, SessionStatus.SETTLED)
        record.no_complain_called = True

    def advance_block(self, count: int = 1) -> None:
        self.block_height += count

    def settle_timeouts(self, cid: str) -> None:
        """Close every open session whose clock has run ``timeout_blocks``:
        a lapsed reveal settles, a silent node's accepted session refunds.
        Block production, not a metered call.
        """
        contract = self._contract(cid)
        timeout = contract.desc.timeout_blocks
        for record in contract.buyers.values():
            for j, since in list(record.since.items()):
                if self.block_height >= since + timeout:
                    key_out = record.status[j] is SessionStatus.KEY_OUT
                    self._close(contract, record, j,
                                SessionStatus.SETTLED if key_out else SessionStatus.REFUNDED)

    # -- disputes

    def _challenge_gate(
        self, contract: ContractState, caller: str, evidences: list[wire.ShareEvidence]
    ) -> BuyerRecord:
        record = contract.buyers.get(caller)
        if record is None:
            raise NotBuyerError(f"{caller} has no exchange in progress")
        timeout = contract.desc.timeout_blocks
        for ev in evidences:
            j = ev.node_index
            # evidence is admissible from any session whose key is public and
            # window open: sessions covered by a shared group key carry a
            # revealed key without ever holding their own escrow, so their
            # window runs from the key's first reveal
            if j not in contract.key_revealed:
                raise WindowClosedError(f"no key revealed for session {j}")
            if record.status.get(j) in (SessionStatus.SETTLED, SessionStatus.REFUNDED):
                raise WindowClosedError(f"session {j} already settled or refunded")
            opened_at = (record.since[j] if record.status.get(j) is SessionStatus.KEY_OUT
                         else contract.reveal_block[j])
            if self.block_height >= opened_at + timeout:
                raise WindowClosedError(f"dispute window for session {j} has lapsed")
        for ev in evidences:
            j = ev.node_index
            ok = wire.verify_share_evidence(
                ev,
                contract.delta[j],
                contract.key_revealed[j],
                wire.payload_nonce(contract.tid),
                contract.desc.datum_size,
            )
            if not ok:
                raise BadMerkleProofError(
                    f"share for node {j} does not match its registered digest"
                )
        return record

    def _phi1(self, contract: ContractState, evidences: list[wire.ShareEvidence]) -> bytes:
        """Reconstruct from the evidences' shares; shares that do not
        reconstruct are :class:`SharesInconsistentError`."""
        shares = [ev.share for ev in evidences]
        try:
            return reconstruct(contract.desc.threshold, contract.n_nodes, shares)
        except ShamirError as exc:
            raise SharesInconsistentError(str(exc)) from exc

    @_metered("challenge", _challenge_price)
    def challenge_case1(
        self,
        caller: str,
        cid: str,
        set1: list[wire.ShareEvidence],
        set2: list[wire.ShareEvidence],
    ) -> ChallengeResult:
        """Description violation: two consistent reconstructions agree on data
        that fails the validity predicate; all escrow returns to the buyer.
        """
        contract = self._contract(cid)
        t = contract.desc.threshold
        if len(set1) != t + 1 or len(set2) != t + 1:
            raise InvalidParamsError(f"each set must hold exactly {t + 1} shares")
        providers = {ev.share.provider_index for ev in set1 + set2}
        if len(providers) != 1:
            raise InvalidParamsError("all shares must target one provider")
        keyed = lambda evs: {(e.share.node_index, e.share.y_values) for e in evs}
        if keyed(set1) == keyed(set2):
            raise InvalidParamsError("sets must differ in at least one share")
        record = self._challenge_gate(contract, caller, set1 + set2)
        d1 = self._phi1(contract, set1)
        if d1 != self._phi1(contract, set2):
            raise SharesInconsistentError("the two reconstructions disagree")
        if conforms_to_description(d1, contract.desc):
            return ChallengeResult(accepted=False)
        refunded = [
            j for j, status in record.status.items()
            if status in (SessionStatus.ACCEPTED, SessionStatus.KEY_OUT)
        ]
        for j in refunded:
            self._close(contract, record, j, SessionStatus.REFUNDED)
        return ChallengeResult(accepted=True, refunded_nodes=tuple(sorted(refunded)))

    @_metered("challenge", _challenge_price)
    def challenge_case2(
        self,
        caller: str,
        cid: str,
        good: list[wire.ShareEvidence],
        bad: list[wire.ShareEvidence],
    ) -> ChallengeResult:
        """Bad shares: the t verified reference shares define the data's
        polynomial, and each suspect at KEY_OUT whose share is not that
        polynomial's value at its x-coordinate has its session refunded and
        its node flagged, whatever the order of the references. A suspect
        that holds a consistent copy of a reference's share lies on the
        polynomial and is not refunded: a relay can hand an honest node such
        a copy, so the contract cannot tell a copier from its victim.
        The reference set itself must reconstruct description-valid data,
        which stops only references whose data breaks the description.
        Under a full-range description (every byte value valid) any t
        committed shares pass, so a buyer can take a tampering node's share
        as a reference and have honest nodes refunded and flagged. Evidence
        the contract authenticates against the devices' signed roots closes
        this (ROADMAP item 2).
        """
        contract = self._contract(cid)
        t = contract.desc.threshold
        if len(good) != t:
            raise InvalidParamsError(f"reference set must hold exactly {t} shares")
        if not bad:
            raise InvalidParamsError("no suspect shares submitted")
        providers = {ev.share.provider_index for ev in good + bad}
        if len(providers) != 1:
            raise InvalidParamsError("all shares must target one provider")
        record = self._challenge_gate(contract, caller, good + bad)
        if not conforms_to_description(self._phi1(contract, good), contract.desc):
            raise SharesInconsistentError(
                "reference reconstruction violates the description"
            )
        references = [ev.share for ev in good]
        refunded = []
        for ev in bad:
            j, share = ev.node_index, ev.share
            if (record.status.get(j) == SessionStatus.KEY_OUT
                    and share.y_values != evaluate_at(references, share.x_coordinate)):
                self._close(contract, record, j, SessionStatus.REFUNDED)
                contract.flagged_nodes.add(j)
                refunded.append(j)
        return ChallengeResult(accepted=bool(refunded), refunded_nodes=tuple(sorted(refunded)))
