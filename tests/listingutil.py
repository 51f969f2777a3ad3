"""Shared helper for driving contract flows directly at the ledger level."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from dexo import wire
from dexo.crypto import Commitment, KeyMaterial, MerkleRoot, SecretShare, commit, create_shares, keystream_xor
from dexo.ledger import DataDescription, Ledger

CONSUMER = "consumer"
DEPLOYER = "server"


@dataclass
class NodeFixture:
    index: int
    account: str
    key: KeyMaterial
    shares: list[SecretShare]
    payload: bytes
    cipher: bytes
    delta: MerkleRoot
    com: Commitment


@dataclass
class ListingFixture:
    ledger: Ledger
    cid: str
    n: int
    t: int
    m: int
    price: int
    data: list[bytes]
    nodes: dict[int, NodeFixture] = field(default_factory=dict)

    @property
    def contract(self):
        return self.ledger.contracts[self.cid]

    @property
    def session_price(self) -> int:
        return self.price // self.n

    def evidence(self, node_index: int, provider_index: int) -> wire.ShareEvidence:
        node = self.nodes[node_index]
        share = next(
            s for s in node.shares if s.provider_index == provider_index
        )
        return wire.build_share_evidence(
            share, node_index, node.cipher, len(self.data[0])
        )

    def initialize_all(self):
        for node in self.nodes.values():
            self.ledger.initialize(node.account, self.cid, node.delta, node.com)

    def accept_sessions(self, indices):
        for j in indices:
            self.ledger.accept(CONSUMER, self.cid, j, self.session_price)

    def reveal_sessions(self, indices):
        for j in indices:
            node = self.nodes[j]
            self.ledger.reveal_key(node.account, self.cid, node.key)


def build_listing(
    n: int,
    t: int,
    m: int = 1,
    *,
    datum_size: int = 4,
    value_min: int = 0,
    value_max: int = 255,
    data_min: int | None = None,
    data_max: int | None = None,
    timeout_blocks: int = 10,
    price: int | None = None,
    node_fee: int = 0,
    tamper_nodes: tuple[int, ...] = (),
    shared_key_nodes: tuple[int, ...] = (),
    seed: int = 1,
) -> ListingFixture:
    """Create a funded contract with node-side material ready for exchange.

    ``tamper_nodes`` substitute random share bytes before committing, so
    their digests match what they deliver. ``shared_key_nodes`` all commit
    to one common key. Provider data bytes are drawn from
    [data_min, data_max] (defaulting to the description range).
    """
    rng = random.Random(seed)
    price = price if price is not None else 100 * n
    lo = value_min if data_min is None else data_min
    hi = value_max if data_max is None else data_max
    data = [
        bytes(rng.randint(lo, hi) for _ in range(datum_size)) for _ in range(m)
    ]

    per_node: dict[int, list[SecretShare]] = {j: [] for j in range(1, n + 1)}
    for provider in range(1, m + 1):
        shares = create_shares(t, n, data[provider - 1], rng=rng, provider_index=provider)
        for s in shares:
            per_node[s.node_index].append(s)

    ledger = Ledger()
    desc = DataDescription(
        datum_size=datum_size,
        value_min=value_min,
        value_max=value_max,
        providers=m,
        n_nodes=n,
        threshold=t,
        timeout_blocks=timeout_blocks,
    )
    sellers = [f"node-{j}" for j in range(1, n + 1)]
    sources = [f"provider-{i}" for i in range(1, m + 1)]
    cid = ledger.create_contract(DEPLOYER, sellers, sources, price, desc, node_fee)
    ledger.fund(CONSUMER, price)

    fixture = ListingFixture(
        ledger=ledger, cid=cid, n=n, t=t, m=m, price=price, data=data
    )
    shared = KeyMaterial(rng.randbytes(32))
    for j in range(1, n + 1):
        shares = per_node[j]
        if j in tamper_nodes:
            shares = [
                SecretShare(
                    provider_index=s.provider_index,
                    node_index=s.node_index,
                    x_coordinate=s.x_coordinate,
                    y_values=rng.randbytes(len(s.y_values)),
                )
                for s in shares
            ]
        key = shared if j in shared_key_nodes else KeyMaterial(rng.randbytes(32))
        payload = wire.encode_node_payload(shares)
        cipher = keystream_xor(key, payload, wire.payload_nonce(ledger.contracts[cid].tid))
        fixture.nodes[j] = NodeFixture(
            index=j,
            account=sellers[j - 1],
            key=key,
            shares=shares,
            payload=payload,
            cipher=cipher,
            delta=wire.payload_root(cipher),
            com=commit(key),
        )
    return fixture
