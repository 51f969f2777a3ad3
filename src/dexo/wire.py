"""Canonical byte encodings used on the wire and inside dispute evidence.

A node's ciphertext blob is the encryption of its share records concatenated
in provider order. Records are fixed-width for a given listing (every
provider's datum has the advertised size), so the byte range of provider i's
record, and hence the Merkle leaves covering it, are computable by anyone who
knows the listing description. Dispute evidence exploits this: the contract
re-encrypts a claimed plaintext share at the record's keystream offset and
checks the resulting bytes against Merkle-proven ciphertext chunks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .crypto import (
    KeyMaterial,
    MerkleProof,
    MerkleRoot,
    SecretShare,
    keystream_xor,
    merkle_proofs,
    merkle_root,
    merkle_verify,
)

CHUNK_SIZE = 32
_HEADER = struct.Struct(">HBBH")  # provider u16 | node u8 | x u8 | y_len u16
_HEADER_LEN = _HEADER.size


def encode_share(share: SecretShare) -> bytes:
    """Length-prefixed record; also the byte string covered by TEE signatures."""
    y = share.y_values
    return _HEADER.pack(share.provider_index, share.node_index, share.x_coordinate, len(y)) + y


def decode_shares(data: bytes, providers: int, datum_size: int) -> list[SecretShare]:
    """Parse node payload ``data`` laid out as its listing fixes it: one
    record per provider, in provider order, each with ``datum_size`` y bytes
    at a nonzero x. A payload that breaks the layout is a :class:`ValueError`."""
    length = record_length(datum_size)
    if len(data) != providers * length:
        raise ValueError(
            f"payload of {len(data)} bytes is not {providers} records of {length}"
        )
    shares = []
    for provider in range(1, providers + 1):
        pos = record_offset(provider, datum_size)
        labeled, node, x, y_len = _HEADER.unpack_from(data, pos)
        if labeled != provider or y_len != datum_size or x == 0:
            raise ValueError(f"record {provider} breaks the listing layout")
        shares.append(SecretShare(provider, node, x, data[pos + _HEADER_LEN : pos + length]))
    return shares


def payload_nonce(tid: str) -> bytes:
    """Nonce under which a node encrypts its payload blob for listing ``tid``."""
    return tid.encode()


def record_length(datum_size: int) -> int:
    return _HEADER_LEN + datum_size


def record_offset(provider_index: int, datum_size: int) -> int:
    """Byte offset of provider i's record inside a node payload (i is 1-based)."""
    return (provider_index - 1) * record_length(datum_size)


def encode_node_payload(shares: list[SecretShare]) -> bytes:
    return b"".join(encode_share(s) for s in sorted(shares, key=lambda s: s.provider_index))


def chunk_payload(data: bytes) -> list[bytes]:
    """Split into 32-byte chunks; the final chunk may be shorter (unpadded)."""
    return [data[i : i + CHUNK_SIZE] for i in range(0, len(data), CHUNK_SIZE)]


def leaf_span(offset: int, length: int) -> tuple[int, int]:
    """Inclusive range of leaf indices covering bytes [offset, offset+length)."""
    return offset // CHUNK_SIZE, (offset + length - 1) // CHUNK_SIZE


@dataclass(frozen=True)
class ChunkProof:
    chunk: bytes
    proof: MerkleProof


@dataclass(frozen=True)
class ShareEvidence:
    """A plaintext share plus the Merkle-proven ciphertext chunks covering it.

    ``node_index`` names the custodian session the evidence is checked
    against; it normally equals the share's own embedded index but can
    differ when a relay misdelivered the share.
    """

    share: SecretShare
    node_index: int
    chunks: tuple[ChunkProof, ...]


def build_share_evidence(
    share: SecretShare,
    node_index: int,
    node_payload_cipher: bytes,
    datum_size: int,
) -> ShareEvidence:
    """Consumer-side: package a decrypted share with proofs from the node blob."""
    chunks = chunk_payload(node_payload_cipher)
    offset = record_offset(share.provider_index, datum_size)
    first, last = leaf_span(offset, record_length(datum_size))
    _, all_proofs = merkle_proofs(chunks)
    proofs = tuple(
        ChunkProof(chunk=chunks[i], proof=all_proofs[i])
        for i in range(first, last + 1)
    )
    return ShareEvidence(share=share, node_index=node_index, chunks=proofs)


def verify_share_evidence(
    evidence: ShareEvidence,
    delta: MerkleRoot,
    key: KeyMaterial,
    nonce: bytes,
    datum_size: int,
) -> bool:
    """Contract-side: does this plaintext share match the node's commitment?

    Re-encrypts the record at its keystream offset and compares against the
    Merkle-verified ciphertext chunk bytes.
    """
    share = evidence.share
    if len(share.y_values) != datum_size:
        return False
    record = encode_share(share)
    offset = record_offset(share.provider_index, datum_size)
    first, last = leaf_span(offset, len(record))
    indices = [cp.proof.leaf_index for cp in evidence.chunks]
    if indices != list(range(first, last + 1)):
        return False
    for cp in evidence.chunks:
        if not merkle_verify(delta, cp.chunk, cp.proof):
            return False
    window = b"".join(cp.chunk for cp in evidence.chunks)
    start = offset - first * CHUNK_SIZE
    expected_cipher = keystream_xor(key, record, nonce, offset=offset)
    return window[start : start + len(record)] == expected_cipher


def payload_root(node_payload_cipher: bytes) -> MerkleRoot:
    """δ_j: the Merkle root over a node payload's 32-byte chunks.

    Within a run, nodes and the consumer reach it through
    :meth:`PayloadMemo.root`, which calls this function once per distinct
    ciphertext; the contract's evidence check walks proofs on its own.
    """
    return merkle_root(chunk_payload(node_payload_cipher))


class PayloadMemo:
    """Each node payload's Merkle root, computed once in a run.

    Roots are keyed by the whole ciphertext, never by object identity, so
    a hit returns the root a fresh computation would and an altered
    ciphertext is a miss. A memo belongs to one
    :class:`~dexo.netsim.Simulator`, so nothing outlives its run.
    """

    __slots__ = ("_roots",)

    def __init__(self) -> None:
        self._roots: dict[bytes, MerkleRoot] = {}

    def root(self, node_payload_cipher: bytes) -> MerkleRoot:
        root = self._roots.get(node_payload_cipher)
        if root is None:
            root = self._roots[node_payload_cipher] = payload_root(node_payload_cipher)
        return root

