"""Canonical byte encodings used on the wire and inside dispute evidence.

A node's ciphertext blob is the encryption of its share records concatenated
in provider order. Beside it travels the node's openings blob, encrypted
under the same key with its own nonce: the device signature of every share
record, which lets the consumer tell authentic shares from altered ones. Records are fixed-width for a given listing (every
provider's datum has the advertised size), so the byte range of provider i's
record, and hence the Merkle leaves covering it, are computable by anyone who
knows the listing description. Dispute evidence exploits this: the contract
re-encrypts a claimed plaintext share at the record's keystream offset and
checks the resulting bytes against Merkle-proven ciphertext chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import (
    KeyMaterial,
    MerkleProof,
    MerkleRoot,
    SecretShare,
    keystream_xor,
    merkle_prove,
    merkle_root,
    merkle_verify,
)

CHUNK_SIZE = 32
_HEADER_LEN = 6  # provider u16 | node u8 | x u8 | y_len u16


def encode_share(share: SecretShare) -> bytes:
    """Length-prefixed record; also the byte string covered by TEE signatures."""
    return (
        share.provider_index.to_bytes(2, "big")
        + share.node_index.to_bytes(1, "big")
        + share.x_coordinate.to_bytes(1, "big")
        + len(share.y_values).to_bytes(2, "big")
        + share.y_values
    )


def decode_shares(payload: bytes) -> list[SecretShare]:
    shares = []
    pos = 0
    while pos < len(payload):
        if pos + _HEADER_LEN > len(payload):
            raise ValueError("truncated share record header")
        provider = int.from_bytes(payload[pos : pos + 2], "big")
        node = payload[pos + 2]
        x = payload[pos + 3]
        y_len = int.from_bytes(payload[pos + 4 : pos + 6], "big")
        pos += _HEADER_LEN
        if pos + y_len > len(payload):
            raise ValueError("truncated share record body")
        shares.append(
            SecretShare(
                provider_index=provider,
                node_index=node,
                x_coordinate=x,
                y_values=payload[pos : pos + y_len],
            )
        )
        pos += y_len
    return shares


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
    leaf_index: int
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
    proofs = tuple(
        ChunkProof(leaf_index=i, chunk=chunks[i], proof=merkle_prove(chunks, i))
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
    indices = [cp.leaf_index for cp in evidence.chunks]
    if indices != list(range(first, last + 1)):
        return False
    for cp in evidence.chunks:
        if cp.proof.leaf_index != cp.leaf_index:
            return False
        if not merkle_verify(delta, cp.chunk, cp.proof):
            return False
    window = b"".join(cp.chunk for cp in evidence.chunks)
    start = offset - first * CHUNK_SIZE
    expected_cipher = keystream_xor(key, record, nonce, offset=offset)
    return window[start : start + len(record)] == expected_cipher


def payload_root(node_payload_cipher: bytes) -> MerkleRoot:
    return merkle_root(chunk_payload(node_payload_cipher))


# ---------------------------------------------------------------- openings

_PUBLIC_KEY_LEN = 32
_SIGNATURE_LEN = 64
OPENING_LEN = _PUBLIC_KEY_LEN + _SIGNATURE_LEN


def openings_nonce(payload_nonce: bytes, node_index: int) -> bytes:
    """Nonce of node j's openings blob.

    It differs from the payload nonce, so one key never encrypts the payload
    and the openings under the same keystream, and it differs per node, so a
    priority group sharing one key never reuses a keystream either.
    """
    return payload_nonce + b"|openings|" + node_index.to_bytes(1, "big")


def encode_openings(openings: list[tuple[bytes, bytes]]) -> bytes:
    """One fixed-width record per provider, in provider order: the device's
    platform public key and its signature over the share record.
    """
    for public_key, signature in openings:
        if len(public_key) != _PUBLIC_KEY_LEN or len(signature) != _SIGNATURE_LEN:
            raise ValueError("opening record has the wrong width")
    return b"".join(public_key + signature for public_key, signature in openings)


def decode_openings(blob: bytes, count: int) -> list[tuple[bytes, bytes]]:
    """Inverse of :func:`encode_openings`; the blob must hold ``count`` records."""
    if len(blob) != count * OPENING_LEN:
        raise ValueError(f"openings blob holds {len(blob)} bytes, expected {count} records")
    return [
        (blob[pos : pos + _PUBLIC_KEY_LEN], blob[pos + _PUBLIC_KEY_LEN : pos + OPENING_LEN])
        for pos in range(0, len(blob), OPENING_LEN)
    ]
