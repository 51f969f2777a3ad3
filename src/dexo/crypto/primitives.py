"""Hash commitments, keystream encryption, and Ed25519 signatures.

A single 256-bit hash (SHA-256) is used everywhere, with one-byte domain
separation tags so commitment, Merkle-leaf, and Merkle-node inputs can never
collide across uses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

TAG_COMMIT = b"\x00"
TAG_LEAF = b"\x01"
TAG_NODE = b"\x02"

KEY_LEN = 32
DIGEST_LEN = 32


def sha256(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.digest()


@dataclass(frozen=True)
class KeyMaterial:
    key: bytes

    def __post_init__(self):
        if len(self.key) != KEY_LEN:
            raise ValueError(f"key must be {KEY_LEN} bytes, got {len(self.key)}")


@dataclass(frozen=True)
class Commitment:
    digest: bytes

    def __post_init__(self):
        if len(self.digest) != DIGEST_LEN:
            raise ValueError("commitment digest must be 32 bytes")


def commit(key: KeyMaterial) -> Commitment:
    """Binding commitment to a 32-byte key; hiding rests on the key's entropy."""
    return Commitment(sha256(TAG_COMMIT, key.key))


def open_commitment(key: KeyMaterial, com: Commitment) -> bool:
    return commit(key) == com


def keystream_xor(
    key: KeyMaterial, data: bytes, nonce: bytes, offset: int = 0
) -> bytes:
    """XOR ``data`` with the keystream positioned at byte ``offset``.

    The stream is SHA-256(key || nonce || counter) in 32-byte blocks, so the
    transform is deterministic for a fixed (key, nonce) and a segment of a
    longer message can be recomputed in isolation given its offset. Encrypt
    and decrypt are the same operation.
    """
    if not data:
        return b""
    first_block, skip = divmod(offset, DIGEST_LEN)
    last_block = (offset + len(data) - 1) // DIGEST_LEN
    prefix = hashlib.sha256(key.key)
    prefix.update(nonce)
    blocks = []
    for i in range(first_block, last_block + 1):
        h = prefix.copy()
        h.update(i.to_bytes(8, "big"))
        blocks.append(h.digest())
    stream = b"".join(blocks)
    stream = stream[skip : skip + len(data)]
    xored = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return xored.to_bytes(len(data), "big")


def encrypt(key: KeyMaterial, plaintext: bytes, nonce: bytes) -> bytes:
    return keystream_xor(key, plaintext, nonce)


def decrypt(key: KeyMaterial, ciphertext: bytes, nonce: bytes) -> bytes:
    return keystream_xor(key, ciphertext, nonce)


@dataclass(frozen=True)
class SignatureKeyPair:
    public_key: bytes
    private_key: Ed25519PrivateKey = field(repr=False)


def generate_keypair(seed: bytes) -> SignatureKeyPair:
    """Derive an Ed25519 keypair from a 32-byte seed (deterministic)."""
    if len(seed) != 32:
        raise ValueError("keypair seed must be 32 bytes")
    private = Ed25519PrivateKey.from_private_bytes(seed)
    public = private.public_key().public_bytes_raw()
    return SignatureKeyPair(public_key=public, private_key=private)


def sign(private_key: Ed25519PrivateKey, message: bytes) -> bytes:
    return private_key.sign(message)


@lru_cache(maxsize=4096)
def _public_key_object(public_key: bytes) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(public_key)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    try:
        _public_key_object(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False
