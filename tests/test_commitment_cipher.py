"""Commitment and keystream-cipher contracts, pinned to golden vectors."""

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexo.crypto import (
    Commitment,
    KeyMaterial,
    commit,
    keystream_xor,
    open_commitment,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_vectors.json").read_text())


def test_commit_open_roundtrip():
    k = KeyMaterial(random.Random(1).randbytes(32))
    assert open_commitment(k, commit(k))


def test_commit_zero_key_golden():
    com = commit(KeyMaterial(bytes(32)))
    assert com.digest.hex() == GOLDEN["commit_zero_key"]


def test_open_with_wrong_key_fails():
    rng = random.Random(2)
    k = KeyMaterial(rng.randbytes(32))
    k2 = KeyMaterial(rng.randbytes(32))
    assert not open_commitment(k2, commit(k))


def test_commitment_binding_smoke():
    # collision-resistance smoke test over 10^5 random keys
    rng = random.Random(3)
    seen = {}
    for _ in range(100_000):
        k = rng.randbytes(32)
        d = commit(KeyMaterial(k)).digest
        assert seen.setdefault(d, k) == k, "distinct keys committed to same digest"


def test_key_material_length_enforced():
    with pytest.raises(ValueError):
        KeyMaterial(b"short")
    with pytest.raises(ValueError):
        Commitment(b"short")


@pytest.mark.parametrize("length", [0, 1, 31, 32, 33])
def test_encrypt_roundtrip(length):
    rng = random.Random(length)
    k = KeyMaterial(rng.randbytes(32))
    pt = rng.randbytes(length)
    assert keystream_xor(k, keystream_xor(k, pt, b"nonce"), b"nonce") == pt


def test_encrypt_preserves_length_and_is_deterministic():
    k = KeyMaterial(random.Random(5).randbytes(32))
    pt = b"deterministic payload"
    c1 = keystream_xor(k, pt, b"tid-1")
    c2 = keystream_xor(k, pt, b"tid-1")
    assert c1 == c2
    assert len(c1) == len(pt)


def test_different_keys_give_different_ciphertexts():
    rng = random.Random(6)
    pt = rng.randbytes(32)
    for _ in range(100):
        k1 = KeyMaterial(rng.randbytes(32))
        k2 = KeyMaterial(rng.randbytes(32))
        assert keystream_xor(k1, pt, b"n") != keystream_xor(k2, pt, b"n")


def test_cipher_golden_vector():
    k = KeyMaterial(bytes.fromhex(GOLDEN["cipher_key"]))
    nonce = bytes.fromhex(GOLDEN["cipher_nonce"])
    pt = bytes.fromhex(GOLDEN["cipher_plaintext"])
    assert keystream_xor(k, pt, nonce).hex() == GOLDEN["cipher_ciphertext"]


def test_keystream_segment_matches_full_encryption():
    # a segment re-encrypted at its offset equals the slice of the whole
    rng = random.Random(7)
    k = KeyMaterial(rng.randbytes(32))
    pt = rng.randbytes(200)
    whole = keystream_xor(k, pt, b"tid")
    for offset, length in [(0, 10), (5, 64), (31, 2), (32, 32), (97, 103)]:
        segment = keystream_xor(k, pt[offset : offset + length], b"tid", offset=offset)
        assert segment == whole[offset : offset + length]


def _reference_stream(key: KeyMaterial, nonce: bytes, length: int) -> bytes:
    """SHA-256(key || nonce || counter) blocks, straight from the definition."""
    blocks = (
        hashlib.sha256(key.key + nonce + i.to_bytes(8, "big")).digest()
        for i in range((length + 31) // 32)
    )
    return b"".join(blocks)[:length]


@settings(max_examples=150, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(max_size=40),
    offset=st.integers(min_value=0, max_value=300),
    data=st.binary(max_size=150),
)
def test_keystream_at_any_offset_is_a_slice_of_the_full_stream(key, nonce, offset, data):
    k = KeyMaterial(key)
    stream = _reference_stream(k, nonce, offset + len(data))[offset:]
    expected = bytes(a ^ b for a, b in zip(data, stream))
    assert keystream_xor(k, data, nonce, offset=offset) == expected
