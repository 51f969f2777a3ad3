"""Wire-format encoding, leaf mapping, and dispute evidence verification."""

import dataclasses
import random

import pytest

from dexo import wire
from dexo.crypto import KeyMaterial, SecretShare, create_shares, encrypt


def _node_blob(seed: int, m: int, t: int, n: int, size: int, node: int):
    """Build one node's plaintext records and ciphertext blob."""
    rng = random.Random(seed)
    shares = []
    for provider in range(1, m + 1):
        datum = rng.randbytes(size)
        all_shares = create_shares(t, n, datum, rng=rng, provider_index=provider)
        shares.append(all_shares[node - 1])
    key = KeyMaterial(rng.randbytes(32))
    payload = wire.encode_node_payload(shares)
    cipher = encrypt(key, payload, b"tid-1")
    return shares, key, payload, cipher


def test_share_record_roundtrip():
    shares, _, payload, _ = _node_blob(1, m=3, t=2, n=4, size=5, node=2)
    decoded = wire.decode_shares(payload)
    assert decoded == shares


def test_records_are_fixed_width_and_offsets_match():
    shares, _, payload, _ = _node_blob(2, m=4, t=2, n=4, size=7, node=1)
    rec_len = wire.record_length(7)
    assert len(payload) == 4 * rec_len
    for s in shares:
        off = wire.record_offset(s.provider_index, 7)
        assert payload[off : off + rec_len] == wire.encode_share(s)


def test_decode_rejects_truncation():
    _, _, payload, _ = _node_blob(3, m=2, t=2, n=3, size=4, node=1)
    with pytest.raises(ValueError):
        wire.decode_shares(payload[:-1])


def test_openings_roundtrip_and_fixed_width():
    rng = random.Random(4)
    records = [(rng.randbytes(32), rng.randbytes(64)) for _ in range(3)]
    blob = wire.encode_openings(records)
    assert len(blob) == 3 * wire.OPENING_LEN
    assert wire.decode_openings(blob, 3) == records
    for bad in (blob[:-1], blob + b"\x00"):
        with pytest.raises(ValueError):
            wire.decode_openings(bad, 3)
    with pytest.raises(ValueError):
        wire.decode_openings(blob, 2)
    with pytest.raises(ValueError):
        wire.encode_openings([(bytes(31), bytes(64))])


def test_openings_nonce_is_domain_separated():
    nonces = {wire.openings_nonce(b"tid-1", j) for j in range(1, 6)}
    assert len(nonces) == 5 and b"tid-1" not in nonces


def test_leaf_span():
    assert wire.leaf_span(0, 10) == (0, 0)
    assert wire.leaf_span(0, 32) == (0, 0)
    assert wire.leaf_span(0, 33) == (0, 1)
    assert wire.leaf_span(31, 2) == (0, 1)
    assert wire.leaf_span(32, 32) == (1, 1)
    assert wire.leaf_span(70, 30) == (2, 3)


def test_evidence_verifies_for_every_provider():
    for m, size in [(1, 4), (3, 10), (5, 33)]:
        shares, key, _, cipher = _node_blob(4, m=m, t=3, n=5, size=size, node=3)
        delta = wire.payload_root(cipher)
        for s in shares:
            ev = wire.build_share_evidence(s, s.node_index, cipher, size)
            assert wire.verify_share_evidence(ev, delta, key, b"tid-1", size)


def test_evidence_rejects_tampered_share():
    shares, key, _, cipher = _node_blob(5, m=3, t=3, n=5, size=10, node=2)
    delta = wire.payload_root(cipher)
    s = shares[1]
    flipped = bytes([s.y_values[0] ^ 1]) + s.y_values[1:]
    bad = SecretShare(s.provider_index, s.node_index, s.x_coordinate, flipped)
    ev = wire.build_share_evidence(bad, bad.node_index, cipher, 10)
    assert not wire.verify_share_evidence(ev, delta, key, b"tid-1", 10)


def test_evidence_rejects_wrong_key_and_nonce():
    shares, key, _, cipher = _node_blob(6, m=2, t=2, n=3, size=8, node=1)
    delta = wire.payload_root(cipher)
    ev = wire.build_share_evidence(shares[0], shares[0].node_index, cipher, 8)
    other = KeyMaterial(random.Random(99).randbytes(32))
    assert not wire.verify_share_evidence(ev, delta, other, b"tid-1", 8)
    assert not wire.verify_share_evidence(ev, delta, key, b"tid-2", 8)


def test_evidence_rejects_foreign_chunks():
    shares, key, _, cipher = _node_blob(7, m=3, t=2, n=3, size=40, node=1)
    delta = wire.payload_root(cipher)
    ev = wire.build_share_evidence(shares[2], shares[2].node_index, cipher, 40)
    # replace one proven chunk with a chunk from a different blob
    _, _, _, other_cipher = _node_blob(8, m=3, t=2, n=3, size=40, node=1)
    foreign = wire.chunk_payload(other_cipher)[ev.chunks[0].leaf_index]
    bad = dataclasses.replace(
        ev, chunks=(dataclasses.replace(ev.chunks[0], chunk=foreign),) + ev.chunks[1:]
    )
    assert not wire.verify_share_evidence(bad, delta, key, b"tid-1", 40)
