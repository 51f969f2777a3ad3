"""Wire-format encoding, leaf mapping, and dispute evidence verification."""

import dataclasses
import random

import pytest

from dexo import wire
from dexo.crypto import KeyMaterial, SecretShare, create_shares, keystream_xor


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
    cipher = keystream_xor(key, payload, b"tid-1")
    return shares, key, payload, cipher


def test_share_record_roundtrip():
    shares, _, payload, _ = _node_blob(1, m=3, t=2, n=4, size=5, node=2)
    decoded = wire.decode_shares(payload, 3, 5)
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
        wire.decode_shares(payload[:-1], 2, 4)


# breaks of the listing layout (M=3, 4 B, so 10-byte records), each made
# from a well-formed payload
_OFF_LAYOUT = {
    "a missing record": lambda p: p[:20],
    "an extra record": lambda p: p + p[20:],
    "records out of provider order": lambda p: p[10:20] + p[:10] + p[20:],
    "a record at x = 0": lambda p: p[:13] + b"\0" + p[14:],
    "a longer record in place of two": lambda p: p[:14] + (14).to_bytes(2, "big") + p[16:],
}


@pytest.mark.parametrize("forge", list(_OFF_LAYOUT))
def test_decode_rejects_a_payload_off_the_listing_layout(forge):
    _, _, payload, _ = _node_blob(3, m=3, t=2, n=3, size=4, node=1)
    assert len(wire.decode_shares(payload, 3, 4)) == 3
    with pytest.raises(ValueError):
        wire.decode_shares(_OFF_LAYOUT[forge](payload), 3, 4)


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
    foreign = wire.chunk_payload(other_cipher)[ev.chunks[0].proof.leaf_index]
    bad = dataclasses.replace(
        ev, chunks=(dataclasses.replace(ev.chunks[0], chunk=foreign),) + ev.chunks[1:]
    )
    assert not wire.verify_share_evidence(bad, delta, key, b"tid-1", 40)


# ---------------------------------------------------------------- payload memo


def test_memo_root_is_the_payload_root_of_the_same_bytes():
    _, _, _, cipher = _node_blob(7, m=3, t=2, n=4, size=9, node=1)
    memo = wire.PayloadMemo()
    assert memo.root(cipher) == wire.payload_root(cipher)
    altered = bytes([cipher[0] ^ 1]) + cipher[1:]
    assert memo.root(altered) == wire.payload_root(altered) != memo.root(cipher)

