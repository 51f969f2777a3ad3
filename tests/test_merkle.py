"""Merkle tree completeness/soundness, pinned to independently computed roots."""

import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexo.crypto import (
    EmptyInputError,
    IndexOutOfRangeError,
    merkle_proofs,
    merkle_prove,
    merkle_root,
    merkle_verify,
    path_root,
    proof_length,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_vectors.json").read_text())


def test_single_chunk_golden():
    chunk = bytes.fromhex(GOLDEN["merkle_single_chunk_input"])
    root = merkle_root([chunk])
    assert root.digest.hex() == GOLDEN["merkle_single_chunk_root"]
    assert root.leaf_count == 1


def test_two_identical_chunks_differ_from_single():
    chunk = bytes.fromhex(GOLDEN["merkle_single_chunk_input"])
    two = merkle_root([chunk, chunk])
    assert two.digest.hex() == GOLDEN["merkle_two_identical_root"]
    assert two.digest != merkle_root([chunk]).digest


def test_odd_level_padding_duplicates_last_chunk():
    c1, c2, c3 = (bytes.fromhex(h) for h in GOLDEN["merkle_three_chunk_inputs"])
    r3 = merkle_root([c1, c2, c3])
    r4 = merkle_root([c1, c2, c3, c3])
    assert r3.digest.hex() == GOLDEN["merkle_three_chunk_root"]
    assert r3.digest == r4.digest


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        merkle_root([])
    with pytest.raises(EmptyInputError):
        merkle_prove([], 0)


def test_proof_index_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        merkle_prove([b"a", b"b"], 2)


def test_eight_leaf_completeness_and_index_mismatch_sweep():
    chunks = [bytes([i]) * 32 for i in range(8)]
    root = merkle_root(chunks)
    proofs = [merkle_prove(chunks, i) for i in range(8)]
    for i in range(8):
        for j in range(8):
            ok = merkle_verify(root, chunks[i], proofs[j])
            assert ok == (i == j)
    # forged index inside an otherwise valid proof
    for i in range(8):
        for j in range(8):
            forged = dataclasses.replace(proofs[i], leaf_index=j)
            assert merkle_verify(root, chunks[i], forged) == (i == j)


def test_flipped_chunk_byte_fails():
    chunks = [b"alpha", b"beta", b"gamma"]
    root = merkle_root(chunks)
    proof = merkle_prove(chunks, 1)
    assert merkle_verify(root, b"beta", proof)
    assert not merkle_verify(root, b"betb", proof)


def test_corrupted_sibling_fails():
    chunks = [b"a", b"b", b"c", b"d"]
    root = merkle_root(chunks)
    proof = merkle_prove(chunks, 2)
    bad = dataclasses.replace(
        proof, siblings=(proof.siblings[0], bytes(32)) + proof.siblings[2:]
    )
    assert not merkle_verify(root, b"c", bad)


def test_proof_depth_is_ceil_log2():
    for n in range(1, 33):
        chunks = [bytes([i]) for i in range(n)]
        proof = merkle_prove(chunks, 0)
        assert len(proof.siblings) == (n - 1).bit_length()


def test_one_build_gives_every_proof():
    for n in range(1, 34):
        chunks = [bytes([i]) * (i % 5 + 1) for i in range(n)]
        root, proofs = merkle_proofs(chunks)
        assert root == merkle_root(chunks)
        assert [p.leaf_index for p in proofs] == list(range(n))
        for chunk, proof in zip(chunks, proofs):
            assert len(proof.siblings) == proof_length(n)
            assert path_root(chunk, proof, {}) == root.digest
            assert merkle_verify(root, chunk, proof)
    with pytest.raises(EmptyInputError):
        merkle_proofs([])


def test_proof_index_beyond_the_path_rejected():
    chunks = [b"a", b"b", b"c", b"d"]
    proof = merkle_prove(chunks, 1)
    # index 5 walks like index 1 through two levels, but names another leaf
    shifted = dataclasses.replace(proof, leaf_index=5, leaf_count=8)
    assert path_root(b"b", shifted, {}) == merkle_root(chunks).digest
    assert not merkle_verify(dataclasses.replace(merkle_root(chunks), leaf_count=8),
                             b"b", shifted)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_random_trees_complete_and_sound(data):
    n = data.draw(st.integers(1, 64))
    seed = data.draw(st.integers(0, 2**32))
    rng = random.Random(seed)
    chunks = [rng.randbytes(rng.randint(1, 32)) for _ in range(n)]
    root = merkle_root(chunks)
    i = data.draw(st.integers(0, n - 1))
    proof = merkle_prove(chunks, i)
    assert merkle_verify(root, chunks[i], proof)
    # single corruption of the chunk is rejected
    corrupt = bytearray(chunks[i])
    pos = data.draw(st.integers(0, len(corrupt) - 1))
    corrupt[pos] ^= 1 << data.draw(st.integers(0, 7))
    assert not merkle_verify(root, bytes(corrupt), proof)
