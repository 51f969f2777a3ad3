"""Merkle trees over ordered byte chunks with domain-tagged hashing.

Leaves are H(tag_leaf || chunk) and interior nodes H(tag_node || left ||
right). Levels with an odd node count duplicate their last node, so proof
length is ceil(log2(leaf_count)) for every leaf.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .primitives import TAG_LEAF, TAG_NODE


class MerkleError(Exception):
    pass


class EmptyInputError(MerkleError):
    pass


class IndexOutOfRangeError(MerkleError):
    pass


@dataclass(frozen=True)
class MerkleRoot:
    digest: bytes
    leaf_count: int


# write-once, enforced by tests/test_write_once.py: `frozen` would make
# every construction three to six times as slow
@dataclass(slots=True)
class MerkleProof:
    leaf_index: int
    siblings: tuple[bytes, ...]
    leaf_count: int


def proof_length(leaf_count: int) -> int:
    """Number of siblings in every proof of a ``leaf_count``-leaf tree."""
    return (leaf_count - 1).bit_length()


def _levels(chunks: list[bytes]) -> list[list[bytes]]:
    if not chunks:
        raise EmptyInputError("cannot build a tree over zero chunks")
    sha = hashlib.sha256
    level = [sha(TAG_LEAF + c).digest() for c in chunks]
    levels = [level]
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [
            sha(TAG_NODE + left + right).digest()
            for left, right in zip(level[::2], level[1::2])
        ]
        levels.append(level)
    return levels


def merkle_root(chunks: list[bytes]) -> MerkleRoot:
    return MerkleRoot(digest=_levels(chunks)[-1][0], leaf_count=len(chunks))


def merkle_proofs(chunks: list[bytes]) -> tuple[MerkleRoot, list[MerkleProof]]:
    """The root and every leaf's proof, in leaf order, from one tree build.

    Proofs hold the tree's own digest objects, so they add no copies.
    """
    levels = _levels(chunks)
    count = len(chunks)
    inner = levels[:-1]
    proofs = [
        MerkleProof(
            leaf_index=i,
            siblings=tuple(level[(i >> depth) ^ 1] for depth, level in enumerate(inner)),
            leaf_count=count,
        )
        for i in range(count)
    ]
    return MerkleRoot(digest=levels[-1][0], leaf_count=count), proofs


def merkle_prove(chunks: list[bytes], leaf_index: int) -> MerkleProof:
    if chunks and not 0 <= leaf_index < len(chunks):
        raise IndexOutOfRangeError(f"leaf {leaf_index} of {len(chunks)}")
    return merkle_proofs(chunks)[1][leaf_index]


def path_root(
    chunk: bytes, proof: MerkleProof, parents: dict[tuple[bytes, bytes], bytes]
) -> bytes:
    """Digest of the root reached by walking ``proof`` up from ``chunk``.

    Each interior digest is looked up in ``parents`` by its (left, right)
    children before it is hashed, and stored after. The key is the whole
    input of the hash, so a hit returns what hashing would.
    """
    sha = hashlib.sha256
    node = sha(TAG_LEAF + chunk).digest()
    index = proof.leaf_index
    for sibling in proof.siblings:
        left, right = (sibling, node) if index & 1 else (node, sibling)
        index >>= 1
        node = parents.get((left, right))
        if node is None:
            node = parents[left, right] = sha(TAG_NODE + left + right).digest()
    return node


def merkle_verify(root: MerkleRoot, chunk: bytes, proof: MerkleProof) -> bool:
    if proof.leaf_count != root.leaf_count:
        return False
    if not 0 <= proof.leaf_index < proof.leaf_count:
        return False
    if proof.leaf_index >> len(proof.siblings):
        return False
    return path_root(chunk, proof, {}) == root.digest
