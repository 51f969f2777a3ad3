"""Cryptographic primitives; pure functions over value inputs, thread-safe."""

from .merkle import (
    EmptyInputError,
    IndexOutOfRangeError,
    MerkleError,
    MerkleProof,
    MerkleRoot,
    merkle_proofs,
    merkle_prove,
    merkle_root,
    merkle_verify,
    path_root,
    proof_length,
)
from .primitives import (
    TAG_COMMIT,
    TAG_LEAF,
    TAG_NODE,
    TAG_SALT,
    TAG_SHARE,
    Commitment,
    KeyMaterial,
    SignatureKeyPair,
    commit,
    generate_keypair,
    keystream_xor,
    open_commitment,
    sha256,
    sign,
    verify,
)
from .shamir import (
    DuplicateXCoordinateError,
    EmptyDatumError,
    InconsistentSharesError,
    InsufficientSharesError,
    SecretShare,
    ShamirError,
    ThresholdOutOfRangeError,
    create_shares,
    evaluate_at,
    reconstruct,
)
