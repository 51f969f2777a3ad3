"""Software stand-in for attested execution on provider devices.

Each provider device runs one trusted app, a :class:`TeePlatform`, that
preprocesses raw readings and secret-shares the formatted datum. Its key,
salts and shares come from randomness it draws from the run's platform
stream when stage 0 builds it. It commits to every share under a fresh
salt, builds one Merkle tree over the commitments in node order, and signs
the root together with a runtime measurement, once per datum. The
attestation registry plays the vendor service: it accepts a report iff the
share's opening leads to a root whose signature verifies under a registered
platform key and the measurement equals the ratified value. A tampered app
is modeled by a flag that perturbs its measurement, which is exactly what
registration is meant to catch.

The simulator builds one registry per run, which keeps three memos: the
message each root signature verified, each Merkle interior digest it hashed
and each opening that passed. So a run's checks verify each datum's root
once, hash each interior node of its tree once, and pass again an opening
that passed before without hashing. The memos are exact: they are keyed by content, a failed
check is never remembered, and nothing in them outlives the run. At N=50,
M=60 they hold about 1.4 MB of objects and add about 0.7 MB to peak RSS.

A node passes its shares' openings on to the consumer in one openings blob:
:func:`seal_openings` builds it from the node's reports and
:func:`open_openings` turns it back into reports ready for
:func:`attest_report`. For every share record, in provider order, the blob
holds the device's platform key, its signature over the datum's Merkle root,
the salt of the share's commitment and the commitment's path to that root.
Only the salts are encrypted, under the node's key and its own openings
nonce, as one keystream over the concatenated salts (salt i at byte offset
32·(i−1)); the key, signature and siblings travel in the clear. Siblings are
salted commitments, which hide the shares they commit to, but a neighbour's
sibling is this node's commitment, so its salt would let anyone brute-force
the one-byte values of this node's share.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from itertools import accumulate
from operator import sub

from . import wire
from .crypto import (
    TAG_SALT,
    TAG_SHARE,
    KeyMaterial,
    MerkleProof,
    SecretShare,
    create_shares,
    generate_keypair,
    keystream_xor,
    merkle_proofs,
    path_root,
    proof_length,
    sha256,
    sign,
    verify,
)


class TeeError(Exception):
    pass


class PreprocessingFailure(TeeError):
    pass


# ---------------------------------------------------------------- rules

RULE_KINDS = ("clamp", "moving_average", "fixed_width")
READING_WIDTH = 2


@dataclass(frozen=True)
class PreprocessingRule:
    """Closed set of formatting rules applied inside the trusted app.

    Raw input is a sequence of big-endian unsigned readings of
    ``READING_WIDTH`` bytes each; every output value is one byte.
    """

    kind: str
    value_min: int
    value_max: int
    window: int = 1

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.value_min > self.value_max:
            raise ValueError("value_min must not exceed value_max")
        if self.value_min < 0 or self.value_max > 255:
            raise ValueError("value range does not fit one byte")
        if self.window < 1:
            raise ValueError("window must be >= 1")


def _parse_readings(raw: bytes) -> tuple[int, ...]:
    width = READING_WIDTH
    if not raw:
        raise PreprocessingFailure("raw input is empty")
    if len(raw) % width:
        raise PreprocessingFailure(
            f"raw length {len(raw)} is not a multiple of reading width {width}"
        )
    return struct.unpack(f">{len(raw) // width}H", raw)  # H: 2-byte readings


def encode_readings(values: list[int]) -> bytes:
    return b"".join(v.to_bytes(READING_WIDTH, "big") for v in values)


def preprocess(raw: bytes, rule: PreprocessingRule) -> bytes:
    """Format raw readings per the rule; output conforms to the declared range."""
    readings = _parse_readings(raw)
    lo, hi = rule.value_min, rule.value_max
    if rule.kind == "fixed_width":  # readings must already conform
        outside = [v for v in readings if v < lo or v > hi]
        if outside:
            raise PreprocessingFailure(f"readings out of range: {outside}")
        return bytes(readings)
    if rule.kind == "moving_average":
        w = rule.window
        if len(readings) < w:
            raise PreprocessingFailure(
                f"{len(readings)} readings cannot fill window {w}"
            )
        half = w // 2
        running = [0, *accumulate(readings)]  # running[i]: sum of the first i
        sums = map(sub, running[w:], running)
        capped = bytes([min((s + half) // w, 255) for s in sums])
    else:  # clamp
        capped = bytes([min(v, 255) for v in readings])
    # capped holds min(value, 255) per value; one table clamps it to [lo, hi]
    clamp = bytes([lo] * lo) + bytes(range(lo, hi + 1)) + bytes([hi] * (255 - hi))
    return capped.translate(clamp)


# ---------------------------------------------------------------- attestation

TA_VERSION = b"1"
# the trusted app every device is meant to run; the registry admits its measurement
RATIFIED_TA = b"data-market-trusted-formatter-v1"


@dataclass(frozen=True)
class RuntimeMeasurement:
    digest: bytes


def measure(descriptor: bytes, tampered: bool = False) -> RuntimeMeasurement:
    return RuntimeMeasurement(
        sha256(descriptor, TA_VERSION, b"\x01" if tampered else b"\x00")
    )


# write-once, enforced by tests/test_write_once.py: `frozen` would make
# every construction three to six times as slow
@dataclass(slots=True)
class AttestationReport:
    """One share with its opening: the salt of its commitment and the Merkle
    path from that commitment to the root the device signed.
    """

    share: SecretShare
    measurement: RuntimeMeasurement
    signature: bytes
    platform_public_key: bytes
    salt: bytes
    proof: MerkleProof


@dataclass
class AttestationRegistry:
    """Genuine platform keys and the ratified measurement, with three memos
    for the one run it serves, so that N nodes and the consumer opening the
    shares of M data hash and verify each thing once:

    - ``verified``: per (platform key, root signature), the message that
      signature verified, so each datum's root costs one verification;
    - ``parents``: each Merkle interior digest hashed so far, keyed by its
      (left, right) children, so each tree node is hashed once;
    - ``opened``: each opening that passed, keyed by what
      :func:`attest_report` reads of it, so an opening passed before costs
      no hash.

    Each memo is exact. Its keys are content, never object identity, and
    hold the whole input of what it stands for; a failed check is never
    remembered; and a registry lives one run, so nothing outlives it. At
    N=50, M=60 the three hold about 1.4 MB of objects (3,120 interior
    nodes, 3,000 openings) and add about 0.7 MB to peak RSS.
    """

    genuine_keys: set[bytes] = field(default_factory=set)
    expected_measurement: RuntimeMeasurement | None = None
    verified: dict[tuple[bytes, bytes], bytes] = field(default_factory=dict)
    parents: dict[tuple[bytes, bytes], bytes] = field(default_factory=dict)
    opened: set[tuple] = field(default_factory=set)

    def register_key(self, public_key: bytes) -> None:
        self.genuine_keys.add(public_key)

    def admits(self, public_key: bytes, measurement: RuntimeMeasurement) -> bool:
        """Is this a registered platform key running the ratified program?"""
        return public_key in self.genuine_keys and measurement == self.expected_measurement


def share_commitment(salt: bytes, record: bytes) -> bytes:
    """Commitment to a share under ``salt``, given the share's ``record``
    (:func:`wire.encode_share`)."""
    return sha256(TAG_SHARE, salt, record)


def attest_report(registry: AttestationRegistry, report: AttestationReport) -> bool:
    """True iff the share opens to a root signed by a registered platform
    running the ratified program.

    The key and measurement (:meth:`AttestationRegistry.admits`) and the
    leaf index are checked on every call. An opening that passed before in
    this run, with the same platform key, measurement, signature, salt,
    share record and siblings, passes again at once: those are all the
    inputs of the rest of the check. Any other opening is walked to its
    root, hashing only the interior nodes the registry has not hashed yet.

    The signature is verified at most once per (platform key, signature):
    the message it verified (root || measurement) is remembered, and a
    report that opens to any other root under the same pair is rejected by
    comparing bytes, without calling ``verify``. That is sound because only
    registered keys reach the memo, and those are generated honestly inside
    the trusted app, and because Ed25519 as implemented by OpenSSL is
    strongly unforgeable (it rejects a non-canonical S): one signature that
    verified on two messages under such a key would be a forgery, so
    ``verify`` would reject the second message too. A failed check is not
    remembered, so a forged signature seen first cannot keep the genuine
    one out.
    """
    if not registry.admits(report.platform_public_key, report.measurement):
        return False
    share, proof = report.share, report.proof
    if proof.leaf_index != share.node_index - 1:
        return False
    record = wire.encode_share(share)
    opening = (report.platform_public_key, report.measurement.digest, report.signature,
               report.salt, record, proof.siblings)
    if opening in registry.opened:
        return True
    root = path_root(share_commitment(report.salt, record), proof, registry.parents)
    message = root + report.measurement.digest
    pair = (report.platform_public_key, report.signature)
    signed = registry.verified.get(pair)
    if signed is None:
        if not verify(report.platform_public_key, message, report.signature):
            return False
        registry.verified[pair] = message
    elif message != signed:
        return False
    registry.opened.add(opening)
    return True


# ---------------------------------------------------------------- openings

_KEY_LEN, _SIGNATURE_LEN, _SALT_LEN, _DIGEST_LEN = 32, 64, 32, 32
_SALT_AT = _KEY_LEN + _SIGNATURE_LEN  # offsets inside one openings record
_PATH_AT = _SALT_AT + _SALT_LEN


def openings_nonce(nonce: bytes, node_index: int) -> bytes:
    """Nonce of the salts in node j's openings blob, derived from its
    payload ``nonce``.

    It differs from the payload nonce, so one key never encrypts the payload
    and the salts under the same keystream, and it differs per node, so a
    priority group sharing one key never reuses a keystream either.
    """
    return nonce + b"|openings|" + node_index.to_bytes(1, "big")


def seal_openings(
    reports: list[AttestationReport], key: KeyMaterial, nonce: bytes, node_index: int
) -> bytes:
    """Node j's openings blob: one fixed-width record per report, in the
    order given (provider order), with the salts encrypted under the node's
    ``key`` and payload ``nonce``.

    A record is the platform key, the root signature, the salt, then the
    proof's siblings, leaf first. The leaf index is not sent; it follows
    from the share's node label.
    """
    for r in reports:
        siblings = r.proof.siblings
        if (len(r.platform_public_key) != _KEY_LEN or len(r.signature) != _SIGNATURE_LEN
                or len(r.salt) != _SALT_LEN or len(siblings) != proof_length(r.proof.leaf_count)
                or any(len(d) != _DIGEST_LEN for d in siblings)):
            raise ValueError("opening record has the wrong width")
    salts = keystream_xor(key, b"".join(r.salt for r in reports),
                          openings_nonce(nonce, node_index))
    return b"".join(
        r.platform_public_key + r.signature + salts[at : at + _SALT_LEN]
        + b"".join(r.proof.siblings)
        for r, at in zip(reports, range(0, len(salts), _SALT_LEN))
    )


def open_openings(
    blob: bytes,
    shares: dict[int, SecretShare],
    key: KeyMaterial,
    nonce: bytes,
    node_index: int,
    n_nodes: int,
    measurement: RuntimeMeasurement,
) -> dict[int, AttestationReport]:
    """Inverse of :func:`seal_openings` on node j's blob and the ``shares``
    decrypted from its payload, keyed by provider: one report per share,
    record i opening provider i's share, each claiming ``measurement``.

    The blob must hold one record per share in an ``n_nodes``-leaf tree;
    one of any other length opens to nothing.
    """
    width = _PATH_AT + _DIGEST_LEN * proof_length(n_nodes)
    count = len(shares)
    if len(blob) != count * width:
        return {}
    salts = keystream_xor(
        key,
        b"".join(blob[at + _SALT_AT : at + _PATH_AT] for at in range(0, len(blob), width)),
        openings_nonce(nonce, node_index),
    )
    reports = {}
    for provider, share in shares.items():
        if 1 <= provider <= count:
            at = (provider - 1) * width
            path = range(at + _PATH_AT, at + width, _DIGEST_LEN)
            siblings = tuple(blob[i : i + _DIGEST_LEN] for i in path)
            reports[provider] = AttestationReport(
                share, measurement, blob[at + _KEY_LEN : at + _SALT_AT], blob[at : at + _KEY_LEN],
                salts[(provider - 1) * _SALT_LEN : provider * _SALT_LEN],
                MerkleProof(share.node_index - 1, siblings, n_nodes),
            )
    return reports


# ---------------------------------------------------------------- the trusted app


class TeePlatform:
    """The trusted app of one provider device, resumed one call at a time.

    It draws its keypair seed, then the seed of its share stream, from
    ``rng``, the run's platform stream: stage 0 builds every device's app
    from that one stream, in provider order. The salt key is derived from
    the keypair seed, so salting draws nothing.
    """

    def __init__(self, rng: random.Random, descriptor: bytes, tampered: bool = False):
        if not descriptor:
            raise TeeError("program descriptor must be nonempty")
        seed = rng.randbytes(32)
        self.keypair = generate_keypair(seed)
        self.public_key = self.keypair.public_key
        self.measurement = measure(descriptor, tampered=tampered)
        self.salt_key = sha256(TAG_SALT, seed)
        self.rounds = 0
        self._rng = random.Random(rng.getrandbits(64))

    def resume_attest(self) -> tuple[RuntimeMeasurement, bytes, bytes]:
        sig = sign(self.keypair.private_key, self.measurement.digest)
        return self.measurement, sig, self.public_key

    def resume_gendata(
        self,
        n: int,
        t: int,
        raw: bytes,
        rule: PreprocessingRule,
        provider_index: int = 1,
    ) -> list[AttestationReport]:
        """Preprocess, share, and sign inside the app.

        Report j carries share j, destined for node j. Its salt is derived
        from the app's secret, the datum's round and j, so the platform
        and share randomness are untouched. One signature covers the Merkle
        root of the salted share commitments together with the runtime
        measurement.
        """
        datum = preprocess(raw, rule)
        shares = create_shares(t, n, datum, rng=self._rng, provider_index=provider_index)
        self.rounds += 1
        prefix = self.salt_key + self.rounds.to_bytes(8, "big")
        salts = [sha256(prefix, s.node_index.to_bytes(2, "big")) for s in shares]
        root, proofs = merkle_proofs(
            [share_commitment(salt, wire.encode_share(s)) for salt, s in zip(salts, shares)]
        )
        signature = sign(self.keypair.private_key, root.digest + self.measurement.digest)
        return [
            AttestationReport(s, self.measurement, signature, self.public_key, salt, proof)
            for s, salt, proof in zip(shares, salts, proofs)
        ]
