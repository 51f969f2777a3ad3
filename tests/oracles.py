"""Independent test oracles, sharing no code with the library paths they check."""

from __future__ import annotations

import hashlib

from dexo.crypto import SecretShare
from dexo.tee import AttestationReport, PreprocessingFailure


def omul(a: int, b: int) -> int:
    """Russian-peasant GF(256) multiply (no tables)."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
    return p


def oinv(a: int) -> int:
    for c in range(1, 256):
        if omul(a, c) == 1:
            return c
    raise ZeroDivisionError


def oracle_interpolate_at(x_target: int, points: list[tuple[int, int]]) -> int:
    """Classic Lagrange interpolation of scalar points over GF(256)."""
    acc = 0
    for i, (xi, yi) in enumerate(points):
        term = yi
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = omul(term, omul(x_target ^ xj, oinv(xi ^ xj)))
        acc ^= term
    return acc


def oracle_reconstruct(shares) -> bytes:
    """Byte-wise Lagrange reconstruction at x=0 from share objects."""
    width = len(shares[0].y_values)
    out = bytearray()
    for b in range(width):
        points = [(s.x_coordinate, s.y_values[b]) for s in shares]
        out.append(oracle_interpolate_at(0, points))
    return bytes(out)


# ---------------------------------------------------------------- per-share kernels
# The straight-line Python forms that the library's packed and vectorized
# kernels replaced; they must agree value for value.


def oracle_preprocess(raw: bytes, rule) -> bytes:
    """Reading-by-reading preprocessing; raises the library's failure type
    with the same messages."""
    if not raw:
        raise PreprocessingFailure("raw input is empty")
    if len(raw) % 2:
        raise PreprocessingFailure(
            f"raw length {len(raw)} is not a multiple of reading width 2"
        )
    readings = [int.from_bytes(raw[i : i + 2], "big") for i in range(0, len(raw), 2)]
    if rule.kind == "clamp":
        values = [min(max(r, rule.value_min), rule.value_max) for r in readings]
    elif rule.kind == "moving_average":
        w = rule.window
        if len(readings) < w:
            raise PreprocessingFailure(f"{len(readings)} readings cannot fill window {w}")
        means = [
            (sum(readings[i : i + w]) + w // 2) // w for i in range(len(readings) - w + 1)
        ]
        values = [min(max(m, rule.value_min), rule.value_max) for m in means]
    else:
        out_of_range = [r for r in readings if not rule.value_min <= r <= rule.value_max]
        if out_of_range:
            raise PreprocessingFailure(f"readings out of range: {out_of_range}")
        values = readings
    return bytes(values)


def oracle_encode_share(share) -> bytes:
    return (
        share.provider_index.to_bytes(2, "big")
        + share.node_index.to_bytes(1, "big")
        + share.x_coordinate.to_bytes(1, "big")
        + len(share.y_values).to_bytes(2, "big")
        + share.y_values
    )


def _feed(h, value) -> None:
    """The recursive payload walk that trace v2 event hashes are defined by:
    a share is hashed as its wire record, a report as that record and its
    opening, without the proof's leaf index and count."""
    if isinstance(value, bytes):
        h.update(b"b")
        h.update(value)
    elif isinstance(value, SecretShare):
        h.update(b"S")
        h.update(oracle_encode_share(value))
    elif isinstance(value, AttestationReport):
        h.update(b"R")
        _feed(h, value.share)
        h.update(value.measurement.digest)
        h.update(value.signature)
        h.update(value.platform_public_key)
        h.update(value.salt)
        for sibling in value.proof.siblings:
            h.update(sibling)
    elif isinstance(value, (list, tuple)):
        h.update(b"l")
        for item in value:
            _feed(h, item)
    elif isinstance(value, dict):
        h.update(b"d")
        for k in sorted(value):
            h.update(str(k).encode())
            _feed(h, value[k])
    elif hasattr(value, "__dataclass_fields__"):
        h.update(type(value).__name__.encode())
        for name in value.__dataclass_fields__:
            if not name.startswith("_"):
                _feed(h, getattr(value, name))
    else:
        h.update(repr(value).encode())


def oracle_payload_digest(mtype: str, payload) -> str:
    """A message's trace hash by the generic isinstance walk."""
    h = hashlib.sha256(mtype.encode())
    _feed(h, payload)
    return h.hexdigest()[:16]
