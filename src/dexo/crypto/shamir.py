"""Byte-wise (t, n) Shamir secret sharing over GF(256).

Each byte of the datum is shared independently: a fresh random polynomial of
degree t-1 with the data byte as constant term, evaluated at the nonzero
x-coordinates 1..n. Share j therefore has the same length as the datum and
carries x = j, so the node index determines the evaluation point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .gf256 import EXP, LOG, MUL, poly_eval_range


class ShamirError(Exception):
    pass


class ThresholdOutOfRangeError(ShamirError):
    pass


class EmptyDatumError(ShamirError):
    pass


class InsufficientSharesError(ShamirError):
    pass


class DuplicateXCoordinateError(ShamirError):
    pass


class InconsistentSharesError(ShamirError):
    """Raised when extra shares do not lie on the interpolated polynomial.

    ``offending_x`` names the x-coordinates that failed the check against the
    polynomial defined by the t shares with the lowest x-coordinates.
    """

    def __init__(self, offending_x: list[int]):
        self.offending_x = offending_x
        super().__init__(f"shares at x={offending_x} are off the polynomial")


# write-once, enforced by tests/test_write_once.py: `frozen` would make
# every construction three to six times as slow
@dataclass(slots=True)
class SecretShare:
    provider_index: int
    node_index: int
    x_coordinate: int
    y_values: bytes

    def __post_init__(self):
        if self.x_coordinate == 0:
            raise ShamirError("x-coordinate must be nonzero")


def create_shares(
    t: int,
    n: int,
    datum: bytes,
    rng: random.Random | int,
    provider_index: int = 1,
) -> list[SecretShare]:
    """Split ``datum`` into n shares, any t of which reconstruct it."""
    if t < 1 or t > n:
        raise ThresholdOutOfRangeError(f"need 1 <= t <= n, got t={t}, n={n}")
    if n > 255:
        raise ThresholdOutOfRangeError("at most 255 shares over GF(256)")
    if not datum:
        raise EmptyDatumError("datum must be nonempty")
    if isinstance(rng, int):
        rng = random.Random(rng)

    width = len(datum)
    coeffs = [datum] + [rng.randbytes(width) for _ in range(1, t)]
    ys = poly_eval_range(coeffs, n)
    return [
        SecretShare(
            provider_index=provider_index,
            node_index=x,
            x_coordinate=x,
            y_values=ys[(x - 1) * width:x * width],
        )
        for x in range(1, n + 1)
    ]


def _lagrange_weights_at(x_target: int, xs: list[int]) -> list[int]:
    """Coefficients w_i with p(x_target) = sum_i w_i * y_i over GF(256).

    Computed in the log domain; all differences are nonzero because the
    x-coordinates are distinct, nonzero and differ from x_target.
    """
    log_num = [LOG[x_target ^ x] for x in xs]
    total = sum(log_num)
    return [
        EXP[(total - log_num[i] - sum(LOG[xi ^ x] for x in xs if x != xi)) % 255]
        for i, xi in enumerate(xs)
    ]


def evaluate_at(shares: list[SecretShare], x_target: int) -> bytes:
    """Evaluate the polynomial interpolating exactly these shares at a point.

    Lets a holder of t shares predict what any further share must contain,
    which is how inconsistent shares are told apart from honest ones. All
    shares must have the same width."""
    xs = [s.x_coordinate for s in shares]
    if len(set(xs)) != len(xs):
        raise DuplicateXCoordinateError(f"duplicate x-coordinates in {sorted(xs)}")
    if x_target in xs:
        return next(s for s in shares if s.x_coordinate == x_target).y_values
    acc = 0
    for w, s in zip(_lagrange_weights_at(x_target, xs), shares):
        acc ^= int.from_bytes(s.y_values.translate(MUL[w]), "big")
    return acc.to_bytes(len(shares[0].y_values), "big")


def reconstruct(t: int, n: int, shares: list[SecretShare]) -> bytes:
    """Recover the datum from at least t shares.

    The t shares with the lowest x-coordinates define the polynomial; any
    further shares are checked against it and a mismatch raises
    :class:`InconsistentSharesError` naming the offending x-coordinates.
    """
    if t < 1 or t > n:
        raise ThresholdOutOfRangeError(f"need 1 <= t <= n, got t={t}, n={n}")
    if len(shares) < t:
        raise InsufficientSharesError(f"got {len(shares)} shares, need {t}")
    xs_all = [s.x_coordinate for s in shares]
    if len(set(xs_all)) != len(xs_all):
        raise DuplicateXCoordinateError(f"duplicate x-coordinates in {sorted(xs_all)}")
    widths = {len(s.y_values) for s in shares}
    if len(widths) != 1:
        raise ShamirError("shares have differing y-value lengths")

    ordered = sorted(shares, key=lambda s: s.x_coordinate)
    basis, extras = ordered[:t], ordered[t:]
    offending = [
        e.x_coordinate for e in extras
        if evaluate_at(basis, e.x_coordinate) != e.y_values
    ]
    if offending:
        raise InconsistentSharesError(offending)
    return evaluate_at(basis, 0)
