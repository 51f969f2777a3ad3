"""Arithmetic in GF(2^8) with the AES reduction polynomial x^8+x^4+x^3+x+1.

Addition is XOR. Log/antilog tables are built once at import time from a
generator of the multiplicative group, and from them the full 256x256
product table ``MUL``, so polynomial evaluation over whole byte strings can
be done without Python-level loops per byte.
"""

from __future__ import annotations

import numpy as np

REDUCING_POLY = 0x11B
GENERATOR = 0x03


def _mul_no_tables(a: int, b: int) -> int:
    """Carry-less multiply with reduction; used only to bootstrap the tables."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= REDUCING_POLY
    return p


def _build_tables() -> tuple[list[int], list[int]]:
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _mul_no_tables(x, GENERATOR)
    return exp, log


_EXP, _LOG = _build_tables()

EXP = np.array(_EXP, dtype=np.uint8)
LOG = np.array(_LOG, dtype=np.int32)

# MUL[a, b] = a * b in GF(256)
_la = LOG.reshape(256, 1) + LOG.reshape(1, 256)
MUL = EXP[_la % 255].copy()
MUL[0, :] = 0
MUL[:, 0] = 0
_MUL_FLAT = MUL.ravel()


def poly_eval_many(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate a batch of polynomials at several points by Horner's rule.

    ``coeffs`` has shape (degree+1, width): row k holds the coefficient of
    x^k for ``width`` independent polynomials. Returns shape
    (len(xs), width); row i is the evaluation at xs[i]. Each step gathers
    x * acc from the flat product table at index (x << 8) | acc.
    """
    rows = xs.astype(np.intp).reshape(-1, 1) << 8
    acc = np.broadcast_to(coeffs[-1], (len(xs), coeffs.shape[1])).copy()
    for k in range(coeffs.shape[0] - 2, -1, -1):
        acc = _MUL_FLAT[rows | acc] ^ coeffs[k]
    return acc
