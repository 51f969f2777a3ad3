"""Arithmetic in GF(2^8) with the AES reduction polynomial x^8+x^4+x^3+x+1.

Addition is XOR. Log/antilog tables are built once at import time from a
generator of the multiplicative group, and from them one ``bytes.translate``
table per multiplier a, so ``data.translate(MUL[a])`` multiplies a whole
byte string by a without a Python-level loop per byte.
"""

from __future__ import annotations

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


EXP, LOG = _build_tables()


# MUL[a][b] = a * b in GF(256): row a translates log b (255 standing for
# log 0) through EXP rotated by log a, plus a trailing zero for b = 0
_LOGS, _EXPS = bytes([255] + LOG[1:]), bytes(EXP)
MUL = (bytes(256),) + tuple(
    _LOGS.translate(_EXPS[LOG[a]:] + _EXPS[:LOG[a]] + b"\x00") for a in range(1, 256)
)


def poly_eval_range(coeffs: list[bytes], n: int) -> bytes:
    """Evaluate ``width`` byte-wise polynomials, ``coeffs[k]`` holding their
    coefficients of x^k, at x = 1..n: row x-1 of the n rows returned holds
    the values at x. Each term c_k * x^k is one translate per x, summed by
    XOR over one integer spanning all rows."""
    acc = int.from_bytes(coeffs[0] * n, "big")
    for k in range(1, len(coeffs)):
        tables = [MUL[EXP[LOG[x] * k % 255]] for x in range(1, n + 1)]  # x^k
        acc ^= int.from_bytes(b"".join(map(coeffs[k].translate, tables)), "big")
    return acc.to_bytes(n * len(coeffs[0]), "big")
