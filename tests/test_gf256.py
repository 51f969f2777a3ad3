"""Field axioms for GF(256), cross-checked against a table-free oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dexo.crypto import gf256
from dexo.crypto.gf256 import MUL

elements = st.integers(min_value=0, max_value=255)


def mul_oracle(a: int, b: int) -> int:
    """Russian-peasant carry-less multiply, independent of the log tables."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
    return p


def test_mul_matches_oracle_exhaustively():
    for a in range(256):
        for b in range(256):
            assert MUL[a, b] == mul_oracle(a, b)


@given(elements, elements, elements)
def test_mul_associative(a, b, c):
    assert MUL[MUL[a, b], c] == MUL[a, MUL[b, c]]


@given(elements, elements, elements)
def test_mul_distributes_over_add(a, b, c):
    assert MUL[a, b ^ c] == MUL[a, b] ^ MUL[a, c]


def test_inverse():
    # each nonzero a has exactly one b with a * b = 1, and zero has none
    ones = MUL == 1
    assert ones[1:].sum(axis=1).tolist() == [1] * 255
    assert not ones[0].any()


@given(elements)
def test_identity(a):
    assert MUL[a, 1] == a
    assert MUL[a, 0] == 0


def horner_oracle(coeffs: list[list[int]], x: int) -> list[int]:
    """Per-polynomial Horner evaluation with scalar field multiplication."""
    width = len(coeffs[0])
    out = []
    for col in range(width):
        acc = 0
        for row in reversed(coeffs):
            acc = mul_oracle(acc, x) ^ row[col]
        out.append(acc)
    return out


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.integers(1, 6).flatmap(
        lambda width: st.lists(st.lists(elements, min_size=width, max_size=width),
                               min_size=1, max_size=8)
    ),
    xs=st.lists(elements, min_size=1, max_size=10),
)
def test_poly_eval_many_matches_scalar_horner(coeffs, xs):
    got = gf256.poly_eval_many(np.array(coeffs, dtype=np.uint8),
                               np.array(xs, dtype=np.uint8))
    assert got.shape == (len(xs), len(coeffs[0]))
    assert got.tolist() == [horner_oracle(coeffs, x) for x in xs]
