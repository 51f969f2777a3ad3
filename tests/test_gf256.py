"""Field axioms for GF(256), cross-checked against a table-free oracle."""

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
            assert MUL[a][b] == mul_oracle(a, b)


@given(elements, elements, elements)
def test_mul_associative(a, b, c):
    assert MUL[MUL[a][b]][c] == MUL[a][MUL[b][c]]


@given(elements, elements, elements)
def test_mul_distributes_over_add(a, b, c):
    assert MUL[a][b ^ c] == MUL[a][b] ^ MUL[a][c]


def test_inverse():
    # each nonzero a has exactly one b with a * b = 1, and zero has none
    assert [row.count(1) for row in MUL] == [0] + [1] * 255


@given(elements)
def test_identity(a):
    assert MUL[a][1] == a
    assert MUL[a][0] == 0


def horner_oracle(coeffs: list[bytes], x: int) -> list[int]:
    """Per-polynomial Horner evaluation with scalar field multiplication."""
    width = len(coeffs[0])
    out = []
    for col in range(width):
        acc = 0
        for row in reversed(coeffs):
            acc = mul_oracle(acc, x) ^ row[col]
        out.append(acc)
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    coeffs=st.integers(1, 6).flatmap(
        lambda width: st.lists(st.binary(min_size=width, max_size=width),
                               min_size=1, max_size=8)
    ),
    n=st.integers(1, 255),
)
def test_poly_eval_range_matches_scalar_horner(coeffs, n):
    width = len(coeffs[0])
    got = gf256.poly_eval_range(coeffs, n)
    assert len(got) == n * width
    for x in range(1, n + 1):
        assert list(got[(x - 1) * width:x * width]) == horner_oracle(coeffs, x)
