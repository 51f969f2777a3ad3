"""Secret-sharing tests against an independent Lagrange oracle.

The oracle below implements interpolation with its own table-free field
arithmetic so it shares no code with the library path it checks.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexo.crypto import (
    DuplicateXCoordinateError,
    EmptyDatumError,
    InconsistentSharesError,
    InsufficientSharesError,
    SecretShare,
    ThresholdOutOfRangeError,
    create_shares,
    reconstruct,
)
from dexo.crypto.shamir import evaluate_at

from oracles import omul as _omul
from oracles import oracle_interpolate_at, oracle_reconstruct


# ---------------------------------------------------------------- examples


def test_threshold_one_every_share_is_the_secret():
    shares = create_shares(1, 3, b"\x2a", rng=7)
    assert len(shares) == 3
    for s in shares:
        assert reconstruct(1, 3, [s]) == b"\x2a"


def test_single_share_is_consistent_with_every_secret_byte():
    # with t=2, one share of a zero byte pins down nothing: for every
    # candidate constant there is a degree-1 polynomial through the point
    shares = create_shares(2, 3, b"\x00", rng=11)
    s = shares[0]
    x, y = s.x_coordinate, s.y_values[0]
    consistent = set()
    for candidate in range(256):
        for slope in range(256):
            if candidate ^ _omul(slope, x) == y:
                consistent.add(candidate)
                break
    assert consistent == set(range(256))
    for pair in combinations(shares, 2):
        assert reconstruct(2, 3, list(pair)) == b"\x00"


def test_three_of_five_subsets_agree_with_oracle():
    shares = create_shares(3, 5, b"hi", rng=13)
    subset_a = [shares[0], shares[2], shares[4]]
    subset_b = [shares[1], shares[2], shares[3]]
    assert reconstruct(3, 5, subset_a) == b"hi"
    assert reconstruct(3, 5, subset_b) == b"hi"
    assert oracle_reconstruct(subset_a) == b"hi"
    assert oracle_reconstruct(subset_b) == b"hi"


def test_reconstruct_two_of_three_matches_oracle():
    shares = create_shares(2, 3, b"\x2a", rng=3)
    picked = shares[:2]
    assert reconstruct(2, 3, picked) == oracle_reconstruct(picked) == b"\x2a"


def test_distinct_x_coordinates_one_through_n():
    shares = create_shares(3, 7, b"abc", rng=5)
    assert [s.x_coordinate for s in shares] == list(range(1, 8))
    assert [s.node_index for s in shares] == list(range(1, 8))
    assert all(len(s.y_values) == 3 for s in shares)


# ---------------------------------------------------------------- errors


def test_threshold_out_of_range():
    with pytest.raises(ThresholdOutOfRangeError):
        create_shares(0, 3, b"x", rng=1)
    with pytest.raises(ThresholdOutOfRangeError):
        create_shares(4, 3, b"x", rng=1)


def test_empty_datum_rejected():
    with pytest.raises(EmptyDatumError):
        create_shares(2, 3, b"", rng=1)


def test_insufficient_shares():
    shares = create_shares(2, 3, b"\x2a", rng=1)
    with pytest.raises(InsufficientSharesError):
        reconstruct(2, 3, shares[:1])


def test_duplicate_x_rejected():
    shares = create_shares(2, 3, b"\x2a", rng=1)
    with pytest.raises(DuplicateXCoordinateError):
        reconstruct(2, 3, [shares[0], shares[0]])


def test_corrupted_extra_share_is_named():
    # t=2, all 3 shares given, share x=3 flipped: polynomial comes from the
    # two lowest x-coordinates, and the tampered extra is reported
    shares = create_shares(2, 3, b"\x2a", rng=9)
    bad = SecretShare(
        provider_index=shares[2].provider_index,
        node_index=3,
        x_coordinate=3,
        y_values=bytes([shares[2].y_values[0] ^ 0x01]),
    )
    with pytest.raises(InconsistentSharesError) as exc:
        reconstruct(2, 3, [shares[0], shares[1], bad])
    assert exc.value.offending_x == [3]
    # oracle confirms the honest extra would have matched
    expected = oracle_interpolate_at(
        3, [(s.x_coordinate, s.y_values[0]) for s in shares[:2]]
    )
    assert expected == shares[2].y_values[0]


def test_single_corruption_outside_basis_is_named_property():
    rng = random.Random(20)
    for _ in range(50):
        t = rng.randint(1, 5)
        n = rng.randint(t + 1, 8)
        datum = rng.randbytes(rng.randint(1, 4))
        shares = create_shares(t, n, datum, rng=rng)
        # corrupt one share outside the interpolation basis (the t lowest x)
        victim = rng.randrange(t, n)
        flipped = bytearray(shares[victim].y_values)
        flipped[rng.randrange(len(flipped))] ^= 1 + rng.randrange(255)
        shares[victim] = SecretShare(
            provider_index=1,
            node_index=shares[victim].node_index,
            x_coordinate=shares[victim].x_coordinate,
            y_values=bytes(flipped),
        )
        with pytest.raises(InconsistentSharesError) as exc:
            reconstruct(t, n, shares)
        assert shares[victim].x_coordinate in exc.value.offending_x


# ---------------------------------------------------------------- properties


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_t_subset_reconstructs(data):
    t = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(t, 8))
    datum = data.draw(st.binary(min_size=1, max_size=4))
    seed = data.draw(st.integers(0, 2**32))
    shares = create_shares(t, n, datum, rng=seed)
    subset = data.draw(st.permutations(shares)).copy()[:t]
    assert reconstruct(t, n, subset) == datum
    assert oracle_reconstruct(subset) == datum


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_evaluate_at_matches_oracle_at_any_point(data):
    xs = data.draw(st.lists(st.integers(1, 255), min_size=1, max_size=8, unique=True))
    width = data.draw(st.integers(1, 4))
    shares = [
        SecretShare(1, x, x, data.draw(st.binary(min_size=width, max_size=width)))
        for x in xs
    ]
    x_target = data.draw(st.integers(0, 255))
    got = evaluate_at(shares, x_target)
    assert list(got) == [
        oracle_interpolate_at(x_target, [(s.x_coordinate, s.y_values[b]) for s in shares])
        for b in range(width)
    ]


@pytest.mark.parametrize("t,n", [(2, 3), (2, 5), (3, 4), (3, 5)])
def test_secrecy_below_threshold_exhaustive(t, n):
    """Any t-1 shares of a one-byte secret are consistent with all 256 bytes.

    For each candidate secret the t-1 known points plus (0, candidate) are t
    points, which always interpolate to a unique degree-(t-1) polynomial, so
    every candidate is equally plausible. Verified by explicit interpolation
    and re-evaluation at the known shares.
    """
    shares = create_shares(t, n, b"\x5c", rng=31)
    for known in combinations(shares, t - 1):
        for candidate in range(256):
            points = [(0, candidate)] + [
                (s.x_coordinate, s.y_values[0]) for s in known
            ]
            for s in known:
                got = oracle_interpolate_at(s.x_coordinate, points)
                assert got == s.y_values[0]


def test_create_is_deterministic_for_fixed_seed():
    a = create_shares(3, 5, b"data", rng=99)
    b = create_shares(3, 5, b"data", rng=99)
    assert a == b
