"""The per-share kernels agree with their straight-line Python forms.

Preprocessing and share records run as vectorized or packed kernels; each
is checked against an oracle in ``oracles.py`` on derandomized inputs,
errors included. Trace hashing is checked in ``test_netsim.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexo import wire
from dexo.crypto import SecretShare
from dexo.tee import (
    RULE_KINDS,
    PreprocessingFailure,
    PreprocessingRule,
    encode_readings,
    preprocess,
)
from oracles import oracle_encode_share, oracle_preprocess

KERNEL_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def rules(draw):
    value_max = draw(st.integers(0, 255))
    value_min = draw(st.integers(0, value_max))
    return PreprocessingRule(
        kind=draw(st.sampled_from(RULE_KINDS)),
        value_min=value_min,
        value_max=value_max,
        window=draw(st.integers(1, 6)),
    )


# readings near a rule's range as well as anywhere in 16 bits, and raw input
# of any length, odd and empty included
_raw = st.one_of(
    st.lists(st.integers(0, 300), max_size=12).map(encode_readings),
    st.lists(st.integers(0, 65_535), max_size=12).map(encode_readings),
    st.binary(max_size=9),
)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except PreprocessingFailure as exc:
        return type(exc), str(exc)


@KERNEL_SETTINGS
@given(raw=_raw, rule=rules())
def test_preprocess_matches_the_oracle(raw, rule):
    assert _outcome(preprocess, raw, rule) == _outcome(oracle_preprocess, raw, rule)


@pytest.mark.parametrize("raw, rule", [
    (b"", PreprocessingRule("clamp", 0, 10)),
    (b"\x00\x01\x02", PreprocessingRule("clamp", 0, 10)),
    (encode_readings([1, 2]), PreprocessingRule("moving_average", 0, 10, window=3)),
    (encode_readings([5, 11, 300, 7]), PreprocessingRule("fixed_width", 5, 10)),
])
def test_every_preprocessing_failure_matches_the_oracle(raw, rule):
    outcome = _outcome(preprocess, raw, rule)
    assert outcome[0] is PreprocessingFailure
    assert outcome == _outcome(oracle_preprocess, raw, rule)


_shares = st.builds(
    SecretShare,
    provider_index=st.integers(0, 65_535),
    node_index=st.integers(0, 255),
    x_coordinate=st.integers(1, 255),
    y_values=st.binary(max_size=40),
)


@st.composite
def node_payloads(draw) -> tuple[list[SecretShare], int]:
    """Shares laid out as a listing fixes a node payload: one per provider,
    in provider order, all of one datum size; and that size."""
    size = draw(st.integers(1, 40))
    shares = [
        SecretShare(provider, draw(st.integers(0, 255)), draw(st.integers(1, 255)),
                    draw(st.binary(min_size=size, max_size=size)))
        for provider in range(1, draw(st.integers(0, 5)) + 1)
    ]
    return shares, size


@KERNEL_SETTINGS
@given(shares=st.lists(_shares, max_size=5), layout=node_payloads())
def test_share_records_match_the_oracle(shares, layout):
    records = [wire.encode_share(s) for s in shares]
    assert records == [oracle_encode_share(s) for s in shares]
    laid_out, size = layout
    payload = b"".join(wire.encode_share(s) for s in laid_out)
    assert wire.decode_shares(payload, len(laid_out), size) == laid_out

