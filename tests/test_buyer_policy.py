"""The buyer's policies, ``participants.decide`` one clause at a time and
``participants.refuse_payment``, on hand-built views: no simulator, no
ledger. Every call also checks that the policy leaves the view it reads
unchanged."""

import copy

import pytest

from dexo.crypto import SecretShare, create_shares, reconstruct
from dexo.ledger import ChallengeResult, DataDescription, Listing, SessionStatus
from dexo.participants import (
    Accept,
    BuyerView,
    Challenge,
    Finish,
    Query,
    Settle,
    TakeKey,
    Verdict,
    decide,
    refuse_payment,
)
from scenarioutil import suite_config

QUERIED, ACCEPTED, KEY_OUT, SETTLED, REFUNDED = (
    SessionStatus.QUERIED, SessionStatus.ACCEPTED, SessionStatus.KEY_OUT,
    SessionStatus.SETTLED, SessionStatus.REFUNDED,
)
N, T = 5, 3
EVERY_NODE = tuple(range(1, N + 1))
GOOD = bytes([10, 20, 30, 40])  # inside the description's 0..100
BAD = bytes([10, 20, 30, 200])


def _view(providers=1, **fields) -> BuyerView:
    config = suite_config(n_nodes=N, threshold=T, max_faulty=2, providers=providers,
                          datum_size_bytes=4)
    desc = DataDescription(datum_size=4, value_min=0, value_max=100, providers=providers,
                           n_nodes=N, threshold=T, timeout_blocks=10)
    listing = Listing(tid="t", desc=desc, delta=dict.fromkeys(EVERY_NODE, b""), commitment={},
                      session_price=100)
    fields.setdefault("status", dict.fromkeys(EVERY_NODE, QUERIED))
    return BuyerView(config, listing, **fields)


def _decide(view: BuyerView, policy=decide) -> list:
    before = copy.deepcopy(vars(view))
    steps = policy(view)
    assert vars(view) == before, "decide changed the view it reads"
    return steps


def _holding(view: BuyerView, data: dict[int, bytes], held=EVERY_NODE[:T],
             authentic=None) -> BuyerView:
    """Every node has delivered; the sessions of ``held`` are bought, keyed
    and opened to shares of ``data`` (by provider), and the (node, provider)
    pairs in ``authentic`` (default: all held) are authenticated."""
    shares = {p: create_shares(T, N, datum, p, provider_index=p) for p, datum in data.items()}
    view.node_shares = {j: {p: shares[p][j - 1] for p in data} for j in held}
    view.authentic = (set(authentic) if authentic is not None
                      else {(j, p) for j in held for p in data})
    view.delivered = dict.fromkeys(EVERY_NODE, b"")
    view.keys = set(held)
    view.status = {**view.status, **dict.fromkeys(held, KEY_OUT)}
    return view


def _judged(view: BuyerView) -> BuyerView:
    """Fold in the verdict the policy reaches on the view."""
    (verdict,) = _decide(view)
    assert isinstance(verdict, Verdict)
    view.reconstructed, view.judged = verdict.reconstructed, True
    return view


def test_a_listing_that_never_initialized_ends_the_buyer_and_one_that_did_is_queried():
    view = _view(status=None)
    assert _decide(view) == [Query()]
    view.listing = Listing(view.listing.tid, view.listing.desc, {1: b""}, {},
                           view.listing.session_price)
    assert _decide(view) == [Finish("listing-never-initialized")]
    view.finished_reason = "listing-never-initialized"
    assert _decide(view) == []


def test_the_buyer_accepts_on_the_last_ciphertext_or_a_quiet_tick_but_not_before():
    view = _view(responded={1, 2, 3, 4}, delivered=dict.fromkeys((1, 2, 3, 4), b""))
    assert _decide(view) == []
    view.quiet = True
    assert _decide(view) == [Accept((1, 2, 3), EVERY_NODE)]
    view.quiet = False
    view.responded.add(5)  # node 5 answered, with a ciphertext off its digest
    assert _decide(view) == [Accept((1, 2, 3), EVERY_NODE)]


def test_the_buyer_gives_up_after_the_third_quiet_tick_with_too_few_deliveries():
    view = _view(responded={1, 2}, delivered=dict.fromkeys((1, 2), b""), quiet=True)
    for ticks in (1, 2):
        view.quiet_ticks = ticks
        assert _decide(view) == []
    view.quiet_ticks = 3
    assert _decide(view) == [Finish("too-few-valid-deliveries")]
    # with every node's answer in, it gives up at once
    assert _decide(_view(responded=set(EVERY_NODE), delivered={1: b""})) == [
        Finish("too-few-valid-deliveries")
    ]


def test_a_buyer_that_refuses_payment_finishes_where_it_would_buy():
    view = _view(responded=set(EVERY_NODE), delivered=dict.fromkeys(EVERY_NODE, b""))
    assert _decide(view) == [Accept((1, 2, 3), EVERY_NODE)]
    assert _decide(view, refuse_payment) == [Finish("refused-payment")]
    # every node has answered, and one delivery verified: with nothing to
    # buy, the refuser ends as the honest buyer does
    view.delivered = {1: b""}
    assert _decide(view, refuse_payment) == [Finish("too-few-valid-deliveries")]
    # a third quiet tick with nothing to buy ends the buyer as any other
    view.responded, view.quiet, view.quiet_ticks = {1}, True, 3
    assert _decide(view, refuse_payment) == [Finish("too-few-valid-deliveries")]
    # before the answers are in, it waits as the honest buyer does
    view.quiet, view.quiet_ticks = False, 0
    assert _decide(view, refuse_payment) == []


def test_a_notice_reads_only_its_senders_key_and_a_quiet_tick_reads_the_chain():
    status = {1: KEY_OUT, 2: ACCEPTED, 3: KEY_OUT, 4: KEY_OUT, 5: QUERIED}
    view = _view(status=status, notice=3)
    assert _decide(view) == [TakeKey(3)]
    view.notice = 5  # no session bought from node 5
    assert _decide(view) == []
    view.notice, view.quiet = None, True
    assert _decide(view) == [TakeKey(1), TakeKey(3), TakeKey(4)]
    view.keys = {1}
    assert _decide(view) == [TakeKey(3), TakeKey(4)]
    view.quiet = False  # nothing woke the buyer: it waits for session 2's key
    assert _decide(view) == []


def test_the_buyer_reconstructs_once_every_live_sessions_key_is_in():
    view = _holding(_view(providers=2), {1: GOOD, 2: BAD})
    view.keys.remove(3)
    assert _decide(view) == []
    view.keys.add(3)
    assert _decide(view) == [Verdict({1: GOOD, 2: BAD})]


def test_the_buyer_replaces_sessions_refunded_by_timeout():
    view = _view(keys={2, 3}, delivered=dict.fromkeys(EVERY_NODE, b""),
                 status={1: REFUNDED, 2: KEY_OUT, 3: KEY_OUT, 4: QUERIED, 5: QUERIED},
                 quiet=True)
    assert _decide(view) == [Accept((4,), (4,))]
    view.status[4] = ACCEPTED
    assert _decide(view) == []  # it waits for session 4's key
    # with nothing left to buy, the buyer reconstructs from the shares it holds
    view = _holding(_view(), {1: GOOD})
    view.status[3] = REFUNDED
    view.delivered = {1: b"", 2: b"", 3: b""}
    assert _decide(view) == [Verdict({1: GOOD})]


def test_the_data_is_valid_when_every_datum_is_reconstructed_and_meets_the_description():
    view = _view(providers=2)
    assert not view.reconstruction_valid  # nothing reconstructed yet
    for data, valid in (({1: GOOD, 2: GOOD}, True), ({1: GOOD, 2: BAD}, False),
                        ({1: GOOD, 2: None}, False)):
        view.reconstructed = data
        assert view.reconstruction_valid is valid


def test_remediation_buys_every_buyable_delivery():
    view = _judged(_holding(_view(), {1: BAD}))
    assert view.reconstructed == {1: BAD} and not view.reconstruction_valid
    assert _decide(view) == [Accept((4,), (4,)), Accept((5,), (5,))]


def test_case2_accusations_skip_nodes_an_earlier_providers_challenge_refunded():
    # node 4's shares of both providers fail authentication, node 5's of
    # provider 2 only; provider 1's challenge has refunded node 4
    authentic = {(j, p) for j in EVERY_NODE for p in (1, 2)} - {(4, 1), (4, 2), (5, 2)}
    view = _judged(_holding(_view(providers=2), {1: GOOD, 2: GOOD}, EVERY_NODE, authentic))
    shares = view.node_shares
    references = {p: [(shares[j][p], j) for j in (1, 2, 3)] for p in (1, 2)}
    assert _decide(view) == [
        Challenge(2, "case2 provider 1", references[1], [(shares[4][1], 4)])
    ]
    view.rulings["case2 provider 1"] = ChallengeResult(True, (4,))
    view.status[4] = REFUNDED
    assert _decide(view) == [
        Challenge(2, "case2 provider 2", references[2], [(shares[5][2], 5)])
    ]


def test_a_mislabeled_share_is_probed_alone_after_the_accusations():
    view = _judged(_holding(_view(), {1: GOOD}))
    share = view.node_shares[2][1]
    view.node_shares[2][1] = SecretShare(1, 3, share.x_coordinate, share.y_values)
    references = [(view.node_shares[j][1], j) for j in (1, 2, 3)]
    label = "case2 node 2 provider 1 (mislabel probe)"
    assert _decide(view) == [Challenge(2, label, references, [(view.node_shares[2][1], 2)])]
    view.rulings[label] = None  # the contract rejected it
    assert _decide(view) == [Settle(), Finish("settled")]


def test_case1_is_filed_only_with_t_plus_2_authentic_shares():
    # every delivery is bought, and node 5's share fails authentication
    authentic = {(j, 1) for j in EVERY_NODE} - {(5, 1)}
    view = _judged(_holding(_view(), {1: BAD}, EVERY_NODE, authentic))
    assert _decide(view) == [Finish("no-valid-reconstruction")]
    view.authentic.add((5, 1))
    entries = [(view.node_shares[j][1], j) for j in EVERY_NODE]
    assert _decide(view) == [
        Challenge(1, "case1 provider 1", entries[: T + 1], entries[:T] + entries[T + 1:])
    ]
    assert reconstruct(T, N, [s for s, _ in entries[:T]]) == BAD
    view.rulings["case1 provider 1"] = ChallengeResult(True, EVERY_NODE)
    assert _decide(view) == [Finish("aborted-by-dispute")]
    view.rulings["case1 provider 1"] = ChallengeResult(False)
    assert _decide(view) == [Finish("no-valid-reconstruction")]


@pytest.mark.parametrize("closed", [SETTLED, REFUNDED])
def test_no_complain_is_called_only_while_a_session_is_key_out(closed):
    view = _judged(_holding(_view(), {1: GOOD}))
    assert _decide(view) == [Settle(), Finish("settled")]
    view.status = {j: closed if s is KEY_OUT else s for j, s in view.status.items()}
    assert _decide(view) == [Finish("settled")]
