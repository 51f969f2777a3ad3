"""Contract operations, gas exactness, timeouts, and dispute handling."""

import copy
import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from dexo import wire
from dexo.crypto import KeyMaterial, SecretShare, keystream_xor
from dexo.ledger import (
    BadKeyError,
    BadMerkleProofError,
    ChallengeResult,
    DataDescription,
    DoubleInitializeError,
    GasSchedule,
    InsufficientBalanceError,
    InvalidParamsError,
    Ledger,
    LedgerError,
    NoAcceptedBuyerError,
    NotBuyerError,
    NotInitializedError,
    NotQueriedError,
    PendingDisputeError,
    Revert,
    SessionStatus,
    SharesInconsistentError,
    UnauthorizedCallerError,
    WindowClosedError,
    WrongPaymentError,
    conforms_to_description,
)
from listingutil import CONSUMER, DEPLOYER, build_listing

SCHEDULE = GasSchedule()


def _gas_entries(ledger, function):
    return [c for c in ledger.calls() if c.function == function]


# ---------------------------------------------------------------- lifecycle


def test_create_contract_logs_deployment_gas():
    fx = build_listing(n=3, t=2, m=2, price=600)
    entries = _gas_entries(fx.ledger, "deploy")
    assert len(entries) == 1
    assert entries[0].gas == 2_325_998
    assert entries[0].caller == DEPLOYER


def test_create_contract_rejects_bad_params():
    desc = DataDescription(
        datum_size=4, value_min=0, value_max=255, providers=1, n_nodes=1,
        threshold=1, timeout_blocks=10,
    )
    ledger = Ledger()
    with pytest.raises(InvalidParamsError):
        ledger.create_contract(DEPLOYER, [], ["p"], 100, desc)
    with pytest.raises(InvalidParamsError):
        ledger.create_contract(DEPLOYER, ["n"], [], 100, desc)
    with pytest.raises(InvalidParamsError):
        ledger.create_contract(DEPLOYER, ["n"], ["p"], 0, desc)
    with pytest.raises(InvalidParamsError):
        ledger.create_contract(DEPLOYER, ["a", "b"], ["p"], 101, dataclasses.replace(desc, n_nodes=2))


# one rejected call per metered entry point: (function, its price, the call);
# all but deploy name a contract that does not exist
_REJECTED = {
    "deploy": ("deploy", SCHEDULE.deployment,
               lambda fx: fx.ledger.create_contract(DEPLOYER, ["n"], ["p"], 0, fx.contract.desc)),
    "initialize": ("initialize", SCHEDULE.initialize,
                   lambda fx: fx.ledger.initialize("node-1", "c9", fx.nodes[1].delta,
                                                   fx.nodes[1].com)),
    "query": ("query", SCHEDULE.query, lambda fx: fx.ledger.query(CONSUMER, "c9")),
    "accept": ("accept", SCHEDULE.accept, lambda fx: fx.ledger.accept(CONSUMER, "c9", 1, 100)),
    "reveal_key": ("revealKey", SCHEDULE.reveal_key,
                   lambda fx: fx.ledger.reveal_key("node-1", "c9", fx.nodes[1].key)),
    "read": ("read", 0, lambda fx: fx.ledger.read("node-1", "c9", CONSUMER, 1)),
    "check_key": ("read", SCHEDULE.check_key, lambda fx: fx.ledger.check_key(CONSUMER, "c9", 1)),
    # no listing to price against: the per-source part is not charged
    "no_complain": ("noComplain", SCHEDULE.no_complain_base,
                    lambda fx: fx.ledger.no_complain(CONSUMER, "c9")),
    "challenge_case1": ("challenge", SCHEDULE.challenge_base + 3 * SCHEDULE.challenge_per_share,
                        lambda fx: fx.ledger.challenge_case1(
                            CONSUMER, "c9", [fx.evidence(1, 1)],
                            [fx.evidence(1, 2), fx.evidence(2, 1)])),
    "challenge_case2": ("challenge", SCHEDULE.challenge_base + 2 * SCHEDULE.challenge_per_share,
                        lambda fx: fx.ledger.challenge_case2(
                            CONSUMER, "c9", [fx.evidence(1, 1)], [fx.evidence(2, 1)])),
}


@pytest.mark.parametrize("entry", list(_REJECTED))
def test_every_rejected_entry_point_leaves_one_revert_at_its_price(entry):
    fx = build_listing(n=2, t=1, m=2)
    function, gas, call = _REJECTED[entry]
    state = lambda: (fx.ledger.gas_csv(), fx.contract.dump(), list(fx.ledger.contracts),
                     dict(fx.ledger.balances))
    before = list(fx.ledger.log), state()
    with pytest.raises(LedgerError) as rejected:
        call(fx)
    *log, revert = fx.ledger.log
    assert type(revert) is Revert
    assert (revert.function, revert.gas, revert.reason) == (function, gas, str(rejected.value))
    assert (log, state()) == before


def test_two_creates_give_distinct_cids():
    fx = build_listing(n=2, t=1, m=1)
    desc = fx.contract.desc
    cid2 = fx.ledger.create_contract(DEPLOYER, ["node-1", "node-2"], ["provider-1"], 200, desc)
    assert cid2 != fx.cid


def test_initialize_stores_and_meters():
    fx = build_listing(n=3, t=2)
    node = fx.nodes[2]
    fx.ledger.initialize(node.account, fx.cid, node.delta, node.com)
    assert fx.contract.delta[2] == node.delta
    assert fx.contract.commitment[2] == node.com
    assert _gas_entries(fx.ledger, "initialize")[0].gas == 74_248


def test_initialize_unauthorized_and_double():
    fx = build_listing(n=3, t=2)
    node = fx.nodes[1]
    with pytest.raises(UnauthorizedCallerError):
        fx.ledger.initialize(CONSUMER, fx.cid, node.delta, node.com)
    fx.ledger.initialize(node.account, fx.cid, node.delta, node.com)
    with pytest.raises(DoubleInitializeError):
        fx.ledger.initialize(node.account, fx.cid, node.delta, node.com)


def test_query_requires_full_initialization():
    fx = build_listing(n=3, t=2)
    fx.ledger.initialize(fx.nodes[1].account, fx.cid, fx.nodes[1].delta, fx.nodes[1].com)
    fx.ledger.initialize(fx.nodes[2].account, fx.cid, fx.nodes[2].delta, fx.nodes[2].com)
    with pytest.raises(NotInitializedError):
        fx.ledger.query(CONSUMER, fx.cid)
    fx.ledger.initialize(fx.nodes[3].account, fx.cid, fx.nodes[3].delta, fx.nodes[3].com)
    fx.ledger.query(CONSUMER, fx.cid)
    record = fx.contract.buyers[CONSUMER]
    assert all(record.status[j] == SessionStatus.QUERIED for j in (1, 2, 3))


def test_two_buyers_get_independent_records():
    fx = build_listing(n=2, t=1)
    fx.initialize_all()
    fx.ledger.fund("other-buyer", fx.price)
    fx.ledger.query(CONSUMER, fx.cid)
    fx.ledger.query("other-buyer", fx.cid)
    assert set(fx.contract.buyers) == {CONSUMER, "other-buyer"}


def test_accept_moves_payment_into_escrow():
    fx = build_listing(n=3, t=2, price=300)
    fx.initialize_all()
    fx.ledger.query(CONSUMER, fx.cid)
    before = fx.ledger.balances[CONSUMER]
    fx.ledger.accept(CONSUMER, fx.cid, 1, 100)
    assert fx.ledger.balances[CONSUMER] == before - 100
    assert fx.contract.escrow_total() == 100
    assert fx.contract.buyers[CONSUMER].status[1] == SessionStatus.ACCEPTED
    assert _gas_entries(fx.ledger, "accept")[0].gas == 74_843


def test_accept_wrong_payment_leaves_state_unchanged():
    fx = build_listing(n=3, t=2, price=300)
    fx.initialize_all()
    fx.ledger.query(CONSUMER, fx.cid)
    with pytest.raises(WrongPaymentError):
        fx.ledger.accept(CONSUMER, fx.cid, 1, 99)
    assert fx.contract.escrow_total() == 0
    assert fx.contract.buyers[CONSUMER].status[1] == SessionStatus.QUERIED


def test_accept_before_query_and_insufficient_balance():
    fx = build_listing(n=3, t=2, price=300)
    fx.initialize_all()
    with pytest.raises(NotQueriedError):
        fx.ledger.accept(CONSUMER, fx.cid, 1, 100)
    fx.ledger.query(CONSUMER, fx.cid)
    fx.ledger.balances[CONSUMER] = 10
    fx.ledger.minted -= fx.price - 10
    with pytest.raises(InsufficientBalanceError):
        fx.ledger.accept(CONSUMER, fx.cid, 1, 100)


def test_reveal_key_happy_path_and_read():
    fx = build_listing(n=3, t=2)
    fx.initialize_all()
    fx.ledger.query(CONSUMER, fx.cid)
    fx.accept_sessions([1])
    assert fx.ledger.check_key(CONSUMER, fx.cid, 1) is None
    fx.reveal_sessions([1])
    assert fx.contract.buyers[CONSUMER].status[1] == SessionStatus.KEY_OUT
    got = fx.ledger.check_key(CONSUMER, fx.cid, 1)
    assert got == fx.nodes[1].key
    reads = _gas_entries(fx.ledger, "read")
    assert [e.gas for e in reads] == [3_457, 3_457]
    assert _gas_entries(fx.ledger, "revealKey")[0].gas == 84_334


def test_reveal_with_wrong_key_rejected():
    fx = build_listing(n=3, t=2)
    fx.initialize_all()
    fx.ledger.query(CONSUMER, fx.cid)
    fx.accept_sessions([1])
    wrong = KeyMaterial(bytes(32))
    with pytest.raises(BadKeyError):
        fx.ledger.reveal_key(fx.nodes[1].account, fx.cid, wrong)
    assert fx.contract.escrow_total() == fx.session_price
    assert 1 not in fx.contract.key_revealed


def test_reveal_before_accept_and_unauthorized():
    fx = build_listing(n=3, t=2)
    fx.initialize_all()
    fx.ledger.query(CONSUMER, fx.cid)
    with pytest.raises(NoAcceptedBuyerError):
        fx.ledger.reveal_key(fx.nodes[1].account, fx.cid, fx.nodes[1].key)
    fx.accept_sessions([1])
    with pytest.raises(UnauthorizedCallerError):
        fx.ledger.reveal_key(CONSUMER, fx.cid, fx.nodes[1].key)


def test_shared_commitment_reveals_for_all_members():
    fx = build_listing(n=4, t=3, shared_key_nodes=(1, 2))
    fx.initialize_all()
    fx.ledger.query(CONSUMER, fx.cid)
    fx.accept_sessions([1, 3])
    fx.reveal_sessions([1])
    # the leader's reveal releases the common key for both group members
    assert fx.contract.key_revealed[1] == fx.nodes[1].key
    assert fx.contract.key_revealed[2] == fx.nodes[1].key
    assert 3 not in fx.contract.key_revealed
    assert len(_gas_entries(fx.ledger, "revealKey")) == 1


def test_reveal_of_an_already_public_key_opens_a_full_window():
    """A group member accepted a whole timeout after its leader's reveal
    reveals the same key: its session moves to KEY_OUT with a dispute
    window of its own, while the key and its first reveal block stay."""
    fx = build_listing(n=4, t=2, shared_key_nodes=(1, 2), tamper_nodes=(2,))
    fx.initialize_all()
    fx.ledger.query(CONSUMER, fx.cid)
    fx.accept_sessions([1])
    fx.reveal_sessions([1])
    fx.ledger.advance_block(12)
    fx.ledger.settle_timeouts(fx.cid)
    fx.accept_sessions([2, 3, 4])
    fx.reveal_sessions([2, 3, 4])
    record = fx.contract.buyers[CONSUMER]
    assert record.status[1] == SessionStatus.SETTLED
    assert record.status[2] == SessionStatus.KEY_OUT
    assert fx.contract.key_revealed[2] == fx.nodes[1].key
    assert fx.contract.reveal_block[2] == 0
    assert len(_gas_entries(fx.ledger, "revealKey")) == 4
    fx.ledger.advance_block(9)
    fx.ledger.settle_timeouts(fx.cid)
    assert record.status[2] == SessionStatus.KEY_OUT
    good = [fx.evidence(j, 1) for j in (3, 4)]
    result = fx.ledger.challenge_case2(CONSUMER, fx.cid, good, [fx.evidence(2, 1)])
    assert result.refunded_nodes == (2,)
    fx.ledger.assert_conserved()


def test_second_buyer_gets_a_full_window_after_a_repeat_reveal():
    fx = build_listing(n=2, t=1, timeout_blocks=10)
    _drive_to_key_out(fx, [1, 2])
    fx.ledger.advance_block(8)
    late = "consumer-2"
    fx.ledger.fund(late, fx.price)
    fx.ledger.query(late, fx.cid)
    for j in (1, 2):
        fx.ledger.accept(late, fx.cid, j, fx.session_price)
    fx.reveal_sessions([1, 2])
    fx.ledger.advance_block(2)
    fx.ledger.settle_timeouts(fx.cid)
    assert fx.contract.buyers[CONSUMER].status[1] == SessionStatus.SETTLED
    assert fx.contract.buyers[late].status[1] == SessionStatus.KEY_OUT
    result = fx.ledger.challenge_case2(
        late, fx.cid, [fx.evidence(1, 1)], [fx.evidence(2, 1)]
    )
    assert not result.accepted
    fx.ledger.advance_block(8)
    fx.ledger.settle_timeouts(fx.cid)
    assert fx.contract.buyers[late].status[1] == SessionStatus.SETTLED
    fx.ledger.assert_conserved()


def test_status_read_is_metered_without_gas():
    fx = build_listing(n=2, t=1, price=200)
    fx.initialize_all()
    node = fx.nodes[1].account
    assert fx.ledger.read(node, fx.cid, CONSUMER, 1) is None
    fx.ledger.query(CONSUMER, fx.cid)
    assert fx.ledger.read(node, fx.cid, CONSUMER, 1) is SessionStatus.QUERIED
    fx.accept_sessions([1])
    assert fx.ledger.read(node, fx.cid, CONSUMER, 1) is SessionStatus.ACCEPTED
    assert fx.ledger.snapshot_buyer(fx.cid, CONSUMER) == {
        1: SessionStatus.ACCEPTED, 2: SessionStatus.QUERIED
    }
    reads = _gas_entries(fx.ledger, "read")
    assert [(c.caller, c.gas) for c in reads] == [(node, 0)] * 3


# ---------------------------------------------------------------- settlement


def _drive_to_key_out(fx, sessions):
    fx.initialize_all()
    fx.ledger.query(CONSUMER, fx.cid)
    fx.accept_sessions(sessions)
    fx.reveal_sessions(sessions)


def test_no_complain_gas_is_linear_in_sources():
    for m, expected in [(1, 42_929), (10, 94_544)]:
        fx = build_listing(n=2, t=1, m=m, price=200)
        _drive_to_key_out(fx, [1])
        fx.ledger.no_complain(CONSUMER, fx.cid)
        assert _gas_entries(fx.ledger, "noComplain")[0].gas == expected


def test_no_complain_distributes_to_sources_equally():
    fx = build_listing(n=2, t=1, m=3, price=602)
    _drive_to_key_out(fx, [1, 2])
    fx.ledger.no_complain(CONSUMER, fx.cid)
    # sessions settle independently: each 301 = 3*100 + 1, remainder to the
    # first source
    balances = [fx.ledger.balances.get(f"provider-{i}", 0) for i in (1, 2, 3)]
    assert balances == [202, 200, 200]
    assert fx.contract.escrow_total() == 0
    assert all(
        s == SessionStatus.SETTLED
        for s in fx.contract.buyers[CONSUMER].status.values()
        if s != SessionStatus.QUERIED
    )
    fx.ledger.assert_conserved()


def test_no_complain_pays_node_fee():
    fx = build_listing(n=2, t=1, m=1, price=200, node_fee=30)
    _drive_to_key_out(fx, [1])
    fx.ledger.no_complain(CONSUMER, fx.cid)
    assert fx.ledger.balances["node-1"] == 30
    assert fx.ledger.balances["provider-1"] == 70
    fx.ledger.assert_conserved()


def test_no_complain_guards():
    fx = build_listing(n=2, t=1)
    fx.initialize_all()
    fx.ledger.query(CONSUMER, fx.cid)
    with pytest.raises(NotBuyerError):
        fx.ledger.no_complain("stranger", fx.cid)
    fx.accept_sessions([1])
    with pytest.raises(PendingDisputeError):
        fx.ledger.no_complain(CONSUMER, fx.cid)


def test_timeout_settles_lapsed_reveals():
    fx = build_listing(n=2, t=1, timeout_blocks=10)
    _drive_to_key_out(fx, [1])
    fx.ledger.advance_block(9)
    fx.ledger.settle_timeouts(fx.cid)
    assert fx.contract.buyers[CONSUMER].status[1] == SessionStatus.KEY_OUT
    fx.ledger.advance_block(1)
    fx.ledger.settle_timeouts(fx.cid)
    assert fx.contract.buyers[CONSUMER].status[1] == SessionStatus.SETTLED
    fx.ledger.assert_conserved()


def test_a_reveal_restarts_the_session_clock():
    """A session accepted at block 0 and revealed at block 3 gets its full
    dispute window from block 3."""
    fx = build_listing(n=2, t=1, timeout_blocks=10)
    fx.initialize_all()
    fx.ledger.query(CONSUMER, fx.cid)
    fx.accept_sessions([1, 2])
    fx.ledger.advance_block(3)
    fx.reveal_sessions([1, 2])
    fx.ledger.advance_block(9)
    fx.ledger.settle_timeouts(fx.cid)
    record = fx.contract.buyers[CONSUMER]
    assert record.since == {1: 3, 2: 3}
    result = fx.ledger.challenge_case2(CONSUMER, fx.cid, [fx.evidence(1, 1)], [fx.evidence(2, 1)])
    assert not result.accepted
    fx.ledger.advance_block(1)
    fx.ledger.settle_timeouts(fx.cid)
    assert record.status == {1: SessionStatus.SETTLED, 2: SessionStatus.SETTLED}
    fx.ledger.assert_conserved()


def test_timeout_refunds_silent_nodes():
    fx = build_listing(n=2, t=1, timeout_blocks=5)
    fx.initialize_all()
    fx.ledger.query(CONSUMER, fx.cid)
    fx.accept_sessions([1, 2])
    fx.reveal_sessions([1])  # node 2 never reveals
    before = fx.ledger.balances[CONSUMER]
    fx.ledger.advance_block(5)
    fx.ledger.settle_timeouts(fx.cid)
    record = fx.contract.buyers[CONSUMER]
    assert record.status[2] == SessionStatus.REFUNDED
    assert record.status[1] == SessionStatus.SETTLED
    assert fx.ledger.balances[CONSUMER] == before + fx.session_price
    fx.ledger.assert_conserved()


def test_dispute_after_window_closes():
    fx = build_listing(n=3, t=2, m=1, datum_size=4, timeout_blocks=3)
    _drive_to_key_out(fx, [1, 2, 3])
    fx.ledger.advance_block(3)
    good = [fx.evidence(j, 1) for j in (1, 2)]
    bad = [fx.evidence(3, 1)]
    with pytest.raises(WindowClosedError):
        fx.ledger.challenge_case2(CONSUMER, fx.cid, good, bad)


# ---------------------------------------------------------------- disputes


def test_case1_refunds_when_data_violates_description():
    # sellers registered shares of data outside the advertised range
    fx = build_listing(
        n=5, t=3, m=1, datum_size=4, value_min=0, value_max=100,
        data_min=150, data_max=255,
    )
    _drive_to_key_out(fx, [1, 2, 3, 4, 5])
    set1 = [fx.evidence(j, 1) for j in (1, 2, 3, 4)]
    set2 = [fx.evidence(j, 1) for j in (1, 2, 3, 5)]
    before = fx.ledger.balances[CONSUMER]
    result = fx.ledger.challenge_case1(CONSUMER, fx.cid, set1, set2)
    assert result.accepted
    assert result.refunded_nodes == (1, 2, 3, 4, 5)
    assert fx.ledger.balances[CONSUMER] == before + 5 * fx.session_price
    assert fx.contract.escrow_total() == 0
    statuses = fx.contract.buyers[CONSUMER].status
    assert all(statuses[j] == SessionStatus.REFUNDED for j in range(1, 6))
    fx.ledger.assert_conserved()


def test_case1_rejected_when_data_conforms():
    fx = build_listing(n=5, t=3, m=1, datum_size=4, value_min=0, value_max=255)
    _drive_to_key_out(fx, [1, 2, 3, 4, 5])
    set1 = [fx.evidence(j, 1) for j in (1, 2, 3, 4)]
    set2 = [fx.evidence(j, 1) for j in (1, 2, 3, 5)]
    result = fx.ledger.challenge_case1(CONSUMER, fx.cid, set1, set2)
    assert not result.accepted
    assert fx.contract.escrow_total() == 5 * fx.session_price


def test_case1_rejects_bad_merkle_proof():
    fx = build_listing(n=5, t=3, m=1, datum_size=4, value_min=0, value_max=100,
                       data_min=150, data_max=255)
    _drive_to_key_out(fx, [1, 2, 3, 4, 5])
    set1 = [fx.evidence(j, 1) for j in (1, 2, 3, 4)]
    set2 = [fx.evidence(j, 1) for j in (1, 2, 3, 5)]
    fake_share = dataclasses.replace(
        set1[0].share, y_values=bytes(len(set1[0].share.y_values))
    )
    set1[0] = dataclasses.replace(set1[0], share=fake_share)
    with pytest.raises(BadMerkleProofError):
        fx.ledger.challenge_case1(CONSUMER, fx.cid, set1, set2)


def test_case1_rejects_inconsistent_sets():
    fx = build_listing(
        n=5, t=3, m=1, datum_size=4, value_min=0, value_max=100,
        data_min=150, data_max=255, tamper_nodes=(5,),
    )
    _drive_to_key_out(fx, [1, 2, 3, 4, 5])
    set1 = [fx.evidence(j, 1) for j in (1, 2, 3, 4)]
    set2 = [fx.evidence(j, 1) for j in (1, 2, 3, 5)]  # includes tampered node
    with pytest.raises(SharesInconsistentError):
        fx.ledger.challenge_case1(CONSUMER, fx.cid, set1, set2)


def test_case2_refunds_only_the_tampering_node():
    fx = build_listing(n=5, t=3, m=2, datum_size=4, tamper_nodes=(3,))
    _drive_to_key_out(fx, [1, 2, 3, 4, 5])
    good = [fx.evidence(j, 1) for j in (1, 2, 4)]
    bad = [fx.evidence(3, 1)]
    before = fx.ledger.balances[CONSUMER]
    result = fx.ledger.challenge_case2(CONSUMER, fx.cid, good, bad)
    assert result.accepted
    assert result.refunded_nodes == (3,)
    assert fx.ledger.balances[CONSUMER] == before + fx.session_price
    assert fx.contract.flagged_nodes == {3}
    record = fx.contract.buyers[CONSUMER].status
    assert record[3] == SessionStatus.REFUNDED
    assert record[1] == SessionStatus.KEY_OUT
    fx.ledger.no_complain(CONSUMER, fx.cid)
    assert fx.contract.escrow_total() == 0
    fx.ledger.assert_conserved()


def test_case2_rejected_when_all_shares_honest():
    fx = build_listing(n=5, t=3, m=1, datum_size=4)
    _drive_to_key_out(fx, [1, 2, 3, 4, 5])
    good = [fx.evidence(j, 1) for j in (1, 2, 4)]
    bad = [fx.evidence(5, 1)]
    result = fx.ledger.challenge_case2(CONSUMER, fx.cid, good, bad)
    assert not result.accepted
    assert result.refunded_nodes == ()
    assert fx.contract.escrow_total() == 5 * fx.session_price


def test_case2_rejects_fabricated_bad_share():
    # a share that does not match the node's digest cannot be used as evidence
    fx = build_listing(n=5, t=3, m=1, datum_size=4)
    _drive_to_key_out(fx, [1, 2, 3, 4, 5])
    good = [fx.evidence(j, 1) for j in (1, 2, 4)]
    honest = fx.evidence(3, 1)
    forged_share = dataclasses.replace(honest.share, y_values=b"\xde\xad\xbe\xef")
    bad = [dataclasses.replace(honest, share=forged_share)]
    with pytest.raises(BadMerkleProofError):
        fx.ledger.challenge_case2(CONSUMER, fx.cid, good, bad)


def test_case2_rejects_garbage_reference_set():
    # framing an honest node with a non-conforming reference reconstruction
    fx = build_listing(
        n=5, t=3, m=1, datum_size=4, value_min=0, value_max=100,
        tamper_nodes=(1, 2),
    )
    _drive_to_key_out(fx, [1, 2, 3, 4, 5])
    garbage_refs = [fx.evidence(j, 1) for j in (1, 2, 3)]
    accused = [fx.evidence(4, 1)]
    with pytest.raises(SharesInconsistentError):
        fx.ledger.challenge_case2(CONSUMER, fx.cid, garbage_refs, accused)
    assert fx.contract.escrow_total() == 5 * fx.session_price


# challenges whose evidence sets fail a shape check: (function, first set,
# second set), each set given as (node, provider) pairs
_WRONG_SHAPES = {
    "case1 set of the wrong size": (
        "challenge_case1", [(1, 1), (2, 1), (3, 1)], [(1, 1), (2, 1), (3, 1), (5, 1)]),
    "case1 two providers": (
        "challenge_case1", [(1, 1), (2, 1), (3, 1), (4, 1)], [(1, 1), (2, 1), (3, 1), (5, 2)]),
    "case1 identical sets": (
        "challenge_case1", [(1, 1), (2, 1), (3, 1), (4, 1)], [(1, 1), (2, 1), (3, 1), (4, 1)]),
    "case2 reference set of the wrong size": ("challenge_case2", [(1, 1), (2, 1)], [(5, 1)]),
    "case2 no suspects": ("challenge_case2", [(1, 1), (2, 1), (3, 1)], []),
    "case2 two providers": ("challenge_case2", [(1, 1), (2, 1), (3, 1)], [(5, 2)]),
}


# each challenge's two evidence sets, by the names its method gives them
_SET_NAMES = {"challenge_case1": ("set1", "set2"), "challenge_case2": ("good", "bad")}


@pytest.mark.parametrize("shape, by_keyword", [
    *(pytest.param(shape, False, id=shape) for shape in _WRONG_SHAPES),
    *(pytest.param(shape, True, id=f"{shape} by keyword") for shape in _WRONG_SHAPES),
])
def test_challenge_of_the_wrong_shape_is_rejected_after_charging_gas(shape, by_keyword):
    fx = build_listing(n=5, t=3, m=2, datum_size=4)
    _drive_to_key_out(fx, [1, 2, 3, 4, 5])
    function, *sets = _WRONG_SHAPES[shape]
    first, second = ([fx.evidence(j, p) for j, p in pairs] for pairs in sets)
    before = (dict(fx.ledger.balances), fx.contract.dump(), fx.ledger.gas_csv(),
              list(fx.ledger.log))
    challenge = getattr(fx.ledger, function)
    with pytest.raises(InvalidParamsError) as rejected:
        if by_keyword:
            challenge(CONSUMER, fx.cid, **dict(zip(_SET_NAMES[function], (first, second))))
        else:
            challenge(CONSUMER, fx.cid, first, second)
    # the rejected challenge is charged as one Revert, outside the gas log
    *log, revert = fx.ledger.log
    assert revert == Revert(
        fx.ledger.block_height, CONSUMER, "challenge",
        SCHEDULE.challenge_base + SCHEDULE.challenge_per_share * (len(first) + len(second)),
        str(rejected.value),
    )
    assert (dict(fx.ledger.balances), fx.contract.dump(), fx.ledger.gas_csv(), log) == before


def _commit_to(fx, j, shares):
    """Have node j commit to, and deliver, these shares instead of its own."""
    node = fx.nodes[j]
    node.shares = shares
    node.payload = wire.encode_node_payload(shares)
    node.cipher = keystream_xor(node.key, node.payload, wire.payload_nonce(fx.contract.tid))
    node.delta = wire.payload_root(node.cipher)


def test_case2_refunds_a_tampered_share_at_a_repeated_x_but_not_a_consistent_copy():
    # nodes 4 and 5 both deliver a share at node 1's x-coordinate: node 4 an
    # exact copy, which lies on the references' polynomial, node 5 one whose
    # bytes differ, which does not
    fx = build_listing(n=5, t=3, m=1, datum_size=4)
    copied = fx.nodes[1].shares
    _commit_to(fx, 4, copied)
    _commit_to(fx, 5, [dataclasses.replace(s, y_values=bytes(b ^ 1 for b in s.y_values))
                       for s in copied])
    _drive_to_key_out(fx, [1, 2, 3, 4, 5])
    good = [fx.evidence(j, 1) for j in (1, 2, 3)]
    bad = [fx.evidence(4, 1), fx.evidence(5, 1)]
    before = fx.ledger.balances[CONSUMER]
    result = fx.ledger.challenge_case2(CONSUMER, fx.cid, good, bad)
    assert result.accepted and result.refunded_nodes == (5,)
    assert fx.contract.flagged_nodes == {5}
    status = fx.contract.buyers[CONSUMER].status
    assert (status[4], status[5]) == (SessionStatus.KEY_OUT, SessionStatus.REFUNDED)
    assert fx.ledger.balances[CONSUMER] == before + fx.session_price
    fx.ledger.assert_conserved()


def test_case2_does_not_refund_a_suspect_listed_as_its_own_reference():
    """Every node is honest; the buyer names node 2's share as a reference
    and as the suspect. It lies on the references' polynomial, so nothing is
    refunded, and node 2 settles when its window lapses."""
    fx = build_listing(n=4, t=2, m=1, value_max=100)
    _drive_to_key_out(fx, [1, 2])
    result = fx.ledger.challenge_case2(
        CONSUMER, fx.cid, [fx.evidence(2, 1), fx.evidence(1, 1)], [fx.evidence(2, 1)])
    assert result == ChallengeResult(accepted=False)
    assert not fx.contract.flagged_nodes
    fx.ledger.advance_block(fx.contract.desc.timeout_blocks)
    fx.ledger.settle_timeouts(fx.cid)
    assert fx.contract.buyers[CONSUMER].status[2] is SessionStatus.SETTLED
    fx.ledger.assert_conserved()


def test_case2_does_not_refund_the_node_whose_share_a_colluder_copied():
    """Node 4 colludes with the buyer and commits honest node 2's share. With
    the copy as a reference, node 2's own share still lies on the
    references' polynomial."""
    fx = build_listing(n=4, t=2, m=1, value_max=100)
    _commit_to(fx, 4, fx.nodes[2].shares)
    _drive_to_key_out(fx, [1, 2, 4])
    result = fx.ledger.challenge_case2(
        CONSUMER, fx.cid, [fx.evidence(4, 1), fx.evidence(1, 1)], [fx.evidence(2, 1)])
    assert result == ChallengeResult(accepted=False)
    fx.ledger.no_complain(CONSUMER, fx.cid)
    assert fx.contract.buyers[CONSUMER].status[2] is SessionStatus.SETTLED
    fx.ledger.assert_conserved()


@pytest.fixture(scope="module")
def tamper_and_copy_listing():
    """n=5, t=3, two providers; node 5 committed to bad shares and node 4 to
    a copy of node 1's; every session is at KEY_OUT."""
    fx = build_listing(n=5, t=3, m=2, tamper_nodes=(5,))
    _commit_to(fx, 4, fx.nodes[1].shares)
    _drive_to_key_out(fx, [1, 2, 3, 4, 5])
    return fx


def _case2_ruling(fx, buyer, provider, good, bad):
    """challenge_case2 on a copy of the listing: the result, or the type of
    the rejection, and the contract and balances after it."""
    fx = copy.deepcopy(fx)
    good_ev, bad_ev = ([fx.evidence(j, provider) for j in nodes] for nodes in (good, bad))
    try:
        result = fx.ledger.challenge_case2(buyer, fx.cid, good_ev, bad_ev)
    except LedgerError as exc:
        result = type(exc)
    return result, fx.contract.dump(), fx.ledger.balances


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), provider=st.integers(1, 2))
def test_a_case2_ruling_does_not_depend_on_the_order_of_the_references(
    tamper_and_copy_listing, data, provider
):
    nodes = st.integers(1, 5)
    good = data.draw(st.lists(nodes, min_size=3, max_size=3, unique=True))
    bad = data.draw(st.lists(nodes, min_size=1, max_size=3, unique=True))
    reordered = data.draw(st.permutations(good))
    fx = tamper_and_copy_listing
    assert (_case2_ruling(fx, CONSUMER, provider, reordered, bad)
            == _case2_ruling(fx, CONSUMER, provider, good, bad))


# ---------------------------------------------------------------- invariants


def test_key_reveal_soundness_over_full_flow():
    fx = build_listing(n=4, t=2, m=2)
    _drive_to_key_out(fx, [1, 2])
    from dexo.crypto import open_commitment

    for j, key in fx.contract.key_revealed.items():
        assert open_commitment(key, fx.contract.commitment[j])


BUYERS = (CONSUMER, "buyer-2")
OPEN = (SessionStatus.ACCEPTED, SessionStatus.KEY_OUT)
TERMINAL = (SessionStatus.SETTLED, SessionStatus.REFUNDED)
NODE = st.integers(1, 5)
RIGHT = st.sampled_from([True, True, True, False])  # right payment or key, 3 in 4


def _mostly(live: list, arbitrary: st.SearchStrategy) -> st.SearchStrategy:
    """Three draws in four from the live choices, if there are any."""
    if not live:
        return arbitrary
    pick = st.sampled_from(live)
    return st.one_of(pick, pick, pick, arbitrary)


class LedgerMachine(RuleBasedStateMachine):
    """Arbitrary contract call sequences from two buyers against one listing
    of five nodes in which nodes 1 and 2 share a key and node 4 committed to
    bad shares, so that the four honest nodes can make two consistent case-1
    sets. Most draws pick among the sessions and nodes the contract's state
    makes live, so that sequences reach reveals, settlement and disputes;
    the rest are arbitrary. The ``live_`` rules run only when there is
    something live to draw, and draw nothing else: a queried session to pay
    for, the right key for an accepted session, or evidence from the buyer's
    own sessions whose dispute window is open.
    """

    def __init__(self):
        super().__init__()
        self.fx = build_listing(n=5, t=2, m=2, timeout_blocks=8,
                                tamper_nodes=(4,), shared_key_nodes=(1, 2))
        self.fx.initialize_all()
        self.ledger = self.fx.ledger
        self.ledger.fund(BUYERS[1], self.fx.price)
        self.terminal: dict[tuple[str, int], SessionStatus] = {}

    def _sessions(self, status: SessionStatus) -> list[tuple[str, int]]:
        return sorted(
            (buyer, j) for buyer, rec in self.fx.contract.buyers.items()
            for j, s in rec.status.items() if s is status
        )

    def _disputable(self, buyer: str) -> list[int]:
        """The buyer's KEY_OUT sessions whose dispute window is open."""
        rec = self.fx.contract.buyers[buyer]
        timeout = self.fx.contract.desc.timeout_blocks
        return [j for j, s in sorted(rec.status.items())
                if s is SessionStatus.KEY_OUT and self.ledger.block_height < rec.since[j] + timeout]

    def _disputing(self, size: int) -> list[str]:
        """Buyers with at least ``size`` disputable sessions."""
        return [b for b in sorted(self.fx.contract.buyers) if len(self._disputable(b)) >= size]

    def _attempt(self, function: str, call, *args):
        """Make one call, metered as ``function``, and return its result or
        the type of its rejection. A rejected call appends exactly one
        Revert naming that function and changes nothing else."""
        before = copy.deepcopy(self.fx.contract), dict(self.ledger.balances), list(self.ledger.log)
        try:
            return call(*args)
        except LedgerError as exc:
            *log, revert = self.ledger.log
            assert type(revert) is Revert
            assert (revert.block, revert.function, revert.reason) == (
                self.ledger.block_height, function, str(exc))
            assert (self.fx.contract, self.ledger.balances, log) == before
            return type(exc)

    @initialize(buyer=st.sampled_from(BUYERS), j=st.one_of(st.none(), NODE))
    def first_query(self, buyer, j):
        self.ledger.query(buyer, self.fx.cid, j)

    @rule(buyer=st.sampled_from(BUYERS), j=st.one_of(st.none(), NODE))
    def query(self, buyer, j):
        self._attempt("query", self.ledger.query, buyer, self.fx.cid, j)

    @rule(data=st.data(), right=RIGHT)
    def accept(self, data, right):
        buyer, j = data.draw(_mostly(self._sessions(SessionStatus.QUERIED),
                                     st.tuples(st.sampled_from(BUYERS), NODE)))
        payment = self.fx.session_price + (0 if right else 1)
        self._attempt("accept", self.ledger.accept, buyer, self.fx.cid, j, payment)

    @precondition(lambda self: self._sessions(SessionStatus.QUERIED))
    @rule(data=st.data())
    def live_accept(self, data):
        buyer, j = data.draw(st.sampled_from(self._sessions(SessionStatus.QUERIED)))
        self._attempt("accept", self.ledger.accept, buyer, self.fx.cid, j, self.fx.session_price)

    @rule(data=st.data(), right=RIGHT)
    def reveal_key(self, data, right):
        live = [j for _, j in self._sessions(SessionStatus.ACCEPTED)]
        node = self.fx.nodes[data.draw(_mostly(live, NODE))]
        key = node.key if right else KeyMaterial(bytes(32))
        self._attempt("revealKey", self.ledger.reveal_key, node.account, self.fx.cid, key)

    @precondition(lambda self: self._sessions(SessionStatus.ACCEPTED))
    @rule(data=st.data())
    def live_reveal_key(self, data):
        _, j = data.draw(st.sampled_from(self._sessions(SessionStatus.ACCEPTED)))
        node = self.fx.nodes[j]
        self._attempt("revealKey", self.ledger.reveal_key, node.account, self.fx.cid, node.key)

    @rule(buyer=st.sampled_from(BUYERS))
    def no_complain(self, buyer):
        self._attempt("noComplain", self.ledger.no_complain, buyer, self.fx.cid)

    @rule(count=st.integers(1, 3))
    def advance_block(self, count):
        self.ledger.advance_block(count)

    @rule()
    def settle_timeouts(self):
        self.ledger.settle_timeouts(self.fx.cid)
        timeout = self.fx.contract.desc.timeout_blocks
        for rec in self.fx.contract.buyers.values():
            assert all(self.ledger.block_height < since + timeout for since in rec.since.values())

    def _challenge_case2(self, buyer: str, provider: int, good: list[int], bad: list[int]):
        """Challenge, and check that a deep copy of the listing rules the
        same with the references reversed."""
        reversed_ruling = _case2_ruling(self.fx, buyer, provider, good[::-1], bad)
        evidence = [self.fx.evidence(j, provider) for j in good + bad]
        ruling = self._attempt("challenge", self.ledger.challenge_case2, buyer, self.fx.cid,
                               evidence[: len(good)], evidence[len(good):])
        assert reversed_ruling == (ruling, self.fx.contract.dump(), self.ledger.balances)

    @rule(data=st.data(), provider=st.integers(1, 2))
    def challenge_case2(self, data, provider):
        key_out = self._sessions(SessionStatus.KEY_OUT)
        buyer = data.draw(_mostly([b for b, _ in key_out], st.sampled_from(BUYERS)))
        public = sorted(self.fx.contract.key_revealed)
        pairs = [[a, b] for a in public for b in public if a != b]
        good = data.draw(_mostly(pairs, st.lists(NODE, max_size=3, unique=True)))
        bad = data.draw(st.lists(_mostly(public, NODE), min_size=1, max_size=2, unique=True))
        self._challenge_case2(buyer, provider, good, bad)

    @precondition(lambda self: self._disputing(self.fx.t))
    @rule(data=st.data(), provider=st.integers(1, 2))
    def live_challenge_case2(self, data, provider):
        buyer = data.draw(st.sampled_from(self._disputing(self.fx.t)))
        live = self._disputable(buyer)
        good = data.draw(st.lists(st.sampled_from(live), min_size=self.fx.t,
                                  max_size=self.fx.t, unique=True))
        bad = data.draw(st.lists(st.sampled_from(live), min_size=1, max_size=2, unique=True))
        self._challenge_case2(buyer, provider, good, bad)

    @rule(data=st.data(), provider=st.integers(1, 2))
    def challenge_case1(self, data, provider):
        key_out = self._sessions(SessionStatus.KEY_OUT)
        buyer = data.draw(_mostly([b for b, _ in key_out], st.sampled_from(BUYERS)))
        public = sorted(self.fx.contract.key_revealed)
        triples = [list(c) for c in itertools.combinations(public, 3)]
        sets = [data.draw(_mostly(triples, st.lists(NODE, max_size=4, unique=True)))
                for _ in range(2)]
        first, second = ([self.fx.evidence(j, provider) for j in nodes] for nodes in sets)
        self._attempt("challenge", self.ledger.challenge_case1, buyer, self.fx.cid, first, second)

    @precondition(lambda self: self._disputing(self.fx.t + 2))
    @rule(data=st.data(), provider=st.integers(1, 2))
    def live_challenge_case1(self, data, provider):
        t = self.fx.t
        buyer = data.draw(st.sampled_from(self._disputing(t + 2)))
        # two (t+1)-sets that differ in their last node, as the consumer builds them
        nodes = data.draw(st.permutations(self._disputable(buyer)))[: t + 2]
        first, second = ([self.fx.evidence(j, provider) for j in nodes[: t] + [last]]
                         for last in nodes[t:])
        self._attempt("challenge", self.ledger.challenge_case1, buyer, self.fx.cid, first, second)

    @invariant()
    def currency_is_conserved(self):
        self.ledger.assert_conserved()
        assert all(v >= 0 for v in self.ledger.balances.values())

    @invariant()
    def each_open_session_runs_on_one_clock(self):
        for rec in self.fx.contract.buyers.values():
            assert rec.since.keys() == {j for j, s in rec.status.items() if s in OPEN}
            assert all(since <= self.ledger.block_height for since in rec.since.values())

    @invariant()
    def settled_and_refunded_sessions_never_change(self):
        for buyer, rec in self.fx.contract.buyers.items():
            for j, status in rec.status.items():
                if status in TERMINAL:
                    assert self.terminal.setdefault((buyer, j), status) is status
        for (buyer, j), status in self.terminal.items():
            assert self.fx.contract.buyers[buyer].status[j] is status


LedgerMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None, derandomize=True, database=None
)
TestLedgerStateMachine = LedgerMachine.TestCase


def test_currency_conserved_over_random_interleavings():
    rng = random.Random(42)
    for trial in range(25):
        fx = build_listing(n=4, t=2, m=2, timeout_blocks=4, seed=trial)
        fx.initialize_all()
        fx.ledger.fund("buyer-2", fx.price)
        actions = ["query", "accept", "reveal", "no_complain", "advance", "settle"]
        for _ in range(30):
            op = rng.choice(actions)
            buyer = rng.choice([CONSUMER, "buyer-2"])
            j = rng.randint(1, 4)
            try:
                if op == "query":
                    fx.ledger.query(buyer, fx.cid)
                elif op == "accept":
                    fx.ledger.accept(buyer, fx.cid, j, fx.session_price)
                elif op == "reveal":
                    fx.reveal_sessions([j])
                elif op == "no_complain":
                    fx.ledger.no_complain(buyer, fx.cid)
                elif op == "advance":
                    fx.ledger.advance_block(rng.randint(1, 3))
                else:
                    fx.ledger.settle_timeouts(fx.cid)
            except Exception:
                pass
            fx.ledger.assert_conserved()


def test_balances_never_negative():
    fx = build_listing(n=2, t=1, price=200)
    fx.initialize_all()
    fx.ledger.query(CONSUMER, fx.cid)
    fx.accept_sessions([1, 2])
    assert all(v >= 0 for v in fx.ledger.balances.values())


def test_gas_csv_format():
    fx = build_listing(n=2, t=1)
    _drive_to_key_out(fx, [1])
    csv_text = fx.ledger.gas_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "block,caller,function,gas_units,cumulative_gas"
    assert lines[1].startswith("0,server,deploy,2325998,2325998")


def test_conforms_to_description():
    desc = DataDescription(
        datum_size=2, value_min=5, value_max=10, providers=1, n_nodes=2,
        threshold=1, timeout_blocks=5,
    )
    assert conforms_to_description(bytes([5, 10]), desc)
    assert not conforms_to_description(bytes([4, 10]), desc)
    assert not conforms_to_description(bytes([5]), desc)
    assert not conforms_to_description(bytes([5, 10, 7]), desc)


def _conforms_per_value(datum: bytes, desc: DataDescription) -> bool:
    if len(datum) != desc.datum_size:
        return False
    return all(desc.value_min <= v <= desc.value_max for v in datum)


@given(
    bounds=st.tuples(st.integers(0, 255), st.integers(0, 255)).map(sorted),
    sized=st.integers(1, 6).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.one_of(st.binary(min_size=size, max_size=size), st.binary(max_size=7)),
        )
    ),
)
def test_min_max_check_agrees_with_the_per_value_loop(bounds, sized):
    size, datum = sized
    desc = DataDescription(
        datum_size=size, value_min=bounds[0], value_max=bounds[1], providers=1,
        n_nodes=2, threshold=1, timeout_blocks=5,
    )
    assert conforms_to_description(datum, desc) == _conforms_per_value(datum, desc)
