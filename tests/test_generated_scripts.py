"""Two known fairness holes, pinned as strict expected failures: an oversell
the buyer cannot prove is paid (ROADMAP item 16), and a buyer that waits past
its dispute deadline pays a tampering node (ROADMAP item 13).

That every admitted generated schedule ends fair is checked, with the
digest gate's run of each, in ``tests/test_golden_digests.py``.
"""

import pytest

from dexo.config import ScenarioConfig
from dexo.netsim import (
    Action,
    AdversaryScript,
    Rule,
    run_scenario,
    standard_scripts,
)
from scenarioutil import assert_fair_exchange, random_cases


def _oversell(n, t, f, seed, corrupting):
    """``SOURCE_NODE_COLLUSION`` on a three-provider listing (value_max 100),
    with its first ``corrupting`` colluders corrupting their shares' bytes."""
    config = ScenarioConfig(n_nodes=n, threshold=t, max_faulty=f, providers=3, seed=seed)
    base = standard_scripts(config)["SOURCE_NODE_COLLUSION"]
    extra = tuple(Rule(Action.CORRUPT_BYTES, j) for j in range(1, corrupting + 1))
    return config, AdversaryScript(
        name=f"OVERSELL_CORRUPT_{corrupting}", corrupted_nodes=base.corrupted_nodes,
        corrupted_roles=base.corrupted_roles, rules=base.rules + extra,
    )


# An oversold listing is provable only by case 1, which needs t+2 authentic
# shares. With fewer the buyer ends with no valid reconstruction, yet
# remediation has bought every delivery and the sessions settle by timeout,
# so it pays the whole price (ROADMAP item 16).
UNPROVABLE_OVERSELL = {
    "n5-t4-seed0": (5, 4, 1, 0, 0),  # the cost sweep's two-thirds point
    "n5-t4-seed1": (5, 4, 1, 1, 0),
    "n5-t4-seed2": (5, 4, 1, 2, 0),
    "n3-t2": (3, 2, 1, 0, 0),
    "suite-2-corrupting": (7, 4, 3, 5, 2),
    "paper-scale-11-corrupting": (25, 13, 12, 5, 11),
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 16: an unprovable oversell is paid")
@pytest.mark.parametrize("case", UNPROVABLE_OVERSELL)
def test_an_oversell_with_too_few_authentic_shares_is_not_paid(case):
    assert_fair_exchange(run_scenario(*_oversell(*UNPROVABLE_OVERSELL[case])))


@pytest.mark.parametrize("params", [(7, 4, 3, 5, 1), (25, 13, 12, 5, 10)])
def test_one_corrupting_colluder_fewer_makes_the_oversell_provable(params):
    o = run_scenario(*_oversell(*params)).outcome
    assert o.finished_reason == "aborted-by-dispute"
    assert o.paid_out == 0 and len(o.refunded_sessions) == params[0]


# random_cases(1000) schedules that pay a node whose committed shares were
# tampered with (ROADMAP item 13); drawing them runs nothing
RANDOM = list(random_cases(1000))
PAID_TAMPERERS = [62, 129, 321, 498, 515, 521, 592, 640, 723, 762, 902, 966]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: the buyer waits past its deadline")
@pytest.mark.parametrize("case", PAID_TAMPERERS)
def test_no_tampering_node_is_paid(case):
    config, script = RANDOM[case]
    settled = run_scenario(config, script).outcome.settled_sessions
    assert not [j for j in settled if script.acts(Action.SUBSTITUTE_SHARE, j)
                or script.acts(Action.CORRUPT_BYTES, j)]
