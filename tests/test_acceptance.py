"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); any failure is a hard assert with the offending configuration named.
"""

import random
import time
from itertools import combinations

from dexo.config import ScenarioConfig
from dexo.crypto import create_shares, reconstruct
from dexo.harness import build_cost_report, family_configs
from dexo.ledger import GasSchedule
from dexo.netsim import replay, run_scenario, standard_scripts
from listingutil import CONSUMER, build_listing
from oracles import oracle_interpolate_at, oracle_reconstruct
from scenarioutil import assert_conserved, assert_fair_exchange, random_cases, suite_config


def _ok(name: str) -> None:
    print(f"PASS {name}")


# ------------------------------------------------------------ 1. call count


def test_call_count_law():
    """Honest merged-query run makes exactly 3N+3t+2 contract calls,
    independent of the provider count, and with each node holding its own
    key sends exactly N*M + 4M + 4N + t messages; under 5 s per scenario.
    """
    for n, t in [(5, 3), (10, 6), (20, 10)]:
        f = min(t - 1, n - t, (n - 1) // 2)
        per_m = set()
        for m in (1, 5, 20):
            cfg = ScenarioConfig(
                n_nodes=n, threshold=t, max_faulty=f, providers=m,
                value_max=100, seed=201,
            )
            start = time.perf_counter()
            trace = run_scenario(cfg)
            elapsed = time.perf_counter() - start
            outcome = trace.outcome
            assert elapsed < 5.0, f"(N={n},t={t},M={m}) took {elapsed:.1f}s"
            assert outcome.exchange_calls == 3 * n + 3 * t + 2, (
                f"(N={n},t={t},M={m}): {outcome.exchange_calls} calls"
            )
            assert len(trace.events) == n * m + 4 * m + 4 * n + t, (
                f"(N={n},t={t},M={m}): {len(trace.events)} messages"
            )
            assert outcome.reconstruction_valid
            assert replay(trace)
            per_m.add(outcome.exchange_calls)
        assert len(per_m) == 1, f"call count varies with M at (N={n},t={t})"
    _ok("call-count law: 3N+3t+2 calls, N*M+4M+4N+t messages, replayable")


# ------------------------------------------------------ 2. session reduction


def test_shared_key_session_reduction():
    """With the shared group key, key-bearing sessions drop from t to F+1."""
    for n, t, f in [(10, 6, 4), (21, 11, 6)]:
        cfg = ScenarioConfig(
            n_nodes=n, threshold=t, max_faulty=f, providers=2,
            shared_key=True, value_max=100, seed=202,
        )
        trace = run_scenario(cfg)
        outcome = trace.outcome
        assert outcome.paid_sessions == f + 1, (
            f"(N={n},t={t},F={f}): {outcome.paid_sessions} sessions"
        )
        assert outcome.reconstruction_valid
        assert replay(trace)
    _ok("session reduction: exactly F+1 key-bearing sessions under shared key")


# ------------------------------------------------------------ 3. gas model


def test_gas_constants_exact():
    """The gas log reproduces the calibrated schedule exactly, including the
    per-source settlement law for every provider count 1..50.
    """
    schedule = GasSchedule()
    trace = run_scenario(suite_config(seed=203))
    by_function = {}
    for line in trace.gas_csv.strip().splitlines()[1:]:
        _, _, function, gas, _ = line.split(",")
        by_function.setdefault(function, set()).add(int(gas))
    assert by_function["deploy"] == {2_325_998}
    assert by_function["initialize"] == {74_248}
    assert by_function["accept"] == {74_843}
    assert by_function["revealKey"] == {84_334}
    assert 3_457 in by_function["read"]
    assert by_function["noComplain"] == {37_194 + 5_735 * 3}

    for m in range(1, 51):
        fx = build_listing(n=2, t=1, m=m, price=200)
        fx.initialize_all()
        fx.ledger.query(CONSUMER, fx.cid)
        fx.accept_sessions([1])
        fx.reveal_sessions([1])
        fx.ledger.no_complain(CONSUMER, fx.cid)
        entry = [c for c in fx.ledger.calls() if c.function == "noComplain"]
        assert entry[0].gas == 37_194 + 5_735 * m, f"M={m}"
    assert schedule.no_complain_base == 37_194
    _ok("gas constants: schedule reproduced exactly, settlement linear in M")


# ------------------------------------------------------- 4. chainlink trend


def test_chainlink_cost_trend():
    """At 100 B/user every (N, t-rule) family beats per-call Price Feed
    delivery at matched volume; at 10 B/user the N=25, t=N/2 family comes
    within 10% of it. Full sweep under 30 s.
    """
    start = time.perf_counter()
    n_values = list(range(5, 51))
    configs = []
    for rule in ("half", "two_thirds"):
        for label, cfg in family_configs(n_values, rule, providers=60,
                                         datum_size=100, seed=204):
            configs.append((label, cfg))
    # most expensive runs first so the worker pool stays balanced
    ordered = sorted(configs, key=lambda lc: -lc[1].n_nodes)
    report = build_cost_report(ordered, parallel=True)
    for row in report.rows:
        assert row.total_gas_dexo < row.gas_chainlink_pricefeed, (
            f"{row.label}: {row.total_gas_dexo} !< {row.gas_chainlink_pricefeed}"
        )
        assert row.total_gas_dexo < row.gas_chainlink_apicall

    small = []
    for m in (10, 20, 25, 28, 30, 32, 35, 40, 50):
        cfg = ScenarioConfig(
            n_nodes=25, threshold=13, max_faulty=12, providers=m,
            datum_size_bytes=10, value_max=255, seed=204,
        )
        small.append((f"m={m}", cfg))
    small_report = build_cost_report(small, parallel=True)
    best = min(
        abs(r.total_gas_dexo / r.gas_chainlink_pricefeed - 1.0)
        for r in small_report.rows
    )
    assert best <= 0.10, f"closest approach to Price Feed cost is {best:.2%}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"
    for _, cfg in [configs[0], configs[45], configs[46], configs[-1]]:
        assert replay(run_scenario(cfg))
    _ok(
        "on-chain cost trend: all families beat Price Feed at 100 B/user; "
        f"N=25 within {best:.1%} at 10 B/user; sweep {elapsed:.1f}s"
    )


# -------------------------------------------------- 5. secret-sharing oracle


def test_secret_sharing_oracle_equivalence():
    """500 randomized reconstructions match the independent Lagrange oracle;
    below-threshold secrecy holds exhaustively over the byte field.
    """
    rng = random.Random(205)
    for case in range(500):
        n = rng.randint(1, 6)
        t = rng.randint(1, n)
        datum = rng.randbytes(rng.randint(1, 2))
        shares = create_shares(t, n, datum, rng=rng)
        picked = rng.sample(shares, t)
        assert reconstruct(t, n, picked) == datum, f"case {case}"
        assert oracle_reconstruct(picked) == datum, f"case {case} (oracle)"

    for t, n in [(2, 3), (2, 5), (3, 4), (3, 5)]:
        shares = create_shares(t, n, b"\x9d", rng=rng)
        for known in combinations(shares, t - 1):
            for candidate in range(256):
                points = [(0, candidate)] + [
                    (s.x_coordinate, s.y_values[0]) for s in known
                ]
                for s in known:
                    assert oracle_interpolate_at(s.x_coordinate, points) == s.y_values[0]
    _ok("secret sharing: 500/500 oracle matches, below-threshold secrecy exhaustive")


# ------------------------------------------------------ 6. adversary suite


SUITE_EXPECTATIONS = {
    "HONEST": dict(valid=True, refunds=False),
    "WITHHOLD_KEYS": dict(valid=True, refunds=True),
    "TAMPER_SHARES": dict(valid=True, refunds=True),
    "SOURCE_NODE_COLLUSION": dict(valid=False, full_refund=True),
    "CONSUMER_NODE_COLLUSION": dict(valid=False, coalition_below=True),
    "SHARED_KEY_LEAK": dict(valid=False, coalition_exact=True),
    "SERVER_PERMUTE": dict(valid=True, refunds=False, probe_rejected=True),
    "TAMPERED_TEE_PROVIDER": dict(valid=False, no_exchange=True),
}


def test_adversarial_script_suite():
    """Every standard script ends in its mandated outcome over 20 seeds:
    delivery survives F Byzantine nodes, scams end in refunds, coalitions
    stay below the reconstruction threshold, and no honest node is ever
    refunded against. Under 60 s total.
    """
    start = time.perf_counter()
    corrupted = {1, 2, 3}
    for name, expect in SUITE_EXPECTATIONS.items():
        for seed in range(20):
            cfg = suite_config(
                adversary=name, seed=300 + seed,
                shared_key=(name == "SHARED_KEY_LEAK"),
            )
            trace = run_scenario(cfg)
            o = trace.outcome
            label = f"{name} seed={300 + seed}"
            assert_fair_exchange(trace)
            assert_conserved(trace)
            assert o.reconstruction_valid == expect["valid"], label
            if expect["valid"]:
                assert o.reconstructed == o.expected, label
                # accountability: only scripted misbehavers lose their payment
                assert set(o.refunded_sessions) <= corrupted, label
                assert bool(o.refunded_sessions) == expect["refunds"], label
            if expect.get("full_refund"):
                assert o.paid_out == 0 and o.refund_to_buyer > 0, label
                assert o.refund_to_buyer == o.paid_sessions * 100, label
            if expect.get("coalition_below"):
                assert max(o.coalition_max.values()) <= cfg.threshold - 1, label
            if expect.get("coalition_exact"):
                assert set(o.coalition_max.values()) == {cfg.threshold - 1}, label
            if expect.get("probe_rejected"):
                assert any("accepted=False" in d for d in o.disputes), label
                assert not o.refunded_sessions, label
            if expect.get("no_exchange"):
                assert o.paid_sessions == 0 and o.paid_out == 0, label
            assert replay(trace), label
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    _ok(f"adversarial suite: 8 scripts x 20 seeds, zero violations, {elapsed:.1f}s")


# ------------------------------------------- 7 & 8. atomicity + determinism


def test_atomicity_and_replay_over_randomized_runs():
    """200 randomized (config, script, seed) runs: providers are paid iff the
    buyer reconstructed valid data, currency is conserved, and every trace
    replays byte-identically.
    """
    for case, (cfg, script) in enumerate(random_cases(200)):
        trace = run_scenario(cfg, script)
        assert_fair_exchange(trace)
        assert_conserved(trace)
        assert replay(trace), f"case {case}: trace not reproducible"
    _ok("atomicity + conservation + replay: 200/200 randomized runs clean")
