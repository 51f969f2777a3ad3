"""Shared helpers for whole-protocol scenario tests."""

from __future__ import annotations

import dataclasses
import hashlib
import random
from pathlib import Path

from dexo.config import ScenarioConfig
from dexo.harness import summarize
from dexo.netsim import (
    Action,
    AdversaryScript,
    Rule,
    ScriptError,
    Trace,
    standard_scripts,
)

NODE_ACTIONS = [a for a in Action if a.role == "node"]


def suite_config(**overrides) -> ScenarioConfig:
    """The adversarial-suite configuration: a tight description range so
    garbage reconstructions are detectable, and honest data well inside it.
    """
    params = dict(
        n_nodes=7,
        threshold=4,
        max_faulty=3,
        providers=3,
        datum_size_bytes=8,
        value_min=0,
        value_max=100,
        timeout_blocks=10,
        seed=0,
    )
    params.update(overrides)
    return ScenarioConfig(**params)


def random_script(rng: random.Random, cfg: ScenarioConfig) -> AdversaryScript:
    kind = rng.choice(
        ["honest", "node_faults", "source_collusion", "consumer_collusion",
         "permute"]
    )
    if kind == "honest":
        return AdversaryScript(name="HONEST")
    if kind == "source_collusion":
        return standard_scripts(cfg)["SOURCE_NODE_COLLUSION"]
    if kind == "consumer_collusion":
        return standard_scripts(cfg)["CONSUMER_NODE_COLLUSION"]
    if kind == "permute":
        return standard_scripts(cfg)["SERVER_PERMUTE"]
    count = rng.randint(1, cfg.max_faulty)
    nodes = rng.sample(range(1, cfg.n_nodes + 1), count)
    actions = [Action.SUBSTITUTE_SHARE, Action.CORRUPT_BYTES, Action.DROP,
               Action.EQUIVOCATE, Action.WITHHOLD_KEY, Action.WRONG_KEY]
    return AdversaryScript(
        name=f"RANDOM_{'_'.join(str(j) for j in sorted(nodes))}",
        corrupted_nodes=frozenset(nodes),
        rules=tuple(Rule(rng.choice(actions), j) for j in nodes),
    )


def random_cases(count: int, seed: int = 208, value_max: int = 30):
    """``count`` randomized (config, script) pairs on small configs: N=5..9,
    t <= N-2 (a description dispute needs two differing (t+1)-share
    combinations, so at least t+2 delivered shares), one node action per
    corrupted node or a standard collusion script. The description's range
    is 0..``value_max``; the draws do not depend on it."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(5, 9)
        f = rng.randint(1, (n - 1) // 2)
        t = rng.randint(f + 1, min(n - f, n - 2))
        cfg = ScenarioConfig(
            n_nodes=n, threshold=t, max_faulty=f,
            providers=rng.randint(1, 3),
            datum_size_bytes=rng.randint(8, 12),
            value_min=0, value_max=value_max,
            timeout_blocks=rng.randint(3, 12),
            seed=rng.randrange(2**32),
        )
        yield cfg, random_script(rng, cfg)


def full_range_cases(count: int, seed: int = 208):
    """The first ``count`` schedules of :func:`random_cases` under a
    full-range description (0..255), as (case number, config, script). No
    garbage reconstruction breaks such a description. A schedule whose
    script cannot run there (an oversell needs headroom above value_max) is
    skipped."""
    for case, (cfg, script) in enumerate(random_cases(count, seed, value_max=255)):
        try:
            script.validate(cfg)
        except ScriptError:
            continue
        yield case, cfg, script


def generated_schedule(rng: random.Random) -> tuple[ScenarioConfig, AdversaryScript]:
    """A small config and a script over it: up to F corrupted nodes with one
    or two node actions each, an optional corrupted server that oversells
    or permutes, an optional corrupted consumer that may refuse to pay, and,
    rarely, tampered providers (no listing opens then). Not every draw is a
    script ``validate`` admits."""
    n = rng.randint(3, 9)
    f = rng.randint(0, (n - 1) // 2)
    m = rng.randint(1, 3)
    config = ScenarioConfig(
        n_nodes=n, threshold=rng.randint(f + 1, n - f), max_faulty=f, providers=m,
        value_max=rng.choice([30, 100, 255]), shared_key=rng.random() < 0.5,
        merged_query=rng.random() < 0.5, timeout_blocks=rng.randint(3, 12),
        seed=rng.randrange(2**32),
    )
    nodes = rng.sample(range(1, n + 1), rng.randint(0, f))
    rules = [Rule(action, rng.choice([0, j])) for j in sorted(nodes)
             for action in rng.sample(NODE_ACTIONS, rng.randint(1, 2))]
    roles = set()
    if rng.random() < 0.5:
        roles.add("server")
        rules.append(Rule(rng.choice([Action.OVERSELL, Action.PERMUTE]), rng.randint(0, m)))
    if rng.random() < 0.5:
        roles.add("consumer")
        if rng.random() < 0.5:
            rules.append(Rule(Action.REFUSE_PAYMENT))
    tampered = set()
    if rng.random() < 0.1:
        tampered = set(rng.sample(range(1, m + 1), rng.randint(1, m)))
        targets = [0] if rng.random() < 0.5 else sorted(tampered)
        rules += [Rule(Action.TAMPER_TEE, i) for i in targets]
    script = AdversaryScript(
        name="GENERATED", corrupted_nodes=frozenset(nodes), corrupted_roles=frozenset(roles),
        tampered_providers=frozenset(tampered), rules=tuple(rules),
    )
    return config, script


RANDOM_SCHEDULES = 200
GENERATED_SEEDS = 2000
STANDARD_SEEDS = (0, 1, 300, 301, 302, 303, 304)


def suite_schedules():
    """(label, config, script) for every schedule family the suite defines:
    the first 200 :func:`random_cases`, those redrawn by
    :func:`full_range_cases`, the :func:`generated_schedule` draws of
    seeds 0-1999 that ``AdversaryScript.validate`` admits, each standard
    script at :func:`suite_config` and seeds 0, 1 and 300-304, and three
    config variants: the honest flow with unmerged queries (seed 2) and
    with a shared key at N=10 (seed 6), and ``TAMPER_SHARES`` at N=13
    (seeds 11 and 12)."""
    for case, (config, script) in enumerate(random_cases(RANDOM_SCHEDULES)):
        yield f"random_schedules 208 case={case},{script.name}", config, script
    for case, config, script in full_range_cases(RANDOM_SCHEDULES):
        yield f"full_range_schedules 208 case={case},{script.name}", config, script
    for seed in range(GENERATED_SEEDS):
        config, script = generated_schedule(random.Random(seed))
        try:
            script.validate(config)
        except ScriptError:
            continue
        yield f"generated_schedules {seed} {script.name}", config, script
    for name, script in standard_scripts(suite_config()).items():
        for seed in STANDARD_SEEDS:
            config = suite_config(seed=seed, shared_key=script.requires_shared_key)
            yield f"standard_scripts {seed} {name}", config, script
    honest = AdversaryScript()
    yield "config_variants 2 HONEST,unmerged", suite_config(merged_query=False, seed=2), honest
    yield ("config_variants 6 HONEST,shared_key,n=10",
           suite_config(n_nodes=10, threshold=6, max_faulty=4, shared_key=True, seed=6), honest)
    for seed in (11, 12):
        config = suite_config(n_nodes=13, threshold=7, max_faulty=6, seed=seed)
        script = standard_scripts(config)["TAMPER_SHARES"]
        yield f"config_variants {seed} TAMPER_SHARES,n=13", config, script


DIGEST_PARTS = ("outputs", "hashes", "log")


def format_digests(digests: dict[str, tuple[str, ...]]) -> str:
    """One line ``<label> <outputs> <hashes> <log>`` per scenario."""
    return "".join(f"{label} {' '.join(parts)}\n" for label, parts in digests.items())


def read_digests(path: str | Path) -> dict[str, tuple[str, ...]]:
    """The digests of each scenario in a file of :func:`format_digests`
    lines; a label may hold spaces."""
    text = Path(path).read_text(encoding="utf-8")
    rows = [line.rsplit(" ", len(DIGEST_PARTS)) for line in text.splitlines() if line]
    return {label: tuple(parts) for label, *parts in rows}


def changed_digests(old: dict, new: dict) -> list[tuple[str, str]]:
    """(label, part) for each label, in sorted order, and each of its
    :data:`DIGEST_PARTS` whose digest differs between two recordings; a
    label only one of them holds differs in every part."""
    missing = (None,) * len(DIGEST_PARTS)
    return [
        (label, part)
        for label in sorted(old.keys() | new.keys())
        for i, part in enumerate(DIGEST_PARTS)
        if old.get(label, missing)[i] != new.get(label, missing)[i]
    ]


def _record_line(r) -> str:
    fields = (repr(getattr(r, f.name)) for f in dataclasses.fields(r))
    return " ".join([type(r).__name__, *fields])


def output_digests(trace: Trace) -> tuple[str, str, str]:
    """The sha256 of each of a run's three :data:`DIGEST_PARTS`. ``outputs``
    covers the serialized trace without its version line and without the
    payload hash column of its ``[events]`` lines, followed by the run
    summary; ``hashes`` covers that column alone, so a change to how
    payloads are hashed moves only it. ``log`` covers the whole run log
    (``Trace.log``) in order: the record type and every field of each
    message, note, dispute, contract call and revert."""
    _, body = trace.serialize().split("\n", 1)  # the version line
    head, rest = body.split("[events]\n", 1)
    events, tail = rest.split("[gas]\n", 1)
    lines = [line.rsplit(" ", 1) for line in events.splitlines()]
    outputs = "".join((head, "[events]\n", *(f"{e}\n" for e, _ in lines), "[gas]\n", tail,
                       summarize(trace)))
    hashes = "".join(f"{h}\n" for _, h in lines)
    log = "".join(f"{_record_line(r)}\n" for r in trace.log)
    return tuple(hashlib.sha256(part.encode()).hexdigest() for part in (outputs, hashes, log))


def assert_fair_exchange(trace: Trace) -> None:
    """Terminal-state fairness: providers are paid iff the buyer ended up with
    data meeting the advertised description, escrow never lingers, and
    refunds cover every failed portion. (Bit-exact recovery of the device
    output is asserted separately where a script's outcome mandates it.)
    """
    from dexo.ledger import DataDescription, conforms_to_description

    o = trace.outcome
    cfg = trace.config
    assert o.escrow_left == 0, f"escrow left behind: {o.escrow_left}"
    if not o.reconstruction_valid:
        assert o.paid_out == 0, (
            f"providers received {o.paid_out} although the buyer has no valid data "
            f"({cfg.adversary}, seed {cfg.seed})"
        )
    else:
        assert o.paid_out > 0, "buyer obtained data yet nobody was paid"
        desc = DataDescription(
            datum_size=cfg.datum_size_bytes, value_min=cfg.value_min,
            value_max=cfg.value_max, providers=cfg.providers,
            n_nodes=cfg.n_nodes, threshold=cfg.threshold,
            timeout_blocks=cfg.timeout_blocks,
        )
        for provider in range(1, cfg.providers + 1):
            datum = o.reconstructed.get(provider)
            assert datum is not None and conforms_to_description(datum, desc), (
                f"provider {provider}: settled without description-conformant data"
            )


def assert_conserved(trace: Trace) -> None:
    # funding equals the consumer's starting balance, and escrow is empty at
    # the end, so everything in circulation must sum back to the mint
    o = trace.outcome
    total = o.paid_out + o.refund_to_buyer + (
        trace.config.resolved_price()
        - o.paid_sessions * (trace.config.resolved_price() // trace.config.n_nodes)
    )
    assert total == trace.config.resolved_price(), (
        f"currency leak: {total} != {trace.config.resolved_price()}"
    )


def fairness_problems(trace: Trace, script: AdversaryScript) -> list[str]:
    """What in a run's end state breaks fair exchange: currency not
    conserved, escrow left behind, a node outside ``script.corrupted_nodes``
    refunded although no case-1 ruling (which finds the source's data
    invalid and returns all escrow) was accepted, or settled data that is
    not the devices'. Empty for a fair run."""
    o = trace.outcome
    problems = []
    try:
        assert_conserved(trace)
    except AssertionError as leak:
        problems.append(str(leak))
    if o.escrow_left:
        problems.append(f"escrow left behind: {o.escrow_left}")
    if not any(d.startswith("case1") and "accepted=True" in d for d in o.disputes):
        honest_refunded = set(o.refunded_sessions) - script.corrupted_nodes
        if honest_refunded:
            problems.append(f"honest nodes {sorted(honest_refunded)} refunded")
    if o.reconstruction_valid and o.reconstructed != o.expected:
        problems.append("settled data is not the devices' data")
    return problems


def count_calls(monkeypatch, module, *names) -> dict[str, list[tuple]]:
    """Record the arguments of every call to ``module``'s bindings of
    ``names``, by name; the calls still go through."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name].append(args)
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls
