"""Cost reports, sweeps, CLI verbs, and golden-file interface stability."""

import ast
import csv
import hashlib
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dexo import cli, harness
from dexo.config import (
    MAX_DATUM_SIZE,
    MAX_NODES,
    MAX_PROVIDERS,
    MAX_SHARE_BYTES,
    MAX_SHARE_REPORTS,
    MAX_TIMEOUT_BLOCKS,
    ConfigError,
    ScenarioConfig,
    format_config,
)
from dexo.harness import (
    CHAINLINK_API_CALL_GAS,
    CHAINLINK_PRICE_FEED_GAS,
    build_cost_report,
    crossover_lines,
    family_configs,
    sweep,
    valid_fault_bound,
)
from dexo.crypto import ShamirError
from dexo.ledger import GAS, InvariantViolation, Ledger, LedgerError
from dexo.netsim import run_scenario

GOLDEN_DIR = Path(__file__).parent


def _base_config(**overrides):
    params = dict(n_nodes=5, threshold=3, max_faulty=2, providers=2, seed=1)
    params.update(overrides)
    return ScenarioConfig(**params)


# ---------------------------------------------------------------- reports


def _report_digest(report) -> str:
    text = report.to_csv() + report.to_csv(usd=True) + "\n".join(crossover_lines(report))
    return hashlib.sha256(text.encode()).hexdigest()


def test_cost_report_bytes_are_pinned():
    """Plain and USD CSVs plus crossover lines of a providers sweep (it
    crosses at M=16) and of a two-rule family (it crosses twice), hashed
    against digests recorded before the report code was last changed."""
    swept = sweep(_base_config(), "providers", [1, 8, 16, 24])
    assert crossover_lines(swept) == [
        "providers=16: cheaper than the per-call price feed from here on"
        " (3388937 < 3469504)"]
    assert _report_digest(swept) == (
        "2205cbadba2fed4cd6540b364706dd633fbc0daae72811a5417504eb57ae9d1d")
    family = build_cost_report(family_configs([5, 8], "two_thirds", 18, 10)
                               + family_configs([5, 8], "half", 18, 10))
    assert len(crossover_lines(family)) == 2
    assert _report_digest(family) == (
        "eefdf3cdd1c58bbd177523b2bee6197828617919891ef4a8124599fa4061bab7")


def test_chainlink_columns_use_percall_constants():
    report = sweep(_base_config(), "providers", [1, 7, 30])
    for row in report.rows:
        calls = math.ceil(row.data_bytes / row.datum_size)
        assert calls == row.providers
        assert row.gas_chainlink_pricefeed == calls * CHAINLINK_PRICE_FEED_GAS
        assert row.gas_chainlink_apicall == calls * CHAINLINK_API_CALL_GAS


def test_settlement_gas_is_linear_in_providers():
    report = sweep(_base_config(), "providers", list(range(1, 11)))
    gas = [r.total_gas_dexo for r in report.rows]
    diffs = {b - a for a, b in zip(gas, gas[1:])}
    assert diffs == {5_735}


def test_sweep_is_deterministic():
    a = sweep(_base_config(), "providers", [1, 4, 9]).to_csv()
    b = sweep(_base_config(), "providers", [1, 4, 9]).to_csv()
    assert a == b


def test_parallel_sweep_matches_serial():
    serial = sweep(_base_config(), "seed", [1, 2, 3, 4]).to_csv()
    parallel = sweep(_base_config(), "seed", [1, 2, 3, 4], parallel=True).to_csv()
    assert serial == parallel


def test_report_totals_equal_gas_log_sum():
    cfg = _base_config(seed=5)
    trace = run_scenario(cfg)
    report = build_cost_report([("x", cfg)])
    logged = sum(
        int(line.split(",")[3])
        for line in trace.gas_csv.strip().splitlines()[1:]
    )
    assert report.rows[0].total_gas_dexo == logged == trace.outcome.gas_total


def test_two_thirds_family_costs_at_least_half_family():
    half = build_cost_report(family_configs(list(range(5, 13)), "half", 2, 10))
    two_thirds = build_cost_report(
        family_configs(list(range(5, 13)), "two_thirds", 2, 10)
    )
    for a, b in zip(half.rows, two_thirds.rows):
        assert b.total_gas_dexo >= a.total_gas_dexo
    with pytest.raises(ConfigError, match="'half', 'two_thirds'"):
        family_configs([5], "two_third", 2, 10)


def test_valid_fault_bound():
    for n in range(3, 51):
        for t in (math.ceil(n / 2), math.ceil(2 * n / 3)):
            f = valid_fault_bound(n, t)
            assert f < n / 2 and f < t <= n - f


def _gas_law_configs():
    for n in range(3, 16):
        for t in sorted({math.ceil(n / 2), math.ceil(2 * n / 3)}):
            for m in (1, 3, 7):
                for merged in (True, False):
                    yield ScenarioConfig(n, t, valid_fault_bound(n, t), m,
                                         merged_query=merged, seed=n * t + m)
    for n, t, f in ((10, 6, 4), (7, 4, 3), (13, 7, 6)):
        yield ScenarioConfig(n, t, f, 3, shared_key=True, seed=n)


def test_honest_gas_follows_the_closed_form_law():
    """An honest run's gas is deploy + N·initialize + Q·query +
    s·(accept + revealKey + checkKey) + noComplain over M sources, where Q is
    1 for a merged query and N for an unmerged one, and s is the sessions a
    buyer pays for: t, or F+1 under the shared key."""
    checked = 0
    for config in _gas_law_configs():
        n, s = config.n_nodes, config.sessions_required()
        queries = 1 if config.merged_query else n
        expected = (GAS.deployment + n * GAS.initialize + queries * GAS.query
                    + s * (GAS.accept + GAS.reveal_key + GAS.check_key)
                    + GAS.no_complain_base + GAS.no_complain_per_source * config.providers)
        outcome = run_scenario(config).outcome
        assert outcome.finished_reason == "settled", config
        assert outcome.gas_total == expected, config
        checked += 1
    assert checked == 153


# ---------------------------------------------------------------- CLI


def _write_config(tmp_path, **overrides) -> str:
    path = tmp_path / "scenario.cfg"
    path.write_text(format_config(_base_config(**overrides)))
    return str(path)


def test_cli_run_writes_outputs(tmp_path):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out)]) == 0
    assert (out / "scenario.trace").exists()
    assert (out / "scenario.gas.csv").exists()
    assert (out / "scenario.summary.txt").exists()
    summary = (out / "scenario.summary.txt").read_text()
    assert "exchange calls: 26" in summary


def test_cli_rejects_bad_config(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("schema_version = 1\nn_nodes = 4\nthreshold = 3\n"
                    "max_faulty = 2\nproviders = 1\n")
    assert cli.main(["run", str(path)]) == 2


@pytest.mark.parametrize("field,limit,overrides", [
    ("n_nodes", MAX_NODES, dict(threshold=128, max_faulty=127)),
    # four nodes: at five, 65,535 providers make more share reports than the bound
    ("providers", MAX_PROVIDERS, dict(n_nodes=4, threshold=3, max_faulty=1)),
    ("datum_size_bytes", MAX_DATUM_SIZE, {}),
])
def test_cli_rejects_config_beyond_wire_limits(tmp_path, capsys, field, limit, overrides):
    _base_config(**overrides, **{field: limit}).validate()
    cfg_path = _write_config(tmp_path, **overrides, **{field: limit + 1})
    assert cli.main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().out


def test_cli_rejects_a_config_beyond_the_share_byte_bound(tmp_path, capsys):
    """Configs are only validated here: a run at the bound takes tens of
    seconds."""
    assert MAX_SHARE_BYTES >= 7 * 50 * 960 * 100  # the N=50, M=960 scale point, 7 times over
    shape = dict(n_nodes=128, threshold=65, max_faulty=63, datum_size_bytes=32_768)
    assert 128 * 16 * 32_768 == MAX_SHARE_BYTES
    _base_config(**shape, providers=16).validate()
    cfg_path = _write_config(tmp_path, **shape, providers=17)
    printed = _assert_config_error(
        capsys, cli.main(["run", cfg_path, "--out", str(tmp_path / "out")]))
    assert "n_nodes * providers * datum_size_bytes = 128 * 17 * 32768" in printed
    assert not (tmp_path / "out").exists()


def test_cli_rejects_a_config_beyond_the_share_report_bound(tmp_path, capsys, monkeypatch):
    """Each share report costs a salt, a signature, a key and a Merkle path
    whatever the datum size, so one-byte datums do not lift the bound. The
    rejected config would need about 20 GB; it must fail before any run."""
    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(harness, "run_scenario", no_run)
    shape = dict(n_nodes=255, threshold=128, max_faulty=127, datum_size_bytes=1,
                 value_max=255)
    assert 255 * 1028 <= MAX_SHARE_REPORTS < 255 * 1029
    _base_config(**shape, providers=1028).validate()
    cfg_path = _write_config(tmp_path, **shape, providers=65_535)
    printed = _assert_config_error(
        capsys, cli.main(["run", cfg_path, "--out", str(tmp_path / "out")]))
    assert "n_nodes * providers = 255 * 65535" in printed
    assert not (tmp_path / "out").exists()


def test_cli_rejects_unknown_adversary(tmp_path):
    cfg_path = _write_config(tmp_path, adversary="HONEST")
    text = Path(cfg_path).read_text().replace(
        "adversary = HONEST", "adversary = MYSTERY"
    )
    Path(cfg_path).write_text(text)
    assert cli.main(["run", cfg_path]) == 2


def test_cli_rejects_oversell_without_headroom(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, adversary="SOURCE_NODE_COLLUSION", value_max=255)
    assert cli.main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert "headroom above value_max" in capsys.readouterr().out


@pytest.mark.parametrize("n,t,f", [(6, 4, 1), (8, 5, 3), (9, 5, 2), (10, 6, 4)])
def test_cli_tamper_shares_with_a_shared_key_group_settles(tmp_path, n, t, f):
    """With a priority group of t-F >= 2 members the leader's reveal opens
    every member; buying a member afterwards left its session ACCEPTED and
    settlement failed with PendingDisputeError."""
    cfg_path = _write_config(tmp_path, n_nodes=n, threshold=t, max_faulty=f,
                             shared_key=True, adversary="TAMPER_SHARES")
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out)]) == 0
    summary = (out / "scenario.summary.txt").read_text()
    assert "outcome: settled (reconstruction_valid=True)" in summary
    refunded = re.search(r"refunded sessions: \[(.*)\]", summary).group(1)
    assert {int(j) for j in refunded.split(",") if j} <= set(range(1, f + 1))
    assert cli.main(["replay", str(out / "scenario.trace")]) == 0


def test_cli_replay_names_the_first_divergent_line(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out)]) == 0
    trace_path = out / "scenario.trace"
    lines = trace_path.read_text().splitlines()
    at = lines.index("[gas]") + 2  # the deploy call, after the CSV header
    original = lines[at]
    fields = original.split(",")
    fields[3] = str(int(fields[3]) + 1)
    lines[at] = ",".join(fields)
    trace_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["replay", str(trace_path)]) == 3
    printed = capsys.readouterr().out.splitlines()
    assert printed == [
        f"replay: MISMATCH in [gas] at line {at + 1}",
        f"  trace:  {lines[at]}",
        f"  replay: {original}",
    ]


@pytest.mark.parametrize("usd", [False, True], ids=["gas", "usd"])
def test_cli_sweep_prints_the_report_it_writes(tmp_path, capsys, usd):
    cfg_path = _write_config(tmp_path)
    out_csv = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", cfg_path, "--axis", "providers", "--values", "1,16",
                   "--out", str(out_csv)] + ["--usd"] * usd)
    assert rc == 0
    text = out_csv.read_text()
    header = text.splitlines()[0].split(",")
    assert header[:3] == ["label", "n_nodes", "threshold"]
    assert header[-2:] == (["usd_dexo", "usd_pricefeed"] if usd else
                           ["gas_chainlink_pricefeed", "gas_chainlink_apicall"])
    crossover = "providers=16: cheaper than the per-call price feed from here on"
    assert capsys.readouterr().out.startswith(text + crossover)


def test_cli_replay_roundtrip(tmp_path):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out)]) == 0
    assert cli.main(["replay", str(out / "scenario.trace")]) == 0


def test_cli_value_ranges():
    checked = []
    assert cli._parse_values("1,5,20", checked.append) == [1, 5, 20]
    assert cli._parse_values("3..6", checked.append) == [3, 4, 5, 6]
    assert cli._parse_values("1,4..6,9,8..7", checked.append) == [1, 4, 5, 6, 9]
    assert checked == [3, 6, 4, 6]  # the ends of each nonempty range


def _cli_loads(module: str) -> str:
    """Whether importing the CLI in a fresh interpreter loads ``module``,
    as that interpreter prints it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"import sys, dexo.cli, dexo.harness, dexo.netsim; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout


def test_the_cli_imports_no_numpy():
    assert _cli_loads("numpy") == "False\n"


def test_only_a_parallel_sweep_imports_multiprocessing():
    assert _cli_loads("multiprocessing") == "False\n"


def test_adversary_suite_lists_a_script_the_config_rejects(tmp_path):
    """At F=0 no node can be corrupted, so the node scripts are config
    errors; the suite reports each as a row and runs the rest."""
    suite = Path(__file__).resolve().parent.parent / "scripts" / "adversary_suite.py"
    out = tmp_path / "suite.csv"
    subprocess.run([sys.executable, str(suite), "--faulty", "0", "--out", str(out)],
                   capture_output=True, text=True, timeout=120, check=True)
    with out.open() as fh:
        outcomes = {row["script"]: row["outcome"] for row in csv.DictReader(fh)}
    assert outcomes["WITHHOLD_KEYS"] == (
        "rejected: WITHHOLD_KEYS: withhold_key at stage3_reveal (target 0) can never fire")
    assert outcomes["HONEST"] == "settled"
    assert len(outcomes) == 8


def _script_module(name: str):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script,argv,message", [
    ("adversary_suite", ["--faulty", "4"], "max_faulty 4 must be < n/2 = 3.5"),
    ("cost_comparison", ["--providers", "0"], "n_nodes and providers must be >= 1"),
    ("cost_comparison", ["--n-min", "0"], "n_nodes and providers must be >= 1"),
    ("cost_comparison", ["--n-max", "300"],
     "n_nodes 256 exceeds 255 (one GF(256) x-coordinate each)"),
    ("cost_comparison", ["--n-min", "10", "--n-max", "5"], "empty node range 10..5"),
], ids=["suite-faulty-4", "cost-providers-0", "cost-n-min-0", "cost-n-max-300",
        "cost-empty-range"])
def test_scripts_exit_2_on_a_bad_config(tmp_path, capsys, script, argv, message):
    """Like the CLI, each script prints one ``config error:`` line, exits 2,
    and writes nothing."""
    out = tmp_path / "out"
    target = ["--out", str(out / "suite.csv")] if script == "adversary_suite" else [
        "--out-dir", str(out)]
    assert _script_module(script).main(argv + target) == 2
    assert capsys.readouterr().out == f"config error: {message}\n"
    assert not out.exists()


def test_no_function_in_dexo_is_cached_across_runs():
    """A ``functools`` cache on a function would carry state from one run,
    or one benchmark pass, into the next; per-run memos live on the run's
    objects instead."""
    cached = []
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "dexo").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(
                    target, "id", None)
                if name in ("lru_cache", "cache"):
                    cached.append(f"{path.name}:{node.lineno} {node.name}")
    assert cached == []


# ---------------------------------------------------------------- CLI exit codes
#
# Every input error exits 2 with one "config error:" line; every broken run
# invariant exits 3.


def _assert_config_error(capsys, code: int) -> str:
    printed = capsys.readouterr().out
    assert code == 2
    assert printed.startswith("config error: ") and printed.count("\n") == 1, printed
    return printed


@pytest.mark.parametrize("edits,key", [
    pytest.param({"n_nodes": "0"}, "n_nodes", id="no-nodes"),
    pytest.param({"providers": "0"}, "providers", id="no-providers"),
    pytest.param({"preprocessing": "median"}, "preprocessing", id="unknown-preprocessing"),
    pytest.param({"window": "0"}, "window", id="window-below-1"),
    pytest.param({"window": "65536"}, "window", id="window-above-cap"),
    pytest.param({"timeout_blocks": "0"}, "timeout_blocks", id="timeout-below-1"),
    # the node-fee check used to reject it, naming the wrong key
    pytest.param({"price": "-500"}, "price must be >= 0", id="negative-price"),
    pytest.param({"node_fee": "101"}, "node_fee", id="node-fee-over-session-price"),
    # the group is nodes 1..t-F, empty only if t <= F, which the threshold
    # rule F < t already rejects
    pytest.param({"shared_key": "true", "threshold": "2"}, "threshold",
                 id="shared-key-with-an-empty-group"),
    pytest.param({"merged_query": "yes"}, "merged_query", id="merged-query-not-boolean"),
    pytest.param({"n_nodes": "five"}, "n_nodes", id="n-nodes-not-integer"),
])
def test_cli_names_the_key_of_a_config_error(tmp_path, capsys, edits, key):
    text = format_config(_base_config())
    for name, value in edits.items():
        text = re.sub(rf"^{name} = .*$", f"{name} = {value}", text, flags=re.M)
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert key in _assert_config_error(capsys, code)


@pytest.mark.parametrize("verb", ["run", "replay", "sweep"])
def test_cli_rejects_a_timeout_past_its_cap(tmp_path, capsys, verb):
    """Stage 3 may idle 3 * timeout_blocks + 30 blocks, so an uncapped
    timeout lets an accepted config run for days."""
    _base_config(timeout_blocks=MAX_TIMEOUT_BLOCKS).validate()
    over = MAX_TIMEOUT_BLOCKS + 1
    out = tmp_path / "out"
    if verb == "run":
        argv = ["run", _write_config(tmp_path, timeout_blocks=over), "--out", str(out)]
    elif verb == "sweep":
        argv = ["sweep", _write_config(tmp_path), "--axis", "timeout_blocks",
                "--values", str(over), "--out", str(tmp_path / "sweep.csv")]
    else:
        assert cli.main(["run", _write_config(tmp_path), "--out", str(out)]) == 0
        capsys.readouterr()
        trace_path = out / "scenario.trace"
        text, edits = re.subn(r"^timeout_blocks = 10$", f"timeout_blocks = {over}",
                              trace_path.read_text(), flags=re.M)
        assert edits == 1
        trace_path.write_text(text)
        argv = ["replay", str(trace_path)]
    assert "timeout_blocks" in _assert_config_error(capsys, cli.main(argv))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda line: line + " +", id="not-a-literal"),
    pytest.param(lambda line: line.replace("'rules'", "'rulez'"), id="lacks-a-key"),
    pytest.param(
        lambda line: line.replace("'corrupted_nodes': []", "'corrupted_nodes': [1, 2, 3]"),
        id="fails-validation",
    ),
    pytest.param(
        lambda line: line.replace("'corrupted_roles': []", "'corrupted_roles': ['server']")
        .replace("'rules': []", "'rules': [['stage1_forward', 'permute', 3]]"),
        id="permutes-a-provider-past-the-last",
    ),
    pytest.param(
        lambda line: line.replace("'corrupted_roles': []", "'corrupted_roles': ['server']")
        .replace("'rules': []", "'rules': [['stage1_forward', 'permute', 1], "
                 "['stage1_forward', 'permute', 2]]"),
        id="permutes-twice",
    ),
    pytest.param(
        lambda line: line.replace("'tampered_providers': []", "'tampered_providers': [3]")
        .replace("'rules': []", "'rules': [['stage0_install', 'tamper_tee', 3]]"),
        id="tampers-a-provider-past-the-last",
    ),
    pytest.param(
        lambda line: line.replace("'tampered_providers': []", "'tampered_providers': [1]"),
        id="tampers-a-provider-without-a-rule",
    ),
    # past the parser's recursion limit, then past its stack
    pytest.param(lambda line: "-" * 5_000 + "1", id="nests-too-deeply"),
    pytest.param(lambda line: "-" * 200_000 + "1", id="nests-too-deeply-for-the-parser"),
])
def test_cli_replay_rejects_a_bad_script(tmp_path, capsys, edit):
    out = tmp_path / "out"
    assert cli.main(["run", _write_config(tmp_path), "--out", str(out)]) == 0
    capsys.readouterr()
    trace_path = out / "scenario.trace"
    lines = trace_path.read_text().splitlines()
    at = lines.index("[script]") + 1
    lines[at] = edit(lines[at])
    trace_path.write_text("\n".join(lines) + "\n")
    _assert_config_error(capsys, cli.main(["replay", str(trace_path)]))


def test_cli_replay_rejects_a_v1_trace(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", _write_config(tmp_path), "--out", str(out)]) == 0
    capsys.readouterr()
    trace_path = out / "scenario.trace"
    version, body = trace_path.read_text().split("\n", 1)
    assert version == "# trace v2"
    trace_path.write_text("# trace v1\n" + body)
    printed = _assert_config_error(capsys, cli.main(["replay", str(trace_path)]))
    assert "'# trace v1'" in printed


def test_cli_rejects_a_permutation_with_fewer_than_three_nodes(tmp_path, capsys):
    path = _write_config(tmp_path, n_nodes=2, threshold=1, max_faulty=0,
                         adversary="SERVER_PERMUTE")
    code = cli.main(["run", path, "--out", str(tmp_path / "out")])
    assert "permute" in _assert_config_error(capsys, code)


@pytest.mark.parametrize("verb", ["run", "sweep", "example-config"])
def test_cli_rejects_an_output_path_under_a_regular_file(tmp_path, capsys, verb):
    cfg_path = _write_config(tmp_path)
    blocked = str(tmp_path / "scenario.cfg" / "out")  # under a regular file
    argv = {
        "run": ["run", cfg_path, "--out", blocked],
        "sweep": ["sweep", cfg_path, "--axis", "seed", "--values", "1",
                  "--out", blocked + "/sweep.csv"],
        "example-config": ["example-config", blocked],
    }[verb]
    _assert_config_error(capsys, cli.main(argv))


def test_cli_sweep_rejects_values_that_are_not_integers(tmp_path, capsys):
    argv = ["sweep", _write_config(tmp_path), "--axis", "seed", "--values", "1,x",
            "--out", str(tmp_path / "sweep.csv")]
    _assert_config_error(capsys, cli.main(argv))


@pytest.mark.parametrize("values", ["5..1", ","], ids=["empty-range", "empty-list"])
def test_cli_rejects_an_empty_sweep(tmp_path, capsys, values):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", _write_config(tmp_path), "--axis", "seed", "--values", values,
            "--out", str(out)]
    printed = _assert_config_error(capsys, cli.main(argv))
    assert printed == "config error: no values to sweep seed over\n"
    assert not out.exists()


@pytest.mark.parametrize("values", ["1..1000000000000", "1..100000000000000000000"],
                         ids=["past-memory", "past-ssize-t"])
def test_cli_rejects_an_oversized_sweep_range(tmp_path, capsys, values):
    """Both ends of a range are checked before it is expanded."""
    out = tmp_path / "sweep.csv"
    argv = ["sweep", _write_config(tmp_path), "--axis", "n_nodes", "--values", values,
            "--out", str(out)]
    _assert_config_error(capsys, cli.main(argv))
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("n_nodes", "7"), ("schema_version", "1")])
def test_cli_rejects_a_repeated_config_key(tmp_path, capsys, key, value):
    """A later line must not silently override an earlier one."""
    lines = format_config(_base_config()).splitlines()
    first = 1 + next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))
    path = tmp_path / "scenario.cfg"
    path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    printed = _assert_config_error(capsys, code)
    assert printed == f"config error: line {len(lines) + 1}: {key} repeats line {first}\n"


def test_cli_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"schema_version = 1\n\xff\xfe\n")
    _assert_config_error(capsys, cli.main(["run", str(path)]))


@pytest.mark.parametrize("error", [InvariantViolation, LedgerError, ShamirError])
def test_cli_exits_3_when_a_run_breaks_an_invariant(tmp_path, capsys, monkeypatch, error):
    def broken(config, script=None):
        raise error("broken on purpose")

    monkeypatch.setattr(harness, "run_scenario", broken)
    code = cli.main(["run", _write_config(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().out == "invariant violation: broken on purpose\n"


def test_unconserved_currency_is_an_invariant_violation():
    ledger = Ledger()
    ledger.fund("consumer", 100)
    ledger.balances["consumer"] += 1
    with pytest.raises(InvariantViolation, match="not conserved"):
        ledger.assert_conserved()


# ---------------------------------------------------------------- goldens


def test_gas_log_matches_golden():
    cfg = ScenarioConfig(n_nodes=3, threshold=2, max_faulty=1, providers=2,
                         datum_size_bytes=4, seed=77)
    trace = run_scenario(cfg)
    assert trace.gas_csv == (GOLDEN_DIR / "golden_gas_log.csv").read_text()


def test_contract_dump_matches_golden():
    cfg = ScenarioConfig(n_nodes=3, threshold=2, max_faulty=1, providers=2,
                         datum_size_bytes=4, seed=77)
    # the run's terminal state ends with the contract's dump
    _, dump = run_scenario(cfg).terminal.split("\ncontract ", 1)
    assert f"contract {dump}\n" == (GOLDEN_DIR / "golden_contract_dump.txt").read_text()
