"""Cost reports, sweeps, CLI verbs, and golden-file interface stability."""

import math
from pathlib import Path

import pytest

from dexo import cli, harness
from dexo.config import (
    MAX_DATUM_SIZE,
    MAX_NODES,
    MAX_PROVIDERS,
    ScenarioConfig,
    format_config,
)
from dexo.harness import (
    CHAINLINK_API_CALL_GAS,
    CHAINLINK_PRICE_FEED_GAS,
    CostReport,
    CostRow,
    build_cost_report,
    compare_chainlink,
    family_configs,
    sweep,
    valid_fault_bound,
)
from dexo.netsim import run_scenario
from scenarioutil import suite_config

GOLDEN_DIR = Path(__file__).parent


def _base_config(**overrides):
    params = dict(n_nodes=5, threshold=3, max_faulty=2, providers=2, seed=1)
    params.update(overrides)
    return ScenarioConfig(**params)


# ---------------------------------------------------------------- reports


def test_report_csv_roundtrip():
    report = sweep(_base_config(), "providers", [1, 2, 3])
    again = CostReport.from_csv(report.to_csv())
    assert again.rows == report.rows


def test_chainlink_columns_use_percall_constants():
    rows = [
        CostRow(
            label="x", n_nodes=5, threshold=3, max_faulty=2, providers=m,
            datum_size=10, data_bytes=m * 10, total_gas_dexo=1, total_calls=1,
            exchange_calls=1, sessions=3,
        )
        for m in (1, 7, 30)
    ]
    report = compare_chainlink(CostReport(rows=rows))
    for row in report.rows:
        calls = math.ceil(row.data_bytes / row.datum_size)
        assert row.gas_chainlink_pricefeed == calls * CHAINLINK_PRICE_FEED_GAS
        assert row.gas_chainlink_apicall == calls * CHAINLINK_API_CALL_GAS


def test_zero_volume_costs_nothing_on_chain():
    row = CostRow(
        label="none", n_nodes=5, threshold=3, max_faulty=2, providers=0,
        datum_size=10, data_bytes=0, total_gas_dexo=0, total_calls=0,
        exchange_calls=0, sessions=0,
    )
    report = compare_chainlink(CostReport(rows=[row]))
    assert report.rows[0].gas_chainlink_pricefeed == 0
    assert report.rows[0].gas_chainlink_apicall == 0


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


def test_valid_fault_bound():
    for n in range(3, 51):
        for t in (math.ceil(n / 2), math.ceil(2 * n / 3)):
            f = valid_fault_bound(n, t)
            assert f < n / 2 and f < t <= n - f


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
    ("providers", MAX_PROVIDERS, {}),
    ("datum_size_bytes", MAX_DATUM_SIZE, {}),
])
def test_cli_rejects_config_beyond_wire_limits(tmp_path, capsys, field, limit, overrides):
    _base_config(**overrides, **{field: limit}).validate()
    cfg_path = _write_config(tmp_path, **overrides, **{field: limit + 1})
    assert cli.main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().out


def test_cli_rejects_unknown_adversary(tmp_path):
    cfg_path = _write_config(tmp_path, adversary="HONEST")
    text = Path(cfg_path).read_text().replace(
        "adversary = HONEST", "adversary = MYSTERY"
    )
    Path(cfg_path).write_text(text)
    assert cli.main(["run", cfg_path]) == 2


def test_cli_sweep_and_compare(tmp_path):
    cfg_path = _write_config(tmp_path)
    out_csv = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", cfg_path, "--axis", "providers",
                   "--values", "1,2,3", "--out", str(out_csv)])
    assert rc == 0
    rc = cli.main(["compare", str(out_csv), "--out", str(tmp_path / "cmp.csv")])
    assert rc == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["label", "n_nodes", "threshold"]


def test_cli_replay_roundtrip(tmp_path):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out)]) == 0
    assert cli.main(["replay", str(out / "scenario.trace")]) == 0


def test_cli_value_ranges():
    assert cli._parse_values("1,5,20") == [1, 5, 20]
    assert cli._parse_values("3..6") == [3, 4, 5, 6]
    assert cli._parse_values("1,4..6,9") == [1, 4, 5, 6, 9]


# ---------------------------------------------------------------- goldens


def test_gas_log_matches_golden():
    cfg = ScenarioConfig(n_nodes=3, threshold=2, max_faulty=1, providers=2,
                         datum_size_bytes=4, seed=77)
    trace = run_scenario(cfg)
    assert trace.gas_csv == (GOLDEN_DIR / "golden_gas_log.csv").read_text()


def test_contract_dump_matches_golden():
    import random

    from dexo import participants as roles
    from dexo.ledger import Ledger
    from dexo.netsim import CoalitionMonitor, Simulator, resolve_script

    cfg = ScenarioConfig(n_nodes=3, threshold=2, max_faulty=1, providers=2,
                         datum_size_bytes=4, seed=77)
    sim = Simulator(Ledger(), random.Random(cfg.seed), CoalitionMonitor(2, 2))
    setup = roles.stage0_setup(sim, cfg, resolve_script(cfg))
    roles.stage1_produce(sim, setup)
    roles.stage2_register(sim, setup)
    roles.stage3_exchange(sim, setup)
    dump = sim.ledger.contracts[setup.cid].dump()
    assert dump == (GOLDEN_DIR / "golden_contract_dump.txt").read_text()
