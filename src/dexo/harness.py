"""Scenario runner, parameter sweeps, and on-chain cost reporting.

Each cost-report row compares a simulated exchange against an oracle service
that delivers data points through individual contract calls: a Price Feed
call costs 216,844 gas and a generic API call 1,470,295 gas, each delivering
one datum, so a run of M providers costs M such calls. The simulator side is
the exact sum of its metered gas log.

The verbs below raise on bad input or a broken run; ``dexo.cli`` turns what
they raise into an exit code.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import os
from dataclasses import dataclass
from itertools import zip_longest

from .config import ConfigError, ScenarioConfig, format_config, load_config
from .ledger import MODEL_ESTIMATED_FUNCTIONS
from .netsim import Trace, parse_trace_header, run_scenario

CHAINLINK_PRICE_FEED_GAS = 216_844
CHAINLINK_API_CALL_GAS = 1_470_295

# reference snapshot used for the optional USD column (May 2024 prices)
REFERENCE_GAS_PRICE_GWEI = 10.96
REFERENCE_ETH_USD = 3_510.0


def gas_to_usd(gas: int) -> float:
    return gas * REFERENCE_GAS_PRICE_GWEI * 1e-9 * REFERENCE_ETH_USD


@dataclass(frozen=True)
class CostRow:
    label: str
    n_nodes: int
    threshold: int
    max_faulty: int
    providers: int
    datum_size: int
    data_bytes: int
    total_gas_dexo: int
    total_calls: int
    exchange_calls: int
    sessions: int
    gas_chainlink_pricefeed: int
    gas_chainlink_apicall: int


REPORT_COLUMNS = [f.name for f in dataclasses.fields(CostRow)]


@dataclass
class CostReport:
    rows: list[CostRow]

    def to_csv(self, usd: bool = False) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        header = list(REPORT_COLUMNS)
        if usd:
            header += ["usd_dexo", "usd_pricefeed"]
        writer.writerow(header)
        for row in self.rows:
            values = [getattr(row, c) for c in REPORT_COLUMNS]
            if usd:
                values += [
                    f"{gas_to_usd(row.total_gas_dexo):.2f}",
                    f"{gas_to_usd(row.gas_chainlink_pricefeed):.2f}",
                ]
            writer.writerow(values)
        return out.getvalue()


def _row_from_trace(label: str, trace: Trace) -> CostRow:
    config = trace.config
    return CostRow(
        label=label,
        n_nodes=config.n_nodes,
        threshold=config.threshold,
        max_faulty=config.max_faulty,
        providers=config.providers,
        datum_size=config.datum_size_bytes,
        data_bytes=config.providers * config.datum_size_bytes,
        total_gas_dexo=trace.outcome.gas_total,
        total_calls=trace.outcome.total_calls,
        exchange_calls=trace.outcome.exchange_calls,
        sessions=trace.outcome.paid_sessions,
        gas_chainlink_pricefeed=config.providers * CHAINLINK_PRICE_FEED_GAS,
        gas_chainlink_apicall=config.providers * CHAINLINK_API_CALL_GAS,
    )


def _run_row(args: tuple[str, ScenarioConfig]) -> CostRow:
    label, config = args
    return _row_from_trace(label, run_scenario(config))


def build_cost_report(
    labeled_configs: list[tuple[str, ScenarioConfig]], parallel: bool = False
) -> CostReport:
    """Run every config and collect one report row each. Runs are independent
    and deterministic, so they may execute in parallel.
    """
    if parallel and len(labeled_configs) > 1:
        from multiprocessing import Pool  # imported here: serial runs never pay for it

        # one task per run: costs vary widely with N, so fine-grained
        # scheduling avoids a straggler worker
        with Pool(min(os.cpu_count() or 1, len(labeled_configs))) as pool:
            rows = pool.map(_run_row, labeled_configs, chunksize=1)
    else:
        rows = [_run_row(lc) for lc in labeled_configs]
    return CostReport(rows)


def crossover_lines(report: CostReport) -> list[str]:
    lines = []
    cheaper = False
    for row in report.rows:
        now_cheaper = row.total_gas_dexo < row.gas_chainlink_pricefeed
        if now_cheaper and not cheaper:
            lines.append(
                f"{row.label}: cheaper than the per-call price feed from here on"
                f" ({row.total_gas_dexo} < {row.gas_chainlink_pricefeed})"
            )
        cheaper = now_cheaper
    return lines


# ---------------------------------------------------------------- sweeps

SWEEP_AXES = (
    "providers",
    "n_nodes",
    "threshold",
    "max_faulty",
    "datum_size_bytes",
    "seed",
    "timeout_blocks",
)


def derive_configs(
    base: ScenarioConfig, axis: str, values: list[int]
) -> list[tuple[str, ScenarioConfig]]:
    if axis not in SWEEP_AXES:
        raise ConfigError(f"cannot sweep axis {axis!r}; choose from {SWEEP_AXES}")
    if not values:
        raise ConfigError(f"no values to sweep {axis} over")
    derived = []
    for value in values:
        config = dataclasses.replace(base, **{axis: value})
        config.validate()
        derived.append((f"{axis}={value}", config))
    return derived


def sweep(
    base: ScenarioConfig, axis: str, values: list[int], parallel: bool = False
) -> CostReport:
    return build_cost_report(derive_configs(base, axis, values), parallel=parallel)


def valid_fault_bound(n: int, t: int) -> int:
    """Largest F compatible with F < t <= N-F and F < N/2."""
    return min(t - 1, n - t, (n - 1) // 2)


THRESHOLD_RULES = ("half", "two_thirds")


def family_configs(
    n_values: list[int],
    threshold_rule: str,
    providers: int,
    datum_size: int,
    seed: int = 0,
) -> list[tuple[str, ScenarioConfig]]:
    """One honest config per node count under a threshold rule ('half' means
    t = ceil(N/2), 'two_thirds' means t = ceil(2N/3)).
    """
    if threshold_rule not in THRESHOLD_RULES:
        raise ConfigError(
            f"unknown threshold rule {threshold_rule!r}; choose from {THRESHOLD_RULES}"
        )
    configs = []
    for n in n_values:
        t = math.ceil(n / 2) if threshold_rule == "half" else math.ceil(2 * n / 3)
        f = valid_fault_bound(n, t)
        config = ScenarioConfig(
            n_nodes=n,
            threshold=t,
            max_faulty=f,
            providers=providers,
            datum_size_bytes=datum_size,
            value_min=0,
            value_max=255,
            seed=seed,
        )
        config.validate()
        configs.append((f"n={n},rule={threshold_rule}", config))
    return configs


# ---------------------------------------------------------------- run verb


def summarize(trace: Trace) -> str:
    o = trace.outcome
    config = trace.config
    lines = [
        f"scenario: N={config.n_nodes} t={config.threshold} F={config.max_faulty} "
        f"M={config.providers} adversary={config.adversary} seed={config.seed}",
        f"outcome: {o.finished_reason} (reconstruction_valid={o.reconstruction_valid})",
        f"exchange calls: {o.exchange_calls} "
        f"(3N+3t+2 = {3 * config.n_nodes + 3 * config.threshold + 2} for the honest merged run)",
        f"total calls: {o.total_calls}",
        f"paid sessions: {o.paid_sessions}",
        f"total gas: {o.gas_total} "
        f"(gas for {sorted(MODEL_ESTIMATED_FUNCTIONS)} is model-estimated)",
        f"refund to buyer: {o.refund_to_buyer}",
        f"settled sessions: {list(o.settled_sessions)}",
        f"refunded sessions: {list(o.refunded_sessions)}",
    ]
    for d in o.disputes:
        lines.append(f"dispute: {d}")
    for a in o.anomalies:
        lines.append(f"anomaly: {a}")
    for r in o.reverts:
        lines.append(
            f"reverted: {r.function} by {r.caller} at block {r.block}"
            f" (gas {r.gas}, model-estimated): {r.reason}"
        )
    if o.coalition_max:
        lines.append(f"coalition shares per provider: {o.coalition_max}")
    return "\n".join(lines) + "\n"


def run(config_path: str, out_dir: str = "out", usd: bool = False) -> None:
    """Execute one scenario; write trace, gas CSV, and summary files."""
    trace = run_scenario(load_config(config_path))
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(config_path))[0]
    with open(os.path.join(out_dir, f"{stem}.trace"), "w") as fh:
        fh.write(trace.serialize())
    with open(os.path.join(out_dir, f"{stem}.gas.csv"), "w") as fh:
        fh.write(trace.gas_csv)
    summary = summarize(trace)
    if usd:
        summary += (
            f"total gas in USD: {gas_to_usd(trace.outcome.gas_total):.2f} "
            f"(reference snapshot: {REFERENCE_GAS_PRICE_GWEI} gwei, "
            f"ETH ${REFERENCE_ETH_USD:,.0f})\n"
        )
    with open(os.path.join(out_dir, f"{stem}.summary.txt"), "w") as fh:
        fh.write(summary)
    print(summary, end="")


def run_sweep(
    base: ScenarioConfig,
    axis: str,
    values: list[int],
    out_path: str,
    parallel: bool = False,
    usd: bool = False,
) -> None:
    report = sweep(base, axis, values, parallel=parallel)
    text = report.to_csv(usd=usd)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write(text)
    print(text, end="")
    for line in crossover_lines(report):
        print(line)


def run_replay(trace_path: str) -> bool:
    """Re-execute a trace file; True iff the rerun is byte-identical."""
    with open(trace_path, encoding="utf-8") as fh:
        text = fh.read()
    fresh = run_scenario(*parse_trace_header(text)).serialize()
    if fresh == text:
        print("replay: identical")
        return True
    print(f"replay: MISMATCH {first_divergence(text, fresh)}")
    return False


def first_divergence(recorded: str, replayed: str) -> str:
    """Name the first line where two serialized traces differ, with the
    section it falls in and both sides of it."""
    pairs = zip_longest(recorded.splitlines(), replayed.splitlines(), fillvalue="<end of trace>")
    section = "header"
    for lineno, (a, b) in enumerate(pairs, 1):
        if a != b:
            return f"in {section} at line {lineno}\n  trace:  {a}\n  replay: {b}"
        if a.startswith("[") and a.endswith("]"):
            section = a
    return "(the traces differ only in line endings)"


def write_example_config(path: str) -> None:
    config = ScenarioConfig(n_nodes=5, threshold=3, max_faulty=2, providers=2)
    with open(path, "w") as fh:
        fh.write(format_config(config))
