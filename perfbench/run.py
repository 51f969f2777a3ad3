#!/usr/bin/env python3
"""Host-time benchmark of the dexo simulator.

Each workload is a fixed list of scenarios (see ``workloads.py``). One pass
runs them serially in this process as a closed loop. Passes repeat until
``--seconds`` have elapsed, and timings are medians over passes. Simulated
quantities (messages, contract calls, gas, block height) are counters that
must repeat exactly between passes.

Every time is host time, scaled to a reference host speed. Every half
second between scenarios the run times a fixed kernel (``calibration.py``).
A scenario's latency is multiplied by ``REFERENCE_S`` over the median of the
kernel slices nearest to it, a pass's wall time by ``REFERENCE_S`` over the
median of that pass's slices. The raw host times are printed next to the
scaled ones and kept in the results file.

With ``--trace 0`` the end-to-end metrics are reported. With ``--trace 1``
untraced and traced passes alternate, and the per-layer metrics come from
the traced ones (``layertrace.py``), per pass.

Usage:
    python3 perfbench/run.py                       # all workloads, one process
    python3 perfbench/run.py --workload sweep_honest --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results, machine
facts, counters and (when tracing) the spans go to ``perfbench/out/``.
The exit code is 0 only if every scenario passed its checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("sweep_honest", "adversary_suite", "tamper_scaling")
DEFAULT_SEED = 1
SETUP_PROBES = 7
# a reference-kernel slice runs whenever this much pass time has gone by
KERNEL_EVERY_S = 0.5
# largest share of a traced pass allowed outside every span
UNATTRIBUTED_MARGIN = 0.05

UNITS = {
    "setup_s": "s", "wall_s": "s", "msgs_per_s": "1/s", "run_p50_ms": "ms",
    "run_p90_ms": "ms", "peak_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, so the result is an observed value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine_facts() -> dict:
    import cryptography
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
    }


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds from process start until the workload is ready, kernel
    seconds just before) for each fresh probe process.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        kernel = calibration.kernel_seconds()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, probe, workload, str(seed)], stdout=subprocess.PIPE
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != b"ready\n" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
        samples.append((elapsed, kernel))
    return samples


class Pass:
    """Outcome of one pass: wall time, per-scenario latencies, counters."""

    def __init__(self):
        self.wall = 0.0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.providers_run = 0
        self.counters = {"messages": 0, "contract_calls": 0, "gas": 0, "block_height": 0}
        self.kernel: list[float] = []  # reference-kernel slices run during the pass
        self.slice_of: list[int] = []  # latest kernel slice before each scenario

    def scale(self) -> float:
        """Host seconds to reference seconds, over the whole pass."""
        return calibration.REFERENCE_S / statistics.median(self.kernel)

    def scaled_latencies(self) -> list[float]:
        """Latencies in reference seconds, each by the slices nearest to it."""
        return [
            latency * calibration.REFERENCE_S
            / statistics.median(self.kernel[max(0, i - 1): i + 2])
            for latency, i in zip(self.latencies, self.slice_of)
        ]


def run_pass(scenarios, tracer=None) -> Pass:
    """Run every scenario once, with kernel slices in between that are left
    out of the pass wall time.
    """
    from dexo import harness, netsim

    import workloads

    result = Pass()
    start = time.perf_counter()
    in_kernel = 0.0
    last_kernel = -math.inf
    for scenario in scenarios:
        if time.perf_counter() - last_kernel >= KERNEL_EVERY_S:
            result.kernel.append(calibration.kernel_seconds())
            in_kernel += result.kernel[-1]
            last_kernel = time.perf_counter()
        result.slice_of.append(len(result.kernel) - 1)
        result.attempted += 1
        if tracer is not None:
            tracer.run_id += 1
        t0 = time.perf_counter()
        latency = math.nan  # failed scenarios have none
        try:
            trace = harness.run_scenario(scenario.config, scenario.script)
            elapsed = time.perf_counter() - t0
            identical = netsim.replay(trace) if scenario.replay else True
            workloads.check(scenario, trace)
            if not identical:
                raise workloads.CheckFailed("replay is not byte-identical")
            executions = 2 if scenario.replay else 1
            c = result.counters
            c["messages"] += executions * len(trace.events)
            c["contract_calls"] += trace.outcome.total_calls
            c["gas"] += trace.outcome.gas_total
            c["block_height"] += workloads.block_height(trace)
            result.providers_run += executions * scenario.config.providers
            latency = elapsed
        except Exception:  # one failed scenario must not stop the measurement
            result.failed += 1
            print(f"FAILED {scenario.label}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        result.latencies.append(latency)
    result.wall = time.perf_counter() - start - in_kernel
    return result


def scenario_latencies(latencies_by_pass: list[list[float]]) -> list[float]:
    """Each scenario's median latency over the passes that completed it."""
    medians = []
    for column in zip(*latencies_by_pass):
        completed = [x for x in column if not math.isnan(x)]
        medians.append(statistics.median(completed) if completed else math.nan)
    return medians


def layer_metrics(tracer, traced: list[Pass], untraced: list[Pass], scale: float) -> dict:
    """Per-pass values of every per-layer metric, from the traced passes.
    ``scale`` converts host seconds to reference seconds.
    """
    t = tracer
    per_pass = 1 / len(traced)
    seconds = scale * per_pass
    m = {}
    for layer in ("crypto.sign", "crypto.verify", "crypto.reconstruct", "crypto.sha256",
                  "crypto.merkle", "crypto.keystream", "crypto.shamir_create",
                  "tee.gendata", "tee.attest"):
        m[f"{layer}.calls"] = t.calls(layer) * per_pass
        m[f"{layer}.self_s"] = t.self_time(layer) * seconds
    verifies = t.calls("crypto.verify")
    m["crypto.verify.distinct_ratio"] = t.verify_distinct / verifies if verifies else 0.0
    m["crypto.keystream.bytes"] = t.keystream_bytes * per_pass
    m["participants.consumer.self_s"] = t.self_time("participants.consumer") * seconds
    m["participants.reconstruct_per_provider"] = (
        t.calls_from("crypto.reconstruct", "dexo.participants")
        / sum(p.providers_run for p in traced)
    )
    m["wire.calls"] = t.calls("wire") * per_pass
    m["wire.self_s"] = t.self_time("wire") * seconds
    m["netsim.msgs"] = t.calls("netsim.send") * per_pass
    m["netsim.send.self_s"] = t.self_time("netsim.send") * seconds
    m["netsim.drain.self_s"] = t.self_time("netsim.drain") * seconds
    m["netsim.replay_s"] = t.inclusive_time("netsim.replay") * seconds
    m["netsim.blocks"] = traced[0].counters["block_height"]
    for stage in range(4):
        m[f"participants.stage{stage}_s"] = (
            t.inclusive_time(f"participants.stage{stage}") * seconds
        )
    for role in ("node", "device", "server"):
        m[f"participants.{role}.self_s"] = t.self_time(f"participants.{role}") * seconds
    m["ledger.calls"] = t.calls("ledger") * per_pass
    m["ledger.self_s"] = t.self_time("ledger") * seconds
    m["ledger.reverts"] = t.errors("ledger") * per_pass
    m["ledger.challenge.calls"] = (
        t.calls("ledger.challenge_case1") + t.calls("ledger.challenge_case2")
    ) * per_pass
    m["ledger.gas_total"] = traced[0].counters["gas"]
    m["harness.run_scenario.self_s"] = t.self_time("harness.run_scenario") * seconds
    m["trace.overhead_ratio"] = (
        statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in untraced)
    )
    m["trace.unattributed_ratio"] = 1.0 - t.total_self() / sum(p.wall for p in traced)
    return m


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import layertrace
    import workloads

    setup = measure_setup(workload, seed)
    scenarios = workloads.build(workload, seed)
    tracer = layertrace.Tracer() if trace else None
    untraced: list[Pass] = []
    traced: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        if trace and len(traced) < len(untraced):
            with tracer:
                traced.append(run_pass(scenarios, tracer))
        else:
            untraced.append(run_pass(scenarios))
        if (traced or not trace) and time.perf_counter() >= deadline:
            break

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    counters = [p.counters for p in passes]
    problems = []
    if any(c != counters[0] for c in counters):
        problems.append("simulated counters differ between passes")
    walls = [p.wall for p in untraced]
    per_scenario = scenario_latencies([p.scaled_latencies() for p in untraced])
    raw_per_scenario = scenario_latencies([p.latencies for p in untraced])
    result = {
        "workload": workload,
        "seed": seed,
        "scenarios_per_pass": len(scenarios),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "pass_scales": [p.scale() for p in passes],
        "kernel_s_by_pass": [p.kernel for p in passes],
        "setup_probes_s": [list(s) for s in setup],
        "pass_walls_s": walls,
        "scenario_median_latency_s": dict(zip((s.label for s in scenarios), per_scenario)),
        "counters_per_pass": counters[0],
        "counters_by_pass": counters,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        scale = calibration.REFERENCE_S / statistics.median(
            k for p in traced for k in p.kernel
        )
        metrics = layer_metrics(tracer, traced, untraced, scale)
        if abs(metrics["trace.unattributed_ratio"]) > UNATTRIBUTED_MARGIN:
            problems.append(
                f"self times cover only {1 - metrics['trace.unattributed_ratio']:.1%} "
                f"of traced wall time (margin {UNATTRIBUTED_MARGIN:.0%})"
            )
        result["spans"] = tracer.span_count()
        result["traced_pass_walls_s"] = [p.wall for p in traced]
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"{workload}-seed{seed}.spans.npz"))
    else:
        def observed(values):
            return [x for x in values if not math.isnan(x)] or [math.nan]

        raw = {
            "setup_s": statistics.median(elapsed for elapsed, _ in setup),
            "wall_s": statistics.median(walls),
            "msgs_per_s": statistics.median(p.counters["messages"] / p.wall for p in untraced),
            "run_p50_ms": 1000 * percentile(observed(raw_per_scenario), 0.5),
            "run_p90_ms": 1000 * percentile(observed(raw_per_scenario), 0.9),
        }
        metrics = {
            "setup_s": statistics.median(
                elapsed * calibration.REFERENCE_S / k for elapsed, k in setup
            ),
            "wall_s": statistics.median(p.wall * p.scale() for p in untraced),
            "msgs_per_s": statistics.median(
                p.counters["messages"] / (p.wall * p.scale()) for p in untraced
            ),
            "run_p50_ms": 1000 * percentile(observed(per_scenario), 0.5),
            "run_p90_ms": 1000 * percentile(observed(per_scenario), 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["raw_host_metrics"] = raw
    result["metrics"] = metrics
    result["failed_ratio"] = failed / attempted
    result["problems"] = problems
    return result


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_provider"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def report(result: dict) -> None:
    w = result["workload"]
    n = result["scenarios_per_pass"]
    print(f"# {w} seed={result['seed']}: {result['untraced_passes']} untraced + "
          f"{result['traced_passes']} traced passes of {n} scenarios; "
          f"{result['attempted']} attempted, {result['failed']} failed; "
          f"host-to-reference scale {statistics.median(result['pass_scales']):.4f}")
    raw = result.get("raw_host_metrics", {})
    for name, value in result["metrics"].items():
        notes = []
        if name in raw:
            notes.append(f"raw host {raw[name]:.6g}")
        if name == "setup_s":
            notes.append(f"median of {len(result['setup_probes_s'])} fresh processes")
        elif name.startswith("run_p"):
            q = 0.5 if name == "run_p50_ms" else 0.9
            notes.append(f"over n={n} scenario medians, {n - math.ceil(q * n)} beyond")
        note = f"  ({'; '.join(notes)})" if notes else ""
        print(f"{w} {name} {value:.6g} {unit_of(name)}{note}")
    print(f"{w} failed_ratio {result['failed_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    c = result["counters_per_pass"]
    print(f"# {w} simulated per pass: " + " ".join(f"{k}={v}" for k, v in c.items()))
    for problem in result["problems"]:
        print(f"# {w} PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "dexo")):
        print(f"dexo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    facts = machine_facts()
    print("# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [bench(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    os.makedirs(OUT, exist_ok=True)
    for result in results:
        result["machine"] = facts
        report(result)
        path = os.path.join(
            OUT, f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        )
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1)

    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {
            "value": value, "unit": unit_of(name)
        }
        for r in results
        for name, value in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["problems"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
