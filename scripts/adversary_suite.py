#!/usr/bin/env python3
"""Run every named adversary script against one configuration and tabulate
the terminal outcomes: who reconstructed, who was paid, who was refunded,
and how many shares the adversary coalition ever held.

Usage:
    python scripts/adversary_suite.py [--nodes 7] [--threshold 4]
        [--faulty 3] [--providers 3] [--seed 0] [--out out/suite.csv]

An invalid configuration prints one ``config error:`` line and exits 2.
"""

import argparse
import csv
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dexo.config import ConfigError, ScenarioConfig
from dexo.netsim import ScriptError, run_scenario, standard_scripts

FIELDS = ["script", "outcome", "data_valid", "paid_sessions", "paid_out",
          "refunded_to_buyer", "refunded_sessions", "max_coalition_shares", "disputes"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--nodes", type=int, default=7)
    parser.add_argument("--threshold", type=int, default=4)
    parser.add_argument("--faulty", type=int, default=3)
    parser.add_argument("--providers", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out/adversary_suite.csv")
    args = parser.parse_args(argv)

    base = ScenarioConfig(
        n_nodes=args.nodes,
        threshold=args.threshold,
        max_faulty=args.faulty,
        providers=args.providers,
        datum_size_bytes=8,
        value_min=0,
        value_max=100,
        seed=args.seed,
    )
    try:
        base.validate()
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 2

    rows = []
    for name, script in sorted(standard_scripts(base).items()):
        config = replace(base, adversary=name, shared_key=script.requires_shared_key)
        try:
            outcome = run_scenario(config, script).outcome
        except ScriptError as exc:  # the script cannot run under this config
            rows.append({"script": name, "outcome": f"rejected: {exc}"})
            print(f"{name:26s} rejected: {exc}")
            continue
        rows.append({
            "script": name,
            "outcome": outcome.finished_reason,
            "data_valid": outcome.reconstruction_valid,
            "paid_sessions": outcome.paid_sessions,
            "paid_out": outcome.paid_out,
            "refunded_to_buyer": outcome.refund_to_buyer,
            "refunded_sessions": " ".join(map(str, outcome.refunded_sessions)),
            "max_coalition_shares": max(outcome.coalition_max.values(), default=0),
            "disputes": len(outcome.disputes),
        })
        print(f"{name:26s} {outcome.finished_reason:28s} "
              f"valid={outcome.reconstruction_valid!s:5s} "
              f"paid_out={outcome.paid_out:5d} refund={outcome.refund_to_buyer:5d} "
              f"coalition<= {max(outcome.coalition_max.values(), default=0)}")

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
