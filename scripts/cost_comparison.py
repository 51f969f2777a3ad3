#!/usr/bin/env python3
"""Reproduce the on-chain cost comparison against per-call oracle delivery.

Sweeps node counts for both threshold rules (t = N/2 and t = 2N/3) at a
fixed data volume and prints where the exchange protocol undercuts Price
Feed and API Call style delivery. Writes one CSV per bytes-per-user setting.

Usage:
    python scripts/cost_comparison.py [--providers 60] [--n-min 5] [--n-max 50]
        [--out-dir out] [--parallel]

An invalid configuration or an empty node range prints one ``config error:``
line and exits 2, before any CSV is written.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dexo.config import ConfigError
from dexo.harness import build_cost_report, family_configs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--providers", type=int, default=60)
    parser.add_argument("--n-min", type=int, default=5)
    parser.add_argument("--n-max", type=int, default=50)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--parallel", action="store_true")
    args = parser.parse_args(argv)

    n_values = list(range(args.n_min, args.n_max + 1))
    sweeps = {}
    try:
        if not n_values:
            raise ConfigError(f"empty node range {args.n_min}..{args.n_max}")
        for bytes_per_user in (10, 100):
            sweeps[bytes_per_user] = [
                labeled
                for rule in ("half", "two_thirds")
                for labeled in family_configs(n_values, rule, providers=args.providers,
                                              datum_size=bytes_per_user)
            ]
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 2

    os.makedirs(args.out_dir, exist_ok=True)
    for bytes_per_user, configs in sweeps.items():
        report = build_cost_report(configs, parallel=args.parallel)
        path = os.path.join(args.out_dir, f"cost_{bytes_per_user}b_per_user.csv")
        with open(path, "w") as fh:
            fh.write(report.to_csv(usd=True))
        cheaper_pf = sum(
            1 for r in report.rows if r.total_gas_dexo < r.gas_chainlink_pricefeed
        )
        cheaper_api = sum(
            1 for r in report.rows if r.total_gas_dexo < r.gas_chainlink_apicall
        )
        volume = args.providers * bytes_per_user
        print(
            f"{bytes_per_user:4d} B/user ({volume} B total): "
            f"{cheaper_pf}/{len(report.rows)} configurations beat Price Feed, "
            f"{cheaper_api}/{len(report.rows)} beat API Call -> {path}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
