"""Command-line front door: run scenarios, sweep parameters (each sweep row
carries the per-call oracle costs), and replay traces. Exit codes: 0 success,
2 config error, 3 invariant violation or replay mismatch.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .config import ConfigError, load_config
from .crypto import ShamirError
from .ledger import InvariantViolation, LedgerError
from .netsim import ScriptError

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_INVARIANT_VIOLATION = 3


def _parse_values(text: str, check) -> list[int]:
    """The integers a ``--values`` list names. Both ends of each lo..hi
    range go through ``check`` before the range is expanded."""
    values = []
    for part in text.split(","):
        part = part.strip()
        try:
            if ".." not in part:
                values.extend([int(part)] if part else [])
                continue
            lo, hi = part.split("..", 1)
            span = range(int(lo), int(hi) + 1)
        except ValueError:
            raise ConfigError(
                f"--values: {part!r} is neither an integer nor a lo..hi range"
            ) from None
        if span:
            check(span[0])
            check(span[-1])
        try:
            len(span)
        except OverflowError:
            raise ConfigError(f"--values: {part!r} holds too many values") from None
        values.extend(span)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dexo",
        description="Deterministic simulator of a secret-shared, fair-exchange "
        "IoT data market with a calibrated gas model.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--usd", action="store_true",
                       help="add USD figures at the reference price snapshot")

    p_sweep = sub.add_parser("sweep", help="run a one-axis parameter sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True,
                         choices=harness.SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma list, ranges allowed: 1,5,20 or 1..50")
    p_sweep.add_argument("--out", default="out/sweep.csv")
    p_sweep.add_argument("--parallel", action="store_true")
    p_sweep.add_argument("--usd", action="store_true")

    p_rep = sub.add_parser("replay", help="re-execute a trace and compare")
    p_rep.add_argument("trace")

    p_ex = sub.add_parser("example-config", help="write a starter config file")
    p_ex.add_argument("path")

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            harness.run(args.config, out_dir=args.out, usd=args.usd)
        elif args.verb == "sweep":
            base = load_config(args.config)
            harness.run_sweep(
                base,
                axis=args.axis,
                values=_parse_values(
                    args.values, lambda v: harness.derive_configs(base, args.axis, [v])
                ),
                out_path=args.out,
                parallel=args.parallel,
                usd=args.usd,
            )
        elif args.verb == "replay":
            if not harness.run_replay(args.trace):
                return EXIT_INVARIANT_VIOLATION
        elif args.verb == "example-config":
            harness.write_example_config(args.path)
            print(f"wrote {args.path}")
    # a file that is not UTF-8 text is bad input like any other
    except (ConfigError, ScriptError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG_ERROR
    except (InvariantViolation, LedgerError, ShamirError) as exc:
        print(f"invariant violation: {exc}")
        return EXIT_INVARIANT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
