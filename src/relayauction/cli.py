"""Command-line front end.

Subcommands: ``solve`` (closed-form schedule for one effective channel),
``auction`` (run one mechanism on a stored instance under truthful bidding),
``sweep`` (Monte Carlo sweep to CSV + records + manifest), and ``verify``
(the self-check suites). Exit codes: 0 success, 1 usage or config error,
2 numerical failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .config import (
    DEFAULT_CONFIG,
    ResolvedConfig,
    RunManifest,
    load_config,
    resolve_config,
    utc_now,
)
from .jsonio import write
from .montecarlo import MECHANISMS, cells_record, run_mechanism, run_sweep, write_csv
from .numerics import ConvergenceError
from .scenario import ScenarioInstance
from .schedule import optimal_schedule
from .verify import run_level

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; route through our own exit-code scheme.
    def error(self, message):
        raise _UsageError(message)


def _add_common(parser):
    parser.add_argument("--config", type=Path, help="JSON config file (defaults apply otherwise)")
    for name in DEFAULT_CONFIG["system"]:
        parser.add_argument(f"--{name.replace('_', '-')}", type=float, dest=name)


def _resolved(args) -> ResolvedConfig:
    config = load_config(args.config) if args.config else {}
    for section, names in (("system", DEFAULT_CONFIG["system"]), ("sweep", ("seed", "trials"))):
        given = config.setdefault(section, {})
        for name in names:
            # A section that is not an object is left for resolve_config to report.
            if getattr(args, name, None) is not None and isinstance(given, dict):
                given[name] = getattr(args, name)
    return resolve_config(config)


def _emit_record(record: dict) -> None:
    # Strict JSON: records encode any non-finite value themselves (as null).
    print(json.dumps(record, sort_keys=True, allow_nan=False))


def cmd_solve(args) -> int:
    resolved = _resolved(args)
    sol = optimal_schedule(args.z, resolved.system)
    for f in fields(sol):
        print(f"{f.name:<18} = {getattr(sol, f.name)!r}")
    _emit_record(write(sol, format="relayauction/schedule-solution", version=1, z_w=args.z))
    return 0


def cmd_auction(args) -> int:
    resolved = _resolved(args)
    with open(args.instance) as fh:
        inst = ScenarioInstance.from_record(json.load(fh))
    outcome = run_mechanism(args.mechanism, inst, resolved.system)
    print(f"{'mechanism':<20} = {args.mechanism}")
    for f in fields(outcome):
        print(f"{f.name:<20} = {getattr(outcome, f.name)!r}")
    _emit_record({"mechanism": args.mechanism, **outcome.to_record()})
    return 0


def cmd_sweep(args) -> int:
    resolved = _resolved(args)
    started = utc_now()
    cells = run_sweep(
        resolved.sweep, resolved.geometry, resolved.channel, resolved.system, n_jobs=args.jobs
    )
    # Only now: a sweep that fails leaves no empty output directory behind.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    write_csv(cells, csv_path)
    records_path = out_dir / "cells.json"
    with open(records_path, "w") as fh:
        json.dump(cells_record(cells), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    manifest = RunManifest(
        config_path=str(args.config) if args.config else "<defaults>",
        resolved_params=resolved.as_dict(),
        artifact_version=__version__,
        seed=resolved.sweep.seed,
        started=started,
        finished=utc_now(),
    )
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest.to_record(), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    print(f"wrote {csv_path}")
    print(f"wrote {records_path}")
    print(f"wrote {manifest_path}")
    return 0


def cmd_verify(args) -> int:
    results = run_level(args.level)
    failed = [r for r in results if not r.passed]
    _emit_record(
        {
            "format": "relayauction/verify-report",
            "version": 1,
            "level": args.level,
            "passed": len(results) - len(failed),
            "failed": len(failed),
            "checks": [{**write(r), "seconds": round(r.seconds, 3)} for r in results],
        }
    )
    return 3 if failed else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="relayauction", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="closed-form schedule for one effective channel")
    _add_common(p_solve)
    p_solve.add_argument("--z", type=float, required=True, help="effective channel (W)")
    p_solve.set_defaults(func=cmd_solve)

    p_auction = sub.add_parser("auction", help="run one auction on a stored instance")
    _add_common(p_auction)
    p_auction.add_argument("--instance", type=Path, required=True, help="scenario-instance JSON")
    p_auction.add_argument("--mechanism", choices=MECHANISMS, default="mspoa")
    p_auction.set_defaults(func=cmd_auction)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo sweep to CSV")
    _add_common(p_sweep)
    p_sweep.add_argument("--out", type=Path, required=True, help="output directory")
    p_sweep.add_argument("--seed", type=int, help="override the sweep seed")
    p_sweep.add_argument("--trials", type=int, help="override trials per cell")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the self-check suites")
    p_verify.add_argument("--level", choices=("fast", "full"), default="fast")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
