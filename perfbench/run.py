#!/usr/bin/env python3
"""Run one benchmark workload against the package in ``src/`` and print
its metrics as the last line of standard output.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 0   # one line per workload

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones: half the run untraced, half with spans on, and the difference in
throughput between the halves as the tracing overhead. Workload names,
metric names and units and the run length come from BENCHMARK.json. The
line before the result is a report: host facts, per-round rates, set-up
samples, every span's self time and any failed check. Exit codes: 0 result printed, 1 error, 2 bad arguments
or no package source in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 12
MIN_ROUNDS = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]] + ["all"],
        help="one workload, or all of them one after another, each in its own process",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is not None and not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def host_facts() -> dict:
    import numpy as np
    import relayauction

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": relayauction.backend_name(),
        "git_commit": commit,
    }


def run_rounds(workload, seed, budget_s, work_dir, tracer, problems, after_round=None) -> list:
    """Whole rounds until the next one would end past the budget.

    ``after_round(share)`` runs between rounds with the share of the budget
    used so far.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(workload.run_round(seed, len(rounds), work_dir, tracer, problems))
        if after_round is not None:
            after_round((time.perf_counter() - start) / budget_s)
        last = time.perf_counter() - t0
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + last > budget_s:
            return rounds


class SetupSampler:
    """Set-up samples spread evenly over a run, so that they see the same
    mix of quiet and busy spells on a shared host as the rounds do. Between
    two rounds it catches up to the share of the run used so far."""

    def __init__(self, mechanisms, repeats: int):
        from perfbench import startup

        self._measure = lambda: startup.measure(SRC, mechanisms, 1)
        self.repeats = repeats
        self.samples = self._measure()

    def __call__(self, share: float) -> None:
        while len(self.samples) < self.repeats and share >= len(self.samples) / self.repeats:
            self.samples += self._measure()


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the set-up interpreters and
    # sweep workers, all waited for by now.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def throughput(rounds: list) -> float:
    """Auctions per second of the slowest round.

    On a shared host a round runs either at the host's contended baseline
    or faster while neighbours idle, and the share of fast spells varies
    from run to run; the slowest round tracks the baseline, which is the
    steadiest figure a run yields (see README).
    """
    return min(r.rate for r in rounds)


def slow_setup(samples: list, key: str) -> float:
    """Upper quartile of the set-up samples.

    Like the slowest round for throughput, it follows the host's slow state
    while that holds for at least a quarter of the run, and unlike the
    slowest sample it ignores a rare stall of one interpreter start.
    """
    values = [s[key] for s in samples]
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


# Spans whose self time per round is a per-layer metric ``<span>.self_s``.
SELF_TIMES = (
    "scenario.sample_instance",
    "montecarlo.trial_rng",
    "montecarlo.chunk_loop",
    "montecarlo.aggregate",
    "mechanisms.truthful_profile",
    "mechanisms.cooperative_baseline",
    "mechanisms.run_spoa",
    "mechanisms.run_mspoa",
    "schedule.optimal_schedule",
    "schedule.value_of_z",
    "schedule.z_of_value",
    "cli.write",
)


def layer_metrics(plain, traced, tracer, setup, kernel_metrics) -> dict:
    """The per-layer metrics. Times are seconds per traced round (0 for a
    layer the workload never enters); counts come from the first traced
    round, whose inputs do not depend on how many rounds fit in the run."""
    first = traced[0]
    counts = first.counts
    n_rounds = len(traced)
    sampled = tracer.calls["scenario.sample_instance"]
    return {
        **{f"{span}.self_s": tracer.self_s[span] / n_rounds for span in SELF_TIMES},
        "scenario.sample_instance.us_per_trial": 1e6 * tracer.self_s["scenario.sample_instance"] / sampled,
        "montecarlo.pool.wait_s": first.pool_wait_s,
        "schedule.schedules_per_trial_lambda": (
            counts["schedule.optimal_schedule"] + counts["schedule.value_of_z"]
        ) / first.trial_lambdas,
        "mechanisms.truthful_profile.calls_per_trial_lambda": counts["mechanisms.truthful_profile"]
        / first.trial_lambdas,
        "schedule.z_of_value.calls_per_auction": counts["schedule.z_of_value"] / first.auctions,
        "schedule.z_of_value.value_evals_per_call": (
            counts["schedule.z_of_value.value_eval"] / counts["schedule.z_of_value"]
            if counts["schedule.z_of_value"] else 0.0
        ),
        "numerics.lambert_w0.solves_per_auction": counts["numerics.lambert_w0"] / first.auctions,
        **kernel_metrics,
        "montecarlo.pool.result_bytes": first.pool_result_bytes,
        "cli.output_bytes": first.output_bytes,
        "config.resolve_s": slow_setup(setup, "config.resolve_s"),
        "import_s": slow_setup(setup, "import_s"),
        "trace.overhead_pct": 100.0 * (1.0 - throughput(traced) / throughput(plain)),
    }


def run(args, spec) -> tuple[dict, dict]:
    from perfbench import kernelbench, tracing, workloads

    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workload = workloads.build(args.workload, len(os.sched_getaffinity(0)))
    setup = SetupSampler(workload.mechanisms, SETUP_REPEATS)
    work_root = ROOT / "perfbench" / ".work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    problems: list[str] = []
    report = {"workload": args.workload, "seed": args.seed, "host": host_facts(), "notes": []}
    try:
        workload.prepare(work_dir)
        if args.trace:
            plain = run_rounds(workload, args.seed, seconds / 2, work_dir, None, problems, setup)
            tracer = tracing.Tracer()
            traced = run_rounds(workload, args.seed, seconds / 2, work_dir, tracer, problems)
            problems += [
                f"traced round {i} output differs from the untraced one"
                for i, (a, b) in enumerate(zip(plain, traced)) if a.digest != b.digest
            ]
            kernel_metrics, kernel_problems, notes = kernelbench.measure(*workload.kernel_inputs(args.seed))
            problems += kernel_problems
            report["notes"] += notes
            metrics = layer_metrics(plain, traced, tracer, setup.samples, kernel_metrics)
            rounds = plain + traced
            report["layer_detail"] = {
                f"{name}.self_s": value / len(traced) for name, value in sorted(tracer.self_s.items())
            }
            report["calls_per_round"] = {
                name: value / len(traced) for name, value in sorted(tracer.calls.items())
            }
            if report["host"]["backend"] != "python":
                report["notes"].append("Lambert-solve and inversion counts are Python-backend only")
        else:
            rounds = run_rounds(workload, args.seed, seconds, work_dir, None, problems, setup)
            metrics = {
                "auctions_per_s": throughput(rounds),
                "setup_s": slow_setup(setup.samples, "setup_s"),
                "peak_rss_mb": _peak_rss_mb(),
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run's directory is still there
            pass
    report["round_rates"] = [r.rate for r in rounds]
    report["setup_samples_s"] = [sample["setup_s"] for sample in setup.samples]
    report["problems"] = problems[:20]
    result = {
        "correct": not problems,
        "attempted": sum(r.auctions for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }
    return report, result


def run_all(args, spec) -> int:
    """Every workload in a fresh process; one result line per workload."""
    for name in (w["name"] for w in spec["workloads"]):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            argv += ["--seconds", str(args.seconds)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        print(json.dumps({"workload": name, **json.loads(proc.stdout.splitlines()[-1])}))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    spec = load_spec()
    args = _parse(argv, spec)
    if args.workload == "all":
        return run_all(args, spec)
    if not (SRC / "relayauction" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'relayauction'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import relayauction

    if Path(relayauction.__file__).resolve().parent != (SRC / "relayauction").resolve():
        print(f"error: relayauction imported from {relayauction.__file__}, not {SRC}", file=sys.stderr)
        return 2
    report, result = run(args, spec)
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
