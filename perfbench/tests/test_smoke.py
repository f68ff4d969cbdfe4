"""Smoke tests for the benchmark at tiny scale.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Every workload runs whole rounds through the same code the benchmark
uses, and each correctness check is shown to fail on a corrupted output.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import checks, kernelbench, run, tracing, workloads  # noqa: E402
from relayauction import verify  # noqa: E402
from relayauction.mechanisms import run_mspoa, truthful_profile  # noqa: E402
from relayauction.montecarlo import CellStats, run_mechanism, trial_rng  # noqa: E402
from relayauction.scenario import sample_instance  # noqa: E402

SEED = 3
SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The trend gates need the workloads' own trial count; sweeps stay at it
# and run one round, the fuzz shrinks.
SWEEP_TRIALS = workloads.SweepWorkload.trials


def _tiny(name: str):
    workload = workloads.build(name, nproc=2)
    if isinstance(workload, workloads.SweepWorkload):
        return replace(workload, sampled_trials=1)
    return replace(workload, instances=8, deviations=12)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_round_passes_its_checks(name, tmp_path):
    workload = _tiny(name)
    workload.prepare(tmp_path)
    problems = []
    rnd = workload.run_round(SEED, 0, tmp_path, None, problems)
    assert problems == []
    assert rnd.auctions > 0 and rnd.failed == 0 and rnd.timed_s > 0


def test_run_rounds_stops_after_the_budget(tmp_path):
    workload = _tiny("game-fuzz")
    seen = []
    rounds = run.run_rounds(workload, SEED, 1e-6, tmp_path, None, [], seen.append)
    assert len(rounds) == len(seen) == run.MIN_ROUNDS


@pytest.mark.parametrize("name", ["paper-sweep", "game-fuzz"])
def test_traced_rounds_repeat_counts_and_outputs(name, tmp_path):
    workload = _tiny(name)
    workload.prepare(tmp_path)
    problems = []
    plain = workload.run_round(SEED, 0, tmp_path, None, problems)
    first = workload.run_round(SEED, 0, tmp_path, tracing.Tracer(), problems)
    second = workload.run_round(SEED, 0, tmp_path, tracing.Tracer(), problems)
    assert problems == []
    assert plain.digest == first.digest == second.digest
    assert first.counts == second.counts and first.amounts == second.amounts
    assert first.counts["schedule.optimal_schedule"] > 0
    assert first.counts["numerics.lambert_w0"] > 0
    # Only paper-sweep's round 0 runs the pool check, with a tracer of its own.
    assert (first.pool_result_bytes > 0) == (first.pool_wait_s > 0) == (name == "paper-sweep")
    assert "montecarlo.pool.result_bytes" not in first.amounts


def test_failed_sweep_counts_every_auction_failed(tmp_path, monkeypatch):
    workload = _tiny("paper-sweep")
    workload.prepare(tmp_path)
    monkeypatch.setattr(workloads.cli, "main", lambda argv: 2)
    problems = []
    rnd = workload.run_round(SEED, 0, tmp_path, None, problems)
    assert rnd.failed == rnd.auctions > 0
    assert problems == ["sweep exited 2 in round 0"]


def test_patched_package_is_restored():
    from relayauction import mechanisms, montecarlo

    before = (montecarlo.sample_instance, mechanisms.z_of_value, montecarlo.ProcessPoolExecutor)
    with tracing.patched(tracing.Tracer()):
        assert montecarlo.sample_instance is not before[0]
    assert (montecarlo.sample_instance, mechanisms.z_of_value, montecarlo.ProcessPoolExecutor) == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    child = tracer.span("child", lambda: sum(range(20000)))
    parent = tracer.span("parent", lambda: [child() for _ in range(5)])
    parent()
    assert tracer.calls == {"child": 5, "parent": 1}
    assert 0.0 < tracer.self_s["parent"] < tracer.self_s["child"]


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    from relayauction import cli

    argv = ["sweep", "--out", str(out), "--seed", "7", "--trials", str(SWEEP_TRIALS)]
    assert cli.main(argv) == 0
    return (out / "sweep.csv").read_text(), json.loads((out / "cells.json").read_text())


def _sweep_problems(csv_text, cells):
    return checks.sweep_problems(
        csv_text, cells, SWEEP_TRIALS, workloads.N_VALUES, workloads.LAMBDAS, ("cooperative", "mspoa")
    )


def test_sweep_outputs_pass(sweep_outputs):
    assert _sweep_problems(*sweep_outputs) == []


def test_altered_csv_cell_fails(sweep_outputs):
    csv_text, cells = sweep_outputs
    lines = csv_text.splitlines(keepends=True)
    fields = lines[5].split(",")
    fields[4] = repr(float(fields[4]) * (1.0 + 1e-12))
    lines[5] = ",".join(fields)
    assert any("disagrees" in p for p in _sweep_problems("".join(lines), cells))


def test_sweep_cells_match_recomputation_and_a_corrupted_mean_fails(sweep_outputs):
    csv_text, _ = sweep_outputs
    workload = _tiny("paper-sweep")
    assert workload.cell_problems(7, csv_text) == []
    n, lam = workload.checked_cell(7)
    # Alter the checked MSPOA cell's mean duration in the CSV only.
    lines = csv_text.splitlines(keepends=True)
    i = next(i for i, ln in enumerate(lines) if ln.startswith(f"mspoa,{n!r},{lam!r},"))
    fields = lines[i].split(",")
    fields[4] = repr(float(fields[4]) * (1.0 + 1e-6))
    lines[i] = ",".join(fields)
    problems = workload.cell_problems(7, "".join(lines))
    assert problems and all(p.startswith("CSV mean_t_s") for p in problems)


def test_nonzero_cooperative_harvest_fails(sweep_outputs):
    csv_text, cells = sweep_outputs
    cells = json.loads(json.dumps(cells))
    coop = next(c for c in cells["cells"] if c["mechanism"] == "cooperative")
    coop["mean_net_harvest_j"] = 1e-9
    assert any("cooperative harvest" in p for p in _sweep_problems(csv_text, cells))


def test_negative_mspoa_harvest_fails(sweep_outputs):
    csv_text, cells = sweep_outputs
    cells = json.loads(json.dumps(cells))
    mspoa = next(c for c in cells["cells"] if c["mechanism"] == "mspoa")
    mspoa["mean_net_harvest_j"] = -1e-9
    assert any("negative mean harvest" in p for p in _sweep_problems(csv_text, cells))


def test_broken_trend_fails(sweep_outputs):
    _, cells = sweep_outputs
    cells = [CellStats(**c) for c in cells["cells"]]
    # MSPOA harvest at the largest delay power below the smallest one's
    # breaks the delay-power part of gate (d).
    cells = [
        replace(c, mean_net_harvest_j=0.0) if (c.mechanism, c.n, c.lambda_w) == ("mspoa", 3, 100.0) else c
        for c in cells
    ]
    assert any(p.startswith("trend gate (d)") for p in checks.trend_problems(cells, SWEEP_TRIALS))


def _trial():
    inst = sample_instance(3, workloads.GEOM, workloads.CHAN, workloads.PARAMS, trial_rng(5, 3, 0))
    outcomes = {m: run_mechanism(m, inst, workloads.PARAMS) for m in ("cooperative", "spoa", "mspoa")}
    return inst, outcomes


def test_sampled_trial_passes_and_wrong_winner_fails():
    inst, outcomes = _trial()
    assert checks.trial_problems(inst, workloads.PARAMS, outcomes, "t") == []
    wrong = (outcomes["mspoa"].winner + 1) % (inst.n_candidates + 1)
    outcomes["mspoa"] = replace(outcomes["mspoa"], winner=wrong)
    assert any("winner" in p for p in checks.trial_problems(inst, workloads.PARAMS, outcomes, "t"))


def test_wrong_source_cost_fails():
    inst, outcomes = _trial()
    outcomes["cooperative"] = replace(
        outcomes["cooperative"], source_cost_ws=outcomes["cooperative"].source_cost_ws * 1.001
    )
    assert any("source cost" in p for p in checks.trial_problems(inst, workloads.PARAMS, outcomes, "t"))


def _fuzz():
    workload = _tiny("game-fuzz")
    cases = workload.cases(workloads.round_seed(SEED, 0), None)
    outcomes, failed = workload.settle(cases, None)
    assert failed == 0
    return cases, outcomes


def test_negative_mspoa_winner_utility_fails():
    cases, outcomes = _fuzz()
    assert checks.fuzz_problems(cases, outcomes) == []
    i = next(
        i for i, (c, outs) in enumerate(zip(cases, outcomes))
        if c.mechanism == "mspoa" and outs[0].winner == c.focal
    )
    truthful = outcomes[i][0]
    outcomes[i][0] = replace(truthful, payment_p_w=0.5 * truthful.payment_p_w)
    problems = checks.fuzz_problems(cases, outcomes)
    assert any("truthful mspoa winner loses" in p for p in problems)


def test_mspoa_payment_off_runner_score_fails():
    cases, outcomes = _fuzz()
    i, j = next(
        (i, j)
        for i, (c, outs) in enumerate(zip(cases, outcomes)) if c.mechanism == "mspoa"
        for j, o in enumerate(outs) if o.winner != 0
    )
    outcomes[i][j] = replace(outcomes[i][j], source_cost_ws=outcomes[i][j].source_cost_ws * (1 + 1e-6))
    assert any("runner-up score" in p for p in checks.fuzz_problems(cases, outcomes))


def test_witness_swapped_outcomes_fail():
    workload = _tiny("game-fuzz")
    assert workload.witness_problems(11) == []
    inst, params = verify.witness_instance()
    # A truthful profile's outcome in both slots: the "SPOA" winner does not lose.
    mspoa = run_mspoa(truthful_profile(inst, params), inst, params)
    assert checks.witness_problems(inst, params, mspoa, mspoa)


def test_kernel_checks_pass_and_catch_a_bad_solve():
    zs, us = _tiny("paper-sweep").kernel_inputs(SEED)
    metrics, problems, _ = kernelbench.measure(zs[:50], us[:20], min_s=0.01)
    assert problems == []
    assert all(v > 0 for v in metrics.values())
    xs = [1.0, 2.0]
    ws = [0.5671432904097838, 0.8526055020137255 * (1 + 1e-6)]
    assert checks.lambert_problems(xs, ws)
    assert checks.inverse_problems([(us[0][0] * 1.01, us[0][1])], [zs[0][0]])


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_layer_metrics_cover_spec(tmp_path):
    workload = _tiny("paper-sweep")
    workload.prepare(tmp_path)
    problems = []
    plain = [workload.run_round(SEED, 0, tmp_path, None, problems)]
    tracer = tracing.Tracer()
    traced = [workload.run_round(SEED, 0, tmp_path, tracer, problems)]
    setup = [{"setup_s": 1.0, "import_s": 0.5, "config.resolve_s": 0.1}]
    kernel = {
        "schedule.optimal_schedule.solves_per_s": 1.0,
        "schedule.z_of_value.inversions_per_s": 1.0,
        "numerics.lambert_w0.evals_per_s": 1.0,
    }
    metrics = run.layer_metrics(plain, traced, tracer, setup, kernel)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(v) for v in metrics.values())
    assert problems == []
