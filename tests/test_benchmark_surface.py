"""The package names the benchmark in ``perfbench/`` imports, wraps and reads.

``perfbench/tests`` runs whole benchmark rounds and is too slow for the
default suite, so a renamed function or module would otherwise break the
benchmark unnoticed. This imports its modules, installs every span and
counter its tracer pins on the package, and reads its host facts.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import kernelbench, run, tracing, workloads  # noqa: E402,F401


def test_tracer_pins_exist_and_host_facts_read():
    import relayauction

    # The tracer imports the kernel as _kernel_py and patches it there.
    assert relayauction._kernel_py is relayauction.kernel
    with tracing.patched(tracing.Tracer()):
        pass
    assert run.host_facts()["nproc"] >= 1


def test_kernel_micro_benchmark_runs_clean_on_real_inputs():
    # kernelbench calls kernel.lambert_w0 with all four of its arguments.
    import numpy as np

    from relayauction.scenario import ChannelConfig, GeometryConfig, sample_instance
    from relayauction.schedule import SystemParams, value_of_z

    params = SystemParams()
    inst = sample_instance(4, GeometryConfig(), ChannelConfig(), params, np.random.default_rng(3))
    zs = [(float(z), params) for z in (inst.z0_w, *inst.z_w)]
    us = [(value_of_z(z, p), p) for z, p in zs]
    metrics, problems, _ = kernelbench.measure(zs, us, min_s=0.01)
    assert problems == []
    assert all(rate > 0.0 for rate in metrics.values())


def test_traced_sweep_calls_what_the_layer_metrics_divide_by():
    # perfbench/run.py --trace 1 divides by these counts.
    from relayauction.montecarlo import SweepConfig, run_sweep
    from relayauction.scenario import ChannelConfig, GeometryConfig
    from relayauction.schedule import SystemParams

    cfg = SweepConfig(n_values=(1, 2), trials=8, mechanisms=("cooperative", "mspoa"))
    with tracing.patched(tracing.Tracer()) as tracer:
        run_sweep(cfg, GeometryConfig(), ChannelConfig(), SystemParams())
    for name in ("scenario.sample_instance", "schedule.optimal_schedule", "numerics.lambert_w0"):
        assert tracer.calls[name] > 0, name


def test_traced_mspoa_candidate_win_calls_what_game_fuzz_counts():
    # game-fuzz's per-auction z_of_value calls and Lambert solves come from
    # these names: MSPOA looks both schedule calls up in mechanisms, once
    # per runner-up bid that has not yet set a payment under these params,
    # and the kernel solves through _lambert_core.
    from relayauction import verify
    from relayauction.mechanisms import StrategyProfile, run_mspoa, truthful_bid, truthful_profile

    inst, params = verify.witness_instance()
    profile = truthful_profile(inst, params)
    # Candidate 1 deviates; the runner-up is the same bid object.
    deviated = StrategyProfile((*profile.bids[:1], truthful_bid(1.5, params, 1), *profile.bids[2:]))
    with tracing.patched(tracing.Tracer()) as tracer:
        out = run_mspoa(profile, inst, params)
        first = tracer.calls.copy()
        again = run_mspoa(deviated, inst, params)
    assert out.winner == 1
    assert tracer.calls["schedule.z_of_value"] == 1
    assert tracer.calls["schedule.optimal_schedule"] == 1
    assert tracer.calls["numerics.lambert_w0"] > 0
    assert (again.winner, again.runner_up) == (1, 2) and tracer.calls == first


def test_traced_mspoa_cap_bound_win_still_makes_the_counted_calls():
    # A cap-bound candidate win still calls z_of_value and optimal_schedule
    # once each, but solves no Lambert W: the inversion solves its own rate
    # equation, and the kernel decides a clearly capped schedule unsolved.
    from dataclasses import replace

    import numpy as np

    from relayauction import verify
    from relayauction.mechanisms import run_mspoa, truthful_profile

    inst, params = verify.witness_instance()
    inst = replace(inst, z0_w=1e4, z_w=np.array([100.0, 200.0]))
    profile = truthful_profile(inst, params)
    with tracing.patched(tracing.Tracer()) as tracer:
        out = run_mspoa(profile, inst, params)
    assert out.winner == 1 and out.payment_p_w == params.p_max_w
    assert tracer.calls["schedule.z_of_value"] == 1
    assert tracer.calls["schedule.optimal_schedule"] == 1
    assert tracer.calls["numerics.lambert_w0"] == 0


def test_traced_sweep_samples_each_trial_once():
    # perfbench/run.py divides scenario.sample_instance's self time by this
    # count to report microseconds per trial, so it must be one call per
    # (n, trial), at one job as in the benchmark.
    from relayauction.montecarlo import SweepConfig, run_sweep
    from relayauction.scenario import ChannelConfig, GeometryConfig
    from relayauction.schedule import SystemParams

    cfg = SweepConfig(n_values=(1, 3, 5), trials=7, mechanisms=("cooperative", "spoa"))
    with tracing.patched(tracing.Tracer()) as tracer:
        run_sweep(cfg, GeometryConfig(), ChannelConfig(), SystemParams())
    assert tracer.calls["scenario.sample_instance"] == cfg.trials * len(cfg.n_values)
