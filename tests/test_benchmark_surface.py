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
    with tracing.patched(tracing.Tracer()):
        pass
    assert run.host_facts()["nproc"] >= 1


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
    # per candidate win, and the kernel solves through _lambert_core.
    from relayauction import verify
    from relayauction.mechanisms import run_mspoa, truthful_profile

    inst, params = verify.witness_instance()
    profile = truthful_profile(inst, params)
    with tracing.patched(tracing.Tracer()) as tracer:
        out = run_mspoa(profile, inst, params)
    assert out.winner == 1
    assert tracer.calls["schedule.z_of_value"] == 1
    assert tracer.calls["schedule.optimal_schedule"] == 1
    assert tracer.calls["numerics.lambert_w0"] > 0
