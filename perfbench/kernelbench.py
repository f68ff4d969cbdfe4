"""Kernel micro-throughputs on a workload's own traffic, with checked outputs.

Inputs are real candidate channels (with the delay power and cap of the
auction they came from) and real runner-up scores, so the throughputs weigh
the cap branch, the Lambert solve and the inversion as the workload does.
"""

from __future__ import annotations

import time

from relayauction import kernel
from relayauction.numerics import DEFAULT_TOL
from relayauction.schedule import optimal_schedule, z_of_value

from . import checks
from .workloads import evenly

_INV_E = 0.36787944117144233  # 1/e as the schedule kernel rounds it
ORACLE_POINTS = 100


def _rate(fn, arg_tuples: list, min_s: float) -> float:
    """Calls per second over whole passes through the inputs."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        for args in arg_tuples:
            fn(*args)
        calls += len(arg_tuples)
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return calls / elapsed


def measure(zs: list, us: list, min_s: float = 0.25) -> tuple[dict, list, list]:
    """(metrics, problems, notes) for (z, params) and (u, params) inputs."""
    tol = (DEFAULT_TOL.abs_tol, DEFAULT_TOL.rel_tol, DEFAULT_TOL.max_iter)
    # The Lambert argument optimal_schedule hands the solver for each channel.
    lambert_args = [((p.lambda_w / z - 1.0) * _INV_E, *tol) for z, p in zs]
    metrics = {
        "numerics.lambert_w0.evals_per_s": _rate(kernel.lambert_w0, lambert_args, min_s),
        "schedule.optimal_schedule.solves_per_s": _rate(optimal_schedule, zs, min_s),
        "schedule.z_of_value.inversions_per_s": _rate(z_of_value, us, min_s),
    }
    xs = [args[0] for args in lambert_args]
    problems = checks.lambert_problems(xs, [kernel.lambert_w0(*args) for args in lambert_args])
    probe = evenly(zs, ORACLE_POINTS)
    problems += checks.schedule_problems(probe, [optimal_schedule(z, p).cost_ws for z, p in probe])
    problems += checks.inverse_problems(us, [z_of_value(u, p) for u, p in us])
    notes = []
    try:
        from relayauction import _kernel as compiled
    except ImportError:
        notes.append("compiled kernel not importable: backend agreement not checked")
    else:
        problems += checks.backend_problems(compiled, zs, us)
    return metrics, problems, notes
