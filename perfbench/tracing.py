"""Spans and counters around the package's public calls, for traced runs.

A span replaces one module attribute for the length of a traced run, in the
module that looks the callee up: ``montecarlo.sample_instance`` is the name
the chunk loop calls, ``mechanisms.z_of_value`` the one MSPOA calls. The
package itself is not edited. Spans fold into per-name totals as they close
(self time = duration minus the time covered by child spans), so a traced
sweep of a few million spans keeps flat memory; totals are read when the
run ends.

Sweep chunks that run in worker processes are traced there too: the traced
pool ships each chunk through ``_in_worker``, which returns the worker's
totals with the chunk's result, and the parent merges them. Worker self
times are CPU-seconds summed over workers.
"""

from __future__ import annotations

import functools
import multiprocessing
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager


class Tracer:
    """Per-name self time, call counts and byte amounts."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.amounts: Counter = Counter()
        self._open = [0.0]  # child time covered so far, one slot per open span

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.amounts.clear()
        self._open = [0.0]

    def totals(self) -> tuple[dict, dict, dict]:
        return dict(self.self_s), dict(self.calls), dict(self.amounts)

    def merge(self, totals: tuple[dict, dict, dict]) -> None:
        self_s, calls, amounts = totals
        for name, value in self_s.items():
            self.self_s[name] += value
        self.calls.update(calls)
        self.amounts.update(amounts)

    def span(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_ = self._open
            open_.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self_s[name] += dt - open_.pop()
                calls[name] += 1
                open_[-1] += dt
            return result

        traced.tracer = self
        return traced

    def counter(self, name: str, fn):
        """``fn`` counted under ``name``; its time stays with the caller's span."""
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted


def _in_worker(fn, *args):
    # fn is the traced chunk loop, pickled by name and resolved in the forked
    # worker to the worker's copy of the wrapper and of its tracer.
    tracer = fn.tracer
    tracer.reset()
    result = fn(*args)
    return result, tracer.totals()


class _TracedFuture:
    def __init__(self, inner, wait, tracer):
        self._inner = inner
        self._wait = wait
        self._tracer = tracer

    def result(self, timeout=None):
        chunk, totals = self._wait(self._inner, timeout)
        self._tracer.merge(totals)
        self._tracer.amounts["montecarlo.pool.result_bytes"] += chunk.nbytes
        return chunk


class TracedPool(ProcessPoolExecutor):
    """The sweep's process pool with the parent's wait for results traced
    and the size of the returned chunk arrays counted.

    Workers are forked explicitly so they inherit the patched modules
    whatever the interpreter's default start method is.
    """

    def __init__(self, tracer: Tracer, max_workers=None):
        super().__init__(max_workers=max_workers, mp_context=multiprocessing.get_context("fork"))
        self._tracer = tracer
        self._wait = tracer.span("montecarlo.pool.wait", lambda fut, timeout: fut.result(timeout))

    def submit(self, fn, /, *args, **kwargs):
        inner = super().submit(_in_worker, fn, *args, **kwargs)
        return _TracedFuture(inner, self._wait, self._tracer)


@contextmanager
def patched(tracer: Tracer):
    """Install spans and counters on the package for the length of a block."""
    from relayauction import _kernel_py, cli, mechanisms, montecarlo

    spans = [
        (montecarlo, "trial_rng", "montecarlo.trial_rng"),
        (montecarlo, "sample_instance", "scenario.sample_instance"),
        (montecarlo, "_trial_chunk", "montecarlo.chunk_loop"),
        (montecarlo, "_stats_from_metrics", "montecarlo.aggregate"),
        (montecarlo, "cooperative_baseline", "mechanisms.cooperative_baseline"),
        (montecarlo, "truthful_profile", "mechanisms.truthful_profile"),
        (montecarlo, "run_spoa", "mechanisms.run_spoa"),
        (montecarlo, "run_mspoa", "mechanisms.run_mspoa"),
        (mechanisms, "optimal_schedule", "schedule.optimal_schedule"),
        (mechanisms, "value_of_z", "schedule.value_of_z"),
        (mechanisms, "z_of_value", "schedule.z_of_value"),
        (cli, "cmd_sweep", "cli.write"),
        (cli, "run_sweep", "montecarlo.run_sweep"),
        (cli, "load_config", "config.resolve"),
        (cli, "resolve_config", "config.resolve"),
    ]
    # Python backend only: the compiled kernel makes these calls in C.
    counters = [
        (_kernel_py, "_lambert_core", "numerics.lambert_w0"),
        (_kernel_py, "value", "schedule.z_of_value.value_eval"),
    ]
    saved = []
    try:
        for module, attr, name in spans:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.span(name, getattr(module, attr)))
        for module, attr, name in counters:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.counter(name, getattr(module, attr)))
        saved.append((montecarlo, "ProcessPoolExecutor", montecarlo.ProcessPoolExecutor))
        montecarlo.ProcessPoolExecutor = functools.partial(TracedPool, tracer)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
