"""The three workloads: inputs from the seed, whole rounds, checked outputs.

A round is a fixed amount of work: one sweep of the default grid at
``trials`` per cell, or one pair of game-theoretic fuzzes. Round r draws its
inputs from ``round_seed(seed, r)``, so the same seed gives the same inputs
and no two rounds of a run repeat one another. Only the call that settles
the auctions is timed; drawing fuzz inputs and checking outputs are not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from relayauction import cli, verify
from relayauction.config import DEFAULT_CONFIG
from relayauction.mechanisms import (
    SOURCE,
    StrategyProfile,
    non_ic_witness,
    run_mspoa,
    run_spoa,
    sample_deviations,
    score,
    truthful_bid,
    truthful_profile,
)
from relayauction.montecarlo import (
    SweepConfig,
    aggregate,
    render_csv,
    run_mechanism,
    run_sweep,
    trial_rng,
)
from relayauction.scenario import ChannelConfig, GeometryConfig, sample_instance
from relayauction.schedule import SystemParams, value_of_z

from . import checks, tracing

N_VALUES = tuple(DEFAULT_CONFIG["sweep"]["n_values"])
LAMBDAS = tuple(float(v) for v in DEFAULT_CONFIG["sweep"]["lambda_values_w"])
GEOM = GeometryConfig()
CHAN = ChannelConfig()
PARAMS = SystemParams()

KERNEL_Z_INPUTS = 2000
KERNEL_U_INPUTS = 1000


def round_seed(seed: int, r: int) -> int:
    """Seed of round r of a run: a stable 64-bit hash of (seed, r)."""
    return int(np.random.SeedSequence((seed, r)).generate_state(1, np.uint64)[0])


@dataclass
class Round:
    """One round's work; counts and amounts are the tracer's deltas over the
    timed call (empty when untraced)."""

    auctions: int
    trial_lambdas: int
    timed_s: float
    failed: int = 0
    counts: Counter = field(default_factory=Counter)
    amounts: Counter = field(default_factory=Counter)
    output_bytes: int = 0
    digest: str = ""  # of the round's outputs; traced and untraced must agree
    pool_wait_s: float = 0.0  # traced round 0 of a sweep with a pool check
    pool_result_bytes: int = 0

    @property
    def rate(self) -> float:
        return self.auctions / self.timed_s


@contextlib.contextmanager
def _timed_call(tracer, result: dict):
    """Times the block; with a tracer, patches the package and records the
    tracer's count deltas."""
    calls = Counter(tracer.calls) if tracer else Counter()
    amounts = Counter(tracer.amounts) if tracer else Counter()
    patch = tracing.patched(tracer) if tracer else contextlib.nullcontext()
    with patch:
        t0 = time.perf_counter()
        yield
        result["timed_s"] = time.perf_counter() - t0
    if tracer:
        result["counts"] = tracer.calls - calls
        result["amounts"] = tracer.amounts - amounts


def evenly(items: list, limit: int) -> list:
    if len(items) <= limit:
        return items
    step = len(items) / limit
    return [items[int(i * step)] for i in range(limit)]


@dataclass(frozen=True)
class SweepWorkload:
    """``relayauction sweep`` on the default grid with the given mechanisms,
    at 1 job. With ``pool_jobs``, round 0 also runs its sweep untimed
    through montecarlo's process pool (see ``pool_problems``)."""

    mechanisms: tuple[str, ...]
    pool_jobs: int = 0
    trials: int = 512
    sampled_trials: int = 4  # per cell and round, checked against the oracle

    def prepare(self, work_dir: Path) -> None:
        config = {"sweep": {"mechanisms": list(self.mechanisms)}}
        (work_dir / "config.json").write_text(json.dumps(config))
        warm = SweepConfig(n_values=(1, 2), trials=4, mechanisms=self.mechanisms)
        run_sweep(warm, GEOM, CHAN, PARAMS)

    def run_round(self, seed: int, r: int, work_dir: Path, tracer, problems: list) -> Round:
        rs = round_seed(seed, r)
        out = work_dir / f"round-{r}"
        argv = [
            "sweep", "--config", str(work_dir / "config.json"), "--out", str(out),
            "--seed", str(rs), "--trials", str(self.trials), "--jobs", "1",
        ]
        timing: dict = {}
        with _timed_call(tracer, timing), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        trial_lambdas = self.trials * len(N_VALUES) * len(LAMBDAS)
        rnd = Round(trial_lambdas * len(self.mechanisms), trial_lambdas, **timing)
        if code != 0:
            problems.append(f"sweep exited {code} in round {r}")
            rnd.failed = rnd.auctions
            return rnd
        csv_text = (out / "sweep.csv").read_text()
        cells = json.loads((out / "cells.json").read_text())
        rnd.output_bytes = len(csv_text.encode()) + (out / "cells.json").stat().st_size
        rnd.digest = hashlib.sha256(csv_text.encode()).hexdigest()
        shutil.rmtree(out)
        problems += checks.sweep_problems(
            csv_text, cells, self.trials, N_VALUES, LAMBDAS, self.mechanisms
        )
        problems += self.cell_problems(rs, csv_text)
        problems += self.sampled_trial_problems(rs)
        if self.pool_jobs and r == 0:
            problems += self.pool_problems(rs, csv_text, rnd, tracer is not None)
        return rnd

    def pool_problems(self, rs: int, csv_text: str, rnd: Round, traced: bool) -> list[str]:
        """The round's sweep again at ``pool_jobs`` workers: its CSV must
        equal the 1-job CSV byte for byte. Traced, a tracer of its own
        records the parent's wait for chunk results and the bytes of the
        chunk arrays the pool returns."""
        cfg = SweepConfig(trials=self.trials, seed=rs, mechanisms=self.mechanisms)
        tracer = tracing.Tracer() if traced else None
        with tracing.patched(tracer) if tracer else contextlib.nullcontext():
            pooled = render_csv(run_sweep(cfg, GEOM, CHAN, PARAMS, n_jobs=self.pool_jobs))
        if tracer:
            rnd.pool_wait_s = tracer.self_s["montecarlo.pool.wait"]
            rnd.pool_result_bytes = tracer.amounts["montecarlo.pool.result_bytes"]
        return [] if pooled == csv_text else [f"{self.pool_jobs}-job CSV differs from the 1-job CSV"]

    def _sampled(self, rs: int, n: int) -> list[int]:
        pick = np.random.default_rng((rs, n)).choice(self.trials, size=self.sampled_trials, replace=False)
        return sorted(int(k) for k in pick)

    def checked_cell(self, rs: int) -> tuple[int, float]:
        """The (n, lambda) whose cells round seed rs recomputes."""
        pick = np.random.default_rng((rs, 2))
        return int(pick.choice(N_VALUES)), float(pick.choice(LAMBDAS))

    def cell_problems(self, rs: int, csv_text: str) -> list[str]:
        """One seeded (n, lambda) per round, every mechanism: all its trials
        rebuilt from the sweep's per-trial streams, settled one auction at a
        time and aggregated, against the sweep's CSV rows; the sampled
        trials of that recomputation against the golden-section oracle."""
        n, lam = self.checked_cell(rs)
        params = replace(PARAMS, lambda_w=lam)
        insts = [sample_instance(n, GEOM, CHAN, PARAMS, trial_rng(rs, n, k)) for k in range(self.trials)]
        outcomes = {m: [run_mechanism(m, inst, params) for inst in insts] for m in self.mechanisms}
        recomputed = [aggregate(outs, insts, n, lam, m) for m, outs in outcomes.items()]
        problems = checks.cell_problems(csv_text, recomputed)
        for k in self._sampled(rs, n):
            where = f"seed={rs} n={n} trial={k} lambda={lam}"
            trial = {m: outs[k] for m, outs in outcomes.items()}
            problems += checks.trial_problems(insts[k], params, trial, where)
        return problems

    def sampled_trial_problems(self, rs: int) -> list[str]:
        """Sampled trials of every cell, rebuilt from the sweep's own per-trial
        streams and settled again, against the golden-section oracle."""
        problems = []
        for n in N_VALUES:
            for k in self._sampled(rs, n):
                inst = sample_instance(n, GEOM, CHAN, PARAMS, trial_rng(rs, n, k))
                for lam in LAMBDAS:
                    params = replace(PARAMS, lambda_w=lam)
                    outcomes = {m: run_mechanism(m, inst, params) for m in self.mechanisms}
                    where = f"seed={rs} n={n} trial={k} lambda={lam}"
                    problems += checks.trial_problems(inst, params, outcomes, where)
        return problems

    def kernel_inputs(self, seed: int) -> tuple[list, list]:
        """Candidate channels and runner-up scores of round 0's sampled trials."""
        rs = round_seed(seed, 0)
        zs, us = [], []
        for n in N_VALUES:
            for k in range(0, self.trials, max(1, self.trials // 16)):
                inst = sample_instance(n, GEOM, CHAN, PARAMS, trial_rng(rs, n, k))
                for lam in LAMBDAS:
                    params = replace(PARAMS, lambda_w=lam)
                    bidders = [inst.z0_w] + [float(z) for z in inst.z_w]
                    zs += [(z, params) for z in bidders]
                    values = [value_of_z(z, params) for z in bidders]
                    order = sorted(range(len(values)), key=lambda i: values[i])
                    if order[0] != SOURCE:
                        us.append((values[order[1]], params))
        return evenly(zs, KERNEL_Z_INPUTS), evenly(us, KERNEL_U_INPUTS)


@dataclass
class FuzzCase:
    """One fuzz instance: profiles[0] has the focal bidder truthful, the rest
    swap in one deviation each."""

    mechanism: str
    label: str
    inst: object
    params: SystemParams
    focal: int
    profiles: list


def _swap(profile: StrategyProfile, bid) -> StrategyProfile:
    return StrategyProfile(tuple(bid if b.bidder == bid.bidder else b for b in profile.bids))


@dataclass(frozen=True)
class FuzzWorkload:
    """Acceptance criteria 4-5 at reduced scale, with the eps-witness.

    Instance k has n = 2 + k % 4 candidates, delay power and cap cycling
    through {0.1, 1, 10, 100} W x {1, 10} W, as in the verify suite. The IC
    fuzz faces opponents that bid the witness construction; the NE fuzz
    faces truthful opponents.
    """

    mechanisms: tuple[str, ...] = ("spoa", "mspoa")
    # Per fuzz and round: a round of about 3 s, like a sweep round, so that
    # the slowest round averages over the host's sub-second jitter.
    instances: int = 250
    deviations: int = 100

    def prepare(self, work_dir: Path) -> None:
        warm = replace(self, instances=1)
        warm.settle(warm.cases(round_seed(0, 0), None), None)

    def cases(self, rs: int, tracer) -> list[FuzzCase]:
        rng_for = tracer.span("montecarlo.trial_rng", trial_rng) if tracer else trial_rng
        sample = tracer.span("scenario.sample_instance", sample_instance) if tracer else sample_instance
        truthful = tracer.span("mechanisms.truthful_profile", truthful_profile) if tracer else truthful_profile
        out = []
        for f, mech in enumerate(("mspoa", "spoa")):
            for k in range(self.instances):
                n = 2 + k % 4
                params = SystemParams(
                    lambda_w=(0.1, 1.0, 10.0, 100.0)[(k // 4) % 4], p_max_w=(1.0, 10.0)[(k // 16) % 2]
                )
                rng = rng_for(rs, n, f * self.instances + k)
                inst = sample(n, GEOM, CHAN, params, rng)
                focal = 1 + k % n
                if mech == "mspoa":
                    bids = [truthful_bid(inst.z0_w, params, SOURCE)]
                    for j, z in enumerate(inst.z_w, start=1):
                        if j == focal:
                            bids.append(truthful_bid(float(z), params, j))
                        else:
                            bids.append(sample_deviations(float(z), params, 1, rng, bidder=j)[0])
                    profile = StrategyProfile(tuple(bids))
                else:
                    profile = truthful(inst, params)
                devs = sample_deviations(float(inst.z_w[focal - 1]), params, self.deviations, rng, bidder=focal)
                profiles = [profile] + [_swap(profile, d) for d in devs]
                label = f"{mech} seed={rs} instance={k}"
                out.append(FuzzCase(mech, label, inst, params, focal, profiles))
        return out

    def settle(self, cases: list[FuzzCase], tracer) -> tuple[list, int]:
        runners = {"spoa": run_spoa, "mspoa": run_mspoa}
        if tracer:
            runners = {m: tracer.span(f"mechanisms.run_{m}", fn) for m, fn in runners.items()}
        outcomes, failed = [], 0
        for case in cases:
            run = runners[case.mechanism]
            outs = []
            for profile in case.profiles:
                try:
                    outs.append(run(profile, case.inst, case.params))
                except Exception:  # one failed auction; the fuzz goes on
                    traceback.print_exc(file=sys.stderr)
                    outs.append(None)
                    failed += 1
            outcomes.append(outs)
        return outcomes, failed

    def run_round(self, seed: int, r: int, work_dir: Path, tracer, problems: list) -> Round:
        rs = round_seed(seed, r)
        cases = self.cases(rs, tracer)
        timing: dict = {}
        with _timed_call(tracer, timing):
            outcomes, failed = self.settle(cases, tracer)
        auctions = sum(len(c.profiles) for c in cases)
        problems += checks.fuzz_problems(cases, outcomes)
        problems += self.witness_problems(rs)
        digest = hashlib.sha256()
        for outs in outcomes:
            for out in outs:
                digest.update(repr(out).encode())
        return Round(auctions, len(cases), failed=failed, digest=digest.hexdigest(), **timing)

    def witness_problems(self, rs: int) -> list[str]:
        """verify's witness profile (z0 = 10, z = (1, 2), eps1 = 1.5 on z = 2)
        at a seeded scale c: costs scale by c and durations do not, so the
        signs of the winner's utilities must hold at every c."""
        c = float(10.0 ** np.random.default_rng((rs, 1)).uniform(-2.0, 2.0))
        inst, params = verify.witness_instance()
        params = replace(params, lambda_w=c * params.lambda_w, p_max_w=c * params.p_max_w)
        inst = replace(inst, z0_w=c * inst.z0_w, z_w=c * inst.z_w)
        profile = StrategyProfile(
            (
                truthful_bid(inst.z0_w, params, SOURCE),
                truthful_bid(float(inst.z_w[0]), params, 1),
                non_ic_witness(float(inst.z_w[1]), params, eps1=0.75 * float(inst.z_w[1]), bidder=2),
            )
        )
        return checks.witness_problems(
            inst, params, run_spoa(profile, inst, params), run_mspoa(profile, inst, params)
        )

    def kernel_inputs(self, seed: int) -> tuple[list, list]:
        """Candidate channels of round 0's instances and the runner-up scores
        its auctions settled on (arbitrary bids included)."""
        cases = self.cases(round_seed(seed, 0), None)
        outcomes, _ = self.settle(cases, None)
        zs, us = [], []
        for case, outs in zip(cases, outcomes):
            zs += [(z, case.params) for z in [case.inst.z0_w] + [float(z) for z in case.inst.z_w]]
            for profile, out in zip(case.profiles, outs):
                if out is not None and out.winner != SOURCE:
                    runner = next(b for b in profile.bids if b.bidder == out.runner_up)
                    us.append((score(runner, case.params), case.params))
        return evenly(zs, KERNEL_Z_INPUTS), evenly(us, KERNEL_U_INPUTS)


def build(name: str, nproc: int):
    if name == "paper-sweep":
        return SweepWorkload(("cooperative", "mspoa"), pool_jobs=max(2, nproc))
    if name == "spoa-sweep":
        return SweepWorkload(("cooperative", "spoa"))
    if name == "game-fuzz":
        return FuzzWorkload()
    raise ValueError(f"unknown workload {name!r}")
