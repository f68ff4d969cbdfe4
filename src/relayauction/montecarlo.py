"""Seeded sweep runner over candidate counts and delay powers.

Per-trial RNG streams are derived from (root seed, n, trial) alone, so a
trial's ScenarioInstance is shared by every delay power and every mechanism
(common random numbers), results never depend on execution order or worker
count, and reruns are byte-identical.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .mechanisms import (
    AuctionOutcome,
    StrategyProfile,
    cooperative_baseline,
    run_mspoa,
    run_spoa,
    truthful_profile,
)
from .scenario import ChannelConfig, GeometryConfig, ScenarioInstance, sample_instance
from .schedule import SystemParams

MECHANISMS = ("cooperative", "spoa", "mspoa")
CELLS_FORMAT = "relayauction/sweep-cells"
RECORD_VERSION = 1

CSV_HEADER = (
    "mechanism,n,lambda_w,trials,mean_t_s,std_err_t_s,"
    "mean_energy_db_mj,std_err_energy_db_mj,mean_net_harvest_j,"
    "std_err_net_harvest_j,win_rate_source"
)

_CHUNK = 256  # trials per work unit; fixed so job count cannot affect results


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    lambda_values_w: tuple[float, ...] = (1.0, 10.0, 100.0)
    trials: int = 5000
    seed: int = 20260808
    mechanisms: tuple[str, ...] = ("cooperative", "mspoa")

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "lambda_values_w", tuple(float(v) for v in self.lambda_values_w))
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.n_values or not self.lambda_values_w:
            raise ValueError("n_values and lambda_values_w must be non-empty")
        if any(n < 1 for n in self.n_values):
            raise ValueError("every n must be at least 1")
        if not all(0.0 < v < math.inf for v in self.lambda_values_w):
            raise ValueError("every delay power must be strictly positive and finite")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        unknown = set(self.mechanisms) - set(MECHANISMS)
        if unknown or not self.mechanisms:
            raise ValueError(f"mechanisms must be a non-empty subset of {MECHANISMS}")


@dataclass(frozen=True)
class CellStats:
    """Aggregates for one (n, lambda_w, mechanism) cell.

    mean_energy_db_mj is 10*log10 of the MEAN source transmit energy in mJ
    (not the mean of per-trial dB values); its standard error is the
    delta-method propagation (10/ln10)*se/mean. mean_net_harvest_j averages
    the winner's net harvested energy over all trials, zeros included.
    """

    n: int
    lambda_w: float
    mechanism: str
    mean_t_s: float
    mean_energy_db_mj: float
    mean_net_harvest_j: float
    win_rate_source: float
    trials: int
    std_err_t_s: float
    std_err_energy_db_mj: float
    std_err_net_harvest_j: float

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "lambda_w": self.lambda_w,
            "mechanism": self.mechanism,
            "mean_t_s": self.mean_t_s,
            "mean_energy_db_mj": self.mean_energy_db_mj,
            "mean_net_harvest_j": self.mean_net_harvest_j,
            "win_rate_source": self.win_rate_source,
            "trials": self.trials,
            "std_err_t_s": self.std_err_t_s,
            "std_err_energy_db_mj": self.std_err_energy_db_mj,
            "std_err_net_harvest_j": self.std_err_net_harvest_j,
        }

    def csv_row(self) -> str:
        return ",".join(
            [
                self.mechanism,
                repr(self.n),
                repr(self.lambda_w),
                repr(self.trials),
                repr(self.mean_t_s),
                repr(self.std_err_t_s),
                repr(self.mean_energy_db_mj),
                repr(self.std_err_energy_db_mj),
                repr(self.mean_net_harvest_j),
                repr(self.std_err_net_harvest_j),
                repr(self.win_rate_source),
            ]
        )


def trial_rng(seed: int, n: int, trial: int) -> np.random.Generator:
    """The per-trial stream: a stable hash-split of (seed, n, trial)."""
    return np.random.default_rng((seed, n, trial))


def run_mechanism(
    mechanism: str, inst: ScenarioInstance, params: SystemParams
) -> AuctionOutcome:
    """Run one mechanism under truthful bidding (dominant play for MSPOA)."""
    return _settle(mechanism, truthful_profile(inst, params), inst, params)


def _settle(
    mechanism: str, profile: StrategyProfile, inst: ScenarioInstance, params: SystemParams
) -> AuctionOutcome:
    # The rules are looked up as module globals on every call, so a wrapper
    # installed on this module (a traced run's span) sees each settlement.
    if mechanism == "cooperative":
        return cooperative_baseline(profile, inst, params)
    if mechanism == "spoa":
        return run_spoa(profile, inst, params)
    if mechanism == "mspoa":
        return run_mspoa(profile, inst, params)
    raise ValueError(f"unknown mechanism {mechanism!r}")


def _outcome_metrics(outcome: AuctionOutcome) -> tuple[float, float, float, float]:
    return (
        outcome.payment_t_s,
        outcome.payment_t_s * outcome.payment_p_w,
        outcome.winner_net_energy_j,
        1.0 if outcome.winner == 0 else 0.0,
    )


def _trial_chunk(
    seed: int,
    n: int,
    lo: int,
    hi: int,
    lambdas: tuple[float, ...],
    mechanisms: tuple[str, ...],
    geom: GeometryConfig,
    chan: ChannelConfig,
    params: SystemParams,
) -> np.ndarray:
    out = np.empty((hi - lo, len(lambdas), len(mechanisms), 4))
    cell_params = [replace(params, lambda_w=lam) for lam in lambdas]
    for k in range(lo, hi):
        inst = sample_instance(n, geom, chan, params, trial_rng(seed, n, k))
        for j, cell in enumerate(cell_params):
            profile = truthful_profile(inst, cell)
            for m, mech in enumerate(mechanisms):
                out[k - lo, j, m] = _outcome_metrics(_settle(mech, profile, inst, cell))
    return out


def _stats_from_metrics(
    metrics: np.ndarray, n: int, lambda_w: float, mechanism: str
) -> CellStats:
    trials = len(metrics)
    t = metrics[:, 0]
    e = metrics[:, 1]
    h = metrics[:, 2]
    mean_t = float(np.mean(t))
    mean_e = float(np.mean(e))
    if trials > 1:
        se_t = float(np.std(t, ddof=1)) / math.sqrt(trials)
        se_e = float(np.std(e, ddof=1)) / math.sqrt(trials)
        se_h = float(np.std(h, ddof=1)) / math.sqrt(trials)
    else:
        se_t = 0.0
        se_e = 0.0
        se_h = 0.0
    return CellStats(
        n=n,
        lambda_w=lambda_w,
        mechanism=mechanism,
        mean_t_s=mean_t,
        mean_energy_db_mj=10.0 * math.log10(mean_e * 1e3),
        mean_net_harvest_j=float(np.mean(h)),
        win_rate_source=float(np.mean(metrics[:, 3])),
        trials=trials,
        std_err_t_s=se_t,
        std_err_energy_db_mj=(10.0 / math.log(10.0)) * se_e / mean_e,
        std_err_net_harvest_j=se_h,
    )


def aggregate(
    outcomes: list[AuctionOutcome],
    inst_refs: list[ScenarioInstance],
    n: int,
    lambda_w: float,
    mechanism: str,
) -> CellStats:
    """Fold per-trial outcomes into one CellStats row."""
    if not outcomes:
        raise ValueError("cannot aggregate zero outcomes")
    if len(outcomes) != len(inst_refs):
        raise ValueError("outcomes and instances must align")
    metrics = np.array([_outcome_metrics(o) for o in outcomes])
    return _stats_from_metrics(metrics, n, lambda_w, mechanism)


def run_sweep(
    cfg: SweepConfig,
    geom: GeometryConfig,
    chan: ChannelConfig,
    params: SystemParams,
    n_jobs: int = 1,
) -> list[CellStats]:
    """One CellStats per (n, lambda, mechanism), deterministic for a seed.

    Work is split into fixed-size trial chunks; with n_jobs > 1 the chunks
    run in worker processes and land in a preallocated array by index, so
    the output is identical for any job count.
    """
    mechanisms = tuple(m for m in MECHANISMS if m in cfg.mechanisms)
    lambdas = cfg.lambda_values_w
    chunks = [
        (n, lo, min(lo + _CHUNK, cfg.trials))
        for n in cfg.n_values
        for lo in range(0, cfg.trials, _CHUNK)
    ]
    results: dict[int, np.ndarray] = {}
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = [
                pool.submit(_trial_chunk, cfg.seed, n, lo, hi, lambdas, mechanisms, geom, chan, params)
                for (n, lo, hi) in chunks
            ]
            for idx, fut in enumerate(futures):
                results[idx] = fut.result()
    else:
        for idx, (n, lo, hi) in enumerate(chunks):
            results[idx] = _trial_chunk(cfg.seed, n, lo, hi, lambdas, mechanisms, geom, chan, params)

    cells: list[CellStats] = []
    for n in cfg.n_values:
        rows = [results[i] for i, (cn, _, _) in enumerate(chunks) if cn == n]
        metrics = np.concatenate(rows)  # (trials, n_lam, n_mech, 4) in trial order
        for j, lam in enumerate(lambdas):
            for m, mech in enumerate(mechanisms):
                cells.append(_stats_from_metrics(metrics[:, j, m], n, lam, mech))
    return cells


def render_csv(cells: list[CellStats]) -> str:
    """CSV rendering with repr-format floats (shortest round-trip, stable)."""
    lines = [CSV_HEADER]
    lines += [c.csv_row() for c in cells]
    return "\n".join(lines) + "\n"


def write_csv(cells: list[CellStats], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(render_csv(cells))


def cells_record(cells: list[CellStats]) -> dict:
    return {
        "format": CELLS_FORMAT,
        "version": RECORD_VERSION,
        "cells": [c.to_record() for c in cells],
    }
