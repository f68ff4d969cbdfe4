"""Seeded sweep runner over candidate counts and delay powers.

Per-trial RNG streams are derived from (root seed, n, trial) alone, so a
trial's ScenarioInstance is shared by every delay power and every mechanism
(common random numbers), results never depend on execution order or worker
count, and reruns are byte-identical.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .jsonio import check_fields
from .mechanisms import (
    AuctionOutcome,
    cooperative_baseline,
    run_mspoa,
    run_spoa,
    settle,
    truthful_profile,
)
from .numerics import ConvergenceError
from .scenario import (
    ChannelConfig,
    GeometryConfig,
    SamplingExhausted,
    ScenarioInstance,
    _path_loss_constants,
    sample_instance,
)
from .schedule import SystemParams, optimal_schedules

MECHANISMS = ("cooperative", "spoa", "mspoa")
CELLS_FORMAT = "relayauction/sweep-cells"
RECORD_VERSION = 1

_CHUNK = 256  # trials per work unit; fixed so job count cannot affect results
# A sweep's work bound: at most MAX_INSTANCES sampled instances, trials x
# |n_values|, 100 times the default grid's (their results are held in
# memory, 32 bytes per auction), each with at most MAX_N candidates. Every
# trial index and n is then below 2**32, one SeedSequence entropy word.
MAX_INSTANCES = 4_000_000
MAX_N = 1000


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    lambda_values_w: tuple[float, ...] = (1.0, 10.0, 100.0)
    trials: int = 5000
    seed: int = 20260808
    mechanisms: tuple[str, ...] = ("cooperative", "mspoa")

    def __post_init__(self):
        check_fields(self)
        problems = []
        if self.trials < 1:
            problems.append("trials must be at least 1")
        if not self.n_values or not self.lambda_values_w:
            problems.append("n_values and lambda_values_w must be non-empty")
        if any(n < 1 for n in self.n_values):
            problems.append("every n must be at least 1")
        if any(n > MAX_N for n in self.n_values):
            problems.append(f"every n must be at most {MAX_N}")
        if self.trials * len(self.n_values) > MAX_INSTANCES:
            problems.append(f"trials x len(n_values) must be at most {MAX_INSTANCES}")
        # A repeated n would count its trials twice and understate every
        # standard error; a repeated delay power or mechanism would duplicate
        # its rows.
        for name in ("n_values", "lambda_values_w", "mechanisms"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                problems.append(f"{name} entries must be distinct")
        if not all(0.0 < v < math.inf for v in self.lambda_values_w):
            problems.append("every delay power must be strictly positive and finite")
        if not 0 <= self.seed < 2**64:
            problems.append("seed must fit in 64 bits")
        unknown = set(self.mechanisms) - set(MECHANISMS)
        if unknown or not self.mechanisms:
            problems.append(f"mechanisms must be a non-empty subset of {MECHANISMS}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class CellStats:
    """Aggregates for one (n, lambda_w, mechanism) cell, fields in CSV
    column order.

    mean_energy_db_mj is 10*log10 of the MEAN source transmit energy in mJ
    (not the mean of per-trial dB values); its standard error is the
    delta-method propagation (10/ln10)*se/mean. mean_net_harvest_j averages
    the winner's net harvested energy over all trials, zeros included.
    """

    mechanism: str
    n: int
    lambda_w: float
    trials: int
    mean_t_s: float
    std_err_t_s: float
    mean_energy_db_mj: float
    std_err_energy_db_mj: float
    mean_net_harvest_j: float
    std_err_net_harvest_j: float
    win_rate_source: float

    # vars(self) holds the fields in declaration order, with no deep copies.
    def to_record(self) -> dict:
        return dict(vars(self))

    def csv_row(self) -> str:
        return ",".join(v if isinstance(v, str) else repr(v) for v in vars(self).values())


CSV_HEADER = ",".join(f.name for f in fields(CellStats))


def trial_rng(seed: int, n: int, trial: int) -> np.random.Generator:
    """The per-trial stream: a stable hash-split of (seed, n, trial)."""
    return np.random.default_rng((seed, n, trial))


# numpy's SeedSequence (NEP 19) with its default pool of four 32-bit words,
# and PCG64's 128-bit LCG multiplier (O'Neill, HMC-CS-2014-0905).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(value: int) -> list[int]:
    # A non-negative int as SeedSequence reads it: 32-bit words, low first.
    out = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        out.append(value & _MASK32)
    return out


def _seed_words(columns: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(4, np.uint64) as eight uint32
    columns, for one entropy of at most four words per row: columns[j]
    holds each row's word j.
    The hash constants do not depend on the data, so they run in Python
    ints; uint32 array arithmetic wraps as the reference's C does."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ value >> np.uint32(16)

    columns = columns + [np.zeros_like(columns[0])] * (_POOL - len(columns))
    pool = [hashmix(columns[i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        out.append(value ^ value >> np.uint32(16))
    return out


def trial_streams(seed: int, n: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """trial_rng(seed, n, k) for k in lo..hi-1, bit for bit, from one generator.

    The SeedSequence mixing of every (seed, n, k) runs once for the chunk as
    uint32 array operations; PCG64's seeding step then runs per trial in
    Python ints and is set as the state of one generator made for the chunk.
    Each yielded generator is therefore the same object: it holds trial k's
    stream until the next one is taken. The seed must be below 2**64, and n
    and every trial index below 2**32 (so, in a sweep, SweepConfig's work
    bound): the entropy is then at most four words, SeedSequence's pool.
    """
    seed, n, lo, hi = map(operator.index, (seed, n, lo, hi))
    if min(seed, n, lo) < 0:
        raise ValueError("seed, n and trial must be non-negative")
    if seed >> 64 or n >> 32 or hi > 1 << 32:
        raise ValueError("trial_streams takes a seed below 2**64 and n and trial indices below 2**32")
    trials = np.arange(lo, hi, dtype=np.uint32)
    shared = [np.full(len(trials), w, np.uint32) for w in _words(seed) + _words(n)]
    words = np.stack(_seed_words(shared + [trials]), axis=1).astype(np.uint64)
    # The words as little-endian uint64s: initstate (high, low), then initseq.
    seeds = words[:, 0::2] | words[:, 1::2] << np.uint64(32)
    rng = np.random.Generator(np.random.PCG64(0))
    bitgen = rng.bit_generator
    for s_hi, s_lo, q_hi, q_lo in seeds.tolist():
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def run_mechanism(
    mechanism: str, inst: ScenarioInstance, params: SystemParams
) -> AuctionOutcome:
    """Run one mechanism under truthful bidding (dominant play for MSPOA)."""
    # The rules are looked up as module globals on every call, so a wrapper
    # installed on this module (a traced run's span) sees each settlement.
    rules = {"cooperative": cooperative_baseline, "spoa": run_spoa, "mspoa": run_mspoa}
    if mechanism not in rules:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    return rules[mechanism](truthful_profile(inst, params), inst, params)


def _outcome_metrics(outcome: AuctionOutcome) -> tuple[float, float, float, float]:
    return (
        outcome.payment_t_s,
        outcome.payment_t_s * outcome.payment_p_w,
        outcome.winner_net_energy_j,
        1.0 if outcome.winner == 0 else 0.0,
    )


def _chunk_channels(
    seed: int,
    n: int,
    lo: int,
    hi: int,
    geom: GeometryConfig,
    chan: ChannelConfig,
    params: SystemParams,
) -> tuple[np.ndarray, np.ndarray]:
    # Each trial's sample_instance on its own stream, then the bidders'
    # channels [z0, z_1..z_n] and alpha_tilde stacked, one row per trial.
    # Only the fields the settlement reads are kept.
    z0, z_w, alpha_tilde = [], [], []
    for rng in trial_streams(seed, n, lo, hi):
        inst = sample_instance(n, geom, chan, params, rng)
        z0.append(inst.z0_w)
        z_w.append(inst.z_w)
        alpha_tilde.append(inst.alpha_tilde)
    return np.column_stack((z0, z_w)), np.array(alpha_tilde)


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
    # Trials lo..hi-1 settled as arrays, one row per trial: each row's
    # metrics are those of run_mechanism on its instance, to the array
    # kernel's last bits, and do not depend on the other rows.
    z, alpha_tilde = _chunk_channels(seed, n, lo, hi, geom, chan, params)
    out = np.empty((hi - lo, len(lambdas), len(mechanisms), 4))
    for j, lam in enumerate(lambdas):
        cell = replace(params, lambda_w=lam)
        t, p, _, _ = optimal_schedules(z, cell)
        winner, settled = settle(mechanisms, t, p, z, alpha_tilde, cell)
        for m, (paid_t, paid_p, net) in enumerate(settled):
            out[:, j, m, 0] = paid_t
            out[:, j, m, 1] = paid_t * paid_p
            out[:, j, m, 2] = net
            out[:, j, m, 3] = winner == 0
    return out


def _std_err(x: np.ndarray) -> float:
    # np.std(x, ddof=1)/sqrt(trials), taken on x scaled by 2^-k, with 2^k
    # above its largest magnitude, so that no square overflows. A power of
    # two scales every step exactly, short of subnormals, so the result
    # keeps its bits; for finite x it is at most that magnitude.
    k = math.frexp(float(np.max(np.abs(x))))[1]
    return math.ldexp(float(np.std(np.ldexp(x, -k), ddof=1)) / math.sqrt(len(x)), k)


def _stats_from_metrics(
    metrics: np.ndarray, n: int, lambda_w: float, mechanism: str
) -> CellStats:
    trials = len(metrics)
    t = metrics[:, 0]
    e = metrics[:, 1]
    h = metrics[:, 2]
    # A sum past the largest double, or an energy t*p that is inf already,
    # is caught below as a field that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        mean_t = float(np.mean(t))
        mean_e = float(np.mean(e))
        if trials > 1:
            se_t = _std_err(t)
            se_e = _std_err(e)
            se_h = _std_err(h)
        else:
            se_t = 0.0
            se_e = 0.0
            se_h = 0.0
    # 10*log10 of the mean in mJ, in logs where the mJ overflow a double.
    e_mj = mean_e * 1e3
    stats = CellStats(
        n=n,
        lambda_w=lambda_w,
        mechanism=mechanism,
        mean_t_s=mean_t,
        mean_energy_db_mj=10.0 * math.log10(e_mj) if e_mj < math.inf else 10.0 * math.log10(mean_e) + 30.0,
        mean_net_harvest_j=float(np.mean(h)),
        win_rate_source=float(np.mean(metrics[:, 3])),
        trials=trials,
        std_err_t_s=se_t,
        std_err_energy_db_mj=(10.0 / math.log(10.0)) * se_e / mean_e,
        std_err_net_harvest_j=se_h,
    )
    bad = [name for name, v in vars(stats).items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        cell = f"(mechanism={mechanism}, n={n}, lambda_w={lambda_w!r})"
        raise ConvergenceError(f"cell {cell} has no finite {', '.join(bad)}")
    return stats


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
    run in up to n_jobs worker processes, never more than there are chunks,
    and land by index, so the output is identical for any job count.

    Config errors raise ValueError: a job count below 1 and a direct-link
    path loss that is not finite, before any work, and SamplingExhausted.
    Any other ValueError raised inside a chunk, by the instance builder or
    the kernel, is raised as a ConvergenceError naming the chunk (a
    numerical failure).
    """
    if n_jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {n_jobs!r}")
    _path_loss_constants(geom.q_s_m, chan)
    mechanisms = tuple(m for m in MECHANISMS if m in cfg.mechanisms)
    lambdas = cfg.lambda_values_w
    chunks = [
        (n, lo, min(lo + _CHUNK, cfg.trials))
        for n in cfg.n_values
        for lo in range(0, cfg.trials, _CHUNK)
    ]
    results: dict[int, np.ndarray] = {}
    workers = min(n_jobs, len(chunks))
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_trial_chunk, cfg.seed, n, lo, hi, lambdas, mechanisms, geom, chan, params)
                    for (n, lo, hi) in chunks
                ]
                for idx, fut in enumerate(futures):
                    results[idx] = fut.result()
        else:
            for idx, (n, lo, hi) in enumerate(chunks):
                results[idx] = _trial_chunk(cfg.seed, n, lo, hi, lambdas, mechanisms, geom, chan, params)
    except SamplingExhausted:
        raise
    except ValueError as exc:
        n, lo, hi = chunks[idx]
        raise ConvergenceError(f"seed {cfg.seed}, n={n}, trials {lo}..{hi - 1}: {exc}") from exc

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
