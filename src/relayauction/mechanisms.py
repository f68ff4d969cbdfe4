"""Bids, scoring, and the auction mechanisms.

Bids are (duration, total power) pairs scored by t*(lambda_w + p_tot); the
best (lowest) score wins against the source's own reservation bid. Three
settlement rules share that winner rule and one signature,
``(profile, inst, params)``, and differ only in what a winning candidate is
paid (a winning reservation bid is always paid its own schedule):

* cooperative baseline: the winner's own bid. On the truthful profile that
  is its optimal schedule, the perfect-information benchmark.
* SPOA: the runner-up bid verbatim. Truthful bidding is a Nash equilibrium
  but not dominant: an off-manifold runner-up bid can pay the winner less
  than its break-even power.
* MSPOA: the runner-up score mapped back onto the manifold of optimal
  schedules (via the inverse of the value map), which makes truthful
  bidding dominant.

A reported winner relay-power value flags payments whose implied candidate
retransmission would exceed the transmit cap; the mechanisms do not enforce
that cap, mirroring the source-side-only constraint of the underlying
optimization.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .numerics import ConvergenceError
from .scenario import ScenarioInstance
from .schedule import (
    SystemParams,
    min_total_power,
    optimal_schedule,
    value_of_z,  # noqa: F401  (the name traced runs wrap; see perfbench/tracing.py)
    z_of_value,
)

PROFILE_FORMAT = "relayauction/strategy-profile"
OUTCOME_FORMAT = "relayauction/auction-outcome"
RECORD_VERSION = 1

SOURCE = 0  # bidder index of the source's reservation bid


@dataclass(frozen=True)
class Bid:
    """A (duration, total source power) offer from bidder `bidder`.

    bidder 0 is the source's reservation bid; candidates are 1..n.
    """

    t_s: float
    p_tot_w: float
    bidder: int

    def __post_init__(self):
        if not self.t_s > 0.0:
            raise ValueError("bid duration must be strictly positive")
        if not self.p_tot_w > 0.0:
            raise ValueError("bid power must be strictly positive")
        if self.bidder < 0:
            raise ValueError("bidder index must be non-negative")

    def to_record(self) -> dict:
        return {"t_s": self.t_s, "p_tot_w": self.p_tot_w, "bidder": self.bidder}

    @classmethod
    def from_record(cls, record: dict) -> "Bid":
        return cls(float(record["t_s"]), float(record["p_tot_w"]), int(record["bidder"]))


@dataclass(frozen=True)
class StrategyProfile:
    """All submitted bids: exactly one reservation bid plus the candidates'."""

    bids: tuple[Bid, ...]

    def __post_init__(self):
        object.__setattr__(self, "bids", tuple(self.bids))
        bidders = [b.bidder for b in self.bids]
        if bidders.count(SOURCE) != 1:
            raise ValueError("profile needs exactly one reservation bid (bidder 0)")
        if len(set(bidders)) != len(bidders):
            raise ValueError("bidder indices must be unique")

    def to_record(self) -> dict:
        return {
            "format": PROFILE_FORMAT,
            "version": RECORD_VERSION,
            "bids": [b.to_record() for b in self.bids],
        }

    @classmethod
    def from_record(cls, record: dict) -> "StrategyProfile":
        if record.get("format") != PROFILE_FORMAT:
            raise ValueError(f"not a strategy-profile record: {record.get('format')!r}")
        if record.get("version") != RECORD_VERSION:
            raise ValueError(f"unsupported record version {record.get('version')!r}")
        return cls(tuple(Bid.from_record(b) for b in record["bids"]))


@dataclass(frozen=True)
class AuctionOutcome:
    """Winner, payment schedule, and the resulting energies.

    source_cost_ws = payment_t_s * (lambda_w + payment_p_w) exactly.
    winner_net_energy_j is zero when the source transmits directly.
    winner_relay_p_w reports the power the winning candidate needs for its
    own retransmission (informational; not enforced by the mechanisms). It
    is inf, with winner_relay_feasible false, when that power exceeds the
    largest double; records encode inf as null so they stay strict JSON.
    """

    winner: int
    payment_t_s: float
    payment_p_w: float
    source_cost_ws: float
    winner_net_energy_j: float
    runner_up: int
    winner_relay_p_w: float = 0.0
    winner_relay_feasible: bool = True

    def to_record(self) -> dict:
        record = {"format": OUTCOME_FORMAT, "version": RECORD_VERSION, **asdict(self)}
        if not self.winner_relay_p_w < math.inf:
            record["winner_relay_p_w"] = None
        return record

    @classmethod
    def from_record(cls, record: dict) -> "AuctionOutcome":
        if record.get("format") != OUTCOME_FORMAT:
            raise ValueError(f"not an auction-outcome record: {record.get('format')!r}")
        if record.get("version") != RECORD_VERSION:
            raise ValueError(f"unsupported record version {record.get('version')!r}")
        relay_p = record.get("winner_relay_p_w", 0.0)
        return cls(
            winner=int(record["winner"]),
            payment_t_s=float(record["payment_t_s"]),
            payment_p_w=float(record["payment_p_w"]),
            source_cost_ws=float(record["source_cost_ws"]),
            winner_net_energy_j=float(record["winner_net_energy_j"]),
            runner_up=int(record["runner_up"]),
            winner_relay_p_w=math.inf if relay_p is None else float(relay_p),
            winner_relay_feasible=bool(record.get("winner_relay_feasible", True)),
        )


def score(b: Bid, params: SystemParams) -> float:
    """Auctioneer's scalar score t*(lambda + p_tot); lower is better."""
    return b.t_s * (params.lambda_w + b.p_tot_w)


def truthful_bid(z: float, params: SystemParams, bidder: int) -> Bid:
    """The bid revealing effective channel z: its own optimal schedule."""
    sol = optimal_schedule(z, params)
    return Bid(sol.t_star_s, sol.p_star_w, bidder)


def truthful_profile(inst: ScenarioInstance, params: SystemParams) -> StrategyProfile:
    """Reservation bid from z0 plus every candidate's truthful bid."""
    bids = [truthful_bid(inst.z0_w, params, SOURCE)]
    bids += [truthful_bid(float(z), params, i + 1) for i, z in enumerate(inst.z_w)]
    return StrategyProfile(tuple(bids))


def _net_energy(t: float, p: float, winner: int, inst: ScenarioInstance, params: SystemParams) -> float:
    if winner == SOURCE:
        return 0.0
    z_w = float(inst.z_w[winner - 1])
    e = t * float(inst.alpha_tilde[winner - 1]) * (p - min_total_power(t, z_w, params))
    if not math.isfinite(e):
        raise ConvergenceError(f"winner {winner}'s net energy overflows a double")
    return e


def _relay_power(t: float, winner: int, inst: ScenarioInstance, params: SystemParams):
    # Candidate's own retransmission power (2^(D/t)-1)*sigma2/h_i at the
    # payment duration; reported so cap violations are visible downstream.
    # A power beyond the largest double is reported as inf, i.e. infeasible.
    if winner == SOURCE:
        return 0.0, True
    z_relay = params.sigma2_w / float(inst.h_i[winner - 1])
    if not z_relay < math.inf:
        return math.inf, False
    try:
        p_relay = min_total_power(t, z_relay, params)
    except OverflowError:
        return math.inf, False
    return p_relay, p_relay <= params.p_max_w


def _winner_and_runner(
    profile: StrategyProfile, inst: ScenarioInstance, params: SystemParams
) -> tuple[Bid, Bid]:
    """The shared winner rule: best and second-best score over a valid profile."""
    n = inst.n_candidates
    for b in profile.bids:
        if b.bidder > n:
            raise ValueError(f"bid from bidder {b.bidder} but instance has {n} candidates")
        if b.p_tot_w > params.p_max_w:
            raise ValueError(
                f"bid power {b.p_tot_w!r} from bidder {b.bidder} exceeds the cap {params.p_max_w!r}"
            )
    if len(profile.bids) < 2:
        raise ValueError("an auction needs at least two bids (no runner-up exists)")
    # Ties break toward the lowest bidder index, so the source beats candidates.
    ranked = sorted(profile.bids, key=lambda b: (score(b, params), b.bidder))
    return ranked[0], ranked[1]


def _outcome(
    best: Bid, runner: Bid, t: float, p: float, cost: float, inst: ScenarioInstance, params: SystemParams
) -> AuctionOutcome:
    """The winner `best` paid (t, p) at source cost `cost`."""
    relay_p, relay_ok = _relay_power(t, best.bidder, inst, params)
    return AuctionOutcome(
        winner=best.bidder,
        payment_t_s=t,
        payment_p_w=p,
        source_cost_ws=cost,
        winner_net_energy_j=_net_energy(t, p, best.bidder, inst, params),
        runner_up=runner.bidder,
        winner_relay_p_w=relay_p,
        winner_relay_feasible=relay_ok,
    )


def cooperative_baseline(
    profile: StrategyProfile, inst: ScenarioInstance, params: SystemParams
) -> AuctionOutcome:
    """Perfect-information benchmark: the winner is paid its own bid.

    On the truthful profile that is the winner's optimal schedule, so a
    winning candidate exactly breaks even.
    """
    best, runner = _winner_and_runner(profile, inst, params)
    return _outcome(best, runner, best.t_s, best.p_tot_w, score(best, params), inst, params)


def run_spoa(profile: StrategyProfile, inst: ScenarioInstance, params: SystemParams) -> AuctionOutcome:
    """Second-preferred-offer auction: winner takes the runner-up bid verbatim.

    When the reservation bid wins, the source simply transmits at its own
    optimal schedule.
    """
    best, runner = _winner_and_runner(profile, inst, params)
    paid = best if best.bidder == SOURCE else runner
    return _outcome(best, runner, paid.t_s, paid.p_tot_w, score(paid, params), inst, params)


def run_mspoa(profile: StrategyProfile, inst: ScenarioInstance, params: SystemParams) -> AuctionOutcome:
    """Modified SPOA: pay the optimal schedule whose cost equals the
    runner-up score, i.e. map the runner-up back onto the bid manifold."""
    best, runner = _winner_and_runner(profile, inst, params)
    if best.bidder == SOURCE:
        return _outcome(best, runner, best.t_s, best.p_tot_w, score(best, params), inst, params)
    sol = optimal_schedule(z_of_value(score(runner, params), params), params)
    return _outcome(best, runner, sol.t_star_s, sol.p_star_w, sol.cost_ws, inst, params)


def ex_post_utility(i: int, outcome: AuctionOutcome, inst: ScenarioInstance, params: SystemParams) -> float:
    """Net energy change for bidder i given a settled auction (J).

    Zero for every non-winner and for the source index.
    """
    if i == SOURCE or i != outcome.winner:
        return 0.0
    return _net_energy(outcome.payment_t_s, outcome.payment_p_w, i, inst, params)


def non_ic_witness(z_win: float, params: SystemParams, eps1: float, bidder: int = 1) -> Bid:
    """Off-manifold bid witnessing that SPOA is not incentive compatible.

    Shaves eps1 off the channel in the power term and stretches the duration
    past the optimum: t = t*(z_win) + eps2 with eps2 at 1.01x the threshold
    t*(z_win)*eps1/((z_win - eps1) + lambda). That threshold treats the rate
    factor 2^(D/t*) - 1 as unity; when the factor drops below one (z much
    worse than lambda) the stretched bid can overshoot v(z_win), so eps2 is
    additionally capped at 99 percent of the exact sufficient bound
    t*a*eps1/(lambda + a*(z_win - eps1)) with a = 2^(D/t*) - 1. The result
    always scores below v(z_win) yet pays less than the break-even power for
    z_win at every duration, so a winner paid this bid loses energy.
    """
    if not 0.0 < eps1 < z_win:
        raise ValueError("eps1 must satisfy 0 < eps1 < z_win")
    sol = optimal_schedule(z_win, params)
    t_star = sol.t_star_s
    a = math.pow(2.0, params.d_bits_per_hz / t_star) - 1.0
    bound = t_star * eps1 / ((z_win - eps1) + params.lambda_w)
    safe = t_star * a * eps1 / (params.lambda_w + a * (z_win - eps1))
    t = t_star + min(1.01 * bound, 0.99 * safe)
    p = min_total_power(t, z_win - eps1, params)
    return Bid(t, p, bidder)


def sample_deviations(
    z: float,
    params: SystemParams,
    k: int,
    rng: np.random.Generator,
    witness_eps1: float | None = None,
    bidder: int = 1,
) -> list[Bid]:
    """k alternative bids for a candidate whose true channel is z.

    Mixes on-manifold bids for misreported channels (log-uniform around z),
    off-manifold log-perturbations of the truthful bid (power clipped to the
    cap), and the eps1/eps2 witness when its precondition 0 < eps1 < z holds.
    witness_eps1 defaults to z/4.
    """
    if k < 1:
        raise ValueError("need k >= 1 deviations")
    eps1 = z / 4.0 if witness_eps1 is None else witness_eps1
    witness = [non_ic_witness(z, params, eps1, bidder)] if 0.0 < eps1 < z else []
    remaining = k - len(witness)
    n_manifold = remaining - remaining // 2
    out: list[Bid] = []
    for _ in range(n_manifold):
        z_fake = z * 10.0 ** rng.uniform(-2.0, 2.0)
        out.append(truthful_bid(z_fake, params, bidder))
    truth = truthful_bid(z, params, bidder)
    for _ in range(remaining - n_manifold):
        t = truth.t_s * float(np.exp(rng.uniform(-1.0, 1.0)))
        p = truth.p_tot_w * float(np.exp(rng.uniform(-1.0, 1.0)))
        out.append(Bid(t, min(p, params.p_max_w), bidder))
    return out + witness
