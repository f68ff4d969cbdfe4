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

``settle`` is the same winner rule and the same payments over a batch of
auctions at once, as arrays, for the sweep and the deviation fuzzes; the
scalar rules are its reference.

A single auction builds records at every step (bids, the profile, the
outcome, and under MSPOA the paid ``ScheduleSolution``), so they are
``jsonio.frozen_record`` classes, whose constructor costs 50-75 % of the
dataclass's. A candidate win's outcome takes both its break-even and its
relay power from ``kernel.min_power``, the package's one scalar power rule.

MSPOA's payment is a function of the runner-up's score alone, which is why
truthful bidding is dominant, so an incentive check that re-settles fixed
opponents under each deviation of one bidder pays the same schedule again
and again. A ``Bid`` therefore keeps, in one slot that is not a field, the
payment it last set as runner-up with the ``SystemParams`` object it was
set under; ``run_mspoa`` reuses it for that same (frozen) object and
otherwise inverts as before, storing only a payment that succeeded. Eq,
hash, repr, pickle, copies and ``replace`` do not see the slot. It pays
off only where one bid object is the runner-up in many auctions, as in
the incentive fuzzes, whose opponents keep their bids across a focal
bidder's deviations; not in the sweeps, whose payments go through
``settle``, which builds no ``Bid`` and inverts each distinct score once
per batch.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .jsonio import MaybeInf, check_fields, frozen_record, read_record, write
from .kernel import CAP_TIE_REL, ScheduleOverflow, min_power, min_powers
from .numerics import ConvergenceError
from .scenario import ScenarioInstance
from .schedule import (
    SystemParams,
    _check_z,
    min_total_power,
    optimal_schedule,
    value_of_z,  # noqa: F401  (the name traced runs wrap; see perfbench/tracing.py)
    z_of_value,
)

OUTCOME_FORMAT = "relayauction/auction-outcome"
RECORD_VERSION = 1

SOURCE = 0  # bidder index of the source's reservation bid
_LEAST_Z = math.ulp(0.0)  # the least positive double


class _PaymentSlot:
    # Bid's one slot that is not a field: the MSPOA payment the bid last set
    # as runner-up, (params, t, p, cost). A slot, not a field, so eq, hash,
    # repr, pickle, copy and ``replace`` neither see nor carry it; it is
    # unset until a payment succeeds.
    __slots__ = ("_mspoa_payment",)


@frozen_record
class Bid(_PaymentSlot):
    """A (duration, total source power) offer from bidder `bidder`.

    bidder 0 is the source's reservation bid; candidates are 1..n. t_s is
    inf for a channel whose schedule overflows (see ``truthful_bid``).
    """

    t_s: MaybeInf
    p_tot_w: float
    bidder: int

    def __post_init__(self):
        if type(self.t_s) is not float or type(self.p_tot_w) is not float or type(self.bidder) is not int:
            check_fields(self)
        if not self.t_s > 0.0:
            raise ValueError("bid duration must be strictly positive")
        if not 0.0 < self.p_tot_w < math.inf:
            raise ValueError("bid power must be strictly positive and finite")
        if self.bidder < 0:
            raise ValueError("bidder index must be non-negative")


@frozen_record
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


@frozen_record
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
    runner_up: int
    payment_t_s: float
    payment_p_w: float
    source_cost_ws: float
    winner_net_energy_j: float
    winner_relay_p_w: MaybeInf = 0.0
    winner_relay_feasible: bool = True

    def to_record(self) -> dict:
        return write(self, format=OUTCOME_FORMAT, version=RECORD_VERSION)

    @classmethod
    def from_record(cls, record: dict) -> "AuctionOutcome":
        return read_record(cls, record, OUTCOME_FORMAT, RECORD_VERSION)


def score(b: Bid, params: SystemParams) -> float:
    """Auctioneer's scalar score t*(lambda + p_tot); lower is better."""
    return b.t_s * (params.lambda_w + b.p_tot_w)


def truthful_bid(z: float, params: SystemParams, bidder: int) -> Bid:
    """The bid revealing effective channel z: its own optimal schedule.

    A channel so poor that its schedule's cost overflows a double bids an
    unbounded duration at the cap. Its score is +inf, so it never wins, and
    an auction fails on it only where it sets the payment.
    """
    try:
        sol = optimal_schedule(z, params)
    except ScheduleOverflow:
        return Bid(math.inf, params.p_max_w, bidder)
    return Bid(sol.t_star_s, sol.p_star_w, bidder)


def truthful_profile(inst: ScenarioInstance, params: SystemParams) -> StrategyProfile:
    """Reservation bid from z0 plus every candidate's truthful bid."""
    bids = [truthful_bid(inst.z0_w, params, SOURCE)]
    bids += [truthful_bid(float(z), params, i + 1) for i, z in enumerate(inst.z_w)]
    return StrategyProfile(tuple(bids))


def _gain(t, alpha_tilde, p, p_even):
    # Net harvest t*alpha_tilde*(p - p_even), on floats or elementwise on
    # arrays. A gap within the kernel's cap tie is break-even, 0.0: a winner
    # paid its own capped schedule nets exactly 0, not the last-bit noise of
    # recomputing p_max from the cap duration. (gap * False is -0.0 for a
    # negative gap; adding 0.0 makes it 0.0 and leaves any other value.)
    gap = p - p_even
    return t * alpha_tilde * (gap * (abs(gap) > CAP_TIE_REL * p) + 0.0)


def _paid_score(b: Bid, s: float) -> float:
    """The score s of the bid b that sets the payment, which must be finite."""
    if s == math.inf:
        raise ConvergenceError(f"bidder {b.bidder}'s score overflows a double, and it sets the payment")
    return s


def _winner_and_runner(
    profile: StrategyProfile, inst: ScenarioInstance, params: SystemParams
) -> tuple[Bid, float, Bid, float]:
    """The shared winner rule over a valid profile: the bids with the lowest
    and the second-lowest (score, bidder), each with its score.

    One pass in bid order validates each bid and scores it once; ties break
    toward the lowest bidder index, so the source beats candidates.
    """
    n = inst.n_candidates
    lam, p_max = params.lambda_w, params.p_max_w
    best = runner = None
    s_best = s_runner = math.inf
    for b in profile.bids:
        if b.bidder > n:
            raise ValueError(f"bid from bidder {b.bidder} but instance has {n} candidates")
        if b.p_tot_w > p_max:
            raise ValueError(f"bid power {b.p_tot_w!r} from bidder {b.bidder} exceeds the cap {p_max!r}")
        s = b.t_s * (lam + b.p_tot_w)  # score(b, params)
        if best is None or s < s_best or (s == s_best and b.bidder < best.bidder):
            best, s_best, runner, s_runner = b, s, best, s_best
        elif runner is None or s < s_runner or (s == s_runner and b.bidder < runner.bidder):
            runner, s_runner = b, s
    if runner is None:
        raise ValueError("an auction needs at least two bids (no runner-up exists)")
    return best, s_best, runner, s_runner


def _outcome(
    winner: int, runner: int, t: float, p: float, cost: float, inst: ScenarioInstance, params: SystemParams
) -> AuctionOutcome:
    """Bidder `winner` paid (t, p) at source cost `cost`, `runner` second.

    A winning candidate's net energy is its harvest against the break-even
    power ``min_power(t, z_w)``, and its relay power is its own
    retransmission power ``min_power(t, sigma2/h_i)`` at the payment
    duration, reported so cap violations are visible downstream; a relay
    power beyond the largest double is inf, i.e. infeasible. t > 0 and z_w
    are the bid's, schedule's and instance's to guarantee.
    """
    if winner == SOURCE:
        return AuctionOutcome(SOURCE, runner, t, p, cost, 0.0)
    i = winner - 1
    z_relay = params.sigma2_w / inst.h_i.item(i)
    if not z_relay > 0.0:
        _check_z(z_relay)  # sigma2/h_i may underflow to 0
    d = params.d_bits_per_hz
    relay_p = min_power(t, z_relay, d)
    net = _gain(t, inst.alpha_tilde.item(i), p, min_power(t, inst.z_w.item(i), d))
    if not math.isfinite(net):
        raise ConvergenceError(f"winner {winner}'s net energy overflows a double")
    return AuctionOutcome(winner, runner, t, p, cost, net, relay_p, relay_p <= params.p_max_w)


def cooperative_baseline(
    profile: StrategyProfile, inst: ScenarioInstance, params: SystemParams
) -> AuctionOutcome:
    """Perfect-information benchmark: the winner is paid its own bid.

    On the truthful profile that is the winner's optimal schedule, so a
    winning candidate exactly breaks even.
    """
    best, s_best, runner, _ = _winner_and_runner(profile, inst, params)
    return _outcome(best.bidder, runner.bidder, best.t_s, best.p_tot_w, _paid_score(best, s_best), inst, params)


def run_spoa(profile: StrategyProfile, inst: ScenarioInstance, params: SystemParams) -> AuctionOutcome:
    """Second-preferred-offer auction: winner takes the runner-up bid verbatim.

    When the reservation bid wins, the source simply transmits at its own
    optimal schedule.
    """
    best, s_best, runner, s_runner = _winner_and_runner(profile, inst, params)
    paid, s = (best, s_best) if best.bidder == SOURCE else (runner, s_runner)
    return _outcome(best.bidder, runner.bidder, paid.t_s, paid.p_tot_w, _paid_score(paid, s), inst, params)


def run_mspoa(profile: StrategyProfile, inst: ScenarioInstance, params: SystemParams) -> AuctionOutcome:
    """Modified SPOA: pay the optimal schedule whose cost equals the
    runner-up score, i.e. map the runner-up back onto the bid manifold."""
    best, s_best, runner, s_runner = _winner_and_runner(profile, inst, params)
    if best.bidder == SOURCE:
        return _outcome(best.bidder, runner.bidder, best.t_s, best.p_tot_w, _paid_score(best, s_best), inst, params)
    # The payment is a function of the runner-up's score alone: a bid that
    # set one under this same (frozen) params object sets it again.
    paid = getattr(runner, "_mspoa_payment", None)
    if paid is None or paid[0] is not params:
        sol = optimal_schedule(z_of_value(_paid_score(runner, s_runner), params), params)
        paid = params, sol.t_star_s, sol.p_star_w, sol.cost_ws
        object.__setattr__(runner, "_mspoa_payment", paid)
    _, t, p, cost = paid
    return _outcome(best.bidder, runner.bidder, t, p, cost, inst, params)


def settle(
    mechanisms: tuple[str, ...], t: np.ndarray, p: np.ndarray, z: np.ndarray, alpha_tilde: np.ndarray,
    params: SystemParams,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Settle a batch of auctions under each mechanism, as arrays.

    Row i is one auction: bidder j bids (t[i, j], p[i, j]), the reservation
    bid in column 0, and z[i] = [z0, z_1..z_n] and alpha_tilde[i] are its
    channels and candidates' efficiencies. Bids are taken as valid (t > 0,
    0 < p <= p_max), as the kernel's schedules and ``sample_deviations``
    build them. A bid scores t*(lambda + p), the kernel's cost expression,
    so an overflow scores +inf. The winner and the runner-up are each
    row's two lowest (score, bidder). Cooperative pays the winner's bid,
    SPOA the runner-up's, and MSPOA
    ``optimal_schedule(z_of_value(runner-up score))``, once per distinct
    score among the candidate wins; a winning source pays its own. No Bid,
    StrategyProfile or AuctionOutcome is built.

    Returns the winners and, per mechanism, the paid durations, the paid
    powers and the winners' net energies. Raises ConvergenceError where the
    scalar rules do: a payment set by a +inf score, or a net energy that
    overflows.
    """
    with np.errstate(over="ignore"):
        c = t * (params.lambda_w + p)
    rows = np.arange(len(z))
    order = np.argsort(c, axis=1, kind="stable")  # ties to the lower bidder index
    best, runner = order[:, 0], order[:, 1]
    relay = best != SOURCE
    settled = []
    for mech in mechanisms:
        if mech == "cooperative":
            paid = best
        elif mech in ("spoa", "mspoa"):
            paid = np.where(relay, runner, best)
        else:
            raise ValueError(f"unknown mechanism {mech!r}")
        pt, pp, pc = t[rows, paid], p[rows, paid], c[rows, paid]
        if not (pc < math.inf).all():
            i = int(np.argmax(pc == math.inf))
            raise ConvergenceError(
                f"bidder {int(paid[i])}'s score overflows a double, and it sets the payment"
            )
        if mech == "mspoa":
            # Each distinct runner-up score of the batch is inverted once.
            paid_by: dict[float, tuple[float, float]] = {}
            for i in np.flatnonzero(relay):
                u = float(pc[i])
                if u not in paid_by:
                    sol = optimal_schedule(z_of_value(u, params), params)
                    paid_by[u] = sol.t_star_s, sol.p_star_w
                pt[i], pp[i] = paid_by[u]
        settled.append((pt, pp, _net_energies(pt, pp, best, z, alpha_tilde, params)))
    return best, settled


def _net_energies(t, p, winner, z, alpha_tilde, params: SystemParams) -> np.ndarray:
    # _outcome's net energy over rows; a source win's row reads its first
    # candidate and is then zeroed.
    rows = np.arange(len(z))
    col = np.maximum(winner, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        gain = _gain(t, alpha_tilde[rows, col - 1], p, min_powers(t, z[rows, col], params.d_bits_per_hz))
    e = np.where(winner == SOURCE, 0.0, gain)
    if not np.isfinite(e).all():
        i = int(np.argmax(~np.isfinite(e)))
        raise ConvergenceError(f"winner {int(winner[i])}'s net energy overflows a double")
    return e


def ex_post_utility(i: int, outcome: AuctionOutcome, inst: ScenarioInstance, params: SystemParams) -> float:
    """Net energy change for bidder i given a settled auction (J).

    Zero for every non-winner and for the source index; a winning
    candidate's is ``_outcome``'s. The outcome may come from outside the
    mechanisms, a record say, so its winner must be one of the instance's
    candidates and its payment duration positive, or ValueError.
    """
    if i == SOURCE or i != outcome.winner:
        return 0.0
    n = inst.n_candidates
    if not 1 <= i <= n:
        raise ValueError(f"winner {i!r} is not a candidate of an instance with {n} candidates")
    t = outcome.payment_t_s
    if not t > 0.0:
        raise ValueError(f"duration must be strictly positive, got {t!r}")
    out = _outcome(i, outcome.runner_up, t, outcome.payment_p_w, outcome.source_cost_ws, inst, params)
    return out.winner_net_energy_j


def non_ic_witness(z_win: float, params: SystemParams, eps1: float, bidder: int = 1) -> Bid:
    """Off-manifold bid witnessing that SPOA is not incentive compatible.

    Shaves eps1 off the channel in the power term and stretches the duration
    past the optimum: t = t*(z_win) + eps2 with eps2 at 1.01x the threshold
    t*(z_win)*eps1/((z_win - eps1) + lambda). That threshold treats the rate
    factor 2^(D/t*) - 1 as unity; when the factor drops below one (z much
    worse than lambda) the stretched bid can overshoot v(z_win), so eps2 is
    additionally capped at 99 percent of the exact sufficient bound
    t*a*eps1/(lambda + a*(z_win - eps1)) with a = 2^(D/t*) - 1, the power
    ``min_power`` gives a unit channel. The result
    always scores below v(z_win) yet pays less than the break-even power for
    z_win at every duration, so a winner paid this bid loses energy. Raises
    ScheduleOverflow where z_win's schedule or the witness's duration
    overflows a double.
    """
    if not 0.0 < eps1 < z_win:
        raise ValueError("eps1 must satisfy 0 < eps1 < z_win")
    sol = optimal_schedule(z_win, params)
    t_star = sol.t_star_s
    a = min_power(t_star, 1.0, params.d_bits_per_hz)
    bound = t_star * eps1 / ((z_win - eps1) + params.lambda_w)
    safe = t_star * a * eps1 / (params.lambda_w + a * (z_win - eps1))
    t = t_star + min(1.01 * bound, 0.99 * safe)
    if t == math.inf:
        raise ScheduleOverflow(f"the witness's duration for z_win={z_win!r} overflows a double")
    p = min_total_power(t, z_win - eps1, params)
    return Bid(t, p, bidder)


def sample_deviations(
    z: float,
    params: SystemParams,
    k: int,
    rng: np.random.Generator,
    bidder: int = 1,
) -> list[Bid]:
    """k alternative bids for a candidate whose true channel is z.

    Mixes on-manifold bids for misreported channels (log-uniform around z,
    clamped into the positive finite doubles), off-manifold
    log-perturbations of the truthful bid (power clipped to the cap), and
    the eps1/eps2 witness at eps1 = z/4 when that is positive (z/4 of the
    least subnormals is 0) and the witness does not overflow.
    """
    if k < 1:
        raise ValueError("need k >= 1 deviations")
    eps1 = z / 4.0
    witness = []
    if 0.0 < eps1 < z:
        try:
            witness = [non_ic_witness(z, params, eps1, bidder)]
        except ScheduleOverflow:  # truthful_bid bids inf there
            pass
    remaining = k - len(witness)
    n_manifold = remaining - remaining // 2
    out: list[Bid] = []
    for _ in range(n_manifold):
        z_fake = min(max(z * 10.0 ** rng.uniform(-2.0, 2.0), _LEAST_Z), sys.float_info.max)
        out.append(truthful_bid(z_fake, params, bidder))
    truth = truthful_bid(z, params, bidder)
    for _ in range(remaining - n_manifold):
        t = truth.t_s * float(np.exp(rng.uniform(-1.0, 1.0)))
        p = truth.p_tot_w * float(np.exp(rng.uniform(-1.0, 1.0)))
        out.append(Bid(t, min(p, params.p_max_w), bidder))
    return out + witness
