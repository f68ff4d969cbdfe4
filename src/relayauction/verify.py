"""Self-verification: oracle cross-checks, game-theoretic fuzzing, and the
qualitative trend suite.

Two levels: ``fast`` runs reduced scales for a quick health check; ``full``
runs every release criterion at production scale (the trend check alone
executes the complete default sweep). Each check returns a CheckResult; the
CLI turns failures into exit code 3, and the acceptance tests assert the
same functions one by one.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

import numpy as np

from .mechanisms import (
    SOURCE,
    ex_post_utility,
    non_ic_witness,
    run_mspoa,
    run_spoa,
    sample_deviations,
    settle,
    truthful_bid,
    truthful_profile,
    StrategyProfile,
)
from .montecarlo import SweepConfig, render_csv, run_sweep
from .kernel import _NEG_INV_E, CAP_TIE_REL, lambert_w0
from .numerics import ToleranceSpec, minimize_unimodal, solve_increasing
from .scenario import ChannelConfig, GeometryConfig, ScenarioInstance, sample_instance
from .schedule import (
    SystemParams,
    cost_function,
    min_total_power,
    optimal_schedule,
    value_of_z,
    z_of_value,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name: str, started: float, passed, detail: str) -> CheckResult:
    # bool() guards against numpy bools sneaking into JSON reports.
    return CheckResult(name, bool(passed), detail, time.perf_counter() - started)


def _default_jobs() -> int:
    return max(1, min(8, os.cpu_count() or 1))


def _oracle_bracket(z: float, params: SystemParams) -> tuple[float, float]:
    d, lam = params.d_bits_per_hz, params.lambda_w
    pz = params.p_max_w / z
    if pz < sys.float_info.min:
        # p_max/z has lost bits, and log1p is the identity: D*ln2*z/p_max,
        # rounded once from the D*ln2 that cost_function's power takes.
        t_min = float(Fraction(d * math.log(2.0)) * Fraction(z) / Fraction(params.p_max_w))
    else:
        # Where p_max/z overflows, the 1 of log1p is far below its last bit.
        t_min = d * math.log(2.0) / (math.log1p(pz) if pz < math.inf else math.log(params.p_max_w) - math.log(z))
    t_hi = max(10.0 * d / lam * (lam + z), 100.0 * d * math.log(2.0), 2.0 * t_min)
    g = lambda t: cost_function(t, z, params)
    while g(2.0 * t_hi) < g(t_hi):
        t_hi *= 2.0
    return t_min, t_hi


def oracle_schedule_cost(z: float, params: SystemParams) -> float:
    """Golden-section minimization of the cost over the feasible bracket;
    independent of the closed form it cross-checks."""
    t_min, t_hi = _oracle_bracket(z, params)
    tol = ToleranceSpec(abs_tol=1e-12, rel_tol=1e-9, max_iter=200)
    _, f_min = minimize_unimodal(lambda t: cost_function(t, z, params), t_min, t_hi, tol)
    return f_min


def oracle_z_of_value(u: float, params: SystemParams) -> float:
    """Bracketing-and-bisection inverse of ``value_of_z``; independent of
    the closed form it cross-checks. The hint inverts the lambda == z case
    (value = D*ln2*e*z) and undershoots by 2x."""
    hint = u / (params.d_bits_per_hz * math.log(2.0) * math.e * 2.0)
    return solve_increasing(lambda z: value_of_z(z, params), u, hint, lo_bound=0.0)


def check_oracle_equivalence(n_z: int = 200) -> CheckResult:
    t0 = time.perf_counter()
    zs = np.logspace(-10.0, 15.0, n_z)
    worst = 0.0
    for lam in (0.1, 1.0, 10.0, 100.0):
        for p_max in (1.0, 10.0):
            params = SystemParams(lambda_w=lam, p_max_w=p_max)
            for z in zs:
                closed = optimal_schedule(float(z), params).cost_ws
                brute = oracle_schedule_cost(float(z), params)
                worst = max(worst, abs(brute - closed) / closed)
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-6 and elapsed < 10.0
    return _result(
        "oracle-equivalence",
        t0,
        passed,
        f"{n_z} z-points x 4 lambdas x 2 caps, worst rel cost err {worst:.3e}, {elapsed:.2f}s",
    )


def check_lambert_residuals(n: int = 1000) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(1848)
    offsets = 10.0 ** rng.uniform(-9.0, math.log10(1e6 - _NEG_INV_E), size=n - 8)
    xs = list(_NEG_INV_E + offsets)
    xs += [_NEG_INV_E, _NEG_INV_E + 1e-12, _NEG_INV_E + 1e-9, _NEG_INV_E + 1e-7, 0.0, 1.0, 2.718281828459045, 1e6]
    worst = 0.0
    for x in xs:
        w = lambert_w0(float(x))
        resid = abs(w * math.exp(w) - x) / max(1.0, abs(x))
        worst = max(worst, resid)
        if w < -1.0:
            return _result("lambert-residuals", t0, False, f"w < -1 at x={x}")
    passed = worst <= 1e-9
    return _result(
        "lambert-residuals", t0, passed, f"{len(xs)} samples, worst scaled residual {worst:.3e}"
    )


def _kink_z(params: SystemParams) -> float:
    # Bisect on the constraint-active flag; the kink is unique because the
    # unconstrained optimal power is increasing in z. The bracket is huge
    # since activation recedes like lambda*exp(-e*lambda/p_max) as the cap
    # tightens relative to the delay power.
    lo, hi = 1e-130, 1e10
    if optimal_schedule(lo, params).constraint_active or not optimal_schedule(hi, params).constraint_active:
        raise RuntimeError("cap activation not bracketed")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if optimal_schedule(mid, params).constraint_active:
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.0 + 1e-12:
            break
    return math.sqrt(lo * hi)


def check_monotonicity(n_grid: int = 200, n_roundtrip: int = 100) -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    for lam in (0.1, 1.0, 10.0, 100.0):
        for p_max in (1.0, 10.0):
            params = SystemParams(lambda_w=lam, p_max_w=p_max)
            sols = [optimal_schedule(float(z), params) for z in np.logspace(-4, 4, n_grid)]
            ts = [s.t_star_s for s in sols]
            ps = [s.p_star_w for s in sols]
            vs = [s.cost_ws for s in sols]
            if not all(a < b for a, b in zip(ts, ts[1:])):
                problems.append(f"T* not strictly increasing at lam={lam}, p_max={p_max}")
            if not all(a <= b for a, b in zip(ps, ps[1:])):
                problems.append(f"P* decreasing at lam={lam}, p_max={p_max}")
            if not all(a < b for a, b in zip(vs, vs[1:])):
                problems.append(f"v not strictly increasing at lam={lam}, p_max={p_max}")
            zk = _kink_z(params)
            below = optimal_schedule(zk * (1.0 - 1e-8), params)
            above = optimal_schedule(zk * (1.0 + 1e-8), params)
            jump = abs(above.p_star_w - below.p_star_w)
            if jump > 1e-6:
                problems.append(f"P* jump {jump:.2e} across cap activation at lam={lam}, p_max={p_max}")
    # The closed-form inverse against the bisection oracle, on both sides of
    # the cap kink (z = 46.8 here).
    params = SystemParams(lambda_w=1.0, p_max_w=10.0)
    rng = np.random.default_rng(3)
    worst_rt = worst_oracle = 0.0
    for z in 10.0 ** rng.uniform(-3, 3, size=n_roundtrip):
        u = value_of_z(float(z), params)
        z_back = z_of_value(u, params)
        worst_rt = max(worst_rt, abs(z_back - z) / z)
        z_oracle = oracle_z_of_value(u, params)
        worst_oracle = max(worst_oracle, abs(z_back - z_oracle) / z_oracle)
    if worst_rt > 1e-6:
        problems.append(f"round-trip rel error {worst_rt:.2e}")
    if worst_oracle > 1e-6:
        problems.append(f"inverse off the bisection oracle by rel {worst_oracle:.2e}")
    return _result(
        "monotonicity-suites",
        t0,
        not problems,
        "; ".join(problems) if problems else (
            f"monotonicity holds on {n_grid}-pt grids, round-trip err {worst_rt:.2e}, "
            f"inverse vs bisection oracle {worst_oracle:.2e}"
        ),
    )


def _fuzz_setup(k: int, seed: int):
    geom = GeometryConfig()
    chan = ChannelConfig()
    n = 2 + k % 4
    lam = (0.1, 1.0, 10.0, 100.0)[(k // 4) % 4]
    p_max = (1.0, 10.0)[(k // 16) % 2]
    params = SystemParams(lambda_w=lam, p_max_w=p_max)
    rng = np.random.default_rng((seed, k))
    inst = sample_instance(n, geom, chan, params, rng)
    focal = 1 + k % n
    return inst, params, rng, focal


def _arbitrary_opponents(inst, params, rng, focal) -> StrategyProfile:
    bids = [truthful_bid(inst.z0_w, params, 0)]
    for j in range(1, inst.n_candidates + 1):
        z = float(inst.z_w[j - 1])
        if j == focal:
            bids.append(truthful_bid(z, params, j))
        else:
            # One of the three kinds at random: manifold misreport,
            # log-perturbation or the witness (sample_deviations' order).
            bids.append(sample_deviations(z, params, 3, rng, bidder=j)[rng.integers(3)])
    return StrategyProfile(tuple(bids))


def _truthful_opponents(inst, params, rng, focal) -> StrategyProfile:
    return truthful_profile(inst, params)


# _deviation_fuzz's scale-aware bound, relative to the utilities compared.
SCALED_GAIN = 1e-12


def _deviation_fuzz(
    name: str, mechanism: str, opponents, seed: int, instances: int, deviations: int
) -> CheckResult:
    """The truthful focal bidder against ``deviations`` of its own bids,
    on the profile ``opponents`` builds, settled under ``mechanism`` as one
    batch: row 0 is the profile, each later row swaps in one deviation, and
    a row's utility is its net energy where the focal bidder wins, else 0.

    A violation is a gain above 1e-9 J. Beside it, a gain above
    ``SCALED_GAIN`` times the larger of the two utilities' sizes is
    counted: the correct rules gain exactly 0, so an MSPOA payment that
    leaks toward the winner's own score by one part in a million shows
    here, though none of its gains reaches 1e-9 J. Either count fails the
    check."""
    t0 = time.perf_counter()
    violations = scaled = 0
    worst = 0.0
    for k in range(instances):
        inst, params, rng, focal = _fuzz_setup(k, seed)
        profile = opponents(inst, params, rng, focal)
        z_focal = float(inst.z_w[focal - 1])
        devs = sample_deviations(z_focal, params, deviations, rng, bidder=focal)
        bids = np.empty((1 + len(devs), inst.n_candidates + 1, 2))
        bids[:] = [(b.t_s, b.p_tot_w) for b in sorted(profile.bids, key=lambda b: b.bidder)]
        bids[1:, focal] = [(d.t_s, d.p_tot_w) for d in devs]
        z = np.broadcast_to(np.append(inst.z0_w, inst.z_w), bids.shape[:2])
        alpha = np.broadcast_to(inst.alpha_tilde, (len(bids), inst.n_candidates))
        winner, [(_, _, net)] = settle((mechanism,), bids[..., 0], bids[..., 1], z, alpha, params)
        u = np.where(winner == focal, net, 0.0)
        gap = u[1:] - u[0]
        worst = max(worst, float(gap.max()))
        violations += int((gap > 1e-9).sum())
        scaled += int((gap > SCALED_GAIN * np.maximum(abs(u[1:]), abs(u[0]))).sum())
    elapsed = time.perf_counter() - t0
    passed = violations == 0 and scaled == 0 and elapsed < 120.0
    return _result(
        name,
        t0,
        passed,
        f"{instances} instances x {deviations} deviations, {violations} violations, "
        f"{scaled} scaled gains, worst gain {worst:.2e} J, {elapsed:.1f}s",
    )


def check_mspoa_ic_fuzz(instances: int = 1000, deviations: int = 200) -> CheckResult:
    """Truthful bidding must dominate in MSPOA against arbitrary opponents."""
    return _deviation_fuzz(
        "mspoa-incentive-compatibility-fuzz", "mspoa", _arbitrary_opponents, 511,
        instances, deviations,
    )


def check_spoa_ne_fuzz(instances: int = 1000, deviations: int = 200) -> CheckResult:
    """No profitable unilateral deviation in SPOA when opponents are truthful."""
    return _deviation_fuzz(
        "spoa-nash-equilibrium-fuzz", "spoa", _truthful_opponents, 1823,
        instances, deviations,
    )


def witness_instance() -> tuple[ScenarioInstance, SystemParams]:
    """Golden instance with z0=10, z=(1, 2) in plain units (sigma2=1)."""
    params = SystemParams(
        d_bits_per_hz=8.0, lambda_w=1.0, p_max_w=10.0, sigma2_w=1.0, a_r_m2=1.0, alpha=0.25
    )
    inst = ScenarioInstance(
        candidate_positions_m=np.array([[1.0, 1.0], [2.0, 2.0]]),
        h_s=0.1,
        h_i=np.array([4.0 / 3.0, 4.0 / 7.0]),
        h_si=np.array([4.0, 4.0]),
        alpha_tilde=np.array([1.0, 1.0]),
        z0_w=10.0,
        z_w=np.array([1.0, 2.0]),
    )
    return inst, params


def check_non_ic_demo() -> CheckResult:
    """Sign-level SPOA/MSPOA contrast on the witness profile.

    Candidate 1 is truthful at z=1; candidate 2 submits the off-manifold
    eps construction built on z=2 with eps1=1.5, which scores between v(1)
    and v(2) yet pays below candidate 1's break-even power.
    """
    t0 = time.perf_counter()
    inst, params = witness_instance()
    witness = non_ic_witness(2.0, params, eps1=1.5, bidder=2)
    profile = StrategyProfile(
        (
            truthful_bid(inst.z0_w, params, 0),
            truthful_bid(1.0, params, 1),
            witness,
        )
    )
    spoa = run_spoa(profile, inst, params)
    mspoa = run_mspoa(profile, inst, params)
    u_spoa = ex_post_utility(1, spoa, inst, params)
    u_mspoa = ex_post_utility(1, mspoa, inst, params)
    passed = (
        spoa.winner == 1
        and mspoa.winner == 1
        and u_spoa < 0.0
        and u_mspoa >= 0.0
    )
    return _result(
        "spoa-non-ic-witness",
        t0,
        passed,
        f"truthful winner utility: spoa {u_spoa:.4e} J (<0), mspoa {u_mspoa:.4e} J (>=0)",
    )


def _tie_instance(z0: float, z_w: tuple[float, ...]) -> ScenarioInstance:
    n = len(z_w)
    ones = np.ones(n)
    return ScenarioInstance(
        candidate_positions_m=np.zeros((n, 2)), h_s=1.0, h_i=ones, h_si=ones, alpha_tilde=ones,
        z0_w=z0, z_w=np.array(z_w),
    )


def _tie_profiles():
    # check_tie_break's profiles: (instance, params, truthful profile, the
    # winner and runner-up the rule must pick, where).
    for lam in (0.1, 1.0, 100.0):
        for p_max in (1.0, 10.0):
            params = SystemParams(lambda_w=lam, p_max_w=p_max)
            for z in (1e-3, 1.0, 1e3):
                for z0, z_w, want in ((z, (z, 2.0 * z), (0, 1)), (4.0 * z, (2.0 * z, z, z), (2, 3))):
                    inst = _tie_instance(z0, z_w)
                    where = f"lam={lam} p_max={p_max} z0={z0} z={z_w}"
                    yield inst, params, truthful_profile(inst, params), want, where


def _settle_profile(mechanisms, profile: StrategyProfile, inst: ScenarioInstance, params: SystemParams):
    # settle on the one-row batch of a profile.
    bids = sorted(profile.bids, key=lambda b: b.bidder)
    t = np.array([[b.t_s for b in bids]])
    p = np.array([[b.p_tot_w for b in bids]])
    z = np.array([[inst.z0_w, *inst.z_w]])
    return settle(mechanisms, t, p, z, inst.alpha_tilde[None, :], params)


def check_tie_break() -> CheckResult:
    """Exact ties go to the lower bidder index: the source beats a candidate
    whose truthful bid equals the reservation bid, and the lower of two
    tied candidates wins with the other as runner-up. Held for the scalar
    rules in bid order and reversed, and for ``settle``'s winners, over
    interior and cap-bound schedules. Random bids almost never tie exactly,
    so the fuzzes cannot see a flipped tie-break."""
    t0 = time.perf_counter()
    problems = []
    cases = 0
    for inst, params, profile, want, where in _tie_profiles():
        cases += 1
        for order in (profile.bids, profile.bids[::-1]):
            reordered = StrategyProfile(order)
            for rule in (run_spoa, run_mspoa):
                out = rule(reordered, inst, params)
                if (out.winner, out.runner_up) != want:
                    problems.append(f"{rule.__name__} picked {out.winner, out.runner_up} at {where}")
        winner, _ = _settle_profile(("cooperative", "spoa", "mspoa"), profile, inst, params)
        if int(winner[0]) != want[0]:
            problems.append(f"settle picked {int(winner[0])} at {where}")
    detail = "; ".join(problems[:3]) if problems else f"{cases} tied profiles settle to the lower bidder index"
    return _result("tie-break", t0, not problems, detail)


# check_net_energy's bound, in ulps of t*alpha_tilde*max(p, p_even).
NET_ULPS = 4


def check_net_energy(instances: int = 1000) -> CheckResult:
    """Every SPOA and MSPOA candidate win nets t*alpha_tilde*(p - p_even),
    p_even = (2^(D/t) - 1)*z_w, recomputed here from the paid (t, p) by
    ``math.expm1`` and not through the rules' power rule or their gain:
    within NET_ULPS ulps of t*alpha_tilde*max(p, p_even), and exactly 0 J
    where |p - p_even| <= CAP_TIE_REL*p, the break-even tie. Held for the
    scalar rules and for ``settle`` on the MSPOA fuzz's instances with
    arbitrary opponents, where SPOA pays off-manifold bids, and on the
    tie-break's tied profiles, where a winner is paid its own schedule."""
    t0 = time.perf_counter()
    cases = []
    for k in range(instances):
        inst, params, rng, focal = _fuzz_setup(k, 97)
        cases.append((inst, params, _arbitrary_opponents(inst, params, rng, focal)))
    cases += [case[:3] for case in _tie_profiles()]
    problems = []
    wins = ties = 0
    worst = 0.0
    for inst, params, profile in cases:
        winner, settled = _settle_profile(("spoa", "mspoa"), profile, inst, params)
        for rule, (pt, pp, net) in zip((run_spoa, run_mspoa), settled):
            out = rule(profile, inst, params)
            paths = (
                (rule.__name__, out.winner, out.payment_t_s, out.payment_p_w, out.winner_net_energy_j),
                (f"settle {rule.__name__[4:]}", int(winner[0]), float(pt[0]), float(pp[0]), float(net[0])),
            )
            for path, w, t, p, e in paths:
                if w == SOURCE:
                    continue
                wins += 1
                z_w, alpha = inst.z_w.item(w - 1), inst.alpha_tilde.item(w - 1)
                gap = p - math.expm1(params.d_bits_per_hz * math.log(2.0) / t) * z_w
                if abs(gap) <= CAP_TIE_REL * p:
                    ties += 1
                    want, ok = 0.0, e == 0.0
                else:
                    want = t * alpha * gap
                    ulps = abs(e - want) / (2.0**-52 * t * alpha * max(p, p - gap))
                    worst = max(worst, ulps)
                    ok = ulps <= NET_ULPS
                if not ok:
                    problems.append(f"{path} winner {w} nets {e!r} J, recomputed {want!r} J")
    detail = "; ".join(problems[:3]) if problems else (
        f"{wins} wins ({ties} break-even) net their recomputed energy, worst {worst:.2f} ulps"
    )
    return _result("net-energy", t0, not problems, detail)


def check_break_even(trials: int = 2000) -> CheckResult:
    """Every cooperative cell of a truthful sweep nets exactly 0: a winner
    paid its own optimal schedule harvests its break-even energy, so
    ``mean_net_harvest_j`` and its standard error are 0.0, cap-bound wins
    included, where the kernel's cap tie absorbs the last-bit gap between
    p_max and the power the cap's duration costs."""
    t0 = time.perf_counter()
    cfg = SweepConfig(
        n_values=(1, 2, 3), lambda_values_w=(1.0, 100.0), trials=trials, mechanisms=("cooperative",)
    )
    cells = run_sweep(cfg, GeometryConfig(), ChannelConfig(), SystemParams())
    problems = [
        f"n={c.n} lam={c.lambda_w}: {c.mean_net_harvest_j!r} +- {c.std_err_net_harvest_j!r} J"
        for c in cells
        if c.mean_net_harvest_j != 0.0 or c.std_err_net_harvest_j != 0.0
    ]
    detail = "; ".join(problems[:3]) if problems else (
        f"{len(cells)} cooperative cells of {trials} trials net exactly 0 J"
    )
    return _result("break-even", t0, not problems, detail)


def _cell_index(cells):
    return {(c.mechanism, c.n, c.lambda_w): c for c in cells}


def _db_to_joules(db_mj: float) -> float:
    return 10.0 ** (db_mj / 10.0) / 1e3


def check_trends(trials: int = 5000, n_jobs: int | None = None) -> CheckResult:
    """Qualitative trend gates on the default sweep.

    (a) MSPOA mean duration strictly falls from n=1 to n=3 at the largest
        delay power, by at least 30 percent;
    (b) MSPOA mean energy at n=2 is at least 40 percent below n=1 at the
        smallest delay power;
    (c) |MSPOA - cooperative| gaps in duration and energy shrink with n
        (within two standard errors);
    (d) mean net harvest is non-increasing in n (within two standard errors)
        and non-decreasing in the delay power with a strict overall rise
        (cap-bound cells tie exactly, so ties are allowed step to step).
    """
    t0 = time.perf_counter()
    cfg = SweepConfig(trials=trials)
    cells = run_sweep(cfg, GeometryConfig(), ChannelConfig(), SystemParams(),
                      n_jobs=_default_jobs() if n_jobs is None else n_jobs)
    by = _cell_index(cells)
    lams = cfg.lambda_values_w
    ns = cfg.n_values
    problems = []

    lam_hi, lam_lo = max(lams), min(lams)
    t1, t2, t3 = (by[("mspoa", n, lam_hi)].mean_t_s for n in (1, 2, 3))
    if not (t1 > t2 > t3):
        problems.append(f"(a) duration not strictly decreasing: {t1:.3g}, {t2:.3g}, {t3:.3g}")
    cut = 1.0 - t3 / t1
    if cut < 0.30:
        problems.append(f"(a) duration cut n1->n3 {cut:.1%} < 30%")

    e1 = _db_to_joules(by[("mspoa", 1, lam_lo)].mean_energy_db_mj)
    e2 = _db_to_joules(by[("mspoa", 2, lam_lo)].mean_energy_db_mj)
    ecut = 1.0 - e2 / e1
    if ecut < 0.40:
        problems.append(f"(b) energy cut n1->n2 {ecut:.1%} < 40%")

    for lam in lams:
        for a, b in zip(ns, ns[1:]):
            ca, cb = by[("mspoa", a, lam)], by[("mspoa", b, lam)]
            ka, kb = by[("cooperative", a, lam)], by[("cooperative", b, lam)]
            gap_t_a = abs(ca.mean_t_s - ka.mean_t_s)
            gap_t_b = abs(cb.mean_t_s - kb.mean_t_s)
            se = math.sqrt(ca.std_err_t_s**2 + ka.std_err_t_s**2 + cb.std_err_t_s**2 + kb.std_err_t_s**2)
            if gap_t_b > gap_t_a + 2.0 * se:
                problems.append(f"(c) duration gap grew {a}->{b} at lam={lam}")
            se_j = lambda c: c.std_err_energy_db_mj * _db_to_joules(c.mean_energy_db_mj) * math.log(10.0) / 10.0
            gap_e_a = abs(_db_to_joules(ca.mean_energy_db_mj) - _db_to_joules(ka.mean_energy_db_mj))
            gap_e_b = abs(_db_to_joules(cb.mean_energy_db_mj) - _db_to_joules(kb.mean_energy_db_mj))
            se_e = math.sqrt(se_j(ca)**2 + se_j(ka)**2 + se_j(cb)**2 + se_j(kb)**2)
            if gap_e_b > gap_e_a + 2.0 * se_e:
                problems.append(f"(c) energy gap grew {a}->{b} at lam={lam}")

    for lam in lams:
        for a, b in zip(ns, ns[1:]):
            ca, cb = by[("mspoa", a, lam)], by[("mspoa", b, lam)]
            se = math.sqrt(ca.std_err_net_harvest_j**2 + cb.std_err_net_harvest_j**2)
            if cb.mean_net_harvest_j > ca.mean_net_harvest_j + 2.0 * se:
                problems.append(f"(d) harvest grew with n {a}->{b} at lam={lam}")
    for n in ns:
        hs = [by[("mspoa", n, lam)].mean_net_harvest_j for lam in sorted(lams)]
        if any(b < a - 1e-12 for a, b in zip(hs, hs[1:])):
            problems.append(f"(d) harvest fell with lambda at n={n}: {hs}")
        if not hs[-1] > hs[0]:
            problems.append(f"(d) harvest not strictly higher at lam={lam_hi} vs {lam_lo} for n={n}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        problems.append(f"sweep runtime {elapsed:.0f}s exceeds 5 minutes")
    detail = "; ".join(problems) if problems else (
        f"duration cut {cut:.1%}, energy cut {ecut:.1%}, gap/harvest trends hold, {elapsed:.0f}s"
    )
    return _result("trend-reproduction", t0, not problems, detail)


def check_reproducibility(trials: int = 200) -> CheckResult:
    """Identical seeds give byte-identical CSV, for any worker count."""
    t0 = time.perf_counter()
    cfg = SweepConfig(
        n_values=(1, 2, 3), lambda_values_w=(1.0, 100.0), trials=trials,
        mechanisms=("cooperative", "spoa", "mspoa"),
    )
    geom, chan, params = GeometryConfig(), ChannelConfig(), SystemParams()
    first = render_csv(run_sweep(cfg, geom, chan, params, n_jobs=1))
    second = render_csv(run_sweep(cfg, geom, chan, params, n_jobs=1))
    parallel = render_csv(run_sweep(cfg, geom, chan, params, n_jobs=2))
    passed = first == second == parallel
    return _result(
        "sweep-reproducibility",
        t0,
        passed,
        f"{trials}-trial CSV identical across reruns and 1 vs 2 workers: {passed}",
    )


# Every check in run order, with its fast-level arguments; None runs it at
# the full level only. The full level runs each check with its defaults.
CHECKS = (
    (check_oracle_equivalence, {"n_z": 50}),
    (check_lambert_residuals, {"n": 200}),
    (check_monotonicity, {"n_grid": 60, "n_roundtrip": 25}),
    (check_mspoa_ic_fuzz, {"instances": 100, "deviations": 40}),
    (check_spoa_ne_fuzz, {"instances": 100, "deviations": 40}),
    (check_non_ic_demo, {}),
    (check_tie_break, {}),
    (check_net_energy, {"instances": 100}),
    (check_break_even, {"trials": 200}),
    (check_trends, None),
    (check_reproducibility, {"trials": 40}),
)


def checks_for_level(level: str) -> list[partial]:
    if level == "fast":
        return [partial(check, **fast) for check, fast in CHECKS if fast is not None]
    if level == "full":
        return [partial(check) for check, _ in CHECKS]
    raise ValueError(f"unknown verification level {level!r}")


def run_level(level: str) -> list[CheckResult]:
    results = []
    for check in checks_for_level(level):
        res = check()
        results.append(res)
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    return results
