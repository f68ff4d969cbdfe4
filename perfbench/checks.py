"""Correctness checks on every workload's outputs.

Each check returns a list of problems (empty when the outputs are correct).
They compare against computations independent of the closed-form kernel
(golden-section minimization of the cost function) or against properties
the method must have, never against stored output. Checks take outputs as
plain data so the smoke tests can feed them corrupted copies.
"""

from __future__ import annotations

import csv
import io
import math
from unittest import mock

from relayauction import verify
from relayauction.mechanisms import SOURCE, ex_post_utility, score
from relayauction.montecarlo import CellStats, render_csv
from relayauction.numerics import DEFAULT_TOL
from relayauction.schedule import value_of_z

# Gates of verify.check_trends left out of the per-seed check: they compare
# means of heavy-tailed per-trial values (the n=1 duration and energy have
# infinite variance), so at 512 trials they fail on correct code for 1 in
# 200 seeds (a), 64 in 200 (b) and 12 in 200 (d, n part). Prefixes of their
# problem messages:
FRAGILE_GATES = ("(a) ", "(b) ", "(d) harvest grew with n")

GAIN_TOL_J = 1e-9  # a deviation may gain at most this much energy
COST_REL = 1e-6  # closed form vs golden-section oracle
CELL_REL = 1e-9  # sweep CSV row vs the same cell settled auction by auction
PAYMENT_REL = 1e-9  # MSPOA payment cost vs runner-up score
UTILITY_REL = 1e-9  # winner utility >= -UTILITY_REL * (t * alpha_tilde * p)


def _db_mj_to_j(db_mj: float) -> float:
    return 10.0 ** (db_mj / 10.0) / 1e3


def sweep_problems(
    csv_text: str,
    cells_record: dict,
    trials: int,
    n_values: tuple[int, ...],
    lambdas: tuple[float, ...],
    mechanisms: tuple[str, ...],
) -> list[str]:
    """The CSV and cells record of one sweep: complete, consistent, and
    with the harvest signs and trend gates the mechanisms guarantee."""
    problems = []
    try:
        cells = [CellStats(**rec) for rec in cells_record["cells"]]
    except (KeyError, TypeError) as exc:
        return [f"cells.json unreadable: {exc!r}"]
    want = {(m, n, lam) for n in n_values for lam in lambdas for m in mechanisms}
    got = [(c.mechanism, c.n, c.lambda_w) for c in cells]
    if sorted(got) != sorted(want):
        problems.append(f"cell grid {len(got)} cells, expected {len(want)}")
    if any(c.trials != trials for c in cells):
        problems.append(f"a cell does not hold {trials} trials")
    if render_csv(cells) != csv_text:
        problems.append("sweep.csv disagrees with cells.json")
    for c in cells:
        where = f"{c.mechanism} n={c.n} lambda={c.lambda_w}"
        h = c.mean_net_harvest_j
        if c.mechanism == "cooperative":
            scale = _db_mj_to_j(c.mean_energy_db_mj)
            if not abs(h) <= 1e-12 * scale:
                problems.append(f"cooperative harvest {h!r} J is not 0 at {where}")
        elif not h >= 0.0:
            problems.append(f"negative mean harvest {h!r} J at {where}")
    if "mspoa" in mechanisms and not problems:
        problems += trend_problems(cells, trials)
    return problems


def trend_problems(cells: list[CellStats], trials: int) -> list[str]:
    """Gate (c) and the delay-power part of gate (d) of verify.check_trends,
    evaluated on the given cells instead of a fresh default sweep."""
    with mock.patch.object(verify, "run_sweep", return_value=cells):
        res = verify.check_trends(trials=trials, n_jobs=1)
    if res.passed:
        return []
    problems = [p for p in res.detail.split("; ") if not p.startswith(FRAGILE_GATES)]
    return [f"trend gate {p}" for p in problems]


def cell_problems(csv_text: str, recomputed: list[CellStats]) -> list[str]:
    """Rows of the sweep's CSV against the same cells recomputed auction by
    auction, field by field to rel CELL_REL. Harvests that are 0 to rounding
    (the cooperative baseline) compare to 1e-12 of the cell's mean source
    energy, and the mean energy in dB to 1e-8 dB (rel 2.3e-9 in energy)."""
    try:
        rows = {
            (row["mechanism"], int(row["n"]), float(row["lambda_w"])): row
            for row in csv.DictReader(io.StringIO(csv_text))
        }
    except (KeyError, TypeError, ValueError) as exc:
        return [f"sweep.csv unreadable: {exc!r}"]
    problems = []
    for want in recomputed:
        where = f"{want.mechanism} n={want.n} lambda={want.lambda_w}"
        row = rows.get((want.mechanism, want.n, want.lambda_w))
        if row is None:
            problems.append(f"no CSV row for {where}")
            continue
        harvest_floor = 1e-12 * _db_mj_to_j(want.mean_energy_db_mj)
        floors = {"mean_energy_db_mj": 1e-8, "mean_net_harvest_j": harvest_floor,
                  "std_err_net_harvest_j": harvest_floor}
        for name, expect in want.to_record().items():
            if name in ("mechanism", "n", "lambda_w"):
                continue
            try:
                got = float(row[name])
            except (KeyError, TypeError, ValueError):
                problems.append(f"CSV {name} unreadable at {where}")
                continue
            if not abs(got - expect) <= CELL_REL * max(abs(got), abs(expect)) + floors.get(name, 0.0):
                problems.append(f"CSV {name} {got!r}, recomputed {expect!r} at {where}")
    return problems


def oracle_values(inst, params) -> list[float]:
    """Optimal cost of every bidder by golden-section search on the cost."""
    zs = [inst.z0_w] + [float(z) for z in inst.z_w]
    return [verify.oracle_schedule_cost(z, params) for z in zs]


def trial_problems(inst, params, outcomes: dict, where: str) -> list[str]:
    """One sampled sweep trial: winner and source cost of each mechanism
    against the oracle; winner utilities never negative."""
    values = oracle_values(inst, params)
    order = sorted(range(len(values)), key=lambda i: values[i])
    best, second = order[0], order[1]
    tie = values[second] - values[best] <= COST_REL * values[best]
    problems = []
    for mech, out in outcomes.items():
        if not tie and out.winner != best:
            problems.append(f"{mech} winner {out.winner}, oracle {best} at {where}")
            continue
        if mech == "cooperative" or out.winner == SOURCE:
            expect = values[best]
        else:
            expect = values[second]
        if not abs(out.source_cost_ws - expect) <= COST_REL * expect:
            problems.append(f"{mech} source cost {out.source_cost_ws!r}, oracle {expect!r} at {where}")
        if out.winner != SOURCE:
            u = ex_post_utility(out.winner, out, inst, params)
            scale = out.payment_t_s * out.payment_p_w * float(inst.alpha_tilde[out.winner - 1])
            low = -UTILITY_REL * scale
            if mech == "cooperative" and not abs(u) <= UTILITY_REL * scale:
                problems.append(f"cooperative winner utility {u!r} J is not 0 at {where}")
            elif not u >= low:
                problems.append(f"{mech} winner utility {u!r} J is negative at {where}")
    return problems


def fuzz_problems(cases, outcomes) -> list[str]:
    """The IC (MSPOA) and NE (SPOA) fuzzes: no deviation gains, every MSPOA
    payment costs the runner-up's score, a truthful MSPOA winner never loses.

    ``cases[i]`` is a FuzzCase whose profiles[0] has the focal bidder truthful;
    ``outcomes[i]`` lists the settled outcome of each of its profiles
    (None where the call failed).
    """
    problems = []
    for case, outs in zip(cases, outcomes):
        inst, params, focal = case.inst, case.params, case.focal
        if outs[0] is None:
            continue
        u_truth = ex_post_utility(focal, outs[0], inst, params)
        for profile, out in zip(case.profiles, outs):
            if out is None:
                continue
            gain = ex_post_utility(focal, out, inst, params) - u_truth
            if gain > GAIN_TOL_J:
                problems.append(f"{case.mechanism} deviation gains {gain:.3e} J in {case.label}")
            if case.mechanism == "mspoa" and out.winner != SOURCE:
                runner = next(b for b in profile.bids if b.bidder == out.runner_up)
                target = score(runner, params)
                if not abs(out.source_cost_ws - target) <= PAYMENT_REL * target:
                    problems.append(
                        f"mspoa payment cost {out.source_cost_ws!r} != runner-up score "
                        f"{target!r} in {case.label}"
                    )
        if case.mechanism == "mspoa" and outs[0].winner == focal:
            out = outs[0]
            scale = out.payment_t_s * out.payment_p_w * float(inst.alpha_tilde[focal - 1])
            if not u_truth >= -UTILITY_REL * scale:
                problems.append(f"truthful mspoa winner loses {u_truth!r} J in {case.label}")
    return problems


def witness_problems(inst, params, spoa, mspoa) -> list[str]:
    """The eps-witness profile: the truthful SPOA winner loses energy, the
    MSPOA winner does not."""
    u_spoa = ex_post_utility(1, spoa, inst, params)
    u_mspoa = ex_post_utility(1, mspoa, inst, params)
    if spoa.winner == 1 and mspoa.winner == 1 and u_spoa < 0.0 <= u_mspoa:
        return []
    return [f"witness: winners {spoa.winner}/{mspoa.winner}, utilities spoa {u_spoa!r} mspoa {u_mspoa!r}"]


def lambert_problems(xs, ws) -> list[str]:
    worst = max(abs(w * math.exp(w) - x) / max(1.0, abs(x)) for x, w in zip(xs, ws))
    return [] if worst <= 1e-9 else [f"lambert_w0 scaled residual {worst:.3e} > 1e-9"]


def schedule_problems(zs, costs) -> list[str]:
    """Closed-form schedule costs against the golden-section oracle."""
    worst = 0.0
    for (z, params), cost in zip(zs, costs):
        brute = verify.oracle_schedule_cost(z, params)
        worst = max(worst, abs(brute - cost) / cost)
    return [] if worst <= COST_REL else [f"optimal_schedule cost off the oracle by rel {worst:.3e}"]


def inverse_problems(us, z_backs) -> list[str]:
    """z_of_value round trip: the value of the returned channel is u."""
    worst = 0.0
    for (u, params), z in zip(us, z_backs):
        worst = max(worst, abs(value_of_z(z, params) - u) / u)
    return [] if worst <= 1e-9 else [f"z_of_value round trip off by rel {worst:.3e}"]


def backend_problems(compiled, zs, us) -> list[str]:
    """Bit-for-bit agreement of the compiled kernel with the Python one."""
    from relayauction import _kernel_py

    tol = (DEFAULT_TOL.abs_tol, DEFAULT_TOL.rel_tol, DEFAULT_TOL.max_iter)
    problems = []
    for entry, inputs in (("schedule", zs), ("invert_value", us)):
        for x, p in inputs:
            args = (x, p.d_bits_per_hz, p.lambda_w, p.p_max_w, *tol)
            if getattr(compiled, entry)(*args) != getattr(_kernel_py, entry)(*args):
                problems.append(f"backends disagree on {entry} at {x!r}")
                break
    return problems
