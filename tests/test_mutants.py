"""Known-wrong settlement rules, and the gate that must fail on each.

A mutant is a few source edits to the rules in ``mechanisms``, made alike
in the scalar rules and in ``settle``, so that the two paths still agree
and only a gate on the paper's claims can tell. Each edit recompiles one
function in the module's own namespace and monkeypatches it over every
name it was imported under; a helper that the rules look up at call time,
such as ``_gain``, is replaced once for both paths. An edit whose text is
no longer in the function fails the test rather than planting nothing.

The gates are the verify checks, run here at the reduced scale stated with
each, and the golden sweep's bytes (``test_golden_sweep``), which only the
golden host can compare. ``test_gates_pass_on_the_correct_rules`` holds
every gate at its scale to a pass without a mutant. A mutant that no gate
catches is an expected failure, with the gap it leaves named.
"""

import __future__

import inspect
import textwrap

import numpy as np
import pytest
from test_golden_sweep import golden_problems, host_matches, run_golden_sweep

import relayauction
from relayauction import mechanisms, montecarlo, verify

M = mechanisms
# run_mspoa's payment block, the memo included: a mutant of the payment
# replaces all of it, so no payment remembered on a bid can mask the edit.
MSPOA_PAYMENT = (
    'paid = getattr(runner, "_mspoa_payment", None)\n'
    "    if paid is None or paid[0] is not params:\n"
    "        sol = optimal_schedule(z_of_value(_paid_score(runner, s_runner), params), params)\n"
    "        paid = params, sol.t_star_s, sol.p_star_w, sol.cost_ws\n"
    '        object.__setattr__(runner, "_mspoa_payment", paid)\n'
    "    _, t, p, cost = paid"
)
# Each mutant: (function, text, replacement) edits.
MUTANTS = {
    "mspoa-pays-runner-bid": [
        (M.run_mspoa, MSPOA_PAYMENT, "t, p, cost = runner.t_s, runner.p_tot_w, _paid_score(runner, s_runner)"),
        (M.settle, 'if mech == "mspoa":', "if False:"),
    ],
    "spoa-pays-best-bid": [
        (M.run_spoa, "paid, s = (best, s_best) if best.bidder == SOURCE else (runner, s_runner)", "paid, s = best, s_best"),
        (M.settle, "paid = np.where(relay, runner, best)", 'paid = best if mech == "spoa" else np.where(relay, runner, best)'),
    ],
    "winner-runner-swapped": [
        (M._winner_and_runner, "return best, s_best, runner, s_runner", "return runner, s_runner, best, s_best"),
        (M.settle, "best, runner = order[:, 0], order[:, 1]", "runner, best = order[:, 0], order[:, 1]"),
    ],
    "tie-break-flipped": [
        (M._winner_and_runner, "(s == s_best and b.bidder < best.bidder)", "(s == s_best and b.bidder > best.bidder)"),
        (M._winner_and_runner, "(s == s_runner and b.bidder < runner.bidder)", "(s == s_runner and b.bidder > runner.bidder)"),
        (M.settle, 'order = np.argsort(c, axis=1, kind="stable")',
         'order = c.shape[1] - 1 - np.argsort(c[:, ::-1], axis=1, kind="stable")'),
    ],
    "net-energy-bias-1e-12": [(M._gain, "+ 0.0)", "+ 0.0) * (1.0 + 1e-12)")],
    "cap-tie-off": [(M._gain, "abs(gap) > CAP_TIE_REL * p", "abs(gap) > 0.0 * p")],
    # MSPOA pays optimal_schedule(z_of_value((1 - delta)*s_runner + delta*s_winner)).
    "delta-leak-1e-6": [
        (M.run_mspoa, MSPOA_PAYMENT,
         "sol = optimal_schedule(z_of_value((1 - 1e-6) * _paid_score(runner, s_runner) + 1e-6 * s_best, params), params)\n"
         "    t, p, cost = sol.t_star_s, sol.p_star_w, sol.cost_ws"),
        (M.settle, "u = float(pc[i])", "u = float((1 - 1e-6) * pc[i] + 1e-6 * c[i, best[i]])"),
    ],
}


def _golden_sweep(tmp_path) -> bool:
    return not golden_problems(run_golden_sweep(tmp_path))


# Each gate at its reduced scale: a callable of a scratch directory that
# returns whether the gate passes.
GATES = {
    "mspoa-incentive-compatibility-fuzz 10x10": lambda _: verify.check_mspoa_ic_fuzz(10, 10).passed,
    "spoa-nash-equilibrium-fuzz 10x10": lambda _: verify.check_spoa_ne_fuzz(10, 10).passed,
    "spoa-non-ic-witness": lambda _: verify.check_non_ic_demo().passed,
    "tie-break": lambda _: verify.check_tie_break().passed,
    "net-energy 100 instances": lambda _: verify.check_net_energy(100).passed,
    "payment-manifold 100 instances": lambda _: verify.check_manifold(100).passed,
    "payment-equivalence 64 trials": lambda _: verify.check_equivalence(64).passed,
    "break-even 200 trials": lambda _: verify.check_break_even(200).passed,
    "trend-reproduction 200 trials": lambda _: verify.check_trends(200, n_jobs=1).passed,
    "golden sweep": _golden_sweep,
}

OFF_HOST = "off the golden host only the golden sweep's bound applies, which a last-bit change escapes"
# (mutant, the gate that must fail on it)
CAUGHT = [
    ("mspoa-pays-runner-bid", "spoa-non-ic-witness"),
    ("spoa-pays-best-bid", "spoa-nash-equilibrium-fuzz 10x10"),
    ("spoa-pays-best-bid", "spoa-non-ic-witness"),
    ("winner-runner-swapped", "mspoa-incentive-compatibility-fuzz 10x10"),
    ("winner-runner-swapped", "spoa-nash-equilibrium-fuzz 10x10"),
    ("winner-runner-swapped", "spoa-non-ic-witness"),
    ("winner-runner-swapped", "trend-reproduction 200 trials"),
    ("tie-break-flipped", "tie-break"),
    # Below 1e-9 J (worst gain about 5e-13 J): the scale-aware count's catch.
    ("delta-leak-1e-6", "mspoa-incentive-compatibility-fuzz 10x10"),
    # The leaked payment costs about 1e-6 less than the runner-up's score,
    # and on truthful profiles it is that far from SPOA's, on any host.
    ("delta-leak-1e-6", "payment-manifold 100 instances"),
    ("delta-leak-1e-6", "payment-equivalence 64 trials"),
    # Wins that net far from break-even carry the bias past 4 ulps, on any host.
    ("net-energy-bias-1e-12", "net-energy 100 instances"),
    pytest.param("net-energy-bias-1e-12", "golden sweep",
                 marks=pytest.mark.xfail(not host_matches(), reason=OFF_HOST, strict=True)),
    # Cap-bound cooperative wins net the last-bit gap between p_max and the
    # power their duration costs, on any host.
    ("cap-tie-off", "break-even 200 trials"),
    # So do MSPOA wins paid a tied runner-up's schedule, which the inverse
    # rebuilds to within the tie.
    ("cap-tie-off", "net-energy 100 instances"),
    pytest.param("cap-tie-off", "golden sweep",
                 marks=pytest.mark.xfail(not host_matches(), reason=OFF_HOST, strict=True)),
]


def _plant(monkeypatch, mutant: str) -> None:
    edits: dict = {}
    for fn, old, new in MUTANTS[mutant]:
        edits.setdefault(fn, []).append((old, new))
    for fn, pairs in edits.items():
        src = textwrap.dedent(inspect.getsource(fn))
        for old, new in pairs:
            assert src.count(old) == 1, f"{fn.__name__} no longer holds {old!r}"
            src = src.replace(old, new)
        scratch: dict = {}
        code = compile(src, inspect.getsourcefile(fn), "exec",
                       flags=__future__.annotations.compiler_flag, dont_inherit=True)
        exec(code, fn.__globals__, scratch)
        for module in (mechanisms, montecarlo, verify, relayauction):
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, scratch[fn.__name__])


@pytest.mark.parametrize("gate", GATES)
def test_gates_pass_on_the_correct_rules(gate, tmp_path):
    assert GATES[gate](tmp_path)


@pytest.mark.parametrize("mutant, gate", CAUGHT)
def test_gate_fails_on_the_mutant(mutant, gate, monkeypatch, tmp_path):
    _plant(monkeypatch, mutant)
    assert not GATES[gate](tmp_path)


def test_some_gate_fails_on_a_flipped_tie_break(monkeypatch, tmp_path):
    _plant(monkeypatch, "tie-break-flipped")
    assert not all(gate(tmp_path) for gate in GATES.values())


def test_every_mutant_plants_and_the_paths_agree(monkeypatch):
    # Each mutant's edits apply, and the scalar rules and settle still agree
    # on the witness profile (so a gate, not TestSettle, must catch it).
    inst, params = verify.witness_instance()
    profile = mechanisms.truthful_profile(inst, params)
    t = np.array([[b.t_s for b in profile.bids]])
    p = np.array([[b.p_tot_w for b in profile.bids]])
    z = np.array([[inst.z0_w, *inst.z_w]])
    for mutant in MUTANTS:
        with monkeypatch.context() as m:
            _plant(m, mutant)
            for rule, mech in ((mechanisms.run_spoa, "spoa"), (mechanisms.run_mspoa, "mspoa")):
                out = rule(profile, inst, params)
                _, [settled] = mechanisms.settle((mech,), t, p, z, inst.alpha_tilde[None, :], params)
                # settle's break-even power is numpy's expm1, the rule's math's.
                got = (out.payment_t_s, out.payment_p_w, out.winner_net_energy_j)
                assert got == pytest.approx([float(a[0]) for a in settled], rel=1e-12), mutant
