import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples

from relayauction.kernel import lambert_w0
from relayauction.numerics import (
    ConvergenceError,
    ToleranceSpec,
    minimize_unimodal,
    solve_increasing,
)

NEG_INV_E = -0.36787944117144233

# Independent bisection oracle on w*exp(w) = 1 over [0, 1], interval 1e-13.
OMEGA_ORACLE = 0.5671432904098026


def bisect_omega():
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLambertW0:
    def test_zero(self):
        assert lambert_w0(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_e_maps_to_one(self):
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)

    def test_branch_point(self):
        assert lambert_w0(NEG_INV_E) == -1.0

    def test_omega_constant_against_bisection_oracle(self):
        assert bisect_omega() == pytest.approx(OMEGA_ORACLE, abs=1e-12)
        assert lambert_w0(1.0) == pytest.approx(OMEGA_ORACLE, abs=1e-10)

    def test_domain_error_below_branch_point(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.368)

    def test_just_below_branch_point_within_abs_tol_clamps(self):
        assert lambert_w0(NEG_INV_E - 1e-13) == -1.0

    def test_non_convergence_raises(self):
        with pytest.raises(ConvergenceError):
            lambert_w0(0.5, 1e-12, 1e-30, 1)

    def test_residuals_on_log_sample(self):
        rng = np.random.default_rng(7)
        xs = NEG_INV_E + 10.0 ** rng.uniform(-9, 6, size=300)
        for x in xs:
            w = lambert_w0(float(x))
            assert w >= -1.0
            assert abs(w * math.exp(w) - x) <= 1e-9 * max(1.0, abs(x))

    def test_monotone_increasing(self):
        rng = np.random.default_rng(8)
        xs = np.sort(NEG_INV_E + 10.0 ** rng.uniform(-9, 6, size=300))
        ws = [lambert_w0(float(x)) for x in xs]
        assert all(a < b for a, b in zip(ws, ws[1:]))


class TestMinimizeUnimodal:
    def test_quadratic_vertex(self):
        x, fx = minimize_unimodal(lambda x: (x - 2.0) ** 2, 0.0, 5.0)
        assert x == pytest.approx(2.0, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_boundary_minimum(self):
        x, _ = minimize_unimodal(lambda x: x, 1.0, 3.0)
        assert x == pytest.approx(1.0, abs=1e-8)

    def test_transmit_cost_objective(self):
        # z = lambda = 1, D = 8: minimizer is 8*ln2 analytically.
        g = lambda t: t * (1.0 + (2.0 ** (8.0 / t) - 1.0))
        x, fx = minimize_unimodal(g, 1.0, 100.0)
        assert x == pytest.approx(5.545177444479562, rel=1e-5)
        assert fx == pytest.approx(15.07335508290976, rel=1e-12)

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            minimize_unimodal(lambda x: x * x, 2.0, 2.0)

    @given(m=st.floats(-50.0, 50.0), half=st.floats(0.1, 40.0))
    @settings(max_examples=examples(200), deadline=None)
    def test_recovers_quadratic_minimizer(self, m, half):
        x, _ = minimize_unimodal(lambda x: (x - m) ** 2, m - half, m + 2.0 * half)
        assert abs(x - m) <= 1e-7 * (1.0 + abs(m))


class TestSolveIncreasing:
    def test_cube_root(self):
        assert solve_increasing(lambda x: x**3, 8.0, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_exponential_crosses_zero(self):
        # The downward search must cross below the positive hint.
        assert solve_increasing(math.exp, 1.0, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_lo_bound_keeps_evaluations_in_domain(self):
        calls = []

        def f(x):
            calls.append(x)
            assert x > 0.0
            return math.log(x)

        res = solve_increasing(f, math.log(1e-6), 3.0, lo_bound=0.0)
        assert res == pytest.approx(1e-6, rel=1e-8)
        assert min(calls) > 0.0

    def test_bracket_expansion_failure(self):
        with pytest.raises(ConvergenceError):
            solve_increasing(math.atan, 2.0, 0.0, ToleranceSpec(max_iter=60))

    def test_bisection_out_of_steps(self):
        # Three halvings of [0, 1] do not reach 0.3 to within 1e-12.
        with pytest.raises(ConvergenceError) as err:
            solve_increasing(lambda x: x, 0.3, 0.0, ToleranceSpec(max_iter=3))
        assert str(err.value) == "bisection residual above tolerance for target=0.3"

    @given(
        a=st.floats(0.5, 3.0),
        b=st.floats(0.1, 2.0),
        x0=st.floats(0.05, 5.0),
        hint=st.floats(0.05, 5.0),
    )
    @settings(max_examples=examples(200), deadline=None)
    def test_round_trip_on_monotone_family(self, a, b, x0, hint):
        f = lambda x: a * x + b * x**3
        tol = ToleranceSpec(abs_tol=1e-14, rel_tol=1e-12, max_iter=300)
        res = solve_increasing(f, f(x0), hint, tol)
        assert res == pytest.approx(x0, rel=1e-8, abs=1e-10)


class TestToleranceSpec:
    @pytest.mark.parametrize(
        "kwargs", [dict(abs_tol=0.0), dict(rel_tol=-1e-10), dict(max_iter=0)]
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ToleranceSpec(**kwargs)
