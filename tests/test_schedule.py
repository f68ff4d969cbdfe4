import math
import re
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import examples

from relayauction import (
    ConvergenceError,
    SystemParams,
    cost_function,
    min_total_power,
    optimal_schedule,
    value_of_z,
    z_of_value,
)
from relayauction import kernel
from relayauction.kernel import (
    _INV_E,
    _LN2,
    _SERIES_C2,
    _SERIES_C3,
    _SERIES_R,
    CAP_TIE_REL,
    ScheduleOverflow,
    _lambert_core,
)
from relayauction.numerics import DEFAULT_TOL
from relayauction.schedule import optimal_schedules
from relayauction.verify import _kink_z, oracle_schedule_cost, oracle_z_of_value

LN2 = math.log(2.0)
EPS = 2.0**-52

# Golden-section oracle values for z=2, lambda=1, D=8, p_max=10 (the cost is
# machine-flat within ~2e-7 of the minimizer, hence the loose duration check).
ORACLE_T_Z2 = 7.219916167800623
ORACLE_COST_Z2 = 23.9056503824653


@pytest.fixture
def params10():
    return SystemParams(d_bits_per_hz=8.0, lambda_w=1.0, p_max_w=10.0)


def _array_schedule(z, d, lam, p_max):
    # kernel.schedules on a two-element array, as a scalar tuple.
    t, p, c, active = kernel.schedules(np.array([z, z]), d, lam, p_max)
    return float(t[1]), float(p[1]), float(c[1]), bool(active[1])


class TestSystemParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d_bits_per_hz=0.0),
            dict(lambda_w=-1.0),
            dict(p_max_w=0.0),
            dict(sigma2_w=0.0),
            dict(a_r_m2=-1e-4),
            dict(alpha=0.0),
            dict(alpha=1.5),
            dict(lambda_w=True),
            dict(alpha=np.bool_(True)),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(lambda_w=-1.0), "lambda_w must be strictly positive"),
            (dict(sigma2_w=0.0, a_r_m2=-1.0), "sigma2_w must be strictly positive; a_r_m2 must be strictly positive"),
            (dict(alpha=1.5), "alpha must not exceed 1"),
        ],
    )
    def test_range_messages_start_with_the_field_name(self, kwargs, message):
        # As the typing messages do ("lambda_w must be a finite number, got inf").
        with pytest.raises(ValueError) as err:
            SystemParams(**kwargs)
        assert str(err.value) == message

    def test_alpha_one_allowed(self):
        assert SystemParams(alpha=1.0).alpha == 1.0

    def test_numpy_floats_allowed(self):
        assert SystemParams(lambda_w=np.float64(2.5), p_max_w=np.float32(4.0)).lambda_w == 2.5


class TestCostFunction:
    def test_rate_two_point(self, params10):
        # T = D makes the exponent 1, so the bracket is lambda + z.
        assert cost_function(8.0, 1.0, params10) == pytest.approx(16.0, rel=1e-14)

    def test_large_duration_dominated_by_delay_power(self, params10):
        g1 = cost_function(1e6, 1.0, params10)
        g2 = cost_function(2e6, 1.0, params10)
        assert g1 == pytest.approx(1e6, rel=1e-4)
        assert g2 > g1

    def test_at_log_optimal_duration(self, params10):
        got = cost_function(8.0 * LN2, 1.0, params10)
        assert got == pytest.approx(8.0 * math.e * LN2, rel=1e-14)

    def test_long_duration_does_not_cancel(self, params10):
        # (2^(D/t) - 1)*z*t tends to D*ln2*z; 2^(D/t) - 1 would lose it.
        got = cost_function(1e12, 1e10, params10) - 1e12 * params10.lambda_w
        assert got == pytest.approx(8.0 * LN2 * 1e10, rel=1e-9)

    def test_rejects_non_positive_inputs(self, params10):
        with pytest.raises(ValueError):
            cost_function(0.0, 1.0, params10)
        with pytest.raises(ValueError):
            cost_function(1.0, -1.0, params10)


class TestOptimalSchedule:
    def test_matched_delay_power(self, params10):
        # z == lambda puts the Lambert argument at 0, so T* = D ln2 exactly.
        sol = optimal_schedule(1.0, params10)
        assert sol.t_star_s == pytest.approx(8.0 * LN2, rel=1e-12)
        assert sol.p_star_w == pytest.approx(math.e - 1.0, rel=1e-12)
        assert sol.cost_ws == pytest.approx(8.0 * math.e * LN2, rel=1e-12)
        assert not sol.constraint_active

    def test_power_cap_branch(self, params10):
        sol = optimal_schedule(1e4, params10)
        assert sol.constraint_active
        assert sol.p_star_w == params10.p_max_w
        assert sol.t_star_s == pytest.approx(8.0 / math.log2(1.001), rel=1e-12)

    def test_against_golden_section_oracle(self, params10):
        sol = optimal_schedule(2.0, params10)
        assert sol.t_star_s == pytest.approx(ORACLE_T_Z2, rel=1e-5)
        assert sol.cost_ws == pytest.approx(ORACLE_COST_Z2, rel=1e-9)
        assert oracle_schedule_cost(2.0, params10) == pytest.approx(sol.cost_ws, rel=1e-9)

    @pytest.mark.parametrize("z", [1e10, 1e11, 1e12, 1e14, 1e23])
    def test_against_golden_section_oracle_near_branch_point(self, z):
        # lambda/z <= 1e-16 at p_max/lambda = 1e12: (lambda/z - 1) cancels in
        # the Lambert argument, and 2^(D/t) - 1 cancels at the long optimal
        # durations. Every schedule costs more than D*ln2*z, and the cap binds
        # only once the interior power sqrt(2*lambda*z) exceeds p_max.
        params = SystemParams(lambda_w=1e-6, p_max_w=1e6)
        sol = optimal_schedule(z, params)
        oracle = oracle_schedule_cost(z, params)
        assert oracle > 8.0 * LN2 * z
        assert sol.cost_ws == pytest.approx(oracle, rel=1e-12)
        assert sol.constraint_active == (math.sqrt(2.0 * params.lambda_w * z) > params.p_max_w)

    @given(
        log_z=st.floats(-300.0, 300.0),
        log_lam=st.floats(-6.0, 6.0),
        log_pmax=st.floats(-6.0, 6.0),
        log_d=st.floats(-2.0, 3.0),
    )
    @settings(max_examples=examples(500), deadline=None)
    def test_whole_range_is_optimal_or_an_error(self, log_z, log_lam, log_pmax, log_d):
        # The 1e-12 slack is rounding: at lambda/z ~ 1e-300 a 1e-4 step in t
        # moves the cost by far less than one ulp.
        params = SystemParams(
            d_bits_per_hz=10.0**log_d, lambda_w=10.0**log_lam, p_max_w=10.0**log_pmax
        )
        z = 10.0**log_z
        try:
            sol = optimal_schedule(z, params)
        except (ValueError, ConvergenceError):
            return
        assert sol.p_star_w <= params.p_max_w * (1.0 + 1e-12)
        for step in (-1e-4, 1e-4):
            t = sol.t_star_s * (1.0 + step)
            if min_total_power(t, z, params) <= params.p_max_w:
                assert cost_function(t, z, params) >= sol.cost_ws * (1.0 - 1e-12), step

    def test_cost_recomputable_exactly(self, params10):
        for z in (1e-3, 0.5, 3.0, 50.0, 1e4):
            sol = optimal_schedule(z, params10)
            assert sol.cost_ws == sol.t_star_s * (params10.lambda_w + sol.p_star_w)

    def test_duration_respects_cap_floor(self, params10):
        for z in np.logspace(-3, 4, 40):
            sol = optimal_schedule(float(z), params10)
            t_floor = 8.0 / math.log2(1.0 + params10.p_max_w / z)
            assert sol.t_star_s >= t_floor * (1.0 - 1e-12)
            assert sol.p_star_w <= params10.p_max_w

    def test_active_flag_tracks_cap(self, params10):
        for z in np.logspace(-3, 4, 60):
            sol = optimal_schedule(float(z), params10)
            at_cap = abs(sol.p_star_w - params10.p_max_w) <= 1e-9 * params10.p_max_w
            assert sol.constraint_active == at_cap

    def test_first_order_condition_interior(self):
        # dg/dT = z*2^(D/T)*(1 - D ln2 / T) + lambda - z vanishes at interior optima.
        for lam in (0.1, 1.0, 10.0):
            params = SystemParams(lambda_w=lam, p_max_w=10.0)
            for z in np.logspace(-3, 2, 40):
                sol = optimal_schedule(float(z), params)
                if sol.constraint_active:
                    continue
                t = sol.t_star_s
                dg = z * 2.0 ** (8.0 / t) * (1.0 - 8.0 * LN2 / t) + lam - z
                assert abs(dg) <= 1e-6 * lam

    def test_rejects_non_positive_channel(self, params10):
        with pytest.raises(ValueError):
            optimal_schedule(0.0, params10)

    def test_rejects_infinite_channel(self, params10):
        with pytest.raises(ValueError):
            optimal_schedule(math.inf, params10)

    @pytest.mark.parametrize("z", [1e17, 1e20, 1e200])
    def test_huge_channel_binds_the_cap(self, params10, z):
        # lambda/z is lost against 1 here, so the Lambert value rounds to -1.
        sol = optimal_schedule(z, params10)
        assert sol.constraint_active
        assert sol.p_star_w == params10.p_max_w
        assert sol.t_star_s == pytest.approx(8.0 * LN2 * z / params10.p_max_w, rel=1e-12)

    def test_overflowing_schedule_is_a_convergence_error(self, params10):
        with pytest.raises(ConvergenceError, match="no finite schedule"):
            optimal_schedule(1e308, params10)

    @pytest.mark.parametrize("z", [0.1, 1e-300])
    def test_underflowing_duration_is_a_convergence_error(self, z):
        # D*ln2/log1p(p_max/z) is below the least double: no zero-duration
        # schedule, from either kernel, and the same message from both.
        params = SystemParams(d_bits_per_hz=5e-324)
        with pytest.raises(ConvergenceError, match="duration for z=.* underflows to 0") as scalar:
            optimal_schedule(z, params)
        with pytest.raises(ConvergenceError, match=f"^{re.escape(str(scalar.value))}$"):
            optimal_schedules(np.array([z, z]), params)

    @pytest.mark.parametrize("z, d, lam, p_max", [(1.0, 5e-324, 1e3, 1.0), (1e-300, 1e-320, 1e3, 1.0)])
    def test_capped_schedule_its_duration_does_not_price_is_a_convergence_error(self, z, d, lam, p_max):
        # The cap's duration is subnormal, so the power it costs is not
        # p_max: both kernels raise the same message.
        params = SystemParams(d_bits_per_hz=d, lambda_w=lam, p_max_w=p_max)
        with pytest.raises(ConvergenceError, match=f"capped schedule for z={re.escape(repr(z))} is not priced") as scalar:
            optimal_schedule(z, params)
        with pytest.raises(ConvergenceError, match=f"^{re.escape(str(scalar.value))}$"):
            optimal_schedules(np.array([z, z]), params)

    @pytest.mark.parametrize("kernel_call", [kernel.schedule, _array_schedule])
    def test_cap_where_p_max_over_z_is_below_the_normal_doubles(self, kernel_call):
        # log1p(p_max/z) is the subnormal p_max/z, which has lost its bits:
        # the cap's duration is D*ln2*z/p_max, and its power p_max. The
        # quotient z/p_max itself overflows a double.
        z, d, lam, p_max = 1.7579501103954357e236, 3.746573680066036e-201, 1.876457412818082e-121, 5.175601540150064e-84
        assert 0.0 < p_max / z < kernel._TINY and z / p_max == math.inf
        t, p, c, active = kernel_call(z, d, lam, p_max)
        exact = Fraction(d * _LN2) * Fraction(z) / Fraction(p_max)
        assert active and p == p_max and c == t * (lam + p_max)
        assert abs(Fraction(t) - exact) <= 2 * EPS * exact
        assert kernel.cost(t, z, d, lam) == pytest.approx(c, rel=1e-15)

    @pytest.mark.parametrize("kernel_call", [kernel.schedule, _array_schedule])
    @pytest.mark.parametrize(
        "z, d, lam, p_max", [(9.857368793793729e296, 1e-3, 1e-300, 1e300), (1e74, 8.0, 5e-324, sys.float_info.max)]
    )
    def test_interior_schedule_where_lam_over_z_underflows(self, kernel_call, z, d, lam, p_max):
        # lam/z rounds to 0, and the series' q = sqrt(2*lam/z) comes from
        # sqrt(2*lam)/sqrt(z): an interior schedule, cheaper than the cap's,
        # which was taken because q was 0.
        assert lam / z == 0.0
        t, p, c, active = kernel_call(z, d, lam, p_max)
        assert not active and p < p_max
        assert c == pytest.approx(kernel.cost(t, z, d, lam), rel=1e-14)
        assert c < d * _LN2 / math.log1p(p_max / z) * (lam + p_max)
        for step in (-1e-4, 1e-4):
            assert kernel.cost(t * (1.0 + step), z, d, lam) >= c * (1.0 - 1e-12)

    def test_interior_duration_that_overflows_stays_interior(self):
        # lam/z underflows and the interior duration D*ln2/q, about 5e599,
        # overflows to inf, which is no tie with the cap's finite 1e300.
        z, d, lam, p_max = 1e300, 1e300, 1e-300, 1e300
        with pytest.raises(ScheduleOverflow, match="no finite schedule"):
            kernel.schedule(z, d, lam, p_max)
        t, p, c, active = kernel.schedules(np.array([z]), d, lam, p_max)
        assert t[0] == c[0] == math.inf and not active[0]

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan])
    def test_array_call_rejects_the_first_bad_channel(self, bad):
        params = SystemParams()
        with pytest.raises(ValueError) as scalar:
            optimal_schedule(bad, params)
        with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
            optimal_schedules(np.array([[1.0, bad], [-2.0, 1.0]]), params)


def _reference_schedule(z, d, lam, p_max):
    # kernel.schedule as it stood before it decided the cap ahead of the
    # Lambert solve: every interior-branch call solves. A solved duration
    # within CAP_TIE_REL of the cap's takes the cap's own schedule.
    r = lam / z
    if r < _SERIES_R:
        q = math.sqrt(2.0 * r)
        wp1 = q * (1.0 + q * (_SERIES_C2 + q * _SERIES_C3))
    else:
        tol = DEFAULT_TOL
        wp1 = _lambert_core((r - 1.0) * _INV_E, tol.abs_tol, tol.rel_tol, tol.max_iter) + 1.0
    t_unc = d * _LN2 / wp1 if wp1 > 0.0 else 0.0
    cap_rate = math.log1p(p_max / z)
    t_min = d * _LN2 / cap_rate if cap_rate > 0.0 else math.inf
    active = t_min >= t_unc * (1.0 - CAP_TIE_REL)
    t = t_min if active else t_unc
    p = p_max if active else math.expm1(d * _LN2 / t) * z
    c = t * (lam + p)
    if not math.isfinite(c):
        raise ScheduleOverflow(f"no finite schedule for z={z!r}")
    return t, p, c, active


def _tuple_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)


def _counting_solves(monkeypatch):
    # The arguments of every Lambert solve the kernel makes from here on.
    calls = []

    def counted(*args):
        calls.append(args)
        return _lambert_core(*args)

    monkeypatch.setattr(kernel, "_lambert_core", counted)
    return calls


def _at_cap_duration(z, d, lam, p_max):
    # Whether the reference returns the cap's own duration: where its Lambert
    # w + 1 reaches log1p(p_max/z), the boundary the pre-decision must keep.
    t = _reference_schedule(z, d, lam, p_max)[0]
    return t == d * _LN2 / math.log1p(p_max / z)


def _active(z, d, lam, p_max):
    return _reference_schedule(z, d, lam, p_max)[3]


def _cap_band(d, lam, p_max, capped=_active):
    # The z at which capped(z) turns on, bracketed by bisection in log z over
    # [1e-12, 1e14], and points in ulps and relative steps about it; empty
    # when it does not turn on there.
    lo, hi = 1e-12, 1e14
    if capped(lo, d, lam, p_max) or not capped(hi, d, lam, p_max):
        return []
    while True:
        mid = math.sqrt(lo * hi)
        if mid in (lo, hi):
            break
        if capped(mid, d, lam, p_max):
            hi = mid
        else:
            lo = mid
    band = [lo, hi]
    for _ in range(24):
        band += [math.nextafter(band[-2], 0.0), math.nextafter(band[-1], math.inf)]
    for k in range(-16, -5):
        for rel in (10.0**k, 3.0 * 10.0**k):
            band += [lo * (1.0 - rel), hi * (1.0 + rel), lo * (1.0 + rel), hi * (1.0 - rel)]
    return band


def _is_reference_or_its_cap(got, want, z, d, lam, p_max):
    # got is the reference's tuple or exception, with one exception: got may
    # be the cap's own tuple where the cap truly binds or ties, i.e. where
    # W0(x) + 1 at 50 digits, for the x = (lam/z - 1)/e the kernel forms,
    # reaches c = log1p(p_max/z) to within CAP_TIE_REL. The reference misses
    # the cap there when its solve, which stops on a residual of 1e-10
    # relative, lands more than CAP_TIE_REL above the cap's duration.
    if got == want:
        return True
    c = math.log1p(p_max / z)
    t_min = d * _LN2 / c
    with mp.workdps(50):
        wp1 = mp.lambertw((lam / z - 1.0) * _INV_E).real + 1
    return got == (t_min, p_max, t_min * (lam + p_max), True) and wp1 * (1.0 + CAP_TIE_REL) >= c


class TestCapBeforeSolve:
    """kernel.schedule decides the cap by one comparison before solving
    Lambert W; the reference solves first. Tuples and exceptions are held
    equal, except where the cap truly binds or ties and the kernel returns
    the cap's own tuple (see _is_reference_or_its_cap)."""

    @given(
        log_z=st.floats(-12.0, 14.0),
        log_lam=st.floats(-6.0, 3.0),
        log_pmax=st.floats(-3.0, 6.0),
        log_d=st.floats(-1.0, 2.0),
    )
    @settings(max_examples=examples(2000), deadline=None)
    def test_whole_range_is_the_reference(self, log_z, log_lam, log_pmax, log_d):
        args = (10.0**log_z, 10.0**log_d, 10.0**log_lam, 10.0**log_pmax)
        assert _tuple_or_error(kernel.schedule, *args) == _tuple_or_error(_reference_schedule, *args)

    @given(
        log_lam=st.floats(-6.0, 3.0),
        log_pmax=st.floats(-3.0, 6.0),
        log_d=st.floats(-1.0, 2.0),
    )
    @settings(max_examples=examples(150), deadline=None)
    def test_cap_boundary_band_is_the_reference(self, log_lam, log_pmax, log_d):
        # About where the cap flag turns on, and about where the duration
        # becomes the cap's, which the tie puts about 1e-12 further in.
        d, lam, p_max = 10.0**log_d, 10.0**log_lam, 10.0**log_pmax
        for z in _cap_band(d, lam, p_max) + _cap_band(d, lam, p_max, _at_cap_duration):
            want = _tuple_or_error(_reference_schedule, z, d, lam, p_max)
            got = _tuple_or_error(kernel.schedule, z, d, lam, p_max)
            assert _is_reference_or_its_cap(got, want, z, d, lam, p_max), (z, got, want)

    def test_band_holds_solved_and_decided_points(self, monkeypatch):
        # The band reaches both sides of the cap comparison: of the points
        # where the reference returns the cap's duration, some are decided
        # without a solve, and at others the solve's w + 1 reaches
        # log1p(p_max/z) within its tolerance and the post-solve test takes
        # the cap.
        band = _cap_band(8.0, 1.0, 10.0, _at_cap_duration)
        capped = [z for z in band if _at_cap_duration(z, 8.0, 1.0, 10.0)]
        calls = _counting_solves(monkeypatch)
        for z in capped:
            kernel.schedule(z, 8.0, 1.0, 10.0)
        assert 0 < len(calls) < len(capped)

    @pytest.mark.parametrize("z", [1e4, 1e6, 1e12])
    def test_clearly_capped_channel_solves_nothing(self, monkeypatch, params10, z):
        calls = _counting_solves(monkeypatch)
        sol = optimal_schedule(z, params10)
        assert sol.constraint_active and calls == []

    @pytest.mark.parametrize("z", [1e-3, 1.0, 2.0])
    def test_uncapped_channel_solves(self, monkeypatch, params10, z):
        calls = _counting_solves(monkeypatch)
        sol = optimal_schedule(z, params10)
        assert not sol.constraint_active and len(calls) >= 1


class TestOverflowingLambdaOverZ:
    """Channels so good that lambda/z overflows a double: W0 comes from its
    logarithm, in both kernels, and 2^(D/t) - 1 may overflow on its own."""

    # Half-decade steps; at lambda = 100, z = 1e-307 overflows lambda/z but not p_max/z.
    ZS = np.concatenate(([5e-324, 1e-323], np.logspace(-323.0, -300.0, 47)))

    @pytest.mark.parametrize("lam, p_max", [(1.0, 1.0), (100.0, 1.0), (100.0, 1e-3)])
    def test_grid_is_the_oracle_optimum_in_both_kernels(self, lam, p_max):
        params = SystemParams(lambda_w=lam, p_max_w=p_max)
        assert lam / 5e-324 == math.inf and lam / 1e-300 < math.inf
        t, p, c, active = optimal_schedules(self.ZS, params)
        for i, z in enumerate(self.ZS.tolist()):
            sol = optimal_schedule(z, params)
            # The oracle stops within 1e-9 of a binding cap's edge.
            rel = 1e-9 if sol.constraint_active else 1e-12
            assert sol.cost_ws == pytest.approx(oracle_schedule_cost(z, params), rel=rel)
            assert (t[i], p[i], c[i]) == pytest.approx((sol.t_star_s, sol.p_star_w, sol.cost_ws), rel=1e-14)
            assert bool(active[i]) == sol.constraint_active
        assert active.any() == (p_max < 1.0)

    def test_cap_binds_where_p_max_over_z_overflows(self):
        # Below z = p_max/1.8e308, log1p(p_max/z) is ln p_max - ln z, about
        # 744 at z = 5e-324, not log1p(inf); at lambda = 1000 the
        # unconstrained rate is beyond it and the cap binds.
        params = SystemParams(lambda_w=1000.0, p_max_w=1.0)
        zs = self.ZS[self.ZS < 1e-308]
        assert len(zs) > 2 and all(params.p_max_w / z == math.inf for z in zs.tolist())
        t, p, c, active = optimal_schedules(zs, params)
        for i, z in enumerate(zs.tolist()):
            sol = optimal_schedule(z, params)
            assert sol.constraint_active and sol.p_star_w == params.p_max_w
            assert sol.t_star_s == 8.0 * LN2 / (math.log(params.p_max_w) - math.log(z))
            # The oracle stops within 1e-9 of a binding cap's edge.
            assert sol.cost_ws == pytest.approx(oracle_schedule_cost(z, params), rel=1e-9)
            assert (t[i], p[i], c[i]) == pytest.approx((sol.t_star_s, sol.p_star_w, sol.cost_ws), rel=1e-14)
            assert active[i]

    def test_power_is_one_rule_in_both_kernels(self):
        # D*ln2/t from 690 to 760 straddles expm1's overflow at 709.78; the
        # power itself overflows where D*ln2/t + ln z > 709.78 as well.
        a, z = np.meshgrid(np.linspace(690.0, 760.0, 57), np.logspace(-320.0, 10.0, 23))
        t, z = (8.0 * LN2 / a).ravel(), z.ravel()
        want = [kernel.min_power(ti, zi, 8.0) for ti, zi in zip(t.tolist(), z.tolist())]
        got = kernel.min_powers(t, z, 8.0)
        assert got.tolist() == pytest.approx(want, rel=1e-14)
        assert math.inf in want and any(0.0 < w < math.inf and a_ > 709.8 for w, a_ in zip(want, a.ravel()))


class TestArrayKernel:
    """``optimal_schedules`` against the scalar kernel, its reference."""

    @given(
        log_z=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=40),
        log_lam=st.floats(-3.0, 3.0),
        log_pmax=st.floats(-2.0, 3.0),
        log_d=st.floats(-1.0, 2.0),
    )
    @settings(max_examples=examples(300), deadline=None)
    def test_matches_the_scalar_kernel(self, log_z, log_lam, log_pmax, log_d):
        params = SystemParams(d_bits_per_hz=10.0**log_d, lambda_w=10.0**log_lam, p_max_w=10.0**log_pmax)
        zs = 10.0 ** np.array(log_z)
        t, p, c, active = optimal_schedules(zs, params)
        assert t.shape == p.shape == c.shape == active.shape == zs.shape
        for i, z in enumerate(zs):
            sol = optimal_schedule(float(z), params)
            assert c[i] == pytest.approx(sol.cost_ws, rel=1e-14, abs=0.0)
            # t and p inherit the Lambert conditioning near the branch point.
            assert t[i] == pytest.approx(sol.t_star_s, rel=1e-9, abs=0.0)
            assert p[i] == pytest.approx(sol.p_star_w, rel=1e-9, abs=0.0)
            assert bool(active[i]) == sol.constraint_active

    @given(
        log_lam=st.floats(-6.0, 3.0),
        log_pmax=st.floats(-3.0, 6.0),
        log_d=st.floats(-1.0, 2.0),
    )
    @settings(max_examples=examples(100), deadline=None)
    def test_cap_boundary_band_matches_the_scalar_kernel(self, log_lam, log_pmax, log_d):
        # TestCapBeforeSolve's band. The flags differ only where the two
        # solved durations fall on either side of the cap's threshold
        # t_min/(1 - CAP_TIE_REL): np.log1p and math.log1p differ by an ulp,
        # and near the branch point so do the Lambert solves, by more. A
        # flagged schedule is the cap's own, and the cost is stationary at
        # the threshold, so the costs agree to 1e-14 either way.
        params = SystemParams(d_bits_per_hz=10.0**log_d, lambda_w=10.0**log_lam, p_max_w=10.0**log_pmax)
        d, lam, p_max = params.d_bits_per_hz, params.lambda_w, params.p_max_w
        band = _cap_band(d, lam, p_max) + _cap_band(d, lam, p_max, _at_cap_duration)
        t, p, c, active = optimal_schedules(np.array(band), params)
        for i, z in enumerate(band):
            sol = optimal_schedule(z, params)
            assert c[i] == pytest.approx(sol.cost_ws, rel=1e-14, abs=0.0)
            assert t[i] == pytest.approx(sol.t_star_s, rel=1e-9, abs=0.0)
            assert p[i] == pytest.approx(sol.p_star_w, rel=1e-9, abs=0.0)
            if bool(active[i]) != sol.constraint_active:
                tie = d * _LN2 / math.log1p(p_max / z) / (1.0 - CAP_TIE_REL)
                t_on, t_off = (t[i], sol.t_star_s) if active[i] else (sol.t_star_s, t[i])
                assert t_on <= tie * (1.0 + 4.0 * EPS) and t_off >= tie * (1.0 - 4.0 * EPS), z

    @given(
        log_z=st.lists(st.floats(-323.3, 308.25), min_size=1, max_size=8),
        log_d=st.floats(-323.3, 308.25),
        log_lam=st.floats(-323.3, 308.25),
        log_pmax=st.floats(-323.3, 308.25),
    )
    # test_input_surface's cap tie (z = 0.25500097491448065, D = 10) and the
    # subnormal p_max/z of test_cap_where_p_max_over_z_is_below_the_normal_doubles.
    @example(log_z=[-0.5934581591771433], log_d=1.0, log_lam=0.0, log_pmax=0.0)
    @example(log_z=[236.0], log_d=-200.0, log_lam=-121.0, log_pmax=-84.0)
    @settings(max_examples=examples(300), deadline=None)
    def test_every_capped_schedule_is_the_caps_own_tuple(self, log_z, log_d, log_lam, log_pmax):
        # Over the whole double range, each kernel's capped schedule is
        # (t_min, p_max, t_min*(lam + p_max), True), t_min the cap duration
        # as that kernel forms it: D*ln2/log1p(p_max/z), with ln p_max - ln z
        # for the rate where p_max/z overflows, and D*ln2*z/p_max where it is
        # below the normal doubles.
        zs = 10.0 ** np.array(log_z)
        d, lam, p_max = 10.0**log_d, 10.0**log_lam, 10.0**log_pmax
        scalar = {}
        for z in zs.tolist():
            pz = p_max / z
            if pz < kernel._TINY:
                t_min = float(kernel._linear_cap_duration(d, z, p_max))
            else:
                t_min = d * _LN2 / (math.log1p(pz) if pz < math.inf else math.log(p_max) - math.log(z))
            scalar[z] = _tuple_or_error(kernel.schedule, z, d, lam, p_max), t_min
        with np.errstate(divide="ignore", over="ignore"):
            pz = p_max / zs
            rate = np.where(pz < math.inf, np.log1p(pz), np.log(p_max) - np.log(zs))
            t_min = np.where(pz < kernel._TINY, kernel._linear_cap_duration(d, zs, p_max), d * _LN2 / rate)
        got = _tuple_or_error(kernel.schedules, zs, d, lam, p_max)
        array = zip(zip(*(a.tolist() for a in got)), t_min.tolist()) if len(got) == 4 else []
        for sol, t in [*scalar.values(), *array]:
            if len(sol) == 4 and sol[3]:
                assert sol == (t, p_max, t * (lam + p_max), True), (sol, t)

    def test_elements_do_not_depend_on_their_neighbours(self):
        zs = 10.0 ** np.random.default_rng(4).uniform(-8.0, 8.0, 1000)
        params = SystemParams(lambda_w=3.0, p_max_w=2.0)
        whole = optimal_schedules(zs, params)
        for lo, hi in ((0, 1), (3, 10), (17, 529), (999, 1000)):
            part = optimal_schedules(zs[lo:hi], params)
            assert all(np.array_equal(a[lo:hi], b) for a, b in zip(whole, part))

    def test_overflowing_cost_is_inf_not_an_error(self, params10):
        t, p, c, active = optimal_schedules(np.array([1.0, 1e308]), params10)
        assert math.isfinite(c[0]) and c[1] == math.inf and active[1]


class TestMonotonicity:
    def test_duration_strictly_increasing(self, params10):
        sols = [optimal_schedule(float(z), params10) for z in np.logspace(-3, 4, 120)]
        ts = [s.t_star_s for s in sols]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_power_non_decreasing(self, params10):
        sols = [optimal_schedule(float(z), params10) for z in np.logspace(-3, 4, 120)]
        ps = [s.p_star_w for s in sols]
        assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_value_strictly_increasing(self, params10):
        vs = [value_of_z(float(z), params10) for z in np.logspace(-3, 4, 120)]
        assert all(a < b for a, b in zip(vs, vs[1:]))


class TestValueInverse:
    def test_round_trip_at_one(self, params10):
        assert z_of_value(value_of_z(1.0, params10), params10) == pytest.approx(1.0, rel=1e-8)

    def test_round_trip_log_uniform(self, params10):
        rng = np.random.default_rng(23)
        for z in 10.0 ** rng.uniform(-3, 3, size=100):
            back = z_of_value(value_of_z(float(z), params10), params10)
            assert back == pytest.approx(z, rel=1e-6)

    def test_inverse_monotone(self, params10):
        us = [value_of_z(z, params10) for z in (0.5, 1.0, 5.0)]
        zs = [z_of_value(u, params10) for u in us]
        assert zs[0] < zs[1] < zs[2]

    def test_rejects_non_positive_value(self, params10):
        with pytest.raises(ValueError):
            z_of_value(0.0, params10)


def _within_contract(z, u, params):
    return abs(value_of_z(z, params) - u) <= max(DEFAULT_TOL.abs_tol, DEFAULT_TOL.rel_tol * u)


ORACLE_GRID = [
    SystemParams(lambda_w=lam, p_max_w=p_max)
    for lam in (0.01, 0.1, 1.0, 10.0, 100.0)
    for p_max in (1.0, 10.0, 100.0)
]


class TestClosedFormInverse:
    @pytest.mark.parametrize("params", ORACLE_GRID, ids=lambda p: f"lam{p.lambda_w}-pmax{p.p_max_w}")
    def test_agrees_with_bisection_oracle(self, params):
        # Log grid over z, plus both sides of the cap kink. For lambda << p_max
        # the kink lies at a = 1 + D*ln2*lambda/u within 2e-8 of 1, where the
        # Lambert argument -e^-a sits next to the branch point -1/e.
        zk = _kink_z(params)
        zs = list(np.logspace(-6.0, 6.0, 200))
        zs += [zk * (1.0 + sgn * step) for sgn in (-1.0, 1.0) for step in (1e-12, 1e-9, 1e-6, 1e-3)]
        for z in zs:
            u = value_of_z(float(z), params)
            z_closed = z_of_value(u, params)
            assert _within_contract(z_closed, u, params), (z, u)
            z_oracle = oracle_z_of_value(u, params)
            assert z_closed == pytest.approx(z_oracle, rel=1e-8), (z, u)

    def test_grid_reaches_the_branch_point(self):
        params = SystemParams(lambda_w=0.01, p_max_w=100.0)
        u_kink = value_of_z(_kink_z(params), params)
        assert 8.0 * LN2 * params.lambda_w / u_kink < 1e-7

    @given(
        log_u=st.floats(-300.0, 300.0),
        lam=st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]),
        p_max=st.sampled_from([1.0, 10.0, 100.0]),
    )
    @settings(max_examples=examples(300), deadline=None)
    def test_whole_range_meets_contract_or_names_the_value(self, log_u, lam, p_max):
        params = SystemParams(lambda_w=lam, p_max_w=p_max)
        u = 10.0 ** log_u
        try:
            z = z_of_value(u, params)
        except (ValueError, ConvergenceError) as exc:
            assert repr(u) in str(exc)
        else:
            assert z > 0.0
            assert _within_contract(z, u, params)

    @pytest.mark.parametrize("u", [1e-3, 1e-300])
    def test_value_below_every_channel_is_a_value_error(self, params10, u):
        with pytest.raises(ValueError, match=re.escape(repr(u))):
            z_of_value(u, params10)

    def test_schedule_failure_inside_the_polish_names_the_value(self):
        # The value the Newton polish of the Lambert inverse failed on: the
        # capped schedule that gives it back has a rate D*ln2/t that underflows.
        params = SystemParams(lambda_w=1e-6, p_max_w=1e-6)
        with pytest.raises(ConvergenceError) as err:
            z_of_value(1e306, params)
        assert str(err.value) == (
            "cannot resolve value 1e+306: its schedule's rate D*ln2/t = 1.109035488896e-311 underflows"
        )

    def test_polish_out_of_steps_names_the_value(self):
        # The value the Newton polish of the Lambert inverse ran out of steps
        # on: at D = 1e-300 its capped schedule's rate is subnormal.
        params = SystemParams(p_max_w=1e-300, d_bits_per_hz=1e-300)
        with pytest.raises(ConvergenceError) as err:
            z_of_value(1e16, params)
        assert str(err.value) == "cannot resolve value 1e+16: its schedule's rate D*ln2/t = 6.9314717e-317 underflows"

    def test_huge_value_binds_the_cap(self, params10):
        z = z_of_value(1e300, params10)
        assert optimal_schedule(z, params10).constraint_active
        assert _within_contract(z, 1e300, params10)


EXTREMES = (1e-300, 1e-6, 1.0, 100.0, 1e300)


class TestInverseContract:
    """z_of_value on every corner of the parameter space: a z that meets its
    contract, or a ValueError or ConvergenceError that names the value."""

    @pytest.mark.parametrize("d", [1e-300, 1e-3, 8.0, 1e6, 1e300])
    def test_extreme_grid_meets_contract_or_names_the_value(self, d):
        us = [float(u) for u in np.logspace(-320.0, 308.0, 400)]
        for lam in EXTREMES:
            for p_max in EXTREMES:
                params = SystemParams(lambda_w=lam, p_max_w=p_max, d_bits_per_hz=d)
                for u in us:
                    try:
                        z = z_of_value(u, params)
                    except (ValueError, ConvergenceError) as exc:
                        assert repr(u) in str(exc), (lam, p_max, u)
                    else:
                        assert _within_contract(z, u, params), (lam, p_max, u)

    @pytest.mark.parametrize(
        "u, params, message",
        [
            # value_of_z cannot resolve these: the rate D*ln2/t of the schedule
            # underflows, or its duration overflows.
            (70733322796439.75, SystemParams(p_max_w=1e-6, d_bits_per_hz=1e-300),
             "cannot resolve value 70733322796439.75: its schedule's rate D*ln2/t = 9.79945302e-315 underflows"),
            (1e300, SystemParams(lambda_w=1e-300, p_max_w=1e-300, d_bits_per_hz=1e300),
             "cannot resolve value 1e+300: its schedule's duration overflows"),
        ],
        ids=["subnormal-cap-rate", "overflowing-duration"],
    )
    def test_unresolvable_value_is_a_convergence_error(self, u, params, message):
        with pytest.raises(ConvergenceError) as err:
            z_of_value(u, params)
        assert str(err.value) == message

    def test_value_whose_rate_equation_underflows_is_interior_like_value_of_z(self):
        # D*ln2*lambda/u underflows to 0, and s = sqrt(2*D*ln2*lambda/u) is
        # formed without it: the interior power, 1.8e-61 W, is within the
        # cap. value_of_z's schedule at that z, where lambda/z underflows,
        # is interior too, and gives u back.
        params = SystemParams(lambda_w=1e-300, p_max_w=1e-6, d_bits_per_hz=8.0)
        u = 8.656520431289855e178
        assert 8.0 * LN2 * params.lambda_w / u == 0.0
        z = z_of_value(u, params)
        assert params.lambda_w / z == 0.0
        assert not optimal_schedule(z, params).constraint_active
        assert _within_contract(z, u, params)

    def test_capped_value_whose_rate_equation_underflows_is_solved(self):
        params = SystemParams(lambda_w=1e-300, p_max_w=1e-280, d_bits_per_hz=8.0)
        u = 1e26
        assert 8.0 * LN2 * params.lambda_w / u == 0.0
        z = z_of_value(u, params)
        assert optimal_schedule(z, params).constraint_active
        assert _within_contract(z, u, params)

    def test_interior_value_whose_rate_equation_underflows_is_solved(self):
        # D*ln2*lambda/u underflows, and the interior power (0.044 W) is far
        # within the cap: the channel of
        # TestOptimalSchedule.test_interior_schedule_where_lam_over_z_underflows,
        # whose cost this is, where the cap's z used to be taken.
        params = SystemParams(lambda_w=1e-300, p_max_w=1e300, d_bits_per_hz=1e-3)
        u = 6.832607387157713e293
        z = z_of_value(u, params)
        assert z == pytest.approx(9.857368793793729e296, rel=1e-12)
        assert not optimal_schedule(z, params).constraint_active
        assert _within_contract(z, u, params)

    @pytest.mark.parametrize("log_z", [-138.0, -200.0, -280.0])
    def test_channel_past_an_underflowing_factor_is_found(self, log_z):
        # e^-s underflows on the way to a z that is a normal double.
        params = SystemParams(lambda_w=1e300, p_max_w=1e300)
        z0 = 10.0**log_z
        u = value_of_z(z0, params)
        assert math.exp(-(8.0 * LN2 * params.lambda_w / u)) == 0.0
        assert z_of_value(u, params) == pytest.approx(z0, rel=1e-12)


def _reference_rate(b):
    # s = a + W0(-e^-a) with a = 1 + b, at 50 digits more than a loses of b.
    b = mp.mpf(b)
    extra = max(0, -int(mp.floor(mp.log10(b)))) if b < 1 else 0
    with mp.workdps(50 + extra):
        a = 1 + b
        return +(a + mp.lambertw(-mp.exp(-a)))


def _reference_inverse(u, params):
    """The exact inverse of u at 50 digits, and its rate: s off the cap, the
    cap's x = D*ln2*(lambda + p_max)/u on it."""
    with mp.workdps(50):
        d, lam, p_max, u = (mp.mpf(v) for v in (params.d_bits_per_hz, params.lambda_w, params.p_max_w, u))
        k = d * mp.log(2)
        s = _reference_rate(k * lam / u)
        if s > 0 and -mp.expm1(-s) * u / k <= p_max:
            return u * mp.exp(-s) / k, s
        x = k * (lam + p_max) / u
        return p_max / mp.expm1(x), x


class TestInverseAgainstMpmath:
    """z_of_value against a 50-digit reference of the exact inverse.

    The bound on z is 3*(1 + r) units of 2^-52, relative, with r the rate
    (s or x): the inputs' rounding moves b or x by about r*2^-52, which e^-r
    passes on to z, and the solve adds a few ulps. Measured: 1.3*(1 + r).
    """

    def _check(self, u, params):
        z_ref, rate = _reference_inverse(u, params)
        z = z_of_value(u, params)
        assert abs(z - z_ref) <= 3.0 * (1.0 + rate) * EPS * z_ref, (u, z, z_ref)
        return abs(value_of_z(z, params) - u) / u

    @pytest.mark.parametrize("params", ORACLE_GRID, ids=lambda p: f"lam{p.lambda_w}-pmax{p.p_max_w}")
    def test_oracle_grid_and_kink_bands(self, params):
        zk = _kink_z(params)
        zs = [float(z) for z in np.logspace(-6.0, 6.0, 41)]
        zs += [zk * (1.0 + sgn * 10.0**e) for sgn in (-1.0, 1.0) for e in range(-12, -2)]
        residual = max(self._check(value_of_z(z, params), params) for z in zs)
        # value_of_z's own Lambert tolerance sets this, near the branch point;
        # the contract allows 1e-10. Measured: 9.9e-13.
        assert residual <= 2e-12

    def test_rate_equation_from_1e_minus_300_to_1e300(self):
        # b = D*ln2*lambda/u across its range with the cap out of reach; z
        # leaves the normal doubles for b above about 700, and a ValueError
        # must say so.
        params = SystemParams(lambda_w=1.0, p_max_w=1e300)
        residual = 0.0
        for b in np.logspace(-300.0, 300.0, 241):
            u = 8.0 * LN2 / float(b)
            z_ref, _ = _reference_inverse(u, params)
            if z_ref < sys.float_info.min:
                with pytest.raises(ValueError, match=re.escape(repr(u))):
                    z_of_value(u, params)
            else:
                residual = max(residual, self._check(u, params))
        assert residual <= 1e-15

    def test_rate_within_four_ulps(self):
        # Dense about the guesses' switch at 1.2, the series' end at s = 0.25
        # (b = 0.029), and the unrefined ends below 1e-10 and above 20.
        bs = [float(b) for b in np.logspace(-300.0, 300.0, 601)]
        bs += [float(b) for b in np.linspace(1e-10, 30.0, 2000)]
        bs += [float(b) for b in np.logspace(-12.0, -8.0, 100)]
        for b in bs:
            s = kernel.rate_of_value(b)
            assert abs(s - _reference_rate(b)) <= 4.0 * math.ulp(s), b


class TestMinTotalPower:
    def test_rate_two_point(self, params10):
        assert min_total_power(8.0, 1.0, params10) == pytest.approx(1.0, rel=1e-14)

    def test_rate_four_point(self, params10):
        assert min_total_power(4.0, 1.0, params10) == pytest.approx(3.0, rel=1e-14)

    def test_matches_optimal_power_at_optimal_duration(self, params10):
        for z in (0.3, 1.0, 7.0):
            sol = optimal_schedule(z, params10)
            assert min_total_power(sol.t_star_s, z, params10) == pytest.approx(
                sol.p_star_w, rel=1e-9
            )

    def test_long_duration_does_not_cancel(self, params10):
        assert min_total_power(8e12, 1.0, params10) == pytest.approx(LN2 * 1e-12, rel=1e-9, abs=0.0)

    def test_rejects_non_positive_duration(self, params10):
        with pytest.raises(ValueError):
            min_total_power(-1.0, 1.0, params10)

    @pytest.mark.parametrize(
        "t, z, d",
        [
            (1e306, 10.0**158.25, 1e-17),  # D*ln2/t = 6.9e-324 holds one significant bit
            (1e306, 1e300, 1e-17),
            (1.7e308, 1e308, 4.3),  # D*ln2*z overflows; the power is 1.76
        ],
    )
    def test_subnormal_rate_is_not_rounded_away(self, t, z, d):
        # expm1(a) = a below the normal doubles, so the power is D*ln2*z/t,
        # as exact as its three roundings, in both kernels.
        assert d * LN2 / t < sys.float_info.min
        exact = float(Fraction(d) * Fraction(LN2) * Fraction(z) / Fraction(t))
        got = kernel.min_power(t, z, d)
        assert got == pytest.approx(exact, rel=4e-16, abs=0.0)
        assert kernel.min_powers(np.array([t]), np.array([z]), d).tolist() == [got]
