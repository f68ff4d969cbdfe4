"""The transmit-schedule kernel: the package's only one, and the one home
of the value map and its inverse.

The hot entry points are ``lambert_w0``, ``schedule`` (closed-form optimum
for one effective channel), ``value`` (its cost) and ``z_of_value`` (the
inverse of ``value``, which MSPOA's payment takes), with
``rate_of_value`` (the interior schedule's rate at a given cost) beneath
it. Each takes the physics only, z or u with D, lambda and p_max; the
module ``relayauction.schedule`` wraps each for ``SystemParams`` and
checks its inputs. ``schedule`` decides whether the power cap binds with
one comparison, and solves Lambert W only where it does not. ``z_of_value``
solves no Lambert W: ``rate_of_value`` takes the rate from an equation of
its own, well conditioned where W0 next to its branch point is not.

``schedules`` and ``min_powers`` are their numpy twins over an array of
channels, for the sweep's chunks: the same rules, element by element. They
agree with the scalar kernel to numpy's last-bit differences in ``exp``,
``expm1`` and ``log1p``: duration and power to rel 1e-9 (the Lambert
conditioning near the branch point), cost to rel 1e-14, and the same cap
flags except where the two solved durations fall on either side of the
cap's threshold t_min/(1 - CAP_TIE_REL).
A one-element array call costs far more than the scalar call, so single
auctions stay on the scalar kernel, which is the reference.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import DEFAULT_TOL, ConvergenceError

# Correctly rounded doubles.
_E = 2.718281828459045
_NEG_INV_E = -0.36787944117144233
_LN2 = 0.6931471805599453
_INV_E = 0.36787944117144233
# The least positive normal double, and the log of the largest double.
_TINY = 2.2250738585072014e-308
_LOG_HUGE = 709.782712893384
# W0 about its branch point: -1 + p + _SERIES_C2*p^2 + _SERIES_C3*p^3 with
# p = sqrt(2(e*x + 1)) (Corless et al., "On the Lambert W function", Adv.
# Comput. Math. 1996). Below -1/e + _SERIES_DX it is the answer, because
# Halley iteration stalls where d(w e^w)/dw vanishes.
_SERIES_C2 = -1.0 / 3.0
_SERIES_C3 = 11.0 / 72.0
_SERIES_DX = 1e-6
# Relative gap within which the unconstrained duration meets the cap's and
# the cap counts as binding.
CAP_TIE_REL = 1e-12
# Every Lambert solve runs to the package's default tolerances.
_ABS_TOL, _REL_TOL, _MAX_ITER = DEFAULT_TOL.abs_tol, DEFAULT_TOL.rel_tol, DEFAULT_TOL.max_iter
# lam/z below which w + 1 comes from the branch-point series: the same
# threshold, x < -1/e + _SERIES_DX, at which _lambert_core returns that series.
_SERIES_R = _E * _SERIES_DX
# rate_of_value's guesses: q*(1 + q/6 + q^2/36), q = sqrt(2b), below
# _RATE_SERIES_B, where it is the closer one, and b + 1 - e^-(b + 1) above.
# Below _RATE_LOW_B the first is s to within q^3/270 < 2^-56 relative, and
# above _RATE_HIGH_B the second to within e^-2(b + 1), so neither is refined.
_RATE_SERIES_B = 1.2
_RATE_LOW_B = 1e-10
_RATE_HIGH_B = 20.0
# Each Halley step on s + expm1(-s) = b leaves at most a quarter of the cube
# of the relative error it starts from, so s is within 2^-55 of the root
# once a step is below _RATE_STEP relative. From either guess two steps do.
_RATE_STEP = 4e-6
_RATE_MAX_STEPS = 4
# s + expm1(-s) = s^2 * sum (-s)^n/(n + 2)! below _EXCESS_S, where the sum
# cancels by more than two bits: these 13 terms, highest first, leave less
# than 2^-56 relative there.
_EXCESS_S = 0.25
_EXCESS_C = tuple((-1.0) ** n / math.factorial(n + 2) for n in range(12, -1, -1))


class ScheduleOverflow(ConvergenceError):
    """A channel's optimal schedule costs more than the largest double."""


def _lambert_core(x, abs_tol, rel_tol, max_iter):
    if x < _NEG_INV_E - abs_tol:
        raise ValueError(f"lambert_w0 argument {x!r} below the branch point -1/e")
    if x <= _NEG_INV_E:
        return -1.0
    if x < _E:
        p = math.sqrt(2.0 * (_E * x + 1.0))
        w = -1.0 + p * (1.0 + p * (_SERIES_C2 + p * _SERIES_C3))
        if x < _NEG_INV_E + _SERIES_DX:
            return w
    else:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    tol_f = abs_tol if abs_tol > rel_tol * abs(x) else rel_tol * abs(x)
    for _ in range(max_iter):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol_f:
            return w
        wp1 = w + 1.0
        w = w - f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    raise ConvergenceError(f"lambert_w0 did not converge for x={x!r}")


def lambert_w0(x, abs_tol=_ABS_TOL, rel_tol=_REL_TOL, max_iter=_MAX_ITER):
    """Principal branch of the Lambert W function for real x >= -1/e.

    Returns w >= -1 with ``|w*exp(w) - x| <= max(abs_tol, rel_tol*|x|)``.
    Uses a branch-aware initial guess refined by Halley iteration; near the
    branch point the series in sqrt(2(e*x+1)) is returned directly.
    """
    return _lambert_core(x, abs_tol, rel_tol, max_iter)


def cost(t, z, d, lam):
    return t * (lam + min_power(t, z, d))


def min_power(t, z, d):
    """The power (2^(d/t) - 1)*z, +inf where it overflows a double."""
    # expm1 keeps 2^(d/t) - 1 exact at long durations; where 2^(d/t) alone
    # overflows, the 1 is below its last bit and the power is taken in logs.
    a = d * _LN2 / t
    if a < _TINY:
        # expm1(a) = a, but a subnormal a has lost its low bits: the power
        # is d*ln2*z/t. With t at most the largest double, d*ln2 < 4 here,
        # so where d*ln2*z overflows, z/t is above 1/4 and loses nothing.
        p = d * _LN2 * z / t
        return p if p < math.inf else d * _LN2 * (z / t)
    try:
        return math.expm1(a) * z
    except OverflowError:
        pass
    try:
        return math.exp(a + math.log(z))
    except OverflowError:
        return math.inf


def schedule(z, d, lam, p_max):
    """Closed-form minimizer of t*(lam + (2^(d/t)-1)*z) s.t. power <= p_max.

    Returns ``(t, p, cost, active)``, one of two schedules: the cap's own
    ``(t_min, p_max, t_min*(lam + p_max), True)`` where the unconstrained
    duration is below the cap's t_min or within rel CAP_TIE_REL of it, and
    the interior schedule with ``active`` False everywhere else. Raises
    ScheduleOverflow when the cost is not finite, i.e. a duration overflows
    for huge z, and ConvergenceError when the duration underflows to 0 (d
    near the least double).

    Every schedule returned is priced by its own duration: ``cost(t, z, d,
    lam)`` is within rel CAP_TIE_REL of the cost returned, or
    ConvergenceError naming z is raised. An interior schedule's cost is that
    expression itself, and at the cap's duration the power is p_max to a
    few ulps per unit of rate. What fails is rounding: a cap duration below
    the normal doubles has lost bits. ``schedules`` keeps the same rule.

    The interior duration is d*ln2/(w + 1) with w = W0(x), x = (r - 1)/e,
    r = lam/z, and the cap's is d*ln2/c with c = log1p(p_max/z). W0 + 1
    increases, so the cap binds exactly when w + 1 >= c, i.e. when
    x >= (c - 1)*e^(c - 1) (Corless et al., "On the Lambert W function",
    1996). That comparison is made first, and a capped channel takes c as
    its w + 1 with no solve. A solve can still land within its tolerance of
    c, so the solved duration is compared with the cap's afterwards.
    """
    r = lam / z
    pz = p_max / z
    if pz < _TINY:
        cap_rate = pz
        t_min = float(_linear_cap_duration(d, z, p_max))
    else:
        # Where p_max/z overflows, the 1 of log1p is far below its last bit.
        cap_rate = math.log1p(pz) if pz < math.inf else math.log(p_max) - math.log(z)
        t_min = d * _LN2 / cap_rate
    if r < _SERIES_R:
        # W0((r - 1)/e) + 1 as a series in q = sqrt(2r), taken before
        # r - 1 cancels against 1; where r is below the normal doubles it
        # has lost bits, and q is sqrt(2*lam)/sqrt(z).
        q = math.sqrt(2.0 * r) if r >= _TINY else math.sqrt(2.0 * lam) / math.sqrt(z)
        t_unc = d * _LN2 / (q * (1.0 + q * (_SERIES_C2 + q * _SERIES_C3)))
    elif r == math.inf:  # x overflows too; W0 comes from ln x
        t_unc = d * _LN2 / (float(_w0_beyond(lam, z)) + 1.0)
    else:
        x = (r - 1.0) * _INV_E
        # Past cap_rate = 710, (c - 1)*e^(c - 1) exceeds every double.
        if cap_rate <= 710.0 and x >= (cap_rate - 1.0) * math.exp(cap_rate - 1.0):
            t_unc = t_min
        else:
            t_unc = d * _LN2 / (_lambert_core(x, _ABS_TOL, _REL_TOL, _MAX_ITER) + 1.0)
    # An interior duration that overflows to inf stays interior.
    active = t_min >= t_unc * (1.0 - CAP_TIE_REL)
    t = t_min if active else t_unc
    if not t > 0.0:
        raise ConvergenceError(f"the schedule's duration for z={z!r} underflows to 0")
    p_even = min_power(t, z, d)
    p = p_max if active else p_even
    c = t * (lam + p)
    if not math.isfinite(c):
        raise ScheduleOverflow(f"no finite schedule for z={z!r}")
    if active and not abs(t * (lam + p_even) - c) <= CAP_TIE_REL * c:
        raise ConvergenceError(f"the capped schedule for z={z!r} is not priced by its own duration {t!r}")
    return t, p, c, active


def _w0_beyond(lam, z):
    # W0((lam/z - 1)/e) where lam/z overflows, for both kernels: two Newton
    # steps on w + ln w = ln x from _lambert_core's asymptotic guess, which is
    # within 1e-4 of w at ln x > 708; each step squares the error over 2w^2.
    log_x = np.log(lam) - np.log(z) - 1.0
    l2 = np.log(log_x)
    w = log_x - l2 + l2 / log_x
    for _ in range(2):
        w = w - (w + np.log(w) - log_x) / (1.0 + 1.0 / w)
    return w


def _linear_cap_duration(d, z, p_max):
    # The cap's duration d*ln2*z/p_max where p_max/z is below the normal
    # doubles, for both kernels: log1p is the identity there, but the
    # quotient has lost bits. Taken on mantissas and exponents, so that only
    # the result can overflow or underflow.
    mk, ek = np.frexp(d * _LN2)
    mz, ez = np.frexp(z)
    mp, ep = np.frexp(p_max)
    with np.errstate(over="ignore"):
        return np.ldexp(mk * mz / mp, ek + ez - ep)


def value(z, d, lam, p_max):
    return schedule(z, d, lam, p_max)[2]


def rate_of_value(b):
    """The s >= 0 with s + expm1(-s) = b, for b >= 0, to within a few ulps.

    This is the interior schedule's rate s = d*ln2/t at cost u, with
    b = d*ln2*lam/u (see ``z_of_value``); s = a + W0(-e^-a) with
    a = 1 + b, but without the cancellation of W0 next to its branch point.
    Halley steps from the closer of two guesses, on s + expm1(-s) - b taken
    from its series where the sum cancels, stop on the step size.
    """
    if b >= _RATE_SERIES_B:
        s = b + 1.0 - math.exp(-(b + 1.0))
        if b > _RATE_HIGH_B:
            return s
    else:
        q = math.sqrt(2.0 * b)
        s = q * (1.0 + q * (1.0 / 6.0 + q * (1.0 / 36.0)))
        if b < _RATE_LOW_B:
            return s
    for _ in range(_RATE_MAX_STEPS):
        em = math.expm1(-s)
        if s < _EXCESS_S:
            acc = 0.0
            for c in _EXCESS_C:
                acc = acc * s + c
            f = s * s * acc - b
        else:
            f = s + em - b
        # f' = -em and f'' = 1 + em.
        step = f / (-em + 0.5 * f * (1.0 + em) / em)
        s -= step
        if abs(step) <= _RATE_STEP * s:
            break
    return s


def z_of_value(u, d, lam, p_max):
    """The channel z with ``value(z, d, lam, p_max) == u``, for u > 0.

    Off the cap v = D*ln2*z*e^s with s = D*ln2/t the schedule's rate;
    eliminating z leaves s + expm1(-s) = b, b = D*ln2*lambda/u, which
    ``rate_of_value`` solves by Halley steps to within 4 ulps (W0 would
    give s = a + W0(-e^-a), a = 1 + b, with a cancellation next to the
    branch point). Then z = u*e^-s/(D*ln2), unless the power
    -expm1(-s)*u/(D*ln2) exceeds p_max; the cap binds then, and
    z = p_max/expm1(D*ln2*(lambda + p_max)/u). z is within 3*(1 + r)*2^-52
    of the exact inverse, relative, where r is the rate (s, or the cap's
    D*ln2*(lambda + p_max)/u): the inputs' own rounding moves z by about
    r*2^-52. Where b is below the normal doubles it has lost bits, and s is
    sqrt(2b) formed without the underflow, as ``schedule`` forms its series
    where lambda/z is.

    Raises ValueError when z is not a positive normal double, and
    ConvergenceError where ``value`` cannot resolve u: the schedule at z has
    a rate D*ln2/t below the normal doubles or a duration that overflows.
    Both name u.
    """
    k = d * _LN2
    b = k * lam / u
    s = rate_of_value(b) if b >= _TINY else math.sqrt(2.0 * lam) * math.sqrt(k) / math.sqrt(u)
    if s > 0.0 and -math.expm1(-s) * u / k <= p_max:
        num, rate, den = u, s, k
    else:
        rate = k * (lam + p_max) / u
        num, den = p_max, -math.expm1(-rate)
    z = num * math.exp(-rate) / den if den > 0.0 else math.inf
    if not _TINY <= z < math.inf and den > 0.0:
        # A factor left the doubles on the way; its logarithm does not.
        log_z = math.log(num) - rate - math.log(den)
        z = math.exp(log_z) if log_z < _LOG_HUGE else math.inf
    if not _TINY <= z < math.inf:
        raise ValueError(f"no effective channel in the normal doubles has value {u!r}")
    if not rate >= _TINY:
        raise ConvergenceError(f"cannot resolve value {u!r}: its schedule's rate D*ln2/t = {rate!r} underflows")
    if not k / rate < math.inf:
        raise ConvergenceError(f"cannot resolve value {u!r}: its schedule's duration overflows")
    return z


def min_powers(t, z, d):
    """``min_power`` elementwise over arrays, by the same rule."""
    with np.errstate(over="ignore", divide="ignore"):
        a = d * _LN2 / t
        grow = np.expm1(a)
        p = grow * z
        big = grow == math.inf
        if big.any():
            p = np.where(big, np.exp(a + np.log(z)), p)
        small = a < _TINY
        if small.any():
            k = d * _LN2
            linear = k * z / t
            p = np.where(small, np.where(linear < math.inf, linear, k * (z / t)), p)
    return p


def _lambert_w0s(x):
    # _lambert_core over an array with every x >= -1/e: the series below
    # -1/e + _SERIES_DX, elsewhere Halley steps until each element meets the
    # scalar's residual test. A converged element's w no longer changes,
    # so neither does its residual. Runs under schedules' errstate: the
    # branch not taken by np.where may see log of a negative number.
    p = np.sqrt(2.0 * (_E * x + 1.0))
    series = -1.0 + p * (1.0 + p * (_SERIES_C2 + p * _SERIES_C3))
    l1 = np.log(x)
    l2 = np.log(l1)
    w = np.where(x < _E, series, l1 - l2 + l2 / l1)
    fixed = x < _NEG_INV_E + _SERIES_DX
    ax = np.abs(x)
    tol_f = np.where(_ABS_TOL > _REL_TOL * ax, _ABS_TOL, _REL_TOL * ax)
    for _ in range(_MAX_ITER):
        ew = np.exp(w)
        f = w * ew - x
        done = fixed | (np.abs(f) <= tol_f)
        if done.all():
            return w
        wp1 = w + 1.0
        w = np.where(done, w, w - f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1)))
    bad = x[~done][0]
    raise ConvergenceError(f"lambert_w0 did not converge for x={float(bad)!r}")


def schedules(z, d, lam, p_max):
    """``schedule`` elementwise over an array of z: ``(t, p, cost, active)``
    arrays of z's shape, ``active`` boolean. Each element is one of
    ``schedule``'s two schedules, the cap's own tuple or the interior one.

    A cost that overflows is +inf here rather than an error. Raises
    ConvergenceError when a Lambert solve exhausts its iteration budget,
    and, as ``schedule`` does, when a duration underflows to 0 or a finite
    capped cost is not its own duration's.
    """
    z = np.asarray(z, float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = lam / z
        near = r < _SERIES_R
        over = r == math.inf
        q = np.sqrt(2.0 * r)
        lost = r < _TINY
        if lost.any():
            q = np.where(lost, np.sqrt(2.0 * lam) / np.sqrt(z), q)
        series = q * (1.0 + q * (_SERIES_C2 + q * _SERIES_C3))
        x = (r - 1.0) * _INV_E
        pz = p_max / z
        cap_rate = np.log1p(pz)
        big = cap_rate == math.inf
        if big.any():
            cap_rate = np.where(big, np.log(p_max) - np.log(z), cap_rate)
        t_min = d * _LN2 / cap_rate
        small = pz < _TINY
        if small.any():
            t_min = np.where(small, _linear_cap_duration(d, z, p_max), t_min)
        capped = ~(near | over) & (x >= (cap_rate - 1.0) * np.exp(cap_rate - 1.0))
        # Series, overflowing and capped elements take the branch point
        # instead: no Halley steps.
        w = _lambert_w0s(np.where(near | over | capped, _NEG_INV_E, x))
        wp1 = np.where(near, series, w + 1.0)
        wp1[over] = _w0_beyond(lam, z[over]) + 1.0
        t_unc = np.where(capped, t_min, d * _LN2 / wp1)
        active = t_min >= t_unc * (1.0 - CAP_TIE_REL)
        t = np.where(active, t_min, t_unc)
        p_even = min_powers(t, z, d)
        p = np.where(active, p_max, p_even)
        c = t * (lam + p)
        # A cost of +inf compares false, so an overflowing schedule passes.
        unpriced = active & (np.abs(t * (lam + p_even) - c) > CAP_TIE_REL * c)
    zero = t == 0.0
    if zero.any():
        raise ConvergenceError(f"the schedule's duration for z={float(z[zero][0])!r} underflows to 0")
    if unpriced.any():
        i = np.flatnonzero(unpriced)[0]
        raise ConvergenceError(
            f"the capped schedule for z={float(z.flat[i])!r} is not priced by its own duration {float(t.flat[i])!r}"
        )
    return t, p, c, active


def backend_name() -> str:
    """Name of the schedule kernel: always ``python``."""
    return "python"
