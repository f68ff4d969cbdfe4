"""Pure-Python transmit-schedule kernel.

The hot entry points are ``lambert_w0``, ``schedule`` (closed-form optimum
for one effective channel) and ``value`` (its cost). The inverse of the
value map is a closed form on top of these, in ``schedule.z_of_value``.
"""

from __future__ import annotations

import math

from .numerics import ConvergenceError, _lambert_core

BACKEND = "python"

_LN2 = 0.6931471805599453
_INV_E = 0.36787944117144233
# lam/z below which w + 1 comes from the branch-point series: the same
# threshold, x < -1/e + 1e-6, at which _lambert_core returns that series.
_SERIES_R = 2.718281828459045 * 1e-6


def lambert_w0(x, abs_tol, rel_tol, max_iter):
    return _lambert_core(x, abs_tol, rel_tol, max_iter)


def cost(t, z, d, lam):
    return t * (lam + min_power(t, z, d))


def min_power(t, z, d):
    # expm1 keeps 2^(d/t) - 1 exact at long durations.
    return math.expm1(d * _LN2 / t) * z


def schedule(z, d, lam, p_max, abs_tol, rel_tol, max_iter):
    """Closed-form minimizer of t*(lam + (2^(d/t)-1)*z) s.t. power <= p_max.

    Returns ``(t, p, cost, active)`` where active=1 when the power cap binds
    (ties within rel 1e-12 count as active). Raises ConvergenceError when
    the cost is not finite, i.e. the cap duration overflows for huge z.
    """
    r = lam / z
    if r < _SERIES_R:
        # W0((r - 1)/e) + 1 as a series in q = sqrt(2r), taken before
        # r - 1 cancels against 1.
        q = math.sqrt(2.0 * r)
        wp1 = q * (1.0 + q * (-0.3333333333333333 + q * 0.1527777777777778))
    else:
        wp1 = _lambert_core((r - 1.0) * _INV_E, abs_tol, rel_tol, max_iter) + 1.0
    t_unc = d * _LN2 / wp1 if wp1 > 0.0 else 0.0
    cap_rate = math.log1p(p_max / z)
    t_min = d * _LN2 / cap_rate if cap_rate > 0.0 else math.inf
    if t_unc >= t_min:
        t = t_unc
        active = (t_unc - t_min) <= 1e-12 * t_unc
    else:
        t = t_min
        active = True
    p = p_max if active else min_power(t, z, d)
    c = t * (lam + p)
    if not math.isfinite(c):
        raise ConvergenceError(f"no finite schedule for z={z!r}")
    return t, p, c, 1 if active else 0


def value(z, d, lam, p_max, abs_tol, rel_tol, max_iter):
    return schedule(z, d, lam, p_max, abs_tol, rel_tol, max_iter)[2]
