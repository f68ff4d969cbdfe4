"""Pure-Python transmit-schedule kernel.

Fallback for the compiled extension in ``_kernel.pyx``; both implement the
same operations in the same order so results agree bit for bit. The hot
entry points are ``lambert_w0``, ``schedule`` (closed-form optimum for one
effective channel) and ``value`` (its cost). The inverse of the value map
is a closed form on top of these, in ``schedule.z_of_value``.
"""

from __future__ import annotations

import math

from .numerics import ConvergenceError, _lambert_core

BACKEND = "python"

_LN2 = 0.6931471805599453
_INV_E = 0.36787944117144233


def lambert_w0(x, abs_tol, rel_tol, max_iter):
    return _lambert_core(x, abs_tol, rel_tol, max_iter)


def cost(t, z, d, lam):
    return t * (lam + (math.pow(2.0, d / t) - 1.0) * z)


def min_power(t, z, d):
    return (math.pow(2.0, d / t) - 1.0) * z


def schedule(z, d, lam, p_max, abs_tol, rel_tol, max_iter):
    """Closed-form minimizer of t*(lam + (2^(d/t)-1)*z) s.t. power <= p_max.

    Returns ``(t, p, cost, active)`` where active=1 when the power cap binds
    (ties within rel 1e-12 count as active). Raises ConvergenceError when
    the cost is not finite, i.e. the cap duration overflows for huge z.
    """
    w = _lambert_core((lam / z - 1.0) * _INV_E, abs_tol, rel_tol, max_iter)
    # w rounds to -1 once lam/z is lost against 1; the cap is taken to bind
    # there, which holds unless p_max/lam exceeds about 1e8.
    t_unc = d * _LN2 / (w + 1.0) if w > -1.0 else 0.0
    cap_rate = math.log1p(p_max / z)
    t_min = d * _LN2 / cap_rate if cap_rate > 0.0 else math.inf
    if t_unc >= t_min:
        t = t_unc
        active = (t_unc - t_min) <= 1e-12 * t_unc
    else:
        t = t_min
        active = True
    if active:
        p = p_max
    else:
        p = (math.pow(2.0, d / t) - 1.0) * z
    c = t * (lam + p)
    if not math.isfinite(c):
        raise ConvergenceError(f"no finite schedule for z={z!r}")
    return t, p, c, 1 if active else 0


def value(z, d, lam, p_max, abs_tol, rel_tol, max_iter):
    return schedule(z, d, lam, p_max, abs_tol, rel_tol, max_iter)[2]
