"""Optimal transmit schedules for a scalar effective channel.

For an effective channel z (watts; lower is better) the source's cost of
moving D bits/Hz in time t at the break-even power (2^(D/t)-1)*z is

    g(t) = t * (lambda_w + (2^(D/t) - 1) * z),

convex in t. ``optimal_schedule`` returns its closed-form minimizer subject
to the transmit-power cap, ``value_of_z`` the optimal cost (strictly
increasing in z), and ``z_of_value`` the inverse of that map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .jsonio import check_fields, frozen_record
from .kernel import _LN2, _TINY
from .numerics import ConvergenceError

# The log of the largest double.
_LOG_HUGE = 709.782712893384


@dataclass(frozen=True)
class SystemParams:
    """Global constants shared by every computation.

    d_bits_per_hz: bandwidth-normalized data volume.
    lambda_w: delay power, the weight converting duration into cost.
    p_max_w: transmit power cap for the source and every candidate.
    sigma2_w: receiver noise power.
    a_r_m2: receiver effective aperture.
    alpha: energy-harvesting circuit efficiency, in (0, 1].
    """

    d_bits_per_hz: float = 8.0
    lambda_w: float = 1.0
    p_max_w: float = 1.0
    sigma2_w: float = 1e-9
    a_r_m2: float = 1e-4
    alpha: float = 0.2

    def __post_init__(self):
        check_fields(self)
        problems = []
        for name in ("d_bits_per_hz", "lambda_w", "p_max_w", "sigma2_w", "a_r_m2", "alpha"):
            if not getattr(self, name) > 0.0:
                problems.append(f"{name} must be strictly positive")
        if self.alpha > 1.0:
            problems.append("alpha must not exceed 1")
        if problems:
            raise ValueError("; ".join(problems))


@frozen_record
class ScheduleSolution:
    """Optimal (duration, power) pair for one effective channel.

    cost_ws equals t_star_s * (lambda_w + p_star_w) exactly;
    constraint_active flags solutions pinned at the power cap.
    """

    t_star_s: float
    p_star_w: float
    cost_ws: float
    constraint_active: bool


def cost_function(t: float, z: float, params: SystemParams) -> float:
    """Source cost g(t) of transmitting over channel z for a duration t > 0."""
    if not t > 0.0:
        raise ValueError(f"duration must be strictly positive, got {t!r}")
    _check_z(z)
    return kernel.cost(t, z, params.d_bits_per_hz, params.lambda_w)


def min_total_power(t: float, z: float, params: SystemParams) -> float:
    """Break-even source power (2^(D/t)-1)*z: the winner harvests exactly
    its own retransmission energy when paid this power for duration t."""
    if not t > 0.0:
        raise ValueError(f"duration must be strictly positive, got {t!r}")
    _check_z(z)
    return kernel.min_power(t, z, params.d_bits_per_hz)


def optimal_schedule(z: float, params: SystemParams) -> ScheduleSolution:
    """Closed-form minimizer of ``cost_function`` over t, subject to the cap.

    The unconstrained optimum is D*ln2 / (W0((lambda/z - 1)/e) + 1); the cap
    branch D*ln2 / log1p(p_max/z) takes over for bad channels. Uniqueness
    follows from convexity. A capped solution is exactly the cap's
    (t_min, p_max, t_min*(lambda + p_max)), also where the unconstrained
    duration is within rel CAP_TIE_REL of t_min; every other is interior.
    Raises ScheduleOverflow, a ConvergenceError, when the cost overflows a
    double, and ConvergenceError when the duration underflows to 0 or the
    cap's duration is too small for the power it costs to be p_max.
    """
    _check_z(z)
    return ScheduleSolution(*kernel.schedule(z, params.d_bits_per_hz, params.lambda_w, params.p_max_w))


def optimal_schedules(z: np.ndarray, params: SystemParams) -> tuple[np.ndarray, ...]:
    """``optimal_schedule`` elementwise over an array of channels: arrays
    ``(t_star_s, p_star_w, cost_ws, constraint_active)`` of z's shape.

    A cost that overflows a double is +inf here rather than an error. The
    first channel that is not positive and finite raises the scalar call's
    ValueError, and a duration that underflows to 0 its ConvergenceError.
    Array calls pay off at a sweep chunk's size; the scalar call is the
    reference (see ``kernel`` for the agreement bounds).
    """
    z = np.asarray(z, float)
    ok = (z > 0.0) & (z < math.inf)
    if not ok.all():
        _check_z(float(z[~ok][0]))
    return kernel.schedules(z, params.d_bits_per_hz, params.lambda_w, params.p_max_w)


def value_of_z(z: float, params: SystemParams) -> float:
    """Optimal source cost v(z); strictly increasing in z."""
    _check_z(z)
    return kernel.value(z, params.d_bits_per_hz, params.lambda_w, params.p_max_w)


def z_of_value(u: float, params: SystemParams) -> float:
    """Inverse of ``value_of_z``: the z whose optimal cost equals u, to
    ``|value_of_z(z) - u| <= max(abs_tol, rel_tol*u)`` of ``DEFAULT_TOL``.

    Off the cap v = D*ln2*z*e^s with s = D*ln2/t the schedule's rate;
    eliminating z leaves s + expm1(-s) = b, b = D*ln2*lambda/u, which
    ``kernel.rate_of_value`` solves by Halley steps to within 4 ulps (W0
    would give s = a + W0(-e^-a), a = 1 + b, with a cancellation next to
    the branch point). Then z = u*e^-s/(D*ln2), unless the power
    -expm1(-s)*u/(D*ln2) exceeds p_max; the cap binds then, and
    z = p_max/expm1(D*ln2*(lambda + p_max)/u). z is within 3*(1 + r)*2^-52
    of the exact inverse, relative, where r is the rate (s, or the cap's
    D*ln2*(lambda + p_max)/u): the inputs' own rounding moves z by about
    r*2^-52. value_of_z(z) then meets u to about 1e-12, the limit of its
    own Lambert tolerance.

    Where b is below the normal doubles it has lost bits, and s is
    sqrt(2b) formed without the underflow, as the kernel forms its series
    where lambda/z is. Raises ValueError when z is not a positive normal
    double, and ConvergenceError where value_of_z cannot resolve u: the
    schedule at z has a rate D*ln2/t below the normal doubles or a duration
    that overflows. Both name u.
    """
    if not 0.0 < u < math.inf:
        raise ValueError(f"value must be strictly positive and finite, got {u!r}")
    d, lam, p_max = params.d_bits_per_hz, params.lambda_w, params.p_max_w
    k = d * _LN2
    b = k * lam / u
    s = kernel.rate_of_value(b) if b >= _TINY else math.sqrt(2.0 * lam) * math.sqrt(k) / math.sqrt(u)
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


def _check_z(z: float) -> None:
    if not 0.0 < z < math.inf:
        raise ValueError(f"effective channel must be strictly positive and finite, got {z!r}")
