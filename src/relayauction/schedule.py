"""Optimal transmit schedules for a scalar effective channel.

For an effective channel z (watts; lower is better) the source's cost of
moving D bits/Hz in time t at the break-even power (2^(D/t)-1)*z is

    g(t) = t * (lambda_w + (2^(D/t) - 1) * z),

convex in t. ``optimal_schedule`` returns its closed-form minimizer subject
to the transmit-power cap, ``value_of_z`` the optimal cost (strictly
increasing in z), and ``z_of_value`` the closed-form inverse of that map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .jsonio import check_fields
from .kernel import _LN2
from .numerics import DEFAULT_TOL, ConvergenceError


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


@dataclass(frozen=True, slots=True)
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
    follows from convexity. Raises ScheduleOverflow, a ConvergenceError, when
    the cost overflows a double.
    """
    _check_z(z)
    return ScheduleSolution(*kernel.schedule(z, params.d_bits_per_hz, params.lambda_w, params.p_max_w))


def optimal_schedules(z: np.ndarray, params: SystemParams) -> tuple[np.ndarray, ...]:
    """``optimal_schedule`` elementwise over an array of channels: arrays
    ``(t_star_s, p_star_w, cost_ws, constraint_active)`` of z's shape.

    A cost that overflows a double is +inf here rather than an error, and z
    is not checked. Array calls pay off at a sweep chunk's size; the scalar
    call is the reference (see ``kernel`` for the agreement bounds).
    """
    return kernel.schedules(z, params.d_bits_per_hz, params.lambda_w, params.p_max_w)


def value_of_z(z: float, params: SystemParams) -> float:
    """Optimal source cost v(z); strictly increasing in z."""
    _check_z(z)
    return kernel.value(z, params.d_bits_per_hz, params.lambda_w, params.p_max_w)


def z_of_value(u: float, params: SystemParams) -> float:
    """Inverse of ``value_of_z``: the z whose optimal cost equals u, to
    ``|value_of_z(z) - u| <= max(abs_tol, rel_tol*u)`` of ``DEFAULT_TOL``.

    Closed form. Off the cap v = D*ln2*z*e^s with s = W0((lambda/z - 1)/e) + 1;
    eliminating z gives s = a + W0(-e^-a), a = 1 + D*ln2*lambda/u, and
    z = u*e^-s/(D*ln2). That equals lambda/(1 + (s-1)*e^s) but neither
    overflows nor cancels near a -> 1. If its power (e^s - 1)*z exceeds
    p_max the cap binds instead, and z = p_max/expm1(D*ln2*(lambda + p_max)/u).
    Near a -> 1 the Lambert residual leaves too much error in s, so Newton
    steps on the schedule's cost polish z.

    Raises ValueError when no positive finite z has value u, and
    ConvergenceError when the schedule cannot resolve u.
    """
    if not 0.0 < u < math.inf:
        raise ValueError(f"value must be strictly positive and finite, got {u!r}")
    d, lam, p_max = params.d_bits_per_hz, params.lambda_w, params.p_max_w
    k = d * _LN2
    a = 1.0 + k * lam / u
    s = a + kernel.lambert_w0(-math.exp(-a))
    z = u * math.exp(-s) / k
    if not (s > 0.0 and -math.expm1(-s) * u / k <= p_max):
        x = k * (lam + p_max) / u
        z = p_max * math.exp(-x) / -math.expm1(-x) if x > 0.0 else math.inf
    if not 0.0 < z < math.inf:
        raise ValueError(f"no positive finite effective channel has value {u!r}")
    tol_f = max(DEFAULT_TOL.abs_tol, DEFAULT_TOL.rel_tol * u)
    for _ in range(DEFAULT_TOL.max_iter):
        try:
            t, p, c, active = kernel.schedule(z, d, lam, p_max)
        except ConvergenceError as exc:
            raise ConvergenceError(f"cannot resolve value {u!r}: {exc}") from None
        if abs(c - u) <= tol_f:
            return z
        # dv/dz: the envelope derivative t*(2^(D/t) - 1) off the cap;
        # on it t = D*ln2/log1p(p_max/z) moves with z.
        if active:
            slope = c * p_max / (z * (z + p_max) * math.log1p(p_max / z))
        else:
            slope = t * p / z
        z_next = z - (c - u) / slope
        z = z_next if z_next > 0.0 else 0.5 * z
    raise ConvergenceError(
        f"cannot resolve value {u!r} to tolerance in {DEFAULT_TOL.max_iter} steps"
    )


def _check_z(z: float) -> None:
    if not 0.0 < z < math.inf:
        raise ValueError(f"effective channel must be strictly positive and finite, got {z!r}")
