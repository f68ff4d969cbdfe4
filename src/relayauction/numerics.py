"""Scalar numerics: principal-branch Lambert W, golden-section minimization,
and monotone root finding.

``minimize_unimodal`` and ``solve_increasing`` act as independent
cross-checks for the closed-form schedule and for its closed-form inverse,
so they must not share code with the schedule kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Correctly rounded doubles.
_E = 2.718281828459045
_NEG_INV_E = -0.36787944117144233
# W0 about its branch point: -1 + p + _SERIES_C2*p^2 + _SERIES_C3*p^3 with
# p = sqrt(2(e*x + 1)) (Corless et al., "On the Lambert W function", Adv.
# Comput. Math. 1996). Below -1/e + _SERIES_DX it is the answer, because
# Halley iteration stalls where d(w e^w)/dw vanishes.
_SERIES_C2 = -1.0 / 3.0
_SERIES_C3 = 11.0 / 72.0
_SERIES_DX = 1e-6


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class ScheduleOverflow(ConvergenceError):
    """A channel's optimal schedule costs more than the largest double."""


@dataclass(frozen=True)
class ToleranceSpec:
    """Shared solver tolerances.

    abs_tol / rel_tol bound the residual of the defining equation
    (not the argument); max_iter caps iterations and bracket expansions.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be strictly positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_TOL = ToleranceSpec()


def _lambert_core(x: float, abs_tol: float, rel_tol: float, max_iter: int) -> float:
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


def lambert_w0(x: float, tol: ToleranceSpec = DEFAULT_TOL) -> float:
    """Principal branch of the Lambert W function for real x >= -1/e.

    Returns w >= -1 with ``|w*exp(w) - x| <= max(abs_tol, rel_tol*|x|)``.
    Uses a branch-aware initial guess refined by Halley iteration; near the
    branch point the series in sqrt(2(e*x+1)) is returned directly.
    """
    return _lambert_core(float(x), tol.abs_tol, tol.rel_tol, tol.max_iter)


def minimize_unimodal(f, lo: float, hi: float, tol: ToleranceSpec = DEFAULT_TOL):
    """Golden-section search for the minimum of a unimodal f on [lo, hi].

    Returns ``(x_min, f_min)`` with x_min within the tolerance of the true
    minimizer. The bracket shrinks deterministically, so results are
    reproducible bit for bit.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise ValueError(f"invalid bracket: lo={lo!r} must be < hi={hi!r}")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    h = hi - lo
    c = hi - invphi * h
    d = lo + invphi * h
    fc = f(c)
    fd = f(d)
    for _ in range(tol.max_iter):
        if h <= max(tol.abs_tol, tol.rel_tol * 0.5 * (abs(lo) + abs(hi))):
            break
        if fc < fd:
            hi = d
            d = c
            fd = fc
            h = hi - lo
            c = hi - invphi * h
            fc = f(c)
        else:
            lo = c
            c = d
            fc = fd
            h = hi - lo
            d = lo + invphi * h
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)


def solve_increasing(
    f,
    target: float,
    lo_hint: float,
    tol: ToleranceSpec = DEFAULT_TOL,
    lo_bound: float | None = None,
):
    """Solve f(x) = target for a strictly increasing f.

    The bracket is grown geometrically from ``lo_hint`` (doubling step sizes;
    when ``lo_bound`` is given the downward search instead halves the gap to
    the bound, keeping every evaluation inside the domain), then bisection
    runs until ``|f(x) - target| <= max(abs_tol, rel_tol*|target|)``.
    """
    a = float(lo_hint)
    fa = f(a)
    tol_f = max(tol.abs_tol, tol.rel_tol * abs(target))
    if abs(fa - target) <= tol_f:
        return a
    if fa < target:
        step = abs(a) if abs(a) > 1.0 else 1.0
        cur = a
        for _ in range(tol.max_iter):
            nxt = cur + step
            fn = f(nxt)
            if fn >= target:
                lo, hi = cur, nxt
                break
            cur = nxt
            step *= 2.0
        else:
            raise ConvergenceError(
                f"bracket expansion failed above lo_hint={lo_hint!r}"
            )
    else:
        step = abs(a) if abs(a) > 1.0 else 1.0
        cur = a
        for _ in range(tol.max_iter):
            nxt = cur - step
            if lo_bound is not None and nxt <= lo_bound:
                nxt = 0.5 * (cur + lo_bound)
            fn = f(nxt)
            if fn <= target:
                lo, hi = nxt, cur
                break
            cur = nxt
            if lo_bound is None:
                step *= 2.0
        else:
            raise ConvergenceError(
                f"bracket expansion failed below lo_hint={lo_hint!r}"
            )
    for _ in range(tol.max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm - target) <= tol_f:
            return mid
        if fm < target:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection residual above tolerance for target={target!r}"
    )
