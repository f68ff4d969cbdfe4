"""Scalar numerics: golden-section minimization and monotone root finding.

``minimize_unimodal`` and ``solve_increasing`` act as independent
cross-checks for the closed-form schedule and for its closed-form inverse,
so they must not share code with the schedule kernel: this module imports
nothing from the package. The Lambert W solver lives in ``kernel``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


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
    # One bracket search in the direction of the target: upward it doubles
    # its step; downward it halves the gap to lo_bound when it would cross it.
    up = fa < target
    step = abs(a) if abs(a) > 1.0 else 1.0
    cur = a
    for _ in range(tol.max_iter):
        nxt = cur + step if up else cur - step
        if not up and lo_bound is not None and nxt <= lo_bound:
            nxt = 0.5 * (cur + lo_bound)
        fn = f(nxt)
        if (fn >= target) if up else (fn <= target):
            lo, hi = (cur, nxt) if up else (nxt, cur)
            break
        cur = nxt
        if up or lo_bound is None:
            step *= 2.0
    else:
        side = "above" if up else "below"
        raise ConvergenceError(f"bracket expansion failed {side} lo_hint={lo_hint!r}")
    for _ in range(tol.max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm - target) <= tol_f:
            return mid
        if fm < target:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(f"bisection residual above tolerance for target={target!r}")
