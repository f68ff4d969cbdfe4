# cython: language_level=3
"""Compiled transmit-schedule kernel.

Cython twin of ``_kernel_py``: the same operations in the same order, so the
two backends return bit-identical floats (the build disables FP contraction
for this reason). It holds the Lambert solve and the schedule; the inverse
of the value map is one closed form on top of them, in
``schedule.z_of_value``. Absence of this extension is fine; the package
falls back to the pure-Python module at import time.
"""

from libc.math cimport INFINITY, exp, fabs, isfinite, log, log1p, pow, sqrt

from .numerics import ConvergenceError

BACKEND = "compiled"

cdef double _LN2 = 0.6931471805599453
cdef double _E = 2.718281828459045
cdef double _INV_E = 0.36787944117144233
cdef double _NEG_INV_E = -0.36787944117144233


cdef double _lambert(double x, double abs_tol, double rel_tol,
                     int max_iter) except? -1e308:
    cdef double p, w, l1, l2, tol_f, ew, f, wp1
    cdef int i
    if x < _NEG_INV_E - abs_tol:
        raise ValueError(f"lambert_w0 argument {x!r} below the branch point -1/e")
    if x <= _NEG_INV_E:
        return -1.0
    if x < _NEG_INV_E + 1e-6:
        p = sqrt(2.0 * (_E * x + 1.0))
        return -1.0 + p * (1.0 + p * (-0.3333333333333333 + p * 0.1527777777777778))
    if x < _E:
        p = sqrt(2.0 * (_E * x + 1.0))
        w = -1.0 + p * (1.0 + p * (-0.3333333333333333 + p * 0.1527777777777778))
    else:
        l1 = log(x)
        l2 = log(l1)
        w = l1 - l2 + l2 / l1
    tol_f = abs_tol if abs_tol > rel_tol * fabs(x) else rel_tol * fabs(x)
    for i in range(max_iter):
        ew = exp(w)
        f = w * ew - x
        if fabs(f) <= tol_f:
            return w
        wp1 = w + 1.0
        w = w - f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    raise ConvergenceError(f"lambert_w0 did not converge for x={x!r}")


def lambert_w0(double x, double abs_tol, double rel_tol, int max_iter):
    return _lambert(x, abs_tol, rel_tol, max_iter)


def cost(double t, double z, double d, double lam):
    return t * (lam + (pow(2.0, d / t) - 1.0) * z)


def min_power(double t, double z, double d):
    return (pow(2.0, d / t) - 1.0) * z


cdef int _schedule(double z, double d, double lam, double p_max,
                   double abs_tol, double rel_tol, int max_iter,
                   double *t_out, double *p_out, double *c_out) except -1:
    cdef double w, t_unc, cap_rate, t_min, t, p, c
    cdef bint active
    w = _lambert((lam / z - 1.0) * _INV_E, abs_tol, rel_tol, max_iter)
    # w rounds to -1 once lam/z is lost against 1; the cap is taken to bind
    # there, which holds unless p_max/lam exceeds about 1e8.
    t_unc = d * _LN2 / (w + 1.0) if w > -1.0 else 0.0
    cap_rate = log1p(p_max / z)
    t_min = d * _LN2 / cap_rate if cap_rate > 0.0 else INFINITY
    if t_unc >= t_min:
        t = t_unc
        active = (t_unc - t_min) <= 1e-12 * t_unc
    else:
        t = t_min
        active = True
    if active:
        p = p_max
    else:
        p = (pow(2.0, d / t) - 1.0) * z
    c = t * (lam + p)
    if not isfinite(c):
        raise ConvergenceError(f"no finite schedule for z={z!r}")
    t_out[0] = t
    p_out[0] = p
    c_out[0] = c
    return 1 if active else 0


def schedule(double z, double d, double lam, double p_max,
             double abs_tol, double rel_tol, int max_iter):
    cdef double t = 0.0, p = 0.0, c = 0.0
    cdef int active
    active = _schedule(z, d, lam, p_max, abs_tol, rel_tol, max_iter, &t, &p, &c)
    return t, p, c, active


cdef double _value(double z, double d, double lam, double p_max,
                   double abs_tol, double rel_tol, int max_iter) except? -1e308:
    cdef double t = 0.0, p = 0.0, c = 0.0
    _schedule(z, d, lam, p_max, abs_tol, rel_tol, max_iter, &t, &p, &c)
    return c


def value(double z, double d, double lam, double p_max,
          double abs_tol, double rel_tol, int max_iter):
    return _value(z, d, lam, p_max, abs_tol, rel_tol, max_iter)
