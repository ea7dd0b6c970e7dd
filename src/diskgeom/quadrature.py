"""Adaptive Gauss-Kronrod (7, 15) quadrature in numpy, with error control.

The nodes, weights and per-interval error estimate are QUADPACK's QK15
(Piessens et al., QUADPACK, 1983).  Each pass evaluates the integrand once,
on the 15 nodes of every interval made by the last pass, and then bisects
every interval whose error exceeds its mean share of the budget
tol max(1, |I|).  A share in proportion to length would not do: next to an
integrable singularity the roundoff floor of QUADPACK's estimate, 50 eps
times the integral of |f|, stays put as the intervals shrink, and their
length shares fall below it.  Integrands map a 1-D float array to an array
of values.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

DEFAULT_QUAD_TOL = 1e-8
# Most intervals one integral is split into.
MAX_INTERVALS = 400

# Kronrod abscissae on [0, 1] and their weights, and the weights of the
# Gauss abscissae among them, _XGK[1], _XGK[3], _XGK[5] and 0.
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
NODES = np.concatenate([-np.array(_XGK[:-1]), _XGK[::-1]])
KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
GAUSS = np.zeros(15)
GAUSS[1::2] = _WG + _WG[-2::-1]
EPS = np.finfo(float).eps
# The spacing of subnormal floats, where EPS times a value underflows.
TINY = np.finfo(float).smallest_subnormal


def _qk15(fn, lo: np.ndarray, hi: np.ndarray):
    """Kronrod values of fn on the intervals [lo, hi] and QUADPACK's error
    estimates, from one call of fn on all their nodes; an interval with a
    non-finite value or error gets an infinite error."""
    half = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi)[:, None] + half[:, None] * NODES
    f = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        resk = f @ KRONROD
        resabs = np.abs(f) @ KRONROD * half
        resasc = np.abs(f - 0.5 * resk[:, None]) @ KRONROD * half
        err = np.abs(resk - f @ GAUSS) * half
        err = np.where(resasc > 0.0, resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
        err = np.maximum(err, 50.0 * (EPS * resabs + TINY))
        value = resk * half
        return value, np.where(np.isfinite(value + err), err, np.inf)


def quad(fn, a: float, b: float, tol: float):
    """(value, error) of the integral of fn over [a, b], with a < b: passes
    of bisection until the summed error is within tol max(1, |I|) or there
    are MAX_INTERVALS intervals (the worst are split first)."""
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    value, err = _qk15(fn, lo, hi)
    while True:
        total, error = float(value.sum()), float(err.sum())
        budget = tol * max(1.0, abs(total))
        if error <= budget or lo.size >= MAX_INTERVALS:
            return total, error
        split = np.flatnonzero(err > budget / lo.size)
        split = split[np.argsort(-err[split], kind="stable")[: MAX_INTERVALS - lo.size]]
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_value, new_err = _qk15(fn, new_lo, new_hi)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])


def integrate(fn, a: float, b: float, abs_tol: float = DEFAULT_QUAD_TOL):
    """Integrate fn over [a, b]; returns (value, error_estimate).  fn maps
    a 1-D float array of points to the array of its values.

    Raises QuadratureError when the error estimate misses the requested
    tolerance abs_tol max(1, |value|) by more than a factor of ten, or
    when the value or the estimate is not finite.
    """
    if b <= a:
        return 0.0, 0.0
    value, err = quad(fn, a, b, abs_tol)
    if not (np.isfinite(value) and err <= 10.0 * abs_tol * max(1.0, abs(value))):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance {abs_tol:.3e}"
        )
    return value, err
