"""Area growth of the annulus covering map and its log-convexity failure.

The covering f(z) = exp(2ic atanh z) sends r D onto a polar rectangle
swept over an oval: with s = 2 atanh r, the image is
{rho e^(i phi) : rho = e^(-2c eta), phi = 2c xi, (xi, eta) in oval},
where the oval atanh(r D) has boundary cos(2 eta) = cosh(2 xi) / cosh(s).
Radial sections are nested as |xi| grows, so the set area in BOTH
regimes (univalent or wrapped) is the single integral

    A(r) = int_0^pi 2 sinh(2c arccos(cosh(t/c) / cosh(s))) dt,

with the arccos argument clamped to <= 1 (the integrand vanishes where
cosh(t/c) exceeds cosh(s), which is exactly the univalent truncation).
The integral is evaluated with the cosh ratio in the log domain, so
radii within 1e-130 of 1 (small c) stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .quadrature import DEFAULT_QUAD_TOL, integrate

DEFAULT_X_MIN = 0.125
DEFAULT_X_MAX = 4.125
DEFAULT_X_POINTS = 33
# Second differences of log A below -10 quad_tol count as convexity
# violations (genuine signal, not quadrature noise).
VIOLATION_FACTOR = 10.0
# Quadrature tolerances of the limit profile's areas and of its target.
PROFILE_QUAD_TOL = 1e-10
TARGET_QUAD_TOL = 1e-12


@dataclass(frozen=True)
class CounterexampleRun:
    """Area values of one covering over a geometric radius grid."""

    c: float
    r_grid: tuple
    A_values: tuple
    threshold: float
    second_diffs: tuple
    regimes: tuple
    has_negative_second_diff: bool
    quad_tol: float


def univalence_threshold(c: float) -> float:
    """Largest radius on which exp(2ic atanh z) is injective: tanh(pi/(2c))."""
    if c <= 0.0:
        raise DomainError("c must be positive")
    return math.tanh(math.pi / (2.0 * c))


def _logcosh(y):
    """log cosh y, as log1p(2 sinh^2(y/2)) below |y| = 1, where the other form cancels."""
    y = np.abs(y)
    small = np.log1p(2.0 * np.sinh(0.5 * np.minimum(y, 1.0)) ** 2)
    return np.where(y < 1.0, small, y + np.log1p(np.exp(-2.0 * y)) - math.log(2.0))


def _area_from_s(c: float, s: float, quad_tol: float) -> float:
    """A as a function of s = 2 atanh r, valid in both regimes.

    The integrand vanishes like a square root at t = c s, so the quadrature
    runs in u with t = t_end (1 - u^2), on which it is smooth.  arccos(e^x)
    is 2 arcsin(sqrt(-expm1(x) / 2)), which keeps its digits as x -> 0.
    """
    if s <= 0.0:
        return 0.0
    log_cosh_s = _logcosh(s)
    t_end = min(c * s, math.pi)

    def integrand(u: np.ndarray) -> np.ndarray:
        ratio_log = np.minimum(_logcosh(t_end * (1.0 - u * u) / c) - log_cosh_s, 0.0)
        angle = 2.0 * np.arcsin(np.sqrt(-0.5 * np.expm1(ratio_log)))
        return 4.0 * t_end * u * np.sinh(2.0 * c * angle)

    value, _ = integrate(integrand, 0.0, 1.0, abs_tol=quad_tol)
    return value


def area_annulus_cover(c: float, r: float) -> float:
    """Set area of exp(2ic atanh z)(r D); exact in both regimes, by
    quadrature to DEFAULT_QUAD_TOL."""
    if c <= 0.0:
        raise DomainError("c must be positive")
    if not (0.0 < r < 1.0):
        raise DomainError("r must lie in (0, 1)")
    return _area_from_s(c, 2.0 * math.atanh(r), DEFAULT_QUAD_TOL)


def _log_shrink_rate(c: float) -> float:
    """L = -log tanh(pi/(2c)), the log-radius step to the threshold."""
    if not 0.0 < c < math.inf:
        raise DomainError("c must be finite and positive")
    q = math.exp(-math.pi / c)
    if q == 1.0:
        raise DomainError(f"c={c} exceeds pi 2^54, where exp(-pi/c) rounds to 1 in double")
    log_tanh = math.log1p(-q) - math.log1p(q)
    rate = -log_tanh
    if rate <= 0.0:
        raise DomainError(f"c={c} puts the threshold below double resolution")
    return rate


def _s_of_x(x: float, rate: float) -> float:
    """s = 2 atanh(r), r = e^(-x rate); above r = 1/2 as log(2 - d) - log(d)
    with d = 1 - r from expm1, and directly below, where that cancels."""
    r = math.exp(-x * rate)
    if r < 0.5:
        return 2.0 * math.atanh(r)
    d = -math.expm1(-x * rate)
    return math.log(2.0 - d) - math.log(d)


def check_not_log_convex(
    c: float,
    x_min: float = DEFAULT_X_MIN,
    x_max: float = DEFAULT_X_MAX,
    points: int = DEFAULT_X_POINTS,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> CounterexampleRun:
    """Second differences of log A on a geometric radius grid straddling
    the univalence threshold.

    The grid is uniform in x = -log r / log coth(pi/(2c)), so x = 1 is
    the threshold and uniform x is geometric in r.  A negative second
    difference below 10 quad_tol exhibits the log-convexity failure.
    DomainError when an area underflows, or is otherwise not positive and finite.
    """
    if points < 3:
        raise DomainError("need at least 3 grid points")
    if not (0.0 < x_min < x_max):
        raise DomainError("need 0 < x_min < x_max")
    if not 0.0 < quad_tol < math.inf:
        raise DomainError("quad_tol must be finite and positive")
    rate = _log_shrink_rate(c)
    xs = np.linspace(x_min, x_max, points)
    areas = np.array([_area_from_s(c, _s_of_x(float(x), rate), quad_tol) for x in xs])
    if not (ok := np.isfinite(areas) & (areas > 0.0)).all():
        raise DomainError(f"{np.sum(~ok)} of the {points} areas are not positive and finite")
    # Reverse to increasing radius (x increasing means r decreasing).
    xs_r = xs[::-1]
    areas_r = areas[::-1]
    r_grid = np.exp(-xs_r * rate)
    log_a = np.log(areas_r)
    second = log_a[2:] - 2.0 * log_a[1:-1] + log_a[:-2]
    threshold = univalence_threshold(c)
    regimes = tuple("univalent" if x > 1.0 else "formula" for x in xs_r)
    negative = bool(np.min(second) < -VIOLATION_FACTOR * quad_tol)
    return CounterexampleRun(
        c=c,
        r_grid=tuple(float(r) for r in r_grid),
        A_values=tuple(float(a) for a in areas_r),
        threshold=threshold,
        second_diffs=tuple(float(d) for d in second),
        regimes=regimes,
        has_negative_second_diff=negative,
        quad_tol=quad_tol,
    )


def limit_target(x: float) -> float:
    """-integral_0^x arcsin(u)/u du by adaptive quadrature to TARGET_QUAD_TOL."""
    if not (0.0 < x <= 1.0):
        raise DomainError("x must lie in (0, 1]")

    def integrand(u: np.ndarray) -> np.ndarray:
        return np.divide(np.arcsin(u), u, out=np.ones_like(u), where=u != 0.0)

    value, _ = integrate(integrand, 0.0, x, abs_tol=TARGET_QUAD_TOL)
    return -value


def limit_profile(c: float, x_grid: Sequence[float]) -> list:
    """Scaled area profile (A_c(r(x)) - 2 pi sinh(c pi)) / (4 c^2) against
    the c -> 0 target -integral_0^x arcsin(u)/u du, with the areas by
    quadrature to PROFILE_QUAD_TOL.

    Returns a list of (x, value, target) triples for convergence studies
    over decreasing c.
    """
    rate = _log_shrink_rate(c)
    saturation = 2.0 * math.pi * math.sinh(c * math.pi)
    out = []
    for x in x_grid:
        x = float(x)
        if not (0.0 < x < 1.0):
            raise DomainError("x must lie in (0, 1)")
        a_value = _area_from_s(c, _s_of_x(x, rate), PROFILE_QUAD_TOL)
        value = (a_value - saturation) / (4.0 * c * c)
        out.append((x, value, limit_target(x)))
    return out
