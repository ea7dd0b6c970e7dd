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
radii within 1e-130 of 1 (small c) stay finite.  The coefficient series
of the univalent regime is kept as an independent cross-oracle at
moderate radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import AnnulusCover, taylor_coefficients
from .errors import DomainError, QuadratureError
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
# Most Taylor coefficients the series cross-oracle may sum.
SERIES_MAX_TERMS = 16384


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


def _logcosh(y: float) -> float:
    y = abs(y)
    return y + math.log1p(math.exp(-2.0 * y)) - math.log(2.0)


def _area_from_s(c: float, s: float, quad_tol: float) -> float:
    """A as a function of s = 2 atanh r, valid in both regimes."""
    if s <= 0.0:
        return 0.0
    log_cosh_s = _logcosh(s)
    t_end = min(c * s, math.pi)

    def integrand(t: float) -> float:
        ratio_log = _logcosh(t / c) - log_cosh_s
        if ratio_log >= 0.0:
            return 0.0
        return 2.0 * math.sinh(2.0 * c * math.acos(math.exp(ratio_log)))

    value, _ = integrate(integrand, 0.0, t_end, abs_tol=quad_tol)
    return value


def area_annulus_cover(c: float, r: float) -> float:
    """Set area of exp(2ic atanh z)(r D); exact in both regimes, by
    quadrature to DEFAULT_QUAD_TOL."""
    if c <= 0.0:
        raise DomainError("c must be positive")
    if not (0.0 < r < 1.0):
        raise DomainError("r must lie in (0, 1)")
    return _area_from_s(c, 2.0 * math.atanh(r), DEFAULT_QUAD_TOL)


def area_series_annulus(c: float, r: float) -> float:
    """Univalent-regime area pi sum n |a_n|^2 r^(2n) from the coefficient
    series; the independent cross-oracle for moderate radii.

    Raises QuadratureError when the tail has not settled within
    SERIES_MAX_TERMS (radii too close to 1 for the series to be practical).
    """
    if not (0.0 < r < univalence_threshold(c)):
        raise DomainError("series area needs the univalent regime")
    count = 256
    while True:
        coeffs = np.asarray(taylor_coefficients(AnnulusCover(c), count), dtype=complex)
        n = np.arange(count)
        terms = n * np.abs(coeffs) ** 2 * float(r) ** (2 * n)
        total = float(np.pi * np.sum(terms))
        tail = float(np.pi * np.sum(terms[count // 2:]))
        if tail <= 1e-12 * max(total, 1e-300):
            return total
        if count >= SERIES_MAX_TERMS:
            raise QuadratureError(
                f"series area did not settle within {SERIES_MAX_TERMS} terms at r={r}"
            )
        count *= 2


def _log_shrink_rate(c: float) -> float:
    """L = -log tanh(pi/(2c)), the log-radius step to the threshold."""
    y = math.pi / (2.0 * c)
    log_tanh = math.log1p(-math.exp(-2.0 * y)) - math.log1p(math.exp(-2.0 * y))
    rate = -log_tanh
    if rate <= 0.0:
        raise DomainError(f"c={c} puts the threshold below double resolution")
    return rate


def _s_of_x(x: float, rate: float) -> float:
    """s = 2 atanh(e^(-x rate)) without forming 1 - r."""
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
    """
    if points < 3:
        raise DomainError("need at least 3 grid points")
    if not (0.0 < x_min < x_max):
        raise DomainError("need 0 < x_min < x_max")
    rate = _log_shrink_rate(c)
    xs = np.linspace(x_min, x_max, points)
    areas = np.array([_area_from_s(c, _s_of_x(float(x), rate), quad_tol) for x in xs])
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

    def integrand(u: float) -> float:
        if u == 0.0:
            return 1.0
        return math.asin(u) / u

    value, _ = integrate(integrand, 0.0, x, abs_tol=TARGET_QUAD_TOL)
    return -value


def limit_profile(c: float, x_grid: Sequence[float]) -> list:
    """Scaled area profile (A_c(r(x)) - 2 pi sinh(c pi)) / (4 c^2) against
    the c -> 0 target -integral_0^x arcsin(u)/u du, with the areas by
    quadrature to PROFILE_QUAD_TOL.

    Returns a list of (x, value, target) triples for convergence studies
    over decreasing c.
    """
    if c <= 0.0:
        raise DomainError("c must be positive")
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
