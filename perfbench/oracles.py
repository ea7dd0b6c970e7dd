"""Reference values computed independently of the package under test.

Nothing here imports ``diskgeom``.  Closed forms come from the geometry of
each map, quadratures run in ``mpmath`` or as a periodic trapezoid sum over
a hand-written derivative, and critical points come from
``numpy.polynomial.polynomial.polyroots``.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# Trapezoid nodes for circle integrals of |f'|.  The rule converges
# geometrically for integrands analytic near the circle; 2^16 nodes stay
# exact to rounding while a zero of f' lies more than 1e-3 r off the circle.
TRAPEZOID_NODES = 2**16


# ---- Moebius maps (the identity is the case b = 0) ----


def moebius_rho(abs_b: float, r: float) -> float:
    """Radius of the disk f(r D) for a disk automorphism with |b| = abs_b."""
    q = 1.0 - abs_b * abs_b
    return r * q / (1.0 - abs_b * abs_b * r * r)


def moebius_functional(kind: str, abs_b: float, r: float, n: int = 4) -> float:
    rho = moebius_rho(abs_b, r)
    if kind == "rad":
        return r * (1.0 - abs_b * abs_b) / (1.0 - abs_b * r)
    if kind == "diam":
        return 2.0 * rho
    if kind == "ndiam":
        return float(n) ** (1.0 / (n - 1)) * rho
    if kind == "perim":
        return 2.0 * math.pi * rho
    if kind == "area":
        return math.pi * rho * rho
    raise ValueError(kind)


def moebius_density(abs_b: float, b_conj_z: complex, abs_z: float) -> float:
    """Region density at f(z): |1 - conj(b) z|^2 / ((1 - |z|^2)(1 - |b|^2))."""
    return abs(1.0 - b_conj_z) ** 2 / ((1.0 - abs_z * abs_z) * (1.0 - abs_b * abs_b))


# ---- polynomials ----


def series_area(coeffs, r: float) -> float:
    """pi sum n |a_n|^2 r^(2n): the area of f(r D) when f is injective there."""
    return math.pi * math.fsum(
        k * abs(complex(a)) ** 2 * r ** (2 * k) for k, a in enumerate(coeffs)
    )


def certified_univalent(coeffs, r: float) -> bool:
    """Sufficient test: sum_{k>=2} k |a_k| r^(k-1) < |a_1| makes f injective on r D."""
    a1 = abs(complex(coeffs[1])) if len(coeffs) > 1 else 0.0
    tail = math.fsum(k * abs(complex(a)) * r ** (k - 1) for k, a in enumerate(coeffs) if k >= 2)
    return a1 > 0.0 and tail < a1


def critical_radius(coeffs) -> float:
    """Smallest |z| with f'(z) = 0, or inf when f' has no zeros."""
    c = np.asarray(coeffs, dtype=complex)
    d = c[1:] * np.arange(1, c.size)
    d = np.trim_zeros(d, "b")
    if d.size <= 1:
        return math.inf
    return float(np.min(np.abs(np.polynomial.polynomial.polyroots(d))))


def quadratic_radius(coeffs, r: float) -> float:
    """max |a1 z + a2 z^2| over |z| = r, which is r (|a1| + |a2| r)."""
    return r * (abs(complex(coeffs[1])) + abs(complex(coeffs[2])) * r)


# ---- circle image length ----


def _poly_deriv(coeffs):
    c = np.asarray(coeffs, dtype=complex)
    d = c[1:] * np.arange(1, c.size)
    return lambda z: np.polynomial.polynomial.polyval(z, d)


def _moebius_deriv(b: complex, c: complex):
    return lambda z: c * (1.0 - abs(b) ** 2) / (1.0 - np.conj(b) * z) ** 2


def _annulus_deriv(c: float):
    # f = ((1 + z) / (1 - z))^(ic) on the principal branch.
    def fprime(z):
        f = np.exp(1j * c * (np.log1p(z) - np.log1p(-z)))
        return f * 2j * c / (1.0 - z * z)

    return fprime


def derivative_for(kind: str, params):
    if kind == "poly":
        return _poly_deriv(params)
    if kind == "moebius":
        return _moebius_deriv(params[1], params[2])
    if kind == "annulus":
        return _annulus_deriv(params)
    raise ValueError(kind)


def circle_length(fprime, r: float) -> float:
    """Integral of |f'(r e^(it))| r over [0, 2 pi] by the periodic trapezoid rule."""
    t = 2.0 * np.pi * np.arange(TRAPEZOID_NODES) / TRAPEZOID_NODES
    g = np.abs(fprime(r * np.exp(1j * t))) * r
    return float(math.fsum(g) * 2.0 * math.pi / TRAPEZOID_NODES)


# ---- annulus covering exp(2ic atanh z) ----


def annulus_area_s(c: float, s) -> float:
    """Set area of the covering image as a function of s = 2 atanh r, in mpmath."""
    with mpmath.workdps(30):
        c = mpmath.mpf(c)
        s = mpmath.mpf(s)
        cosh_s = mpmath.cosh(s)
        end = min(c * s, mpmath.pi)

        def integrand(t):
            ratio = mpmath.cosh(t / c) / cosh_s
            if ratio >= 1:
                return mpmath.mpf(0)
            return 2 * mpmath.sinh(2 * c * mpmath.acos(ratio))

        return float(mpmath.quad(integrand, [0, end]))


def annulus_area(c: float, r: float) -> float:
    with mpmath.workdps(30):
        s = 2 * mpmath.atanh(mpmath.mpf(r))
    return annulus_area_s(c, s)


def counterexample_area(c: float, x: float) -> float:
    """Area at the grid point x = -log r / log coth(pi/(2c)) of the study."""
    with mpmath.workdps(60):
        rate = -mpmath.log(mpmath.tanh(mpmath.pi / (2 * mpmath.mpf(c))))
        s = 2 * mpmath.atanh(mpmath.exp(-mpmath.mpf(x) * rate))
    return annulus_area_s(c, s)
