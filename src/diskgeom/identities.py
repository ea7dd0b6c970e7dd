"""Exact algebraic identities for roots of unity and Vandermonde products.

Everything here is exact up to rounding, so tolerances scale with n and
machine epsilon only.  Root powers are looked up modulo n from a single
precomputed table, which keeps expressions like alpha^(jk) bit-identical
for congruent exponents.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import InequalityReport, _make_report
from .errors import ConditioningWarning, DomainError

VANDERMONDE_MAX_N = 64
VANDERMONDE_REL_TOL = 1e-9
SUM_TOL = 1e-12
SECOND_SUM_TOL = 1e-11
# Pairwise gaps below this trigger a ConditioningWarning in the
# determinant comparison.
NEAR_COINCIDENT_GAP = 1e-6


@dataclass(frozen=True)
class PointTuple:
    """n distinct complex points in the closed unit disk."""

    points: tuple

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        n = len(pts)
        if n < 2:
            raise DomainError("need at least two points")
        if any(abs(p) > 1.0 + 1e-12 for p in pts):
            raise DomainError("points must lie in the closed unit disk")
        arr = np.asarray(pts)
        diff = np.abs(arr[:, None] - arr[None, :])
        iu = np.triu_indices(n, k=1)
        if float(np.min(diff[iu])) <= 1e-12:
            raise DomainError("points must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.points)


def roots_of_unity(n: int) -> np.ndarray:
    """alpha^k = exp(2 pi i k / n) for k = 0..n-1."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return np.exp(2j * np.pi * np.arange(n) / n)


def vandermonde_check(t: PointTuple):
    """Compare prod |w_k - w_j| with |det| of the Vandermonde matrix.

    Returns (product, det_abs, match); match holds when the relative
    difference is at most 1e-9 n^2.  Both sides are computed in the log
    domain, so n = 64 near-extremal tuples stay in range.
    """
    n = len(t)
    if n > VANDERMONDE_MAX_N:
        raise DomainError(f"n must be <= {VANDERMONDE_MAX_N}")
    pts = np.asarray(t.points)
    diff = np.abs(pts[:, None] - pts[None, :])
    iu = np.triu_indices(n, k=1)
    gaps = diff[iu]
    if float(np.min(gaps)) < NEAR_COINCIDENT_GAP:
        warnings.warn(
            "near-coincident points make the Vandermonde comparison ill-conditioned",
            ConditioningWarning,
        )
    log_product = float(np.sum(np.log(gaps)))
    vand = np.vander(pts, n, increasing=True)
    sign, logdet = np.linalg.slogdet(vand)
    product = math.exp(log_product)
    det_abs = math.exp(logdet) if sign != 0 else 0.0
    rel = abs(log_product - logdet)
    match = bool(rel <= VANDERMONDE_REL_TOL * n * n)
    return product, det_abs, match


def hadamard_bound_check(t: PointTuple) -> InequalityReport:
    """|det V_n| <= n^(n/2) for points in the closed disk, to a relative
    tolerance of VANDERMONDE_REL_TOL n^2; equality holds exactly for
    rotated roots of unity."""
    n = len(t)
    if n > VANDERMONDE_MAX_N:
        raise DomainError(f"n must be <= {VANDERMONDE_MAX_N}")
    vand = np.vander(np.asarray(t.points), n, increasing=True)
    sign, logdet = np.linalg.slogdet(vand)
    lhs = math.exp(logdet) if sign != 0 else 0.0
    rhs = float(n) ** (n / 2.0)
    tol = VANDERMONDE_REL_TOL * n * n * rhs
    return _make_report("Hadamard", lhs, rhs, tol, {"n": n})


def roots_of_unity_sum(n: int, j: int):
    """Direct sum of (1 - alpha^(jk)) / (1 - alpha^k), k = 1..n-1, which
    telescopes to n - j for 1 <= j <= n.

    Returns (sum, expected, residual).  alpha powers are read from one
    table modulo n, so congruent exponents are bit-identical.
    """
    if not 1 <= j <= n:
        raise DomainError("need 1 <= j <= n")
    alpha = roots_of_unity(n)
    terms = [
        (1.0 - alpha[(j * k) % n]) / (1.0 - alpha[k]) for k in range(1, n)
    ]
    total = complex(
        math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms)
    )
    expected = complex(n - j, 0.0)
    return total, expected, abs(total - expected)


def second_sum(n: int, p: int):
    """Direct sum of (1 - alpha^(kp)) / (1 - alpha^k)^2, k = 1..n-1,
    against the closed form pA - (n - p/2)(p - 1) with A = (n - 1)/2.

    Returns (sum, expected, residual).
    """
    if not 1 <= p <= n:
        raise DomainError("need 1 <= p <= n")
    alpha = roots_of_unity(n)
    terms = [
        (1.0 - alpha[(k * p) % n]) / (1.0 - alpha[k]) ** 2 for k in range(1, n)
    ]
    total = complex(
        math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms)
    )
    a_const = (n - 1) / 2.0
    expected = complex(p * a_const - (n - p / 2.0) * (p - 1), 0.0)
    return total, expected, abs(total - expected)


def fekete_witness_is_roots(witness, tol: float) -> bool:
    """True when the points, a sequence of complex numbers, are a common
    rotation and scaling of the n-th roots of unity within tol, after the
    best circular relabeling.

    The scale is the mean modulus and the rotation is recovered from the
    mean of the n-th powers of the normalized points; matching compares
    angle-sorted tuples over all n circular shifts, with tol applied
    relative to max(1, scale).
    """
    pts = np.asarray([complex(p) for p in witness])
    n = pts.size
    if n < 2:
        raise DomainError("need at least two points")
    mags = np.abs(pts)
    if np.any(mags == 0.0):
        return False
    scale = float(np.mean(mags))
    unit = pts / mags
    mean_power = complex(np.mean(unit**n))
    if abs(mean_power) < 1e-12:
        rotation = unit[0]
    else:
        rotation = cmath.exp(1j * cmath.phase(mean_power) / n)
    roots = scale * rotation * np.exp(2j * np.pi * np.arange(n) / n)
    ordered = pts[np.argsort(np.angle(pts / rotation))]
    best = np.inf
    for shift in range(n):
        dev = float(np.max(np.abs(np.roll(ordered, -shift) - roots)))
        best = min(best, dev)
    return bool(best <= tol * max(1.0, scale))


def identity_suite(n_max: int = 64, tuple_count: int = 200, seed: int = 20260815) -> dict:
    """Run the sum identities for all n <= n_max and the Vandermonde and
    Hadamard checks on seeded random disk tuples; returns residual maxima
    and pass booleans."""
    worst_lemma = 0.0
    worst_second = 0.0
    for n in range(2, n_max + 1):
        for j in range(1, n + 1):
            _, _, res = roots_of_unity_sum(n, j)
            worst_lemma = max(worst_lemma, res / n)
            _, _, res2 = second_sum(n, j)
            worst_second = max(worst_second, res2 / (n * n))
    rng = np.random.default_rng(seed)
    vand_ok = True
    hadamard_ok = True
    for _ in range(tuple_count):
        n = int(rng.integers(2, 13))
        raw = rng.uniform(-1.0, 1.0, size=(n, 2))
        pts = raw[:, 0] + 1j * raw[:, 1]
        pts = pts / np.maximum(np.abs(pts), 1.0)
        try:
            tup = PointTuple(tuple(pts))
        except DomainError:
            continue
        _, _, match = vandermonde_check(tup)
        vand_ok = vand_ok and match
        hadamard_ok = hadamard_ok and hadamard_bound_check(tup).passed
    return {
        "lemma_residual": worst_lemma,
        "second_sum_residual": worst_second,
        "lemma_ok": worst_lemma <= SUM_TOL,
        "second_sum_ok": worst_second <= SECOND_SUM_TOL,
        "vandermonde_ok": vand_ok,
        "hadamard_ok": hadamard_ok,
    }
