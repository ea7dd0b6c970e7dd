"""Exact algebraic identities for roots of unity and Vandermonde products.

Everything here is exact up to rounding, so tolerances scale with n and
machine epsilon only.  Root powers are looked up modulo n from one table
per n, which keeps expressions like alpha^(jk) bit-identical for congruent
exponents; the sums of all j for one n are the rows of one term matrix
built from that table.  Tuples of points are checked as (k, n) stacks:
the pair gaps, the validity masks and one stacked log-determinant serve
every row at once, and the public one-tuple checks are the one-row case.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import InequalityReport, _make_report
from .errors import ConditioningWarning, DomainError
from .functionals import _gaps, _log_sums

VANDERMONDE_MAX_N = 64
VANDERMONDE_REL_TOL = 1e-9
SUM_TOL = 1e-12
SECOND_SUM_TOL = 1e-11
# Pairwise gaps below this trigger a ConditioningWarning in the
# determinant comparison.
NEAR_COINCIDENT_GAP = 1e-6
# The most terms one block of root-of-unity sums holds, so that the working
# set stays bounded at any n.
SUM_BLOCK_TERMS = 2**16


def _row_faults(stack: np.ndarray) -> tuple:
    """(outside, coincident) masks of the rows of a (k, n) stack of points:
    some |p| > 1 + 1e-12, or some pair gap <= 1e-12."""
    return (np.abs(stack) > 1.0 + 1e-12).any(axis=1), _gaps(stack).min(axis=1) <= 1e-12


def _log_abs_det(stack: np.ndarray) -> np.ndarray:
    """log |det V| of each row's Vandermonde matrix, -inf where it is
    singular, from one stacked slogdet; DomainError above VANDERMONDE_MAX_N
    points.  The powers come from multiply.accumulate, as in np.vander."""
    k, n = stack.shape
    if n > VANDERMONDE_MAX_N:
        raise DomainError(f"n must be <= {VANDERMONDE_MAX_N}")
    v = np.empty((k, n, n), dtype=complex)
    v[:, :, 0] = 1.0
    v[:, :, 1:] = stack[:, :, None]
    np.multiply.accumulate(v[:, :, 1:], out=v[:, :, 1:], axis=2)
    return np.linalg.slogdet(v)[1]


def _vandermonde_rows(stack: np.ndarray, logdet: np.ndarray) -> tuple:
    """(log_product, match) of each row of a (k, n) stack of distinct
    points: the log of prod |p_i - p_j|, and whether it agrees with the
    row's log |det V| to VANDERMONDE_REL_TOL n^2."""
    n = stack.shape[1]
    gaps = _gaps(stack)
    if (gaps < NEAR_COINCIDENT_GAP).any():
        warnings.warn(
            "near-coincident points make the Vandermonde comparison ill-conditioned",
            ConditioningWarning,
        )
    log_product = _log_sums(gaps)
    return log_product, np.abs(log_product - logdet) <= VANDERMONDE_REL_TOL * n * n


def _hadamard_report(n: int, logdet: float) -> InequalityReport:
    rhs = float(n) ** (n / 2.0)
    tol = VANDERMONDE_REL_TOL * n * n * rhs
    return _make_report("Hadamard", math.exp(logdet), rhs, tol, {"n": n})


def _tuple_checks(stack: np.ndarray) -> tuple:
    """(vandermonde_ok, hadamard_ok) over the rows of a (k, n) stack of
    points, skipping the rows that PointTuple rejects; one log-determinant
    per row serves both checks."""
    outside, coincident = _row_faults(stack)
    stack = stack[~(outside | coincident)]
    logdet = _log_abs_det(stack)
    n = stack.shape[1]
    return (
        bool(_vandermonde_rows(stack, logdet)[1].all()),
        all(_hadamard_report(n, d).passed for d in logdet.tolist()),
    )


def _root_sums(n: int, js) -> tuple:
    """(lemma, second): for each j of js, the (sum, expected, residual) of
    roots_of_unity_sum(n, j) and of second_sum(n, j).

    The terms of a block of j form one matrix, 1 - alpha^(jk) over the rows
    j and the columns k = 1..n-1, read from one table of root powers modulo
    n and divided by (1 - alpha^k) and by (1 - alpha^k)^2.  A block holds at
    most SUM_BLOCK_TERMS terms.  The real and imaginary parts of each row are
    summed by math.fsum, so the sums are exactly rounded.
    """
    alpha, k = roots_of_unity(n), np.arange(1, n)
    base = 1.0 - alpha[k]
    square = base**2
    a_const = (n - 1) / 2.0
    lemma, second = [], []
    step = max(1, SUM_BLOCK_TERMS // max(1, n - 1))
    for start in range(0, len(js), step):
        block = js[start : start + step]
        terms = 1.0 - alpha[np.multiply.outer(block, k) % n]
        lemma += _exact_sums(terms / base, [n - j for j in block])
        second += _exact_sums(
            terms / square, [j * a_const - (n - j / 2.0) * (j - 1) for j in block]
        )
    return lemma, second


def _exact_sums(terms: np.ndarray, expected: list) -> list:
    """(sum, expected, residual) of each row of a complex matrix, with the
    real and imaginary parts each summed by math.fsum."""
    totals = map(complex, map(math.fsum, terms.real.tolist()), map(math.fsum, terms.imag.tolist()))
    return [(t, e, abs(t - e)) for t, e in zip(totals, map(complex, expected))]


@dataclass(frozen=True)
class PointTuple:
    """n distinct complex points in the closed unit disk."""

    points: tuple

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise DomainError("need at least two points")
        outside, coincident = _row_faults(np.array([pts]))
        if outside[0]:
            raise DomainError("points must lie in the closed unit disk")
        if coincident[0]:
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
    stack = np.array([t.points])
    logdet = _log_abs_det(stack)
    log_product, match = _vandermonde_rows(stack, logdet)
    return math.exp(log_product[0]), math.exp(logdet[0]), bool(match[0])


def hadamard_bound_check(t: PointTuple) -> InequalityReport:
    """|det V_n| <= n^(n/2) for points in the closed disk, to a relative
    tolerance of VANDERMONDE_REL_TOL n^2; equality holds exactly for
    rotated roots of unity."""
    return _hadamard_report(len(t), _log_abs_det(np.array([t.points]))[0])


def roots_of_unity_sum(n: int, j: int):
    """Direct sum of (1 - alpha^(jk)) / (1 - alpha^k), k = 1..n-1, which
    telescopes to n - j for 1 <= j <= n.

    Returns (sum, expected, residual).  alpha powers are read from one
    table modulo n, so congruent exponents are bit-identical.
    """
    if not 1 <= j <= n:
        raise DomainError("need 1 <= j <= n")
    return _root_sums(n, [j])[0][0]


def second_sum(n: int, p: int):
    """Direct sum of (1 - alpha^(kp)) / (1 - alpha^k)^2, k = 1..n-1,
    against the closed form pA - (n - p/2)(p - 1) with A = (n - 1)/2.

    Returns (sum, expected, residual).
    """
    if not 1 <= p <= n:
        raise DomainError("need 1 <= p <= n")
    return _root_sums(n, [p])[1][0]


def fekete_witness_is_roots(witness, tol: float) -> bool:
    """True when the points, a sequence of complex numbers, are a common
    rotation and scaling of the n-th roots of unity within tol, after the
    best circular relabeling.

    The scale is the mean modulus and the rotation is recovered from the
    mean of the n-th powers of the normalized points; matching compares
    angle-sorted tuples over all n circular shifts, with tol applied
    relative to max(1, scale).
    """
    if not 0.0 <= tol < math.inf:
        raise DomainError("tol must be finite and non-negative")
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
    roots = scale * rotation * roots_of_unity(n)
    ordered = pts[np.argsort(np.angle(pts / rotation))]
    best = min(float(np.max(np.abs(np.roll(ordered, -s) - roots))) for s in range(n))
    return bool(best <= tol * max(1.0, scale))


def identity_suite(n_max: int = 64, tuple_count: int = 200, seed: int = 20260815) -> dict:
    """Run the sum identities for all n <= n_max and the Vandermonde and
    Hadamard checks on seeded random disk tuples; returns residual maxima
    and pass booleans.

    The sums of each n run as the rows of one term matrix.  The tuples are
    drawn one at a time from the seeded stream, then checked as one stack
    per tuple size.
    """
    if n_max < 2 or tuple_count < 1:
        raise DomainError("need n_max >= 2 and tuple_count >= 1")
    worst_lemma = 0.0
    worst_second = 0.0
    for n in range(2, n_max + 1):
        lemma, second = _root_sums(n, range(1, n + 1))
        worst_lemma = max([worst_lemma] + [res / n for _, _, res in lemma])
        worst_second = max([worst_second] + [res / (n * n) for _, _, res in second])
    rng = np.random.default_rng(seed)
    groups = {}
    for _ in range(tuple_count):
        n = int(rng.integers(2, 13))
        groups.setdefault(n, []).append(rng.uniform(-1.0, 1.0, size=(n, 2)))
    vand_ok = hadamard_ok = True
    for raws in groups.values():
        raw = np.array(raws)
        pts = raw[:, :, 0] + 1j * raw[:, :, 1]
        v_ok, h_ok = _tuple_checks(pts / np.maximum(np.abs(pts), 1.0))
        vand_ok, hadamard_ok = vand_ok and v_ok, hadamard_ok and h_ok
    return {
        "lemma_residual": worst_lemma,
        "second_sum_residual": worst_second,
        "lemma_ok": worst_lemma <= SUM_TOL,
        "second_sum_ok": worst_second <= SECOND_SUM_TOL,
        "vandermonde_ok": vand_ok,
        "hadamard_ok": hadamard_ok,
    }
