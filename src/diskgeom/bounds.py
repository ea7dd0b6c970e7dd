"""Sharp-inequality checkers with equality detection.

Each checker returns an InequalityReport with lhs, rhs, slack and an
equality flag at an explicit tolerance.  Open-disk quantities such as
Diam f(D) are read on the unit circle: a map analytic on the closed disk
(spec.closed_disk) has the same sup-type functionals and area on D as on
its closure.  The estimators, disk values and report names of the growth
checks come from functionals.KINDS.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analytic import (
    FunctionSpec,
    derivative,
    evaluate,
    scale_spec,
    taylor_coefficients,
)
from .errors import DomainError, NormalizationError
from .functionals import (
    DEFAULT_RESOLUTION,
    DEFAULT_SAMPLES,
    _circle_max,
    disk_n_diameter,
    functional_kind,
    n_diameter,
)

DEFAULT_EQUALITY_TOL = 1e-6
# Boundary samples of the open-disk functionals and of the Schur bound,
# twice the estimators' default.
FINE_SAMPLES = 8192

@dataclass(frozen=True)
class InequalityReport:
    """One inequality instance: passes when slack >= -tol."""

    name: str
    lhs: float
    rhs: float
    slack: float
    equality: bool
    tol: float
    context: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tol


def report_to_json(report: InequalityReport) -> str:
    payload = {
        "name": report.name,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "slack": report.slack,
        "equality": report.equality,
        "context": dict(report.context, tol=report.tol),
    }
    return json.dumps(payload, sort_keys=True)


def _make_report(
    name: str, lhs: float, rhs: float, tol: float, context: dict, reverse: bool = False
) -> InequalityReport:
    """Report on lhs <= rhs, or on lhs >= rhs when reverse is set."""
    slack = lhs - rhs if reverse else rhs - lhs
    return InequalityReport(
        name=name, lhs=float(lhs), rhs=float(rhs), slack=float(slack),
        equality=bool(abs(slack) <= tol), tol=float(tol), context=context,
    )


def disk_functional_estimate(spec: FunctionSpec, kind: str, n: int = 4):
    """Open-disk functional of f(D), read on the unit circle.

    Returns (value, abs_error) of the kind's estimate at r = 1 on
    FINE_SAMPLES samples, for cap the bracket midpoint.  NormalizationError
    for a map analytic on the open disk only, such as the annulus cover.
    """
    if not spec.closed_disk:
        raise NormalizationError(f"{spec.kind} is not analytic on the closed disk")
    fv = functional_kind(kind).estimate(spec, 1.0, n, m=FINE_SAMPLES)
    return fv.value, fv.abs_error


def normalize_spec(spec: FunctionSpec, kind: str = "diam", n: int = 4):
    """Rescale a coefficient-backed spec so its open-disk functional, read
    on the unit circle, hits the disk value (Diam 2, Rad 1, and so on)."""
    fk = functional_kind(kind)
    value, _ = disk_functional_estimate(spec, kind, n=n)
    if value <= 0.0:
        raise DomainError("cannot normalize a degenerate spec")
    factor = fk.norm(1.0, n) / value
    return scale_spec(spec, math.sqrt(factor) if fk.squared else factor)


def check_growth(
    spec: FunctionSpec, r: float, kind: str, tol: float = DEFAULT_EQUALITY_TOL, n: int = 4
) -> InequalityReport:
    """Schwarz-type growth inequality: functional of f(r D) against its
    value on r D, for specs normalized to the unit-disk value.

    Raises NormalizationError when the unit-disk functional, read on the
    unit circle, deviates from the disk value by more than one percent.
    """
    fk = functional_kind(kind)
    disk_target = fk.norm(1.0, n)
    est, est_err = disk_functional_estimate(spec, kind, n=n)
    if abs(est - disk_target) > 0.01 * disk_target + 3.0 * est_err:
        raise NormalizationError(
            f"unit-disk {kind} is {est:.6g}, expected {disk_target:.6g}; "
            "rescale the spec first"
        )
    fv = fk.estimate(spec, r, n)
    context = {
        "kind": kind, "r": r, "disk_estimate": est, "estimate_error": fv.abs_error,
    }
    return _make_report(fk.report, fv.value, fk.norm(r, n), max(tol, 3.0 * fv.abs_error), context)


# ---- pointwise sharp bounds ----


def check_don(
    spec: FunctionSpec,
    z: complex,
    tol: float = DEFAULT_EQUALITY_TOL,
    diam_estimate: Optional[float] = None,
    diam_error: float = 0.0,
) -> InequalityReport:
    """Two-point bound |f(z) - f(0)| <= 2|z|/(1 + sqrt(1 - |z|^2)) for
    maps with Diam f(D) <= 2.

    The diameter precondition is checked on the unit circle unless a
    precomputed estimate is supplied with its error, within 3 times that
    error.  Equality holds only for disk automorphism images at the single
    point z = 2b/(1 + |b|^2).
    """
    z = complex(z)
    if not abs(z) < 1.0:
        raise DomainError("z must lie in the open unit disk")
    if diam_estimate is None:
        diam_estimate, diam_error = disk_functional_estimate(spec, "diam")
    if diam_estimate > 2.0 + 0.01 * 2.0 + 3.0 * diam_error:
        raise NormalizationError(
            f"Diam f(D) estimate {diam_estimate:.6g} exceeds 2; rescale the spec"
        )
    centered, origin, _ = spec._centring
    lhs = abs(complex(evaluate(centered, z)) - origin)
    az = abs(z)
    rhs = 2.0 * az / (1.0 + math.sqrt(1.0 - az * az))
    context = {"z": [z.real, z.imag], "diam_estimate": diam_estimate}
    return _make_report("Don", lhs, rhs, tol, context)


def check_don_symmetric(
    spec: FunctionSpec,
    z: complex,
    w: complex,
    tol: float = DEFAULT_EQUALITY_TOL,
    diam_estimate: Optional[float] = None,
    diam_error: float = 0.0,
) -> InequalityReport:
    """Symmetric two-point bound |f(z) - f(w)| <= Diam f(D) d/(1+sqrt(1-d^2))
    with d the pseudohyperbolic distance of z and w.

    The lhs is read on f - f(0) (spec._centring), so a translation of f
    moves it by no bit.  The algebraically equivalent closed form with the
    sqrt((1-|z|^2)(1-|w|^2)) denominator is evaluated as well; their gap is
    reported in the context.
    The tolerance is at least three times the rhs's share of the estimated
    diameter's error, d/(1+sqrt(1-d^2)) times it; a supplied diam_estimate
    has the error diam_error.
    """
    z, w = complex(z), complex(w)
    if not (abs(z) < 1.0 and abs(w) < 1.0):
        raise DomainError("z and w must lie in the open unit disk")
    if diam_estimate is None:
        diam_estimate, diam_error = disk_functional_estimate(spec, "diam")
    centered = spec._centring[0]
    lhs = abs(complex(evaluate(centered, z)) - complex(evaluate(centered, w)))
    denom = 1.0 - np.conj(w) * z
    delta = abs(z - w) / abs(denom)
    root = 1.0 + math.sqrt(max(1.0 - delta * delta, 0.0))
    rhs = diam_estimate * delta / root
    alt = (
        diam_estimate
        * abs(z - w)
        / (abs(denom) + math.sqrt(max((1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2), 0.0)))
    )
    context = {
        "z": [z.real, z.imag], "w": [w.real, w.imag],
        "diam_estimate": diam_estimate, "rhs_identity_gap": abs(rhs - alt),
    }
    return _make_report("Don", lhs, rhs, max(tol, 3.0 * delta / root * diam_error), context)


def check_poukka(
    spec: FunctionSpec,
    n: int,
    tol: float = DEFAULT_EQUALITY_TOL,
    diam_estimate: Optional[float] = None,
    diam_error: float = 0.0,
) -> InequalityReport:
    """Coefficient bound |f^(n)(0)| / n! <= Diam f(D) / 2.

    Diam f(D) is estimated on the unit circle unless supplied with its
    error, as check_don takes it.  Equality characterizes
    monomial-plus-constant maps f(0) + c z^n.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    coeff = taylor_coefficients(spec, n + 1)[n]
    if diam_estimate is None:
        diam_estimate, diam_error = disk_functional_estimate(spec, "diam")
    lhs = abs(coeff)
    rhs = 0.5 * diam_estimate
    context = {"n": n, "coeff": [coeff.real, coeff.imag], "diam_error": diam_error}
    return _make_report("Poukka", lhs, rhs, max(tol, 3.0 * diam_error), context)


def check_schur(
    spec: FunctionSpec, r: float, tol: float = DEFAULT_EQUALITY_TOL
) -> InequalityReport:
    """Second-order Schwarz bound for maps with sup |(f(z) - f(0))/z| <= 1:
    max over |z| <= r of |f(z) - f(0) - f'(0) z| against
    (1 - |f'(0)|^2) r^2 / (1 - |f'(0)| r), both sides on FINE_SAMPLES
    circle samples.  By the maximum principle the sup is Rad f(D), which
    disk_functional_estimate reads on the unit circle.
    """
    if not (0.0 < r < 1.0):
        raise DomainError("r must lie in (0, 1)")
    sup, _ = disk_functional_estimate(spec, "rad")
    if sup > 1.0 + max(tol, 1e-9):
        raise NormalizationError(f"sup |(f(z) - f(0))/z| is about {sup:.6g}, above 1")
    a = complex(derivative(spec, 0.0))
    lhs, err, _ = _circle_max(spec, r, FINE_SAMPLES, a)
    rhs = (1.0 - abs(a) ** 2) * r * r / (1.0 - abs(a) * r)
    context = {"r": r, "fprime0": [a.real, a.imag], "lhs_error": err}
    return _make_report("Schur", lhs, rhs, max(tol, 3.0 * err), context)


def check_isoperimetric(
    area_value: float, length_value: float, tol: float = DEFAULT_EQUALITY_TOL
) -> InequalityReport:
    """Classical isoperimetric inequality 4 pi Area <= Length^2."""
    lhs = 4.0 * np.pi * area_value
    rhs = length_value * length_value
    return _make_report("Isoperimetric", lhs, rhs, tol, {})


def check_polya_chain(
    spec: FunctionSpec,
    r: float,
    n: int = 4,
    tol: float = DEFAULT_EQUALITY_TOL,
    m: int = DEFAULT_SAMPLES,
    resolution: int = DEFAULT_RESOLUTION,
    seed: int = 0,
    area_method: str = "auto",
) -> list:
    """Capacity chain on the image set: Area <= pi Cap^2 <= pi (d_n / n^(1/(n-1)))^2.

    Returns the Polya report (against the capacity upper bound) and the
    n-diameter report, with estimator errors folded into each tolerance;
    the context names the method of KINDS["area"] that read the area.
    """
    a = functional_kind("area").estimate(spec, r, resolution=resolution, area_method=area_method)
    dn = n_diameter(spec, r, n, m=m, seed=seed)
    norm = disk_n_diameter(n)
    cap_upper = dn.value / norm + dn.abs_error / norm
    rhs_polya = np.pi * cap_upper * cap_upper
    rhs_dn = np.pi * (dn.value / norm) ** 2
    rhs_err = 2.0 * np.pi * (dn.value / norm) * (dn.abs_error / norm)
    context = {"r": r, "n": n, "area_method": a.method, "area_error": a.abs_error}
    polya = _make_report(
        "Polya", a.value, rhs_polya, max(tol, 3.0 * (a.abs_error + rhs_err)), dict(context)
    )
    areadn = _make_report(
        "AreaDn", a.value, rhs_dn, max(tol, 3.0 * (a.abs_error + rhs_err)), dict(context)
    )
    return [polya, areadn]
