"""Sharp-inequality checkers with equality detection.

Each checker returns an InequalityReport with lhs, rhs, slack and an
equality flag at an explicit tolerance.  Open-disk quantities such as
Diam f(D) are estimated by polynomial extrapolation of the functional
over radii approaching 1, with a quadratic-versus-cubic stability guard;
sampling alone cannot reach the open-disk sup.  The estimators, disk
values and report names of the growth checks come from functionals.KINDS.
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
    sample_circle,
    scale_spec,
    taylor_coefficients,
)
from .errors import DomainError, NormalizationError
from .functionals import (
    _area_by_method,
    _circle_max,
    disk_n_diameter,
    functional_kind,
    n_diameter,
    resolve_area_method,
)

DEFAULT_EQUALITY_TOL = 1e-6
# Radii used to extrapolate open-disk functionals to r = 1.
EXTRAPOLATION_RADII = (0.996, 0.997, 0.998, 0.999)
# Boundary samples per radius there and for the Schur bound, twice the
# estimators' default.
FINE_SAMPLES = 8192
# Relative disagreement between quadratic and cubic extrapolation that
# marks the estimate unstable.
EXTRAPOLATION_GUARD = 5e-3

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


def _neville_at_one(radii, values) -> float:
    xs = [1.0 - r for r in radii]
    table = list(values)
    k = len(table)
    for level in range(1, k):
        for i in range(k - level):
            table[i] = (xs[i + level] * table[i] - xs[i] * table[i + 1]) / (
                xs[i + level] - xs[i]
            )
    return float(table[0])


def disk_functional_estimate(spec: FunctionSpec, kind: str, n: int = 4):
    """Open-disk functional of f(D), extrapolated from radii near 1.

    Returns (value, abs_error).  The smooth boundary-driven kinds use cubic
    extrapolation over four radii with the quadratic comparison as a
    stability guard; area-based kinds (functionals.KINDS marks them) take
    the raster estimate at the largest radius, for cap the bracket midpoint.
    """
    fk = functional_kind(kind)
    radii = EXTRAPOLATION_RADII[-1:] if fk.uses_area else EXTRAPOLATION_RADII
    fvs = [fk.estimate(spec, r, n, m=FINE_SAMPLES) for r in radii]
    if fk.uses_area:
        return fvs[0].value, fvs[0].abs_error
    values = [fv.value for fv in fvs]
    cubic = _neville_at_one(EXTRAPOLATION_RADII, values)
    quad = _neville_at_one(EXTRAPOLATION_RADII[1:], values[1:])
    scale = max(abs(cubic), 1e-300)
    gap = abs(cubic - quad)
    if gap > EXTRAPOLATION_GUARD * scale:
        raise NormalizationError(
            f"open-disk {kind} extrapolation unstable: cubic {cubic:.6g} vs "
            f"quadratic {quad:.6g}"
        )
    err = gap + 3.0 * max(fv.abs_error for fv in fvs)
    return cubic, err


def normalize_spec(spec: FunctionSpec, kind: str = "diam", n: int = 4):
    """Rescale a coefficient-backed spec so its open-disk functional hits
    the disk value (Diam 2, Rad 1, and so on).  Returns the new spec."""
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

    Raises NormalizationError when the extrapolated unit-disk functional
    deviates from the disk value by more than one percent.
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
) -> InequalityReport:
    """Two-point bound |f(z) - f(0)| <= 2|z|/(1 + sqrt(1 - |z|^2)) for
    maps with Diam f(D) <= 2.

    The diameter precondition is checked by extrapolation unless a
    precomputed estimate is supplied.  Equality holds only for disk
    automorphism images at the single point z = 2b/(1 + |b|^2).
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("z must lie in the open unit disk")
    if diam_estimate is None:
        diam_estimate, diam_err = disk_functional_estimate(spec, "diam")
    else:
        diam_err = 0.0
    if diam_estimate > 2.0 + 0.01 * 2.0 + 3.0 * diam_err:
        raise NormalizationError(
            f"Diam f(D) estimate {diam_estimate:.6g} exceeds 2; rescale the spec"
        )
    lhs = abs(complex(evaluate(spec, z)) - complex(evaluate(spec, 0.0)))
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
) -> InequalityReport:
    """Symmetric two-point bound |f(z) - f(w)| <= Diam f(D) d/(1+sqrt(1-d^2))
    with d the pseudohyperbolic distance of z and w.

    The algebraically equivalent closed form with the sqrt((1-|z|^2)(1-|w|^2))
    denominator is evaluated as well; their gap is reported in the context.
    """
    z, w = complex(z), complex(w)
    if abs(z) >= 1.0 or abs(w) >= 1.0:
        raise DomainError("z and w must lie in the open unit disk")
    if diam_estimate is None:
        diam_estimate, _ = disk_functional_estimate(spec, "diam")
    lhs = abs(complex(evaluate(spec, z)) - complex(evaluate(spec, w)))
    denom = 1.0 - np.conj(w) * z
    delta = abs(z - w) / abs(denom)
    rhs = diam_estimate * delta / (1.0 + math.sqrt(max(1.0 - delta * delta, 0.0)))
    alt = (
        diam_estimate
        * abs(z - w)
        / (abs(denom) + math.sqrt(max((1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2), 0.0)))
    )
    context = {
        "z": [z.real, z.imag], "w": [w.real, w.imag],
        "diam_estimate": diam_estimate, "rhs_identity_gap": abs(rhs - alt),
    }
    return _make_report("Don", lhs, rhs, tol, context)


def check_poukka(
    spec: FunctionSpec, n: int, tol: float = DEFAULT_EQUALITY_TOL
) -> InequalityReport:
    """Coefficient bound |f^(n)(0)| / n! <= Diam f(D) / 2.

    Equality characterizes monomial-plus-constant maps f(0) + c z^n.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    coeff = taylor_coefficients(spec, n + 1)[n]
    diam_est, diam_err = disk_functional_estimate(spec, "diam")
    lhs = abs(coeff)
    rhs = 0.5 * diam_est
    context = {"n": n, "coeff": [coeff.real, coeff.imag], "diam_error": diam_err}
    return _make_report("Poukka", lhs, rhs, max(tol, 3.0 * diam_err), context)


def check_schur(
    spec: FunctionSpec, r: float, tol: float = DEFAULT_EQUALITY_TOL
) -> InequalityReport:
    """Second-order Schwarz bound for maps with sup |(f(z) - f(0))/z| <= 1:
    max over |z| <= r of |f(z) - f(0) - f'(0) z| against
    (1 - |f'(0)|^2) r^2 / (1 - |f'(0)| r), both sides on FINE_SAMPLES
    circle samples.
    """
    if not (0.0 < r < 1.0):
        raise DomainError("r must lie in (0, 1)")
    f0 = complex(evaluate(spec, 0.0))
    probe = sample_circle(spec, 0.999, FINE_SAMPLES)
    ratio = np.abs(probe.values - f0) / 0.999
    if float(np.max(ratio)) > 1.0 + max(tol, 1e-9):
        raise NormalizationError(
            f"sup |(f(z) - f(0))/z| is about {float(np.max(ratio)):.6g}, above 1"
        )
    a = complex(derivative(spec, 0.0))
    lhs, err, _ = _circle_max(spec, r, FINE_SAMPLES, f0, a)
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
    m: int = 4096,
    resolution: int = 512,
    seed: int = 0,
    area_method: str = "auto",
) -> list:
    """Capacity chain on the image set: Area <= pi Cap^2 <= pi (d_n / n^(1/(n-1)))^2.

    Returns the Polya report (against the capacity upper bound) and the
    n-diameter report, with estimator errors folded into each tolerance.
    """
    area_method = resolve_area_method(spec, r, area_method)
    a = _area_by_method(spec, r, area_method, resolution)
    dn = n_diameter(spec, r, n, m=m, seed=seed)
    norm = disk_n_diameter(n)
    cap_upper = dn.value / norm + dn.abs_error / norm
    rhs_polya = np.pi * cap_upper * cap_upper
    rhs_dn = np.pi * (dn.value / norm) ** 2
    rhs_err = 2.0 * np.pi * (dn.value / norm) * (dn.abs_error / norm)
    context = {"r": r, "n": n, "area_method": area_method, "area_error": a.abs_error}
    polya = _make_report(
        "Polya", a.value, rhs_polya, max(tol, 3.0 * (a.abs_error + rhs_err)), dict(context)
    )
    areadn = _make_report(
        "AreaDn", a.value, rhs_dn, max(tol, 3.0 * (a.abs_error + rhs_err)), dict(context)
    )
    return [polya, areadn]
