"""Hyperbolic density and distance on the disk and on covered regions.

The density convention is rho(z) = 1/(1 - |z|^2); region densities are
pulled back through a covering spec via rho_region(f(z)) |f'(z)| = rho(z),
so no standalone region geometry is ever needed.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .analytic import FunctionSpec, derivative, evaluate
from .bounds import InequalityReport, _make_report
from .errors import CriticalPointError, DomainError
from .functionals import _boundary_curve, area
from .growth import GrowthCurve, phi_curve

# Radius standing in for the open unit disk when a region area is needed.
REGION_RADIUS = 0.999


def density_disk(z: complex) -> float:
    """Hyperbolic density 1/(1 - |z|^2) of the unit disk."""
    z = complex(z)
    if not abs(z) < 1.0:
        raise DomainError("z must lie in the open unit disk")
    return 1.0 / (1.0 - abs(z) ** 2)


def hyp_distance_disk(z: complex, w: complex) -> float:
    """Hyperbolic distance atanh |(z - w) / (1 - conj(w) z)|."""
    z, w = complex(z), complex(w)
    if not (abs(z) < 1.0 and abs(w) < 1.0):
        raise DomainError("both points must lie in the open unit disk")
    num = abs(z - w)
    den = abs(1.0 - w.conjugate() * z)
    ratio = num / den
    if ratio >= 1.0:
        ratio = math.nextafter(1.0, 0.0)
    return math.atanh(ratio)


def density_via_cover(spec: FunctionSpec, z: complex) -> float:
    """Density of the covered region at f(z): density_disk(z) / |f'(z)|.

    Valid when the spec is a holomorphic covering of its image (disk
    automorphisms, univalent maps, the annulus covering); the caller
    asserts that property.
    """
    z = complex(z)
    if not abs(z) < 1.0:
        raise DomainError("z must lie in the open unit disk")
    fp = abs(complex(derivative(spec, z)))
    if fp == 0.0:
        raise CriticalPointError(f"f'({z}) = 0")
    return density_disk(z) / fp


def check_density_lower_bound(
    spec: FunctionSpec,
    z: complex,
    resolution: int = 1024,
    tol: float = 1e-9,
) -> InequalityReport:
    """Density lower bound rho(w) >= sqrt(pi / Area) for the covered
    region, with the area of f(r D) at r = REGION_RADIUS."""
    lhs = density_via_cover(spec, z)
    a = area(spec, REGION_RADIUS, resolution=resolution)
    if a.value <= 0.0:
        raise DomainError("region area estimate is not positive")
    rhs = math.sqrt(math.pi / a.value)
    rhs_err = rhs * a.abs_error / (2.0 * a.value)
    w = complex(evaluate(spec, z))
    context = {
        "w": [w.real, w.imag], "area": a.value, "area_error": a.abs_error,
        "rhs_error": rhs_err, "direction": "lhs >= rhs",
    }
    return _make_report("DensityLower", lhs, rhs, max(tol, 3.0 * rhs_err), context, reverse=True)


def dist_to_boundary(spec: FunctionSpec, w: complex, resolution: int = 512):
    """Distance from w to the boundary polyline f(r T) at r = REGION_RADIUS,
    refined as area refines it at this resolution, both on f - f(0).

    Returns (distance, cell_diagonal); the diagonal of a cell of area's
    box is the resolution granularity and the natural tolerance for
    comparisons.
    """
    centered, _, offset = spec._centring
    w = complex(w) - offset
    _, values, (_, _, cell_w, cell_h) = _boundary_curve(centered, REGION_RADIUS, resolution)
    step = np.roll(values, -1) - values
    length2 = np.abs(step) ** 2
    along = np.real((w - values) * np.conj(step)) / np.where(length2 > 0.0, length2, 1.0)
    dist = float(np.min(np.abs(values + np.clip(along, 0.0, 1.0) * step - w)))
    return dist, math.hypot(cell_w, cell_h)


def hyperbolic_disk_growth(
    spec: FunctionSpec,
    R_grid: Optional[Sequence[float]] = None,
    **knobs,
) -> GrowthCurve:
    """Normalized area of hyperbolic disks around f(0) in the covered
    region: Area D(f(0), R) / (pi tanh^2 R), reparameterized from the
    Euclidean curve via r = tanh R.

    The caller pre-composes an automorphism when the center should move.
    """
    if R_grid is None:
        r_values = np.geomspace(0.05, 0.95, 17)
        R_values = np.arctanh(r_values)
    else:
        R_values = np.asarray(R_grid, dtype=float)
        if np.any(R_values <= 0.0):
            raise DomainError("hyperbolic radii must be positive")
        r_values = np.tanh(R_values)
    inner = phi_curve(spec, "area", r_grid=r_values, **knobs)
    return replace(
        inner,
        r_grid=tuple(float(R) for R in R_values),
        normalization="pi tanh(R)^2",
        flags=inner.flags + ("hyperbolic_R_grid",),
    )
