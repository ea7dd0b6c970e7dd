"""Normalized growth curves phi(r) and their discrete-grid verdicts.

Each functional F of the image f(r D) is divided by its value for the
identity map (F of r D itself, the normalizer functionals.KINDS holds
next to F's estimator), giving a curve that is constant exactly
for linear f, increasing otherwise, and log-convex in log r for the
radius, n-diameter, and capacity families.  Verdict tolerances are
coupled to the propagated estimator errors, never absolute constants.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analytic import (
    FunctionSpec,
    derivative,
    spec_hash,
)
from .errors import DomainError, GridError
from .functionals import FunctionalValue, functional_kind, resolve_area_method

DEFAULT_GRID_POINTS = 17
DEFAULT_GRID_RANGE = (0.05, 0.95)
# Relative allowance when comparing phi(1e-3) with the analytic r->0 limit.
LIMIT_REL_TOL = 0.01
LIMIT_RADIUS = 1e-3


def default_grid(
    points: int = DEFAULT_GRID_POINTS,
    r_min: float = DEFAULT_GRID_RANGE[0],
    r_max: float = DEFAULT_GRID_RANGE[1],
) -> np.ndarray:
    """Geometric grid in (0, 1); log-uniform so convexity checks are
    plain second-difference tests."""
    if not (0.0 < r_min < r_max < 1.0):
        raise DomainError("grid range must satisfy 0 < r_min < r_max < 1")
    if points < 3:
        raise DomainError("need at least 3 grid points")
    return np.geomspace(r_min, r_max, points)


@dataclass(frozen=True)
class MonotoneVerdict:
    ok: bool
    strict: bool
    first_violation: Optional[int]
    min_forward_diff: float
    tol: float


@dataclass(frozen=True)
class ConvexVerdict:
    ok: bool
    worst_second_diff: float
    worst_index: Optional[int]
    loglog_applicable: bool
    loglog_ok: Optional[bool]
    loglog_worst: Optional[float]
    tol: float


@dataclass(frozen=True)
class GrowthCurve:
    """phi values over a radius grid with errors and convexity verdicts."""

    kind: str
    r_grid: tuple
    phi: tuple
    abs_errors: tuple
    normalization: str
    spec_hash: str
    verdicts: dict
    n: Optional[int] = None
    flags: tuple = ()


@dataclass(frozen=True)
class LimitCheck:
    kind: str
    value: float
    target: float
    abs_diff: float
    tol: float
    ok: bool


def phi_curve(
    spec: FunctionSpec,
    kind: str,
    r_grid: Optional[Sequence[float]] = None,
    *,
    n: int = 4,
    area_method: str = "auto",
    jobs: int = 1,
    **knobs,
) -> GrowthCurve:
    """Normalized growth curve of one functional kind (a key of
    functionals.KINDS) over a radius grid.  knobs are the other estimator
    settings of FunctionalKind.estimate (m, resolution, seed).

    area_method "auto" is resolved once, at the largest grid radius, by
    resolve_area_method: the exact coefficient series when the spec is
    coefficient-backed and injective on that disk, otherwise the raster.
    The capacity curve takes the bracket's upper endpoint as its value, so
    its verdicts test the estimator, not the true capacity; the curve
    carries a cap_upper_estimate flag as a reminder.
    """
    fk = functional_kind(kind)
    grid = default_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    if grid.size < 3 or np.any(np.diff(grid) <= 0.0):
        raise DomainError("r_grid must be strictly increasing with >= 3 points")
    if grid[0] <= 0.0 or grid[-1] >= 1.0:
        raise DomainError("r_grid must lie inside (0, 1)")

    flags: tuple = ()
    if fk.uses_area and area_method == "auto":
        area_method = resolve_area_method(spec, float(grid[-1]), area_method)
        flags = flags + (f"area_method={area_method}",)
    if fk.upper_endpoint:
        flags = flags + ("cap_upper_estimate",)

    def _point(r: float) -> FunctionalValue:
        return fk.estimate(spec, r, n, area_method=area_method, **knobs)

    # Points are independent; results are assembled in grid order, so the
    # output is identical for any job count.
    radii = [float(r) for r in grid]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            values = list(pool.map(_point, radii))
    else:
        values = [_point(r) for r in radii]

    phi = np.empty(grid.size)
    errs = np.empty(grid.size)
    for i, (r, fv) in enumerate(zip(radii, values)):
        norm = fk.norm(r, n)
        phi[i] = fk.curve_value(fv) / norm
        errs[i] = fv.abs_error / norm

    curve = GrowthCurve(
        kind=kind,
        r_grid=tuple(float(r) for r in grid),
        phi=tuple(float(p) for p in phi),
        abs_errors=tuple(float(e) for e in errs),
        normalization=fk.normalization,
        spec_hash=spec_hash(spec),
        verdicts={},
        n=values[0].n,
        flags=flags,
    )
    tol_mono = 3.0 * float(np.max(errs[:-1] + errs[1:]))
    mono = check_monotone(curve, tol_mono)
    verdicts = {
        "monotone": {
            "ok": mono.ok,
            "strict": mono.strict,
            "min_forward_diff": mono.min_forward_diff,
            "tol": mono.tol,
        }
    }
    log_uniform = _log_spacing_uniform(grid)
    if log_uniform and np.all(phi > 0.0):
        rel = errs / phi
        tol_conv = 3.0 * float(np.max(rel[:-2] + 2.0 * rel[1:-1] + rel[2:]))
        conv = check_log_convex(curve, tol_conv)
        verdicts["log_convex"] = {
            "ok": conv.ok,
            "worst_second_diff": conv.worst_second_diff,
            "tol": conv.tol,
        }
        verdicts["loglog_convex"] = {
            "applicable": conv.loglog_applicable,
            "ok": conv.loglog_ok,
            "worst_second_diff": conv.loglog_worst,
        }
    elif np.all(phi == 0.0):
        verdicts["log_convex"] = {"ok": True, "worst_second_diff": 0.0, "tol": 0.0}
        verdicts["loglog_convex"] = {"applicable": False, "ok": None, "worst_second_diff": None}
    curve.verdicts.update(verdicts)
    return curve


def _log_spacing_uniform(grid: np.ndarray, rel_tol: float = 1e-9) -> bool:
    steps = np.diff(np.log(grid))
    return bool(np.max(np.abs(steps - steps[0])) <= rel_tol * abs(steps[0]))


def check_monotone(curve: GrowthCurve, tol: float) -> MonotoneVerdict:
    """Non-decreasing within tol; strict when every forward step beats tol."""
    phi = np.asarray(curve.phi)
    diffs = np.diff(phi)
    ok = bool(np.all(diffs >= -tol))
    first = None
    if not ok:
        first = int(np.nonzero(diffs < -tol)[0][0])
    strict = bool(np.all(diffs > tol))
    return MonotoneVerdict(
        ok=ok, strict=strict, first_violation=first,
        min_forward_diff=float(np.min(diffs)), tol=tol,
    )


def check_log_convex(curve: GrowthCurve, tol: float) -> ConvexVerdict:
    """Second differences of log phi against log r are >= -tol.

    Requires a geometric grid (uniform log spacing within 1e-9), which
    turns convexity in log r into a plain second-difference sign test.
    Also reports convexity of log log phi when phi > 1 throughout.
    """
    grid = np.asarray(curve.r_grid)
    if not _log_spacing_uniform(grid):
        raise GridError("log-convexity check needs a geometric radius grid")
    phi = np.asarray(curve.phi)
    if np.any(phi <= 0.0):
        if np.all(phi == 0.0):
            return ConvexVerdict(True, 0.0, None, False, None, None, tol)
        raise DomainError("phi must be positive for log-convexity checks")
    logphi = np.log(phi)
    second = logphi[2:] - 2.0 * logphi[1:-1] + logphi[:-2]
    worst_idx = int(np.argmin(second)) + 1
    worst = float(np.min(second))
    ok = bool(worst >= -tol)
    loglog_applicable = bool(np.all(phi > 1.0))
    loglog_ok = None
    loglog_worst = None
    if loglog_applicable:
        ll = np.log(logphi)
        second_ll = ll[2:] - 2.0 * ll[1:-1] + ll[:-2]
        loglog_worst = float(np.min(second_ll))
        loglog_ok = bool(loglog_worst >= -tol)
    return ConvexVerdict(
        ok=ok, worst_second_diff=worst, worst_index=worst_idx,
        loglog_applicable=loglog_applicable, loglog_ok=loglog_ok,
        loglog_worst=loglog_worst, tol=tol,
    )


def limit_at_zero(spec: FunctionSpec, kind: str, **knobs) -> LimitCheck:
    """phi at r = 1e-3 against the analytic limit |f'(0)| (its square for
    area).  The comparison allows one percent relative slack to absorb
    the genuine O(r) deviation at the probe radius.  knobs are the
    estimator settings of FunctionalKind.estimate; area_method defaults to
    "auto"."""
    fk = functional_kind(kind)
    target = abs(complex(derivative(spec, 0.0)))
    if fk.squared:
        target = target * target
    r = LIMIT_RADIUS
    knobs = {"area_method": "auto", **knobs}
    fv = fk.estimate(spec, r, **knobs)
    norm = fk.norm(r, knobs.get("n", 4))
    value = fk.curve_value(fv) / norm
    tol = LIMIT_REL_TOL * (1.0 + abs(target)) + 3.0 * fv.abs_error / norm
    diff = abs(value - target)
    return LimitCheck(kind=kind, value=value, target=target, abs_diff=diff, tol=tol,
                      ok=bool(diff <= tol))


def write_curve_csv(curve: GrowthCurve, path_or_file) -> None:
    """Serialize a curve to CSV with columns r, phi, abs_error."""

    def _write(handle) -> None:
        writer = csv.writer(handle)
        writer.writerow([f"kind={curve.kind}", f"spec={curve.spec_hash}"])
        writer.writerow(["r", "phi", "abs_error"])
        for r, p, e in zip(curve.r_grid, curve.phi, curve.abs_errors):
            writer.writerow([f"{r:.17g}", f"{p:.17g}", f"{e:.17g}"])

    if isinstance(path_or_file, (str, bytes)) or hasattr(path_or_file, "__fspath__"):
        with open(path_or_file, "w", newline="") as handle:
            _write(handle)
    else:
        _write(path_or_file)
