"""Geometric functionals of the image set f(r D).

Estimators: radius and diameter from boundary samples (max-modulus
arguments put every extreme point on the image of the circle), the
n-point diameter by multi-start exchange optimization, perimeter by
quadrature of |f'| over the circle, and a two-sided capacity bracket.
KINDS holds, for each functional kind, its estimator call and normalizer;
growth curves, growth checks and the CLI all read them from there.

Set area and univalence share one mechanism, the refined boundary curve
f(r T) and the argument principle: the winding number of f(r T) around w
counts the preimages of w in r D, so the set area is the area where it is
positive, and f is injective on r D exactly when f' has no zeros there and
f(r T) is a simple curve (Darboux-Picard).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from ._series import series_derivative, series_sqrt
from .analytic import FunctionSpec, derivative, evaluate, sample_circle, second_derivative
from .errors import (
    DomainError,
    OptimizationWarning,
    ResourceError,
    UnivalenceError,
    UnsupportedError,
)
from .quadrature import integrate

DEFAULT_SAMPLES = 4096
DEFAULT_RESOLUTION = 1024
DEFAULT_RESTARTS = 8
# Most boundary samples that one refinement of f(r T) may evaluate.
SAMPLE_CAP = 2**24
# Absolute and relative quadrature tolerance of the curve length of f(r T).
LENGTH_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class FunctionalValue:
    """One functional estimate with an absolute error estimate and witness."""

    kind: str
    value: float
    abs_error: float
    witness: Optional[tuple] = None
    interval: Optional[tuple] = None
    n: Optional[int] = None
    flags: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class UnivalenceResult:
    """Injectivity verdict on a closed disk.

    A false verdict carries a witness: a critical point as (z, z), or two
    boundary points (z1, z2) with f(z1) = f(z2).
    """

    ok: bool
    witness: Optional[tuple] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def disk_n_diameter(n: int) -> float:
    """n-point diameter of the unit disk: n^(1/(n-1))."""
    if n < 2:
        raise DomainError("n must be >= 2")
    return float(n) ** (1.0 / (n - 1))


def _is_constant(w: np.ndarray) -> bool:
    """Whether the samples w of f agree to rounding, relative to their size:
    the image is then a single point."""
    return float(np.max(np.abs(w - w[0]))) < 1e-14 * (1.0 + abs(w[0]))


# ---- radius ----


def _curvature(spec: FunctionSpec, r: float, zs: np.ndarray, slope: complex, value: float) -> float:
    """Bound on the angular second derivative of |f(z) - slope z| along
    |z| = r at a maximum of size value, from samples at the points zs."""
    m1 = float(np.max(np.abs(derivative(spec, zs) - slope)))
    m2 = float(np.max(np.abs(second_derivative(spec, zs))))
    return r * r * m2 + r * m1 + (r * m1) ** 2 / max(value, 1e-300)


def _circle_max(spec: FunctionSpec, r: float, m: int, shift: complex, slope: complex = 0.0):
    """Max of |f(z) - shift - slope z| on |z| = r from m samples.

    The grid max is refined by a parabolic step around the best sample;
    the error estimate is the second-order bound for a stationary maximum
    sampled at spacing 2 pi / m.  Returns (value, abs_error, f at the max).
    """
    sample = sample_circle(spec, r, m)
    zs = r * np.exp(1j * sample.angles)
    g = np.abs(sample.values - shift - slope * zs)
    k = int(np.argmax(g))
    value = float(g[k])
    witness = complex(sample.values[k])
    dtheta = 2.0 * np.pi / m
    gm, gp = g[(k - 1) % m], g[(k + 1) % m]
    denom = gm - 2.0 * g[k] + gp
    if denom < 0.0:
        step = 0.5 * (gm - gp) / denom * dtheta
        if abs(step) <= dtheta:
            zr = r * np.exp(1j * (sample.angles[k] + step))
            fr = complex(evaluate(spec, zr))
            cand = abs(fr - shift - slope * zr)
            if cand > value:
                value, witness = cand, fr
    curv = _curvature(spec, r, zs, slope, value)
    err = 0.125 * curv * dtheta * dtheta + 1e-14 * (1.0 + value)
    return value, err, witness


def radius(spec: FunctionSpec, r: float, m: int = DEFAULT_SAMPLES) -> FunctionalValue:
    """sup |f(z) - f(0)| over r D, estimated on m circle samples.

    The sup equals the max over |z| = r by the maximum principle, which
    _circle_max estimates with its second-order error bound.
    """
    value, err, witness = _circle_max(spec, r, m, evaluate(spec, 0.0))
    return FunctionalValue(kind="rad", value=value, abs_error=err, witness=(witness,))


# ---- diameter: convex hull + rotating calipers ----


def _cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Indices of the convex hull of complex points, counterclockwise."""
    from scipy.spatial import ConvexHull, QhullError

    pts = np.column_stack([points.real, points.imag])
    try:
        hull = ConvexHull(pts)
        return hull.vertices
    except QhullError:
        # Collinear or otherwise degenerate: extreme points of the
        # principal direction suffice for diameter purposes.
        centered = points - points.mean()
        direction = centered[np.argmax(np.abs(centered))]
        if abs(direction) == 0.0:
            return np.array([0])
        proj = (centered / direction).real
        return np.unique([int(np.argmin(proj)), int(np.argmax(proj))])


def _calipers(points: np.ndarray, hull_idx: np.ndarray):
    """Farthest pair of hull vertices by rotating calipers; returns (d, i, j)."""
    h = points[hull_idx]
    nh = h.shape[0]
    if nh == 1:
        return 0.0, hull_idx[0], hull_idx[0]
    if nh == 2:
        return float(abs(h[0] - h[1])), hull_idx[0], hull_idx[1]
    best = -1.0
    bi = bj = 0
    j = 1
    for i in range(nh):
        ni = (i + 1) % nh
        edge = h[ni] - h[i]
        while True:
            nj = (j + 1) % nh
            if _cross(edge, h[nj] - h[j]) > 0.0:
                j = nj
            else:
                break
        for a, b in ((i, j), (ni, j)):
            d = abs(h[a] - h[b])
            if d > best:
                best, bi, bj = d, a, b
    return float(best), hull_idx[bi], hull_idx[bj]


def diameter(spec: FunctionSpec, r: float, m: int = DEFAULT_SAMPLES) -> FunctionalValue:
    """Diameter of f(r D) via convex hull and rotating calipers.

    A local continuous maximization over the two boundary angles then
    removes most of the angular discretization error; the reported error
    keeps the conservative second-order grid bound.
    """
    sample = sample_circle(spec, r, m)
    w = sample.values
    if _is_constant(w):
        return FunctionalValue(
            kind="diam", value=0.0, abs_error=0.0, witness=(complex(w[0]),), flags=("degenerate",)
        )
    hull_idx = convex_hull(w)
    value, i, j = _calipers(w, hull_idx)
    wi, wj = complex(w[i]), complex(w[j])

    def neg_dist(t):
        p = evaluate(spec, r * np.exp(1j * t[0]))
        q = evaluate(spec, r * np.exp(1j * t[1]))
        return -abs(p - q)

    res = minimize(
        neg_dist,
        np.array([sample.angles[i], sample.angles[j]]),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 600},
    )
    if -res.fun > value:
        value = float(-res.fun)
        wi = complex(evaluate(spec, r * np.exp(1j * res.x[0])))
        wj = complex(evaluate(spec, r * np.exp(1j * res.x[1])))
    curv = _curvature(spec, r, r * np.exp(1j * sample.angles), 0.0, value)
    dtheta = 2.0 * np.pi / m
    err = 0.5 * curv * dtheta * dtheta + 1e-13 * (1.0 + value)
    return FunctionalValue(kind="diam", value=value, abs_error=err, witness=(wi, wj))


# ---- n-point diameter ----


def _log_objective(w: np.ndarray, idx: np.ndarray) -> float:
    pts = w[idx]
    diff = np.abs(pts[:, None] - pts[None, :])
    iu = np.triu_indices(len(idx), k=1)
    d = diff[iu]
    if np.any(d == 0.0):
        return -np.inf
    return float(np.sum(np.log(d)))


def _polish_tuple(spec: FunctionSpec, r: float, angles0: np.ndarray):
    """Continuous ascent of the pairwise log-distance sum over tuple angles.

    Coordinate exchange on grid samples stalls along the near-degenerate
    rotational direction; a joint quasi-Newton step with the analytic
    gradient resolves it.  Returns (log objective, image points).
    """
    n = angles0.size

    def neg_obj(theta):
        z = r * np.exp(1j * theta)
        w = evaluate(spec, z)
        dw = derivative(spec, z) * 1j * z
        diff = w[:, None] - w[None, :]
        ad = np.abs(diff)
        iu = np.triu_indices(n, k=1)
        if np.any(ad[iu] <= 0.0):
            return np.inf, np.zeros(n)
        s = float(np.sum(np.log(ad[iu])))
        inv = 1.0 / (ad * ad + np.eye(n))
        np.fill_diagonal(inv, 0.0)
        grad = np.sum(np.real(dw[:, None] * np.conj(diff)) * inv, axis=1)
        return -s, -grad

    res = minimize(
        neg_obj, angles0, jac=True, method="L-BFGS-B",
        options={"maxiter": 300, "ftol": 1e-16, "gtol": 1e-13},
    )
    theta = res.x if np.isfinite(res.fun) else angles0
    w = evaluate(spec, r * np.exp(1j * theta))
    return _log_objective(w, np.arange(n)), w


def n_diameter(
    spec: FunctionSpec,
    r: float,
    n: int,
    m: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> FunctionalValue:
    """n-point diameter of f(r D): sup over n-tuples of the normalized
    pairwise-distance product, estimated over boundary samples.

    Coordinate-exchange ascent in the log domain with DEFAULT_RESTARTS
    deterministic starts.  Extremal tuples lie on the outer boundary, so
    sampling f(r T) loses only the angular discretization.  For n = 2 this is the
    diameter and delegates to the caliper estimator.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    if n == 2:
        return replace(diameter(spec, r, m=m), kind="ndiam", n=2)
    sample = sample_circle(spec, r, m)
    w = sample.values
    if _is_constant(w):
        return FunctionalValue(
            kind="ndiam", value=0.0, abs_error=0.0, witness=(complex(w[0]),) * n, n=n,
            flags=("degenerate",),
        )
    rng = np.random.default_rng([seed, n, m, int(r * 1e9)])
    starts = []
    base = np.round(np.arange(n) * m / n).astype(int) % m
    for k in range(min(4, DEFAULT_RESTARTS)):
        starts.append((base + (k * m) // (4 * n)) % m)
    while len(starts) < DEFAULT_RESTARTS:
        starts.append(rng.choice(m, size=n, replace=False))

    pair_count = n * (n - 1) / 2.0
    finals = []
    for start in starts:
        idx = np.array(start, dtype=int)
        for _ in range(80):
            changed = False
            for t in range(n):
                others = w[np.delete(idx, t)]
                with np.errstate(divide="ignore"):
                    scores = np.sum(np.log(np.abs(w[:, None] - others[None, :])), axis=1)
                pick = int(np.argmax(scores))
                if pick != idx[t]:
                    idx[t] = pick
                    changed = True
            if not changed:
                break
        finals.append((_log_objective(w, idx), idx.copy()))
    finals.sort(key=lambda t: -t[0])
    best_S, best_idx = finals[0]

    # Second-order continuum gain estimate: parabola through each tuple
    # slot's angular grid neighbors.
    gain = 0.0
    for t in range(n):
        others = w[np.delete(best_idx, t)]
        i = best_idx[t]
        with np.errstate(divide="ignore"):
            s_here = float(np.sum(np.log(np.abs(w[i] - others))))
            s_plus = float(np.sum(np.log(np.abs(w[(i + 1) % m] - others))))
            s_minus = float(np.sum(np.log(np.abs(w[(i - 1) % m] - others))))
        dp, dm = s_plus - s_here, s_minus - s_here
        if not np.isfinite(dp) or not np.isfinite(dm):
            continue
        if dp + dm < 0.0:
            gain += (dp - dm) ** 2 / (8.0 * -(dp + dm))
        else:
            gain += max(dp, dm, 0.0)

    polished = []
    for S0, idx0 in finals[:3]:
        if np.isfinite(S0):
            polished.append(_polish_tuple(spec, r, sample.angles[idx0]))
    value_S = best_S
    witness_pts = w[best_idx]
    for Sp, wp in polished:
        if Sp > value_S:
            value_S = Sp
            witness_pts = wp
    value = float(np.exp(value_S / pair_count))
    err = value * gain / pair_count + 1e-13 * (1.0 + value)
    flags = ()
    if len(polished) >= 2:
        p_vals = [Sp for Sp, _ in polished]
        spread = (max(p_vals) - min(p_vals)) / pair_count * value
        if spread > max(3.0 * err, 1e-9 * (1.0 + value)):
            warnings.warn(
                f"n_diameter polished restarts disagree by {spread:.3e} "
                f"(error estimate {err:.3e})",
                OptimizationWarning,
            )
            flags = ("restart_disagreement",)
    witness = tuple(complex(v) for v in witness_pts)
    return FunctionalValue(
        kind="ndiam", value=value, abs_error=err, witness=witness, n=n, flags=flags
    )


# ---- area by winding-number fill of the boundary curve ----


@dataclass
class RasterResult:
    hit_count: int
    boundary_count: int
    cell_area: float
    x0: float
    y0: float
    cell_w: float
    cell_h: float
    samples_used: int
    hits: np.ndarray
    boundary: np.ndarray


def _refine_circle(fn, r, values, too_coarse):
    """Bisect the angle steps of samples of fn on |z| = r until none is too coarse.

    values holds fn at the angles 2 pi k / m; too_coarse(values) flags step
    k -> k+1 (the last step closes the circle).  Returns the sorted angles,
    the values and the number of samples evaluated, at most SAMPLE_CAP.
    """
    angles = 2.0 * np.pi * np.arange(values.size) / values.size
    used = values.size
    for _ in range(40):
        bad = np.nonzero(too_coarse(values))[0]
        if bad.size == 0:
            return angles, values, used
        mid = 0.5 * (angles[bad] + np.append(angles[1:], 2.0 * np.pi)[bad])
        used += mid.size
        if used > SAMPLE_CAP:
            raise ResourceError("boundary refinement exceeded the sample budget")
        angles = np.insert(angles, bad + 1, mid)
        values = np.insert(values, bad + 1, fn(r * np.exp(1j * mid)))
    raise ResourceError("boundary refinement did not converge in 40 passes")


def _boundary_curve(spec: FunctionSpec, r: float, resolution: int = DEFAULT_RESOLUTION):
    """The closed polyline f(r T), refined until no step is longer than half
    a grid cell or 4 float spacings of the largest |f|, whichever is more.

    The grid has resolution^2 cells over the padded bounding box of the
    curve.  A small image far from 0 has cells below the spacing of its
    values, and its steps may then span a few cells; ResourceError when the
    spacing exceeds two cells, where rounding alone would move the curve
    by more than a cell.  Returns (angles, values, (x0, y0, cell_w, cell_h),
    samples used).  A constant map (samples equal to rounding, as
    _is_constant decides) gets cells of zero size, and the curve is then
    not refined.
    """
    probe = sample_circle(spec, r, 4096).values
    if _is_constant(probe):
        angles = 2.0 * np.pi * np.arange(probe.size) / probe.size
        return angles, probe, (float(probe[0].real), float(probe[0].imag), 0.0, 0.0), probe.size
    lo_x, hi_x = float(np.min(probe.real)), float(np.max(probe.real))
    lo_y, hi_y = float(np.min(probe.imag)), float(np.max(probe.imag))
    gap = float(np.max(np.abs(np.roll(probe, -1) - probe)))
    pad = 2.0 * gap + 1e-12 + 0.002 * max(hi_x - lo_x, hi_y - lo_y)
    lo_x, hi_x, lo_y, hi_y = lo_x - pad, hi_x + pad, lo_y - pad, hi_y + pad
    cell_w, cell_h = (hi_x - lo_x) / resolution, (hi_y - lo_y) / resolution
    ulp = float(np.spacing(np.max(np.abs(probe))))
    if ulp > 2.0 * min(cell_w, cell_h):
        raise ResourceError("the image is below the float resolution of its values at this grid")
    step = max(0.5 * min(cell_w, cell_h), 4.0 * ulp)
    angles, values, used = _refine_circle(
        partial(evaluate, spec), r, probe, lambda w: np.abs(np.roll(w, -1) - w) > step
    )
    return angles, values, (lo_x, lo_y, cell_w, cell_h), used


def _grid_polyline(values, x0, y0, cell_w, cell_h):
    """The closed polyline in grid units (cell corners at the integers),
    each step cut into equal pieces of at most half a cell in u and v.

    The pieces lie on the polyline; a step longer than half a cell comes
    from the float-spacing floor of _boundary_curve, where values in the
    w-plane could not hold the cut points.  Returns (u, v).
    """
    u = (values.real - x0) / cell_w
    v = (values.imag - y0) / cell_h
    du, dv = np.roll(u, -1) - u, np.roll(v, -1) - v
    pieces = np.maximum(np.ceil(2.0 * np.maximum(np.abs(du), np.abs(dv))), 1).astype(np.int64)
    if np.all(pieces == 1):  # the usual case, and a cheap one
        return u, v
    k = np.repeat(np.arange(u.size), pieces)
    frac = (np.arange(k.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)) / pieces[k]
    return u[k] + frac * du[k], v[k] + frac * dv[k]


def _winding_numbers(u, v, resolution) -> np.ndarray:
    """Winding number of the closed polyline (u, v) in grid units around
    every cell centre.

    Nonzero-winding scanline fill: each crossing of a row of centres adds
    its direction to a difference array at the first centre right of it,
    and a cumulative sum along the row counts the signed crossings to the
    left of each centre.  Steps of at most half a cell, as _grid_polyline
    cuts them, cross at most one row, so each step contributes at most one
    entry.
    """
    u, v = u - 0.5, v - 0.5
    u1, v1 = np.roll(u, -1), np.roll(v, -1)
    row = np.ceil(np.minimum(v, v1))
    keep = (row < np.maximum(v, v1)) & (row >= 0) & (row < resolution)
    u, v, u1, v1, row = u[keep], v[keep], u1[keep], v1[keep], row[keep]
    x = u + (row - v) / (v1 - v) * (u1 - u)
    col = np.clip(np.floor(x) + 1, 0, resolution).astype(np.int64)
    flat = row.astype(np.int64) * (resolution + 1) + col
    diff = np.bincount(flat, weights=np.sign(v1 - v), minlength=resolution * (resolution + 1))
    # A counterclockwise curve goes up right of its interior.
    return -np.cumsum(diff.reshape(resolution, resolution + 1), axis=1)[:, :resolution]


def _rasterize(spec: FunctionSpec, r: float, resolution: int = DEFAULT_RESOLUTION) -> RasterResult:
    """Rasterize f(r D) on a resolution^2 grid over the image bounding box.

    By the argument principle the winding number of f(r T) around w counts
    the preimages of w in r D, so a cell is hit when the winding number at
    its centre is positive or the boundary curve passes through it.  The
    boundary cells are the band where coverage is ambiguous.  Holes are
    genuine and are never filled.
    """
    _, values, (x0, y0, cell_w, cell_h), used = _boundary_curve(spec, r, resolution)
    if cell_w == 0.0:
        empty = np.zeros((1, 1), bool)
        return RasterResult(0, 0, 0.0, x0, y0, 0.0, 0.0, used, empty, empty)
    u, v = _grid_polyline(values, x0, y0, cell_w, cell_h)
    boundary = np.zeros((resolution, resolution), dtype=bool)
    ix = np.clip(u.astype(int), 0, resolution - 1)
    iy = np.clip(v.astype(int), 0, resolution - 1)
    boundary[iy, ix] = True
    hits = (_winding_numbers(u, v, resolution) > 0.5) | boundary
    return RasterResult(
        int(np.count_nonzero(hits)), int(np.count_nonzero(boundary)), cell_w * cell_h,
        x0, y0, cell_w, cell_h, used, hits, boundary,
    )


def area(spec: FunctionSpec, r: float, resolution: int = DEFAULT_RESOLUTION) -> FunctionalValue:
    """Set area of f(r D) (no multiplicity) from a winding-number raster.

    The value is the area of the cells that f(r D) meets: positive winding
    number of f(r T) at the centre, or a cell the curve passes through.
    The error estimate is the area of the boundary cells, the band where
    coverage is ambiguous.  The boundary curve may use at most SAMPLE_CAP
    samples; ResourceError when it needs more.
    """
    raster = _rasterize(spec, r, resolution=resolution)
    value = raster.hit_count * raster.cell_area
    err = raster.boundary_count * raster.cell_area
    flags = ("degenerate",) if raster.cell_area == 0.0 else ()
    return FunctionalValue(kind="area", value=value, abs_error=err, flags=flags)


def area_univalent_series(spec: FunctionSpec, r: float) -> FunctionalValue:
    """Area of f(r D) as pi sum n |a_n|^2 r^(2n); valid when f is injective.

    Univalence is the caller's responsibility; with multiplicity this sum
    counts covered area, which strictly exceeds the set area.
    """
    if not spec.coefficient_backed:
        raise UnsupportedError("series area needs a coefficient-backed spec")
    coeffs = np.asarray(spec.coeffs, dtype=complex)
    n = np.arange(coeffs.shape[0])
    terms = n * np.abs(coeffs) ** 2 * (float(r) ** (2 * n))
    value = float(np.pi * np.sum(terms))
    err = 1e-15 * value * max(coeffs.shape[0], 2)
    return FunctionalValue(kind="area", value=value, abs_error=err)


# ---- perimeter ----


def circle_image_length(spec: FunctionSpec, r: float) -> FunctionalValue:
    """Length of the curve f(r T) counting multiplicity: integral of |f'| r,
    by quadrature to LENGTH_QUAD_TOL.

    Always an upper bound for the perimeter of the image set; equals it
    when f is injective on the closed disk of radius r.
    """

    def integrand(theta: float) -> float:
        return abs(complex(derivative(spec, r * np.exp(1j * theta)))) * r

    value, err = integrate(integrand, 0.0, 2.0 * np.pi, abs_tol=LENGTH_QUAD_TOL)
    return FunctionalValue(kind="perim", value=value, abs_error=err, flags=("circle_image",))


def _sqrt_deriv_series_length(spec: FunctionSpec, r: float) -> Optional[float]:
    """Perimeter via 2 pi r sum |b_n|^2 r^(2n) with b = sqrt-series of f'."""
    coeffs = np.asarray(spec.coeffs, dtype=complex)
    dcoeffs = series_derivative(coeffs, 1)
    if dcoeffs[0] == 0:
        return None
    count = 256
    while True:
        b = series_sqrt(dcoeffs, count)
        n = np.arange(count)
        terms = np.abs(b) ** 2 * float(r) ** (2 * n)
        total = 2.0 * np.pi * r * float(np.sum(terms))
        tail = 2.0 * np.pi * r * float(np.max(terms[-8:])) * count
        if tail < 1e-12 * max(total, 1.0) or count >= 8192:
            return total
        count *= 2


def perimeter_univalent(spec: FunctionSpec, r: float) -> FunctionalValue:
    """Perimeter of f(r D) for injective f, by quadrature of |f'| over r T.

    Raises UnivalenceError when is_univalent_sampled finds f not injective
    on the closed disk.  For series specs with sampled zero-free derivative
    the value is cross-checked against the square-root-series identity.
    """
    uni = is_univalent_sampled(spec, r)
    if not uni:
        raise UnivalenceError(f"spec is not injective on r={r}: witness {uni.witness}")
    fv = circle_image_length(spec, r)
    flags = ()
    if spec.coefficient_backed:
        circle = sample_circle(spec, r, 1024)
        d1 = derivative(spec, r * np.exp(1j * circle.angles))
        if float(np.min(np.abs(d1))) > 1e-9 * (1.0 + float(np.max(np.abs(d1)))):
            series_val = _sqrt_deriv_series_length(spec, r)
            if series_val is not None:
                if abs(series_val - fv.value) <= max(1e-9, 100.0 * fv.abs_error) * max(
                    1.0, fv.value
                ):
                    flags = ("series_crosscheck_ok",)
                else:
                    flags = ("series_crosscheck_mismatch",)
    return FunctionalValue(
        kind="perim", value=fv.value, abs_error=fv.abs_error, flags=flags
    )


# ---- univalence ----


def _critical_point(
    spec: FunctionSpec, r: float, z: np.ndarray, d: np.ndarray, count: int
) -> complex:
    """One of the count zeros of f' in r D, from samples d = f'(z) on r T.

    The contour moments (1 / 2 pi i) integral of z^k f''/f' dz, summed
    over the refined steps, are the power sums of the zeros; Newton's
    identities turn them into a polynomial whose roots Newton's method on
    f' then polishes.  Returns the root where |f'| is least.
    """
    dlog = np.log(np.roll(d, -1) / d)
    zm = 0.5 * (z + np.roll(z, -1))
    sums = [complex(np.sum(zm**k * dlog)) / (2j * np.pi) for k in range(1, count + 1)]
    e = [1.0 + 0j]
    for k in range(1, count + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * sums[i - 1] for i in range(1, k + 1)) / k)
    roots = np.roots([(-1) ** k * e[k] for k in range(count + 1)])
    roots = np.where(np.abs(roots) < r, roots, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(20):
            nxt = roots - derivative(spec, roots) / second_derivative(spec, roots)
            roots = np.where(np.abs(nxt) < r, nxt, roots)
    return complex(roots[np.argmin(np.abs(derivative(spec, roots)))])


def _self_crossing(spec: FunctionSpec, r: float, min_sep: float):
    """Two points of r T at least min_sep apart with the same image, or None.

    Candidates are proper crossings of segments of the boundary polyline,
    whose midpoints lie within the longest step of each other; Newton's
    method on the two boundary angles then solves the two real equations
    f(r e^(i t1)) = f(r e^(i t2)).  The diagonal t1 = t2 solves them too,
    hence the separation floor.
    """
    angles, w, _, _ = _boundary_curve(spec, r)
    seg = np.roll(w, -1) - w
    mid = w + 0.5 * seg
    pairs = cKDTree(np.column_stack([mid.real, mid.imag])).query_pairs(
        float(np.max(np.abs(seg))), output_type="ndarray"
    )
    i, j = pairs[:, 0], pairs[:, 1]
    apart = (np.abs(i - j) > 1) & (np.abs(i - j) < w.size - 1)
    i, j = i[apart], j[apart]
    c1, c2 = _cross(seg[i], w[j] - w[i]), _cross(seg[i], w[j] + seg[j] - w[i])
    c3, c4 = _cross(seg[j], w[i] - w[j]), _cross(seg[j], w[i] + seg[i] - w[j])
    proper = (c1 * c2 < 0.0) & (c3 * c4 < 0.0)
    i, j, c1, c2, c3, c4 = (a[proper] for a in (i, j, c1, c2, c3, c4))
    widths = np.append(angles[1:], 2.0 * np.pi) - angles
    t1 = angles[i] + c3 / (c3 - c4) * widths[i]
    t2 = angles[j] + c1 / (c1 - c2) * widths[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(20):
            z1, z2 = r * np.exp(1j * t1), r * np.exp(1j * t2)
            gap = evaluate(spec, z1) - evaluate(spec, z2)
            g1, g2 = 1j * z1 * derivative(spec, z1), -1j * z2 * derivative(spec, z2)
            det = _cross(g1, g2)
            t1, t2 = t1 - _cross(gap, g2) / det, t2 - _cross(g1, gap) / det
        z1, z2 = r * np.exp(1j * t1), r * np.exp(1j * t2)
        scale = 2.0 * float(np.max(np.abs(w - np.mean(w)))) + 1e-300
        ok = (np.abs(evaluate(spec, z1) - evaluate(spec, z2)) < 1e-9 * scale) & (
            np.abs(z1 - z2) > min_sep
        )
    if not np.any(ok):
        return None
    k = int(np.flatnonzero(ok)[0])
    return complex(z1[k]), complex(z2[k])


def is_univalent_sampled(spec: FunctionSpec, r: float) -> UnivalenceResult:
    """Injectivity of f on the closed disk r D by the Darboux-Picard theorem.

    For f analytic on a neighbourhood of the disk, f is injective exactly
    when f' has no zeros there and f(r T) is a simple curve.  The zeros of
    f' are counted by the turning of arg f' along r T, sampled until each
    step turns by less than pi / 8.  Self-crossings of f(r T) are searched
    on the boundary polyline of the default raster (steps of half a cell,
    or 4 float spacings of |f| where that is more) and confirmed by
    Newton's method.  A false verdict carries a critical point (z, z) or a
    colliding pair (z1, z2).
    """
    m0 = 4096
    d0 = derivative(spec, r * np.exp(2j * np.pi * np.arange(m0) / m0))
    tiny = 1e-12 * (1.0 + float(np.max(np.abs(d0))))

    def turns_fast(d):
        nxt = np.roll(d, -1)
        fast = np.abs(np.angle(nxt * np.conj(d))) >= np.pi / 8.0
        return fast & (np.minimum(np.abs(d), np.abs(nxt)) > tiny)

    angles, d, _ = _refine_circle(partial(derivative, spec), r, d0, turns_fast)
    z = r * np.exp(1j * angles)
    k = int(np.argmin(np.abs(d)))
    if abs(d[k]) <= tiny:
        return UnivalenceResult(False, (complex(z[k]), complex(z[k])), "vanishing derivative")
    count = int(round(float(np.sum(np.angle(np.roll(d, -1) * np.conj(d)))) / (2.0 * np.pi)))
    if count > 0:
        zc = _critical_point(spec, r, z, d, count)
        return UnivalenceResult(False, (zc, zc), "vanishing derivative")
    # f is locally injective, so a genuine collision is not within one
    # initial grid step of the diagonal.
    pair = _self_crossing(spec, r, 2.0 * np.pi * r / m0)
    if pair is not None:
        return UnivalenceResult(False, pair, "image collision")
    return UnivalenceResult(True, None, "")


def resolve_area_method(spec: FunctionSpec, r: float, method: str) -> str:
    """The area method to use on r D: "auto" picks the exact coefficient
    series when the spec is coefficient-backed and injective on r D, and
    the raster otherwise; "series" and "raster" pass through."""
    if method != "auto":
        return method
    if spec.coefficient_backed and is_univalent_sampled(spec, r):
        return "series"
    return "raster"


def _area_by_method(
    spec: FunctionSpec, r: float, method: str, resolution: int = DEFAULT_RESOLUTION
) -> FunctionalValue:
    """Area of f(r D) by the method resolve_area_method picks: the
    coefficient series or the winding-number raster."""
    if resolve_area_method(spec, r, method) == "series":
        return area_univalent_series(spec, r)
    return area(spec, r, resolution=resolution)


# ---- capacity bracket ----


def capacity_bracket(
    spec: FunctionSpec,
    r: float,
    n: int = 8,
    m: int = DEFAULT_SAMPLES,
    resolution: int = DEFAULT_RESOLUTION,
    seed: int = 0,
    area_method: str = "raster",
) -> FunctionalValue:
    """Two-sided bracket for the logarithmic capacity of f(r D).

    Lower endpoint sqrt(Area / pi), upper endpoint d_n / n^(1/(n-1)).
    Estimator errors are propagated outward into the interval; the value
    is the midpoint.  The bracket_inverted flag signals under-resolution.
    """
    a = _area_by_method(spec, r, area_method, resolution)
    dn = n_diameter(spec, r, n, m=m, seed=seed)
    norm = disk_n_diameter(n)
    lo_raw = float(np.sqrt(max(a.value, 0.0) / np.pi))
    hi_raw = dn.value / norm
    err_lo = (
        a.abs_error / (2.0 * np.sqrt(np.pi * a.value)) if a.value > a.abs_error
        else float(np.sqrt(max(a.value + a.abs_error, 0.0) / np.pi)) - lo_raw
    )
    err_hi = dn.abs_error / norm
    lo = max(lo_raw - err_lo, 0.0)
    hi = hi_raw + err_hi
    flags = tuple(dn.flags)
    if lo_raw > hi_raw:
        flags = flags + ("bracket_inverted",)
    mid = 0.5 * (lo + hi)
    return FunctionalValue(
        kind="cap",
        value=mid,
        abs_error=0.5 * (hi - lo),
        witness=dn.witness,
        interval=(lo, hi),
        n=n,
        flags=flags,
    )


# ---- functional kinds ----


@dataclass(frozen=True)
class FunctionalKind:
    """One functional F of the image set: its estimator and normalizer.

    estimator(spec, r, n, **knobs) estimates F(f(r D)) from the knobs it
    uses; norm(r, n) is F(r D), so norm(1, n) is the unit-disk value, and
    `normalization` labels it.  uses_area marks the kinds that read an area
    method; they are too rough in r to extrapolate to the open disk.
    Growth curves plot the interval's upper end when upper_endpoint is set;
    F scales as |s|^2 under f -> s f when squared is set.  `report` names
    the growth inequality report.
    """

    estimator: Callable[..., FunctionalValue]
    norm: Callable[[float, int], float]
    normalization: str
    report: str
    uses_area: bool = False
    upper_endpoint: bool = False
    squared: bool = False

    def estimate(
        self,
        spec: FunctionSpec,
        r: float,
        n: int = 4,
        *,
        m: int = DEFAULT_SAMPLES,
        resolution: int = DEFAULT_RESOLUTION,
        seed: int = 0,
        area_method: str = "raster",
    ) -> FunctionalValue:
        return self.estimator(
            spec, r, n, m=m, resolution=resolution, seed=seed, area_method=area_method
        )

    def curve_value(self, fv: FunctionalValue) -> float:
        return fv.interval[1] if self.upper_endpoint else fv.value


# The order is the order of the CLI's --kind choices.
KINDS = {
    "rad": FunctionalKind(
        lambda spec, r, n, m, **_: radius(spec, r, m=m),
        lambda r, n: r, "r", "SchwarzGrowth",
    ),
    "diam": FunctionalKind(
        lambda spec, r, n, m, **_: diameter(spec, r, m=m),
        lambda r, n: 2.0 * r, "2r", "LandauToeplitz",
    ),
    "ndiam": FunctionalKind(
        lambda spec, r, n, m, seed, **_: n_diameter(spec, r, n, m=m, seed=seed),
        lambda r, n: disk_n_diameter(n) * r, "n^(1/(n-1)) r", "NDiamGrowth",
    ),
    "cap": FunctionalKind(
        lambda spec, r, n, m, resolution, seed, area_method, **_: capacity_bracket(
            spec, r, n=n, m=m, resolution=resolution, seed=seed, area_method=area_method
        ),
        lambda r, n: r, "r", "CapGrowth", uses_area=True, upper_endpoint=True,
    ),
    "area": FunctionalKind(
        lambda spec, r, n, resolution, area_method, **_: _area_by_method(
            spec, r, area_method, resolution
        ),
        lambda r, n: np.pi * r * r, "pi r^2", "AreaGrowth", uses_area=True, squared=True,
    ),
    "perim": FunctionalKind(
        lambda spec, r, n, **_: circle_image_length(spec, r),
        lambda r, n: 2.0 * np.pi * r, "2 pi r", "PerimGrowth",
    ),
}


def functional_kind(name: str) -> FunctionalKind:
    """The KINDS entry for name; DomainError for an unknown kind."""
    if name not in KINDS:
        raise DomainError(f"unknown functional kind {name!r}")
    return KINDS[name]
