"""Geometric functionals of the image set f(r D).

Estimators: radius and diameter from boundary samples (max-modulus
arguments put every extreme point on the image of the circle), the
n-point diameter by multi-start exchange optimization, perimeter by
quadrature of |f'| over the circle, and a two-sided capacity bracket.
The diameter (all pairs) and the n-diameter (exchange, its restarts run
together as the rows of one index array) search a subgrid of about
COARSE_SAMPLES circle samples for basins and polish the best few together,
as the rows of one Newton ascent over boundary angles, _polish_tuples.  On
a grid of radii the basins are searched radius by radius and the tuples of
every radius polished as the rows of one ascent, each row on its own
circle (_polish_radii); one radius is the grid of one.  KINDS holds, for
each functional kind, its estimator over a radius grid and its normalizer;
growth curves, growth checks and the CLI all read them from there.  All
sample f - f(0) (spec._centring); every bar has one rounding floor, _rounding.

Set area and univalence share one mechanism, the refined boundary curve
f(r T) and the argument principle: the winding number of f(r T) around w
counts the preimages of w in r D, so the set area is the area where it is
positive, summed from exact horizontal sections of the polyline, and f is
injective on r D exactly when f' has no zeros there (the spec lists them)
and f(r T) is a simple curve (Darboux-Picard).

The polish runs its own Newton method, minimize, through the module
binding, so a wrapper of that binding sees every polish.
"""

from __future__ import annotations

import warnings
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import cache, partial, reduce
from itertools import combinations
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .analytic import FunctionSpec, critical_points, derivative, evaluate, jet, sample_circle
from .errors import DomainError, OptimizationWarning, ResourceError
from .quadrature import integrate

# perfbench/tracer.py reads this attribute unconditionally when it installs
# its wrappers; nothing here uses it.  ROADMAP item 1 deletes it with that read.
cKDTree = None

DEFAULT_SAMPLES = 4096
DEFAULT_RESOLUTION = 1024
DEFAULT_RESTARTS = 16
# Fewest samples, where m allows, of the subgrid that diameter and
# n_diameter search for basins.
COARSE_SAMPLES = 256
# Distinct basins that diameter and n_diameter polish.
POLISHED = 3
# Most Hessian entries, rows times n^2, that one minimize call of the polish holds.
POLISH_ENTRIES = 2**16
# Most boundary samples that one refinement of f(r T) may evaluate.
SAMPLE_CAP = 2**24
# Most circle points of the contour sum of area_univalent_series.
CONTOUR_CAP = 2**17
# Absolute and relative quadrature tolerance of the curve length of f(r T).
LENGTH_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class FunctionalValue:
    """One functional estimate with an absolute error estimate and witness;
    an area, and the cap bracket that reads one, names its method: "series"
    (area_univalent_series) or "raster" (area)."""

    kind: str
    value: float
    abs_error: float
    witness: Optional[tuple] = None
    interval: Optional[tuple] = None
    n: Optional[int] = None
    flags: tuple = field(default_factory=tuple)
    method: Optional[str] = None

    def __post_init__(self):
        if not np.all(np.isfinite([self.value, self.abs_error, *(self.interval or ())])):
            raise ResourceError(f"the {self.kind} estimate overflows the float range")


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


def _rounding(w: np.ndarray) -> float:
    """The rounding floor of every bar, 2^-42 max|w| of the samples w: the
    n-diameter's logs of c z at |c| = 1e+-100 cost it up to 290 eps."""
    return 2.0**-42 * float(np.max(np.abs(w)))


def _is_constant(w: np.ndarray, floor: float) -> bool:
    """Whether the samples w agree to their rounding floor: a point image."""
    return float(np.max(np.abs(w - w[0]))) <= floor


# ---- radius ----


def _derivative_maxima(sample, slope: complex = 0.0) -> tuple:
    """The maxima of |f' - slope| and |f''| over the points of a
    sample_circle of order 2."""
    f1, f2 = sample.derivatives
    return float(np.max(np.abs(f1 - slope))), float(np.max(np.abs(f2)))


def _curvature(r: float, maxima: tuple, value: float) -> float:
    """Bound on the angular second derivative of |f(z) - slope z| along
    |z| = r at a maximum of size value, from the _derivative_maxima of
    f on r T."""
    m1, m2 = maxima
    try:
        return r * r * m2 + r * m1 + (r * m1) ** 2 / max(value, 1e-300)
    except OverflowError as exc:
        raise ResourceError("the curvature bound overflows the float range") from exc


def _circle_max(spec: FunctionSpec, r: float, m: int, slope: complex = 0.0):
    """Max of |f(z) - f(0) - slope z| on |z| = r from m samples of f - f(0).

    The grid max is refined by a parabolic step around the best sample;
    the error estimate is the second-order bound for a stationary maximum
    sampled at spacing 2 pi / m.  Returns (value, abs_error, f at the max).
    """
    spec, origin, offset = spec._centring
    sample = sample_circle(spec, r, m, order=2)
    g = np.abs(sample.values - origin - slope * sample.points)
    k = int(np.argmax(g))
    value = float(g[k])
    witness = complex(sample.values[k]) + offset
    dtheta = 2.0 * np.pi / m
    gm, gp = g[(k - 1) % m], g[(k + 1) % m]
    denom = gm - 2.0 * g[k] + gp
    if denom < 0.0:
        step = 0.5 * (gm - gp) / denom * dtheta
        if abs(step) <= dtheta:
            zr = r * np.exp(1j * (sample.angles[k] + step))
            fr = complex(evaluate(spec, zr))
            cand = abs(fr - origin - slope * zr)
            if cand > value:
                value, witness = cand, fr + offset
    curv = _curvature(r, _derivative_maxima(sample, slope), value)
    err = 0.125 * curv * dtheta * dtheta + _rounding(sample.values)
    return value, err, witness


def radius(spec: FunctionSpec, r: float, m: int = DEFAULT_SAMPLES) -> FunctionalValue:
    """sup |f(z) - f(0)| over r D, estimated on m circle samples.

    The sup equals the max over |z| = r by the maximum principle, which
    _circle_max estimates with its second-order error bound.
    """
    value, err, witness = _circle_max(spec, r, m)
    return FunctionalValue(kind="rad", value=value, abs_error=err, witness=(witness,))


# ---- diameter: all pairs on a subgrid, then the tuple polish ----


def _cross(a: complex, b: complex) -> float:
    return a.real * b.imag - a.imag * b.real


def _diameter_candidates(sample, maxima: tuple) -> tuple:
    """The best sample pair's distance and points, and the start angles of
    the POLISHED farthest candidate pairs, as diameter describes them.

    The pairs i < j within the limit of the subgrid's largest distance come
    from flat indices of its distance matrix, and their 8 neighbours on the
    torus from a copy of the matrix wrapped by one cell on each side."""
    w, m = sample.values, sample.values.size
    stride = max(1, m // COARSE_SAMPLES)
    wc = w[::stride]
    dc = np.abs(wc[:, None] - wc[None, :])
    dtheta, top = 2.0 * np.pi / m, dc.max()
    limit = top - _curvature(sample.r, maxima, top) * (stride * dtheta) ** 2
    ci, cj = np.divmod(np.flatnonzero(dc >= limit), wc.size)
    upper = ci < cj
    ci, cj = ci[upper], cj[upper]
    wrapped, d = np.pad(dc, 1, mode="wrap"), dc[ci, cj]
    peak = np.ones(ci.size, dtype=bool)
    for di, dj in ((0, 1), (1, 0), (1, 1), (1, -1), (0, -1), (-1, 0), (-1, -1), (-1, 1)):
        peak &= d >= wrapped[ci + 1 + di, cj + 1 + dj]
    ci, cj, d = ci[peak], cj[peak], d[peak]
    value, witness, starts = 0.0, None, []
    for k in np.argsort(-d, kind="stable")[:POLISHED]:
        rows, cols = ((c * stride + np.arange(-stride, stride + 1)) % m for c in (ci[k], cj[k]))
        diff = w[rows][:, None] - w[cols][None, :]
        a, b = np.unravel_index(np.argmax(np.hypot(diff.real, diff.imag)), diff.shape)
        i, j = rows[a], cols[b]
        if abs(complex(w[i] - w[j])) > value:
            value, witness = float(abs(complex(w[i] - w[j]))), (complex(w[i]), complex(w[j]))
        starts.append(sample.angles[[i, j]])
    return value, witness, np.array(starts)


def _diameter_run(spec: FunctionSpec, r: float, offset: complex, m: int):
    """diameter at one radius, as a run of _polish_radii: it yields the
    start angles of its candidate pairs and is sent their polished rows.
    It keeps no sample array while it waits, since a sweep holds the runs
    of all its radii until the polish."""
    sample = sample_circle(spec, r, m, order=2)
    w, floor = sample.values, _rounding(sample.values)
    if _is_constant(w, floor):
        yield np.empty((0, 2))
        return FunctionalValue(
            kind="diam", value=0.0, abs_error=0.0, witness=(w[0] + offset,), flags=("degenerate",)
        )
    maxima, dtheta = _derivative_maxima(sample), 2.0 * np.pi / m
    value, witness, starts = _diameter_candidates(sample, maxima)
    del sample, w
    _, points, _ = yield starts
    best = None
    for p, q in points:
        if best is None or abs(p - q) > best[0] + floor:
            best = (float(abs(p - q)), (complex(p), complex(q)))
    if best[0] > value:
        value, witness = best
    err = 0.5 * _curvature(r, maxima, value) * dtheta * dtheta + floor
    witness = tuple(p + offset for p in witness)
    return FunctionalValue(kind="diam", value=value, abs_error=err, witness=witness)


def _diameters(spec: FunctionSpec, radii, m: int = DEFAULT_SAMPLES) -> list:
    """diameter at each radius, the candidate pairs of all radii polished
    as the rows of one descent."""
    return _polish_radii(spec, radii, partial(_diameter_run, m=m))


def diameter(spec: FunctionSpec, r: float, m: int = DEFAULT_SAMPLES) -> FunctionalValue:
    """Diameter of f(r D) from all pairwise distances on a subgrid of the
    m circle samples, every (m // COARSE_SAMPLES)-th.

    Candidates are the subgrid pairs whose distance is a local maximum on
    the torus of angle pairs and lies within curv dtc^2 of the largest,
    where dtc is the subgrid step: the diametral pair has a subgrid pair
    within dtc / 2 of each end.  The POLISHED farthest start from the
    farthest sample pair within a subgrid step of them and go to the tuple
    polish of n_diameter at n = 2; a later row wins only by more than the
    rounding floor.  The one-radius case of _diameters, which a diam growth
    curve calls on its whole grid.
    """
    return _diameters(spec, [r], m)[0]


# ---- n-point diameter ----


@cache
def _pairs(n: int):
    """Row and column indices of the n (n - 1) / 2 pairs i < j of n points,
    read-only, since every caller shares them."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _log_sums(d: np.ndarray) -> np.ndarray:
    """Each row's sum of log d, summed as a 1-D array: numpy does not
    promise that a sum over an axis of a 2-D array keeps that order."""
    with np.errstate(divide="ignore"):
        return np.array([np.add.reduce(row) for row in np.log(d)])


def _gaps(points: np.ndarray) -> np.ndarray:
    """|p_i - p_j| over the pairs i < j of each row of a (k, n) array of points."""
    rows, cols = _pairs(points.shape[1])
    return np.abs(points[:, rows] - points[:, cols])


def _exchange(w: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Coordinate-exchange ascent of the pairwise log-distance sum over the
    samples w, from each row of the (k, n) start indices at once; returns
    the (k, n) final indices.

    A step moves slot t of every row to the sample with the largest sum of
    log distances to the row's other slots.  logs[s][j] holds
    log|w - w[idx[j, s]]|, so a step sums the n - 1 other stored columns in
    slot order, and only the rows that moved recompute theirs.  A sweep that
    moves no row ends the ascent: a row that did not move is at a fixed
    point, so each row ends where it would alone, within the 80 sweeps.
    """
    idx = np.array(starts, dtype=int)
    with np.errstate(divide="ignore"):
        logs = [np.log(np.abs(w - w[col][:, None])) for col in idx.T]
        for _ in range(80):
            moved = False
            for t in range(idx.shape[1]):
                pick = reduce(np.add, logs[:t] + logs[t + 1 :]).argmax(axis=1)
                rows = pick != idx[:, t]
                if rows.any():
                    idx[rows, t] = pick[rows]
                    logs[t][rows] = np.log(np.abs(w - w[pick[rows], None]))
                    moved = True
            if not moved:
                break
    return idx


def minimize(fun, x0):
    """Modified Newton descent of fun from each row of the (k, n) array x0.

    fun(x, rows) takes (j, n) points and the indices into x0 of the j rows
    they belong to, so that each row can carry data of its own, such as the
    radius of its circle, and returns each point's value, gradient and
    Hessian as (j,), (j, n) and (j, n, n) arrays.  A row's step solves with
    its Hessian's eigenvalues replaced by |lambda|, floored at 1e-12 (1 +
    max |lambda|), so the step descends across saddles and exact ridges,
    and is halved until the value does not get worse.  A row stops before
    evaluating a step whose predicted gain -g.step / 2 is below 1e-17 (1 +
    |value|): at the optimum, rounding of the value would reject it anyway.
    At most 100 steps a row.  Each round evaluates the trial steps of all
    rows still descending in one call of fun; rows do not mix, so each ends
    where it would alone.  Returns x, fun and nfev, the number of row
    evaluations, as attributes; a row keeps x0 when fun is not finite there.
    """
    x = np.array(x0, dtype=float)
    f, g, h = fun(x, np.arange(len(x)))
    nfev, steps = len(x), np.zeros(len(x), dtype=int)
    step, going = np.zeros_like(x), np.zeros(len(x), dtype=bool)
    # The rows that take a new Newton step.
    fresh = np.flatnonzero(np.isfinite(f))
    while True:
        if fresh.size:
            lam, vec = np.linalg.eigh(h[fresh])
            lam = np.abs(lam)
            lam = np.maximum(lam, 1e-12 * (1.0 + lam.max(axis=1, keepdims=True)))
            proj = (np.swapaxes(vec, 1, 2) @ g[fresh, :, None]) / lam[:, :, None]
            step[fresh] = (-vec @ proj)[:, :, 0]
            going[fresh] = True
        gain = 0.5 * np.abs((g[:, None, :] @ step[:, :, None])[:, 0, 0])
        going &= gain >= 1e-17 * (1.0 + np.abs(f))
        rows = np.flatnonzero(going)
        if not rows.size:
            return SimpleNamespace(x=x, fun=f, nfev=nfev)
        tf, tg, th = fun(x[rows] + step[rows], rows)
        nfev += rows.size
        better = tf <= f[rows]
        step[rows[~better]] *= 0.5
        fresh = rows[better]
        x[fresh] += step[fresh]
        f[fresh], g[fresh], h[fresh] = tf[better], tg[better], th[better]
        steps[fresh] += 1
        going[fresh] = False
        fresh = fresh[(steps[fresh] < 100) & np.isfinite(f[fresh])]


def _neg_log_sum(spec: FunctionSpec, r, theta: np.ndarray):
    """-S, -grad S and -Hessian S in the angles of each row of the (k, n)
    array theta, as (k,), (k, n) and (k, n, n) arrays, where
    S = sum_{i<j} log|w_i - w_j| over a row and w = f(r e^(i theta)) with
    r the row's radius, from the (k,) radii r or one radius for all rows; a
    row with a coincident pair gets +inf and zero derivatives.

    With w' = i z f' and w'' = -z f' - z^2 f'', the gradient is
    Re(w_i' sum_j 1 / (w_i - w_j)), the Hessian Re(w_i' w_j' / (w_i - w_j)^2)
    off the diagonal and Re(w_i'' sum_j 1 / (w_i - w_j) - w_i'^2 sum_j
    1 / (w_i - w_j)^2) on it.  All k n points go to one jet call of order
    2, and each row comes out as it would alone.
    """
    k, n = theta.shape
    z = np.reshape(r, (-1, 1)) * np.exp(1j * theta)
    w, f1, f2 = jet(spec, z, 2)
    dw = 1j * z * f1
    d2w = -z * f1 - z * z * f2
    diff = w[:, :, None] - w[:, None, :]
    gaps = _gaps(w)
    # S's derivatives do not change when f is scaled.  Scaling a row by a
    # power of two is exact, and bringing w' near 1 (or by 2^1000, for a
    # subnormal image) keeps w'^2 from overflowing.
    unit = 2.0 ** np.minimum(-np.frexp(np.abs(dw).max(axis=1, keepdims=True))[1], 1000)
    diff, dw, d2w = diff * unit[:, :, None], dw * unit, d2w * unit
    # Unit distances keep the rows with a coincident pair finite until they
    # are overwritten.
    bad = np.flatnonzero((gaps <= 0.0).any(axis=1))
    diff[bad] = 1.0
    diag = np.arange(n)
    inv = 1.0 / (diff + np.eye(n))
    inv[:, diag, diag] = 0.0
    inv2 = inv * inv
    sum1, sum2 = inv.sum(axis=2), inv2.sum(axis=2)
    hess = np.real(dw[:, :, None] * dw[:, None, :] * inv2)
    hess[:, diag, diag] = np.real(d2w * sum1 - dw * dw * sum2)
    value = -_log_sums(gaps)
    grad, hess = -np.real(dw * sum1), -hess
    value[bad], grad[bad], hess[bad] = np.inf, 0.0, 0.0
    return value, grad, hess


def _polish_tuples(spec: FunctionSpec, r, angles0: np.ndarray):
    """Newton ascent of the pairwise log-distance sum over the tuple angles
    of each row of the (k, n) array angles0, on the circle of its radius in
    the (k,) radii r, or of the one radius r.

    Polishes the n_diameter tuples and, at n = 2, the diameter's candidate
    pairs.  Coordinate exchange on grid samples stalls along the
    near-degenerate rotational direction; a joint Newton step with the
    exact gradient and Hessian of _neg_log_sum resolves it.  The rows
    descend together in minimize calls of at most POLISH_ENTRIES // n^2
    rows (one at least), which bounds the Hessians a call holds.  Returns
    the log objectives, image points and angles of the rows, empty for k = 0.
    """
    k, n = angles0.shape
    radii = np.broadcast_to(np.asarray(r, dtype=float), (k,))
    group = max(1, POLISH_ENTRIES // (n * n))
    parts = [(np.empty(0), np.empty((0, n), complex), angles0[:0])]
    for i in range(0, k, group):
        rs = radii[i : i + group]
        result = minimize(
            lambda theta, rows: _neg_log_sum(spec, rs[rows], theta), angles0[i : i + group]
        )
        points = evaluate(spec, rs[:, None] * np.exp(1j * result.x))
        parts.append((-result.fun, points, result.x))
    return tuple(np.concatenate(a) for a in zip(*parts))


def _polish_radii(spec: FunctionSpec, radii, run) -> list:
    """run(g, r, offset) at each of the radii, g and offset from
    spec._centring, all of their tuple polishes in one _polish_tuples call.

    run is a generator: it searches the basins at r and yields the
    (k, n) start angles of its polish, k >= 0 (0 for a constant map).  All
    yielded rows go to one _polish_tuples call, with a radius per row; each
    run is sent its own rows of the result and returns its value.  Rows do
    not mix, so each radius ends where it would alone.
    """
    spec, _, offset = spec._centring
    runs = [run(spec, r, offset) for r in radii]
    starts = [next(gen) for gen in runs]
    counts = [len(rows) for rows in starts]
    polished = _polish_tuples(spec, np.repeat(radii, counts), np.concatenate(starts))
    values = []
    for gen, end, count in zip(runs, np.cumsum(counts), counts):
        try:
            gen.send(tuple(a[end - count : end] for a in polished))
        except StopIteration as stop:
            values.append(stop.value)
    return values


def _n_diameter_run(spec: FunctionSpec, r: float, offset: complex, n: int, m: int, seed: int):
    """n_diameter at one radius for n > 2, as a run of _polish_radii: it
    yields the start angles of its distinct tuples and is sent their
    polished rows."""
    sample = sample_circle(spec, r, m)
    w, floor = sample.values, _rounding(sample.values)
    if _is_constant(w, floor):
        yield np.empty((0, n))
        return FunctionalValue(
            kind="ndiam", value=0.0, abs_error=0.0, witness=(w[0] + offset,) * n, n=n,
            flags=("degenerate",),
        )
    stride = max(1, m // max(COARSE_SAMPLES, n))
    wc = w[::stride]
    mc = wc.size
    rng = np.random.default_rng([seed, n, m, int(r * 1e9)])
    base = np.round(np.arange(n) * mc / n).astype(int) % mc
    starts = [(base + (k * mc) // (4 * n)) % mc for k in range(min(4, DEFAULT_RESTARTS))]
    starts += [rng.choice(mc, size=n, replace=False) for _ in range(DEFAULT_RESTARTS - len(starts))]

    pair_count = n * (n - 1) / 2.0
    # At most COARSE_SAMPLES // n starts (one at least) go to one exchange, so
    # its stored log columns hold at most max(COARSE_SAMPLES, n) mc floats.
    group = max(1, COARSE_SAMPLES // n)
    ends = np.concatenate([_exchange(wc, starts[i : i + group]) for i in range(0, len(starts), group)])
    scores = _log_sums(_gaps(wc[ends]))
    order = np.argsort(-scores, kind="stable")
    top = ends[order[0]]
    best = (scores[order[0]], wc[top], sample.angles[top * stride])
    distinct = {}
    for idx in ends[order[np.isfinite(scores[order])]]:
        distinct.setdefault(tuple(sorted(idx)), sample.angles[idx * stride])
    tuples = list(distinct.values())[:POLISHED]
    # A sweep holds the runs of all its radii until the polish.
    del sample, wc
    polished = list(zip(*(yield np.array(tuples).reshape(-1, n))))
    # The first of the largest: a polished tuple wins only when strictly better.
    value_S, witness_pts, theta = max([best] + polished, key=lambda t: t[0])
    value = float(np.exp(value_S / pair_count))

    # Second-order continuum gain estimate: parabola through each tuple
    # slot's angular grid neighbors, at a discrete maximum next to the winner.
    fine = _exchange(w, [np.round(theta * m / (2.0 * np.pi)).astype(int) % m])[0]
    gain = 0.0
    for t in range(n):
        others = w[np.delete(fine, t)]
        i = fine[t]
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
    err = value * gain / pair_count + floor

    # Two restarts reach the same tuple when each angle of one lies within a
    # subgrid step of an angle of the other, around the circle.
    same = [
        abs(Sa - Sb) for (Sa, _, ta), (Sb, _, tb) in combinations(polished, 2)
        if np.all(np.abs(np.angle(np.exp(1j * (ta[:, None] - tb[None, :])))).min(axis=1)
                  <= 2.0 * np.pi * stride / m)
    ]
    spread = max(same, default=0.0) / pair_count * value
    flags = ()
    if spread > max(3.0 * err, 1e-9 * value):
        warnings.warn(
            f"n_diameter polished restarts disagree by {spread:.3e} "
            f"(error estimate {err:.3e})",
            OptimizationWarning,
        )
        flags = ("restart_disagreement",)
    witness = tuple(complex(v) + offset for v in witness_pts)
    return FunctionalValue(
        kind="ndiam", value=value, abs_error=err, witness=witness, n=n, flags=flags
    )


def _n_diameters(spec: FunctionSpec, radii, n: int, m: int = DEFAULT_SAMPLES, seed: int = 0) -> list:
    """n_diameter at each radius, the distinct tuples of all radii polished
    as the rows of one descent."""
    if n < 2:
        raise DomainError("n must be >= 2")
    if n > m:
        raise DomainError(f"n = {n} exceeds the {m} circle samples")
    if n == 2:
        return [replace(fv, kind="ndiam", n=2) for fv in _diameters(spec, radii, m)]
    return _polish_radii(spec, radii, partial(_n_diameter_run, n=n, m=m, seed=seed))


def n_diameter(
    spec: FunctionSpec, r: float, n: int, m: int = DEFAULT_SAMPLES, seed: int = 0
) -> FunctionalValue:
    """n-point diameter of f(r D): sup over n-tuples of the normalized
    pairwise-distance product, estimated over boundary samples.

    Coordinate-exchange ascent in the log domain (_exchange) from
    DEFAULT_RESTARTS deterministic starts finds the basins on a subgrid of
    the m samples, at least max(COARSE_SAMPLES, n) of them where m allows;
    the POLISHED best distinct tuples go to the continuous polish, which
    makes the value independent of the grid.  The error estimate is the
    parabolic gain at the exchange of the winner's nearest samples on the
    full grid.  Restarts that reach the same tuple with different values
    flag restart_disagreement.  Extremal tuples lie on the outer boundary,
    so sampling f(r T) loses only the angular discretization.  For n = 2
    this is the diameter.  DomainError when n < 2 or n > m.  The one-radius
    case of _n_diameters, which an ndiam growth curve calls on its grid.
    """
    return _n_diameters(spec, [r], n, m, seed)[0]


# ---- area from scanline sections of the boundary curve ----


def _refine_circle(spec: FunctionSpec, r: float, angles: np.ndarray, values: np.ndarray, step: float):
    """Bisect the angle steps of samples of f on |z| = r until no step of
    the images, the last one closing the circle, is longer than step.

    values holds f at the sorted angles in [0, 2 pi).  Returns the sorted
    angles and the values, at most SAMPLE_CAP of them.  Each pass evaluates,
    in one call, the midpoints of the steps still longer than step, carried
    with their end angles and values, and checks only the two halves of
    each; the midpoints join the curve once, by one stable sort of all
    angles.  That is the curve that inserting each pass's midpoints would
    build, since every midpoint lies strictly inside its step: fl(a + b)/2
    is within 2^-51 of (a + b)/2 on [0, 2 pi], so both halves of a step
    longer than 2^-50 are at least (b - a)/2 - 2^-51 long, and start steps
    longer than 2^-10 (2 pi / 4096 is 1.5e-3) stay longer than 2^-50
    through 40 bisections.
    """
    ends, nexts = np.append(angles[1:], 2.0 * np.pi), np.roll(values, -1)
    long = np.abs(nexts - values) > step
    lo, hi, f_lo, f_hi = angles[long], ends[long], values[long], nexts[long]
    parts, images, size, passes = [angles], [values], values.size, 0
    while lo.size:
        if passes == 40:
            raise ResourceError("boundary refinement did not converge in 40 passes")
        passes, size = passes + 1, size + lo.size
        if size > SAMPLE_CAP:
            raise ResourceError("boundary refinement exceeded the sample budget")
        mid = 0.5 * (lo + hi)
        f_mid = evaluate(spec, r * np.exp(1j * mid))
        parts.append(mid)
        images.append(f_mid)
        # The halves (lo, mid) and (mid, hi) of each step, in curve order.
        keep = np.stack((np.abs(f_mid - f_lo) > step, np.abs(f_hi - f_mid) > step), axis=1)
        lo, hi = np.stack((lo, mid), axis=1)[keep], np.stack((mid, hi), axis=1)[keep]
        f_lo, f_hi = np.stack((f_lo, f_mid), axis=1)[keep], np.stack((f_mid, f_hi), axis=1)[keep]
    # Each list is freed once merged, so the peak is the merged values, the
    # order and the sorted angles: 48 bytes a point.
    angles = np.concatenate(parts)
    del parts
    order = np.argsort(angles, kind="stable")
    angles = angles[order]
    values = np.concatenate(images)
    del images
    return angles, values[order]


def _boundary_curve(spec: FunctionSpec, r: float, resolution: int = DEFAULT_RESOLUTION):
    """The closed polyline f(r T), f the spec its callers centre, refined
    until no step is longer than half a cell of the grid of resolution^2
    cells over its padded box, or 4 float spacings of the largest |f|.

    Centred samples surround 0, so only an annulus cover (its own centred
    spec) of c near 1e-12 at resolution 2^16 has cells below the spacing of
    its values; ResourceError when that exceeds two cells, where rounding
    alone would move the curve by more than a cell.  Returns (angles,
    values, (x0, y0, cell_w, cell_h)), cells of zero size and no refinement
    for a constant map (_is_constant).  DomainError when resolution < 1.
    """
    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    sample = sample_circle(spec, r, 4096)
    probe = sample.values
    if _is_constant(probe, _rounding(probe)):
        return sample.angles, probe, (float(probe[0].real), float(probe[0].imag), 0.0, 0.0)
    lo_x, hi_x = float(np.min(probe.real)), float(np.max(probe.real))
    lo_y, hi_y = float(np.min(probe.imag)), float(np.max(probe.imag))
    gap = float(np.max(np.abs(np.roll(probe, -1) - probe)))
    pad = 2.0 * gap + 0.002 * max(hi_x - lo_x, hi_y - lo_y)
    lo_x, hi_x, lo_y, hi_y = lo_x - pad, hi_x + pad, lo_y - pad, hi_y + pad
    cell_w, cell_h = (hi_x - lo_x) / resolution, (hi_y - lo_y) / resolution
    ulp = float(np.spacing(np.max(np.abs(probe))))
    if ulp > 2.0 * min(cell_w, cell_h):
        raise ResourceError("the image is below the float resolution of its values at this grid")
    step = max(0.5 * min(cell_w, cell_h), 4.0 * ulp)
    angles, values = _refine_circle(spec, r, sample.angles, probe, step)
    return angles, values, (lo_x, lo_y, cell_w, cell_h)


def _sections(values: np.ndarray, y0: float, h: float, lines: int) -> np.ndarray:
    """Length of the section {winding number > 0} of the closed polyline
    values on each line y = y0 + k h, k < lines.

    Each step lists the lines it crosses, half-open in y so that a vertex
    on a line counts once, however many lines the step spans.  Sorted by
    line and then by x, a running sum of the crossing directions is the
    winding number between neighbouring crossings; the sum is back at 0
    after each line, because a closed curve's crossings of a line cancel.
    Only the steps that cross a line enter the list.
    """
    t = (values.imag - y0) / h
    t1 = np.roll(t, -1)
    first = np.clip(np.ceil(np.minimum(t, t1)), 0, lines).astype(np.int64)
    count = np.clip(np.ceil(np.maximum(t, t1)), 0, lines).astype(np.int64) - first
    cross = np.flatnonzero(count)
    t, first, count, x0 = t[cross], first[cross], count[cross], values.real[cross]
    dt, dx = t1[cross] - t, values.real[(cross + 1) % values.size] - x0
    step = np.repeat(np.arange(cross.size), count)
    k = first[step] + np.arange(step.size) - np.repeat(np.cumsum(count) - count, count)
    x = x0[step] + (k - t[step]) / dt[step] * dx[step]
    order = np.lexsort((x, k))
    k, x = k[order], x[order]
    # A counterclockwise curve goes up right of its interior.
    inside = -np.cumsum(np.sign(dt[step][order])) > 0.5
    return np.bincount(k[:-1], weights=np.diff(x) * inside[:-1], minlength=lines)


def area(spec: FunctionSpec, r: float, resolution: int = DEFAULT_RESOLUTION) -> FunctionalValue:
    """Set area of f(r D) (no multiplicity) from sections of f(r T) - f(0).

    By the argument principle the winding number of f(r T) around w counts
    the preimages of w in r D, so f(r D) is where it is positive.  The value
    is the midpoint sum h sum L(y_k) over the resolution row centres y_k of
    the boundary curve's box, where L(y) is the length of that set on the
    line y.  A line y of a row lies within h/2 of its centre y_k, and
    |L(y) - L(y_k)| is at most the x-extent of the polyline between the two
    lines; integrated over the half rows, each step counts once, so the
    error estimate (h/2) sum |dx| over the steps bounds the polyline's error.
    The boundary curve may use at most SAMPLE_CAP samples; ResourceError
    when it needs more.
    """
    _, values, (_, y0, _, h) = _boundary_curve(spec._centring[0], r, resolution)
    if h == 0.0:
        return FunctionalValue("area", 0.0, 0.0, flags=("degenerate",), method="raster")
    value = h * float(np.sum(_sections(values, y0 + 0.5 * h, h, resolution)))
    err = 0.5 * h * float(np.sum(np.abs(np.roll(values.real, -1) - values.real)))
    return FunctionalValue(kind="area", value=value, abs_error=err, method="raster")


def _contour_terms(spec: FunctionSpec, z: np.ndarray) -> np.ndarray:
    """Green's integrand conj(f) z f' of the spec at the points z."""
    w, f1 = jet(spec, z, 1)
    return np.conj(w) * z * f1


@np.errstate(over="ignore", invalid="ignore")
def area_univalent_series(spec: FunctionSpec, r: float) -> FunctionalValue:
    """Area of f(r D) when f is injective on r D, by Green's theorem: pi
    times the mean of Re(conj(w) z f') over m points of |z| = r, w the
    samples of f - f(0) (spec._centring).  The trapezoid sum converges
    geometrically on this periodic analytic integrand (Trefethen and
    Weideman, SIAM Review 56, 2014): m doubles from 64, adding midpoints,
    until two sums agree within 2^-42 of the mean term size, the rounding
    allowed for errors that all terms share, and agree with a sum on m/2 + 1
    points turned by the golden fraction of their step, which does not count
    the modes at multiples of m alike as the doubled sums do.  The error
    estimate is that rounding or, if larger, the root mean square error of
    a term, read off the modes above 7m/16 where only rounding is left: by
    Cauchy-Schwarz it bounds the sum's error however the term errors
    correlate, as the centred samples of a Moebius map near |b| = 1 do.
    ResourceError when a sum is not finite or needs over CONTOUR_CAP points.
    """
    centered = spec._centring[0]
    sample = sample_circle(centered, r, 64, order=1)
    terms = np.conj(sample.values) * sample.points * sample.derivatives[0]
    last = None
    while True:
        m = terms.size
        value = np.pi * float(np.mean(terms.real))
        rounding = 2.0**-42 * np.pi * float(np.mean(np.abs(terms)))
        if not np.isfinite(value + rounding):
            raise ResourceError("the contour sum of the area is not finite")
        if last is not None and abs(value - last) <= rounding:
            n = m // 2 + 1
            turned = r * np.exp(2j * np.pi * (np.arange(n) + 0.5 * (np.sqrt(5.0) - 1.0)) / n)
            check = np.pi * float(np.mean(_contour_terms(centered, turned).real))
            if abs(check - value) <= rounding:
                modes = np.abs(np.fft.rfft(terms.real)[-(m // 16) :])
                spread = np.pi * float(np.hypot.reduce(modes)) / np.sqrt(m * modes.size)
                return FunctionalValue("area", value, max(rounding, spread), method="series")
        if 2 * m > CONTOUR_CAP:
            raise ResourceError(f"the contour sum of the area needs over {m} points")
        midpoints = r * np.exp(1j * np.pi * (2 * np.arange(m) + 1) / m)
        terms = np.stack([terms, _contour_terms(centered, midpoints)], axis=1).ravel()
        last = value


# ---- perimeter ----


def circle_image_length(spec: FunctionSpec, r: float) -> FunctionalValue:
    """Length of the curve f(r T) counting multiplicity: integral of |f'| r,
    by adaptive Gauss-Kronrod quadrature to LENGTH_QUAD_TOL, one derivative
    call per pass.  The error estimate is QUADPACK's, floored at the
    tolerance asked for, which QUADPACK's can undercut.

    Always an upper bound for the perimeter of the image set; equals it
    when f is injective on the closed disk of radius r.
    """

    def integrand(theta: np.ndarray) -> np.ndarray:
        return np.abs(derivative(spec, r * np.exp(1j * theta))) * r

    value, err = integrate(integrand, 0.0, 2.0 * np.pi, abs_tol=LENGTH_QUAD_TOL)
    err = max(err, LENGTH_QUAD_TOL * max(1.0, abs(value)))
    return FunctionalValue(kind="perim", value=value, abs_error=err, flags=("circle_image",))


# ---- univalence ----


def _near_pairs(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> tuple:
    """The index pairs i < j of the points (x, y) that lie at most
    (d_i + d_j) / 2 apart by np.hypot, max d > 0, as two arrays (i, j) in no
    particular order.

    A uniform grid of cells (Bentley, Stanat and Williams 1977) of side max d,
    widened by 2^-20 so that the rounding of the cell indices cannot put two
    such points two cells apart.  Sorted by the key cx span + cy + 1, two
    ranges of consecutive keys cover half of each point's neighbourhood: the
    rest of its own cell and the cell above it, then the three cells of the
    next column.  Each range is filtered before the next is built.
    """
    side = float(np.max(d)) * (1.0 + 2.0**-20)
    cx = ((x - np.min(x)) / side).astype(np.int64)
    cy = ((y - np.min(y)) / side).astype(np.int64)
    # A polyline whose longest step is max d spans at most N max d, so the
    # keys of its N points stay below (N + 3)^2 <= 2^50 at SAMPLE_CAP.
    span = int(np.max(cy)) + 3
    key = cx * span + cy + 1
    order = np.argsort(key, kind="stable")
    key, x, y, d = key[order], x[order], y[order], d[order]
    pos = np.arange(key.size)
    found = []
    for lo, hi in (
        (pos + 1, np.searchsorted(key, key + 2)),
        (np.searchsorted(key, key + span - 1), np.searchsorted(key, key + span + 2)),
    ):
        count = hi - lo
        s = np.repeat(pos, count)
        t = np.arange(s.size) + np.repeat(lo - np.cumsum(count) + count, count)
        near = np.hypot(x[t] - x[s], y[t] - y[s]) <= 0.5 * (d[s] + d[t])
        found.append(order[np.stack([s[near], t[near]])])
    pairs = np.concatenate(found, axis=1)
    return np.min(pairs, axis=0), np.max(pairs, axis=0)


def _self_crossing(spec: FunctionSpec, r: float, min_sep: float):
    """Two points of r T at least min_sep apart with the same image, or None.

    Candidates are proper crossings of segments of the boundary polyline of
    f - f(0), whose midpoints lie within half their two steps of each other
    (_near_pairs); Newton's method on the two boundary angles, dropping
    steps that are not finite, solves f(r e^(i t1)) = f(r e^(i t2)) for
    4096 candidates at a time, in order, until one counts, on f - f(0)
    scaled by a power of two that brings it near 1 (2^1000 at most), which
    keeps the products of coordinates finite.  The diagonal t1 = t2 solves
    it too, hence the separation floor.  A curve with no proper crossing
    gives None with no Newton step, and one constant to rounding (cells of
    zero size) with no search: only an annulus cover, its own centred spec,
    of c below about 1e-13, injective on every disk it admits.
    """
    spec = spec._centring[0]
    angles, w, (_, _, cell, _) = _boundary_curve(spec, r)
    if cell == 0.0:
        return None
    unit = 2.0 ** min(-float(np.frexp(np.max(np.abs(w)))[1]), 1000.0)
    w = w * unit
    seg = np.roll(w, -1) - w
    mid = w + 0.5 * seg
    i, j = _near_pairs(mid.real, mid.imag, np.abs(seg))
    apart = (np.abs(i - j) > 1) & (np.abs(i - j) < w.size - 1)
    i, j = i[apart], j[apart]
    c1, c2 = _cross(seg[i], w[j] - w[i]), _cross(seg[i], w[j] + seg[j] - w[i])
    c3, c4 = _cross(seg[j], w[i] - w[j]), _cross(seg[j], w[i] + seg[i] - w[j])
    proper = (c1 * c2 < 0.0) & (c3 * c4 < 0.0)
    i, j, c1, c2, c3, c4 = (a[proper] for a in (i, j, c1, c2, c3, c4))
    widths = np.append(angles[1:], 2.0 * np.pi) - angles
    start1 = angles[i] + c3 / (c3 - c4) * widths[i]
    start2 = angles[j] + c1 / (c1 - c2) * widths[j]
    scale = 2.0 * float(np.max(np.abs(w - np.mean(w))))
    for lo in range(0, start1.size, 4096):
        t1, t2 = start1[lo : lo + 4096], start2[lo : lo + 4096]
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(20):
                z1, z2 = r * np.exp(1j * t1), r * np.exp(1j * t2)
                (w1, f1), (w2, f2) = jet(spec, z1, 1), jet(spec, z2, 1)
                gap = w1 * unit - w2 * unit
                g1 = 1j * z1 * (f1 * unit)
                g2 = -1j * z2 * (f2 * unit)
                det = _cross(g1, g2)
                t1, t2 = t1 - _cross(gap, g2) / det, t2 - _cross(g1, gap) / det
                finite = np.isfinite(t1 + t2)
                t1 = t1[finite]
                t2 = t2[finite]
            z1, z2 = r * np.exp(1j * t1), r * np.exp(1j * t2)
            miss = np.abs(evaluate(spec, z1) * unit - evaluate(spec, z2) * unit)
            ok = (miss < 1e-9 * scale) & (np.abs(z1 - z2) > min_sep)
        if np.any(ok):
            k = int(np.flatnonzero(ok)[0])
            return complex(z1[k]), complex(z2[k])
    return None


def is_univalent_sampled(spec: FunctionSpec, r: float) -> UnivalenceResult:
    """Injectivity of f on the closed disk r D by the Darboux-Picard theorem.

    For f analytic on a neighbourhood of the disk, f is injective exactly
    when f' has no zeros there and f(r T) is a simple curve.  The zeros of
    f' come exact from the spec, critical_points, and one within |z| <=
    r (1 + 1e-12) counts as on the disk.  Self-crossings of f(r T) are
    searched on area's boundary polyline of f - f(0) and confirmed by
    Newton's method.  A false verdict carries a critical point (z, z) or a
    colliding pair (z1, z2).
    """
    zeros = critical_points(spec)
    inside = zeros[np.abs(zeros) <= r * (1.0 + 1e-12)]
    if inside.size:
        z = complex(inside[0])
        return UnivalenceResult(False, (z, z), "vanishing derivative")
    # f is locally injective, so a genuine collision is not within 2 pi r / 4096
    # of the diagonal.
    pair = _self_crossing(spec, r, 2.0 * np.pi * r / 4096)
    if pair is not None:
        return UnivalenceResult(False, pair, "image collision")
    return UnivalenceResult(True, None, "")


def _areas(spec: FunctionSpec, radii, method: str, resolution: int = DEFAULT_RESOLUTION) -> list:
    """The area of f(r D) at each of the radii, each labelled with its
    method: "series", the contour sum of area_univalent_series, or "raster",
    the scanline sections of area.  "auto" is resolved once, at the largest
    radius: the contour sum when f is injective on that disk and the sum
    converges there, which is then that radius's area, and the raster
    otherwise; every other radius takes the method it resolved to."""
    outer, summed = max(radii), {}
    if method == "auto":
        method = "raster"
        with suppress(ResourceError):
            if is_univalent_sampled(spec, outer):
                summed, method = {outer: area_univalent_series(spec, outer)}, "series"
    estimate = area_univalent_series if method == "series" else partial(area, resolution=resolution)
    return [summed[r] if r in summed else estimate(spec, r) for r in radii]


# ---- capacity bracket ----


def _capacity_brackets(
    spec: FunctionSpec, radii, n: int, m: int, resolution: int, seed: int, area_method: str
) -> list:
    """capacity_bracket at each radius, the d_n tuples of all radii polished
    as the rows of one descent; the estimator of KINDS["cap"]."""
    areas = _areas(spec, radii, area_method, resolution)
    dns = _n_diameters(spec, radii, n, m=m, seed=seed)
    norm = disk_n_diameter(n)
    brackets = []
    for a, dn in zip(areas, dns):
        lo_raw = float(np.sqrt(max(a.value, 0.0) / np.pi))
        hi_raw = dn.value / norm
        err_lo = (
            a.abs_error / (2.0 * np.sqrt(np.pi * a.value)) if a.value > a.abs_error
            else float(np.sqrt(max(a.value + a.abs_error, 0.0) / np.pi)) - lo_raw
        )
        lo = max(lo_raw - err_lo, 0.0)
        hi = hi_raw + dn.abs_error / norm
        flags = tuple(dn.flags) + (("bracket_inverted",) if lo_raw > hi_raw else ())
        brackets.append(FunctionalValue(
            kind="cap", value=0.5 * (lo + hi), abs_error=0.5 * (hi - lo), witness=dn.witness,
            interval=(lo, hi), n=n, flags=flags, method=a.method,
        ))
    return brackets


def capacity_bracket(
    spec: FunctionSpec, r: float, n: int = 8, m: int = DEFAULT_SAMPLES,
    resolution: int = DEFAULT_RESOLUTION, seed: int = 0, area_method: str = "raster",
) -> FunctionalValue:
    """Two-sided bracket for the logarithmic capacity of f(r D).

    Lower endpoint sqrt(Area / pi), upper endpoint d_n / n^(1/(n-1)).
    Estimator errors are propagated outward into the interval; the value
    is the midpoint.  The bracket_inverted flag signals under-resolution.
    The one-radius case of _capacity_brackets, which a cap growth curve
    calls on its whole grid.
    """
    return _capacity_brackets(spec, [r], n, m, resolution, seed, area_method)[0]


# ---- functional kinds ----


@dataclass(frozen=True)
class FunctionalKind:
    """One functional F of the image set: its estimator and normalizer.

    estimator(spec, radii, n, **knobs) estimates F(f(r D)) at each of the
    radii, a list of FunctionalValues, from the knobs it uses: diam, ndiam
    and cap polish the tuples of all radii in one descent, the other kinds
    loop over the radii.  estimates calls it on a grid and estimate on one
    radius.  norm(r, n) is F(r D), so norm(1, n) is the unit-disk value, and
    `normalization` labels it.  area and cap read area_method through
    _areas, which resolves "auto" once per grid, at its largest radius, and
    labels each value with its method.  Growth curves plot the interval's
    upper end when upper_endpoint is set; F scales as |s|^2 under f -> s f
    when squared is set.  `report` names the growth inequality report.
    """

    estimator: Callable[..., FunctionalValue]
    norm: Callable[[float, int], float]
    normalization: str
    report: str
    upper_endpoint: bool = False
    squared: bool = False

    def estimates(
        self,
        spec: FunctionSpec,
        radii,
        n: int = 4,
        *,
        m: int = DEFAULT_SAMPLES,
        resolution: int = DEFAULT_RESOLUTION,
        seed: int = 0,
        area_method: str = "raster",
    ) -> list:
        return self.estimator(
            spec, radii, n, m=m, resolution=resolution, seed=seed, area_method=area_method
        )

    def estimate(self, spec: FunctionSpec, r: float, n: int = 4, **knobs) -> FunctionalValue:
        return self.estimates(spec, [r], n, **knobs)[0]

    def curve_value(self, fv: FunctionalValue) -> float:
        return fv.interval[1] if self.upper_endpoint else fv.value


# The order is the order of the CLI's --kind choices.
KINDS = {
    "rad": FunctionalKind(
        lambda spec, radii, n, m, **_: [radius(spec, r, m=m) for r in radii],
        lambda r, n: r, "r", "SchwarzGrowth",
    ),
    "diam": FunctionalKind(
        lambda spec, radii, n, m, **_: _diameters(spec, radii, m=m),
        lambda r, n: 2.0 * r, "2r", "LandauToeplitz",
    ),
    "ndiam": FunctionalKind(
        lambda spec, radii, n, m, seed, **_: _n_diameters(spec, radii, n, m=m, seed=seed),
        lambda r, n: disk_n_diameter(n) * r, "n^(1/(n-1)) r", "NDiamGrowth",
    ),
    "cap": FunctionalKind(
        _capacity_brackets, lambda r, n: r, "r", "CapGrowth", upper_endpoint=True,
    ),
    "area": FunctionalKind(
        lambda spec, radii, n, resolution, area_method, **_: _areas(
            spec, radii, area_method, resolution
        ),
        lambda r, n: np.pi * r * r, "pi r^2", "AreaGrowth", squared=True,
    ),
    "perim": FunctionalKind(
        lambda spec, radii, n, **_: [circle_image_length(spec, r) for r in radii],
        lambda r, n: 2.0 * np.pi * r, "2 pi r", "PerimGrowth",
    ),
}


def functional_kind(name: str) -> FunctionalKind:
    """The KINDS entry for name; DomainError for an unknown kind."""
    if name not in KINDS:
        raise DomainError(f"unknown functional kind {name!r}")
    return KINDS[name]
