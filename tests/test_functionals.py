"""Image-set functionals against closed-form oracles.

Oracles: automorphism images of subdisks are exact disks, z^2 maps r D
onto the disk of radius r^2, and the n-point diameter of a disk is the
scaled root-of-unity value n^(1/(n-1)) r.
"""

import cmath
import contextlib
import math
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diskgeom import (
    AnnulusCover,
    Moebius,
    OptimizationWarning,
    Polynomial,
    PowerSeries,
    ResourceError,
    area,
    area_annulus_cover,
    area_univalent_series,
    capacity_bracket,
    check_polya_chain,
    circle_image_length,
    diameter,
    disk_n_diameter,
    evaluate,
    is_univalent_sampled,
    n_diameter,
    radius,
    sample_circle,
    scale_spec,
    taylor_coefficients,
)
import diskgeom
from diskgeom import analytic, functionals, quadrature
from diskgeom.functionals import _boundary_curve

SEED = 20260815
IDENTITY = Polynomial((0.0, 1.0))
SQUARE = Polynomial((0.0, 0.0, 1.0))
KOEBE_LIKE = Polynomial((0.0, 1.0, 0.2))
# Small images far from 0: f itself is rounded to float spacings of f(0)
# that span many cells of area's box; the estimators sample f - f(0), which
# keeps the digits.
FAR_SMALL = (
    Polynomial((1e5, 1e-8)),
    Polynomial((1e5, 1e-8, 5e-9)),
    Polynomial((1e5j, 1e-8)),
    Polynomial((7e4 + 7e4j, 1e-8)),
)


def moebius_diameter(b: float, r: float) -> float:
    # Image of r D under (z - b)/(1 - b z) is a disk with real endpoints
    # f(r) and f(-r); the diameter is 2 r (1 - b^2) / (1 - b^2 r^2).
    return 2.0 * r * (1.0 - b * b) / (1.0 - b * b * r * r)


def test_radius_identity_and_scaling():
    for r in (0.1, 0.5, 0.9):
        fv = radius(IDENTITY, r)
        assert abs(fv.value - r) <= 1e-9
        assert fv.abs_error <= 1e-5
        fv3 = radius(Polynomial((5.0, 3.0)), r)
        assert abs(fv3.value - 3.0 * r) <= 1e-8


def test_radius_moebius_reaches_far_endpoint():
    fv = radius(Moebius(0.0, 0.5, 1.0), 0.8)
    assert abs(fv.value - 1.0) <= 1e-9
    w = complex(fv.witness[0])
    assert abs(w - 0.5) <= 1e-4


def test_radius_square_map():
    fv = radius(SQUARE, 0.7)
    assert abs(fv.value - 0.49) <= 1e-9


def test_diameter_square_map_is_disk_diameter():
    fv = diameter(SQUARE, 0.5)
    assert abs(fv.value - 0.5) <= 1e-9


def test_diameter_moebius_closed_form():
    for r in (0.3, 0.6, 0.9):
        fv = diameter(Moebius(0.0, 0.5, 1.0), r)
        assert abs(fv.value - moebius_diameter(0.5, r)) <= 1e-8
        assert fv.abs_error <= 1e-4
        # The extremal pair is f(r), f(-r), both real.
        assert max(abs(w.imag) for w in fv.witness) <= 1e-12


def test_diameter_constant_is_degenerate():
    # A point has diameter, n-diameter and area 0 at every size of the
    # constant, the zero map included.
    for c in (0.0, 2.0, 1e5):
        for fv in (diameter(Polynomial((c,)), 0.5), n_diameter(Polynomial((c,)), 0.5, 4),
                   area(Polynomial((c,)), 0.5)):
            assert fv.value == 0.0
            assert "degenerate" in fv.flags


def test_diameter_witness_realizes_value():
    for r in (0.5, 0.8):
        fv = diameter(KOEBE_LIKE, r)
        w1, w2 = fv.witness
        assert abs(abs(w1 - w2) - fv.value) <= 1e-12
        # Real coefficients make the image symmetric in the real axis, and
        # the extremal pair of z + 0.2 z^2 is a conjugate pair.
        assert abs(w2 - w1.conjugate()) <= 1e-12


def test_n_diameter_disk_matches_roots_of_unity():
    # For the identity the optimal tuple is the scaled n-th roots of
    # unity, value n^(1/(n-1)) r.
    r = 0.9
    for n in (3, 4, 5):
        fv = n_diameter(IDENTITY, r, n, m=1024, seed=SEED)
        assert abs(fv.value - disk_n_diameter(n) * r) <= 1e-10
        assert fv.n == n
        mags = np.abs(np.array(fv.witness))
        assert np.max(np.abs(mags - r)) <= 1e-6


def test_n_diameter_of_every_sample_has_the_rounding_bar():
    # With n = m every sample is a slot, so the grid neighbours of each slot
    # are slots, their log sums are -inf, and no parabola adds to the bar:
    # it is the rounding floor, 2^-42 of the largest sample.
    fv = n_diameter(IDENTITY, 0.5, 3, m=3)
    assert abs(fv.value - 0.5 * disk_n_diameter(3)) <= 1e-15
    assert fv.abs_error == 2.0**-42 * float(np.max(np.abs(sample_circle(IDENTITY, 0.5, 3).values)))


def test_n_diameter_bar_counts_a_better_grid_neighbour(monkeypatch):
    # The full-grid exchange ends at a discrete maximum, where no grid
    # neighbour of a slot is better.  Should it stop short of one, here
    # with a slot in the dent of z + 0.45 z^2 at z = -1, where both
    # neighbours are better, the bar counts the larger gain.
    spec, m = Polynomial((0.0, 1.0, 0.45)), 1200
    stop = np.array([m // 2, m // 6, 5 * m // 6])
    original = functionals._exchange

    def stopping(w, starts):
        return np.array([stop]) if w.size == m else original(w, starts)

    monkeypatch.setattr(functionals, "_exchange", stopping)
    fv = n_diameter(spec, 1.0, 3, m=m)
    w = sample_circle(spec, 1.0, m).values
    sums = [np.sum(np.log(np.abs(w[stop[0] + k] - w[stop[1:]]))) for k in (-1, 0, 1)]
    gains = sums[0] - sums[1], sums[2] - sums[1]
    assert min(gains) > 0.0
    assert fv.abs_error >= fv.value * max(gains) / 3.0


def test_n_diameter_n2_equals_diameter():
    fv2 = n_diameter(KOEBE_LIKE, 0.7, 2, seed=SEED)
    fvd = diameter(KOEBE_LIKE, 0.7)
    assert abs(fv2.value - fvd.value) <= 1e-10


def test_n_diameter_monotone_in_r():
    vals = [n_diameter(KOEBE_LIKE, r, 4, m=1024, seed=SEED).value for r in (0.3, 0.5, 0.7)]
    assert vals[0] < vals[1] < vals[2]


# A polynomial, an automorphism, the annulus cover and a degree-5 polynomial.
SAMPLED_MAPS = (
    KOEBE_LIKE,
    Moebius(0.0, 0.5, 1.0),
    AnnulusCover(1.0),
    Polynomial((0.3, 1.0, -0.4j, 0.2, 0.1 + 0.1j, -0.05)),
)


def reference_exchange(w, idx, sweeps=80):
    """Coordinate exchange that recomputes every log distance at each step."""
    idx = np.array(idx, dtype=int)
    for _ in range(sweeps):
        changed = False
        for t in range(idx.size):
            others = w[np.delete(idx, t)]
            with np.errstate(divide="ignore"):
                scores = np.sum(np.log(np.abs(w[:, None] - others[None, :])), axis=1)
            pick = int(np.argmax(scores))
            if pick != idx[t]:
                idx[t], changed = pick, True
        if not changed:
            break
    return idx


@pytest.mark.parametrize("spec", SAMPLED_MAPS)
def test_exchange_matches_recomputing_reference(spec):
    # n = 10 sums 9 columns, past numpy's 8-term switch to partial sums.
    # Each start alone, and all starts of one (m, n) as the rows of one call.
    rng = np.random.default_rng(SEED)
    for m in (256, 1024):
        w = sample_circle(spec, 0.9, m).values
        for n in (3, 4, 5, 6, 10):
            starts = np.array([rng.choice(m, size=n, replace=False) for _ in range(3)])
            expected = np.array([reference_exchange(w, start) for start in starts])
            for start, end in zip(starts, expected):
                assert np.array_equal(functionals._exchange(w, [start]), [end])
            assert np.array_equal(functionals._exchange(w, starts), expected)


def test_exchange_rows_at_a_fixed_point_stay_while_others_move():
    # The row that starts at another row's end is a fixed point; the batch
    # keeps sweeping for the rows that need several sweeps, and each row
    # still ends where it ends alone.
    w = sample_circle(ac10_polynomial(0), 0.95, 1024).values
    rng = np.random.default_rng(SEED)
    moving = np.array([rng.choice(w.size, size=6, replace=False) for _ in range(4)])
    ends = np.array([reference_exchange(w, start) for start in moving])
    fixed = ends[0]
    assert np.array_equal(reference_exchange(w, fixed), fixed)
    for start, end in zip(moving, ends):
        assert not np.array_equal(reference_exchange(w, start, sweeps=2), end)
    batch = np.vstack([fixed, moving])
    assert np.array_equal(functionals._exchange(w, batch), np.vstack([fixed, ends]))


# The identity's samples form a regular m-gon, whose antipodal pairs tie.
@pytest.mark.parametrize("spec", SAMPLED_MAPS + (IDENTITY,))
def test_diameter_reaches_farthest_sample_pair(spec):
    # The subgrid search must not lose the farthest pair of the m samples
    # of f - f(0), up to the rounding in which tied antipodal pairs differ.
    # The witnesses are those samples moved by f(0), to rounding.
    f0 = complex(evaluate(spec, 0.0))
    for m in (3, 64, 256, 1024):
        for r in (0.3, 0.7, 0.95):
            w = sample_circle(spec._centered(), r, m).values
            fv = diameter(spec, r, m=m)
            assert fv.value >= float(np.max(np.abs(w[:, None] - w[None, :]))) * (1.0 - 4e-16)
            w1, w2 = fv.witness
            assert abs(abs(w1 - w2) - fv.value) <= 4e-16 * (abs(w1) + abs(w2) + abs(f0))


def diameter_candidates_by_all_cells(sample, maxima):
    # The reference candidates: the neighbours of every cell at the limit
    # read with wrapped indices, and i < j tested last.
    w, m = sample.values, sample.values.size
    stride = max(1, m // functionals.COARSE_SAMPLES)
    wc = w[::stride]
    dc = np.abs(wc[:, None] - wc[None, :])
    dtheta = 2.0 * np.pi / m
    limit = dc.max() - functionals._curvature(sample.r, maxima, dc.max()) * (stride * dtheta) ** 2
    ci, cj = np.nonzero(dc >= limit)
    peak = ci < cj
    for di, dj in ((0, 1), (1, 0), (1, 1), (1, -1), (0, -1), (-1, 0), (-1, -1), (-1, 1)):
        peak &= dc[ci, cj] >= dc[(ci + di) % wc.size, (cj + dj) % wc.size]
    ci, cj = ci[peak], cj[peak]
    value, witness, starts = 0.0, None, []
    for k in np.argsort(-dc[ci, cj], kind="stable")[: functionals.POLISHED]:
        rows, cols = ((c * stride + np.arange(-stride, stride + 1)) % m for c in (ci[k], cj[k]))
        diff = w[rows][:, None] - w[cols][None, :]
        a, b = np.unravel_index(np.argmax(np.hypot(diff.real, diff.imag)), diff.shape)
        i, j = rows[a], cols[b]
        if abs(complex(w[i] - w[j])) > value:
            value, witness = float(abs(complex(w[i] - w[j]))), (complex(w[i]), complex(w[j]))
        starts.append(sample.angles[[i, j]])
    return value, witness, np.array(starts)


@pytest.mark.parametrize("spec", SAMPLED_MAPS + (IDENTITY, SQUARE))
@pytest.mark.parametrize("m", [100, 300, 4096])
def test_diameter_candidates_equal_the_reference(spec, m):
    for r in (0.2, 0.6, 0.95):
        sample = sample_circle(spec, r, m, order=2)
        maxima = functionals._derivative_maxima(sample)
        value, witness, starts = functionals._diameter_candidates(sample, maxima)
        expected = diameter_candidates_by_all_cells(sample, maxima)
        assert (value, witness) == expected[:2]
        assert np.array_equal(starts, expected[2])


def test_area_raster_identity_quarter_disk():
    fv = area(IDENTITY, 0.5, resolution=512)
    assert abs(fv.value - np.pi * 0.25) <= 3.0 * fv.abs_error + 1e-12
    assert fv.abs_error <= 0.05


def test_area_raster_square_map_no_multiplicity():
    # z^2 covers the disk of radius r^2 twice; the set area must not
    # double-count.
    fv = area(SQUARE, 0.7, resolution=512)
    assert abs(fv.value - np.pi * 0.49**2) <= 3.0 * fv.abs_error
    for r in (0.5, 0.7):
        fv = area(SQUARE, r)
        assert abs(fv.value - np.pi * r**4) <= 3.0 * fv.abs_error


def test_winding_number_integral_is_covered_area():
    # The winding number of f(r T) counts preimages, so its integral, the
    # signed shoelace area of the boundary polyline, is the covered area
    # pi sum n |a_n|^2 r^(2n), multiplicity included, up to the polyline's
    # chords, which cost far less than area's error bar.
    for spec in (SQUARE, Polynomial((0.0, 1.0, 0.5)), ac10_polynomial(0)):
        coeffs = np.asarray(spec.coeffs)
        n = np.arange(coeffs.size)
        for r in (0.5, 0.7, 0.9):
            _, w, _ = _boundary_curve(spec, r)
            covered = 0.5 * float(np.sum(np.imag(np.conj(w) * np.roll(w, -1))))
            expected = np.pi * np.sum(n * np.abs(coeffs) ** 2 * r ** (2 * n))
            assert abs(covered - expected) <= area(spec, r).abs_error


def test_area_error_bar_covers_oracle():
    # (h/2) sum |dx| bounds the midpoint error of the sections.  annulus(1) at
    # r = 0.5 is the case where the midpoint-against-trapezoid difference
    # would not: the two sums read 2.8e-5 and 1.9e-5 high and differ by
    # 8.5e-6.
    cases = [(SQUARE, r, np.pi * r**4) for r in (0.5, 0.7)]
    cases += [(AnnulusCover(1.0), r, area_annulus_cover(1.0, r)) for r in (0.5, 0.8)]
    cases.append((AnnulusCover(3.0), 0.9, area_annulus_cover(3.0, 0.9)))
    for spec, r, expected in cases:
        fv = area(spec, r)
        assert abs(fv.value - expected) <= fv.abs_error


_unit = st.floats(-1.0, 1.0)
_poly_part = st.tuples(*[st.builds(complex, _unit, _unit)] * 3).filter(
    lambda c: max(map(abs, c)) >= 0.1
)
_turn = st.floats(0.0, 2.0 * np.pi).map(lambda t: cmath.exp(1j * t))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    _poly_part, st.floats(0.3, 0.9), _turn, _turn,
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    st.builds(lambda a, u: a * u, st.floats(0.1, 10.0), _turn),
)
def test_area_invariances_property(part, r, pre, post, shift, s):
    # Rotating z or f and translating f leave the area unchanged; s f
    # scales it by |s|^2.  Each image is sampled on its own polyline.
    coeffs = np.array((0.0,) + part)
    base = area(Polynomial(tuple(coeffs)), r)
    k = np.arange(coeffs.size)
    for image in (coeffs * pre**k, post * coeffs, np.concatenate(([shift], coeffs[1:]))):
        fv = area(Polynomial(tuple(image)), r)
        assert abs(fv.value - base.value) <= fv.abs_error + base.abs_error
    fv = area(Polynomial(tuple(s * coeffs)), r)
    assert abs(fv.value - abs(s) ** 2 * base.value) <= fv.abs_error + abs(s) ** 2 * base.abs_error


_polynomial = st.lists(st.builds(complex, _unit, _unit), min_size=2, max_size=6).filter(
    lambda c: max(map(abs, c[1:])) >= 0.1
)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    _polynomial, st.floats(0.05, 0.999), _turn, _turn,
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), st.floats(-100.0, 100.0),
)
def test_boundary_estimators_invariant_under_rigid_motions(coeffs, r, pre, post, shift, log_s):
    # s (post f(pre z) + shift), with |pre| = |post| = 1, moves the image
    # rigidly and scales it by s: its radius about f(0), diameter and
    # n-diameters are s times those of f.  The bars of s f scale with it,
    # the area's with s^2: no absolute floor sets them.
    s = 10.0**log_s
    coeffs = np.array(coeffs)
    moved = post * coeffs * pre ** np.arange(coeffs.size)
    moved[0] += shift
    f, g, h = (Polynomial(tuple(c)) for c in (coeffs, s * moved, s * coeffs))
    for estimate in (radius, diameter, lambda spec, r: n_diameter(spec, r, 3),
                     lambda spec, r: n_diameter(spec, r, 4)):
        a, b, c = estimate(f, r), estimate(g, r), estimate(h, r)
        assert abs(s * a.value - b.value) <= s * a.abs_error + b.abs_error
        assert 0.5 * s * a.abs_error <= c.abs_error <= 2.0 * s * a.abs_error
    a, c = area(f, r, resolution=256), area(h, r, resolution=256)
    assert 0.5 * s * s * a.abs_error <= c.abs_error <= 2.0 * s * s * a.abs_error


def translated(spec, t):
    """f + t as a spec of the same variant."""
    if isinstance(spec, Moebius):
        return Moebius(spec.a + t, spec.b, spec.c)
    return Polynomial((spec.coeffs[0] + t,) + spec.coeffs[1:])


_moebius = st.builds(
    Moebius, st.builds(complex, _unit, _unit),
    st.builds(lambda a, u: a * u, st.floats(0.0, 0.9), _turn), _turn,
)
# t of size up to 1e20 times the image's.
_translation = st.builds(
    lambda x, y, e: complex(x, y) * 10.0**e, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
    st.floats(-2.0, 20.0),
)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.one_of(_polynomial.map(lambda c: Polynomial(tuple(c))), _moebius), st.floats(0.1, 0.95),
       _translation)
def test_estimates_are_bit_identical_under_a_translation_of_f(spec, r, t):
    # Every estimator samples f - f(0), which f + t shares with f: values,
    # bars and flags do not move, and the witnesses, image points, move by
    # t to rounding.
    t *= max(map(abs, spec.coeffs[1:])) if isinstance(spec, Polynomial) else 1.0
    moved = translated(spec, t)
    for estimate in (
        radius, diameter, lambda spec, r: n_diameter(spec, r, 3),
        lambda spec, r: area(spec, r, resolution=256),
        lambda spec, r: capacity_bracket(spec, r, resolution=256),
    ):
        a, b = estimate(spec, r), estimate(moved, r)
        assert (a.value, a.abs_error, a.interval) == (b.value, b.abs_error, b.interval)
        assert a.flags == b.flags
        for p, q in zip(a.witness or (), b.witness or (), strict=True):
            assert abs(q - p - t) <= 4.0 * np.finfo(float).eps * (abs(p) + abs(q))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.floats(-100.0, 100.0), _turn, st.floats(0.05, 1.0), _translation)
def test_linear_maps_meet_their_closed_forms_within_the_bar(log_c, turn, r, t):
    # c z + t maps r D onto a disk of radius |c| r.  At n = 4 and 8, which
    # divide the 4096 samples, the n-diameter's regular n-gon lies on the
    # grid and has no parabola, so the rounding floor is its whole bar, and
    # it must cover the rounding of log distances near 1e+-100.
    c = 10.0**log_c * turn
    spec, size = Polynomial((t * abs(c), c)), abs(c) * r
    cases = [(radius(spec, r), size), (diameter(spec, r), 2.0 * size)]
    cases += [(n_diameter(spec, r, n), size * disk_n_diameter(n)) for n in (3, 4, 8)]
    cases += [(estimate(spec, r), np.pi * size**2) for estimate in (area, area_univalent_series)]
    for fv, exact in cases:
        assert abs(fv.value - exact) <= fv.abs_error
    lo, hi = capacity_bracket(spec, r, resolution=256).interval
    assert lo <= size <= hi


def test_a_small_image_far_from_0_keeps_its_digits():
    # Sampled on f itself, these read radius 1.0033 +- 1.1e-6 for 1.143, a
    # degenerate diameter and raster area of 0 +- 0, a ResourceError, a
    # Moebius image called a point, a bar 100 times the diameter, and a
    # diameter 13,000 off against a bar of 5.3.
    near, far = Polynomial((0.0, 1.0, 0.3)), Polynomial((1e20, 1.0, 0.3))
    for estimate in (radius, diameter, area):
        a, b = estimate(near, 0.9), estimate(far, 0.9)
        assert (a.value, a.abs_error, a.flags) == (b.value, b.abs_error, ())
    assert radius(far, 0.9).value == 1.143
    assert abs(diameter(far, 0.9).value - 2.00664) <= 1e-5
    assert area(Polynomial((1e14, 1.0, 0.3)), 0.9).value == area(near, 0.9).value
    fv = diameter(Moebius(1e15, 0.5, 1.0), 0.9)
    assert abs(fv.value - moebius_diameter(0.5, 0.9)) <= fv.abs_error and not fv.flags
    assert abs(fv.value - 1.69279) <= 1e-5
    fv = diameter(Polynomial((0.0, 1e-15)), 0.5)
    assert abs(fv.value - 1e-15) <= fv.abs_error <= 1e-5 * fv.value
    tiny, unit = area(Polynomial((0.0, 1e-13)), 0.5), area(IDENTITY, 0.5)
    assert tiny.abs_error / tiny.value == pytest.approx(unit.abs_error / unit.value, rel=1e-9)
    offset, plain = Polynomial((1e20 * (1 + 1j), 1e6, 5e5)), Polynomial((0.0, 1e6, 5e5))
    for estimate in (diameter, lambda spec, r: n_diameter(spec, r, 4)):
        assert estimate(offset, 1.0).value == estimate(plain, 1.0).value


def test_area_series_koebe_like():
    fv = area_univalent_series(KOEBE_LIKE, 0.6)
    expected = np.pi * (0.36 + 2.0 * 0.04 * 0.6**4)
    assert abs(fv.value - expected) <= 1e-12


def test_area_series_matches_raster_when_univalent():
    fv_s = area_univalent_series(KOEBE_LIKE, 0.5)
    fv_r = area(KOEBE_LIKE, 0.5, resolution=512)
    assert abs(fv_s.value - fv_r.value) <= 2.0 * (fv_s.abs_error + fv_r.abs_error)
    for spec in FAR_SMALL:
        fv_s = area_univalent_series(spec, 0.5)
        fv_r = area(spec, 0.5)
        assert abs(fv_s.value - fv_r.value) <= fv_r.abs_error


def series_area(coeffs, r: float) -> float:
    """pi sum k |a_k|^2 r^(2k), the area of f(r D) for a polynomial f
    injective on r D: the coefficient oracle of the contour sum."""
    return math.pi * math.fsum(k * abs(a) ** 2 * r ** (2 * k) for k, a in enumerate(coeffs))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.builds(complex, _unit, _unit), min_size=1, max_size=6),
    st.builds(complex, _unit, _unit).filter(lambda a: abs(a) >= 0.1),
    st.floats(0.0, 0.999), st.floats(0.01, 1.0), st.floats(-100.0, 100.0),
    st.builds(complex, st.floats(-1e20, 1e20), st.floats(-1e20, 1e20)),
)
def test_contour_area_equals_the_series_on_univalent_polynomials(tail, a1, fill, r, log_s, a0):
    # AC12's construction: sum_{k>=2} k |a_k| < |a_1| makes f injective on
    # the closed disk, where the contour sum is the series area to within
    # its bar, whatever f(0) and the scale of f.
    weight = np.arange(2, len(tail) + 2)
    tail = np.array(tail) * (fill * abs(a1) / max(float(np.sum(weight * np.abs(tail))), 1e-300))
    s = 10.0**log_s
    coeffs = (a0 * s, a1 * s) + tuple(tail * s)
    fv = area_univalent_series(Polynomial(coeffs), r)
    assert abs(fv.value - series_area(coeffs, r)) <= fv.abs_error


@pytest.mark.parametrize(
    "b", [0.0, 0.3, 0.9j, 0.99 * cmath.exp(2j), 0.99, 0.99999, 0.999999 * cmath.exp(2j)]
)
@pytest.mark.parametrize("r", [0.3, 0.9, 0.999, 1.0])
def test_contour_area_of_a_moebius_map_is_its_disk(b, r):
    # f(r D) is the disk of radius r (1 - |b|^2) / (1 - |b|^2 r^2); mpmath
    # takes |b|^2 exact from the parts of the float b.  For |b| near 1 each
    # sample of f - f(0) carries the rounding of a value near -c b, which the
    # error estimate must count, and the sum may not converge by CONTOUR_CAP.
    spec = Moebius(2.0 - 1.0j, b, cmath.exp(0.7j))
    with mpmath.workdps(40):
        b2 = mpmath.mpf(spec.b.real) ** 2 + mpmath.mpf(spec.b.imag) ** 2
        expected = float(mpmath.pi * (r * (1 - b2) / (1 - b2 * r * r)) ** 2)
    if abs(b) > 0.99:
        with contextlib.suppress(ResourceError):
            fv = area_univalent_series(spec, r)
            assert abs(fv.value - expected) <= fv.abs_error <= 1e-9 * expected
        return
    fv = area_univalent_series(spec, r)
    assert abs(fv.value - expected) <= fv.abs_error <= 1e-12 * expected


@settings(max_examples=40, deadline=None)
@given(st.floats(0.99, 0.9999999), st.floats(0.0, 2.0 * math.pi), st.floats(0.05, 1.0))
def test_contour_area_error_covers_a_moebius_map_near_the_circle(size, angle, r):
    spec = Moebius(0.3 + 0.2j, size * cmath.exp(1j * angle), cmath.exp(0.4j))
    with mpmath.workdps(40):
        b2 = mpmath.mpf(spec.b.real) ** 2 + mpmath.mpf(spec.b.imag) ** 2
        expected = float(mpmath.pi * (r * (1 - b2) / (1 - b2 * r * r)) ** 2)
    with contextlib.suppress(ResourceError):
        fv = area_univalent_series(spec, r)
        assert abs(fv.value - expected) <= fv.abs_error


@pytest.mark.parametrize("r", [0.99, 1.0])
@pytest.mark.parametrize(
    "tail",
    [
        {129: 1.0 / 258.0},
        {129: cmath.exp(0.3j) / 258.0},
        {129: 0.1 / 129.0, 257: 0.2j / 257.0, 385: -0.3 / 385.0},
    ],
)
def test_contour_area_sees_the_modes_its_doubling_aliases(tail, r):
    # f = z + sum a_k z^k with k = 1 mod 128 is injective on the closed disk
    # (sum k |a_k| < 1), and its integrand has modes at multiples of 128
    # only, which the sums on 64 and 128 points count alike.
    coeffs = [0j, 1.0 + 0j] + [0j] * max(tail)
    for k, a in tail.items():
        coeffs[k] = a
    for kind in (Polynomial, PowerSeries):
        fv = area_univalent_series(kind(tuple(coeffs)), r)
        assert abs(fv.value - series_area(coeffs, r)) <= fv.abs_error


@pytest.mark.parametrize("c, share", [(0.1, 0.99), (0.5, 0.5), (1.0, 0.99), (3.0, 0.99)])
def test_contour_area_of_an_annulus_cover_below_its_threshold(c, share):
    # Below tanh(pi / 2c) the cover is injective; mpmath integrates
    # Green's integrand, |f|^2 Re(2ic z / (1 - z^2)), on four quarter turns.
    r = share * math.tanh(math.pi / (2.0 * c))
    fv = area_univalent_series(AnnulusCover(c), r)
    with mpmath.workdps(20):
        def green(t):
            z = r * mpmath.expj(t)
            return abs(mpmath.exp(2j * c * mpmath.atanh(z))) ** 2 * mpmath.re(2j * c * z / (1 - z * z))
        expected = float(mpmath.quad(green, mpmath.linspace(0, 2 * mpmath.pi, 5)) / 2)
    assert abs(fv.value - expected) <= fv.abs_error <= 1e-12 * expected


def counting_contour_sums(monkeypatch) -> list:
    """Wrap functionals.area_univalent_series; each call appends its
    arguments to the list returned."""
    calls, contour = [], functionals.area_univalent_series
    monkeypatch.setattr(
        functionals, "area_univalent_series", lambda *args: calls.append(args) or contour(*args)
    )
    return calls


def test_contour_area_stops_at_its_budget(monkeypatch):
    # annulus(0.1) is injective on every disk it admits; its contour sum
    # converges in 65,536 points at r = 0.999, where f' near z = +-1 carries
    # a few hundred rounding errors of 1 - z^2, and would need about 2^22
    # at 0.9999, past CONTOUR_CAP, so "auto" takes the raster there.
    assert area_univalent_series(AnnulusCover(0.1), 0.999).abs_error <= 1e-10
    with pytest.raises(ResourceError, match="131072 points"):
        area_univalent_series(AnnulusCover(0.1), 0.9999)
    calls = counting_contour_sums(monkeypatch)
    [fv] = functionals._areas(AnnulusCover(0.1), [0.9999], "auto", resolution=64)
    assert fv == area(AnnulusCover(0.1), 0.9999, resolution=64)
    assert fv.method == "raster"
    # The one sum that ran is the one that gave up.
    assert calls == [(AnnulusCover(0.1), 0.9999)]


def test_contour_area_that_overflows_stops_at_once(monkeypatch):
    # The first 64 terms overflow; the sum raises before it evaluates a
    # midpoint, where doubling to CONTOUR_CAP took seconds.
    calls = []
    monkeypatch.setattr(functionals, "jet", lambda *args: calls.append(args))
    with pytest.raises(ResourceError):
        area_univalent_series(Polynomial((0.0, 1e200, 1e200)), 0.4)
    assert calls == []


def test_auto_area_reads_the_contour_of_every_univalent_variant(monkeypatch):
    for spec, r in ((KOEBE_LIKE, 0.6), (Moebius(0.5, 0.5j, 1.0), 0.9), (AnnulusCover(1.0), 0.8)):
        expected = area_univalent_series(spec, r)
        assert expected.method == "series"
        assert functionals._areas(spec, [r], "auto") == [expected]
    # Not injective: z^2, and the cover past its threshold.  No contour sum runs.
    calls = counting_contour_sums(monkeypatch)
    for spec, r in ((SQUARE, 0.5), (AnnulusCover(1.0), 0.95)):
        [fv] = functionals._areas(spec, [r], "auto")
        assert fv == area(spec, r)
        assert fv.method == "raster"
    assert calls == []


def test_auto_area_sums_the_contour_once(monkeypatch):
    calls = counting_contour_sums(monkeypatch)
    assert functionals._areas(AnnulusCover(0.1), [0.999], "auto")[0].method == "series"
    [polya, _] = check_polya_chain(KOEBE_LIKE, 0.6)
    assert polya.context["area_method"] == "series"
    assert calls == [(AnnulusCover(0.1), 0.999), (KOEBE_LIKE, 0.6)]


def resolved_method(spec, r) -> str:
    """The method that "auto" takes on r D: the contour sum when f is
    injective there and the sum converges, otherwise the raster."""
    with contextlib.suppress(ResourceError):
        if is_univalent_sampled(spec, r):
            area_univalent_series(spec, r)
            return "series"
    return "raster"


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    st.lists(st.builds(complex, _unit, _unit), min_size=1, max_size=5), st.floats(0.5, 4.0),
    st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4, unique=True),
)
def test_auto_areas_take_the_method_of_the_largest_radius(tail, fill, radii):
    # z + tail with sum k |a_k| = fill: injective on the closed disk for
    # fill < 1, and above that on the smaller disks only, so a grid can
    # hold radii where "auto" alone would take the contour sum below one
    # where it takes the raster.
    weight = np.arange(2, len(tail) + 2)
    tail = np.array(tail) * (fill / max(float(np.sum(weight * np.abs(tail))), 1e-300))
    spec, grid = Polynomial((0.0, 1.0, *tail)), sorted(radii)
    method = resolved_method(spec, grid[-1])
    estimate = area_univalent_series if method == "series" else partial(area, resolution=128)
    areas = functionals._areas(spec, grid, "auto", resolution=128)
    assert [repr(fv) for fv in areas] == [repr(estimate(spec, r)) for r in grid]
    assert {fv.method for fv in areas} == {method}


def test_area_resource_cap(monkeypatch):
    monkeypatch.setattr(functionals, "SAMPLE_CAP", 10_000)
    with pytest.raises(ResourceError):
        area(AnnulusCover(1.0), 0.999, resolution=1024)


def test_area_below_float_resolution_raises():
    # The annulus cover's centred spec is the cover itself, an image of size
    # 1e-12 near 1: at this grid the spacing of its values is about 7 cells,
    # so rounding alone would move the boundary curve by several cells.
    with pytest.raises(ResourceError, match="float resolution"):
        area(AnnulusCover(1e-12), 0.5, resolution=2**16)


def refine_by_insertion(spec, r, angles, values, step):
    # The reference bisection: each pass finds the long steps of the whole
    # curve and inserts their midpoints into it, 40 passes at most.
    for passes in range(41):
        bad = np.nonzero(np.abs(np.roll(values, -1) - values) > step)[0]
        if bad.size == 0:
            return angles, values
        if passes == 40:
            break
        if values.size + bad.size > functionals.SAMPLE_CAP:
            raise ResourceError("boundary refinement exceeded the sample budget")
        mid = 0.5 * (angles[bad] + np.append(angles[1:], 2.0 * np.pi)[bad])
        angles = np.insert(angles, bad + 1, mid)
        values = np.insert(values, bad + 1, functionals.evaluate(spec, r * np.exp(1j * mid)))
    raise ResourceError("boundary refinement did not converge in 40 passes")


def sections_of_all_steps(values, y0, h, lines):
    # The reference sections: every step enters the crossing list.
    t = (values.imag - y0) / h
    t1 = np.roll(t, -1)
    dt, dx = t1 - t, np.roll(values.real, -1) - values.real
    first = np.clip(np.ceil(np.minimum(t, t1)), 0, lines).astype(np.int64)
    count = np.clip(np.ceil(np.maximum(t, t1)), 0, lines).astype(np.int64) - first
    step = np.repeat(np.arange(t.size), count)
    k = first[step] + np.arange(step.size) - np.repeat(np.cumsum(count) - count, count)
    x = values.real[step] + (k - t[step]) / dt[step] * dx[step]
    order = np.lexsort((x, k))
    k, x = k[order], x[order]
    inside = -np.cumsum(np.sign(dt[step][order])) > 0.5
    return np.bincount(k[:-1], weights=np.diff(x) * inside[:-1], minlength=lines)


REFINED_CURVES = [
    (SQUARE, 0.5, 1024),
    (SQUARE, 0.7, 1024),
    (Moebius(0.0, 0.5, 1.0), 0.9, 1024),
    (Moebius(0.3j, 0.9999, 1j), 0.9999, 1024),
    (Polynomial((2.0,)), 0.5, 1024),
    *[(Polynomial((0.0, 1.0, 0.3)), 0.9, n) for n in (256, 1024, 32768)],
    *[(AnnulusCover(1.0), 0.9, n) for n in (256, 32768)],
    *[(AnnulusCover(c), r, 1024) for c in (0.1, 1.0, 3.0, 10.0) for r in (0.5, 0.9, 0.999, 1.0 - 1e-9)],
]


@pytest.mark.parametrize("spec, r, resolution", REFINED_CURVES)
def test_boundary_curve_equals_the_inserting_bisection(monkeypatch, spec, r, resolution):
    angles, values, box = _boundary_curve(spec, r, resolution)
    monkeypatch.setattr(functionals, "_refine_circle", refine_by_insertion)
    expected = _boundary_curve(spec, r, resolution)
    assert np.array_equal(angles, expected[0])
    assert np.array_equal(values, expected[1])
    assert box == expected[2]
    assert np.all(np.diff(angles) > 0.0)
    _, y0, _, h = box
    if h > 0.0:
        sections = functionals._sections(values, y0 + 0.5 * h, h, resolution)
        assert np.array_equal(sections, sections_of_all_steps(values, y0 + 0.5 * h, h, resolution))


@pytest.mark.parametrize("cap, evaluated", [(6117, 0), (6118, 1), (10084, 2), (17771, 2), (17772, 3)])
def test_refinement_meets_its_budget_at_the_pass_insertion_does(monkeypatch, cap, evaluated):
    # annulus(3) at 0.9 refines 4096 points to 6118, 10,084 and 17,772 in
    # three passes; a budget one point short stops before the pass's call.
    monkeypatch.setattr(functionals, "SAMPLE_CAP", cap)
    runs = []
    for refine in (functionals._refine_circle, refine_by_insertion):
        points = []
        monkeypatch.setattr(functionals, "_refine_circle", refine)
        monkeypatch.setattr(functionals, "evaluate", lambda spec, z: points.append(z) or evaluate(spec, z))
        try:
            outcome = _boundary_curve(AnnulusCover(3.0), 0.9)[1].size
        except ResourceError as error:
            outcome = str(error)
        runs.append((points, outcome))
    (points, outcome), (expected_points, expected) = runs
    assert outcome == expected == (17772 if cap == 17772 else "boundary refinement exceeded the sample budget")
    assert len(points) == len(expected_points) == evaluated
    assert all(np.array_equal(a, b) for a, b in zip(points, expected_points))


@pytest.mark.parametrize("level, converges", [(38.5, True), (39.5, True), (40.5, False)])
def test_refinement_gives_up_at_the_pass_insertion_does(monkeypatch, level, converges):
    # Ramps of width 1e-9 at the angles 1 and 4 need 39, 40 or 41 halvings
    # of the 64 start steps; the bisection accepts the curve that its 40th
    # pass completes and gives up on one that needs a 41st.
    def ramps(spec, z):
        t = np.angle(z) % (2.0 * np.pi)
        return (np.clip((t - 1.0) / 1e-9, 0.0, 1.0) - np.clip((t - 4.0) / 1e-9, 0.0, 1.0)).astype(complex)

    angles = 2.0 * np.pi * np.arange(64) / 64
    step = 2.0 * np.pi / 64 / 1e-9 * 2.0**-level
    runs = []
    for refine in (functionals._refine_circle, refine_by_insertion):
        points = []
        monkeypatch.setattr(functionals, "evaluate", lambda spec, z: points.append(z) or ramps(spec, z))
        try:
            outcome = refine(None, 1.0, angles, ramps(None, np.exp(1j * angles)), step)
        except ResourceError as error:
            outcome = str(error)
        runs.append((points, outcome))
    (points, outcome), (expected_points, expected) = runs
    assert len(points) == len(expected_points) == min(int(level + 0.5), 40)
    assert all(np.array_equal(a, b) for a, b in zip(points, expected_points))
    if converges:
        assert np.array_equal(outcome[0], expected[0]) and np.array_equal(outcome[1], expected[1])
    else:
        assert outcome == expected == "boundary refinement did not converge in 40 passes"


def test_refinement_midpoints_stay_strictly_inside_their_steps():
    # _refine_circle sorts its midpoints into the curve by angle, which puts
    # each between the ends it bisects while all angles are distinct: the
    # start steps must exceed 2^-10, and 40 bisections of such a step, along
    # any path, keep every midpoint strictly inside.
    angles = sample_circle(IDENTITY, 0.5, 4096).angles
    assert np.min(np.diff(np.append(angles, 2.0 * np.pi))) > 2.0**-10
    rng = np.random.default_rng(SEED)
    for lo in (0.0, 1.0, 4.0, 2.0 * np.pi - 2.0**-10):
        hi = np.full(4096, np.nextafter(lo + 2.0**-10, np.inf))
        lo = np.full(4096, lo)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            assert np.all((lo < mid) & (mid < hi))
            right = rng.random(lo.size) < 0.5
            lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)


@st.composite
def scanline_polylines(draw):
    # Vertices on the lines y = 0.25 + 0.5 k (exactly, since h is a power of
    # two), repeated heights (horizontal steps) and free heights, some
    # outside the 12 lines.
    points = []
    for _ in range(draw(st.integers(2, 30))):
        kind = draw(st.sampled_from(["line", "flat", "free"]))
        if kind == "line" or not points:
            y = 0.25 + 0.5 * draw(st.integers(-2, 13))
        elif kind == "flat":
            y = points[-1].imag
        else:
            y = draw(st.floats(-1.0, 7.0))
        points.append(complex(draw(st.floats(-4.0, 4.0)), y))
    return np.array(points)


@settings(max_examples=300, deadline=None)
@given(scanline_polylines())
def test_sections_equal_the_sections_of_all_steps(values):
    for curve in (values, values[::-1].copy()):
        assert np.array_equal(
            functionals._sections(curve, 0.25, 0.5, 12), sections_of_all_steps(curve, 0.25, 0.5, 12)
        )


def test_boundary_curve_peak_memory_is_56_bytes_a_point():
    # The midpoints join the curve once: their angles are merged and freed
    # before the values are gathered.
    spec, r = AnnulusCover(10.0), 1.0 - 1e-9
    _boundary_curve(spec, r)
    tracemalloc.start()
    try:
        _, values, _ = _boundary_curve(spec, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.size == 111584
    assert peak <= 56 * values.size


@pytest.mark.parametrize("module, name, call", [
    (functionals, "minimize", lambda: diameter(KOEBE_LIKE, 0.6)),
    (functionals, "minimize", lambda: n_diameter(KOEBE_LIKE, 0.6, 4)),
    (quadrature, "quad", lambda: circle_image_length(KOEBE_LIKE, 0.6)),
], ids=["diameter", "n_diameter", "circle_image_length"])
def test_polish_and_quadrature_calls_go_through_module_bindings(monkeypatch, module, name, call):
    # Call counters wrap these module attributes; a function-local import
    # would bypass them.
    expected = call()
    original, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    assert call() == expected
    assert calls


def test_diameter_evaluates_second_derivative_on_its_samples_once(monkeypatch):
    # The candidate limit and the bar share one curvature bound, read from
    # the order-2 jet that sample_circle takes of its m samples; the
    # polish's own jets hold the 2 points of each of its k <= POLISHED
    # pairs still descending, and a pair that stops never returns.
    m, sizes = 1024, []
    original = analytic.jet

    def counting(spec, z, order):
        if order >= 2:
            sizes.append(np.size(z))
        return original(spec, z, order)

    # sample_circle calls the jet inside analytic, the polish through its
    # functionals binding.
    monkeypatch.setattr(analytic, "jet", counting)
    monkeypatch.setattr(functionals, "jet", counting)
    diameter(KOEBE_LIKE, 0.6, m=m)
    assert sizes.count(m) == 1
    polish = [size for size in sizes if size != m]
    assert polish and set(polish) <= {2 * k for k in range(1, functionals.POLISHED + 1)}
    assert polish == sorted(polish, reverse=True)


@pytest.mark.parametrize("estimator", [radius, diameter])
def test_annulus_cover_evaluates_f_on_its_samples_once(monkeypatch, estimator):
    # The values, f' and f'' of the m samples come from one jet, whose
    # recurrence starts from f; f at the polished or refined points is
    # evaluated on fewer than m points.
    m, sizes = 1024, []
    original = AnnulusCover._value

    def counting(self, z):
        sizes.append(np.size(z))
        return original(self, z)

    monkeypatch.setattr(AnnulusCover, "_value", counting)
    estimator(AnnulusCover(1.0), 0.6, m=m)
    assert sizes.count(m) == 1
    assert max(size for size in sizes if size != m) < m


def test_circle_image_length_counts_multiplicity():
    fv = circle_image_length(SQUARE, 0.5)
    # Integral of |2 z| over the circle of radius 0.5: 2 pi r * 2 r.
    assert abs(fv.value - 4.0 * np.pi * 0.25) <= 1e-8
    assert "circle_image" in fv.flags


def test_circle_image_length_identity():
    fv = circle_image_length(IDENTITY, 0.8)
    assert abs(fv.value - 2.0 * np.pi * 0.8) <= 1e-8


def test_univalence_square_map_fails_by_collision():
    # z^2 also has the antipodal collisions f(z) = f(-z), but the zero of
    # f' at the origin is found first; the collision verdict is checked on
    # the annulus cover below.
    res = is_univalent_sampled(SQUARE, 0.5)
    assert not res
    assert res.reason == "vanishing derivative"
    z1, z2 = res.witness
    assert z1 == z2
    assert abs(z1) <= 1e-12


def ac10_polynomial(index: int) -> Polynomial:
    """Polynomial index (0-based) of the acceptance test AC10's random stream."""
    rng = np.random.default_rng(SEED)
    for _ in range(index):
        rng.standard_normal(6)
        rng.standard_normal(6)
    return Polynomial(tuple(rng.standard_normal(6) + 1j * rng.standard_normal(6)))


def test_n_diameter_finds_basin_of_sixteen_restarts():
    # AC10 polynomial 11, rotated as in the curves benchmark's seed 1103:
    # from 8 starts on the subgrid the exchange misses the best basin and
    # reads 7.698008.
    spec = Polynomial((
        -1.3367730145277303 + 0.5634032093446745j, 1.62825151019509 + 1.2928673784154348j,
        -0.46022980796532426 + 0.24561531134114686j, -0.577254004659997 - 0.06368919393730746j,
        -0.5703929154067879 - 0.3102774838921623j, 1.514526238333099 - 2.5902926163667086j,
    ))
    fv = n_diameter(spec, 0.999, 6)
    assert fv.value >= 7.703444006512815 * (1.0 - 1e-13)
    assert fv.abs_error < 1e-4


@pytest.mark.parametrize(
    "index, r, best", [(0, 0.95, 6.098446503034197), (2, 0.6, 1.0854377893630849)]
)
def test_n_diameter_distinct_maxima_are_not_flagged(index, r, best):
    # Restarts of these two polish to distinct local maxima (6.03754,
    # 6.07876 and 6.09845 for polynomial 0), which is the landscape and not
    # an error of the estimate.
    for m in (4096, 1024):
        with warnings.catch_warnings():
            warnings.simplefilter("error", OptimizationWarning)
            fv = n_diameter(ac10_polynomial(index), r, 4, m=m)
        assert fv.flags == ()
        assert fv.value >= best * (1.0 - 1e-13)


@pytest.mark.parametrize("n", [3, 4, 6, 10])
def test_stacked_restart_scores_match_the_per_row_loop(n):
    # n_diameter scores its 16 restarts in one stacked evaluation; the scores
    # and their stable order are those of the per-row loop it replaced.
    rng = np.random.default_rng(SEED + n)
    w = evaluate(ac10_polynomial(0), 0.9 * np.exp(2j * np.pi * np.arange(256) / 256))
    ends = np.array([rng.choice(256, n, replace=False) for _ in range(16)])
    ends[5, 1] = ends[5, 0]
    ends[9] = ends[2]

    def one(idx):
        pts = w[idx]
        d = np.abs(pts[:, None] - pts[None, :])[np.triu_indices(n, k=1)]
        return -np.inf if np.any(d == 0.0) else float(np.sum(np.log(d)))

    loop = [one(idx) for idx in ends]
    scores = functionals._log_sums(functionals._gaps(w[ends]))
    assert [repr(float(s)) for s in scores] == [repr(s) for s in loop]
    order = sorted(range(16), key=lambda k: -loop[k])
    assert np.argsort(-scores, kind="stable").tolist() == order


def test_n_diameter_flags_disagreement_on_one_tuple(monkeypatch):
    # Two polishes of one tuple that end at different values are a polish
    # failure, and only that is flagged.
    original = functionals._polish_tuples

    def disagreeing(spec, r, angles0):
        k, n = angles0.shape
        S, w, theta = original(spec, r, np.tile(np.arange(n, dtype=float), (k, 1)))
        return S + np.array([0.0, -0.5, -1.0])[:k], w, theta

    monkeypatch.setattr(functionals, "_polish_tuples", disagreeing)
    with pytest.warns(OptimizationWarning, match="restarts disagree"):
        fv = n_diameter(KOEBE_LIKE, 0.7, 4, m=1024)
    assert fv.flags == ("restart_disagreement",)


@pytest.mark.parametrize("spec", [KOEBE_LIKE, AnnulusCover(1.0), ac10_polynomial(0)],
                         ids=["quadratic", "annulus", "ac10poly0"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_polish_derivatives_match_central_differences(spec, n):
    rng = np.random.default_rng(SEED + n)
    r, h = 0.8, 1e-5
    # Jittered polygon angles keep the pairs apart, and so the third
    # derivatives that limit the differences small.
    theta = 2.0 * np.pi * np.arange(n) / n + rng.uniform(-0.3, 0.3, n)
    (_,), (grad,), (hess,) = functionals._neg_log_sum(spec, r, theta[None])
    for k in range(n):
        step = h * np.eye(n)[k]
        (fp,), (gp,), _ = functionals._neg_log_sum(spec, r, (theta + step)[None])
        (fm,), (gm,), _ = functionals._neg_log_sum(spec, r, (theta - step)[None])
        assert abs((fp - fm) / (2.0 * h) - grad[k]) <= 1e-7 * (1.0 + np.max(np.abs(grad)))
        assert np.max(np.abs((gp - gm) / (2.0 * h) - hess[:, k])) <= 1e-7 * (
            1.0 + np.max(np.abs(hess))
        )


def test_polish_derivatives_do_not_depend_on_the_scale_of_f():
    # f scaled by 2^600 has w'^2 near 1e361, past the largest float; the
    # derivatives of S are those of f, bit for bit.
    scale = 2.0**600
    scaled = Polynomial(tuple(scale * c for c in KOEBE_LIKE.coeffs))
    theta = np.array([[0.1, 2.0, 4.0]])
    _, grad, hess = functionals._neg_log_sum(KOEBE_LIKE, 0.9, theta)
    _, grad_s, hess_s = functionals._neg_log_sum(scaled, 0.9, theta)
    assert np.array_equal(grad, grad_s) and np.array_equal(hess, hess_s)
    value = n_diameter(KOEBE_LIKE, 0.9, 3).value
    assert abs(n_diameter(scaled, 0.9, 3).value / scale - value) <= 1e-13 * value


def test_newton_halves_steps_that_overshoot():
    # Newton's step on sqrt(1 + x^2) takes x to -x^3, away from the minimum
    # at 0 when |x| > 1; only halved steps reach it.
    values = []

    def fun(x, rows):
        assert rows.tolist() == [0]
        values.append(float(np.sqrt(1.0 + x[0, 0] ** 2)))
        return np.array([values[-1]]), x / values[-1], np.array([[[values[-1] ** -3]]])

    res = functionals.minimize(fun, np.array([[2.0]]))
    assert res.nfev == len(values)
    assert abs(res.x[0, 0]) <= 1e-6
    assert res.fun[0] == fun(res.x, np.arange(1))[0][0] <= values[0]


@pytest.mark.parametrize("spec", SAMPLED_MAPS + (IDENTITY, ac10_polynomial(0)))
def test_polish_never_ends_below_its_start(spec):
    rng = np.random.default_rng(SEED)
    for r in (0.05, 0.6, 0.999):
        for n in (2, 3, 4, 6):
            theta0 = rng.uniform(0.0, 2.0 * np.pi, (3, n))
            w0 = evaluate(spec, r * np.exp(1j * theta0))
            S, _, _ = functionals._polish_tuples(spec, r, theta0)
            start = functionals._log_sums(functionals._gaps(w0))
            for k in range(3):
                assert S[k] >= start[k]
    # A coincident pair has no finite objective; the start comes back.
    S, _, theta = functionals._polish_tuples(spec, 0.6, np.array([[0.3, 0.3, 2.0]]))
    assert S[0] == -np.inf
    assert np.array_equal(theta[0], [0.3, 0.3, 2.0])


@pytest.mark.parametrize("spec", [KOEBE_LIKE, AnnulusCover(1.0), ac10_polynomial(0)],
                         ids=["quadratic", "annulus", "ac10poly0"])
@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_batched_polish_rows_match_single_rows(monkeypatch, spec, n):
    # Rows descend together but do not mix: each ends, bit for bit, where it
    # would alone, after as many evaluations.  The last batch holds a
    # coincident pair, whose row keeps its start at objective -inf.  Each
    # evaluation names the rows of x0 it holds, in order and each once.
    nfev, original = [], functionals.minimize

    def recording(fun, x0):
        def named(x, rows):
            assert len(x) == len(rows) and np.all(np.diff(rows) > 0)
            assert 0 <= rows[0] and rows[-1] < len(x0)
            return fun(x, rows)

        result = original(named, x0)
        nfev.append(result.nfev)
        return result

    monkeypatch.setattr(functionals, "minimize", recording)
    rng = np.random.default_rng(SEED + n)
    coincident = rng.uniform(0.0, 2.0 * np.pi, (2, n))
    coincident[1, 1] = coincident[1, 0]
    batches = [rng.uniform(0.0, 2.0 * np.pi, (k, n)) for k in (1, 2, 3)] + [coincident]
    for r in (0.05, 0.6, 0.95):
        for batch in batches:
            del nfev[:]
            together = functionals._polish_tuples(spec, r, batch)
            for k, row in enumerate(batch):
                alone = functionals._polish_tuples(spec, r, row[None])
                for a, b in zip(together, alone):
                    assert a[k].tobytes() == b[0].tobytes()
            assert nfev[0] == sum(nfev[1:])
    S, _, theta = together
    assert S[1] == -np.inf
    assert theta[1].tobytes() == coincident[1].tobytes()
    assert np.isfinite(S[0])


@pytest.mark.parametrize("spec, n, k", [
    (spec, n, 5) for spec in (KOEBE_LIKE, AnnulusCover(1.0), ac10_polynomial(0)) for n in (2, 4)
] + [(KOEBE_LIKE, 64, 17)])
def test_polish_rows_on_their_own_radii_match_single_rows(monkeypatch, spec, n, k):
    # One call with a radius per row: each row ends, bit for bit, where it
    # would alone on its own circle.  At n = 64 a minimize call holds at
    # most POLISH_ENTRIES // 64^2 = 16 rows, so 17 rows take two.
    sizes, original = [], functionals.minimize

    def sized(fun, x0):
        sizes.append(len(x0))
        return original(fun, x0)

    rng = np.random.default_rng(SEED + n)
    radii = rng.uniform(0.05, 0.95, k)
    theta0 = 2.0 * np.pi * np.arange(n) / n + rng.uniform(-0.3 / n, 0.3 / n, (k, n))
    monkeypatch.setattr(functionals, "minimize", sized)
    together = functionals._polish_tuples(spec, radii, theta0)
    assert sizes == ([16, 1] if n == 64 else [k])
    for i in range(k):
        alone = functionals._polish_tuples(spec, radii[i], theta0[i][None])
        for a, b in zip(together, alone):
            assert a[i].tobytes() == b[0].tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_polish_on_the_identity_rotation_ridge(n):
    # Every rotation of the regular n-gon is optimal, so the Hessian is
    # singular along the rotation, exactly at the polygon.
    r, pairs = 0.9, n * (n - 1) / 2
    polygon = 2.0 * np.pi * np.arange(n) / n
    hess = functionals._neg_log_sum(IDENTITY, r, polygon[None])[2][0]
    assert np.min(np.abs(np.linalg.eigvalsh(hess))) <= 1e-12
    rng = np.random.default_rng(SEED)
    starts = [polygon, polygon + 0.7, polygon + rng.normal(0.0, 0.05, n)]
    starts += [rng.uniform(0.0, 2.0 * np.pi, n) for _ in range(5)]
    S, _, _ = functionals._polish_tuples(IDENTITY, r, np.array(starts))
    expected = disk_n_diameter(n) * r
    for value in S:
        assert abs(np.exp(value / pairs) - expected) <= 1e-14 * expected


def test_benchmark_tracer_counts_through_module_bindings(monkeypatch):
    # The benchmark's tracer wraps functionals.minimize, functionals.cKDTree
    # and quadrature.quad, and reads nfev from what minimize returns; its
    # traced runs fail when a binding goes or a result lacks nfev.  The
    # crossing search no longer uses cKDTree, but the tracer still installs
    # its wrapper over the placeholder, and the test it traces must run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    bindings = (functionals.minimize, functionals.cKDTree, quadrature.quad)
    tracer = Tracer(lambda coeffs: 1.0)
    with tracer.installed(diskgeom):
        functionals.diameter(KOEBE_LIKE, 0.6)
        functionals.n_diameter(KOEBE_LIKE, 0.6, 4)
        functionals.is_univalent_sampled(KOEBE_LIKE, 0.9)
        functionals.circle_image_length(KOEBE_LIKE, 0.6)
    assert (functionals.minimize, functionals.cKDTree, quadrature.quad) == bindings
    polishes = [span for span in tracer.spans if span.name == "functionals.minimize"]
    assert polishes and all(span.counts["nfev"] > 0 for span in polishes)
    stats = tracer.stats()
    assert stats["functionals.diameter"]["nfev"] > 0
    assert stats["functionals.n_diameter"]["nfev"] > 0
    assert stats["functionals.is_univalent_sampled"]["calls"] > 0
    assert stats["quadrature.quad"]["integrand_evals"] > 0


def test_circle_image_length_bar_covers_mpmath():
    # QUADPACK estimated 3.6e-11 here, against a true error of 9.5e-11.
    c = (0.0, 0.9855068870063529 - 0.16963541983632874j, 0.09012918903433076 + 0.2861411003054505j)
    r = 0.7903173300352092
    with mpmath.workdps(40):
        exact = mpmath.quad(
            lambda t: abs(c[1] + 2 * c[2] * r * mpmath.expj(t)) * r, [0, mpmath.pi, 2 * mpmath.pi]
        )
    fv = circle_image_length(Polynomial(c), r)
    assert abs(fv.value - float(exact)) <= fv.abs_error


def test_univalence_detects_critical_point_on_sample():
    # f'(z) = z - 0.25 vanishes exactly at a sampled grid point.
    spec = Polynomial((0.0, -0.25, 0.5))
    res = is_univalent_sampled(spec, 0.5)
    assert not res
    assert res.reason == "vanishing derivative"
    z1, z2 = res.witness
    assert z1 == z2
    assert abs(z1 - 0.25) <= 1e-12
    # Critical points just inside the circle, at |z| = 0.2995 and 0.581.
    for index, r, radius_c in ((8, 0.3, 0.2995), (11, 0.6, 0.581)):
        spec = ac10_polynomial(index)
        res = is_univalent_sampled(spec, r)
        assert not res
        assert res.reason == "vanishing derivative"
        z1, z2 = res.witness
        assert z1 == z2
        assert abs(abs(z1) - radius_c) <= 5e-4
        assert np.min(np.abs(mp_critical_points(spec.coeffs) - z1)) <= 1e-9
    # f' = 1 + z vanishes at -1, on the circle of radius 1.
    res = is_univalent_sampled(Polynomial((0.0, 1.0, 0.5)), 1.0)
    assert res.reason == "vanishing derivative"
    assert abs(res.witness[0] + 1.0) <= 1e-12


def test_univalence_constant_map_has_vanishing_derivative():
    # f' has no roots to list, yet vanishes everywhere, and f(r T) is a
    # single point without a crossing.
    res = is_univalent_sampled(Polynomial((2.0,)), 0.5)
    assert not res
    assert res.reason == "vanishing derivative"


def mp_critical_points(coeffs) -> np.ndarray:
    """The zeros of f' for ascending coefficients, by mpmath at 30 digits;
    [0] when f' vanishes identically, where 0 stands for every point.
    Where Durand-Kerner does not converge, as on some coefficients hundreds
    of orders of magnitude apart, they are the eigenvalues of the companion
    matrix at enough digits to span that range."""
    with mpmath.workdps(30):
        d = [k * mpmath.mpc(c) for k, c in enumerate(coeffs)][1:]
        while d and d[-1] == 0:
            d.pop()
        if not d:
            return np.zeros(1, dtype=complex)
        n = len(d) - 1
        try:
            roots = mpmath.polyroots(d[::-1], maxsteps=200, extraprec=200) if n else []
        except mpmath.mp.NoConvergence:
            logs = [mpmath.log10(abs(c)) for c in d if c]
            with mpmath.workdps(30 + 2 * int(max(logs) - min(logs))):
                companion = mpmath.zeros(n)
                for i in range(n):
                    companion[i, n - 1] = -d[i] / d[n]
                    if i:
                        companion[i, i - 1] = 1
                roots = mpmath.eig(companion, left=False, right=False)
        return np.array([complex(z) for z in roots], dtype=complex)


_coefficient = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(_coefficient, min_size=1, max_size=7),
    r=st.floats(0.05, 0.99),
)
def test_univalence_vanishing_derivative_matches_mpmath(coeffs, r):
    zeros = mp_critical_points(coeffs)
    assume(np.all(np.abs(np.abs(zeros) - r) > 1e-9))
    inside = zeros[np.abs(zeros) <= r]
    res = is_univalent_sampled(Polynomial(tuple(coeffs)), r)
    assert (res.reason == "vanishing derivative") == bool(inside.size)
    if inside.size:
        z1, z2 = res.witness
        assert z1 == z2
        assert np.min(np.abs(inside - z1)) <= 1e-9


def test_univalence_detects_collision_annulus_cover():
    # Above the threshold radius tanh(pi / (2 c)) the cover wraps.
    cases = [(1.0, 0.95)] + [(c, np.tanh(np.pi / (2.0 * c)) + 1e-3) for c in (1.0, 3.0)]
    for c, r in cases:
        spec = AnnulusCover(c)
        res = is_univalent_sampled(spec, r)
        assert not res
        assert res.reason == "image collision"
        z1, z2 = res.witness
        assert abs(z1 - z2) > 1e-3
        assert abs(complex(evaluate(spec, z1)) - complex(evaluate(spec, z2))) <= 1e-9


def test_univalence_accepts_injective_maps():
    assert is_univalent_sampled(KOEBE_LIKE, 0.9)
    assert is_univalent_sampled(Moebius(0.0, 0.3, 1.0), 0.9)
    assert is_univalent_sampled(AnnulusCover(1.0), 0.9)
    for c in (1.0, 3.0):
        assert is_univalent_sampled(AnnulusCover(c), np.tanh(np.pi / (2.0 * c)) - 1e-3)
    for spec in FAR_SMALL:
        assert is_univalent_sampled(spec, 0.5)


def counting_near_pairs(monkeypatch) -> list:
    """Wrap functionals._near_pairs; each call appends (points, pairs) to
    the list returned."""
    found, near_pairs = [], functionals._near_pairs

    def counting(x, y, d):
        i, j = near_pairs(x, y, d)
        found.append((x.size, i.size))
        return i, j

    monkeypatch.setattr(functionals, "_near_pairs", counting)
    return found


def test_univalence_searches_a_small_image_far_from_0_on_its_own_scale(monkeypatch):
    # The crossing search runs on f - f(0), whose samples keep their digits,
    # so the boundary curve is refined and the search finds a few pairs per
    # point where an image constant to rounding handed it all of them.
    found = counting_near_pairs(monkeypatch)
    for coeffs in ((1e5, 1e-10), (1.0, 1e-15), (1e6, 1e-8)):
        found.clear()
        assert is_univalent_sampled(Polynomial(coeffs), 0.5)
        assert [pairs <= 2 * size for size, pairs in found] == [True]
    # So "auto" reads the exact series area.
    [fv] = functionals._areas(Polynomial((1e6, 1e-8)), [0.5], "auto")
    assert fv.method == "series"
    assert abs(fv.value - np.pi * 1e-16 * 0.25) <= fv.abs_error


def test_centered_spec_is_f_minus_f_at_0():
    z = 0.7 * np.exp(2j * np.pi * np.arange(16) / 16)
    for spec in (Polynomial((1e5, 1e-8, 3j)), Moebius(2.0 - 1j, 0.3 + 0.4j, 1j)):
        centered = spec._centered()
        assert type(centered) is type(spec)
        assert evaluate(centered, 0.0) == 0.0
        shifted = evaluate(spec, z) - evaluate(spec, 0.0)
        assert np.max(np.abs(evaluate(centered, z) - shifted)) <= 1e-9
    assert AnnulusCover(1.0)._centered() == AnnulusCover(1.0)


def test_univalence_of_an_image_constant_to_rounding_searches_no_pair_set(monkeypatch):
    # Both images are constant to rounding as they stand, and the crossing
    # search used to take every pair of the 4,096 probe samples (754,589 and
    # 3,113,094 pairs).  f - f(0) of the Moebius map keeps its digits; the
    # annulus cover has no constant term and is injective on every disk it
    # admits, so its search is skipped.
    found = counting_near_pairs(monkeypatch)
    assert is_univalent_sampled(Moebius(1e15, 0.5, 1.0), 0.5)
    assert [pairs <= 2 * size for size, pairs in found] == [True]
    found.clear()
    assert is_univalent_sampled(AnnulusCover(1e-16), 0.5)
    assert found == []


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=40),
    rng=st.randoms(use_true_random=False),
    shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    scale=st.sampled_from([2.0**-330, 2.0**-20, 1.0, 2.0**330]),
)
def test_near_pairs_equal_a_scan_of_all_pairs(steps, rng, shift, scale):
    # Lattice steps taken forward and then back in another order make a
    # closed polyline with zero-length steps and many pairs exactly their
    # reach, half the sum of their two steps, apart.  The shift rounds the
    # coordinates; the power-of-two scale does not.
    back = [(-a, -b) for a, b in steps]
    rng.shuffle(back)
    walk = np.cumsum(np.array(steps + back, dtype=float), axis=0)
    x, y = (walk[:, 0] + shift[0]) * scale, (walk[:, 1] + shift[1]) * scale
    d = np.hypot(np.roll(x, -1) - x, np.roll(y, -1) - y)
    assume(d.max() > 0.0)
    i, j = np.triu_indices(x.size, 1)
    near = np.hypot(x[j] - x[i], y[j] - y[i]) <= 0.5 * (d[i] + d[j])
    found_i, found_j = functionals._near_pairs(x, y, d)
    assert np.all(found_i < found_j)
    expected = list(zip(i[near].tolist(), j[near].tolist()))
    assert sorted(zip(found_i.tolist(), found_j.tolist())) == expected


def test_near_pairs_survive_the_rounding_of_cell_indices():
    # The last two points are 0.1 apart by np.hypot, but (x - min x) / 0.1
    # rounds to 1621.99... and 1623.0: cells of side exactly d would put
    # them two columns apart.
    x = np.array([22.4879411483643, 184.6879411483643, 184.7879411483643])
    assert np.hypot(x[2] - x[1], 0.0) <= 0.1
    i, j = functionals._near_pairs(x, np.zeros(3), np.full(3, 0.1))
    assert list(zip(i.tolist(), j.tolist())) == [(1, 2)]


def test_near_pairs_match_a_kd_tree_on_boundary_curves(monkeypatch):
    # SciPy serves as an oracle only.  Each crossing search of f - f(0)
    # stops after its pair search, whatever f' does on the disk.
    spatial = pytest.importorskip("scipy.spatial")
    calls, near_pairs = [], functionals._near_pairs

    class Recorded(Exception):
        pass

    def recording(x, y, d):
        calls.append((x, y, d, near_pairs(x, y, d)))
        raise Recorded

    monkeypatch.setattr(functionals, "_near_pairs", recording)
    curves = [(ac10_polynomial(k), r) for k in (0, 8, 11) for r in (0.3, 0.6, 0.9)]
    curves += [
        (Polynomial((0.0, 1.0, 0.3)), 0.9), (Moebius(0.0, 0.5, 1.0), 0.9),
        (AnnulusCover(1.0), 0.8), (AnnulusCover(3.0), 0.9), (SQUARE, 0.5),
    ]
    for spec, r in curves:
        with pytest.raises(Recorded):
            functionals._self_crossing(spec._centered(), r, 0.0)
    assert len(calls) == len(curves)
    for x, y, d, (i, j) in calls:
        tree = spatial.cKDTree(np.column_stack([x, y]))
        a, b = tree.query_pairs(d.max(), output_type="ndarray").T
        near = np.hypot(x[b] - x[a], y[b] - y[a]) <= 0.5 * (d[a] + d[b])
        assert np.array_equal(np.sort(i * x.size + j), np.sort(a[near] * x.size + b[near]))
    # The annulus cover at c = 3 wraps: its crossing search is the crowded
    # one.  Within the longest step of each other lie 1,787,910 pairs.
    assert calls[-2][3][0].size == 17804


def test_crossing_search_takes_no_newton_step_without_a_proper_crossing(monkeypatch):
    # The Newton loop starts only from proper crossings of the polyline's
    # segments; a simple curve has none, and its search makes no jet call.
    calls, original = [], functionals.jet

    def counting(spec, z, order):
        calls.append(np.size(z))
        return original(spec, z, order)

    monkeypatch.setattr(functionals, "jet", counting)
    for spec, r in ((ac10_polynomial(0), 0.3), (Polynomial((0.0, 1.0, 0.3)), 0.9)):
        assert functionals._self_crossing(spec._centered(), r, 0.0) is None
    assert calls == []
    assert functionals._self_crossing(AnnulusCover(3.0), 0.9, 0.1) is not None
    assert calls


def test_crossing_search_solves_its_candidates_in_batches(monkeypatch):
    # The annulus cover at c = 3 wraps many times near r = 1, and its
    # polyline has 61,676 proper crossings.  Newton's method takes them
    # 4096 at a time, in order, and the first batch confirms a collision.
    sizes, original = [], functionals.jet
    monkeypatch.setattr(
        functionals, "jet", lambda spec, z, order: sizes.append(np.size(z)) or original(spec, z, order)
    )
    spec = AnnulusCover(3.0)
    z1, z2 = functionals._self_crossing(spec, 1.0 - 1e-9, 0.1)
    # One batch: 20 rounds of two jets each; a step that is not finite
    # drops its candidate on the way.
    assert len(sizes) == 40 and sizes[0] == 4096 and max(sizes) == 4096
    assert abs(complex(evaluate(spec, z1)) - complex(evaluate(spec, z2))) <= 1e-9


def test_crossing_search_drops_newton_steps_that_are_not_finite():
    # z^2 covers its image twice, and at some candidates the Newton system
    # is singular; their NaN angles used to reach jet, which raised
    # DomainError for the whole search.
    z1, z2 = functionals._self_crossing(SQUARE, 0.5, 0.1)
    assert abs(z1 - z2) > 0.1
    assert abs(z1 * z1 - z2 * z2) <= 1e-12


def test_univalence_verdict_does_not_depend_on_the_scale_of_f():
    # The Taylor polynomial of a cover of the annulus wraps past the cover's
    # threshold, with no zero of f' on the disk; z + 0.3 z^2 + 0.4 z^3 is
    # injective on 0.9 D.  f and s f are injective together.
    wrap = Polynomial(tuple(taylor_coefficients(AnnulusCover(3.0), 60)))
    r = np.tanh(np.pi / 6.0) + 0.05
    res = is_univalent_sampled(wrap, r)
    assert res.reason == "image collision"
    for s in (1e-300, 1e-12, 1e12, 1e300):
        assert repr(is_univalent_sampled(scale_spec(wrap, s), r)) == repr(res)
        assert is_univalent_sampled(scale_spec(Polynomial((0.0, 1.0, 0.3, 0.4)), s), 0.9)


def test_capacity_bracket_identity_is_tight():
    fv = capacity_bracket(IDENTITY, 0.5, n=6, m=1024, resolution=512, seed=SEED)
    lo, hi = fv.interval
    assert lo <= 0.5 <= hi
    assert hi - lo <= 0.05
    assert abs(fv.value - 0.5) <= 0.03


def test_capacity_bracket_orders_endpoints():
    # With the exact series area the raw endpoints resolve their true
    # margin of about 1.2e-4; the midpoint error of the sections swamps it
    # at low resolution (see the next test).
    fv = capacity_bracket(
        KOEBE_LIKE, 0.6, n=6, m=1024, seed=SEED, area_method="series"
    )
    lo, hi = fv.interval
    assert lo <= hi
    assert "bracket_inverted" not in fv.flags


def test_capacity_bracket_flags_inversion_under_resolution():
    fv = capacity_bracket(
        KOEBE_LIKE, 0.6, n=6, m=1024, resolution=64, seed=SEED, area_method="raster"
    )
    lo, hi = fv.interval
    # The padded interval still brackets the series-exact lower endpoint.
    assert lo <= 0.6085787 <= hi + 2.0 * fv.abs_error
    assert "bracket_inverted" in fv.flags
    fv = capacity_bracket(
        KOEBE_LIKE, 0.6, n=6, m=1024, resolution=128, seed=SEED, area_method="raster"
    )
    assert "bracket_inverted" not in fv.flags


def test_capacity_bracket_exact_disk_not_inverted():
    # The image of 0.5 D is a disk, so its raw endpoints agree; only an
    # area estimate biased high can invert them.
    fv = capacity_bracket(Moebius(0.0, 0.5, 1.0), 0.5)
    assert "bracket_inverted" not in fv.flags


def test_n_diameter_seed_reproducible():
    a = n_diameter(KOEBE_LIKE, 0.8, 5, m=1024, seed=7)
    b = n_diameter(KOEBE_LIKE, 0.8, 5, m=1024, seed=7)
    assert a.value == b.value
    assert a.witness == b.witness
