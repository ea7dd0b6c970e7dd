"""Image-set functionals against closed-form oracles.

Oracles: automorphism images of subdisks are exact disks, z^2 maps r D
onto the disk of radius r^2, and the n-point diameter of a disk is the
scaled root-of-unity value n^(1/(n-1)) r.
"""

import cmath
import warnings
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
from diskgeom import functionals, quadrature
from diskgeom.functionals import _boundary_curve

SEED = 20260815
IDENTITY = Polynomial((0.0, 1.0))
SQUARE = Polynomial((0.0, 0.0, 1.0))
KOEBE_LIKE = Polynomial((0.0, 1.0, 0.2))
# Small images far from 0: half a cell of area's box is below the float
# spacing of their values, so the boundary curve stops refining at 4
# spacings and its steps span more than one row or column of cells.
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
    # The subgrid search must not lose the farthest pair of the m samples,
    # up to the rounding in which tied antipodal pairs differ.
    for m in (3, 64, 256, 1024):
        for r in (0.3, 0.7, 0.95):
            w = sample_circle(spec, r, m).values
            fv = diameter(spec, r, m=m)
            assert fv.value >= float(np.max(np.abs(w[:, None] - w[None, :]))) * (1.0 - 4e-16)
            w1, w2 = fv.witness
            assert abs(w1 - w2) == fv.value


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
    # n-diameters are s times those of f.
    s = 10.0**log_s
    coeffs = np.array(coeffs)
    moved = post * coeffs * pre ** np.arange(coeffs.size)
    moved[0] += shift
    f, g = Polynomial(tuple(coeffs)), Polynomial(tuple(s * moved))
    for estimate in (radius, diameter, lambda spec, r: n_diameter(spec, r, 3),
                     lambda spec, r: n_diameter(spec, r, 4)):
        a, b = estimate(f, r), estimate(g, r)
        assert abs(s * a.value - b.value) <= s * a.abs_error + b.abs_error


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


def test_area_resource_cap(monkeypatch):
    monkeypatch.setattr(functionals, "SAMPLE_CAP", 10_000)
    with pytest.raises(ResourceError):
        area(AnnulusCover(1.0), 0.999, resolution=1024)


def test_area_below_float_resolution_raises():
    # The spacing of values near 1e6 is about 12 cells of this image, so
    # rounding alone would move the boundary curve by several cells.
    for spec in (Polynomial((1e6, 1e-8)), Polynomial((3e5j, 1e-8))):
        with pytest.raises(ResourceError, match="float resolution"):
            area(spec, 0.5)


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
    # The candidate limit and the bar share one curvature bound; the
    # polish's own calls evaluate f'' at the 2 points of each of its k <=
    # POLISHED pairs still descending, and a pair that stops never returns.
    m, sizes = 1024, []
    original = functionals.second_derivative

    def counting(spec, z):
        sizes.append(np.size(z))
        return original(spec, z)

    monkeypatch.setattr(functionals, "second_derivative", counting)
    diameter(KOEBE_LIKE, 0.6, m=m)
    assert sizes.count(m) == 1
    polish = [size for size in sizes if size != m]
    assert polish and set(polish) <= {2 * k for k in range(1, functionals.POLISHED + 1)}
    assert polish == sorted(polish, reverse=True)


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
    # So "auto" reads the exact series area, where the raster's float
    # resolution guard refuses this image.
    fv = functionals._area_by_method(Polynomial((1e6, 1e-8)), 0.5, "auto")
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
    # closed polyline with zero-length steps and many pairs exactly d apart.
    # The shift rounds the coordinates; the power-of-two scale does not.
    back = [(-a, -b) for a, b in steps]
    rng.shuffle(back)
    walk = np.cumsum(np.array(steps + back, dtype=float), axis=0)
    x, y = (walk[:, 0] + shift[0]) * scale, (walk[:, 1] + shift[1]) * scale
    d = float(np.max(np.hypot(np.roll(x, -1) - x, np.roll(y, -1) - y)))
    assume(d > 0.0)
    i, j = np.triu_indices(x.size, 1)
    near = np.hypot(x[j] - x[i], y[j] - y[i]) <= d
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
    i, j = functionals._near_pairs(x, np.zeros(3), 0.1)
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
        tree = spatial.cKDTree(np.column_stack([x, y])).query_pairs(d, output_type="ndarray")
        assert np.array_equal(np.sort(i * x.size + j), np.sort(tree[:, 0] * x.size + tree[:, 1]))
    # The annulus cover at c = 3 wraps: its crossing search is the crowded one.
    assert calls[-2][3][0].size == 1787910


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
