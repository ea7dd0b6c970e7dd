"""Image-set functionals against closed-form oracles.

Oracles: automorphism images of subdisks are exact disks, z^2 maps r D
onto the disk of radius r^2, and the n-point diameter of a disk is the
scaled root-of-unity value n^(1/(n-1)) r.
"""

import numpy as np
import pytest

from diskgeom import (
    AnnulusCover,
    Moebius,
    Polynomial,
    PowerSeries,
    ResourceError,
    UnivalenceError,
    area,
    area_univalent_series,
    capacity_bracket,
    circle_image_length,
    diameter,
    disk_n_diameter,
    evaluate,
    is_univalent_sampled,
    n_diameter,
    perimeter_univalent,
    radius,
)
from diskgeom import functionals
from diskgeom.functionals import (
    DEFAULT_RESOLUTION,
    _boundary_curve,
    _grid_polyline,
    _rasterize,
    _winding_numbers,
)

SEED = 20260815
IDENTITY = Polynomial((0.0, 1.0))
SQUARE = Polynomial((0.0, 0.0, 1.0))
KOEBE_LIKE = Polynomial((0.0, 1.0, 0.2))
# Small images far from 0: half a raster cell is below the float spacing
# of their values, so the boundary curve stops refining at 4 spacings and
# its steps span more than one row or column of cells.
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


def test_diameter_constant_is_degenerate():
    fv = diameter(Polynomial((2.0,)), 0.5)
    assert fv.value == 0.0
    assert "degenerate" in fv.flags
    # The area of a point is 0 at every size of the constant.
    for c in (0.0, 2.0, 1e5):
        fv = area(Polynomial((c,)), 0.5)
        assert fv.value == 0.0
        assert "degenerate" in fv.flags


def test_diameter_witness_realizes_value():
    fv = diameter(KOEBE_LIKE, 0.8)
    w1, w2 = fv.witness
    assert abs(abs(w1 - w2) - fv.value) <= 1e-12


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
    # The winding number of f(r T) counts preimages, so its integral is the
    # covered area pi sum n |a_n|^2 r^(2n), multiplicity included, up to the
    # band of boundary cells.
    for spec in (SQUARE, Polynomial((0.0, 1.0, 0.5)), ac10_polynomial(0)):
        coeffs = np.asarray(spec.coeffs)
        n = np.arange(coeffs.size)
        for r in (0.5, 0.7, 0.9):
            _, values, (x0, y0, cell_w, cell_h), _ = _boundary_curve(spec, r)
            u, v = _grid_polyline(values, x0, y0, cell_w, cell_h)
            wind = _winding_numbers(u, v, DEFAULT_RESOLUTION)
            covered = float(np.sum(wind)) * cell_w * cell_h
            band = _rasterize(spec, r).boundary_count * cell_w * cell_h
            assert abs(covered - np.pi * np.sum(n * np.abs(coeffs) ** 2 * r ** (2 * n))) <= band


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


def test_circle_image_length_counts_multiplicity():
    fv = circle_image_length(SQUARE, 0.5)
    # Integral of |2 z| over the circle of radius 0.5: 2 pi r * 2 r.
    assert abs(fv.value - 4.0 * np.pi * 0.25) <= 1e-8
    assert "circle_image" in fv.flags


def test_perimeter_univalent_identity():
    fv = perimeter_univalent(IDENTITY, 0.8)
    assert abs(fv.value - 2.0 * np.pi * 0.8) <= 1e-8


def test_perimeter_univalent_rejects_square_map():
    with pytest.raises(UnivalenceError):
        perimeter_univalent(SQUARE, 0.5)


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
        roots = np.roots(np.polyder(np.array(spec.coeffs[::-1])))
        assert np.min(np.abs(roots - z1)) <= 1e-9


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


def test_capacity_bracket_identity_is_tight():
    fv = capacity_bracket(IDENTITY, 0.5, n=6, m=1024, resolution=512, seed=SEED)
    lo, hi = fv.interval
    assert lo <= 0.5 <= hi
    assert hi - lo <= 0.05
    assert abs(fv.value - 0.5) <= 0.03


def test_capacity_bracket_orders_endpoints():
    # With the exact series area the raw endpoints resolve their true
    # margin of about 1.2e-4; the raster's one-sided boundary band would
    # swamp it at moderate resolution.
    fv = capacity_bracket(
        KOEBE_LIKE, 0.6, n=6, m=1024, seed=SEED, area_method="series"
    )
    lo, hi = fv.interval
    assert lo <= hi
    assert "bracket_inverted" not in fv.flags


def test_capacity_bracket_flags_inversion_under_raster_bias():
    fv = capacity_bracket(
        KOEBE_LIKE, 0.6, n=6, m=1024, resolution=512, seed=SEED, area_method="raster"
    )
    lo, hi = fv.interval
    # The padded interval still brackets the series-exact lower endpoint.
    assert lo <= 0.6085787 <= hi + 2.0 * fv.abs_error
    assert "bracket_inverted" in fv.flags


def test_n_diameter_seed_reproducible():
    a = n_diameter(KOEBE_LIKE, 0.8, 5, m=1024, seed=7)
    b = n_diameter(KOEBE_LIKE, 0.8, 5, m=1024, seed=7)
    assert a.value == b.value
    assert a.witness == b.witness
