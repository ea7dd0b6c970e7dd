"""Poincare density, hyperbolic distance, and covered-region bounds."""

import math

import numpy as np
import pytest

from diskgeom import (
    CriticalPointError,
    DomainError,
    Moebius,
    Polynomial,
    AnnulusCover,
    check_density_lower_bound,
    density_disk,
    density_via_cover,
    dist_to_boundary,
    evaluate,
    hyp_distance_disk,
    hyperbolic_disk_growth,
    scale_spec,
)

SEED = 20260815
IDENTITY = Polynomial((0.0, 1.0))
EXACT = 1e-14


def test_density_disk_values():
    assert density_disk(0.0) == pytest.approx(1.0, abs=EXACT)
    assert density_disk(0.5) == pytest.approx(4.0 / 3.0, abs=EXACT)
    assert density_disk(0.6 + 0.0j) == pytest.approx(1.0 / 0.64, abs=EXACT)


def test_density_disk_rejects_boundary():
    with pytest.raises(DomainError):
        density_disk(1.0)


def test_hyp_distance_radial():
    assert hyp_distance_disk(0.0, 0.5) == pytest.approx(math.atanh(0.5), abs=1e-14)
    assert hyp_distance_disk(0.5, 0.0) == pytest.approx(math.atanh(0.5), abs=1e-14)
    assert hyp_distance_disk(0.3, 0.3) == 0.0


def test_hyp_distance_known_value():
    # atanh of the pseudohyperbolic distance of 0.3 and 0.3i.
    assert hyp_distance_disk(0.3, 0.3j) == pytest.approx(0.450799736, abs=1e-8)


def test_hyp_distance_triangle_inequality():
    rng = np.random.default_rng(SEED)
    radii = 0.85 * np.sqrt(rng.uniform(0.0, 1.0, 30))
    pts = radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 30))
    for i in range(0, 30, 3):
        a, b, c = pts[i], pts[i + 1], pts[i + 2]
        assert hyp_distance_disk(a, c) <= (
            hyp_distance_disk(a, b) + hyp_distance_disk(b, c) + 1e-12
        )


def test_hyp_distance_moebius_invariance():
    rng = np.random.default_rng(SEED + 1)
    phi = Moebius(0.0, 0.4 - 0.1j, np.exp(0.9j))
    for _ in range(50):
        z = complex(*rng.uniform(-0.65, 0.65, 2))
        w = complex(*rng.uniform(-0.65, 0.65, 2))
        d0 = hyp_distance_disk(z, w)
        d1 = hyp_distance_disk(complex(evaluate(phi, z)), complex(evaluate(phi, w)))
        assert abs(d0 - d1) <= 1e-12


def test_density_via_cover_identity():
    for z in (0.0, 0.3, 0.2 - 0.4j):
        assert density_via_cover(IDENTITY, z) == pytest.approx(
            density_disk(z), abs=1e-12
        )


def test_density_via_cover_annulus_at_zero():
    # f'(0) = 2 i c, so the pushed-forward density at f(0) is 1 / (2 c).
    assert density_via_cover(AnnulusCover(1.0), 0.0) == pytest.approx(0.5, abs=1e-12)
    assert density_via_cover(AnnulusCover(0.25), 0.0) == pytest.approx(2.0, abs=1e-12)


def test_density_via_cover_moebius_matches_disk_density():
    f = Moebius(0.0, 0.5, 1.0)
    for z in (0.0, 0.2 + 0.1j):
        w = complex(evaluate(f, z))
        assert density_via_cover(f, z) == pytest.approx(density_disk(w), abs=1e-12)


def test_density_via_cover_critical_point():
    with pytest.raises(CriticalPointError):
        density_via_cover(Polynomial((0.0, 0.0, 1.0)), 0.0)


def test_density_via_cover_scales_with_the_map():
    # The density of s f is that of f over |s|, however small |f'| gets:
    # only an exact zero of f' is a critical point.
    base = Polynomial((0.0, 1.0, 0.3))
    z = 0.2 + 0.1j
    rho = density_via_cover(base, z)
    for e in range(-100, 101, 5):
        s = 10.0**e
        expected = rho / s
        assert abs(density_via_cover(scale_spec(base, s), z) - expected) <= np.spacing(expected)
    assert density_via_cover(Polynomial((0.0, 1e-13)), 0.0) == pytest.approx(1e13, rel=1e-15)


def test_density_lower_bound_equality_for_identity():
    report = check_density_lower_bound(IDENTITY, 0.0, resolution=512)
    assert report.passed
    assert report.equality
    assert report.lhs == pytest.approx(1.0, abs=1e-12)


def test_density_lower_bound_annulus():
    report = check_density_lower_bound(AnnulusCover(1.0), 0.0, resolution=512)
    assert report.passed
    assert report.lhs == pytest.approx(0.5, abs=1e-12)
    assert 0.19 < report.rhs < 0.22
    assert report.context["direction"] == "lhs >= rhs"
    assert report.slack == pytest.approx(report.lhs - report.rhs, abs=1e-15)


def test_dist_to_boundary_identity():
    dist, diag = dist_to_boundary(IDENTITY, 0.0, resolution=512)
    assert abs(dist - 0.999) <= 2.0 * diag
    assert abs(dist - 0.999) <= 1e-6
    dist_half, _ = dist_to_boundary(IDENTITY, 0.5, resolution=512)
    assert abs(dist_half - 0.499) <= 2.0 * diag


def test_hyperbolic_disk_growth_reparameterizes_area():
    R = np.arctanh(np.geomspace(0.2, 0.8, 5))
    curve = hyperbolic_disk_growth(Polynomial((0.0, 1.0, 0.2)), R)
    assert "hyperbolic_R_grid" in curve.flags
    assert curve.normalization == "pi tanh(R)^2"
    assert curve.r_grid == pytest.approx(tuple(R))
    # phi(R) = 1 + 0.08 tanh(R)^2 via the exact coefficient series.
    expected = 1.0 + 2.0 * 0.04 * np.tanh(R) ** 2
    assert np.max(np.abs(np.array(curve.phi) - expected)) <= 1e-12


def test_hyperbolic_disk_growth_default_grid():
    # Without a grid, R = artanh(r) at 17 radii r geometric from 0.05 to 0.95.
    r = np.geomspace(0.05, 0.95, 17)
    curve = hyperbolic_disk_growth(Polynomial((0.0, 1.0, 0.2)))
    assert curve.r_grid == tuple(np.arctanh(r))
    assert np.max(np.abs(np.array(curve.phi) - (1.0 + 2.0 * 0.04 * r**2))) <= 1e-12


def test_hyperbolic_disk_growth_rejects_nonpositive_radii():
    with pytest.raises(DomainError):
        hyperbolic_disk_growth(IDENTITY, (0.0, 0.5, 1.0))
