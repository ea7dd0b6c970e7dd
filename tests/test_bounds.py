"""Sharp inequality checks: pass/fail semantics and equality detection.

Equality witnesses are exact model maps: disk automorphisms for the
two-point bound, monomials for the coefficient bound, and the Blaschke
product z (z + a) / (1 + a z) for the second-order Schwarz bound.
"""

import json
import math

import numpy as np
import pytest

from diskgeom import (
    AnnulusCover,
    DomainError,
    InequalityReport,
    Moebius,
    NormalizationError,
    Polynomial,
    PowerSeries,
    check_don,
    check_don_symmetric,
    check_growth,
    check_isoperimetric,
    check_polya_chain,
    check_poukka,
    check_schur,
    disk_functional_estimate,
    diameter,
    evaluate,
    normalize_spec,
    report_to_json,
    sample_circle,
)

SEED = 20260815
EQ_TOL = 1e-6
IDENTITY = Polynomial((0.0, 1.0))
KOEBE_LIKE = Polynomial((0.0, 1.0, 0.2))
AUTOMORPHISM = Moebius(0.0, 0.5, 1.0)


def schur_extremal(a: float, count: int = 48) -> PowerSeries:
    # z (z + a) / (1 + a z): coefficients a, then (1 - a^2)(-a)^(n-2).
    coeffs = [0.0, a]
    for k in range(2, count):
        coeffs.append((1.0 - a * a) * (-a) ** (k - 2))
    return PowerSeries(tuple(coeffs))


def test_report_pass_semantics():
    rep = InequalityReport("X", lhs=1.0, rhs=0.5, slack=-0.5, equality=False, tol=1e-9)
    assert not rep.passed
    rep2 = InequalityReport("X", lhs=1.0, rhs=1.0 - 1e-12, slack=-1e-12,
                            equality=True, tol=1e-9)
    assert rep2.passed


def test_report_json_round_trip():
    rep = check_don(AUTOMORPHISM, 0.8, tol=EQ_TOL)
    payload = json.loads(report_to_json(rep))
    assert payload["name"] == "Don"
    assert payload["equality"] is True
    assert payload["context"]["tol"] == EQ_TOL
    # Serialization is key-sorted and stable.
    assert report_to_json(rep) == report_to_json(rep)


def test_disk_estimate_moebius_diameter():
    value, err = disk_functional_estimate(AUTOMORPHISM, "diam")
    assert abs(value - 2.0) <= max(1e-6, 3.0 * err)
    assert err <= 1e-3


def test_disk_estimate_identity_radius():
    value, err = disk_functional_estimate(IDENTITY, "rad")
    assert abs(value - 1.0) <= 1e-9
    assert err <= 1e-6


@pytest.mark.parametrize("spec, rad", [
    *(pytest.param(Polynomial((0.0,) * k + (1.0,)), 1.0, id=f"z{k}") for k in (*range(1, 9), 50)),
    *(pytest.param(Moebius(0.0, b, 1.0), 1.0 + b, id=f"moebius{b}") for b in (0.5, 0.9, 0.99)),
])
def test_disk_estimate_closed_forms(spec, rad):
    # Each map takes the closed disk onto the closed unit disk (z^k covers
    # it k times), with f(0) at distance rad - 1 from its centre.
    for kind, exact in (("rad", rad), ("diam", 2.0), ("area", math.pi)):
        value, err = disk_functional_estimate(spec, kind)
        assert abs(value - exact) <= err, kind


def test_open_disk_functionals_need_a_closed_disk_map():
    # The annulus cover is analytic on the open disk only.
    for kind in ("rad", "diam", "ndiam", "cap", "area", "perim"):
        with pytest.raises(NormalizationError):
            disk_functional_estimate(AnnulusCover(1.0), kind)
    with pytest.raises(DomainError):
        evaluate(AnnulusCover(1.0), 1.0)
    with pytest.raises(DomainError):
        sample_circle(AnnulusCover(1.0), 1.0, 8)
    p = Polynomial((0.0, 1.0, 0.2))
    assert evaluate(p, 1.0) == 1.2
    z = np.exp(0.5j * np.pi * np.arange(4))
    assert np.allclose(sample_circle(p, 1.0, 4).values, z + 0.2 * z * z, rtol=0.0, atol=1e-15)


def test_normalize_spec_diam():
    spec = normalize_spec(Polynomial((0.0, 3.0, 0.3)), "diam")
    value, err = disk_functional_estimate(spec, "diam")
    assert abs(value - 2.0) <= max(1e-8, 3.0 * err)
    # Area scales as the square of the factor, so it takes its square root.
    for kind, disk_value in (("rad", 1.0), ("area", math.pi), ("perim", 2.0 * math.pi)):
        spec = normalize_spec(Polynomial((0.0, 3.0, 0.3)), kind)
        value, err = disk_functional_estimate(spec, kind)
        assert abs(value - disk_value) <= max(1e-8, 3.0 * err)


def test_check_growth_identity_equality():
    for kind in ("rad", "diam", "ndiam", "cap", "area", "perim"):
        rep = check_growth(IDENTITY, 0.5, kind, tol=EQ_TOL)
        assert rep.passed
        assert rep.equality
    rep_d = check_growth(AUTOMORPHISM, 0.4, "diam", tol=EQ_TOL)
    assert rep_d.passed
    assert rep_d.lhs <= rep_d.rhs + EQ_TOL


def test_check_growth_rejects_unnormalized():
    with pytest.raises(NormalizationError):
        check_growth(Polynomial((0.0, 3.0)), 0.5, "rad")


def test_don_equality_at_special_point():
    # For (z - b)/(1 - b z) equality holds exactly at z = 2b/(1 + b^2).
    rep = check_don(AUTOMORPHISM, 0.8, tol=EQ_TOL)
    assert rep.passed
    assert rep.equality
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_don_strict_away_from_special_point():
    rep = check_don(AUTOMORPHISM, 0.3, tol=EQ_TOL)
    assert rep.passed
    assert not rep.equality
    assert rep.slack > 1e-4


def test_don_accepts_precomputed_diameter():
    rep = check_don(AUTOMORPHISM, 0.8, tol=EQ_TOL, diam_estimate=2.0)
    assert rep.passed
    assert rep.equality


def test_supplied_diameter_keeps_its_error():
    # Don's precondition allows 3 times the error of a supplied estimate, as
    # it does for its own; Poukka folds it into its tolerance the same way.
    over = 2.0 * 1.01 + 1e-3
    with pytest.raises(NormalizationError):
        check_don(AUTOMORPHISM, 0.5, diam_estimate=over)
    assert check_don(AUTOMORPHISM, 0.5, diam_estimate=over, diam_error=1e-3).passed
    cube = Polynomial((0.0, 0.0, 0.0, 1.0))
    value, err = disk_functional_estimate(cube, "diam")
    supplied = check_poukka(cube, 3, diam_estimate=value, diam_error=err)
    assert supplied == check_poukka(cube, 3)
    assert supplied.context["diam_error"] == err > 0.0


def test_don_rejects_oversized_image():
    with pytest.raises(NormalizationError):
        check_don(Polynomial((0.0, 3.0)), 0.5)


def test_don_symmetric_sharp_at_centered_pairs():
    # Equality needs image points placed symmetrically about the image
    # disk center: preimages of +-t under the automorphism.
    b = 0.5
    for t in (0.2, 0.5, 0.8):
        z = (t + b) / (1.0 + b * t)
        w = (b - t) / (1.0 - b * t)
        rep = check_don_symmetric(AUTOMORPHISM, z, w, tol=1e-9, diam_estimate=2.0)
        assert rep.passed
        assert rep.equality
        assert rep.lhs == pytest.approx(2.0 * t, abs=1e-12)
        assert rep.context["rhs_identity_gap"] <= 1e-12


def test_don_symmetric_strict_at_generic_pairs():
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        z = complex(*rng.uniform(-0.6, 0.6, 2))
        w = complex(*rng.uniform(-0.6, 0.6, 2))
        if abs(z - w) < 1e-3:
            continue
        rep = check_don_symmetric(AUTOMORPHISM, z, w, tol=1e-9, diam_estimate=2.0)
        assert rep.passed
        assert rep.slack >= 0.0


def test_don_symmetric_strict_for_koebe_like():
    spec = normalize_spec(KOEBE_LIKE, "diam")
    rep = check_don_symmetric(spec, 0.5, -0.5, tol=EQ_TOL)
    assert rep.passed
    assert not rep.equality


def test_don_symmetric_lhs_ignores_a_translation_of_f():
    # lhs is |g(z) - g(w)| on g = f - f(0), so a small image far from 0
    # keeps its digits: on f itself, Moebius(1e15, 0.5, 1) read 0.290786.
    z, w = 0.3, -0.2j
    base = check_don_symmetric(AUTOMORPHISM, z, w, diam_estimate=2.0).lhs
    assert base == 0.3165580244378586
    quadratic = check_don_symmetric(Polynomial((0.0, 1.0, 0.3)), z, w, diam_estimate=2.0).lhs
    for t in (1.0, -1e5j, 1e10 + 1e10j, -1e15, 1e15j, 7e14 + 7e14j):
        moved = check_don_symmetric(Moebius(t, 0.5, 1.0), z, w, diam_estimate=2.0)
        assert moved.lhs.hex() == base.hex()
        moved = check_don_symmetric(Polynomial((t, 1.0, 0.3)), z, w, diam_estimate=2.0)
        assert moved.lhs.hex() == quadratic.hex()


def test_poukka_equality_for_monomials():
    for n in (1, 2, 5):
        coeffs = (0.0,) * n + (1.0,)
        rep = check_poukka(Polynomial(coeffs), n, tol=EQ_TOL)
        assert rep.passed
        assert rep.equality


def test_poukka_strict_for_generic_polynomial():
    rep = check_poukka(Polynomial((0.2, 0.5, 0.1, 0.05)), 2, tol=EQ_TOL)
    assert rep.passed
    assert not rep.equality
    assert rep.slack > 0.1


def test_schur_equality_square_map():
    for r in (0.25, 0.5, 0.75):
        rep = check_schur(Polynomial((0.0, 0.0, 1.0)), r, tol=EQ_TOL)
        assert rep.passed
        assert rep.equality
        assert rep.lhs == pytest.approx(r * r, abs=1e-9)


def test_schur_equality_blaschke_extremal():
    rep = check_schur(schur_extremal(0.5), 0.6, tol=EQ_TOL)
    assert rep.passed
    assert rep.equality
    assert rep.lhs == pytest.approx(0.27 / 0.7, abs=1e-8)


def test_schur_strict_for_small_multiple():
    rep = check_schur(Polynomial((0.0, 0.0, 0.5)), 0.5, tol=EQ_TOL)
    assert rep.passed
    assert not rep.equality


def test_schur_probes_the_unit_circle():
    # sup |(f(z) - f(0))/z| = 0.99 + 0.0105 = 1.0005 is reached on the
    # circle; at r = 0.999 the z^100 term has shrunk by a tenth.
    with pytest.raises(NormalizationError):
        check_schur(Polynomial((0.0, 0.99) + (0.0,) * 99 + (0.0105,)), 0.5)


def test_schur_rejects_the_annulus_cover():
    # Its sup over D is 2, approached only at z = +-1, outside its domain.
    with pytest.raises(NormalizationError):
        check_schur(AnnulusCover(0.002), 0.5)


def test_schur_rejects_unbounded():
    with pytest.raises(NormalizationError):
        check_schur(Polynomial((0.0, 3.0)), 0.5)


def test_isoperimetric_disk_equality():
    r = 0.5
    rep = check_isoperimetric(math.pi * r * r, 2.0 * math.pi * r, tol=1e-9)
    assert rep.passed
    assert rep.equality


def test_isoperimetric_fails_on_impossible_values():
    rep = check_isoperimetric(10.0, 1.0, tol=1e-9)
    assert not rep.passed
    assert rep.slack < 0.0


def test_polya_chain_identity():
    polya, areadn = check_polya_chain(IDENTITY, 0.5, n=4, m=1024, seed=SEED)
    assert polya.name == "Polya" and areadn.name == "AreaDn"
    assert polya.passed and areadn.passed
    # Disk case: the whole chain collapses to equality.
    assert polya.equality and areadn.equality


def test_polya_chain_koebe_like():
    polya, areadn = check_polya_chain(KOEBE_LIKE, 0.6, n=5, m=1024, seed=SEED)
    assert polya.passed and areadn.passed
    assert polya.context["area_method"] == "series"


def test_polya_chain_names_the_area_method_it_read():
    # A Moebius map is injective, so "auto" reads the contour sum, which
    # puts the equality case's lhs at pi (0.4)^2 to rounding.
    polya, _ = check_polya_chain(AUTOMORPHISM, 0.5, n=4, m=1024, seed=SEED)
    assert polya.context["area_method"] == "series"
    assert abs(polya.lhs - np.pi * 0.16) <= polya.context["area_error"] <= 1e-12
    polya, _ = check_polya_chain(Polynomial((0.0, 0.0, 1.0)), 0.5, n=4, m=1024, seed=SEED)
    assert polya.context["area_method"] == "raster"


def test_diameter_estimate_consistency():
    # The open-disk estimate dominates every fixed-radius diameter.
    est, err = disk_functional_estimate(KOEBE_LIKE, "diam")
    inner = diameter(KOEBE_LIKE, 0.9).value
    assert est + 3.0 * err >= inner
