"""Growth curves phi(r), their verdicts, limits, and CSV serialization."""

import io

import numpy as np
import pytest

from diskgeom import (
    GridError,
    GrowthCurve,
    Moebius,
    Polynomial,
    check_log_convex,
    check_monotone,
    default_grid,
    limit_at_zero,
    phi_curve,
    write_curve_csv,
)

SEED = 20260815
GRID7 = default_grid(7, 0.1, 0.9)
LINEAR = Polynomial((5.0, 3.0))
SQUARE = Polynomial((0.0, 0.0, 1.0))
KOEBE_LIKE = Polynomial((0.0, 1.0, 0.2))


def test_default_grid_is_geometric():
    grid = default_grid(9, 0.05, 0.95)
    steps = np.diff(np.log(grid))
    assert np.max(np.abs(steps - steps[0])) <= 1e-12
    assert grid[0] == 0.05 and grid[-1] == 0.95


def test_default_grid_validation():
    with pytest.raises(Exception):
        default_grid(9, 0.5, 0.2)
    with pytest.raises(Exception):
        default_grid(2, 0.1, 0.9)


def test_linear_map_curves_are_constant():
    # phi is the functional divided by its disk value, so a linear map
    # gives the constant |f'(0)| = 3.
    for kind in ("rad", "diam", "perim"):
        curve = phi_curve(LINEAR, kind, GRID7, seed=SEED)
        phi = np.array(curve.phi)
        tol = 3.0 * (np.array(curve.abs_errors) + 1e-12)
        assert np.max(np.abs(phi - 3.0)) <= np.max(tol) + 1e-9
        assert curve.verdicts["monotone"]["ok"]


def test_square_map_radius_curve_is_r():
    curve = phi_curve(SQUARE, "rad", GRID7)
    assert np.max(np.abs(np.array(curve.phi) - np.array(curve.r_grid))) <= 1e-7
    assert curve.verdicts["monotone"]["strict"]
    assert curve.verdicts["log_convex"]["ok"]


def test_koebe_like_curves_strictly_monotone():
    for kind, kwargs in (("rad", {}), ("diam", {}), ("area", {})):
        curve = phi_curve(KOEBE_LIKE, kind, GRID7, seed=SEED, **kwargs)
        assert curve.verdicts["monotone"]["strict"], kind


def test_area_curve_auto_routes_to_series_when_univalent():
    curve = phi_curve(KOEBE_LIKE, "area", GRID7)
    assert "area_method=series" in curve.flags
    expected = (1.0 + 2.0 * 0.04 * np.array(curve.r_grid) ** 2).astype(float)
    assert np.max(np.abs(np.array(curve.phi) - expected)) <= 1e-12


def test_cap_curve_carries_upper_estimate_flag():
    curve = phi_curve(KOEBE_LIKE, "cap", GRID7, n=4, m=512, seed=SEED)
    assert "cap_upper_estimate" in curve.flags
    assert curve.n == 4
    # Upper bracket endpoint normalized by r is at least 1 for these maps.
    assert np.min(curve.phi) >= 1.0 - 1e-6


def test_ndiam_curve_monotone_for_koebe_like():
    curve = phi_curve(KOEBE_LIKE, "ndiam", GRID7, n=3, m=512, seed=SEED)
    assert curve.verdicts["monotone"]["ok"]
    assert curve.n == 3


def test_loglog_branch_applicable_when_phi_above_one():
    # Radius curve of 2 z has phi = 2 throughout.
    curve = phi_curve(Polynomial((0.0, 2.0)), "rad", GRID7)
    assert curve.verdicts["loglog_convex"]["applicable"]
    assert curve.verdicts["loglog_convex"]["ok"]


def test_constant_spec_gives_all_zero_curve():
    curve = phi_curve(Polynomial((5.0,)), "rad", GRID7)
    assert np.max(np.abs(curve.phi)) == 0.0
    assert curve.verdicts["log_convex"]["ok"]
    assert not curve.verdicts["monotone"]["strict"]


def test_check_monotone_reports_first_violation():
    curve = GrowthCurve(
        kind="rad", r_grid=(0.1, 0.2, 0.4, 0.8), phi=(1.0, 1.1, 1.05, 1.2),
        abs_errors=(0.0,) * 4, normalization="r", spec_hash="x", verdicts={},
    )
    verdict = check_monotone(curve, 1e-3)
    assert not verdict.ok
    assert verdict.first_violation == 1
    assert verdict.min_forward_diff == pytest.approx(-0.05)


def test_check_log_convex_needs_geometric_grid():
    curve = GrowthCurve(
        kind="rad", r_grid=(0.1, 0.2, 0.25, 0.8), phi=(1.0, 1.0, 1.0, 1.0),
        abs_errors=(0.0,) * 4, normalization="r", spec_hash="x", verdicts={},
    )
    with pytest.raises(GridError):
        check_log_convex(curve, 1e-9)


def test_check_log_convex_flags_concavity():
    # log phi = (log r)^0.5-like bump: concave in the middle.
    r = tuple(np.geomspace(0.1, 0.8, 5))
    phi = (1.0, 1.5, 1.9, 2.1, 2.2)
    curve = GrowthCurve(
        kind="rad", r_grid=r, phi=phi, abs_errors=(0.0,) * 5,
        normalization="r", spec_hash="x", verdicts={},
    )
    verdict = check_log_convex(curve, 1e-9)
    assert not verdict.ok
    assert verdict.worst_second_diff < 0.0


def test_limit_at_zero_radius_and_area():
    check = limit_at_zero(KOEBE_LIKE, "rad")
    assert check.ok
    assert check.target == 1.0
    check_area = limit_at_zero(Moebius(0.0, 0.5, 1.0), "area", resolution=256)
    assert check_area.ok
    assert check_area.target == pytest.approx(0.75**2)


def test_write_curve_csv_format():
    curve = phi_curve(SQUARE, "rad", default_grid(5, 0.1, 0.9))
    buf = io.StringIO()
    write_curve_csv(curve, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == f"kind=rad,spec={curve.spec_hash}"
    assert lines[1] == "r,phi,abs_error"
    assert len(lines) == 2 + 5
    first = lines[2].split(",")
    assert float(first[0]) == pytest.approx(0.1)
    assert float(first[1]) == pytest.approx(0.1, abs=1e-6)


def test_write_curve_csv_to_path(tmp_path):
    curve = phi_curve(SQUARE, "rad", default_grid(5, 0.1, 0.9))
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    text = path.read_text()
    assert text.startswith("kind=rad,")
