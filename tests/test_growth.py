"""Growth curves phi(r), their verdicts, limits, and CSV serialization."""

import io
import warnings
from dataclasses import replace

import numpy as np
import pytest

from diskgeom import (
    AnnulusCover,
    DomainError,
    GridError,
    GrowthCurve,
    Moebius,
    Polynomial,
    capacity_bracket,
    check_log_convex,
    check_monotone,
    default_grid,
    diameter,
    limit_at_zero,
    n_diameter,
    phi_curve,
    write_curve_csv,
)
from diskgeom import functionals, growth

SEED = 20260815
GRID7 = default_grid(7, 0.1, 0.9)
LINEAR = Polynomial((5.0, 3.0))
SQUARE = Polynomial((0.0, 0.0, 1.0))
KOEBE_LIKE = Polynomial((0.0, 1.0, 0.2))
# Polynomial 0 of the acceptance test AC10's stream.
AC10_POLY0 = Polynomial((
    0.25192859815738317 - 0.68406499195177362j, 0.54705643258170855 - 2.4124487853532783j,
    0.069401015516602646 + 0.17463714547323439j, -0.18322976220469084 + 0.88955835408099337j,
    -0.1657153301845341 + 1.0558162766139239j, -1.4244484668168733 + 0.91476230782625456j,
))


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


def test_area_curve_of_a_moebius_map_routes_to_the_contour_sum():
    # f(r D) is a disk of radius 0.75 r / (1 - 0.25 r^2).
    curve = phi_curve(Moebius(0.0, 0.5, 1.0), "area", GRID7)
    assert "area_method=series" in curve.flags
    expected = (0.75 / (1.0 - 0.25 * np.array(curve.r_grid) ** 2)) ** 2
    assert np.max(np.abs(np.array(curve.phi) - expected)) <= 1e-12


def test_area_curve_rejects_an_unknown_area_method():
    with pytest.raises(DomainError):
        phi_curve(KOEBE_LIKE, "area", GRID7, area_method="Auto")


def counting(monkeypatch, name) -> list:
    """Wrap functionals.<name>; each call appends its arguments to the list
    returned."""
    calls, original = [], getattr(functionals, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(functionals, name, wrapped)
    return calls


@pytest.mark.parametrize("kind, knobs", [("area", {}), ("cap", {"m": 512})])
def test_auto_sweep_sums_the_contour_once_per_radius(monkeypatch, kind, knobs):
    # "auto" resolves at the outer radius, and the sum that resolved it is
    # that radius's area: 17 sums on the default grid, not 18.
    sums = counting(monkeypatch, "area_univalent_series")
    curve = phi_curve(KOEBE_LIKE, kind, **knobs)
    assert "area_method=series" in curve.flags
    assert len(curve.r_grid) == 17
    assert [r for _, r in sums] == [curve.r_grid[-1], *curve.r_grid[:-1]]


def test_auto_sweep_past_a_critical_point_tests_univalence_once(monkeypatch):
    # f' = 1 + 1.6 z vanishes at -0.625, inside the outer disk: one verdict,
    # no contour sum, and the raster at each radius.
    verdicts = counting(monkeypatch, "is_univalent_sampled")
    sums = counting(monkeypatch, "area_univalent_series")
    rasters = counting(monkeypatch, "area")
    curve = phi_curve(Polynomial((0.0, 1.0, 0.8)), "area", resolution=256)
    assert "area_method=raster" in curve.flags
    assert [r for _, r in verdicts] == [curve.r_grid[-1]]
    assert sums == []
    assert [r for _, r in rasters] == list(curve.r_grid)


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


def _sweep_and_per_radius(monkeypatch, spec, kind, n, **knobs):
    """The estimates a phi_curve sweep with the knobs reads, and the
    per-radius diameter, n_diameter or capacity_bracket calls at its radii,
    each as the reprs of its values and the texts of its warnings; also the
    row counts of the sweep's minimize calls."""
    seen, sizes = [], []
    kind_of = growth.functional_kind

    def recording_kind(name):
        fk = kind_of(name)

        def estimator(*args, **kwargs):
            values = fk.estimator(*args, **kwargs)
            seen.extend(values)
            return values

        return replace(fk, estimator=estimator)

    minimize = functionals.minimize

    def sized(fun, x0):
        sizes.append(len(x0))
        return minimize(fun, x0)

    monkeypatch.setattr(growth, "functional_kind", recording_kind)
    monkeypatch.setattr(functionals, "minimize", sized)
    with warnings.catch_warnings(record=True) as swept:
        warnings.simplefilter("always")
        curve = phi_curve(spec, kind, n=n, **knobs)
    monkeypatch.undo()
    one = {
        "diam": lambda r: diameter(spec, r),
        "ndiam": lambda r: n_diameter(spec, r, n),
        "cap": lambda r: capacity_bracket(spec, r, n=n, **knobs),
    }[kind]
    with warnings.catch_warnings(record=True) as alone:
        warnings.simplefilter("always")
        per_radius = [one(r) for r in curve.r_grid]
    return (
        ([repr(fv) for fv in seen], [str(w.message) for w in swept]),
        ([repr(fv) for fv in per_radius], [str(w.message) for w in alone]),
        sizes,
    )


@pytest.mark.parametrize("spec", [KOEBE_LIKE, AC10_POLY0, AnnulusCover(1.0)],
                         ids=["quadratic", "ac10poly0", "annulus"])
@pytest.mark.parametrize("kind, n", [("diam", 2), ("ndiam", 2), ("ndiam", 3), ("ndiam", 4),
                                     ("ndiam", 6)])
def test_sweep_matches_per_radius_estimates(monkeypatch, spec, kind, n):
    # A sweep polishes the tuples of all its radii as the rows of one
    # descent; value, bar, witness, flags and warnings are those of one
    # call per radius.
    swept, alone, sizes = _sweep_and_per_radius(monkeypatch, spec, kind, n)
    assert swept == alone
    assert len(swept[0]) == len(default_grid())
    assert len(sizes) == 1


@pytest.mark.parametrize("spec, area_method", [
    (KOEBE_LIKE, "auto"), (Moebius(0.0, 0.5, 1.0), "raster"), (AnnulusCover(1.0), "raster"),
], ids=["quadratic", "moebius", "annulus"])
def test_cap_sweep_matches_per_radius_brackets(monkeypatch, spec, area_method):
    # The d_n tuples of all radii go to one descent; each bracket is the
    # one capacity_bracket gives at its radius.
    swept, alone, sizes = _sweep_and_per_radius(
        monkeypatch, spec, "cap", 8, area_method=area_method, resolution=256
    )
    assert swept == alone
    assert len(swept[0]) == len(default_grid())
    assert len(sizes) == 1


def test_sweep_mixes_radii_with_one_and_three_tuples(monkeypatch):
    # On z + 0.45 z^2 at n = 3 the restarts reach 3 distinct tuples at most
    # radii of the default grid and 1 at the largest.
    spec, counts = Polynomial((0.0, 1.0, 0.45)), []
    polish = functionals._polish_tuples

    def counting(spec, r, angles0):
        counts.extend(np.unique(r, return_counts=True)[1].tolist())
        return polish(spec, r, angles0)

    monkeypatch.setattr(functionals, "_polish_tuples", counting)
    swept, alone, _ = _sweep_and_per_radius(monkeypatch, spec, "ndiam", 3)
    assert {1, 3} <= set(counts)
    assert swept == alone


@pytest.mark.parametrize("kind, n", [("diam", 2), ("ndiam", 4)])
def test_sweep_of_a_constant_map_polishes_nothing(monkeypatch, kind, n):
    # No radius has polish rows, so minimize is never called.
    swept, alone, sizes = _sweep_and_per_radius(monkeypatch, Polynomial((2.0,)), kind, n)
    assert swept == alone
    assert sizes == []
    assert all("degenerate" in text for text in swept[0])


def test_sweep_polish_splits_into_bounded_calls(monkeypatch):
    # With room for 4 rows of n = 6 in a call, the 51 rows of a sweep take
    # 13 minimize calls, and each radius still ends where it would alone.
    monkeypatch.setattr(functionals, "POLISH_ENTRIES", 4 * 6 * 6)
    swept, alone, sizes = _sweep_and_per_radius(monkeypatch, KOEBE_LIKE, "ndiam", 6)
    assert swept == alone
    assert sizes == [4] * 12 + [3]
