"""Annulus-cover area study: the growth curve that is not log-convex.

The set area A(r) of the image of r D under exp(2 i c atanh z) has a
closed integral form valid on both sides of the univalence threshold
tanh(pi / (2 c)); below the threshold it must agree with the coefficient
series, and for small c its log develops a concave kink at the
threshold.
"""

import json
import math
import warnings

import numpy as np
import pytest

from diskgeom import (
    AnnulusCover,
    DomainError,
    QuadratureError,
    area_annulus_cover,
    check_not_log_convex,
    limit_profile,
    limit_target,
    taylor_coefficients,
    univalence_threshold,
)
from diskgeom.cli import main

AGREE_TOL = 1e-8
# Known value of the limit profile at x = 1: -(pi / 2) log 2.
LIMIT_AT_ONE = -1.0887930451518414
# Most Taylor coefficients the series oracle may sum.
SERIES_MAX_TERMS = 16384


def area_series_annulus(c: float, r: float) -> float:
    """Univalent-regime area pi sum n |a_n|^2 r^(2n) from the coefficient
    series; the oracle independent of the closed integral, at moderate radii.

    Raises QuadratureError when the tail has not settled within
    SERIES_MAX_TERMS (radii too close to 1 for the series to be practical).
    """
    if not (0.0 < r < univalence_threshold(c)):
        raise DomainError("series area needs the univalent regime")
    count = 256
    while True:
        coeffs = taylor_coefficients(AnnulusCover(c), count)
        n = np.arange(count)
        terms = n * np.abs(coeffs) ** 2 * float(r) ** (2 * n)
        total = float(np.pi * np.sum(terms))
        tail = float(np.pi * np.sum(terms[count // 2:]))
        if tail <= 1e-12 * max(total, 1e-300):
            return total
        if count >= SERIES_MAX_TERMS:
            raise QuadratureError(
                f"series area did not settle within {SERIES_MAX_TERMS} terms at r={r}"
            )
        count *= 2


def test_threshold_value():
    assert univalence_threshold(1.0) == pytest.approx(math.tanh(math.pi / 2.0), abs=1e-15)
    assert univalence_threshold(0.5) == pytest.approx(math.tanh(math.pi), abs=1e-15)
    # Small c pushes the threshold against 1 without reaching it.
    thr = univalence_threshold(0.1)
    assert 0.0 < 1.0 - thr < 1e-12


def test_area_matches_series_below_threshold():
    for c, r in ((1.0, 0.5), (1.0, 0.8), (0.5, 0.9), (2.0, 0.3)):
        assert r < univalence_threshold(c)
        a_int = area_annulus_cover(c, r)
        a_ser = area_series_annulus(c, r)
        assert abs(a_int - a_ser) <= AGREE_TOL * max(1.0, a_ser)


def test_area_known_value():
    # Frozen from the coefficient series at c = 1, r = 0.8.
    assert area_annulus_cover(1.0, 0.8) == pytest.approx(21.6090122147, abs=2e-8)


def test_area_monotone_in_r():
    areas = [area_annulus_cover(1.0, r) for r in (0.3, 0.6, 0.9, 0.99)]
    assert all(a < b for a, b in zip(areas, areas[1:]))


def test_area_saturates_at_full_annulus():
    # As r -> 1 the image fills the annulus of area 2 pi sinh(pi c).
    full = 2.0 * math.pi * math.sinh(math.pi)
    a = area_annulus_cover(1.0, 1.0 - 1e-12)
    assert a < full
    assert full - a <= 1e-4 * full


def test_area_rejects_bad_arguments():
    with pytest.raises(DomainError):
        area_annulus_cover(0.0, 0.5)
    with pytest.raises(DomainError):
        area_annulus_cover(1.0, 1.5)


def test_not_log_convex_at_small_c():
    run = check_not_log_convex(0.1)
    assert run.has_negative_second_diff
    assert min(run.second_diffs) < -1e-4
    assert len(run.second_diffs) == len(run.r_grid) - 2
    assert len(run.regimes) == len(run.r_grid)
    assert "univalent" in run.regimes and "formula" in run.regimes
    # Radii increase and straddle the threshold.
    assert all(a < b for a, b in zip(run.r_grid, run.r_grid[1:]))
    assert run.r_grid[0] < run.threshold < run.r_grid[-1]


def test_regimes_follow_threshold():
    run = check_not_log_convex(1.0, x_min=0.5, x_max=1.5, points=9)
    for r, regime in zip(run.r_grid, run.regimes):
        expected = "univalent" if r < run.threshold else "formula"
        assert regime == expected


def test_log_convex_within_univalent_regime_at_large_c():
    # Restricted to radii below the threshold the curve stays log-convex.
    run = check_not_log_convex(1.0, x_min=1.05, x_max=3.0, points=15)
    assert all(regime == "univalent" for regime in run.regimes)
    assert min(run.second_diffs) > -1e-9


def test_small_c_path_is_stable():
    # c = 0.01 exercises the log1p branch; areas must stay finite and
    # positive across the threshold.
    run = check_not_log_convex(0.01, x_min=0.5, x_max=1.5, points=7)
    assert all(math.isfinite(a) and a > 0.0 for a in run.A_values)


def test_small_radii_keep_their_digits():
    # At c = 300 the grid reaches r = 3.9e-10, where A = 4 pi c^2 r^2
    # (1 + 2 c^2 r^2 + ...); the first two radii put the correction below
    # 1e-9, and the areas match the two-term expansion to rounding.
    c = 300.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = check_not_log_convex(c, points=5)
    for r, a in list(zip(run.r_grid, run.A_values))[:2]:
        leading = 4.0 * math.pi * c * c * r * r
        assert a == pytest.approx(leading, rel=1e-9)
        assert a == pytest.approx(leading * (1.0 + 2.0 * c * c * r * r), rel=1e-12)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_small_radii_print_strict_json(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["counterexample", "--c", "300", "--points", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert all(a > 0.0 for a in payload["A"])


def test_underflowing_area_is_a_domain_error(capsys):
    # r = 7.9e-229 at x = 100 puts the area below the smallest double.
    with pytest.raises(DomainError):
        check_not_log_convex(300.0, points=3, x_max=100.0)
    code = main(["counterexample", "--c", "300", "--points", "3", "--x-max", "100"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "DomainError"


def test_c_past_double_resolution_is_a_domain_error(capsys):
    # Above c = pi 2^54, exp(-pi/c) rounds to 1 and log1p(-1) has no value.
    code = main(["counterexample", "--c", "1e17"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "DomainError"
    assert "pi 2^54" in error["message"]


def test_limit_target_closed_form_at_one():
    assert limit_target(1.0) == pytest.approx(LIMIT_AT_ONE, abs=1e-10)


def test_limit_target_small_x_expansion():
    # arcsin(u)/u -> 1, so the target behaves like -x near zero.
    x = 1e-3
    assert limit_target(x) == pytest.approx(-x, abs=1e-7)


def test_limit_profile_converges_as_c_shrinks():
    xs = (0.5,)
    prof_big = limit_profile(0.05, xs)
    prof_small = limit_profile(0.01, xs)
    (x_b, val_b, tgt_b), = prof_big
    (x_s, val_s, tgt_s), = prof_small
    assert tgt_b == pytest.approx(tgt_s, abs=1e-12)
    assert abs(val_s - tgt_s) < abs(val_b - tgt_b)
