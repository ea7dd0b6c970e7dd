"""Acceptance gate: twelve end-to-end criteria over the whole package.

Each test prints one PASS/FAIL line (run with -s to see them on success)
and asserts the same condition, so the suite is green exactly when every
criterion holds at its stated tolerance.
"""

import math
import time

import numpy as np

from diskgeom import (
    AnnulusCover,
    Moebius,
    Polynomial,
    PowerSeries,
    area,
    area_annulus_cover,
    area_series_annulus,
    check_density_lower_bound,
    check_don,
    check_isoperimetric,
    check_not_log_convex,
    check_polya_chain,
    check_poukka,
    check_schur,
    circle_image_length,
    default_grid,
    density_via_cover,
    disk_functional_estimate,
    disk_n_diameter,
    area_univalent_series,
    evaluate,
    fekete_witness_is_roots,
    hadamard_bound_check,
    hyp_distance_disk,
    limit_profile,
    limit_target,
    n_diameter,
    phi_curve,
    roots_of_unity_sum,
    second_sum,
    univalence_threshold,
    vandermonde_check,
    PointTuple,
)
from diskgeom.counterexample import _area_from_s, _log_shrink_rate, _s_of_x
from diskgeom.functionals import _sqrt_deriv_series_length

SEED = 20260815
IDENTITY = Polynomial((0.0, 1.0))
LINEAR = Polynomial((5.0, 3.0))
KOEBE_LIKE = Polynomial((0.0, 1.0, 0.2))
AUTOMORPHISM = Moebius(0.0, 0.5, 1.0)


def report(index: int, ok: bool, detail: str) -> None:
    print(f"AC-{index}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_ac1_disk_n_diameter_and_fekete_points():
    t0 = time.perf_counter()
    worst = 0.0
    witnesses_ok = True
    for n in range(2, 9):
        fv = n_diameter(IDENTITY, 0.999, n, m=2048, seed=SEED)
        worst = max(worst, abs(fv.value - disk_n_diameter(n)))
        witnesses_ok = witnesses_ok and fekete_witness_is_roots(fv.witness, tol=5e-3)
    elapsed = time.perf_counter() - t0
    ok = worst <= 2e-3 + 1e-12 and witnesses_ok and elapsed <= 30.0
    report(1, ok, f"max deviation {worst:.2e}, witnesses {witnesses_ok}, {elapsed:.1f}s")
    assert worst <= 2e-3 + 1e-12
    assert witnesses_ok
    assert elapsed <= 30.0


def test_ac2_linear_map_curves_constant():
    grid = default_grid()
    targets = {"rad": 3.0, "diam": 3.0, "ndiam": 3.0, "cap": 3.0, "area": 9.0, "perim": 3.0}
    ok = True
    details = []
    for kind, target in targets.items():
        curve = phi_curve(
            LINEAR, kind, grid, n=4, m=1024, resolution=512, seed=SEED,
            area_method="raster",
        )
        phi = np.array(curve.phi)
        errs = np.array(curve.abs_errors)
        dev = float(np.max(np.abs(phi - target)))
        tol = 3.0 * float(np.max(errs)) + 1e-12
        kind_ok = dev <= tol
        if kind == "rad":
            kind_ok = kind_ok and dev <= 1e-9
        if kind == "area":
            kind_ok = dev <= 2.0 * float(np.max(errs))
        ok = ok and kind_ok
        details.append(f"{kind} {dev:.1e}")
    report(2, ok, ", ".join(details))
    assert ok


def test_ac3_strict_growth_and_log_convexity():
    grid = default_grid()
    strict_ok = True
    for kind in ("rad", "diam", "area", "ndiam"):
        curve = phi_curve(KOEBE_LIKE, kind, grid, n=4, m=2048, seed=SEED)
        strict_ok = strict_ok and curve.verdicts["monotone"]["strict"]
    convex_ok = True
    for kind in ("rad", "ndiam", "cap"):
        curve = phi_curve(KOEBE_LIKE, kind, grid, n=4, m=2048, seed=SEED)
        convex_ok = convex_ok and curve.verdicts["log_convex"]["ok"]
    ok = strict_ok and convex_ok
    report(3, ok, f"strict monotone {strict_ok}, log-convex {convex_ok}")
    assert strict_ok
    assert convex_ok


def test_ac4_area_curve_not_log_convex():
    t0 = time.perf_counter()
    run = check_not_log_convex(0.1)
    min_second = min(run.second_diffs)
    straddles = run.r_grid[0] < run.threshold < run.r_grid[-1]
    # Continuity across the regime boundary.  For c = 0.1 the threshold
    # sits within 5e-14 of r = 1, so the boundary is probed in the grid
    # coordinate x = log r / log threshold; for c = 1 the radii resolve
    # and the closed form is also cross-checked against the coefficient
    # series just inside the univalent regime.
    rate = _log_shrink_rate(0.1)
    a_lo = _area_from_s(0.1, _s_of_x(1.0 + 1e-6, rate), 1e-10)
    a_hi = _area_from_s(0.1, _s_of_x(1.0 - 1e-6, rate), 1e-10)
    jump_small_c = abs(a_hi - a_lo)
    thr1 = univalence_threshold(1.0)
    a_below = area_annulus_cover(1.0, thr1 - 1e-6)
    a_above = area_annulus_cover(1.0, thr1 + 1e-6)
    jump_c1 = abs(a_above - a_below) / max(1.0, a_below)
    series_gap = abs(area_series_annulus(1.0, thr1 - 1e-6) - a_below) / max(1.0, a_below)
    elapsed = time.perf_counter() - t0
    continuity_ok = jump_small_c <= 1e-4 and jump_c1 <= 1e-4 and series_gap <= 1e-4
    ok = (
        len(run.r_grid) == 33 and min_second < -1e-4 and straddles
        and continuity_ok and elapsed <= 60.0
    )
    report(
        4, ok,
        f"min second diff {min_second:.2e}, boundary jumps {jump_small_c:.1e}/"
        f"{jump_c1:.1e}, series gap {series_gap:.1e}, {elapsed:.1f}s",
    )
    assert min_second < -1e-4
    assert straddles
    assert continuity_ok
    assert elapsed <= 60.0


def test_ac5_limit_profile():
    target_one = limit_target(1.0)
    closed_form = -(math.pi / 2.0) * math.log(2.0)
    target_ok = abs(target_one - closed_form) <= 1e-8
    xs = (0.25, 0.5, 0.75)
    prof_05 = limit_profile(0.05, xs)
    prof_01 = limit_profile(0.01, xs)
    closer = all(
        abs(v1 - t1) < abs(v5 - t5)
        for (_, v5, t5), (_, v1, t1) in zip(prof_05, prof_01)
    )
    ok = target_ok and closer
    report(5, ok, f"target gap {abs(target_one - closed_form):.1e}, c=0.01 closer {closer}")
    assert target_ok
    assert closer


def test_ac6_two_point_bound_sharpness():
    diam_est, diam_err = disk_functional_estimate(AUTOMORPHISM, "diam")
    norm_ok = abs(diam_est - 2.0) <= 1e-3
    rep_eq = check_don(AUTOMORPHISM, 0.8, tol=1e-6, diam_estimate=diam_est)
    equality_ok = rep_eq.passed and abs(rep_eq.slack) <= 1e-6
    strict_count = 0
    for z in np.linspace(0.02, 0.98, 50):
        rep = check_don(AUTOMORPHISM, float(z), tol=1e-9, diam_estimate=diam_est)
        if rep.passed and rep.slack > 1e-4:
            strict_count += 1
    ok = norm_ok and equality_ok and strict_count == 49
    report(
        6, ok,
        f"Diam {diam_est:.6f}, equality slack {rep_eq.slack:.1e}, "
        f"strict at {strict_count}/50",
    )
    assert norm_ok
    assert equality_ok
    assert strict_count == 49


def test_ac7_coefficient_bound():
    equality_ok = True
    worst = 0.0
    for n in range(1, 9):
        spec = Polynomial((0.0,) * n + (1.0,))
        rep = check_poukka(spec, n, tol=1e-6)
        worst = max(worst, abs(rep.slack))
        equality_ok = equality_ok and rep.passed and abs(rep.slack) <= 1e-6
    rng = np.random.default_rng(SEED)
    random_ok = True
    for _ in range(100):
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        rep = check_poukka(Polynomial(tuple(coeffs)), 5, tol=1e-9)
        random_ok = random_ok and rep.passed and rep.slack > 0.0
    ok = equality_ok and random_ok
    report(7, ok, f"monomial worst slack {worst:.1e}, 100 random strict {random_ok}")
    assert equality_ok
    assert random_ok


def test_ac8_second_order_schwarz_bound():
    square = Polynomial((0.0, 0.0, 1.0))
    eq_ok = True
    for r in (0.25, 0.5, 0.75):
        rep = check_schur(square, r, tol=1e-6)
        eq_ok = eq_ok and rep.passed and abs(rep.slack) <= 1e-6
    # Extremal Blaschke-type map z (z + 0.5) / (1 + 0.5 z) as a series.
    coeffs = [0.0, 0.5] + [0.75 * (-0.5) ** (k - 2) for k in range(2, 48)]
    extremal = PowerSeries(tuple(coeffs))
    rep_ext = check_schur(extremal, 0.6, tol=1e-6)
    ext_ok = rep_ext.passed and abs(rep_ext.slack) <= 1e-6
    value_ok = abs(rep_ext.lhs - 0.27 / 0.7) <= 1e-6
    ok = eq_ok and ext_ok and value_ok
    report(8, ok, f"square-map equality {eq_ok}, extremal slack {rep_ext.slack:.1e}")
    assert eq_ok
    assert ext_ok
    assert value_ok


def test_ac9_identity_suite():
    worst = 0.0
    for n in range(2, 65):
        for j in range(1, n + 1):
            _, _, res = roots_of_unity_sum(n, j)
            worst = max(worst, res)
            _, _, res2 = second_sum(n, j)
            worst = max(worst, res2)
    sums_ok = worst <= 1e-10
    rng = np.random.default_rng(SEED)
    tuples_ok = True
    count = 0
    while count < 200:
        n = int(rng.integers(2, 13))
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        z = pts[:, 0] + 1j * pts[:, 1]
        z = z / np.maximum(np.abs(z), 1.0)
        try:
            t = PointTuple(tuple(z))
        except Exception:
            continue
        count += 1
        _, _, match = vandermonde_check(t)
        tuples_ok = tuples_ok and match and hadamard_bound_check(t).passed
    ok = sums_ok and tuples_ok
    report(9, ok, f"worst sum residual {worst:.1e}, 200 tuples {tuples_ok}")
    assert sums_ok
    assert tuples_ok


def test_ac10_inequality_chain_on_random_polynomials():
    rng = np.random.default_rng(SEED)
    ok = True
    worst_name = ""
    for i in range(20):
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        spec = Polynomial(tuple(coeffs))
        for r in (0.3, 0.6, 0.9):
            polya, areadn = check_polya_chain(
                spec, r, n=4, tol=0.0, m=1024, resolution=256, seed=SEED,
            )
            a = area(spec, r, resolution=256)
            length = circle_image_length(spec, r)
            iso_tol = 3.0 * (
                4.0 * math.pi * a.abs_error + 2.0 * length.value * length.abs_error
            )
            iso = check_isoperimetric(a.value, length.value, tol=iso_tol)
            for rep in (polya, areadn, iso):
                if not rep.passed:
                    ok = False
                    worst_name = f"{rep.name} poly{i} r={r}"
    report(10, ok, "all 180 reports PASS" if ok else f"first failure {worst_name}")
    assert ok


def test_ac11_hyperbolic_density():
    dens = density_via_cover(AnnulusCover(1.0), 0.0)
    dens_ok = abs(dens - 0.5) <= 1e-9
    rep = check_density_lower_bound(AnnulusCover(1.0), 0.0)
    rhs_ok = rep.passed and abs(rep.rhs - 0.2083) <= 1e-3
    rng = np.random.default_rng(SEED)
    phi = Moebius(0.0, 0.4 - 0.1j, np.exp(0.9j))
    worst = 0.0
    for _ in range(1000):
        radii = 0.85 * np.sqrt(rng.uniform(0.0, 1.0, 2))
        angles = 2.0 * np.pi * rng.uniform(0.0, 1.0, 2)
        z, w = radii * np.exp(1j * angles)
        if abs(z - w) < 1e-9:
            continue
        d0 = hyp_distance_disk(z, w)
        d1 = hyp_distance_disk(complex(evaluate(phi, z)), complex(evaluate(phi, w)))
        worst = max(worst, abs(d0 - d1))
    invariance_ok = worst <= 1e-12
    ok = dens_ok and rhs_ok and invariance_ok
    report(
        11, ok,
        f"density {dens:.12f}, rhs {rep.rhs:.6f}, invariance worst {worst:.1e}",
    )
    assert dens_ok
    assert rhs_ok
    assert invariance_ok


def test_ac12_raster_vs_series_cross_check():
    rng = np.random.default_rng(SEED)
    area_ok = True
    perim_ok = True
    worst_perim = 0.0
    for _ in range(10):
        # z + higher terms with sum k |a_k| < 1: univalent with
        # nonvanishing derivative on the closed disk.
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        weight = np.arange(2, 6)
        raw = raw * (0.7 / np.sum(weight * np.abs(raw)))
        spec = Polynomial((0.0, 1.0) + tuple(raw))
        a_raster = area(spec, 0.5, resolution=512)
        a_series = area_univalent_series(spec, 0.5)
        gap = abs(a_raster.value - a_series.value)
        area_ok = area_ok and gap <= 2.0 * (a_raster.abs_error + a_series.abs_error)
        quad = circle_image_length(spec, 0.5)
        series_len = _sqrt_deriv_series_length(spec, 0.5)
        worst_perim = max(worst_perim, abs(quad.value - series_len))
        perim_ok = perim_ok and abs(quad.value - series_len) <= 1e-6
    ok = area_ok and perim_ok
    report(12, ok, f"areas within bands {area_ok}, worst perimeter gap {worst_perim:.1e}")
    assert area_ok
    assert perim_ok
