"""Exact root-of-unity sums, Vandermonde products, Hadamard equality."""

import cmath
import functools
import math
import warnings

import numpy as np
import pytest

from diskgeom import (
    ConditioningWarning,
    DomainError,
    PointTuple,
    fekete_witness_is_roots,
    hadamard_bound_check,
    identity_suite,
    roots_of_unity,
    roots_of_unity_sum,
    second_sum,
    vandermonde_check,
)
from diskgeom import identities
from diskgeom.identities import (
    _hadamard_report,
    _log_abs_det,
    _row_faults,
    _tuple_checks,
    _vandermonde_rows,
)

SEED = 20260815
SUM_TOL = 1e-12
SECOND_TOL = 1e-11


def brute_force_sum(n: int, j: int) -> complex:
    # Independent evaluation without the shared power table.
    total = 0.0 + 0.0j
    for k in range(1, n):
        a_k = cmath.exp(2j * cmath.pi * k / n)
        a_jk = cmath.exp(2j * cmath.pi * ((j * k) % n) / n)
        total += (1.0 - a_jk) / (1.0 - a_k)
    return total


def test_roots_of_unity_basic():
    w = roots_of_unity(6)
    assert w.shape == (6,)
    assert np.max(np.abs(w**6 - 1.0)) <= 1e-12
    assert abs(w[3] + 1.0) <= 1e-12


def test_sum_telescopes_to_n_minus_j():
    for n in (2, 3, 5, 8, 13, 32, 64):
        for j in range(1, n + 1):
            total, expected, residual = roots_of_unity_sum(n, j)
            assert expected == complex(n - j, 0.0)
            assert residual <= SUM_TOL * n
            assert abs(total - brute_force_sum(n, j)) <= 1e-9


def test_sum_rejects_out_of_range_j():
    with pytest.raises(DomainError):
        roots_of_unity_sum(5, 0)
    with pytest.raises(DomainError):
        roots_of_unity_sum(5, 6)


def test_second_sum_closed_form():
    for n in (2, 3, 7, 16, 64):
        for p in range(1, n + 1):
            total, expected, residual = second_sum(n, p)
            a_const = (n - 1) / 2.0
            assert expected.real == pytest.approx(p * a_const - (n - p / 2.0) * (p - 1))
            assert residual <= SECOND_TOL * n * n


def test_vandermonde_at_roots_of_unity():
    # |det V| at the n-th roots of unity is n^(n/2).
    for n in (2, 3, 5, 8, 16):
        t = PointTuple(tuple(roots_of_unity(n)))
        product, det_abs, match = vandermonde_check(t)
        assert match
        assert det_abs == pytest.approx(n ** (n / 2.0), rel=1e-9)
        assert product == pytest.approx(det_abs, rel=1e-9)


def test_vandermonde_random_tuples_match():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        n = int(rng.integers(2, 11))
        pts = rng.uniform(-0.7, 0.7, (n, 2))
        t = PointTuple(tuple(pts[:, 0] + 1j * pts[:, 1]))
        _, _, match = vandermonde_check(t)
        assert match


def test_vandermonde_warns_near_coincident():
    t = PointTuple((0.0, 1e-7, 0.5))
    with pytest.warns(ConditioningWarning):
        vandermonde_check(t)


def test_hadamard_equality_at_roots_of_unity():
    for n in (2, 4, 9):
        rotation = cmath.exp(0.37j)
        t = PointTuple(tuple(rotation * roots_of_unity(n)))
        report = hadamard_bound_check(t)
        assert report.passed
        assert report.equality


def test_hadamard_strict_inside_disk():
    t = PointTuple((0.1, 0.3 + 0.2j, -0.4j, 0.6))
    report = hadamard_bound_check(t)
    assert report.passed
    assert not report.equality
    assert report.slack > 0.0


def test_point_tuple_validation():
    with pytest.raises(DomainError):
        PointTuple((1.0,))
    with pytest.raises(DomainError):
        PointTuple((0.0, 1.5))
    with pytest.raises(DomainError):
        PointTuple((0.5, 0.5))


def test_fekete_witness_accepts_rotated_scaled_roots():
    for n in (3, 5, 8):
        pts = 0.9 * cmath.exp(0.41j) * roots_of_unity(n)
        assert fekete_witness_is_roots(tuple(pts), tol=1e-6)


def test_fekete_witness_accepts_shuffled_order():
    rng = np.random.default_rng(SEED + 2)
    pts = list(0.999 * roots_of_unity(6))
    rng.shuffle(pts)
    assert fekete_witness_is_roots(tuple(pts), tol=1e-6)


def test_fekete_witness_rejects_perturbed_tuple():
    pts = np.array(0.9 * roots_of_unity(5))
    pts[2] *= cmath.exp(0.1j)
    assert not fekete_witness_is_roots(tuple(pts), tol=1e-3)


def test_identity_suite_small():
    result = identity_suite(n_max=16, tuple_count=40, seed=SEED)
    assert result["lemma_ok"]
    assert result["second_sum_ok"]
    assert result["vandermonde_ok"]
    assert result["hadamard_ok"]
    assert result["lemma_residual"] <= 1e-12


@functools.cache
def reference_sums(n_max: int) -> tuple:
    # The suite's sum loop before its rows were stacked: one public call per
    # (n, j).
    worst_lemma = 0.0
    worst_second = 0.0
    for n in range(2, n_max + 1):
        for j in range(1, n + 1):
            _, _, res = roots_of_unity_sum(n, j)
            worst_lemma = max(worst_lemma, res / n)
            _, _, res2 = second_sum(n, j)
            worst_second = max(worst_second, res2 / (n * n))
    return worst_lemma, worst_second


@functools.cache
def reference_tuples(tuple_count: int, seed: int) -> tuple:
    # The suite's tuple loop before its rows were stacked: one PointTuple
    # and one call of each public check per tuple.
    rng = np.random.default_rng(seed)
    vand_ok = True
    hadamard_ok = True
    for _ in range(tuple_count):
        n = int(rng.integers(2, 13))
        raw = rng.uniform(-1.0, 1.0, size=(n, 2))
        pts = raw[:, 0] + 1j * raw[:, 1]
        pts = pts / np.maximum(np.abs(pts), 1.0)
        try:
            tup = PointTuple(tuple(pts))
        except DomainError:
            continue
        _, _, match = vandermonde_check(tup)
        vand_ok = vand_ok and match
        hadamard_ok = hadamard_ok and hadamard_bound_check(tup).passed
    return vand_ok, hadamard_ok


def test_identity_suite_matches_per_call_reference():
    for n_max in (2, 3, 16, 64):
        worst_lemma, worst_second = reference_sums(n_max)
        for seed in (0, 7, SEED):
            for tuple_count in (1, 200, 1000):
                vand_ok, hadamard_ok = reference_tuples(tuple_count, seed)
                expected = {
                    "lemma_residual": worst_lemma,
                    "second_sum_residual": worst_second,
                    "lemma_ok": worst_lemma <= SUM_TOL,
                    "second_sum_ok": worst_second <= SECOND_TOL,
                    "vandermonde_ok": vand_ok,
                    "hadamard_ok": hadamard_ok,
                }
                assert repr(identity_suite(n_max, tuple_count, seed)) == repr(expected)


GOOD = (0.1, 0.3 + 0.2j, -0.4j)
COINCIDENT = (0.2, 0.2, 0.5j)
# Outside the disk by 1e-9, with a gap of about 1e-7 that would warn if the
# row were kept.
OUTSIDE = (1.0 + 1e-9, 1.0 - 1e-7, 0.0)


def test_stacked_tuple_checks_skip_the_rows_point_tuple_rejects():
    stack = np.array([GOOD, COINCIDENT, OUTSIDE])
    outside, coincident = _row_faults(stack)
    assert outside.tolist() == [False, False, True]
    assert coincident.tolist() == [False, True, False]
    for row in (COINCIDENT, OUTSIDE):
        with pytest.raises(DomainError):
            PointTuple(row)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConditioningWarning)
        # A kept coincident row would fail the Vandermonde match.
        assert _tuple_checks(stack) == (True, True)
        assert _tuple_checks(np.array([COINCIDENT, OUTSIDE])) == (True, True)


def test_stacked_tuple_checks_warn_on_a_near_coincident_row():
    with pytest.warns(ConditioningWarning):
        assert _tuple_checks(np.array([GOOD, (0.0, 1e-7, 0.5)])) == (True, True)


def test_one_tuple_checks_equal_their_row_of_a_stack():
    rng = np.random.default_rng(SEED + 3)
    rows = [
        tuple(cmath.exp(0.37j) * roots_of_unity(5)),
        tuple(rng.uniform(-0.7, 0.7, 5) + 1j * rng.uniform(-0.7, 0.7, 5)),
        (0.1, 0.3 + 0.2j, -0.4j, 0.6, -0.5 - 0.5j),
    ]
    stack = np.array(rows)
    logdet = _log_abs_det(stack)
    log_product, match = _vandermonde_rows(stack, logdet)
    for i, row in enumerate(rows):
        t = PointTuple(row)
        stacked = (math.exp(log_product[i]), math.exp(logdet[i]), bool(match[i]))
        assert repr(vandermonde_check(t)) == repr(stacked)
        assert repr(hadamard_bound_check(t)) == repr(_hadamard_report(5, logdet[i]))


def test_identity_suite_checks_the_seeded_tuples(monkeypatch):
    # The suite's pass booleans cannot tell which tuples it checked, so the
    # stacks that reach _tuple_checks are compared with a redraw of the
    # seeded stream: per tuple, its size, then its points in the square,
    # pulled into the closed disk.
    stacks, original = [], identities._tuple_checks

    def recording(stack):
        stacks.append(stack.copy())
        return original(stack)

    monkeypatch.setattr(identities, "_tuple_checks", recording)
    identity_suite(n_max=2, tuple_count=1000, seed=7)
    rng, groups = np.random.default_rng(7), {}
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        raw = rng.uniform(-1.0, 1.0, (n, 2))
        pts = raw[:, 0] + 1j * raw[:, 1]
        groups.setdefault(n, []).append(pts / np.maximum(np.abs(pts), 1.0))
    assert [stack.shape for stack in stacks] == [(len(g), n) for n, g in groups.items()]
    for stack, rows in zip(stacks, groups.values()):
        assert stack.tobytes() == np.array(rows).tobytes()
