"""Function specs: evaluation, derivatives, coefficients, serialization."""

import cmath
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskgeom import (
    AnnulusCover,
    DomainError,
    Moebius,
    Polynomial,
    PowerSeries,
    QuadratureError,
    UnsupportedError,
    derivative,
    evaluate,
    sample_circle,
    scale_spec,
    second_derivative,
    spec_from_json,
    spec_hash,
    spec_to_json,
    taylor_coefficients,
)
from diskgeom.analytic import _unit_circle, critical_points, jet
from diskgeom.quadrature import integrate

EXACT = 1e-14
SERIES_TOL = 1e-12
SEED = 20260815


def test_polynomial_eval_matches_horner():
    p = Polynomial((1.0, -2.0, 0.5, 3.0j))
    z = 0.3 - 0.4j
    expected = 1.0 - 2.0 * z + 0.5 * z**2 + 3.0j * z**3
    assert abs(complex(evaluate(p, z)) - expected) <= EXACT


def test_polynomial_eval_vectorized():
    p = Polynomial((0.0, 1.0, 0.25))
    z = np.array([0.1, 0.2 + 0.1j, -0.5j])
    out = evaluate(p, z)
    assert out.shape == z.shape
    assert np.max(np.abs(out - (z + 0.25 * z**2))) <= EXACT


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from((Polynomial, PowerSeries)),
    parts=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=41),
    exponent=st.integers(-100, 100),
    polar=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi)),
                   min_size=1, max_size=4),
)
def test_polynomial_values_match_mpmath_within_horner_bound(kind, parts, exponent, polar):
    # Each step y z + a of Horner's scheme rounds a complex product (by at
    # most sqrt(5) u, u = eps / 2) and a sum (u), and the coefficients
    # k!/(k-o)! a_k of f^(o) round at most 3 times (3 u), so the value of a
    # degree-d polynomial is off by at most 4 (d + 1) eps sum |k!/(k-o)! a_k|
    # |z|^(k-o), plus 4 (d + 1) subnormal spacings for the steps that underflow.
    spec = kind(tuple(complex(re, im) * 10.0**exponent for re, im in parts))
    d = len(spec.coeffs) - 1
    z = np.array([r * cmath.exp(1j * t) for r, t in polar])
    tiny = np.finfo(float).smallest_subnormal
    with mpmath.workdps(40):
        for order in range(4):
            got = evaluate(spec, z) if order == 0 else derivative(spec, z, order)
            coeffs = [math.perm(k, order) * mpmath.mpc(a) for k, a in enumerate(spec.coeffs)][order:]
            for w, g in zip(z, got):
                exact = mpmath.polyval(coeffs[::-1], mpmath.mpc(w)) if coeffs else 0
                size = sum(abs(a) * abs(mpmath.mpc(w)) ** k for k, a in enumerate(coeffs))
                bound = 4 * (d + 1) * (np.finfo(float).eps * size + tiny)
                assert abs(mpmath.mpc(g) - exact) <= bound


def _jet_spec(kind, parts, exponent):
    """A spec of the variant kind from coefficients parts scaled by 10^exponent."""
    scaled = tuple(complex(re, im) * 10.0**exponent for re, im in parts)
    if kind is Moebius:
        return Moebius(scaled[0], 0.5 * complex(*parts[-1]), cmath.exp(1j * parts[0][0]))
    if kind is AnnulusCover:
        return AnnulusCover((abs(parts[0][0]) + 0.5) * 10.0**exponent)
    return kind(scaled)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from((Polynomial, PowerSeries, Moebius, AnnulusCover)),
    parts=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=12),
    exponent=st.integers(-100, 100),
    polar=st.lists(st.tuples(st.floats(0.0, 1.0 - 1e-9), st.floats(0.0, 2.0 * math.pi)),
                   min_size=1, max_size=4),
    order=st.integers(0, 3),
)
def test_jet_entries_equal_evaluate_and_derivative_bit_for_bit(kind, parts, exponent, polar, order):
    # Overflowing values included: the jet runs under the errstate of
    # evaluate, so it warns no more than evaluate and derivative do.
    spec = _jet_spec(kind, parts, exponent)
    z = np.array([r * cmath.exp(1j * t) for r, t in polar])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for points in (z, complex(z[0])):
            entries = jet(spec, points, order)
            assert len(entries) == order + 1
            for k, entry in enumerate(entries):
                expected = derivative(spec, points, k) if k else evaluate(spec, points)
                assert type(entry) is type(expected)
                assert np.asarray(entry).tobytes() == np.asarray(expected).tobytes()


def test_moebius_known_value():
    # f(z) = (z - 0.5) / (1 - 0.5 z) sends 0.8 to 0.5.
    f = Moebius(0.0, 0.5, 1.0)
    assert abs(complex(evaluate(f, 0.8)) - 0.5) <= EXACT
    assert abs(complex(evaluate(f, 0.5))) <= EXACT


def test_moebius_derivative_at_zero():
    # f'(0) = c (1 - |b|^2) for the automorphism part.
    f = Moebius(0.2j, 0.5, 1.0)
    assert abs(complex(derivative(f, 0.0)) - 0.75) <= EXACT


@pytest.mark.parametrize("b", [0.999999, 0.9999999 * cmath.exp(0.71j), 0.6 - 0.7999999j])
def test_moebius_derivative_keeps_its_digits_near_the_circle(b):
    # f'(z) = c (1 - |b|^2) / (1 - conj(b) z)^2; 1 - abs(b)**2 lost about
    # eps / (1 - |b|^2) relative, an error that every sample of f' shared.
    f = Moebius(0.0, b, cmath.exp(0.7j))
    z = 0.9 * np.exp(2j * np.pi * np.arange(8) / 8)
    with mpmath.workdps(40):
        bb, c = mpmath.mpc(f.b.real, f.b.imag), mpmath.mpc(f.c.real, f.c.imag)
        gap = 1 - mpmath.mpf(f.b.real) ** 2 - mpmath.mpf(f.b.imag) ** 2
        expected = [complex(c * gap / (1 - mpmath.conj(bb) * mpmath.mpc(x.real, x.imag)) ** 2) for x in z]
    assert np.max(np.abs(derivative(f, z) / expected - 1.0)) <= 1e-14


def test_annulus_cover_eval_and_derivative():
    f = AnnulusCover(0.3)
    # f(0) = 1 and f'(0) = 2 i c.
    assert abs(complex(evaluate(f, 0.0)) - 1.0) <= EXACT
    assert abs(complex(derivative(f, 0.0)) - 0.6j) <= EXACT
    # |f| on the real axis stays 1: the cover winds along the unit circle.
    vals = evaluate(f, np.linspace(-0.9, 0.9, 11))
    assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-12


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(SEED)
    specs = [
        Polynomial(tuple(rng.standard_normal(5) + 1j * rng.standard_normal(5))),
        Moebius(0.1, 0.3 - 0.2j, np.exp(0.7j)),
        AnnulusCover(0.8),
    ]
    h = 1e-6
    # Larger step for the second difference; h = 1e-6 is roundoff-bound.
    h2 = 1e-4
    for spec in specs:
        z = 0.21 + 0.13j
        fd = (complex(evaluate(spec, z + h)) - complex(evaluate(spec, z - h))) / (2 * h)
        assert abs(complex(derivative(spec, z)) - fd) <= 1e-7
        fd2 = (
            complex(evaluate(spec, z + h2))
            - 2 * complex(evaluate(spec, z))
            + complex(evaluate(spec, z - h2))
        ) / h2**2
        assert abs(complex(second_derivative(spec, z)) - fd2) <= 1e-5
        assert derivative(spec, z, 2) == second_derivative(spec, z)


def test_derivative_of_any_order_matches_taylor_series():
    # Every variant differentiates to any order at any point of the disk,
    # not only at 0; the oracle differentiates the Taylor series term-wise,
    # f^(o)(z) = sum_k k!/(k-o)! a_k z^(k-o).
    specs = [
        PowerSeries((0.5, 1.0, -0.3j, 0.2)),
        Moebius(0.1, 0.3 - 0.2j, np.exp(0.7j)),
        AnnulusCover(0.8),
    ]
    z = np.array([0.0, 0.2 - 0.1j, -0.15j])
    for spec in specs:
        coeffs = taylor_coefficients(spec, 80)
        for order in range(1, 5):
            expected = sum(
                math.perm(k, order) * coeffs[k] * z ** (k - order) for k in range(order, 80)
            )
            got = derivative(spec, z, order)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_critical_points_across_the_float_range():
    # f' = s (1 + 2z) from subnormal s to s where 2s overflows; a leading
    # term of f' below 2^-52 of the largest moves nothing near the disk.
    for s in (5e-324, 1e-310, 1.0, 1e308):
        assert np.allclose(critical_points(Polynomial((0.0, s, s))), [-0.5], atol=1e-15)
    assert critical_points(Polynomial((0.0, 1.0, 1e-320))).size == 0
    assert critical_points(Polynomial((2.0,))).tolist() == [0.0]
    assert critical_points(Moebius(1.0, 0.5j, 1.0)).size == 0
    assert critical_points(AnnulusCover(2.0)).size == 0


def test_taylor_coefficients_annulus_cover():
    # Coefficients must reproduce the function near zero.
    f = AnnulusCover(0.5)
    coeffs = taylor_coefficients(f, 12)
    z = 0.1 + 0.05j
    direct = complex(evaluate(f, z))
    series = sum(complex(a) * z**k for k, a in enumerate(coeffs))
    assert abs(direct - series) <= 1e-12
    assert abs(coeffs[0] - 1.0) <= EXACT
    assert abs(coeffs[1] - 1.0j) <= EXACT


def test_annulus_cover_taylor_coefficients_match_mpmath():
    # f = ((1 + z)/(1 - z))^(ic) = (1 + z)^(ic) (1 - z)^(-ic), and the
    # coefficients are the Cauchy product of the two binomial series,
    # C(ic, k) and (ic)_k / k!, at 30 digits.  The recurrence for exp(g)
    # rounds once per term of each of the count sums.
    count = 64
    with mpmath.workdps(30):
        for c in (0.01, 0.5, 1.0, 3.0):
            a = mpmath.mpc(0, c)
            plus = [mpmath.binomial(a, k) for k in range(count)]
            minus = [mpmath.rf(a, k) / mpmath.factorial(k) for k in range(count)]
            oracle = [sum(plus[j] * minus[n - j] for j in range(n + 1)) for n in range(count)]
            got = taylor_coefficients(AnnulusCover(c), count)
            top = max(1.0, max(float(abs(b)) for b in oracle))
            worst = max(float(abs(mpmath.mpc(g) - b)) for g, b in zip(got, oracle))
            assert worst <= count * np.finfo(float).eps * top


# 150 angles around the circle, 25 near z = 1 and 25 near z = -1.
_NEAR = np.geomspace(1e-9, 1e-1, 25)
ANNULUS_ANGLES = np.concatenate([2.0 * np.pi * np.arange(150) / 150, _NEAR, np.pi + _NEAR])
# Rounding errors allowed per unit of the conditioning below.
ANNULUS_ULPS = 4.0


def _annulus_oracle_check(c, z, order):
    """Compare evaluate and the jet of AnnulusCover(c) to order, at the array
    z and at each of its points as a scalar, with mpmath's exp(2ic atanh z)
    and its derivatives (mpmath.diffs) at 50 digits.  A point's rounding is
    charged eps (1 + c |log(p/q)| + n) per unit of the jet's magnitude: f is
    exp(ic log(p/q)) with p = 1 + z, q = 1 - z, and its derivatives are sums
    of products of f and g^(j) = ic (j-1)! (q^-j - (-1)^j p^-j), so the
    same recurrence on |f|, |g^(j)| bounds the size of their terms."""
    spec = AnnulusCover(c)

    def entries(points):
        return [evaluate(spec, points)] + jet(spec, points, order)[1:]

    def func(u):
        return mpmath.exp(2j * mpmath.mpf(c) * mpmath.atanh(u))

    rows = entries(z)
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for k, point in enumerate(z):
            scalar = entries(complex(point))
            zm = mpmath.mpc(point)
            exact = list(mpmath.diffs(func, zm, order))
            log_ratio = abs(mpmath.log((1 + zm) / (1 - zm)))
            a, b = abs(1.0 / (1.0 - point)), abs(1.0 / (1.0 + point))
            g = [c * math.factorial(j) * (a ** (j + 1) + b ** (j + 1)) for j in range(order)]
            size = [float(abs(exact[0]))]
            for n in range(1, order + 1):
                size.append(sum(math.comb(n - 1, i) * g[i] * size[n - 1 - i] for i in range(n)))
            for n in range(order + 1):
                tol = ANNULUS_ULPS * eps * (1.0 + c * float(log_ratio) + n) * size[n]
                for got in rows[n][k], scalar[n]:
                    assert abs(mpmath.mpc(got) - exact[n]) <= tol, (c, point, n)


@pytest.mark.parametrize("c", [0.1, 1.0, 3.0, 10.0])
@pytest.mark.parametrize("r", [0.3, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9])
def test_annulus_cover_matches_mpmath_on_the_disk_and_near_its_poles(c, r):
    # The value at every angle; the jet to order 3 at every fifth, since
    # mpmath.diffs works at several times the precision.
    z = r * np.exp(1j * ANNULUS_ANGLES)
    _annulus_oracle_check(c, z, 0)
    _annulus_oracle_check(c, z[::5], 3)


def test_taylor_coefficients_moebius_geometric_tail():
    # (z - b)/(1 - b z) for real b: a_n = (1 - b^2) b^(n-1) for n >= 1.
    b = 0.5
    f = Moebius(0.0, b, 1.0)
    coeffs = taylor_coefficients(f, 6)
    assert abs(coeffs[0] + b) <= EXACT
    for n in range(1, 6):
        assert abs(coeffs[n] - (1 - b * b) * b ** (n - 1)) <= SERIES_TOL


def test_evaluate_rejects_points_outside_disk():
    with pytest.raises(DomainError):
        evaluate(AnnulusCover(1.0), 1.0 + 0j)


def test_moebius_validation():
    with pytest.raises(DomainError):
        Moebius(0.0, 1.2, 1.0)
    with pytest.raises(DomainError):
        Moebius(0.0, 0.2, 2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_parameters_are_rejected(bad):
    makers = [
        lambda: Polynomial((0.0, bad)),
        lambda: PowerSeries((bad,)),
        lambda: Moebius(bad, 0.5, 1.0),
        lambda: Moebius(0.0, bad, 1.0),
        lambda: AnnulusCover(bad),
    ]
    for make in makers:
        with pytest.raises(DomainError):
            make()


def test_non_spec_objects_are_unsupported():
    calls = [
        lambda: evaluate("z", 0.1),
        lambda: derivative(None, 0.1),
        lambda: second_derivative(1.0, 0.1),
        lambda: taylor_coefficients((0.0, 1.0), 3),
        lambda: sample_circle([0.0, 1.0], 0.5, 8),
        lambda: spec_to_json({"kind": "polynomial", "coeffs": [[0, 0]]}),
        lambda: scale_spec("z", 2.0),
        lambda: scale_spec(Moebius(0.0, 0.5, 1.0), 2.0),
    ]
    for call in calls:
        with pytest.raises(UnsupportedError):
            call()


def test_sample_circle_shapes_and_values():
    p = Polynomial((0.0, 1.0))
    sample = sample_circle(p, 0.5, 64)
    assert sample.values.shape == (64,)
    assert np.max(np.abs(np.abs(sample.values) - 0.5)) <= EXACT
    # The sample points are the ones evaluated, bit for bit.
    assert np.array_equal(sample.points, 0.5 * np.exp(1j * sample.angles))
    assert np.array_equal(sample.values, evaluate(p, sample.points))


def test_sample_circle_points_come_from_a_read_only_unit_circle():
    spec = AnnulusCover(0.7)
    for m in (1, 7, 64, 4096):
        angles = 2.0 * np.pi * np.arange(m) / m
        for r in (1e-300, 0.3, 1.0 - 1e-9):
            sample = sample_circle(spec, r, m, order=2)
            assert sample.angles.tobytes() == angles.tobytes()
            assert sample.points.tobytes() == (r * np.exp(1j * angles)).tobytes()
            assert sample.values.tobytes() == evaluate(spec, sample.points).tobytes()
            for k, entry in enumerate(sample.derivatives, start=1):
                assert entry.tobytes() == derivative(spec, sample.points, k).tobytes()
    cached_angles, unit = _unit_circle(64)
    for cached in (cached_angles, unit, sample_circle(spec, 0.5, 64).angles):
        with pytest.raises(ValueError):
            cached[0] = 0.0
    for m in range(1, 200):
        _unit_circle(m)
    info = _unit_circle.cache_info()
    assert info.currsize <= info.maxsize < 200


def test_scale_spec_divides_image():
    p = Polynomial((2.0, 4.0))
    q = scale_spec(p, 0.5)
    z = 0.3 + 0.2j
    assert abs(complex(evaluate(q, z)) - 0.5 * complex(evaluate(p, z))) <= EXACT


def test_spec_json_round_trip_and_hash():
    # The hashes are provenance tags in every CLI row; they must not drift.
    pinned = [
        (Polynomial((1.0, 2.0 - 1.0j)), "fb9358e28c3f"),
        (PowerSeries((0.0, 1.0, 0.25j)), "97bc4e650919"),
        (Moebius(0.1j, 0.4, np.exp(0.3j)), "40cc630204b5"),
        (AnnulusCover(0.7), "f83c44d5ac2a"),
    ]
    for spec, tag in pinned:
        data = json.loads(json.dumps(spec_to_json(spec)))
        again = spec_from_json(data)
        assert again == spec
        assert spec_hash(again) == spec_hash(spec) == tag


_finite = st.floats(-1e6, 1e6)
_complex = st.builds(complex, _finite, _finite)
_coeffs = st.lists(_complex, min_size=1, max_size=8).map(tuple)
_angle = st.floats(0.0, 2.0 * math.pi)
_specs = st.one_of(
    _coeffs.map(Polynomial),
    _coeffs.map(PowerSeries),
    st.builds(
        Moebius,
        _complex,
        st.builds(lambda rho, t: rho * cmath.exp(1j * t), st.floats(0.0, 0.999), _angle),
        _angle.map(lambda t: cmath.exp(1j * t)),
    ),
    st.builds(AnnulusCover, st.floats(1e-6, 1e6)),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_specs)
def test_spec_json_round_trip_property(spec):
    data = json.loads(json.dumps(spec_to_json(spec)))
    again = spec_from_json(data)
    assert type(again) is type(spec)
    assert again == spec
    assert spec_hash(again) == spec_hash(spec)


def test_spec_from_json_rejects_malformed():
    with pytest.raises(DomainError):
        spec_from_json({"kind": "polynomial"})
    with pytest.raises(DomainError):
        spec_from_json({"kind": "nonsense", "coeffs": [[0, 0]]})
    with pytest.raises(DomainError):
        spec_from_json(json.loads('{"kind": "polynomial", "coeffs": [[0, 0], [NaN, 0]]}'))
    with pytest.raises(DomainError):
        spec_from_json(json.loads('{"kind": "annulus_cover", "c": Infinity}'))


def test_integrate_known_value():
    value, err = integrate(np.sin, 0.0, np.pi)
    assert abs(value - 2.0) <= 1e-10
    assert err <= 1e-8


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-5.0, 5.0),
    length=st.floats(0.1, 6.0),
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=11),
    rate=st.floats(0.1, 3.0),
    sign=st.sampled_from((-1.0, 1.0)),
)
def test_integrate_error_covers_closed_forms(a, length, coeffs, rate, sign):
    # A trigonometric polynomial a0 + sum (c_k cos kx + s_k sin kx) and
    # exp(lam x), each against its antiderivative in 40 digits.
    b = a + length
    cos_k, sin_k = coeffs[1::2], coeffs[2::2]

    def trig(x):
        out = np.full_like(x, coeffs[0])
        for k, (c, s) in enumerate(zip(cos_k, sin_k), start=1):
            out += c * np.cos(k * x) + s * np.sin(k * x)
        return out

    lam = sign * rate
    with mpmath.workdps(40):
        def trig_prim(x):
            x = mpmath.mpf(x)
            return coeffs[0] * x + mpmath.fsum(
                (c * mpmath.sin(k * x) - s * mpmath.cos(k * x)) / k
                for k, (c, s) in enumerate(zip(cos_k, sin_k), start=1)
            )

        cases = [
            (trig, trig_prim(b) - trig_prim(a)),
            (lambda x: np.exp(lam * x), (mpmath.exp(lam * mpmath.mpf(b)) - mpmath.exp(lam * mpmath.mpf(a))) / lam),
        ]
        for fn, exact in cases:
            value, err = integrate(fn, a, b)
            assert abs(mpmath.mpf(value) - exact) <= err


def test_integrate_square_root_endpoint():
    value, err = integrate(lambda x: np.sqrt(1.0 - x), 0.0, 1.0)
    assert abs(value - 2.0 / 3.0) <= err


def test_integrate_raises_when_the_tolerance_is_out_of_reach():
    def pole(x):
        with np.errstate(divide="ignore"):
            return 1.0 / (x - 0.5) ** 2

    # The pole makes a node's value infinite; 400 intervals cannot resolve
    # the oscillation, so its error estimate stays far above the tolerance.
    for fn in (pole, lambda x: np.sin(1e6 * x)):
        with pytest.raises(QuadratureError):
            integrate(fn, 0.0, 1.0)
