"""Function specs: evaluation, derivatives, coefficients, serialization."""

import cmath
import json
import math

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
from diskgeom._series import series_derivative, series_eval, series_exp, series_sqrt
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


def test_moebius_known_value():
    # f(z) = (z - 0.5) / (1 - 0.5 z) sends 0.8 to 0.5.
    f = Moebius(0.0, 0.5, 1.0)
    assert abs(complex(evaluate(f, 0.8)) - 0.5) <= EXACT
    assert abs(complex(evaluate(f, 0.5))) <= EXACT


def test_moebius_derivative_at_zero():
    # f'(0) = c (1 - |b|^2) for the automorphism part.
    f = Moebius(0.2j, 0.5, 1.0)
    assert abs(complex(derivative(f, 0.0)) - 0.75) <= EXACT


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
    # not only at 0; the oracle differentiates the Taylor series term-wise.
    specs = [
        PowerSeries((0.5, 1.0, -0.3j, 0.2)),
        Moebius(0.1, 0.3 - 0.2j, np.exp(0.7j)),
        AnnulusCover(0.8),
    ]
    z = np.array([0.0, 0.2 - 0.1j, -0.15j])
    for spec in specs:
        coeffs = taylor_coefficients(spec, 80)
        for order in range(1, 5):
            expected = series_eval(series_derivative(coeffs, order), z)
            got = derivative(spec, z, order)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_taylor_coefficients_annulus_cover():
    # Coefficients must reproduce the function near zero.
    f = AnnulusCover(0.5)
    coeffs = taylor_coefficients(f, 12)
    z = 0.1 + 0.05j
    direct = complex(evaluate(f, z))
    series = complex(series_eval(coeffs, z))
    assert abs(direct - series) <= 1e-12
    assert abs(coeffs[0] - 1.0) <= EXACT
    assert abs(coeffs[1] - 1.0j) <= EXACT


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


def test_series_exp_against_exp():
    # exp of the series z: coefficients 1/k!.
    g = np.zeros(8, dtype=complex)
    g[1] = 1.0
    e = series_exp(g, 8)
    expected = np.array([1.0 / math.factorial(k) for k in range(8)])
    assert np.max(np.abs(e - expected)) <= SERIES_TOL


def test_series_sqrt_squares_back():
    rng = np.random.default_rng(SEED + 1)
    c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    c[0] = 1.5 + 0.2j
    s = series_sqrt(c, 10)
    square = np.convolve(s, s)[:10]
    assert np.max(np.abs(square - c[:10])) <= 1e-10


def test_series_derivative_shifts_degree():
    coeffs = np.array([5.0, 1.0, 2.0, 3.0])
    d = series_derivative(coeffs)
    assert np.allclose(d, [1.0, 4.0, 9.0])


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
