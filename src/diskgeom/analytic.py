"""Function specs on the unit disk and their pointwise operations.

A spec is one of four frozen dataclass variants (polynomial, truncated
power series, disk automorphism, annulus covering map), and each variant
owns its formulas: value, derivative of any order, Taylor coefficients,
the zeros of f', parameter domain, JSON kind and CLI shorthand.  Field
coercion to finite numbers, the JSON codec, the disk check and the scalar
unwrap are shared, and SPEC_KINDS maps each JSON kind to its class for
both JSON and the CLI.
Everything downstream works through evaluate/derivative/jet/sample_circle so
the estimators never special-case the variant: they ask only spec.closed_disk
and sample f - f(0), spec._centring, adding f(0) back only to witnesses.
jet gives f, f', ..., f^(k) at points from one call, evaluating f once;
sample_circle scales a cached, read-only unit circle and carries the jet.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from operator import mul
from typing import Union

import numpy as np

from .errors import DomainError, ResourceError, UnsupportedError

# Points stay inside |z| < 1 - DISK_MARGIN, or |z| < 1 + DISK_MARGIN (to
# the rounding of circle points) for a variant analytic on the closed disk.
DISK_MARGIN = 1e-12
# Circles of the former stay a bit further in so refinement has room.
CIRCLE_MARGIN = 1e-9


def _number(v, real: bool = False):
    """A finite complex, or float when real, from a number or an [re, im] pair."""
    if isinstance(v, (list, tuple)):
        re, im = v
        v = complex(re, im)
    w = complex(v)
    if not cmath.isfinite(w) or (real and w.imag != 0.0):
        kind = "real" if real else "complex"
        raise DomainError(f"spec parameter {v!r} is not a finite {kind} number")
    return w.real if real else w


def _unit_scale(size):
    """2^-e for the binary exponent e of size, a number or array of them,
    capped at 2^1000 for subnormal ones: scaling by it is exact and brings
    size into [1/2, 1), so products of such scaled numbers stay finite."""
    return 2.0 ** np.minimum(-np.frexp(size)[1], 1000)


class _Spec:
    """A variant is a frozen dataclass with fields typed tuple, complex or
    float, a JSON kind, a CLI shorthand (name, brackets) and the methods
    _validate, _value(z), _derivative(z, order), _taylor(count),
    _critical_points(), the zeros of f' in the plane, and _centered(), the
    spec of f - f(0).  _jet(z, order), the list f, f', ..., f^(order), is
    the value and each _derivative unless a variant builds them together.
    coefficient_backed marks exact Taylor coefficients in coeffs, and
    closed_disk a map analytic on the closed disk, unit circle included."""

    coefficient_backed = False
    closed_disk = True

    def _jet(self, z, order):
        return [self._value(z)] + [self._derivative(z, k) for k in range(1, order + 1)]

    @cached_property
    def _centring(self):
        """_centered(), its value at 0 and the offset onto f's image, built once
        per spec: 0 and f(0), or 1 and 0 for the annulus cover, which stays."""
        centered = self._centered()
        origin = complex(evaluate(centered, 0.0))
        return centered, origin, complex(evaluate(self, 0.0)) - origin

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            v = tuple(map(_number, v)) if f.type == "tuple" else _number(v, f.type == "float")
            object.__setattr__(self, f.name, v)
        self._validate()

    @classmethod
    def from_args(cls, args):
        """The spec from its parameters in field order, as shorthand lists them."""
        names = [f.name for f in fields(cls)]
        if len(args) != len(names):
            raise DomainError(f"{cls.shorthand[0]} shorthand needs ({','.join(names)})")
        return cls(*args)


@dataclass(frozen=True)
class Polynomial(_Spec):
    """f(z) = sum_k coeffs[k] z^k, coefficients ascending."""

    coeffs: tuple
    kind = "polynomial"
    shorthand = ("poly", "[]")
    coefficient_backed = True

    def _validate(self):
        if not self.coeffs:
            raise DomainError(f"{self.kind} needs at least one coefficient")

    @classmethod
    def from_args(cls, args):
        return cls(tuple(args))

    def _series(self, order):
        """Coefficients of f^(order), highest power first, built once per
        spec: a cache keyed on equal coefficient tuples would merge 0.0 and
        -0.0."""
        cache = self.__dict__.setdefault("_series_cache", {})
        if order not in cache:
            p = np.asarray(self.coeffs)[::-1]
            cache[order] = np.polyder(p, order) if order else p
        return cache[order]

    def _value(self, z):
        return np.polyval(self._series(0), z)

    def _derivative(self, z, order):
        return np.polyval(self._series(order), z)

    def _taylor(self, count):
        return np.array((self.coeffs + (0j,) * count)[:count], dtype=complex)

    def _centered(self):
        return replace(self, coeffs=(0j,) + self.coeffs[1:])

    def _critical_points(self):
        a = np.asarray(self.coeffs[1:], dtype=complex)
        if not a.any():
            # f' vanishes everywhere; 0 stands for every point.
            return np.zeros(1, dtype=complex)
        # f' scaled by a power of two that brings its largest coefficient
        # near 1 has the same zeros, and its coefficients and the divisions
        # of np.roots stay finite.
        d = a * _unit_scale(np.abs(a).max()) * np.arange(1, a.size + 1)
        # Leading terms below 2^-52 of the largest coefficient change f' on
        # the closed disk by less than the rounding of its values, but their
        # zeros far outside it would cost np.roots the digits of those near it.
        top = np.flatnonzero(np.abs(d) >= 2.0**-52 * np.abs(d).max())[-1]
        z = np.roots(d[top::-1]).astype(complex)
        # Zeros far apart in size still share the rounding of one companion
        # matrix; Newton steps on f' restore the small ones' digits.  A step
        # counts when it is short and does not raise |f'|, so no zero jumps.
        d, d2 = d[::-1], np.polyder(d[::-1])
        with np.errstate(all="ignore"):
            for _ in range(3):
                step = np.polyval(d, z) / np.polyval(d2, z)
                ok = np.abs(step) <= 1e-6 * (1.0 + np.abs(z))
                ok &= np.abs(np.polyval(d, z - step)) <= np.abs(np.polyval(d, z))
                z = np.where(ok, z - step, z)
        return z


class PowerSeries(Polynomial):
    """Truncated Taylor series; truncation degree is len(coeffs) - 1."""

    kind = "series"
    shorthand = ("series", "[]")


@dataclass(frozen=True)
class Moebius(_Spec):
    """f(z) = c (z - b) / (1 - conj(b) z) + a with |b| < 1 and |c| = 1."""

    a: complex
    b: complex
    c: complex
    kind = "moebius"
    shorthand = ("moebius", "()")

    def _validate(self):
        if abs(self.b) >= 1.0:
            raise DomainError("moebius parameter b must lie in the open disk")
        if abs(abs(self.c) - 1.0) > 1e-12:
            raise DomainError("moebius parameter c must be unimodular")

    def _value(self, z):
        # (z - b) / (1 - conj(b) z) + b = (1 - |b|^2) z / (1 - conj(b) z): no cancellation.
        return self.c * self._gap * z / (1.0 - np.conj(self.b) * z) + (self.a - self.c * self.b)

    @cached_property
    def _gap(self):
        # 1 - |b|^2, rounded once from the exact squares of the parts of b:
        # 1 - abs(b)**2 is off by about eps / (1 - |b|^2) relative, an error
        # that every derivative shares.
        return float(1 - Fraction(self.b.real) ** 2 - Fraction(self.b.imag) ** 2)

    def _derivative(self, z, order):
        # f^(k) = k! conj(b)^(k-1) c (1 - |b|^2) / (1 - conj(b) z)^(k+1)
        bbar = np.conj(self.b)
        scale = math.factorial(order) * bbar ** (order - 1) * self.c * self._gap
        return scale / (1.0 - bbar * z) ** (order + 1)

    def _taylor(self, count):
        # (z-b)/(1-conj(b)z) = -b + (1-|b|^2) sum_{n>=1} conj(b)^(n-1) z^n
        c = np.zeros(count, dtype=complex)
        c[0] = self.c * (-self.b) + self.a
        bbar = np.conj(self.b)
        fac = self.c * self._gap
        for n in range(1, count):
            c[n] = fac * bbar ** (n - 1)
        return c

    def _centered(self):
        # f(0) = a - c b.
        return replace(self, a=self.c * self.b)

    def _critical_points(self):
        # f' = c (1 - |b|^2) / (1 - conj(b) z)^2 has no zeros.
        return np.empty(0, dtype=complex)


@dataclass(frozen=True)
class AnnulusCover(_Spec):
    """f(z) = exp(i c log((1+z)/(1-z))), principal branch, c > 0.

    Maps the disk onto the annulus exp(-pi c / 2) < |w| < exp(pi c / 2).
    p = 1 + z and q = 1 - z have positive real parts on the disk, so
    log(p/q) = log|p/q| + i (arg p - arg q) with both parts computed in
    real arithmetic, each to a few rounding errors relative, and
    f = e^(-c (arg p - arg q)) (cos + i sin)(c log|p/q|).
    """

    c: float
    kind = "annulus_cover"
    shorthand = ("annulus", "()")
    closed_disk = False

    def _validate(self):
        if not self.c > 0.0:
            raise DomainError("annulus cover parameter c must be positive")

    def _value(self, z):
        x, y = z.real, z.imag
        # |p|^2 - |q|^2 = 4x, so log|p/q| is ±log1p(4|x| / |1 - |x| + iy|^2) / 2
        # with the sign of x, and log1p keeps the digits that log|p| - log|q|
        # loses near z = 0.  arg p and arg q have opposite signs, so their
        # difference adds two terms of one sign.
        ax = np.abs(x)
        near = 1.0 - ax
        log_ratio = np.copysign(0.5 * np.log1p(4.0 * ax / (near * near + y * y)), x)
        angle = np.arctan2(y, 1.0 + x) + np.arctan2(y, 1.0 - x)
        modulus = np.exp(-self.c * angle)
        phase = self.c * log_ratio
        out = np.empty(z.shape, dtype=complex)
        out.real = modulus * np.cos(phase)
        out.imag = modulus * np.sin(phase)
        return out

    def _jet(self, z, order):
        # f = exp(g) with g = 2ic atanh(z), so f^(n) is the sum over k < n of
        # C(n-1, k) g^(k+1) f^(n-1-k), and g^(j) = ic (j-1)! (a^j - b^j) with
        # a = 1/(1-z) and b = -1/(1+z), whose powers come by multiplication.
        f = [self._value(z)]
        if order:
            a, b = 1.0 / (1.0 - z), -1.0 / (1.0 + z)
            powers = zip(accumulate(repeat(a, order), mul), accumulate(repeat(b, order), mul))
            g = [1j * self.c * math.factorial(j) * (aj - bj) for j, (aj, bj) in enumerate(powers)]
            for n in range(1, order + 1):
                f.append(sum(math.comb(n - 1, k) * g[k] * f[n - 1 - k] for k in range(n)))
        return f

    def _derivative(self, z, order):
        return self._jet(z, order)[order]

    def _taylor(self, count):
        # f = exp(g) with g = 2 i c atanh(z): g_k = 2ic/k for odd k.
        g = np.zeros(count, dtype=complex)
        g[1::2] = [2j * self.c / k for k in range(1, count, 2)]
        # n f_n = sum_{k=1..n} k g_k f_{n-k}, from f' = g' f.
        f = np.zeros(count, dtype=complex)
        f[0] = 1.0
        weighted = np.arange(count) * g
        for n in range(1, count):
            f[n] = np.dot(weighted[1 : n + 1], f[n - 1 :: -1][:n]) / n
        return f

    def _centered(self):
        # f(0) = 1, and exp(g) - 1 is no variant, so the cover stays as it is.
        return self

    def _critical_points(self):
        # f' = 2ic f / (1 - z^2), and f = exp(g) has no zeros.
        return np.empty(0, dtype=complex)


FunctionSpec = Union[Polynomial, PowerSeries, Moebius, AnnulusCover]
# JSON kind -> variant; the CLI shorthand reads the same table.
SPEC_KINDS = {cls.kind: cls for cls in (Polynomial, PowerSeries, Moebius, AnnulusCover)}


@dataclass(frozen=True)
class BoundarySample:
    """Image samples of a circle |z| = r under a spec: the sample points
    r e^(i angles), their images and, when asked for, the derivatives
    f', ..., f^(order) at the points."""

    r: float
    angles: np.ndarray
    values: np.ndarray
    points: np.ndarray
    derivatives: tuple = ()


def _variant(spec: FunctionSpec) -> FunctionSpec:
    if not isinstance(spec, _Spec):
        raise UnsupportedError(f"unknown spec type {type(spec)!r}")
    return spec


def _pointwise(spec: FunctionSpec, z, method, *args):
    """spec.method(z, *args) at points of the disk, as DISK_MARGIN says; a
    scalar z gives a complex, an array of points an array, and a list of
    them a list."""
    spec = _variant(spec)
    z = np.asarray(z, dtype=complex)
    limit = 1.0 + DISK_MARGIN if spec.closed_disk else 1.0 - DISK_MARGIN
    if not (np.abs(z) < limit).all():
        raise DomainError(f"evaluation point must satisfy |z| < {limit!r}")
    # Coefficients or values past the float range become inf or nan, which
    # every consumer refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        out = getattr(spec, method)(z, *args)
    if isinstance(out, list):
        return [w if w.shape else complex(w) for w in out]
    return out if out.shape else complex(out)


def evaluate(spec: FunctionSpec, z):
    """Evaluate f at a point or ndarray of points of the (closed) disk."""
    return _pointwise(spec, z, "_value")


def derivative(spec: FunctionSpec, z, order: int = 1):
    """Derivative of given order at points of the disk, as evaluate."""
    if order < 1:
        raise DomainError("derivative order must be >= 1")
    return _pointwise(spec, z, "_derivative", order)


def jet(spec: FunctionSpec, z, order: int):
    """The list f, f', ..., f^(order) at points of the disk, each entry
    equal to what evaluate or derivative returns there, from one call."""
    if order < 0:
        raise DomainError("jet order must be >= 0")
    return _pointwise(spec, z, "_jet", order)


def taylor_coefficients(spec: FunctionSpec, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of f about 0."""
    if count < 1:
        raise DomainError("count must be >= 1")
    return _variant(spec)._taylor(count)


def critical_points(spec: FunctionSpec) -> np.ndarray:
    """The zeros of f' in the plane, as a complex array; [0] when f' is
    identically zero, where 0 stands for every point."""
    return _variant(spec)._critical_points()


@lru_cache(maxsize=8)
def _unit_circle(m: int) -> tuple:
    """The angles 2 pi k / m and e^(i angles), k < m, read-only, since
    every caller shares them."""
    angles = 2.0 * np.pi * np.arange(m) / m
    unit = np.exp(1j * angles)
    angles.flags.writeable = unit.flags.writeable = False
    return angles, unit


def sample_circle(spec: FunctionSpec, r: float, m: int, order: int = 0) -> BoundarySample:
    """Image of m equally spaced points on |z| = r, angles 2 pi k / m;
    r = 1 when the variant is closed_disk.  The derivatives f' to
    f^(order) come from the same jet as the values."""
    top = 1.0 if _variant(spec).closed_disk else 1.0 - CIRCLE_MARGIN
    if not 0.0 < r <= top:
        raise DomainError(f"circle radius must satisfy 0 < r <= {top!r}")
    if m < 1:
        raise DomainError("need at least one sample")
    angles, unit = _unit_circle(m)
    points = r * unit
    values, *derivatives = jet(spec, points, order)
    if not np.isfinite(values).all():
        raise ResourceError("the image of the circle overflows the float range")
    return BoundarySample(
        r=float(r), angles=angles, values=values, points=points, derivatives=tuple(derivatives)
    )


def scale_spec(spec: FunctionSpec, s: complex) -> FunctionSpec:
    """Return the spec of s * f; only coefficient-backed variants support it."""
    if not _variant(spec).coefficient_backed:
        raise UnsupportedError("only polynomial/series specs can be rescaled exactly")
    return replace(spec, coeffs=tuple(s * c for c in spec.coeffs))


# ---- JSON wire format ----


def _c2j(w: complex) -> list:
    w = complex(w)
    return [w.real, w.imag]


def _encode(v):
    """A field value as JSON: complex numbers as [re, im], tuples as lists."""
    if isinstance(v, tuple):
        return [_encode(c) for c in v]
    return _c2j(v) if isinstance(v, complex) else v


def spec_to_json(spec: FunctionSpec) -> dict:
    """Serializable dict; complex numbers as [re, im] pairs."""
    fields_json = {f.name: _encode(getattr(spec, f.name)) for f in fields(_variant(spec))}
    return {"kind": spec.kind, **fields_json}


def spec_from_json(data: dict) -> FunctionSpec:
    """Inverse of spec_to_json; raises DomainError on malformed input."""
    try:
        cls = SPEC_KINDS.get(data["kind"])
        if cls is None:
            raise DomainError(f"unknown spec kind {data['kind']!r}")
        return cls(**{f.name: data[f.name] for f in fields(cls)})
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed spec JSON: {exc}") from exc


def spec_hash(spec: FunctionSpec) -> str:
    """Short content hash of the canonical JSON form (provenance tag)."""
    blob = json.dumps(spec_to_json(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
