"""Thin wrapper over adaptive Gauss-Kronrod quadrature with error control."""

from __future__ import annotations

import importlib

from .errors import QuadratureError

DEFAULT_QUAD_TOL = 1e-8


def _lazy_scipy(module: str, name: str):
    """scipy.<module>.<name>, imported on first call; a wrapper of the binding sees every call."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(f"scipy.{module}"), name)(*args, **kwargs)

    call.__module__, call.__name__, call.__qualname__ = f"scipy.{module}", name, name
    return call


quad = _lazy_scipy("integrate", "quad")


def integrate(fn, a: float, b: float, abs_tol: float = DEFAULT_QUAD_TOL):
    """Integrate fn over [a, b]; returns (value, error_estimate).

    Raises QuadratureError when the returned error estimate misses the
    requested absolute tolerance by more than a factor of ten.
    """
    if b <= a:
        return 0.0, 0.0
    value, err = quad(fn, a, b, epsabs=abs_tol, epsrel=abs_tol, limit=400)
    if err > 10.0 * abs_tol * max(1.0, abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance {abs_tol:.3e}"
        )
    return value, err
