"""Power-series helpers: derivative, evaluation and the recurrence for exp.

Coefficients are ascending (index = power of z) in 1-D complex numpy arrays.
"""

from __future__ import annotations

import numpy as np


def series_exp(g: np.ndarray, count: int) -> np.ndarray:
    """Taylor coefficients of exp(g(z)) up to degree count-1; requires g[0] == 0.

    Uses the derivative recurrence n*f_n = sum_{k=1..n} k*g_k*f_{n-k}.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape[0] == 0 or g[0] != 0:
        raise ValueError("series_exp expects g with zero constant term")
    gk = np.zeros(count, dtype=complex)
    upto = min(count, g.shape[0])
    gk[:upto] = g[:upto]
    f = np.zeros(count, dtype=complex)
    f[0] = 1.0
    k = np.arange(count)
    weighted = k * gk  # k*g_k
    for n in range(1, count):
        f[n] = np.dot(weighted[1 : n + 1], f[n - 1 :: -1][:n]) / n
    return f


def series_derivative(coeffs: np.ndarray, order: int = 1) -> np.ndarray:
    """Coefficients of the order-th derivative of the series."""
    c = np.asarray(coeffs, dtype=complex)
    for _ in range(order):
        if c.shape[0] <= 1:
            return np.zeros(1, dtype=complex)
        c = c[1:] * np.arange(1, c.shape[0])
    return c


def series_eval(coeffs: np.ndarray, z):
    """Evaluate a series (ascending coefficients) by Horner's scheme."""
    c = np.asarray(coeffs, dtype=complex)
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for a in c[::-1]:
        acc = acc * z + a
    return acc
