"""Small numerical helpers shared across modules.

All routines are second order (or better) on smoothly graded grids and make
no uniform-spacing assumption.  They take the samples of one edge, so they
assume at least ``graph.MIN_EDGE_SAMPLES`` nodes, which ``EdgeCurve``
enforces.
"""

from __future__ import annotations

import numpy as np


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.trapezoid(y, x))


def _column(v: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a 1-D weight vector so it broadcasts over trailing axes."""
    return v.reshape(v.shape + (1,) * (ndim - 1))


_WINDOW = 5


def curve_first_derivative(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """dX/ds at every sample from a sliding 5-node Lagrange window (clamped
    at the ends), fourth order on smooth grids.  A uniform scheme is used at
    every sample, interior and ends alike, so the estimate carries no
    leading-order kinks; such kinks would be amplified by any later second
    differencing."""
    n = len(s)
    s = np.asarray(s, float)
    x = np.asarray(x, float)
    start = np.clip(np.arange(n) - _WINDOW // 2, 0, n - _WINDOW)
    # node parameters relative to the evaluation point, shape (n, _WINDOW)
    t = s[start[:, None] + np.arange(_WINDOW)[None, :]] - s[:, None]
    d = np.zeros_like(x)
    for j in range(_WINDOW):
        denom = np.ones(n)
        for m in range(_WINDOW):
            if m != j:
                denom *= t[:, j] - t[:, m]
        num = np.zeros(n)
        for k in range(_WINDOW):
            if k == j:
                continue
            prod = np.ones(n)
            for m in range(_WINDOW):
                if m != j and m != k:
                    prod *= -t[:, m]
            num += prod
        d += _column(num / denom, x.ndim) * x[start + j]
    return d


def curve_second_derivative_interior(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d2X/ds2 at interior samples (3-point stencil), shape (n-2, ...)."""
    s = np.asarray(s, float)
    x = np.asarray(x, float)
    h1 = _column(s[1:-1] - s[:-2], x.ndim)
    h2 = _column(s[2:] - s[1:-1], x.ndim)
    return 2.0 * (h2 * x[:-2] - (h1 + h2) * x[1:-1] + h1 * x[2:]) \
        / (h1 * h2 * (h1 + h2))


def _quadratic_panel_integrals(t0, t1, t2, g0, g1, g2, a, b):
    """Integral over [a, b] of the quadratic through (t_i, g_i). Vectorized."""

    def antiderivative(x, u, v):
        return x ** 3 / 3.0 - (u + v) * x ** 2 / 2.0 + u * v * x

    def basis_integral(tj, tu, tv):
        return (antiderivative(b, tu, tv) - antiderivative(a, tu, tv)) \
            / ((tj - tu) * (tj - tv))

    return g0 * basis_integral(t0, t1, t2) \
        + g1 * basis_integral(t1, t0, t2) \
        + g2 * basis_integral(t2, t0, t1)


def _cubic_panel_integral(t, g, a, b):
    """Integral over [a, b] of the cubic through the four nodes (t_i, g_i)."""

    def antiderivative(x, u, v, w):
        return x ** 4 / 4.0 - (u + v + w) * x ** 3 / 3.0 \
            + (u * v + u * w + v * w) * x ** 2 / 2.0 - u * v * w * x

    total = 0.0
    for j in range(4):
        others = [t[m] for m in range(4) if m != j]
        denom = np.prod([t[j] - tm for tm in others])
        total += g[j] * (antiderivative(b, *others)
                         - antiderivative(a, *others)) / denom
    return total


def cumulative_quadratic(s: np.ndarray, g: np.ndarray,
                         nonnegative: bool = False) -> np.ndarray:
    """Cumulative integral of sampled g(s), one parabolic panel per interval.

    Interior intervals average the left- and right-shifted 3-point panels,
    which cancels the cubic error term; the first and last intervals use a
    4-node cubic panel so their error matches the interior order and the
    cumulative error stays smooth across the ends. With ``nonnegative`` the
    per-interval increments are clamped at zero (for integrands known to
    be >= 0).
    """
    s = np.asarray(s, float)
    g = np.asarray(g, float)
    n = len(s)
    # Shift each interval's coordinates so the panel is well conditioned.
    base = s[:-1]
    # panel (i-1, i, i+1) integrated over [s_i, s_{i+1}], for i >= 1
    left = _quadratic_panel_integrals(
        s[:-2] - base[1:], s[1:-1] - base[1:], s[2:] - base[1:],
        g[:-2], g[1:-1], g[2:],
        0.0, s[2:] - base[1:])
    # panel (i, i+1, i+2) integrated over [s_i, s_{i+1}], for i <= n-3
    right = _quadratic_panel_integrals(
        s[:-2] - base[:-1], s[1:-1] - base[:-1], s[2:] - base[:-1],
        g[:-2], g[1:-1], g[2:],
        0.0, s[1:-1] - base[:-1])
    inc = np.empty(n - 1)
    inc[1:-1] = 0.5 * (left[:-1] + right[1:])
    inc[0] = _cubic_panel_integral(s[:4] - s[0], g[:4], 0.0, s[1] - s[0])
    inc[-1] = _cubic_panel_integral(s[-4:] - s[-2], g[-4:],
                                    0.0, s[-1] - s[-2])
    if nonnegative:
        inc = np.maximum(inc, 0.0)
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def extend_interior(values: np.ndarray) -> np.ndarray:
    """Pad values at samples 1..n-2 to all n samples by repeating the
    nearest interior value at the two endpoint samples."""
    full = np.empty(len(values) + 2)
    full[1:-1] = values
    full[0] = values[0]
    full[-1] = values[-1]
    return full
