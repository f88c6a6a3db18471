"""Small numerical helpers shared across modules.

All routines are second order (or better) on smoothly graded grids and make
no uniform-spacing assumption.
"""

from __future__ import annotations

import numpy as np


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.trapezoid(y, x))


def lagrange_derivative_weights(nodes, at):
    """Weights of d/dx of the Lagrange interpolant through `nodes` at `at`."""
    nodes = list(nodes)
    weights = []
    for j, tj in enumerate(nodes):
        others = [tm for m, tm in enumerate(nodes) if m != j]
        denom = 1.0
        for tm in others:
            denom *= tj - tm
        num = 0.0
        for k in range(len(others)):
            prod = 1.0
            for m, tm in enumerate(others):
                if m != k:
                    prod *= at - tm
            num += prod
        weights.append(num / denom)
    return weights


def _column(v: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a 1-D weight vector so it broadcasts over trailing axes."""
    return v.reshape(v.shape + (1,) * (ndim - 1))


def _three_point_derivative(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    n = len(s)
    d = np.empty_like(x)
    h1 = _column(s[1:-1] - s[:-2], x.ndim)
    h2 = _column(s[2:] - s[1:-1], x.ndim)
    d[1:-1] = (-h2 / (h1 * (h1 + h2))) * x[:-2] \
        + ((h2 - h1) / (h1 * h2)) * x[1:-1] \
        + (h1 / (h2 * (h1 + h2))) * x[2:]
    m = min(4, n)
    w = lagrange_derivative_weights(s[:m], s[0])
    d[0] = sum(wj * x[j] for j, wj in enumerate(w))
    w = lagrange_derivative_weights(s[n - m:], s[-1])
    d[-1] = sum(wj * x[n - m + j] for j, wj in enumerate(w))
    return d


_WINDOW = 5


def curve_first_derivative(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """dX/ds at every sample from a sliding 5-node Lagrange window (clamped
    at the ends), fourth order on smooth grids.  A uniform scheme is used at
    every sample, interior and ends alike, so the estimate carries no
    leading-order kinks; such kinks would be amplified by any later second
    differencing.  Grids with fewer than 5 samples fall back to the classic
    3-point scheme."""
    n = len(s)
    if n < 3:
        raise ValueError("need at least 3 samples for derivative estimates")
    s = np.asarray(s, float)
    x = np.asarray(x, float)
    if n < _WINDOW:
        return _three_point_derivative(s, x)
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
    n = len(s)
    if n < 3:
        raise ValueError("need at least 3 samples for second differences")
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
    if n < 2:
        return np.zeros(n)
    if n == 2:
        inc = np.array([0.5 * (g[0] + g[1]) * (s[1] - s[0])])
    elif n == 3:
        inc = np.empty(2)
        inc[0] = _quadratic_panel_integrals(s[0] - s[0], s[1] - s[0], s[2] - s[0],
                                            g[0], g[1], g[2], 0.0, s[1] - s[0])
        inc[1] = _quadratic_panel_integrals(s[0] - s[1], s[1] - s[1], s[2] - s[1],
                                            g[0], g[1], g[2], 0.0, s[2] - s[1])
    else:
        # Shift each interval's coordinates so the panel is well conditioned.
        left = np.full(n - 1, np.nan)
        right = np.full(n - 1, np.nan)
        base = s[:-1]
        # panel (i-1, i, i+1) integrated over [s_i, s_{i+1}], valid for i >= 1
        left[1:] = _quadratic_panel_integrals(
            s[:-2] - base[1:], s[1:-1] - base[1:], s[2:] - base[1:],
            g[:-2], g[1:-1], g[2:],
            0.0, s[2:] - base[1:])
        # panel (i, i+1, i+2) integrated over [s_i, s_{i+1}], valid for i <= n-3
        right[:-1] = _quadratic_panel_integrals(
            s[:-2] - base[:-1], s[1:-1] - base[:-1], s[2:] - base[:-1],
            g[:-2], g[1:-1], g[2:],
            0.0, s[1:-1] - base[:-1])
        inc = np.where(np.isnan(left), right,
                       np.where(np.isnan(right), left, 0.5 * (left + right)))
        inc[0] = _cubic_panel_integral(s[:4] - s[0], g[:4], 0.0, s[1] - s[0])
        inc[-1] = _cubic_panel_integral(s[-4:] - s[-2], g[-4:],
                                        0.0, s[-1] - s[-2])
    if nonnegative:
        inc = np.maximum(inc, 0.0)
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(inc, out=out[1:])
    return out


def integrate_with_end_fill(s: np.ndarray, interior: np.ndarray) -> float:
    """Trapezoid rule over the full range of s given values at interior
    samples only; the two end subintervals take the nearest interior value."""
    if len(s) != len(interior) + 2:
        raise ValueError("interior values must cover samples 1..n-2")
    full = np.empty(len(s))
    full[1:-1] = interior
    full[0] = interior[0]
    full[-1] = interior[-1]
    return trapezoid(full, s)

