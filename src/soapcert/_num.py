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


def extend_interior(values: np.ndarray) -> np.ndarray:
    """Pad values at samples 1..n-2 to all n samples by repeating the
    nearest interior value at the two endpoint samples."""
    full = np.empty(len(values) + 2)
    full[1:-1] = values
    full[0] = values[0]
    full[-1] = values[-1]
    return full
