"""Small numerical helpers shared across modules.

All routines are second order (or better) on smoothly graded grids and make
no uniform-spacing assumption.  They take the samples of one edge, or of
several stacked one after another, so they assume at least
``graph.MIN_EDGE_SAMPLES`` nodes per edge, which ``EdgeCurve`` enforces.
"""

from __future__ import annotations

import itertools

import numpy as np


def edge_trapezoids(y: np.ndarray, s: np.ndarray,
                    offsets: np.ndarray) -> np.ndarray:
    """np.trapezoid(y[lo:hi], s[lo:hi]) of every edge stacked at rows
    lo:hi = offsets[i]:offsets[i + 1], bit for bit: one pass of its terms
    diff(s) * (y[1:] + y[:-1]) / 2.0 over all the rows, then each edge's
    slice summed by np.add.reduce as np.trapezoid sums it.  The terms that
    straddle two edges are never read.  np.add.reduceat would sum in
    another order."""
    terms = np.diff(s) * (y[1:] + y[:-1]) / 2.0
    bounds = offsets.tolist()
    return np.array([terms[lo:hi - 1].sum()
                     for lo, hi in zip(bounds, bounds[1:])], dtype=float)


def rowsum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis into a new array (never a view of x): 0.0
    plus each column in turn from the left.  Below 8 columns np.sum adds
    the same way, starting from its identity 0.0 (so a row of -0.0 sums to
    +0.0), and the two agree bit for bit there; the column sums skip its
    per-row reduction loop, which costs about 3x on 3-4 columns."""
    out = x[..., 0] + 0.0
    for j in range(1, x.shape[-1]):
        out += x[..., j]
    return out


def _column(v: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a 1-D weight vector so it broadcasts over trailing axes."""
    return v.reshape(v.shape + (1,) * (ndim - 1))


_WINDOW = 5

# Samples per block of the weight build; it keeps the temporaries of a
# long edge within cache.
_BLOCK = 8192


def first_derivative_stencil(s: np.ndarray, bounds=None
                             ) -> tuple[np.ndarray, np.ndarray]:
    """The first-derivative stencil on parameters s: a sliding 5-node
    Lagrange window (clamped at the ends), fourth order on smooth grids.
    A uniform scheme is used at every sample, interior and ends alike, so
    the estimate carries no leading-order kinks; such kinks would be
    amplified by any later second differencing.

    Returns each sample's window start, shape (n,), and the weights of
    its window's five samples, shape (n, 5).  They depend on s alone, so
    one stencil serves every curve sampled at s; apply_stencil evaluates
    it.  Given bounds, s holds several curves' parameters one after
    another, curve i at s[bounds[i]:bounds[i + 1]], and each window is
    clamped to its own curve; every weight is computed on its own, so
    curve i's rows are its own stencil bit for bit, with window starts
    offset by bounds[i]."""
    s = np.asarray(s, float)
    n = len(s)
    bounds = np.array([0, n] if bounds is None else bounds)
    count = np.diff(bounds)
    start = np.clip(np.arange(n) - _WINDOW // 2, np.repeat(bounds[:-1], count),
                    np.repeat(bounds[1:] - _WINDOW, count))
    # node parameters relative to the evaluation point, one row per node
    t = s.take(start + np.arange(_WINDOW)[:, None]) - s  # take: faster than indexing
    weights = np.empty_like(t)
    for lo in range(0, n, _BLOCK):
        weights[:, lo:lo + _BLOCK] = _lagrange_slopes(t[:, lo:lo + _BLOCK])
    return start, weights.T


def _lagrange_slopes(t: np.ndarray) -> np.ndarray:
    """Row j: the slope at 0 of the Lagrange basis polynomial of node j
    over nodes at t (one column per evaluation point),

        sum_{k != j} prod_{m != j, k} (-t_m)  /  prod_{m != j} (t_j - t_m),

    with every product and sum taken in increasing node order.  The
    product over the three nodes other than j and k serves rows j and k,
    so each of the ten is formed once."""
    neg = -t
    nodes = range(_WINDOW)
    rest = {}
    for a, b, c in itertools.combinations(nodes, 3):
        j, k = (m for m in nodes if m not in (a, b, c))
        rest[j, k] = rest[k, j] = neg[a] * neg[b] * neg[c]
    out = np.empty_like(t)
    for j in nodes:
        k, *others = (m for m in nodes if m != j)
        num, denom = rest[j, k].copy(), t[j] - t[k]
        for m in others:
            num += rest[j, m]
            denom *= t[j] - t[m]
        np.divide(num, denom, out=out[j])
    return out


def apply_stencil(stencil: tuple[np.ndarray, np.ndarray],
                  x: np.ndarray) -> np.ndarray:
    """dX/ds at every sample of values x (one row per sample) from the
    first_derivative_stencil of their parameters."""
    start, weights = stencil
    x = np.asarray(x, float)
    d = np.zeros_like(x)
    for j in range(_WINDOW):
        d += _column(weights[:, j], x.ndim) * x.take(start + j, axis=0)
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
