import numpy as np
import pytest

from soapcert._num import (
    apply_stencil,
    curve_second_derivative_interior,
    edge_trapezoids,
    extend_interior,
    first_derivative_stencil,
    rowsum,
)

from builders import loop_first_derivative


def curve_first_derivative(s, x):
    return apply_stencil(first_derivative_stencil(s), x)


def _jittered_grid(n, rng, span=2.0):
    s = np.sort(rng.uniform(0.0, span, n - 2))
    return np.concatenate([[0.0], s, [span]])


def test_first_derivative_exact_on_cubics():
    rng = np.random.default_rng(1)
    s = _jittered_grid(40, rng)
    x = np.stack([s ** 3 - 2 * s, 0.5 * s ** 2 + s], axis=1)
    want = np.stack([3 * s ** 2 - 2, s + 1], axis=1)
    got = curve_first_derivative(s, x)
    assert np.max(np.abs(got - want)) < 1e-10


def test_first_derivative_fourth_order():
    errs = []
    for n in (40, 80):
        s = np.linspace(0.0, 2.0, n)
        got = curve_first_derivative(s, np.sin(3 * s))
        errs.append(np.max(np.abs(got - 3 * np.cos(3 * s))))
    assert errs[1] < errs[0] / 12.0


def test_second_derivative_on_quadratics():
    rng = np.random.default_rng(2)
    s = _jittered_grid(20, rng)
    got = curve_second_derivative_interior(s, 3.0 * s ** 2 + s - 1.0)
    assert np.max(np.abs(got - 6.0)) < 1e-10


def test_end_fill_equals_trapezoid_with_copied_ends():
    s = np.linspace(0.0, 1.0, 11)
    interior = np.linspace(2.0, 3.0, 9)
    full = extend_interior(interior)
    assert np.array_equal(full[1:-1], interior)
    assert (full[0], full[-1]) == (interior[0], interior[-1])
    # end subintervals carry 2 and 3, the interior ramps from 2 to 3
    assert np.trapezoid(full, s) == pytest.approx(
        0.1 * 2.0 + 0.8 * 2.5 + 0.1 * 3.0)


def test_edge_trapezoids_equal_np_trapezoid_edge_by_edge():
    """Stacked edges of 8 to 300 samples on jittered grids.  Each grid
    restarts at 0, so the unread terms that straddle two edges run
    backwards."""
    rng = np.random.default_rng(5)
    counts = rng.integers(8, 300, size=40)
    offsets = np.cumsum(np.concatenate([[0], counts]))
    s = np.concatenate([_jittered_grid(n, rng, rng.uniform(0.1, 9.0))
                        for n in counts])
    y = rng.standard_normal(len(s))
    got = edge_trapezoids(y, s, offsets)
    want = [np.trapezoid(y[lo:hi], s[lo:hi])
            for lo, hi in zip(offsets, offsets[1:])]
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(want).tobytes()
    assert edge_trapezoids(y, s, offsets[:1]).shape == (0,)


def _grids(n):
    rng = np.random.default_rng(n)
    return {"uniform": np.linspace(0.0, 2.0, n),
            "random": _jittered_grid(n, rng),
            "geometric": np.concatenate([[0.0], np.geomspace(1e-3, 5.0, n - 1)])}


# 17500 samples span three blocks of the weight build
@pytest.mark.parametrize("n", [8, 9, 85, 1025, 17500])
@pytest.mark.parametrize("grid", ["uniform", "random", "geometric"])
@pytest.mark.parametrize("ndim", [1, 2])
def test_stencil_equals_loop_oracle_bitwise(n, grid, ndim):
    s = _grids(n)[grid]
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n) if ndim == 1 else rng.standard_normal((n, 4))
    start, weights = stencil = first_derivative_stencil(s)
    assert start.shape == (n,) and weights.shape == (n, 5)
    assert np.array_equal(apply_stencil(stencil, x), loop_first_derivative(s, x))
    # a zero coordinate keeps the sign of the oracle's zeros
    zeros = apply_stencil(stencil, np.zeros((n, 3)))
    assert not np.any(np.signbit(zeros))


def _bits(a):
    return np.asarray(a, float).view(np.int64)


@pytest.mark.parametrize("d", range(2, 8))
@pytest.mark.parametrize("lead", [(300,), (), (6, 40)],
                         ids=["rows", "row", "stacked"])
def test_rowsum_equals_np_sum_bitwise(d, lead):
    rng = np.random.default_rng(d)
    shape = lead + (d,)
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150, shape)
    # a quarter of the entries are signed zeros; all-zero rows come next
    zeros = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    x = np.where(rng.random(shape) < 0.25, zeros, x)
    assert np.array_equal(_bits(rowsum(x)), _bits(np.sum(x, axis=-1)))
    for zero in (0.0, -0.0):
        row = np.full(d, zero)
        assert np.array_equal(_bits(rowsum(row)), _bits(np.sum(row)))


@pytest.mark.parametrize("d", range(1, 8))
def test_rowsum_shares_no_memory_with_its_input(d):
    x = np.arange(5.0 * d).reshape(5, d)
    out = rowsum(x)
    assert out.shape == (5,)
    assert not np.shares_memory(out, x)
    out[:] = -1.0
    assert np.array_equal(x, np.arange(5.0 * d).reshape(5, d))
