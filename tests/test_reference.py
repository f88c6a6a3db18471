"""The plain cone area, the apex density and the apex gradient of the
cone area against the independent 40-digit reference of tests/reference.py.

Three bounds, all relative to the reference and in units of EPS = 2^-53:

* End to end.  plain_cone_area and ambient_cone_density each add the N
  fine-chord triangle terms with np.sum, whose rounding grows with N; the
  relative error is at most SUM_MULTIPLE * EPS * N.
* The kernels alone.  On the reference's own half squared chords, rounded
  to floats, the Gram kernels' terms (the triangle areas, _root_areas on
  _gram_root, and the apex angles, _apex_angles on it), summed exactly,
  are within KERNEL_ULPS * EPS of the reference.  Summed exactly, the
  terms' random rounding averages out and what is left is their bias, so
  a kernel that moved every term by one ulp breaks this bound.  It is
  checked on the wavy loops, whose chords cross the rays from the apex,
  so that no term is ill-conditioned; on random graphs a chord may run
  nearly along a ray, and its term's rounding alone reaches a few EPS.
* The apex gradient.  space.mdot(G, v) of cone_area_gradient's G, for a
  unit tangent v at a generic apex, is within GRADIENT_MULTIPLE * EPS * N
  of the reference derivative of the Richardson-weighted area along v,
  relative to the sum of the magnitudes of its N triangles' terms.  Each
  term reads its triangle's Gram root, which a chord of length h seen at
  distance r from the apex gives to about EPS r / h, so the terms' rounding
  grows with the term count.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from soapcert import (ApexOnGraphError, ambient_cone_density, check_apex,
                      cone_area_gradient, shapes)

import reference
from builders import (MODEL_SCALE, SPACES, generic_apex, gram_apex_angles,
                      gram_triangle_areas, plain_cone_area, random_graph)

EPS = 2.0 ** -53

# measured at most 0.062 on these graphs
SUM_MULTIPLE = 0.25

# measured at most 0.34 flat and hyperbolic, and 1.26 on the sphere of
# b = 0.7, where rounding the constants K and 2/|K| moves every area the
# same way; a one-ulp move of every triangle area or apex angle reads 1.8
# to 3.3
KERNEL_ULPS = 1.5

# measured at most 0.18 over wavy loops of 32 to 96 chords in all three
# models
GRADIENT_MULTIPLE = 0.5


def _apex(space, rng, distance):
    """The point at this distance from the base point, in a random
    direction."""
    base = space.base_point()
    u = rng.standard_normal(space.dim)
    return space.exp(base, distance * u / np.linalg.norm(u)
                     @ space.tangent_basis(base))


def _check(space, apex, graph, kernels):
    triangles = reference.chord_triangles(space, apex, graph)
    area, density = reference.area_and_density(space, triangles)
    bound = SUM_MULTIPLE * EPS * len(triangles[0])
    assert reference.relative_error(plain_cone_area(space, apex, graph),
                                    area) <= bound
    assert reference.relative_error(ambient_cone_density(space, apex, graph),
                                    density) <= bound
    if kernels:
        a, b, c = (np.array([float(h) for h in col]) for col in triangles)
        assert reference.relative_error(gram_triangle_areas(space, a, b, c),
                                        area) <= KERNEL_ULPS * EPS
        with mp.workdps(reference.DIGITS):
            swept = 2 * mp.pi * density
        assert reference.relative_error(gram_apex_angles(space, a, b, c),
                                        swept) <= KERNEL_ULPS * EPS


MODELS = pytest.mark.parametrize("name", sorted(SPACES))


@MODELS
@settings(max_examples=3, deadline=None)
@given(n=st.integers(96, 256), seed=st.integers(0, 2 ** 32 - 1),
       distance=st.floats(0.0, 0.3))
def test_wavy_loops(name, n, seed, distance):
    space = SPACES[name]
    graph = shapes.wavy_closed_curve_graph(space, n=n)
    _check(space, _apex(space, np.random.default_rng(seed), distance), graph,
           kernels=True)


@MODELS
@settings(max_examples=3, deadline=None)
@given(samples=st.integers(16, 48), seed=st.integers(0, 2 ** 32 - 1))
def test_random_graphs(name, samples, seed):
    space = SPACES[name]
    rng = np.random.default_rng(seed)
    graph = random_graph(space, rng, samples_per_edge=samples)
    apex = _apex(space, rng, 0.2 * MODEL_SCALE[name])
    try:
        check_apex(space, apex, graph.samples, 0.05 * MODEL_SCALE[name])
    except ApexOnGraphError:
        assume(False)
    _check(space, apex, graph, kernels=False)


@MODELS
@settings(max_examples=2, deadline=None)
@given(n=st.integers(32, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_apex_gradient(name, n, seed):
    space = SPACES[name]
    rng = np.random.default_rng(seed)
    graph = shapes.wavy_closed_curve_graph(space, n=n)
    apex = generic_apex(space, graph, rng)
    assume(apex is not None)
    u = rng.standard_normal(space.dim)
    v = u / np.linalg.norm(u) @ space.tangent_basis(apex)
    derivative, scale = reference.area_derivative(space, apex, v, graph)
    got = float(space.mdot(cone_area_gradient(space, apex, graph)[1], v))
    terms = n + n // 2
    with mp.workdps(reference.DIGITS):
        error = float(abs(mp.mpf(got) - derivative) / scale)
    assert error <= GRADIENT_MULTIPLE * EPS * terms
