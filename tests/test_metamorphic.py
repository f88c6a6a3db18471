"""Metamorphic properties: a change of presentation that the definitions
cannot see leaves every result unchanged up to rounding.

Here the change is the order of the edge list and of the vertex list, and
the names of vertices and edges.  Every sample, and so every per-edge
term, every chord's triangle and every edge-end's tangent, keeps its bits.
What moves is the order in which sums over edges, chords, vertices and
edge-ends are taken.

The rounding bound.  A floating-point sum of m terms, in any order and by
any summation tree, with each term possibly a rounded product, is within
gamma_m * S of the exact sum, where S is the sum of the terms' magnitudes,
gamma_m = m u / (1 - m u) and u = 2^-53 (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., eqs. 3.5 and 4.4).  Two orders of the same
terms are therefore within 2 gamma_m S of each other.  A quantity built
from sums of sums counts every term at every level in m and S:

- TC: one term per edge and per vertex, and the valence-many terms of each
  vertex's star objective, each in [-pi/2, pi/2].  The vertex term is that
  objective's supremum, and moving every value of a function by at most d
  moves its supremum by at most d.  So m = E + V + 2E and
  S = sum |edge terms| + sum |vertex terms| + pi E.
- Cone area: the weighted triangles of the chord table, m = its chord
  count and S = sum |weight * triangle area|.
- Density: the fine chords' apex angles and the division by 2 pi, so
  m = fine chords + 1 and S = sum of the angles / 2 pi.
- Gauss-Bonnet residual: 2 pi times the density less K times the area
  (their own terms), plus one conormal integral per edge, less one angle
  term per edge-end, each in [-pi/2, pi/2].  So m = chords + 3E + 2 and
  S = sum of the angles + |K| S(area) + sum |edge integrals| + pi E; the
  absolute value taken last moves nothing.

Verdicts are compared, not margins: a strict margin is TC's bound shifted,
and the heuristic search starts from the Karcher center of the stacked
samples, whose order is the edge order.

Two more changes cut an edge in two at an interior sample, at a new
valence-2 vertex, with MIN_EDGE_SAMPLES or more samples in each part (the
parts listed where the edge was), and reverse an edge's samples.  These
bounds are first order in u: each drops terms of relative size u and is
doubled to cover them.  numpy's cos, sin and arctan2 are taken to be
within 4 ulp (8u).

- Split, density: the fine chords, their half squared chords and so their
  apex angles keep their bits and their order, and so does the density.
- Split and reversal, builders.developed_plain_area: a developed triangle
  (o, a, b) has area |c|/2 flat and (2/|K|) atan2(y, D) curved, with c the
  cross product of the spatial parts of a and b, y = |K| |c| and
  D = 1 + K (<o,a> + <a,b> + <b,o>).  Only the changed edge's triangles
  move.  Their radii r keep their bits, and so do o and the time
  coordinates; the spatial parts rho (cos theta, sin theta) turn, as the
  swept angle theta restarts at the cut or at the other end.  Each spatial
  coordinate is within eps_p = 10u of its value (the cosine or sine and
  two roundings), so with M = rho_a rho_b, which bounds
  |a_x b_y| + |a_y b_x|, c and the spatial dot product of a and b are
  within (2 eps_p + 2u) M of M sin phi and M cos phi, phi the difference
  of the computed swept angles.  phi is the chord's apex angle plus the
  rounding of one step of a cumulative sum, at most u Theta, Theta the
  edge's largest swept angle.  If the apex angle moves by dphi between the
  developments (0 for a split, twice angle_errors for a reversal), c moves
  by at most M (4 eps_p + 4u + dphi + 2u Theta), and D by |K| times that
  plus 12u |K| Q, Q the magnitudes of the products in D.  The area's
  partials are 2D / (D^2 + y^2) in c and 2|c| / (D^2 + y^2) in D, and its
  own evaluation adds u |D| and u |c| through them and 10u of the area in
  each development.  Summing the triangles and the edges adds
  2 gamma_m S, m counting both.  This is plain_area_bound.
- Reversal, density: the same apex angles in reverse order, each from its
  triangle's alpha and beta swapped, which the Gram kernel rounds
  differently.  angle_errors bounds each against the exact angle: the
  roundings of g reach at most
  e_g = u (12 alpha gamma + 5 t^2 + 2 |t| |beta - alpha| + 8 |K| alpha beta gamma),
  t = beta - alpha - gamma, so the root r = sqrt(g) moves by at most
  min(sqrt(e_g), e_g / r) plus its own rounding; the dot product
  d = alpha + beta - gamma - K alpha beta by
  3u (alpha + beta + gamma + |K| alpha beta); atan2(r, d) by
  (|d| dr + r dd) / (r^2 + d^2), and by 8u of itself.  The two angles are
  within twice that of each other; the sum adds 2 gamma_m S and the
  division by 2 pi 2u of the density.
- Reversal, curvature integral: both integrals are, up to rounding, one
  exact computation on the exact sums of the edge's chords, mirrored; the
  chords keep their bits.  A computed parameter step is within
  dh = u (L + 2 h_max) of its chord (the running sum's one rounding, at
  most u L, and the difference's), L the edge's length, and a difference
  of two stencil offsets within a relative
  eps = (8u L + 14u h_max) / h_min.  curvature_error follows the
  computation: the 5-node weights move by 7 eps of their magnitudes W
  (three numerator and four denominator factors), and since exact weights
  sum to 0, the derivative by 7 eps sum_j W_j |x_j - x_k| plus
  19u sum_j W_j |x_j| of rounding; the 3-node second difference moves by
  its partials in its two steps times dh plus 10u of its magnitude.  A
  tangent projection multiplies by 1 + |K| |x|^2 and adds 5u of its
  input; normalizing v multiplies by (1 + mu^2) / |v|; removing the
  tangential part gives (1 + mu^2) dA + 2 |A| mu dt; and the norm mu, and
  3u mu^2 of itself.  mu = max(1, sqrt(|K|) |x|) on the hyperboloid bounds
  the Euclidean length of a tangent vector over its Minkowski length (it is
  1 elsewhere).  The trapezoid rule adds the moved values, dh per step and
  gamma_{n+3} of its terms.  The two integrals are within the sum of their
  bounds, doubled.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import (SPACES, developed_plain_area, generic_apex,
                      gram_apex_angles, gram_triangle_areas, random_instance)
from soapcert import (EdgeCurve, EmbeddedGraph, Mode, Verdict, Vertex,
                      ambient_cone_area, ambient_cone_density,
                      cone_total_curvature, develop_cone,
                      evaluate_certificates, gauss_bonnet_residual, shapes)
from soapcert import _num
from soapcert.cone import (APEX_CLEARANCE, _gram_root, _triangles,
                           developed_points)
from soapcert.curvature import curvature_vectors, edge_total_curvature
from soapcert.graph import (MIN_EDGE_SAMPLES, edge_unit_tangents, make_edge,
                            validate_graph)
from soapcert.spaceform import Model

U = 2.0 ** -53
GRID = 16  # heuristic apex grid: the verdicts, not the search, are compared


def gamma(m: int) -> float:
    return m * U / (1.0 - m * U)


def results(space, graph, apex):
    """Every quantity the properties compare, with its rounding bound (the
    module docstring derives them) where it is compared to a bound."""
    tc = cone_total_curvature(space, graph)
    ne, nv = len(graph.edges), len(graph.vertices)
    tc_mag = sum(abs(e.integral) for e in tc.per_edge) \
        + sum(abs(v.tc) for v in tc.per_vertex) + math.pi * ne
    table, _, a, b = _triangles(space, apex, graph, APEX_CLEARANCE)
    nfine, chords = table.nfine, len(table.gamma)
    area_mag = float(np.sum(np.abs(
        table.weight * gram_triangle_areas(space, a, b, table.gamma))))
    angle_mag = float(np.sum(gram_apex_angles(space, a[:nfine], b[:nfine],
                                              table.gamma[:nfine])))
    dev = develop_cone(space, apex, graph)
    edge_mag = sum(abs(float(np.trapezoid(np.nan_to_num(ed.khat_nu), ed.s)))
                   for ed in dev.per_edge)
    k = abs(space.sectional_curvature)
    values = {
        "tc": (tc.total, 2.0 * gamma(3 * ne + nv) * tc_mag),
        "area": (ambient_cone_area(space, apex, graph),
                 2.0 * gamma(chords) * area_mag),
        "density": (ambient_cone_density(space, apex, graph),
                    2.0 * gamma(nfine + 1) * angle_mag / (2.0 * math.pi)),
        "residual": (gauss_bonnet_residual(space, apex, graph),
                     2.0 * gamma(chords + 3 * ne + 2)
                     * (angle_mag + k * area_mag + edge_mag + math.pi * ne)),
    }
    rows = {mode: evaluate_certificates(space, graph, mode=mode, tc=tc,
                                        grid_n=GRID)
            for mode in (Mode.STRICT, Mode.HEURISTIC)}
    return values, rows


def verdicts(rows):
    return {mode: [c.verdict for c in certs] for mode, certs in rows.items()}


@functools.cache
def instance(model: str):
    """A random graph of builders.random_graph with a generic apex, and its
    results as presented.  Its three vertices, two of valence 3, are joined
    by four edges, and the YSingularitiesOnly claim qualifies in both modes
    by a margin above 0.8, so no verdict could flip on rounding."""
    space = SPACES[model]
    rng = np.random.default_rng(sorted(SPACES).index(model))
    graph, apex = random_instance(space, rng, samples_per_edge=24)
    return graph, apex, results(space, graph, apex)


def represented(graph, edge_order, vertex_order, vertex_names, edge_names):
    """The same graph with its edges and vertices listed in the given orders
    and renamed: vertex i becomes vertex_names[i], edge j edge_names[j]."""
    name = {v.id: vertex_names[i] for i, v in enumerate(graph.vertices)}
    vertices = [Vertex(id=name[graph.vertices[i].id],
                       point=graph.vertices[i].point) for i in vertex_order]
    edges = [EdgeCurve(id=edge_names[j],
                       endpoints=tuple(name[v] for v in graph.edges[j].endpoints),
                       samples=graph.edges[j].samples, s=graph.edges[j].s)
             for j in edge_order]
    return validate_graph(EmbeddedGraph(space=graph.space, vertices=vertices,
                                        edges=edges))


NAMES = st.one_of(st.integers(-50, 50), st.text("abcxyz019", max_size=3))


@st.composite
def presentations(draw, model):
    graph = instance(model)[0]
    ne, nv = len(graph.edges), len(graph.vertices)
    return (draw(st.permutations(range(ne))), draw(st.permutations(range(nv))),
            draw(st.lists(NAMES, min_size=nv, max_size=nv, unique=True)),
            draw(st.lists(NAMES, min_size=ne, max_size=ne, unique=True)))


class TestPresentation:
    """Permuting the edge and vertex lists and renaming both moves TC, cone
    area, density and residual at a fixed apex by at most their rounding
    bounds, and changes no strict or heuristic verdict."""

    @pytest.mark.parametrize("model", sorted(SPACES))
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_results_move_by_rounding_only(self, model, data):
        presentation = data.draw(presentations(model))
        graph, apex, (values, rows) = instance(model)
        moved, moved_rows = results(
            SPACES[model], represented(graph, *presentation), apex)
        for name, (value, bound) in values.items():
            assert abs(moved[name][0] - value) <= bound, (name, value, bound)
        assert verdicts(moved_rows) == verdicts(rows)

    @pytest.mark.parametrize("model", sorted(SPACES))
    def test_instances_test_something(self, model):
        # a qualifying claim, margins that only a change far above
        # rounding could flip, and bounds far below any tolerance
        values, rows = instance(model)[2]
        for mode, certs in rows.items():
            assert Verdict.Y_SINGULARITIES_ONLY in verdicts(rows)[mode]
            assert min(abs(c.margin) for c in certs) > 0.1
        for name, (value, bound) in values.items():
            assert bound < 1e-10 * max(1.0, abs(value)), name


# ---------------------------------------------------------------------------
# edge split and edge reversal


def split_graph(graph, j, i):
    """The graph with edge j cut at its sample i into two edges, listed in
    its place and joined at a new valence-2 vertex "cut"."""
    e = graph.edges[j]
    head = make_edge(graph.space, "head", (e.endpoints[0], "cut"),
                     e.samples[:i + 1])
    tail = make_edge(graph.space, "tail", ("cut", e.endpoints[1]),
                     e.samples[i:])
    return validate_graph(EmbeddedGraph(
        space=graph.space,
        vertices=graph.vertices + [Vertex(id="cut", point=e.samples[i])],
        edges=graph.edges[:j] + [head, tail] + graph.edges[j + 1:]))


def reversed_graph(graph, j):
    """The graph with edge j's samples in reverse order, its parameters
    measured again from its new first sample."""
    e = graph.edges[j]
    back = make_edge(graph.space, e.id, e.endpoints[::-1], e.samples[::-1])
    return validate_graph(EmbeddedGraph(
        space=graph.space, vertices=graph.vertices,
        edges=graph.edges[:j] + [back] + graph.edges[j + 1:]))


def angle_errors(space, alpha, beta, gamma):
    """Bound on the distance of each _apex_angles value from the exact
    apex angle of the triangle (the module docstring derives it)."""
    k = abs(space.sectional_curvature)
    t = np.abs(beta - alpha - gamma)
    e_g = U * (12 * alpha * gamma + 5 * t * t + 2 * t * np.abs(beta - alpha)
               + 8 * k * alpha * beta * gamma)
    root = _gram_root(space, alpha, beta, gamma)
    e_root = np.minimum(np.sqrt(e_g), e_g / np.maximum(root, 1e-300)) \
        + U * (root + np.sqrt(e_g))
    dot = alpha + beta - gamma - space.sectional_curvature * alpha * beta
    e_dot = 3 * U * (alpha + beta + gamma + k * alpha * beta)
    angle = np.arctan2(root, dot)
    return (np.abs(dot) * e_root + root * e_dot) / (root ** 2 + dot ** 2) \
        + 8 * U * angle


def fine_angles(space, apex, graph):
    """The fine chords' apex angles and their angle_errors, edge by edge."""
    table, _, a, b = _triangles(space, apex, graph, APEX_CLEARANCE)
    n = table.nfine
    return (gram_apex_angles(space, a[:n], b[:n], table.gamma[:n]),
            angle_errors(space, a[:n], b[:n], table.gamma[:n]))


def plain_area_bound(dev, edge, dphi):
    """Bound on how far developed_plain_area moves when the triangles of
    the edge at position `edge` are recomputed with their apex angles
    moved by at most dphi and their swept angles started elsewhere, all
    other triangles unchanged (the module docstring derives it)."""
    plane = dev.plane
    k = abs(plane.sectional_curvature)
    eps_p = 10 * U
    o = dev.plane_apex
    terms, moved = [], 0.0
    for j, ed in enumerate(dev.per_edge):
        pts = developed_points(plane, ed.r, ed.theta)
        a, b = pts[:-1], pts[1:]
        cross = np.abs(a[:, -2] * b[:, -1] - a[:, -1] * b[:, -2])
        m = np.hypot(a[:, -2], a[:, -1]) * np.hypot(b[:, -2], b[:, -1])
        if plane.model is Model.FLAT:
            area, d_c, d_cc, own = 0.5 * cross, 0.5, 0.0, 0.0
        else:
            q = np.abs(o[0] * a[:, 0]) + np.abs(a[:, 0] * b[:, 0]) + m \
                + np.abs(o[0] * b[:, 0])
            d = 1.0 + plane.sectional_curvature * (
                plane.mdot(o, a) + plane.mdot(a, b) + plane.mdot(b, o))
            y = k * cross
            area = 2.0 / k * np.arctan2(y, d)
            d_c = 2 * d / (d * d + y * y)
            d_cc = 2 * cross / (d * d + y * y)
            own = d_cc * U * np.abs(d) + d_c * U * cross + 10 * U * area
        terms.append(area)
        if j == edge:
            theta = dphi + 2 * U * float(np.max(ed.theta))
            dc = m * (4 * eps_p + 4 * U + theta)
            dcc = 0.0 if plane.model is Model.FLAT else \
                k * (m * (4 * eps_p + 4 * U + theta) + 12 * U * q)
            moved += float(np.sum(d_c * dc + d_cc * dcc + 2 * own))
    terms = np.concatenate(terms)
    return 2.0 * (moved + 2 * gamma(len(terms) + len(dev.per_edge))
                  * float(np.sum(np.abs(terms))))


def curvature_error(space, edge):
    """Bound on the distance of the edge's edge_total_curvature integral
    from its value in exact arithmetic on the exact sums of the edge's
    chords (the module docstring derives it)."""
    x, s = edge.samples, edge.s
    h = np.diff(s)
    dh = U * (s[-1] + 2 * h.max())
    eps = (8 * U * s[-1] + 14 * U * h.max()) / h.min()
    k = abs(space.sectional_curvature)
    xn = np.linalg.norm(x, axis=1)
    proj = 1.0 + k * xn * xn
    mu = np.sqrt(np.maximum(1.0, k * xn * xn)) \
        if space.model is Model.HYPERBOLIC else np.ones(len(x))
    # first derivative: W holds the magnitudes of the stencil weights
    start, w = _num.first_derivative_stencil(s)
    rows = start[:, None] + np.arange(5)
    t = s[rows] - s[:, None]
    centre = t == 0.0
    W = np.where(centre, np.sum(1.0 / np.abs(np.where(centre, 1.0, t)),
                                axis=1, keepdims=True) - 1.0, np.abs(w))
    xr = np.linalg.norm(x[rows], axis=2)
    xd = np.linalg.norm(x[rows] - x[:, None], axis=2)
    e_d = 7 * eps * np.sum(W * xd, axis=1) + 19 * U * np.sum(W * xr, axis=1)
    d = _num.apply_stencil((start, w), x)
    e_v = proj * (e_d + 5 * U * np.linalg.norm(d, axis=1))
    vn = space.norm(space.tangent_project(x, d))
    e_t = ((1 + mu ** 2) * e_v / vn + 5 * U * mu)[1:-1]
    # second difference
    h1, h2 = h[:-1, None], h[1:, None]
    x0, x1, x2 = x[:-2], x[1:-1], x[2:]
    q = h1 * h2 * (h1 + h2)
    D = 2 * (h2 * (x0 - x1) + h1 * (x2 - x1)) / q
    dD = np.abs(2 * (x2 - x1) - D * h2 * (2 * h1 + h2)) / q \
        + np.abs(2 * (x0 - x1) - D * h1 * (h1 + 2 * h2)) / q
    D_mag = 2 * (h2 * np.abs(x0) + (h1 + h2) * np.abs(x1)
                 + h1 * np.abs(x2)) / q
    e_D = np.linalg.norm(dD, axis=1) * dh \
        + 10 * U * np.linalg.norm(D_mag, axis=1)
    m, p = mu[1:-1], proj[1:-1]
    A = space.tangent_project(x1, D)
    an = np.linalg.norm(A, axis=1)
    e_A = p * (e_D + 5 * U * np.linalg.norm(D, axis=1))
    e_kvec = (1 + m * m) * e_A + 2 * an * m * e_t + 6 * U * an * (1 + m * m)
    kappa = space.norm(curvature_vectors(
        space, x, edge_unit_tangents(space, edge), s))
    y = _num.extend_interior(kappa)
    e_y = _num.extend_interior(m * e_kvec + 3 * U * m * m * kappa)
    mid = (y[1:] + y[:-1]) / 2
    return float(np.sum(h * (e_y[1:] + e_y[:-1]) / 2) + np.sum(dh * mid)
                 + gamma(len(s) + 3) * np.sum(h * mid))


@functools.cache
def cut_instance(model: str, kind: str):
    """A graph without mirror symmetries and a generic apex: a random graph
    of four skewed 25-sample edges, or the 96-sample wavy loop of
    shapes.wavy_closed_curve_graph, one edge at one vertex, with a cos t
    term added to its third coordinate.  A mirror-symmetric edge read
    backwards is its own mirror image, so a reversal could not tell its
    direction."""
    space = SPACES[model]
    rng = np.random.default_rng(sorted(SPACES).index(model))
    if kind == "random":
        return random_instance(space, rng, samples_per_edge=24, skew=0.4)
    t = np.linspace(0.0, 2.0 * math.pi, 96, endpoint=False)
    rho = 0.6 + 0.12 * np.cos(3.0 * t)
    graph = shapes.tangent_curve_graph(space, np.stack(
        [rho * np.cos(t), rho * np.sin(t),
         0.12 * np.sin(2.0 * t) + 0.05 * np.cos(t)], axis=1))
    return graph, generic_apex(space, graph, rng)


KINDS = pytest.mark.parametrize("kind", ["random", "loop"])


@st.composite
def cuts(draw, graph):
    """An edge and an interior sample that leaves both parts at least
    MIN_EDGE_SAMPLES samples."""
    j = draw(st.integers(0, len(graph.edges) - 1))
    n = len(graph.edges[j].samples)
    return j, draw(st.integers(MIN_EDGE_SAMPLES - 1, n - MIN_EDGE_SAMPLES))


class TestEdgeSplit:
    """Cutting an edge in two at a sample keeps the density's bits and
    moves the developed plain area by at most plain_area_bound."""

    @KINDS
    @pytest.mark.parametrize("model", sorted(SPACES))
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_density_bits_and_plain_area(self, model, kind, data):
        space = SPACES[model]
        graph, apex = cut_instance(model, kind)
        j, i = data.draw(cuts(graph))
        cut = split_graph(graph, j, i)
        angles = fine_angles(space, apex, graph)[0]
        assert _same_bits(fine_angles(space, apex, cut)[0], angles)
        assert _same_bits(ambient_cone_density(space, apex, cut),
                          ambient_cone_density(space, apex, graph))
        dev = develop_cone(space, apex, graph)
        moved = developed_plain_area(develop_cone(space, apex, cut)) \
            - developed_plain_area(dev)
        assert abs(moved) <= plain_area_bound(dev, j, 0.0)


class TestEdgeReversal:
    """Reversing an edge's samples moves the density, the developed plain
    area and that edge's curvature integral by at most their bounds, and
    keeps every other edge's integral."""

    @KINDS
    @pytest.mark.parametrize("model", sorted(SPACES))
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_results_move_within_their_bounds(self, model, kind, data):
        space = SPACES[model]
        graph, apex = cut_instance(model, kind)
        j = data.draw(st.integers(0, len(graph.edges) - 1))
        back = reversed_graph(graph, j)
        angles, errors = fine_angles(space, apex, graph)
        density = ambient_cone_density(space, apex, graph)
        bound = 2.0 * ((2 * np.sum(errors) + 2 * gamma(len(angles))
                        * np.sum(angles)) / (2 * math.pi) + 2 * U * density)
        assert abs(ambient_cone_density(space, apex, back) - density) <= bound
        dev = develop_cone(space, apex, graph)
        lo = graph.offsets[j] - j
        dphi = 2 * errors[lo:lo + len(graph.edges[j].samples) - 1]
        moved = developed_plain_area(develop_cone(space, apex, back)) \
            - developed_plain_area(dev)
        assert abs(moved) <= plain_area_bound(dev, j, dphi)
        for e, f, got, want in zip(graph.edges, back.edges,
                                   edge_total_curvature(space, back),
                                   edge_total_curvature(space, graph)):
            if e is f:
                assert _same_bits(got, want)
            else:
                assert abs(got - want) <= 2.0 * (curvature_error(space, e)
                                                  + curvature_error(space, f))

    @KINDS
    @pytest.mark.parametrize("model", sorted(SPACES))
    def test_bounds_are_far_below_any_tolerance(self, model, kind):
        space = SPACES[model]
        graph, apex = cut_instance(model, kind)
        dev = develop_cone(space, apex, graph)
        errors = fine_angles(space, apex, graph)[1]
        assert np.max(errors) < 1e-14
        for j, e in enumerate(graph.edges):
            assert plain_area_bound(dev, j, 1e-14) < 1e-12
            assert curvature_error(space, e) < 1e-8


def _same_bits(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()
