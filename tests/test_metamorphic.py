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
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import SPACES, random_instance
from soapcert import (EdgeCurve, EmbeddedGraph, Mode, Verdict, Vertex,
                      ambient_cone_area, ambient_cone_density,
                      cone_total_curvature, develop_cone,
                      evaluate_certificates, gauss_bonnet_residual)
from soapcert.cone import (APEX_CLEARANCE, _apex_angles, _triangle_areas,
                           _triangles)
from soapcert.graph import validate_graph

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
        table.weight * _triangle_areas(space, a, b, table.gamma))))
    angle_mag = float(np.sum(_apex_angles(space, a[:nfine], b[:nfine],
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
