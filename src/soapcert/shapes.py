"""Builders for common embedded graphs: circles, polygons, skeletons, and
multi-arc junction graphs, in any of the three model geometries.

Each builder returns a validated EmbeddedGraph; ``graph_document`` converts
any graph back into the JSON-ready document format consumed by load_graph.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .graph import EmbeddedGraph, Vertex, make_edge, validate_graph
from .spaceform import Model, SpaceForm


def _frame(space: SpaceForm, center: np.ndarray | None):
    if center is None:
        center = space.base_point()
    center = np.asarray(center, float)
    return center, space.tangent_basis(center)


def tangent_curve_graph(space: SpaceForm, coords, center=None,
                        graph_id: str = "c0") -> EmbeddedGraph:
    """Graph made of one closed curve exp_center(coords @ basis); ``coords``
    has shape (N, dim) and is closed up with a single valence-2 seam vertex
    (an open single curve would have valence-1 ends and is not a graph)."""
    center, basis = _frame(space, center)
    coords = np.asarray(coords, float)
    pts = space.exp(np.broadcast_to(center, (len(coords), len(center))),
                    coords @ basis)
    pts = np.concatenate([pts, pts[:1]], axis=0)
    vertices = [Vertex(id="v0", point=pts[0].copy())]
    edges = [make_edge(space, graph_id, ("v0", "v0"), pts)]
    return validate_graph(EmbeddedGraph(space=space, vertices=vertices,
                                        edges=edges))


def circle_graph(space: SpaceForm, radius: float = 1.0, n: int = 1024,
                 center=None, axes=(0, 1)) -> EmbeddedGraph:
    """Geodesic circle of the given intrinsic radius: the exponential image
    of a round tangent circle.  ``n`` counts the distinct samples."""
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    coords = np.zeros((n, space.dim))
    coords[:, axes[0]] = radius * np.cos(t)
    coords[:, axes[1]] = radius * np.sin(t)
    return tangent_curve_graph(space, coords, center=center)


def polygon_graph(space: SpaceForm, corner_coords, center=None,
                  samples_per_edge: int = 64) -> EmbeddedGraph:
    """Geodesic polygon through exp_center(corner_coords @ basis), one edge
    per consecutive corner pair."""
    center, basis = _frame(space, center)
    corner_coords = np.asarray(corner_coords, float)
    m = len(corner_coords)
    if m < 3:
        raise ValidationError("a polygon needs at least 3 corners")
    corners = space.exp(np.broadcast_to(center, (m, len(center))),
                        corner_coords @ basis)
    vertices = [Vertex(id=f"v{i}", point=corners[i]) for i in range(m)]
    edges = []
    lam = np.linspace(0.0, 1.0, samples_per_edge + 1)
    for i in range(m):
        a, b = corners[i], corners[(i + 1) % m]
        pts = space.geodesic_point(np.broadcast_to(a, (len(lam), len(a))),
                                   np.broadcast_to(b, (len(lam), len(b))), lam)
        pts[0] = a
        pts[-1] = b
        edges.append(make_edge(space, f"e{i}", (f"v{i}", f"v{(i + 1) % m}"), pts))
    return validate_graph(EmbeddedGraph(space=space, vertices=vertices,
                                        edges=edges))


def square_graph(space: SpaceForm, side: float = 1.0,
                 samples_per_edge: int = 64, center=None) -> EmbeddedGraph:
    h = side / 2.0
    corners = np.zeros((4, space.dim))
    corners[:, :2] = [[-h, -h], [h, -h], [h, h], [-h, h]]
    return polygon_graph(space, corners, center=center,
                         samples_per_edge=samples_per_edge)


def regular_polygon_graph(space: SpaceForm, m: int, radius: float,
                          samples_per_edge: int = 64,
                          center=None) -> EmbeddedGraph:
    ang = 2.0 * math.pi * np.arange(m) / m
    corners = np.zeros((m, space.dim))
    corners[:, 0] = radius * np.cos(ang)
    corners[:, 1] = radius * np.sin(ang)
    return polygon_graph(space, corners, center=center,
                         samples_per_edge=samples_per_edge)


def cube_skeleton_graph(side: float = 1.0,
                        samples_per_edge: int = 32) -> EmbeddedGraph:
    """The 12-edge skeleton of an axis-aligned cube in flat 3-space."""
    space = SpaceForm(model=Model.FLAT, dim=3)
    h = side / 2.0
    corners = np.array([[sx, sy, sz] for sx in (-h, h) for sy in (-h, h)
                        for sz in (-h, h)])
    vertices = [Vertex(id=f"v{i}", point=corners[i]) for i in range(8)]
    edges = []
    lam = np.linspace(0.0, 1.0, samples_per_edge + 1)[:, None]
    eid = 0
    for i in range(8):
        for j in range(i + 1, 8):
            if np.sum(np.abs(corners[i] - corners[j]) > 1e-12) == 1:
                pts = corners[i] + lam * (corners[j] - corners[i])
                edges.append(make_edge(space, f"e{eid}", (f"v{i}", f"v{j}"), pts))
                eid += 1
    return validate_graph(EmbeddedGraph(space=space, vertices=vertices,
                                        edges=edges))


def theta_graph(space: SpaceForm | None = None, separation: float = 1.0,
                samples_per_edge: int = 128) -> EmbeddedGraph:
    """Three congruent half-circle arcs joining two poles, meeting at 120
    degrees (each arc leaves the poles orthogonally to the common axis, in
    half-planes spread 120 degrees apart)."""
    if space is None:
        space = SpaceForm(model=Model.FLAT, dim=3)
    if space.model is not Model.FLAT or space.dim != 3:
        raise ValidationError("the symmetric three-arc graph is built in flat 3-space")
    a = separation / 2.0
    poles = np.array([[-a, 0.0, 0.0], [a, 0.0, 0.0]])
    vertices = [Vertex(id="p0", point=poles[0]), Vertex(id="p1", point=poles[1])]
    t = np.linspace(math.pi, 0.0, samples_per_edge + 1)
    edges = []
    for k in range(3):
        phi = 2.0 * math.pi * k / 3.0
        normal = np.array([0.0, math.cos(phi), math.sin(phi)])
        pts = (np.cos(t)[:, None] * np.array([a, 0.0, 0.0])
               + np.sin(t)[:, None] * (a * normal))
        pts[0] = poles[0]
        pts[-1] = poles[1]
        edges.append(make_edge(space, f"arc{k}", ("p0", "p1"), pts))
    return validate_graph(EmbeddedGraph(space=space, vertices=vertices,
                                        edges=edges))


def wavy_closed_curve_graph(space: SpaceForm, base_radius: float = 0.6,
                            wobble: float = 0.12, lobes: int = 3,
                            n: int = 512, center=None) -> EmbeddedGraph:
    """A generic smooth closed curve: a wobbling loop in a tangent 3-frame
    pushed out by the exponential map.  Useful for curved-model fixtures."""
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    rho = base_radius + wobble * np.cos(lobes * t)
    coords = np.zeros((n, space.dim))
    coords[:, 0] = rho * np.cos(t)
    coords[:, 1] = rho * np.sin(t)
    if space.dim >= 3:
        coords[:, 2] = wobble * np.sin((lobes - 1) * t)
    return tangent_curve_graph(space, coords, center=center)


def graph_document(graph: EmbeddedGraph) -> dict:
    """JSON-ready document for a graph, the inverse of load_graph."""
    return {
        "space": {"model": graph.space.model.value, "dim": graph.space.dim,
                  "curv": graph.space.curv},
        "vertices": [{"id": v.id, "coords": v.point.tolist()}
                     for v in graph.vertices],
        "edges": [{"id": e.id, "endpoints": list(e.endpoints),
                   "samples": e.samples.tolist()} for e in graph.edges],
    }
