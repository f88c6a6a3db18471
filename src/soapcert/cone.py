"""Geodesic cones over a graph and their constant-curvature developments.

The cone over a graph from an apex p is the union of the geodesic segments
from p to every graph point.  Every edge is stored as a geodesic polyline,
so over one chord the cone is a totally geodesic triangle with corners p
and the chord's ends.  Unrolling the cone into the model plane of the same
curvature keeps each such triangle congruent: the development places the
samples at their apex distances r, and the swept angle theta grows over
each chord by that triangle's apex angle.  Both the apex angles and the
triangle areas come from one Gram kernel on half squared chords.

Apex densities, areas, boundary conormal curvatures and the closed-cone
angle-balance residual are all computed from this data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _num
from .curvature import edge_curvature
from .errors import ApexOnGraphError, ConjugatePointError
from .graph import EdgeCurve, EmbeddedGraph, edge_unit_tangents, vertex_star
from .spaceform import ANTIPODAL_SLACK, Model, SpaceForm

# Distances from apex to the graph below this are treated as a collision.
APEX_CLEARANCE = 1e-6


@dataclass(eq=False)
class EdgeDevelopment:
    edge_id: object
    s: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    khat_nu: np.ndarray


@dataclass(eq=False)
class ConeDevelopment:
    apex: np.ndarray
    per_edge: list[EdgeDevelopment]
    hat_density: float
    hat_area: float
    plane: SpaceForm
    plane_apex: np.ndarray


def _half_sq_chord(space: SpaceForm, d: float) -> float:
    """Half the squared chord of geodesic distance d, as _half_sq_chords
    measures it: d^2/2 flat, 2 sinh^2(kd/2)/k^2 hyperbolic and
    2 sin^2(bd/2)/b^2 spherical, forms that keep their digits at small d."""
    if space.model is Model.FLAT:
        return 0.5 * d * d
    k = space.curv
    h = math.sinh(0.5 * k * d) if space.model is Model.HYPERBOLIC \
        else math.sin(0.5 * k * d)
    return 2.0 * (h / k) ** 2


def _admit(space: SpaceForm, alpha: np.ndarray, clearance: float):
    """The apex admissibility rule on the half squared chords `alpha` from
    the apex to the samples: ApexOnGraphError when a sample lies within
    `clearance`, ConjugatePointError when a spherical sample sits at or
    beyond the conjugate radius pi/b less 1e-6 (or within the antipodal
    slack of SpaceForm.dist, when that is nearer).  Half squared chords
    grow with distance, so these are the distance tests, without arcsin or
    arcsinh per sample."""
    if np.min(alpha) <= _half_sq_chord(space, clearance):
        raise ApexOnGraphError("apex lies on the graph")
    if space.model is Model.SPHERICAL:
        limit = min(space.max_radius - 1e-6,
                    (math.pi - ANTIPODAL_SLACK) / space.curv)
        if np.max(alpha) >= _half_sq_chord(space, limit):
            raise ConjugatePointError(
                "apex sees a graph point at or beyond the conjugate radius pi/b")


def check_apex(space: SpaceForm, apex: np.ndarray, samples: np.ndarray,
               clearance: float = APEX_CLEARANCE) -> None:
    """Check with _admit that the apex can carry a cone over the samples."""
    _admit(space, _half_sq_chords(space, samples, apex), clearance)


def development_plane(space: SpaceForm) -> tuple[SpaceForm, np.ndarray]:
    """The 2-D model space of the same curvature, with its base point as the
    unrolled apex."""
    plane = SpaceForm(model=space.model, dim=2, curv=space.curv)
    return plane, plane.base_point()


def developed_points(plane: SpaceForm, r: np.ndarray,
                     theta: np.ndarray) -> np.ndarray:
    """Embed polar development coordinates (r, theta) about the base point
    of the 2-D model plane."""
    if plane.model is Model.FLAT:
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    k = plane.curv
    if plane.model is Model.HYPERBOLIC:
        return np.stack([np.cosh(k * r) / k,
                         np.sinh(k * r) * np.cos(theta) / k,
                         np.sinh(k * r) * np.sin(theta) / k], axis=-1)
    return np.stack([np.cos(k * r) / k,
                     np.sin(k * r) * np.cos(theta) / k,
                     np.sin(k * r) * np.sin(theta) / k], axis=-1)


def cone_conormal_curvature(space: SpaceForm, apex: np.ndarray,
                            edge: EdgeCurve) -> np.ndarray:
    """Curvature vector of the edge dotted with the cone's outward conormal
    (tangent to the cone, orthogonal to the curve, pointing away from the
    apex), at interior samples.  NaN marks samples where the curve runs
    radially and the conormal is undefined."""
    apex = np.asarray(apex, float)
    check_apex(space, apex, edge.samples)
    u = space.tangent_project(edge.samples, edge.samples - apex)
    u = u / space.norm(u)[:, None]
    t = edge_unit_tangents(space, edge)
    ec = edge_curvature(space, edge)
    nu = (u - space.mdot(u, t)[:, None] * t)[1:-1]
    norms = space.norm(nu)
    out = np.full(len(norms), np.nan)
    ok = norms >= 1e-8
    out[ok] = space.mdot(ec.kvec[ok], nu[ok] / norms[ok][:, None])
    return out


def develop_cone(space: SpaceForm, apex: np.ndarray,
                 graph: EmbeddedGraph) -> ConeDevelopment:
    """Unroll the cone edge by edge.  Over each chord the swept angle grows
    by the apex angle of the chord's geodesic triangle, starting at zero on
    each edge, and the developed area is _edge_cone_area on the same half
    squared chords, so hat_area equals ambient_cone_area.  The developed
    curve is re-embedded in the 2-D model plane and its conormal curvature
    is measured with the same stencils as on the ambient side."""
    apex = np.asarray(apex, float)
    plane, plane_apex = development_plane(space)
    per_edge = []
    total_angle = 0.0
    hat_area = 0.0
    for edge in graph.edges:
        alpha = _half_sq_chords(space, edge.samples, apex)
        _admit(space, alpha, APEX_CLEARANCE)
        r = space.chord_dist(2.0 * alpha)
        chords = _edge_chords(space, edge)
        angles = _apex_angles(space, alpha[:-1], alpha[1:],
                              chords.gamma[:len(alpha) - 1])
        theta = np.concatenate(([0.0], np.cumsum(angles)))
        dev_samples = developed_points(plane, r, theta)
        dev_edge = EdgeCurve(id=edge.id, endpoints=edge.endpoints,
                             samples=dev_samples, s=edge.s.copy())
        khat = _num.extend_interior(
            cone_conormal_curvature(plane, plane_apex, dev_edge))
        per_edge.append(EdgeDevelopment(
            edge_id=edge.id, s=edge.s.copy(), r=r, theta=theta, khat_nu=khat))
        total_angle += float(theta[-1])
        hat_area += _edge_cone_area(space, alpha, chords)
    return ConeDevelopment(apex=apex, per_edge=per_edge,
                           hat_density=total_angle / (2.0 * math.pi),
                           hat_area=hat_area, plane=plane,
                           plane_apex=plane_apex)


def ambient_cone_density(space: SpaceForm, apex: np.ndarray,
                         graph: EmbeddedGraph) -> float:
    """Apex density of the ambient cone: total length of the spherical image
    s -> (unit initial direction of the geodesic apex -> curve point) on the
    unit tangent sphere at the apex, divided by 2 pi.  Computed as the sum of
    the angles between consecutive image directions, which are the
    _apex_angles that develop_cone accumulates."""
    apex = np.asarray(apex, float)
    total = 0.0
    for edge in graph.edges:
        alpha = _half_sq_chords(space, edge.samples, apex)
        _admit(space, alpha, APEX_CLEARANCE)
        total += float(np.sum(_apex_angles(
            space, alpha[:-1], alpha[1:],
            _edge_chords(space, edge).gamma[:len(alpha) - 1])))
    return total / (2.0 * math.pi)


def _half_sq_chords(space: SpaceForm, a: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """Half the squared ambient chord between points: d^2/2 flat,
    (1 - cos bd)/b^2 on the sphere, (cosh kd - 1)/k^2 on the hyperboloid."""
    w = a - b
    return 0.5 * space.mdot(w, w)


def _gram_root(space: SpaceForm, alpha: np.ndarray, beta: np.ndarray,
               gamma: np.ndarray) -> np.ndarray:
    """sqrt(g) for geodesic triangles given by half squared chords: alpha
    and beta from the apex to the other two corners, gamma between those.
    g is the corners' Gram determinant, 1 + 2xyz - x^2 - y^2 - z^2 over
    their unit-scaled products, divided by k^2 and arranged so that thin
    triangles keep their digits.  It also equals |w1|^2 |w2|^2 - (w1.w2)^2
    for the chords w1, w2 from the apex projected onto its tangent space."""
    g = 4.0 * alpha * gamma - (beta - alpha - gamma) ** 2 \
        - 2.0 * space.sectional_curvature * alpha * beta * gamma
    return np.sqrt(np.maximum(g, 0.0))


def _triangle_areas(space: SpaceForm, alpha: np.ndarray, beta: np.ndarray,
                    gamma: np.ndarray) -> np.ndarray:
    """Areas of the geodesic triangles of _gram_root."""
    k = space.sectional_curvature
    root = _gram_root(space, alpha, beta, gamma)
    if k == 0.0:
        return 0.5 * root
    return 2.0 / abs(k) * np.arctan2(abs(k) * root,
                                     4.0 - k * (alpha + beta + gamma))


def _apex_angles(space: SpaceForm, alpha: np.ndarray, beta: np.ndarray,
                 gamma: np.ndarray) -> np.ndarray:
    """Apex angles of the geodesic triangles of _gram_root, by the model's
    law of cosines: alpha + beta - gamma - K alpha beta is w1.w2, the dot
    product at the apex of the projected chords, and _gram_root is
    |w1| |w2| times the sine of their angle, so atan2 keeps its digits for
    thin triangles."""
    return np.arctan2(_gram_root(space, alpha, beta, gamma),
                      alpha + beta - gamma
                      - space.sectional_curvature * alpha * beta)


@dataclass(eq=False)
class _EdgeChords:
    """The apex-free part of _edge_cone_area for one edge.  Its triangles
    are the n fine chords followed by the coarse chords; chord i joins
    samples tail[i] and head[i], with half squared chord gamma[i].  Coarse
    chord m starts at fine chord lo[m] and spans j of them, and
    denom[m] = j^2 - 1."""

    tail: np.ndarray
    head: np.ndarray
    gamma: np.ndarray
    lo: np.ndarray
    denom: np.ndarray


def _edge_chords(space: SpaceForm, edge: EdgeCurve) -> _EdgeChords:
    """The edge's _EdgeChords, cached on the edge like its unit tangents;
    edges are immutable after construction."""
    cached = getattr(edge, "_cone_chords", None)
    if cached is not None:
        return cached
    n = len(edge.samples) - 1
    nodes = np.arange(0, n + 1, 2)
    nodes[-1] = n
    lo, hi = nodes[:-1], nodes[1:]
    tail = np.concatenate([np.arange(n), lo])
    head = np.concatenate([np.arange(1, n + 1), hi])
    chords = _EdgeChords(
        tail=tail, head=head,
        gamma=_half_sq_chords(space, edge.samples[tail], edge.samples[head]),
        lo=lo, denom=(hi - lo) ** 2 - 1)
    edge._cone_chords = chords
    return chords


def _edge_cone_area(space: SpaceForm, alpha: np.ndarray,
                    chords: _EdgeChords) -> float:
    """Cone area over one edge, given the half squared chords alpha from
    the apex to its samples, from the triangles on its chords and on coarse
    chords that each span j = 2 of them (j = 3 for the last one when the
    chord count is odd).  A triangle misses the cone over its arc by c H^3
    to leading order for a chord of length H, so adding (fine - coarse) /
    (j^2 - 1) per coarse chord, a Richardson step, cancels that term.
    Straight edges stay exact."""
    areas = _triangle_areas(space, alpha[chords.tail], alpha[chords.head],
                            chords.gamma)
    n = len(alpha) - 1
    fine, coarse = areas[:n], areas[n:]
    correction = (np.add.reduceat(fine, chords.lo) - coarse) / chords.denom
    return float(np.sum(fine) + np.sum(correction))


def ambient_cone_area(space: SpaceForm, apex: np.ndarray,
                      graph: EmbeddedGraph,
                      clearance: float = APEX_CLEARANCE) -> float:
    """Area (with multiplicity) of the ruled cone surface.  Over each
    geodesic chord of an edge the cone is a geodesic triangle with a closed
    form; _edge_cone_area sums them with one Richardson step.  The apex
    must pass _admit at `clearance`, on the same half squared chords that
    feed the triangles."""
    apex = np.asarray(apex, float)
    total = 0.0
    for edge in graph.edges:
        alpha = _half_sq_chords(space, edge.samples, apex)
        _admit(space, alpha, clearance)
        total += _edge_cone_area(space, alpha, _edge_chords(space, edge))
    return total


def gauss_bonnet_residual(space: SpaceForm, apex: np.ndarray,
                          graph: EmbeddedGraph,
                          dev: ConeDevelopment | None = None) -> float:
    """Absolute defect of the developed cone's angle balance,

        2 pi Theta_hat - K Area_hat + sum_edges int khat.nu ds
            - sum_vertices sum_ends (pi/2 - angle(T_end, toward apex)),

    with K the model's sectional curvature.  Zero in exact arithmetic; the
    numerical value shrinks at second order under sample refinement.
    """
    apex = np.asarray(apex, float)
    if dev is None:
        dev = develop_cone(space, apex, graph)
    k_ambient = space.sectional_curvature
    total = 2.0 * math.pi * dev.hat_density - k_ambient * dev.hat_area
    for ed in dev.per_edge:
        vals = np.nan_to_num(ed.khat_nu, nan=0.0)
        total += _num.trapezoid(vals, ed.s)
    for vertex in graph.vertices:
        q = vertex.point
        toward_apex = space.log(q, apex)
        for tv in vertex_star(graph, vertex.id):
            ang = float(space.angle_between(tv.vec, toward_apex))
            total -= math.pi / 2.0 - ang
    return abs(total)
