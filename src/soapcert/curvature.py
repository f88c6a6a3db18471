"""Cone total curvature: geodesic-curvature integrals over edge interiors
plus the vertex contributions obtained by maximizing over unit tangent
directions.

The vertex contribution at q is

    sup over unit e in T_q of  sum_k (pi/2 - angle(T_k, e)),

with T_k the unit tangents pointing into the incident edge-ends.  For a
valence-2 vertex this is the exterior angle of the curve, taken in closed
form; higher valences run an ascent.  The valence >= 3 stars of a graph
go to one ascent call, where stars of the same shape share a lockstep, each
with its own starts and its own stopping rule, so each reads what it would
read alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _num
from .errors import IterationError
from .graph import EmbeddedGraph, stacked_unit_tangents, star_table
from .spaceform import SpaceForm, TangentVector

# Fixed grid starts of the vertex ascent, on top of the structured ones.
VERTEX_GRID_STARTS = 32
# Iteration cap of the lockstep vertex ascent; reaching it raises.  The
# stopping rule (every step below 1e-13) ends it first: largest need 18,402.
VERTEX_ASCENT_MAX_ITER = 50_000


@dataclass(eq=False)
class EdgeTC:
    edge_id: object
    integral: float


@dataclass(eq=False)
class VertexTC:
    vertex_id: object
    tc: float
    argmax_dir: TangentVector


@dataclass(eq=False)
class TCReport:
    per_edge: list[EdgeTC]
    per_vertex: list[VertexTC]
    total: float


def curvature_vectors(space: SpaceForm, x: np.ndarray, t: np.ndarray,
                      s: np.ndarray) -> np.ndarray:
    """Geodesic-curvature vectors at the interior samples of a curve
    sampled at x, with unit tangents t and parameters s: the second
    difference of the embedding, projected to the tangent space, with its
    component along the unit tangent removed."""
    t = t[1:-1]
    acc = space.tangent_project(
        x[1:-1], _num.curve_second_derivative_interior(s, x))
    return acc - space.mdot(acc, t)[:, None] * t


def edge_total_curvature(space: SpaceForm, graph: EmbeddedGraph) -> np.ndarray:
    """Integral of |curvature vector| ds over each edge, composite
    trapezoid, as a float array in graph order.

    One curvature_vectors pass runs over the stacked samples with the
    graph's stacked_unit_tangents.  Every row is computed from its sample
    and two neighbours alone, so each edge's rows read what that edge alone
    would.  The one-sided stencils at the endpoint samples are not trusted
    (the curve is only C^1 there when edges meet); the end subintervals
    instead carry the nearest interior value, by _num.extend_interior.
    Each integral is its edge's slice of one _num.edge_trapezoids pass,
    np.trapezoid bit for bit.
    """
    # all edges as one curve: the rows at an edge's two ends mix two edges
    # and are dropped below, so their floating-point faults are ignored
    with np.errstate(all="ignore"):
        kmag = space.norm(curvature_vectors(
            space, graph.samples, stacked_unit_tangents(graph), graph.s))
    bounds = graph.offsets.tolist()
    # kmag[i] belongs to sample i + 1
    y = np.concatenate([_num.extend_interior(kmag[lo:hi - 2])
                        for lo, hi in zip(bounds, bounds[1:])])
    return _num.edge_trapezoids(y, graph.s, graph.offsets)


# ---------------------------------------------------------------------------
# vertex contribution

def _star_values(dots: np.ndarray) -> np.ndarray:
    """The star objective g(e) = sum_k (pi/2 - angle(T_k, e)) of every row
    from its dot products with the star's unit tangents, which it leaves
    unchanged: the clamp makes the one copy, finished in place.  The sum
    runs over the valence, which may pass 8, so it is np.add.reduce, the
    reduction np.sum calls."""
    a = np.maximum(dots, -1.0)
    np.minimum(a, 1.0, out=a)
    np.arccos(a, out=a)
    np.subtract(math.pi / 2.0, a, out=a)
    return np.add.reduce(a, axis=-1)


def _ascent_on_sphere(starts: list[np.ndarray],
                      tangents: list[np.ndarray]) -> list[tuple]:
    """Projected-gradient ascent with backtracking of the star objective on
    the unit sphere, for several stars.  Star i climbs from the rows of
    starts[i] with the unit tangents tangents[i] until all of its steps are
    below 1e-13.  Stars of one shape (start count, valence) climb stacked
    in one lockstep, which a star leaves at its own stopping iteration, so
    each takes exactly the steps it would take alone.  Returns each star's
    (directions, values); raises IterationError if a star takes
    VERTEX_ASCENT_MAX_ITER steps."""
    groups = {}
    for i, (E, T) in enumerate(zip(starts, tangents)):
        groups.setdefault((len(E), len(T)), []).append(i)
    out = [None] * len(starts)
    for ids in groups.values():
        ids = np.array(ids)
        E = np.stack([starts[i] for i in ids])
        T = np.stack([tangents[i] for i in ids])
        Tt = np.ascontiguousarray(T.transpose(0, 2, 1))
        E /= np.sqrt(_num.rowsum(E * E))[:, :, None]
        # the dot products of the current directions, kept for the gradient
        dots = E @ Tt
        g = _star_values(dots)
        step = np.full(g.shape, 0.25)
        for _ in range(VERTEX_ASCENT_MAX_ITER):
            # d/de of -arccos(<T, e>), 1/sqrt(1 - c^2) in place; the clamp
            # keeps the slope finite at the nonsmooth directions e = +-T_k.
            c = np.maximum(dots, -1.0 + 1e-9)
            np.minimum(c, 1.0 - 1e-9, out=c)
            np.square(c, out=c)
            np.subtract(1.0, c, out=c)
            np.sqrt(c, out=c)
            np.divide(1.0, c, out=c)
            grad = c @ T
            grad -= _num.rowsum(grad * E)[:, :, None] * E
            grad *= step[:, :, None]
            cand = np.add(E, grad, out=grad)
            cand /= np.sqrt(_num.rowsum(cand * cand))[:, :, None]
            cand_dots = cand @ Tt
            gc = _star_values(cand_dots)
            better = gc > g
            np.copyto(E, cand, where=better[:, :, None])
            np.copyto(dots, cand_dots, where=better[:, :, None])
            np.copyto(g, gc, where=better)
            step *= np.where(better, 1.4, 0.5)
            stopped = (step < 1e-13).all(axis=1)
            if stopped.any():
                for j in np.flatnonzero(stopped):
                    out[ids[j]] = (E[j], g[j])
                if stopped.all():
                    break
                keep = ~stopped
                E, T, Tt, dots = E[keep], T[keep], Tt[keep], dots[keep]
                g, step, ids = g[keep], step[keep], ids[keep]
        else:
            raise IterationError("vertex ascent reached VERTEX_ASCENT_MAX_ITER")
    return out


def _unit_grid(n: int, count: int) -> np.ndarray:
    """Fixed, roughly uniform directions on the unit sphere of R^n: a
    circle for n = 2, a Fibonacci sphere for n = 3, a cylinder grid over it
    for n = 4 (30 directions for count 32), and Gaussian directions from
    default_rng(0) beyond.  They depend on n and count alone."""
    if n == 2:
        t = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    if n == 3:
        i = np.arange(count) + 0.5
        phi = math.pi * (3.0 - math.sqrt(5.0)) * i
        z = 1.0 - 2.0 * i / count
        r = np.sqrt(np.maximum(1.0 - z ** 2, 0.0))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    if n == 4:
        # spherical cylinder construction over the Fibonacci 2-sphere
        m = max(int(round(count ** (1.0 / 3.0))), 2)
        inner = _unit_grid(3, max(count // m, 2))
        ang = (np.arange(m) + 0.5) * math.pi / m
        pts = np.concatenate([
            np.concatenate([np.cos(a) * np.ones((len(inner), 1)),
                            np.sin(a) * inner], axis=1)
            for a in ang])
        return pts
    pts = np.random.default_rng(0).standard_normal((count, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _star_coordinates(space: SpaceForm, graph: EmbeddedGraph, vertex_ids):
    """The vertex points q, an orthonormal basis of each tangent space, and
    each star's unit tangents in its basis: one tangent_basis call over all
    the points and one mdot over their rows of the graph's star_table."""
    q = np.array([graph.vertex_point(v) for v in vertex_ids])
    basis = space.tangent_basis(q)
    table = star_table(graph)
    rows = [table.rows[v] for v in vertex_ids]
    counts = [r.stop - r.start for r in rows]
    vec = np.concatenate([table.vec[r] for r in rows])
    coords = space.mdot(np.repeat(basis, counts, axis=0), vec[:, None])
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    return q, basis, np.split(coords, np.cumsum(counts)[:-1])


def _star_starts(T: np.ndarray) -> np.ndarray:
    """The fixed starts of a star's ascent: every +-T_k, all normalized
    pairwise sums, and the VERTEX_GRID_STARTS directions of _unit_grid."""
    k, n = T.shape
    starts = [T, -T]
    for i in range(k):
        for j in range(i + 1, k):
            v = T[i] + T[j]
            norm = np.linalg.norm(v)
            if norm > 1e-12:
                starts.append((v / norm)[None, :])
    starts.append(_unit_grid(n, VERTEX_GRID_STARTS))
    return np.concatenate(starts, axis=0)


def _vertex_terms(space: SpaceForm, graph: EmbeddedGraph,
                  vertex_ids) -> list[VertexTC]:
    """The contributions of the given vertices, in their order; see
    vertex_tc.  All valence >= 3 stars go to one _ascent_on_sphere call."""
    q, bases, stars = _star_coordinates(space, graph, vertex_ids)
    terms = [(math.pi - 2.0 * math.atan2(float(np.linalg.norm(T[0] - T[1])),
                                         float(np.linalg.norm(T[0] + T[1]))),
              T[0]) if len(T) == 2 else None for T in stars]
    climbs = [i for i, term in enumerate(terms) if term is None]
    if climbs:
        found = _ascent_on_sphere([_star_starts(stars[i]) for i in climbs],
                                  [stars[i] for i in climbs])
        for i, (E, g) in zip(climbs, found):
            best = int(np.argmax(g))
            terms[i] = float(g[best]), E[best]
    return [VertexTC(vertex_id=v, tc=tc,
                     argmax_dir=TangentVector(base=p, vec=e @ basis))
            for v, p, basis, (tc, e) in zip(vertex_ids, q, bases, terms)]


def vertex_tc(space: SpaceForm, graph: EmbeddedGraph, vertex_id) -> VertexTC:
    """Vertex contribution, by a method chosen from the star's valence.

    Valence 2: the closed form pi - angle(T_1, T_2), the exterior angle.  By
    the triangle inequality angle(T_1, e) + angle(T_2, e) >= angle(T_1, T_2),
    with equality on the whole arc from T_1 to T_2, so the maximizer is not
    unique; T_1 is returned.  The angle is taken as the half-angle form
    2 atan2(|T_1 - T_2|, |T_1 + T_2|), which loses no digits at T_1 = +-T_2
    where arccos of the dot product would.

    Valence >= 3: multistart projected-gradient ascent on the unit tangent
    sphere.  Starts: every +-T_k, all normalized pairwise sums, and the
    VERTEX_GRID_STARTS directions of _unit_grid; the nonsmooth candidates
    e = +-T_k are therefore always evaluated exactly.  Every start is fixed,
    so the result depends on the graph alone."""
    return _vertex_terms(space, graph, [vertex_id])[0]


def vertex_tc_grid(space: SpaceForm, graph: EmbeddedGraph, vertex_id,
                   n_dirs: int = 1_000_000) -> float:
    """Brute-force sup of the star objective over a dense direction grid.
    Independent of the ascent path; used to certify vertex_tc."""
    T = _star_coordinates(space, graph, [vertex_id])[2][0]
    dirs = _unit_grid(T.shape[1], n_dirs)
    best = -math.inf
    block = 262144
    for i in range(0, len(dirs), block):
        best = max(best, float(np.max(_star_values(dirs[i:i + block] @ T.T))))
    return best


def cone_total_curvature(space: SpaceForm, graph: EmbeddedGraph) -> TCReport:
    """Assemble the cone total curvature: the per-edge curvature integrals
    of one edge_total_curvature pass over the regular part plus the vertex
    contributions, whose valence >= 3 ascents run in one call."""
    per_edge = [EdgeTC(edge_id=e.id, integral=integral) for e, integral in
                zip(graph.edges, edge_total_curvature(space, graph).tolist())]
    per_vertex = _vertex_terms(space, graph, [v.id for v in graph.vertices])
    total = sum(e.integral for e in per_edge) + sum(v.tc for v in per_vertex)
    return TCReport(per_edge=per_edge, per_vertex=per_vertex, total=total)
