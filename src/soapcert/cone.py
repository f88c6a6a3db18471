"""Geodesic cones over a graph and their constant-curvature developments.

The cone over a graph from an apex p is the union of the geodesic segments
from p to every graph point.  Every edge is stored as a geodesic polyline,
so over one chord the cone is a totally geodesic triangle with corners p
and the chord's ends.  Unrolling the cone into the model plane of the same
curvature keeps each such triangle congruent: the development places the
samples at their apex distances r, and the swept angle theta grows over
each chord by that triangle's apex angle.  Both the apex angles and the
triangle areas are read off one Gram root per triangle, taken from half
squared chords.

Apex densities, areas and their apex gradients, boundary conormal
curvatures and the closed-cone angle-balance residual are all computed from
this data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _num
from .curvature import curvature_vectors
from .errors import (ApexOnGraphError, ConjugatePointError, NumericalError,
                     ValidationError)
from .graph import (
    EdgeCurve,
    EmbeddedGraph,
    derivative_stencil,
    edge_unit_tangents,
    star_table,
    unit_tangents,
)
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


def check_apex(space: SpaceForm, apex: np.ndarray, samples: np.ndarray,
               clearance: float = APEX_CLEARANCE) -> np.ndarray:
    """The half squared chords alpha from the apex to the samples, once the
    apex passes the admissibility rule on them: ApexOnGraphError when a
    sample lies within `clearance`, ConjugatePointError when a spherical
    sample sits at or beyond the conjugate radius pi/b less 1e-6 (or within
    the antipodal slack of SpaceForm.dist, when that is nearer).  Half
    squared chords grow with distance, so these are the distance tests,
    without arcsin or arcsinh per sample.

    NumericalError when the smallest alpha is not finite or exceeds
    L = 1e100 / max(|K|, 1e-150)^(1/3), K the sectional curvature.  With
    every half squared chord of a triangle at most L, the Gram kernel's
    largest product, ((2K alpha) beta) gamma, is at most 2 |K| L^3 <= 2e300,
    and (4 alpha) gamma and t t (|t| <= 2L) at most 4 L^2 <= 4e300, below
    the largest float, 1.8e308.  Every alpha is at least the smallest, so
    past L no triangle at this apex is within that bound."""
    alpha = _half_sq_chords(space, samples, apex)
    nearest = alpha.min()
    ceiling = 1e100 / max(abs(space.sectional_curvature), 1e-150) ** (1.0 / 3.0)
    if not nearest <= ceiling:
        raise NumericalError("apex is too far from the graph for the cone "
                             f"kernels: half squared chord {nearest:.3g} to "
                             f"its nearest sample, above {ceiling:.3g}")
    if nearest <= _half_sq_chord(space, clearance):
        raise ApexOnGraphError("apex lies on the graph")
    if space.model is Model.SPHERICAL:
        limit = min(space.max_radius - 1e-6,
                    (math.pi - ANTIPODAL_SLACK) / space.curv)
        if alpha.max() >= _half_sq_chord(space, limit):
            raise ConjugatePointError(
                "apex sees a graph point at or beyond the conjugate radius pi/b")
    return alpha


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
    sin, cos = (np.sinh, np.cosh) if plane.model is Model.HYPERBOLIC \
        else (np.sin, np.cos)
    kr = k * r
    radial = sin(kr)
    return np.stack([cos(kr) / k, radial * np.cos(theta) / k,
                     radial * np.sin(theta) / k], axis=-1)


def cone_conormal_curvature(space: SpaceForm, apex: np.ndarray,
                            edge: EdgeCurve) -> np.ndarray:
    """Curvature vector of the edge dotted with the cone's outward conormal
    (tangent to the cone, orthogonal to the curve, pointing away from the
    apex), at interior samples.  NaN marks samples where the curve runs
    radially and the conormal is undefined."""
    apex = np.asarray(apex, float)
    check_apex(space, apex, edge.samples)
    return _conormal_rows(space, apex, edge.samples,
                          edge_unit_tangents(space, edge), edge.s)


def _conormal_rows(space: SpaceForm, apex: np.ndarray, x: np.ndarray,
                   t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """cone_conormal_curvature at the interior samples of a curve sampled
    at x, with unit tangents t and parameters s.  Every row is computed
    from its own sample and its two neighbours alone."""
    kvec = curvature_vectors(space, x, t, s)
    x, t = x[1:-1], t[1:-1]
    u = space.tangent_project(x, x - apex)
    u = u / space.norm(u)[:, None]
    nu = u - space.mdot(u, t)[:, None] * t
    norms = space.norm(nu)
    with np.errstate(all="ignore"):  # rows under 1e-8 are dropped as NaN
        vals = space.mdot(kvec, nu / norms[:, None])
    return np.where(norms >= 1e-8, vals, np.nan)


def develop_cone(space: SpaceForm, apex: np.ndarray,
                 graph: EmbeddedGraph) -> ConeDevelopment:
    """Unroll the cone edge by edge.  Over each chord the swept angle grows
    by the apex angle of the chord's geodesic triangle, starting at zero on
    each edge; an edge's s is a read-only view of graph.s.  One _gram_root
    pass over all the chords gives the fine chords' apex angles and every
    triangle's area.  hat_density is _cone_density of those angles and
    hat_area is _richardson_sum of those areas, so both equal their ambient
    counterparts bit for bit.
    The developed curves, re-embedded in the 2-D model plane as one array,
    have their conormal curvature measured in one pass: unit_tangents by the
    graph's derivative_stencil, then cone_conormal_curvature's row kernel,
    each row from its sample and two neighbours, so every row inside an edge
    reads what that edge alone would; an edge's two end samples take the
    nearest interior value, by _num.extend_interior as in TC's edge term.
    The ambient admission of the apex stands for the plane's: every
    developed point lies at its sample's distance r from the plane apex."""
    apex = np.asarray(apex, float)
    table, alpha, a, b = _triangles(space, apex, graph, APEX_CLEARANCE)
    gamma = table.gamma
    root = _gram_root(space, a, b, gamma)
    plane, plane_apex = development_plane(space)
    r = space.chord_dist(2.0 * alpha)
    n = table.nfine
    angles = _apex_angles(space, a[:n], b[:n], gamma[:n], root[:n])
    theta = np.zeros(len(r))
    bounds = graph.offsets.tolist()
    for e, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        np.cumsum(angles[lo - e:hi - e - 1], out=theta[lo + 1:hi])
    x = developed_points(plane, r, theta)
    t = unit_tangents(plane, x, derivative_stencil(graph), graph)
    # all edges as one curve: the rows at an edge's two ends mix two edges
    # and are dropped below, so their floating-point faults are ignored
    with np.errstate(all="ignore"):
        khat = _conormal_rows(plane, plane_apex, x, t, graph.s)
    per_edge = [EdgeDevelopment(  # khat[i] belongs to sample i + 1
        edge_id=edge.id, s=graph.s[lo:hi], r=r[lo:hi], theta=theta[lo:hi],
        khat_nu=_num.extend_interior(khat[lo:hi - 2]))
        for edge, lo, hi in zip(graph.edges, bounds, bounds[1:])]
    return ConeDevelopment(apex=apex, per_edge=per_edge,
                           hat_density=_cone_density(angles),
                           hat_area=_richardson_sum(_root_areas(
                               space, a + b + gamma, root), table),
                           plane=plane, plane_apex=plane_apex)


def ambient_cone_density(space: SpaceForm, apex: np.ndarray,
                         graph: EmbeddedGraph) -> float:
    """Apex density of the ambient cone: total length of the spherical image
    s -> (unit initial direction of the geodesic apex -> curve point) on the
    unit tangent sphere at the apex, divided by 2 pi.  Computed as the sum of
    the angles between consecutive image directions, which are the
    _apex_angles that develop_cone accumulates, so it equals hat_density
    bit for bit."""
    table, _, a, b = _triangles(space, apex, graph, APEX_CLEARANCE)
    n = table.nfine
    a, b, gamma = a[:n], b[:n], table.gamma[:n]
    return _cone_density(_apex_angles(space, a, b, gamma,
                                      _gram_root(space, a, b, gamma)))


def _cone_density(angles: np.ndarray) -> float:
    """The apex density: all fine chords' apex angles, summed over 2 pi."""
    return float(angles.sum()) / (2.0 * math.pi)


def _half_sq_chords(space: SpaceForm, a: np.ndarray,
                    b: np.ndarray) -> np.ndarray:
    """Half the squared ambient chord between points: d^2/2 flat,
    (1 - cos bd)/b^2 on the sphere, (cosh kd - 1)/k^2 on the hyperboloid."""
    w = a - b
    out = space.mdot(w, w)
    out *= 0.5
    return out


def _gram_root(space: SpaceForm, alpha: np.ndarray, beta: np.ndarray,
               gamma: np.ndarray) -> np.ndarray:
    """sqrt(g) for geodesic triangles given by half squared chords: alpha
    and beta from the apex to the other two corners, gamma between those,
    arrays of one shape (or scalars, which give a 0-d array).  g is the
    corners' Gram determinant, 1 + 2xyz - x^2 - y^2 - z^2 over their
    unit-scaled products, divided by k^2 and arranged so that thin
    triangles keep their digits.  It also equals |w1|^2 |w2|^2 - (w1.w2)^2
    for the chords w1, w2 from the apex projected onto its tangent space.

    The Gram kernels are in-place chains: each quantity is allocated once
    and written over, in the order the expressions state.  Here that is
    (4 alpha) gamma, less t t with t = (beta - alpha) - gamma, less
    ((2K alpha) beta) gamma, computed in every model: flat it is +0 on the
    nonnegative half squared chords, and subtracting +0 changes no bit."""
    g = np.asarray(4.0 * alpha)  # 0-d for scalars, so it can be written
    g *= gamma
    t = beta - alpha
    t -= gamma
    t *= t
    g -= t
    t = 2.0 * space.sectional_curvature * alpha
    t *= beta
    t *= gamma
    g -= t
    np.maximum(g, 0.0, out=g)
    return np.sqrt(g, out=g)


def _root_areas(space: SpaceForm, total: np.ndarray,
                root: np.ndarray) -> np.ndarray:
    """Areas of the geodesic triangles of _gram_root, from their root and
    the sums alpha + beta + gamma of their half squared chords, added in
    that order: root/2 flat, else (2/|K|) atan2(|K| root, 4 - K total),
    with 4 - K total taken as (-K total) + 4, the same bits.  The root is
    read, not written."""
    k = space.sectional_curvature
    if k == 0.0:
        return 0.5 * root
    out = np.asarray(abs(k) * root)
    den = total * -k
    den += 4.0
    np.arctan2(out, den, out=out)
    out *= 2.0 / abs(k)
    return out


def _apex_angles(space: SpaceForm, alpha: np.ndarray, beta: np.ndarray,
                 gamma: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Apex angles of the geodesic triangles of _gram_root, from their
    root, by the model's law of cosines: alpha + beta - gamma - K alpha
    beta is w1.w2, the dot product at the apex of the projected chords, and
    the root is |w1| |w2| times the sine of their angle, so atan2 keeps its
    digits for thin triangles.  The K term is computed in every model, as
    in _gram_root.  The root is read, not written."""
    dot = np.asarray(alpha + beta)  # 0-d for scalars, so it can be written
    dot -= gamma
    t = space.sectional_curvature * alpha
    t *= beta
    dot -= t
    return np.arctan2(root, dot, out=dot)


@dataclass(eq=False)
class _ChordTable:
    """The part of the cone quantities over a graph that does not depend on
    the apex, over the graph's stacked samples.  The triangles stand on
    every edge's fine chords, nfine in all, edge e's starting at chord
    graph.offsets[e] - e, then on every edge's coarse chords; chord i joins
    the stacked rows tail[i] and head[i], with half squared chord gamma[i].
    weight[i] is the factor of triangle i in the Richardson sum: for a
    coarse chord spanning j fine chords, 1 + 1/(j^2 - 1) on each of those
    fine chords and -1/(j^2 - 1) on the coarse chord.  columns holds
    graph.samples in column-major order: the chords from an apex to it
    take the same values, but numpy's loops then run down each coordinate
    column, not across the three or four coordinates of each sample.  The
    arrays are read-only, as the graph's layout is, so a kernel that wrote
    one would raise rather than change the cached table for every later
    apex."""

    tail: np.ndarray
    head: np.ndarray
    gamma: np.ndarray
    nfine: int
    weight: np.ndarray
    columns: np.ndarray


def _chord_table(graph: EmbeddedGraph) -> _ChordTable:
    """The graph's _ChordTable, built on first use and cached on the graph.
    An edge of n chords has n // 2 coarse chords, each spanning j = 2 of
    its fine chords, or j = 3 for the last one when n is odd."""
    def build():
        f = graph.offsets - np.arange(len(graph.offsets))  # first fine chords
        lo = np.concatenate([np.arange(a, b - 1, 2) for a, b in zip(f, f[1:])])
        hi = np.append(lo[1:], f[-1])
        edge = np.repeat(np.arange(len(f) - 1), np.diff(f))  # per fine chord
        fine = np.arange(f[-1]) + edge  # the sample each fine chord leaves
        tail = np.concatenate([fine, lo + edge[lo]])
        head = np.concatenate([fine + 1, hi + edge[lo]])
        step = 1.0 / ((hi - lo) ** 2 - 1)
        samples = graph.samples
        table = _ChordTable(
            tail=tail, head=head,
            gamma=_half_sq_chords(graph.space, samples[tail], samples[head]),
            nfine=int(f[-1]),
            weight=np.concatenate([1.0 + np.repeat(step, hi - lo), -step]),
            columns=np.asfortranarray(samples))
        for a in (table.tail, table.head, table.gamma, table.weight,
                  table.columns):
            a.flags.writeable = False
        return table

    return graph.cached("chord_table", build)


def _triangles(space: SpaceForm, apex: np.ndarray, graph: EmbeddedGraph,
               clearance: float):
    """The graph's _ChordTable and the half squared chords from the apex:
    alpha to its samples, and a and b to the tails and heads of its
    chords.  The apex must pass check_apex at `clearance`."""
    table = _chord_table(graph)
    alpha = check_apex(space, apex, table.columns, clearance)
    return table, alpha, alpha[table.tail], alpha[table.head]


def _richardson_sum(areas: np.ndarray, table: _ChordTable) -> float:
    """The cone area from the areas of the triangles on the table's fine
    chords followed by its coarse chords: their sum weighted by
    table.weight, taken by np.sum in table order.  A triangle misses the
    cone over its arc by c H^3 to leading order for a chord of length H,
    so adding (fine - coarse) / (j^2 - 1) per coarse chord, a Richardson
    step, cancels that term; the weights are that step, expanded.
    Straight edges stay exact.  The fresh `areas` are weighted in place."""
    areas *= table.weight
    return float(areas.sum())


def ambient_cone_area(space: SpaceForm, apex: np.ndarray,
                      graph: EmbeddedGraph,
                      clearance: float = APEX_CLEARANCE) -> float:
    """Area (with multiplicity) of the ruled cone surface.  Over each
    geodesic chord of an edge the cone is a geodesic triangle with a closed
    form; _richardson_sum sums them with one Richardson step.  The apex
    must pass check_apex at `clearance`, on the same half squared chords that
    feed the triangles."""
    table, _, a, b = _triangles(space, apex, graph, clearance)
    gamma = table.gamma
    return _richardson_sum(_root_areas(space, a + b + gamma,
                                       _gram_root(space, a, b, gamma)), table)


def cone_area_gradient(space: SpaceForm, apex: np.ndarray,
                       graph: EmbeddedGraph,
                       clearance: float = APEX_CLEARANCE
                       ) -> tuple[float, np.ndarray]:
    """ambient_cone_area, bit for bit, and its ambient apex gradient

        G = -sum_i c_i (x_i - apex),   c_i = dArea/dalpha_i,

    since alpha_i = <x_i - p, x_i - p>/2 under the ambient form.  Then
    dArea = <G, dp> (space.mdot) for every tangent dp at the apex, so the
    Riemannian gradient is space.tangent_project(apex, G); the part of G
    normal to the model carries no meaning, and it grows large near a
    fold.  A triangle's area is (2/|K|) atan2(|K| s, D), or s/2 flat, with
    s = sqrt(g) its _gram_root and D = 4 - K (alpha + beta + gamma); both give

        dA/dalpha = (D g_alpha + 2 K g) / (s (K^2 g + D^2)),
        g_alpha = 2 (beta + gamma - alpha) - 2 K beta gamma,

    and likewise in beta.  Where g <= 0 the apex lies on the chord's
    geodesic (a fold of the cone) and the partials of s are infinite; that
    triangle's partials are set to 0 there.  c_i sums the Richardson-weighted
    partials of the triangles with corner x_i, on fine and coarse chords.
    The apex must pass check_apex at `clearance`."""
    apex = np.asarray(apex, float)
    table, alpha, a, b = _triangles(space, apex, graph, clearance)
    gamma = table.gamma
    k = space.sectional_curvature
    total = a + b + gamma
    root = _gram_root(space, a, b, gamma)
    d = 4.0 - k * total
    g = root * root
    fold = root == 0.0
    scale = table.weight / np.where(fold, 1.0, root * (k * k * g + d * d))
    scale[fold] = 0.0
    kg = 2.0 * k * g
    c_tail = scale * (d * (2.0 * (b + gamma - a) - 2.0 * k * b * gamma) + kg)
    c_head = scale * (d * (2.0 * (a + gamma - b) - 2.0 * k * a * gamma) + kg)
    c = np.bincount(table.tail, c_tail, minlength=len(alpha)) \
        + np.bincount(table.head, c_head, minlength=len(alpha))
    return (_richardson_sum(_root_areas(space, total, root), table),
            -c @ (graph.samples - apex))


def gauss_bonnet_residual(space: SpaceForm, apex: np.ndarray,
                          graph: EmbeddedGraph,
                          dev: ConeDevelopment | None = None) -> float:
    """Absolute defect of the developed cone's angle balance,

        2 pi Theta_hat - K Area_hat + sum_edges int khat.nu ds
            - sum_vertices sum_ends (pi/2 - angle(T_end, toward apex)),

    with K the model's sectional curvature.  Zero in exact arithmetic; the
    numerical value shrinks at second order under sample refinement.  A
    given `dev` must be develop_cone's for this apex and graph (same apex,
    edge ids and parameters), or ValidationError.  Each edge adds its
    integral of one _num.edge_trapezoids pass over graph.s, which is
    np.trapezoid bit for bit; each edge-end's angle of the star_table is
    taken in one pass.  Both terms are added in graph order."""
    apex = np.asarray(apex, float)
    if dev is None:
        dev = develop_cone(space, apex, graph)
    else:
        _check_development(apex, graph, dev)
    k_ambient = space.sectional_curvature
    total = 2.0 * math.pi * dev.hat_density - k_ambient * dev.hat_area
    y = np.nan_to_num(np.concatenate([ed.khat_nu for ed in dev.per_edge]))
    for term in _num.edge_trapezoids(y, graph.s, graph.offsets).tolist():
        total += term
    stars = star_table(graph)
    angles = space.angle_between(stars.vec, space.log(stars.base, apex))
    for ang in angles.tolist():
        total -= math.pi / 2.0 - ang
    return abs(total)


def _check_development(apex: np.ndarray, graph: EmbeddedGraph,
                       dev: ConeDevelopment) -> None:
    """ValidationError unless dev develops the cone from this apex over
    this graph's edges."""
    if not np.array_equal(dev.apex, apex):
        raise ValidationError("the development was made at another apex")
    if [ed.edge_id for ed in dev.per_edge] != [e.id for e in graph.edges] or not \
            np.array_equal(np.concatenate([ed.s for ed in dev.per_edge]), graph.s):
        raise ValidationError("the development was made over another graph")
