"""Shared generators for randomized test instances: smooth random graphs,
generic apices, random ambient isometries, and plain triangle sums of cone
areas that serve as independent references."""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from soapcert import (Model, SpaceForm, check_apex, edge_unit_tangents,
                      karcher_center)
from soapcert.cone import _half_sq_chords, _triangle_areas, developed_points
from soapcert.graph import EmbeddedGraph, Vertex, make_edge, validate_graph

SPACES = {
    "flat": SpaceForm(Model.FLAT, 3),
    "hyperbolic": SpaceForm(Model.HYPERBOLIC, 3, 0.9),
    "spherical": SpaceForm(Model.SPHERICAL, 3, 0.7),
}

# keeps spherical instances well inside the pi/b diameter bound
MODEL_SCALE = {"flat": 1.0, "hyperbolic": 1.0, "spherical": 0.45}


def smooth_edge(space, a, b, rng, frac=0.10, n=256):
    """Edge from a to b: the straight path in midpoint tangent coordinates
    plus one transverse sine bump of relative amplitude ~frac."""
    mid = space.geodesic_point(a, b, 0.5)
    basis = space.tangent_basis(mid)
    ca = space.mdot(basis, space.log(mid, a))
    cb = space.mdot(basis, space.log(mid, b))
    length = np.linalg.norm(cb - ca)
    direction = (cb - ca) / length
    w = rng.standard_normal(space.dim)
    w -= (w @ direction) * direction
    w /= np.linalg.norm(w)
    t = np.linspace(0.0, 1.0, n + 1)
    amp = frac * length * rng.uniform(0.3, 1.0)
    coords = ca[None, :] + t[:, None] * (cb - ca)[None, :] \
        + (amp * np.sin(math.pi * t))[:, None] * w[None, :]
    pts = space.exp(np.broadcast_to(mid, (len(t), len(mid))), coords @ basis)
    pts[0] = a
    pts[-1] = b
    return pts


def random_graph(space, rng, n_vertices=3, n_extra=1, samples_per_edge=256,
                 ball=None, frac=0.10):
    """Connected random graph: a vertex cycle plus extra chords, every edge a
    smooth bump curve.  Vertices are kept pairwise separated so edge
    curvatures stay moderate."""
    if ball is None:
        ball = 0.8 * MODEL_SCALE[space.model.value]
    base = space.base_point()
    basis = space.tangent_basis(base)
    while True:
        pts = []
        for _ in range(n_vertices):
            z = rng.standard_normal(space.dim)
            z *= rng.uniform(0.5, 1.0) * ball / np.linalg.norm(z)
            pts.append(space.exp(base, z @ basis))
        dmin = min(float(space.dist(pts[i], pts[j]))
                   for i in range(n_vertices) for j in range(i + 1, n_vertices))
        if dmin > 0.7 * ball:
            break
    order = rng.permutation(n_vertices)
    pairs = [(int(order[i]), int(order[(i + 1) % n_vertices]))
             for i in range(n_vertices)]
    for _ in range(n_extra):
        i, j = rng.choice(n_vertices, size=2, replace=False)
        pairs.append((int(i), int(j)))
    vertices = [Vertex(id=f"v{i}", point=pts[i]) for i in range(n_vertices)]
    edges = [make_edge(space, f"e{k}", (f"v{i}", f"v{j}"),
                       smooth_edge(space, pts[i], pts[j], rng, frac,
                                   samples_per_edge))
             for k, (i, j) in enumerate(pairs)]
    return validate_graph(EmbeddedGraph(space=space, vertices=vertices,
                                        edges=edges))


def radial_speed(space, apex, edge):
    """dr/ds along an edge: the unit direction away from the apex dotted
    with the unit curve tangent."""
    u = space.tangent_project(edge.samples, edge.samples - apex)
    u = u / space.norm(u)[:, None]
    return space.mdot(u, edge_unit_tangents(space, edge))


def generic_apex(space, graph, rng, min_clear=None, max_rprime=0.8,
                 tries=400):
    """Apex clear of the graph with no near-radial tangencies; None when no
    such apex is found within the allotted tries."""
    if min_clear is None:
        min_clear = 0.25 * MODEL_SCALE[space.model.value]
    samples = graph.all_samples()
    center = karcher_center(space, samples)
    basis = space.tangent_basis(center)
    radius = float(np.max(space.dist(center, samples)))
    for _ in range(tries):
        z = rng.standard_normal(space.dim)
        z *= rng.uniform(0.2, 1.1) * radius / np.linalg.norm(z)
        apex = space.exp(center, z @ basis)
        r = space.dist(apex, samples)
        if np.min(r) < min_clear:
            continue
        if space.model is Model.SPHERICAL \
                and np.max(r) >= space.max_radius - 0.05:
            continue
        if all(np.max(np.abs(radial_speed(space, apex, e))) <= max_rprime
               for e in graph.edges):
            return apex
    return None


def random_instance(space, rng, **kwargs):
    """(graph, apex) pair, retrying until a generic apex exists."""
    while True:
        graph = random_graph(space, rng, **kwargs)
        apex = generic_apex(space, graph, rng)
        if apex is not None:
            return graph, apex


def random_isometry(space, rng):
    """A random ambient isometry as a point-mapping callable."""
    d = space.embedding_dim
    if space.model is Model.FLAT:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        shift = rng.standard_normal(d) * 0.5
        return lambda x: x @ q.T + shift
    if space.model is Model.SPHERICAL:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return lambda x: x @ q.T
    # hyperbolic: exponential of a Minkowski-antisymmetric generator
    gen = np.zeros((d, d))
    boost = rng.standard_normal(d - 1) * 0.4
    spin = rng.standard_normal((d - 1, d - 1))
    spin = spin - spin.T
    gen[0, 1:] = boost
    gen[1:, 0] = boost
    gen[1:, 1:] = 0.5 * spin
    lorentz = expm(gen)
    return lambda x: x @ lorentz.T


def transform_graph(graph, mapping):
    space = graph.space
    vertices = [Vertex(id=v.id, point=space.project_point(mapping(v.point)))
                for v in graph.vertices]
    edges = []
    for e in graph.edges:
        samples = space.project_point(mapping(e.samples))
        for end, idx in ((0, 0), (1, -1)):
            vid = e.endpoints[end]
            samples[idx] = next(v.point for v in vertices if v.id == vid)
        edges.append(make_edge(space, e.id, e.endpoints, samples))
    return validate_graph(EmbeddedGraph(space=space, vertices=vertices,
                                        edges=edges))


def wide_spherical_triangle(space, polar_angle, samples_per_edge=64):
    """Geodesic triangle whose three corners sit at the given polar angle
    from the base point, 120 degrees apart in longitude.  Its hull-ball
    radius is about polar_angle while pairwise distances stay below pi/b,
    so large angles stress the diameter bound without violating it."""
    assert space.model is Model.SPHERICAL
    base = space.base_point()
    basis = space.tangent_basis(base)
    corners = []
    for k in range(3):
        phi = 2.0 * math.pi * k / 3.0
        v = math.cos(phi) * basis[0] + math.sin(phi) * basis[1]
        corners.append(space.exp(base, polar_angle / space.curv * v))
    lam = np.linspace(0.0, 1.0, samples_per_edge + 1)
    vertices = [Vertex(id=f"v{k}", point=corners[k]) for k in range(3)]
    edges = []
    for k in range(3):
        a, b = corners[k], corners[(k + 1) % 3]
        pts = space.geodesic_point(np.broadcast_to(a, (len(lam), len(a))),
                                   np.broadcast_to(b, (len(lam), len(b))), lam)
        pts[0], pts[-1] = a, b
        edges.append(make_edge(space, f"e{k}", (f"v{k}", f"v{(k + 1) % 3}"),
                               pts))
    return validate_graph(EmbeddedGraph(space=space, vertices=vertices,
                                        edges=edges))


def spherical_cone_circle(space, rho, beta, n=2048):
    """Circle at constant distance rho from the base point whose initial
    directions sweep a cone of half-angle beta; its development about the
    base point has density sin(beta)."""
    assert space.model is Model.SPHERICAL and space.dim >= 3
    base = space.base_point()
    basis = space.tangent_basis(base)
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    dirs = math.cos(beta) * basis[0][None, :] \
        + math.sin(beta) * (np.cos(t)[:, None] * basis[1][None, :]
                            + np.sin(t)[:, None] * basis[2][None, :])
    pts = space.exp(np.broadcast_to(base, (n, len(base))), rho * dirs)
    pts = np.concatenate([pts, pts[:1]], axis=0)
    vertices = [Vertex(id="v0", point=pts[0])]
    edges = [make_edge(space, "rim", ("v0", "v0"), pts)]
    return validate_graph(EmbeddedGraph(space=space, vertices=vertices,
                                        edges=edges))


def wedge_graph(space, t1, t2, leg=0.7, samples_per_edge=64):
    """Triangle with a prescribed corner at the base point: two geodesic
    legs leaving along unit tangent coordinates t1, t2, closed by a third
    geodesic edge.  The corner's inward tangents are t1 and t2."""
    base = space.base_point()
    basis = space.tangent_basis(base)
    a = space.exp(base, leg * np.asarray(t1) @ basis)
    b = space.exp(base, leg * np.asarray(t2) @ basis)
    lam = np.linspace(0.0, 1.0, samples_per_edge + 1)

    def geod(p, q):
        pts = space.geodesic_point(np.broadcast_to(p, (len(lam), len(p))),
                                   np.broadcast_to(q, (len(lam), len(q))), lam)
        pts[0] = p
        pts[-1] = q
        return pts

    vertices = [Vertex(id="q", point=base), Vertex(id="a", point=a),
                Vertex(id="b", point=b)]
    edges = [make_edge(space, "leg1", ("q", "a"), geod(base, a)),
             make_edge(space, "leg2", ("q", "b"), geod(base, b)),
             make_edge(space, "far", ("a", "b"), geod(a, b))]
    return validate_graph(EmbeddedGraph(space=space, vertices=vertices,
                                        edges=edges))


def figure_eight_graph(space, samples_per_edge=32):
    """Two geodesic triangles through one valence-4 vertex q at the base
    point: wedge_graph's triangle with legs 60 degrees apart, and its point
    reflection through q (x -> -x flat, the spatial coordinates negated on
    the hyperboloid and the sphere).  The symmetry puts the intrinsic mean
    of the samples, which is the hull center and the first apex of the hull
    grid, on the vertex q up to rounding."""
    t1 = np.zeros(space.dim)
    t1[0] = 1.0
    t2 = np.zeros(space.dim)
    t2[0] = 0.5
    t2[1] = 0.5 * math.sqrt(3.0)
    half = wedge_graph(space, t1, t2,
                       leg=0.5 if space.model is Model.SPHERICAL else 0.7,
                       samples_per_edge=samples_per_edge)
    flip = -np.ones(space.embedding_dim)
    if space.model is not Model.FLAT:
        flip[0] = 1.0

    def mirror(vid):
        return vid if vid == "q" else vid + "'"

    vertices = half.vertices + [Vertex(id=mirror(v.id), point=v.point * flip)
                                for v in half.vertices if v.id != "q"]
    edges = half.edges + [
        make_edge(space, e.id + "'", tuple(mirror(v) for v in e.endpoints),
                  e.samples * flip)
        for e in half.edges]
    return validate_graph(EmbeddedGraph(space=space, vertices=vertices,
                                        edges=edges))


def plain_cone_area(space, apex, graph):
    """Cone area as the plain sum of the geodesic triangles (apex, x_i,
    x_{i+1}) over consecutive samples, without a Richardson step: the exact
    area of the cone over the stored polylines."""
    total = 0.0
    for e in graph.edges:
        alpha = _half_sq_chords(space, e.samples, apex)
        gamma = _half_sq_chords(space, e.samples[:-1], e.samples[1:])
        total += float(np.sum(_triangle_areas(space, alpha[:-1], alpha[1:],
                                              gamma)))
    return total


def projected_cone_density(space, apex, graph):
    """Apex density of the cone from the chords to the samples projected
    onto the tangent space at the apex: the arccos of consecutive unit
    projected chords, summed over the edges and divided by 2 pi.  An
    oracle independent of the Gram kernel."""
    apex = np.asarray(apex, float)
    total = 0.0
    for edge in graph.edges:
        check_apex(space, apex, edge.samples)
        w = space.tangent_project(apex, edge.samples - apex)
        w = w / space.norm(w)[:, None]
        c = np.clip(space.mdot(w[:-1], w[1:]), -1.0, 1.0)
        total += float(np.sum(np.arccos(c)))
    return total / (2.0 * math.pi)


def developed_plain_area(dev):
    """The plain triangle sum of plain_cone_area over a development, from
    the coordinates of its points in the model plane and the plane's base
    point o.  With c the cross product of the spatial coordinates of two
    consecutive points, a triangle has area |c| / 2 when flat; in curvature
    K != 0 it has area A with tan(|K| A / 2) = |K| |c| / (1 + C), C the sum
    of the cosines (sphere) or hyperbolic cosines of the three sides, which
    is K times the sum of the corners' pairwise bilinear forms."""
    plane = dev.plane
    total = 0.0
    for ed in dev.per_edge:
        pts = developed_points(plane, ed.r, ed.theta)
        a, b = pts[:-1], pts[1:]
        cross = np.abs(a[:, -2] * b[:, -1] - a[:, -1] * b[:, -2])
        if plane.model is Model.FLAT:
            total += 0.5 * float(np.sum(cross))
            continue
        k = plane.sectional_curvature
        o = np.broadcast_to(dev.plane_apex, a.shape)
        side_cosines = k * (plane.mdot(o, a) + plane.mdot(a, b)
                            + plane.mdot(b, o))
        total += 2.0 / abs(k) * float(np.sum(np.arctan2(abs(k) * cross,
                                                        1.0 + side_cosines)))
    return total


# Inward tangents of four_leg_star_graph's valence-4 vertex: two near-pairs
# on which the vertex ascent needs about 3,100 iterations to stop.
FOUR_LEG_TANGENTS = (
    (-0.8888, -0.396, 0.2306),
    (-0.3594, -0.2149, -0.9081),
    (-0.8083, -0.3716, 0.4567),
    (-0.3936, -0.3423, -0.8532),
)


def four_leg_star_graph(chords=16):
    """Flat graph with one valence-4 vertex q at the origin: straight legs
    to 0.5 T_k for the normalized FOUR_LEG_TANGENTS, their far ends joined
    in a straight cycle, every edge `chords` chords long."""
    space = SpaceForm(Model.FLAT, 3)
    tangents = np.array(FOUR_LEG_TANGENTS)
    tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
    q = np.zeros(3)
    ends = 0.5 * tangents
    lam = np.linspace(0.0, 1.0, chords + 1)[:, None]

    def segment(p, r):
        return p + lam * (r - p)

    vertices = [Vertex(id="q", point=q)] + \
        [Vertex(id=f"a{k}", point=ends[k]) for k in range(4)]
    edges = [make_edge(space, f"leg{k}", ("q", f"a{k}"), segment(q, ends[k]))
             for k in range(4)]
    edges += [make_edge(space, f"rim{k}", (f"a{k}", f"a{(k + 1) % 4}"),
                        segment(ends[k], ends[(k + 1) % 4]))
              for k in range(4)]
    return validate_graph(EmbeddedGraph(space=space, vertices=vertices,
                                        edges=edges))
