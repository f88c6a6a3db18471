"""Shared generators for randomized test instances: smooth random graphs,
generic apices, random ambient isometries, and plain triangle sums of cone
areas that serve as independent references.  It also keeps loop-by-loop
forms of the first-derivative stencil, of the angle-balance vertex term,
of the vertex ascent, of the tangent basis, of validation's edge-end
and valence checks and of the loader, as oracles for their array and
closed forms, and the vertex stars and TC's edge terms built edge by
edge.  The Gram kernels of the cone module and the Karcher iteration are
kept in the expression forms they had before they became in-place chains,
as bitwise oracles."""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from soapcert import (IterationError, Model, SpaceForm, TangentVector,
                      ValidationError, check_apex, develop_cone,
                      karcher_center, resample_arclength, shapes, vertex_star)
from soapcert import curvature
from soapcert._num import (apply_stencil, extend_interior,
                           first_derivative_stencil)
from soapcert.certify import KARCHER_MAX_ITER, KARCHER_TOL
from soapcert.cone import (_apex_angles, _chord_table, _gram_root,
                           _half_sq_chords, _root_areas, developed_points)
from soapcert.graph import (ENDPOINT_TOL, MIN_EDGE_SAMPLES, EdgeCurve,
                            EmbeddedGraph, Vertex, _block_id, _entry,
                            make_edge, stacked_unit_tangents, validate_graph)

SPACES = {
    "flat": SpaceForm(Model.FLAT, 3),
    "hyperbolic": SpaceForm(Model.HYPERBOLIC, 3, 0.9),
    "spherical": SpaceForm(Model.SPHERICAL, 3, 0.7),
}

# keeps spherical instances well inside the pi/b diameter bound
MODEL_SCALE = {"flat": 1.0, "hyperbolic": 1.0, "spherical": 0.45}


def arclength_params(space, samples):
    """Cumulative geodesic chord lengths of the samples, for edges built by
    hand past the loader's chord rule, degenerate ones included."""
    return np.concatenate(([0.0], np.cumsum(space.dist(samples[:-1],
                                                       samples[1:]))))


def scaled_document(doc, factor):
    """A flat graph document with every coordinate multiplied by factor."""
    return dict(doc, vertices=[dict(v, coords=[factor * c for c in v["coords"]])
                               for v in doc["vertices"]],
                edges=[dict(e, samples=[[factor * c for c in p]
                                        for p in e["samples"]])
                       for e in doc["edges"]])


def smooth_edge(space, a, b, rng, frac=0.10, n=256, skew=0.0):
    """Edge from a to b: the straight path in midpoint tangent coordinates
    plus one transverse sine bump of relative amplitude ~frac.  A nonzero
    skew adds skew times that amplitude of the second sine harmonic, which
    takes away the bump's mirror symmetry about the midpoint."""
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
    if skew:
        coords += (skew * amp * np.sin(2.0 * math.pi * t))[:, None] * w[None, :]
    pts = space.exp(np.broadcast_to(mid, (len(t), len(mid))), coords @ basis)
    pts[0] = a
    pts[-1] = b
    return pts


def random_graph(space, rng, n_vertices=3, n_extra=1, samples_per_edge=256,
                 ball=None, frac=0.10, skew=0.0):
    """Connected random graph: a vertex cycle plus extra chords, every edge a
    smooth bump curve (smooth_edge, with its skew).  Vertices are kept
    pairwise separated so edge curvatures stay moderate."""
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
                                   samples_per_edge, skew))
             for k, (i, j) in enumerate(pairs)]
    return validate_graph(EmbeddedGraph(space=space, vertices=vertices,
                                        edges=edges))


def radial_speed(space, apex, x, t):
    """dr/ds along a curve sampled at x with unit tangents t: the unit
    direction away from the apex dotted with t.  A stack of apices of
    shape (m, 1, d) gives one row per apex."""
    u = space.tangent_project(x, x - apex)
    u = u / space.norm(u)[..., None]
    return space.mdot(u, t)


# Tries of generic_apex judged together.  Half of criterion 4's instances
# accept within about 25 tries; batches of 16 and 32 judged more tries
# than they saved in per-call overhead.
APEX_BATCH = 8


def _generic_tries(space, graph, center, steps, min_clear, max_rprime):
    """The apices exp(center, step) of a stack of tries, and whether each
    is generic: clear of the graph by min_clear, spherical ones away from
    the conjugate radius, and no radial speed above max_rprime.  Each row
    takes the bits it takes on its own."""
    apices = space.exp(center, steps)
    r = space.dist(apices[:, None], graph.samples)
    ok = ~(np.min(r, axis=1) < min_clear)
    if space.model is Model.SPHERICAL:
        ok &= ~(np.max(r, axis=1) >= space.max_radius - 0.05)
    t = stacked_unit_tangents(graph)
    bounds = graph.offsets.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        rows = np.flatnonzero(ok)
        speed = radial_speed(space, apices[rows, None], graph.samples[lo:hi],
                             t[lo:hi])
        ok[rows] = np.max(np.abs(speed), axis=1) <= max_rprime
    return apices, ok


def generic_apex(space, graph, rng, min_clear=None, max_rprime=0.8,
                 tries=400):
    """Apex clear of the graph with no near-radial tangencies; None when no
    such apex is found within the allotted tries.  The tries are drawn one
    by one, each with its own step product, and judged APEX_BATCH at a
    time.  rng is left where judging them one by one leaves it: a batch
    with an accepted try is drawn again from its saved state up to that
    try."""
    if min_clear is None:
        min_clear = 0.25 * MODEL_SCALE[space.model.value]
    samples = graph.samples
    center = karcher_center(space, samples)
    basis = space.tangent_basis(center)
    radius = float(np.max(space.dist(center, samples)))

    def step():
        z = rng.standard_normal(space.dim)
        z *= rng.uniform(0.2, 1.1) * radius / np.linalg.norm(z)
        return z @ basis

    for start in range(0, tries, APEX_BATCH):
        state = rng.bit_generator.state
        steps = [step() for _ in range(min(APEX_BATCH, tries - start))]
        apices, ok = _generic_tries(space, graph, center, np.array(steps),
                                    min_clear, max_rprime)
        hit = np.flatnonzero(ok)
        if hit.size:
            rng.bit_generator.state = state
            for _ in range(hit[0] + 1):
                step()
            return apices[hit[0]].copy()
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


def mixed_chord_polygon(space):
    """A quadrilateral with unequal sides, resampled so that its edges have
    both odd and even chord counts (41/48/47/38 chords flat)."""
    corners = np.array([[0.35, -0.1, 0.0], [0.1, 0.4, 0.05],
                        [-0.45, 0.05, 0.1], [-0.05, -0.4, -0.1]])
    g = resample_arclength(shapes.polygon_graph(space, corners,
                                                samples_per_edge=9), 0.0137)
    assert {len(e.samples) % 2 for e in g.edges} == {0, 1}
    return g


def carried_graph(graph, space, scale=0.5):
    """A flat 3-space graph carried into `space`: every point x goes to
    exp_base(scale * x in the tangent basis at the base point), and edge
    ends are set to their vertices' images."""
    base = space.base_point()
    basis = space.tangent_basis(base)

    def carry(x):
        return space.exp(base, scale * np.asarray(x) @ basis)

    vertices = [Vertex(id=v.id, point=carry(v.point[None])[0])
                for v in graph.vertices]
    points = {v.id: v.point for v in vertices}
    edges = []
    for e in graph.edges:
        samples = carry(e.samples)
        samples[0], samples[-1] = points[e.endpoints[0]], points[e.endpoints[1]]
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


def gram_triangle_areas(space, alpha, beta, gamma):
    """The triangle areas as the program takes them: cone._root_areas on
    one cone._gram_root, with alpha + beta + gamma added in that order."""
    return _root_areas(space, alpha + beta + gamma,
                       _gram_root(space, alpha, beta, gamma))


def gram_apex_angles(space, alpha, beta, gamma):
    """The apex angles as the program takes them: cone._apex_angles on
    one cone._gram_root."""
    return _apex_angles(space, alpha, beta, gamma,
                        _gram_root(space, alpha, beta, gamma))


def plain_cone_area(space, apex, graph):
    """Cone area as the plain sum of the geodesic triangles (apex, x_i,
    x_{i+1}) over consecutive samples, without a Richardson step: the exact
    area of the cone over the stored polylines."""
    total = 0.0
    for e in graph.edges:
        alpha = _half_sq_chords(space, e.samples, apex)
        gamma = _half_sq_chords(space, e.samples[:-1], e.samples[1:])
        total += float(np.sum(gram_triangle_areas(space, alpha[:-1],
                                                  alpha[1:], gamma)))
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


def loop_first_derivative(s, x):
    """dX/ds from the sliding 5-node Lagrange window of
    _num.first_derivative_stencil, built weight by weight: for node j the
    slope at 0 of its basis polynomial, sum_{k != j} prod_{m != j, k} (-t_m)
    over prod_{m != j} (t_j - t_m), every product started at 1 and every sum
    at 0."""
    window = 5
    n = len(s)
    s = np.asarray(s, float)
    x = np.asarray(x, float)
    start = np.clip(np.arange(n) - window // 2, 0, n - window)
    t = s[start[:, None] + np.arange(window)[None, :]] - s[:, None]
    d = np.zeros_like(x)
    for j in range(window):
        denom = np.ones(n)
        for m in range(window):
            if m != j:
                denom *= t[:, j] - t[:, m]
        num = np.zeros(n)
        for k in range(window):
            if k == j:
                continue
            prod = np.ones(n)
            for m in range(window):
                if m != j and m != k:
                    prod *= -t[:, m]
            num += prod
        w = num / denom
        d += w.reshape(w.shape + (1,) * (x.ndim - 1)) * x[start + j]
    return d


def loop_gauss_bonnet_residual(space, apex, graph, dev=None):
    """gauss_bonnet_residual with its vertex term taken vertex by vertex:
    one log map per vertex and one angle per edge-end."""
    apex = np.asarray(apex, float)
    if dev is None:
        dev = develop_cone(space, apex, graph)
    total = 2.0 * math.pi * dev.hat_density \
        - space.sectional_curvature * dev.hat_area
    for ed in dev.per_edge:
        y = np.nan_to_num(ed.khat_nu, nan=0.0)
        total += float(np.trapezoid(y, ed.s))
    for vertex in graph.vertices:
        toward_apex = space.log(vertex.point, apex)
        for tv in vertex_star(graph, vertex.id):
            ang = float(space.angle_between(tv.vec, toward_apex))
            total -= math.pi / 2.0 - ang
    return abs(total)


def loop_validate_message(graph):
    """The message of validate_graph's first failing check among the edge
    count, the edge-ends and the valences, taken edge-end by edge-end and
    vertex by vertex, one space.dist per end; None when all of them pass."""
    if not graph.edges:
        return "a graph needs at least one closed arc"
    for e in graph.edges:
        for end in (0, 1):
            vid = e.endpoints[end]
            if vid not in [v.id for v in graph.vertices]:
                return f"edge {e.id!r} references unknown vertex {vid!r}"
            endpoint = e.samples[0] if end == 0 else e.samples[-1]
            gap = float(graph.space.dist(endpoint, graph.vertex_point(vid)))
            if gap > ENDPOINT_TOL:
                return (f"edge {e.id!r} end {end} misses vertex {vid!r} "
                        f"by {gap:.3g}")
    for v in graph.vertices:
        c = graph.valence(v.id)
        if c < 2:
            return (f"vertex {v.id!r} has valence {c} < 2; closed arcs must "
                    "meet in at least two edge-ends everywhere")
    return None


def padded_short_edge_document(gap=1.5e-12, n=200):
    """A flat graph document: edge 'short' of two samples from v0 = (0, 0,
    0) to v1 = (gap, 0, 0), and a loop of n samples on the circle of
    radius 1/2 from v1 back to v0.  The short edge's one chord passes the
    chord rule at the default gap, but padding it to MIN_EDGE_SAMPLES
    splits it into eight chords of gap/8, below 1e-12."""
    t = np.linspace(0.0, 2.0 * math.pi, n)
    loop = np.stack([0.5 * (1.0 - np.cos(t)), 0.5 * np.sin(t),
                     np.zeros(n)], axis=1).tolist()
    loop[0], loop[-1] = [gap, 0.0, 0.0], [0.0, 0.0, 0.0]
    return {"space": {"model": "flat", "dim": 3},
            "vertices": [{"id": "v0", "coords": [0.0, 0.0, 0.0]},
                         {"id": "v1", "coords": [gap, 0.0, 0.0]}],
            "edges": [{"id": "short", "endpoints": ["v0", "v1"],
                       "samples": [[0.0, 0.0, 0.0], [gap, 0.0, 0.0]]},
                      {"id": "loop", "endpoints": ["v1", "v0"],
                       "samples": loop}]}


def _holds_bool(coords):
    """Whether raw coordinates hold a boolean anywhere, which numpy reads
    as 0 or 1 among numbers."""
    if isinstance(coords, (bool, np.bool_)):
        return True
    return isinstance(coords, (list, tuple)) and any(map(_holds_bool, coords))


def _coordinate_fault(coords, ndim, d, what):
    """The error for coordinates that are no finite array of numbers of
    shape (d,) or (n, d), judged point by point."""
    try:
        items = list(coords) if ndim == 2 else [coords]
    except TypeError:
        items = [coords]
    for c in items:
        try:
            finite = not _holds_bool(c)
            c = np.asarray(c)
            finite &= c.dtype.kind in "fiu" and bool(np.all(np.isfinite(c)))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            return ValidationError(f"{what}: coordinates must be finite numbers")
    return ValidationError(f"{what}: expected {d} coordinates")


def _take_points(space, coords, ndim, what, tol):
    """One vertex's point (ndim 1) or one edge's samples (ndim 2), parsed,
    projected and tolerance-checked on their own."""
    d = space.embedding_dim
    try:
        x = np.array(coords)
    except (TypeError, ValueError):
        raise _coordinate_fault(coords, ndim, d, what) from None
    if (x.dtype.kind not in "fiu" or x.ndim != ndim or x.shape[-1] != d
            or not x.size or not np.all(np.isfinite(x)) or _holds_bool(coords)):
        raise _coordinate_fault(coords, ndim, d, what)
    x = x.astype(float)
    try:
        proj = space.project_point(x)
    except ValidationError as exc:
        raise ValidationError(f"{what}: {exc}") from None
    if not np.all(space.manifold_offset(x) <= tol):
        raise ValidationError(f"{what}: point is off the manifold "
                              f"beyond tolerance {tol:g}")
    return proj


def _judge_chords(eid, chords):
    """The chord rule, chord by chord: each is finite and at least 1e-12."""
    for chord in chords.tolist():
        if chord < 1e-12:
            raise ValidationError(f"edge {eid!r} has coincident "
                                  "consecutive samples")
        if not math.isfinite(chord):
            raise ValidationError(f"edge {eid!r} has a chord that is "
                                  "not finite")


def edge_by_edge_load(document):
    """load_graph as it was written block by block: each vertex, then each
    edge, is parsed, projected and tolerance-checked on its own; each edge
    end is snapped by its own space.dist, and each edge's chords are
    measured and summed on their own before the next block is read.  It
    rejects a repeated vertex id in its vertex loop, before any later
    block's coordinates are read."""
    if not isinstance(document, dict):
        raise ValidationError("graph document must be a mapping")
    try:
        space_block = document["space"]
        model = Model(str(space_block["model"]).lower())
        space = SpaceForm(model=model, dim=int(space_block["dim"]),
                          curv=float(space_block.get("curv", 0.0)))
        vertex_blocks = list(document["vertices"])
        edge_blocks = list(document["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed graph document: {exc}") from exc
    tol = float(document.get("tolerance", 1e-6))

    vertices, seen = [], set()
    for i, vb in enumerate(vertex_blocks):
        vid = _block_id(vb, f"vertex block {i}")
        if vid in seen:
            raise ValidationError(f"duplicate vertex id {vid!r}")
        seen.add(vid)
        what = f"vertex {vid!r}"
        vertices.append(Vertex(id=vid, point=_take_points(
            space, _entry(vb, "coords", what), 1, what, tol)))

    vpoints = {v.id: v.point for v in vertices}
    edges, seen = [], set()
    for i, eb in enumerate(edge_blocks):
        eid = _block_id(eb, f"edge block {i}")
        if eid in seen:
            raise ValidationError(f"duplicate edge id {eid!r}")
        seen.add(eid)
        what = f"edge {eid!r}"
        endpoints = _entry(eb, "endpoints", what)
        if not isinstance(endpoints, (list, tuple)) or len(endpoints) != 2 \
                or any(isinstance(v, (list, dict)) for v in endpoints):
            raise ValidationError(f"{what} needs a list of two endpoint ids")
        samples = _take_points(space, _entry(eb, "samples", what), 2,
                               f"{what} sample", tol)
        for end, idx in ((0, 0), (1, -1)):
            vid = endpoints[end]
            if vid in vpoints:
                gap = float(space.dist(samples[idx], vpoints[vid]))
                if gap <= ENDPOINT_TOL:
                    samples[idx] = vpoints[vid]
        if len(samples) < 2:
            raise ValidationError(f"edge {eid!r} needs at least two samples")
        with np.errstate(over="ignore", invalid="ignore"):
            chords = space.dist(samples[:-1], samples[1:])
        _judge_chords(eid, chords)
        full = samples
        while len(full) < MIN_EDGE_SAMPLES:
            merged = np.empty((2 * len(full) - 1, full.shape[1]))
            merged[0::2] = full
            merged[1::2] = space.geodesic_point(full[:-1], full[1:],
                                                np.full(len(full) - 1, 0.5))
            full = merged
        if len(full) > len(samples):
            chords = space.dist(full[:-1], full[1:])
            _judge_chords(eid, chords)  # the padded chords obey it too
        s = np.empty(len(full))
        s[0] = 0.0
        np.cumsum(chords, out=s[1:])
        edges.append(EdgeCurve(id=eid, endpoints=tuple(endpoints),
                               samples=full, s=s))
    return validate_graph(EmbeddedGraph(space=space, vertices=vertices,
                                        edges=edges))


def edge_own_tangents(space, edge):
    """The edge's unit tangents from a fresh build of its own
    _num.first_derivative_stencil: the stencil applied to its samples,
    projected to the tangent space and normalized."""
    x = edge.samples
    t = space.tangent_project(
        x, apply_stencil(first_derivative_stencil(edge.s), x))
    return t / space.norm(t)[:, None]


def edge_by_edge_tc(space, graph):
    """edge_total_curvature edge by edge: each edge, on fresh copies of its
    arrays, alone as a one-edge graph, and np.trapezoid of its own
    curvature magnitudes with the ends extended."""
    out = []
    for e in graph.edges:
        alone = EmbeddedGraph(space=space, vertices=[], edges=[EdgeCurve(
            id=e.id, endpoints=e.endpoints, samples=e.samples.copy(),
            s=e.s.copy())])
        kmag = space.norm(curvature.curvature_vectors(
            space, alone.samples, stacked_unit_tangents(alone), alone.s))
        out.append(np.trapezoid(extend_interior(kmag), alone.s))
    return np.array(out, dtype=float)


def edge_by_edge_star(graph, vertex_id):
    """vertex_star built edge-end by edge-end, without the star table: each
    incident edge's tangents by edge_own_tangents, the first one at a tail
    end and the last one negated at a head end."""
    ends = graph.edge_ends_at(vertex_id)
    if not ends:
        raise ValidationError(f"vertex {vertex_id!r} has no incident edges")
    q = graph.vertex_point(vertex_id)
    out = []
    for edge, end in ends:
        pair = edge.samples[:2] if end == 0 else edge.samples[-2:]
        if float(graph.space.dist(pair[0], pair[1])) < 1e-12:
            raise ValidationError(
                f"edge {edge.id!r} is degenerate at {vertex_id!r}")
        tangents = edge_own_tangents(graph.space, edge)
        vec = tangents[0] if end == 0 else -tangents[-1]
        out.append(TangentVector(base=q, vec=vec))
    return out


def star_ascent(space, graph, vertex_id):
    """vertex_tc's (tc, argmax direction) with the ascent run for this one
    star alone: the projected-gradient lockstep over its own starts, with
    every dot product taken afresh, until all its steps are below 1e-13."""
    q, basis, T = (a[0] for a in
                   curvature._star_coordinates(space, graph, [vertex_id]))
    k, n = T.shape
    if k == 2:
        angle = 2.0 * math.atan2(float(np.linalg.norm(T[0] - T[1])),
                                 float(np.linalg.norm(T[0] + T[1])))
        return math.pi - angle, T[0] @ basis
    starts = [T, -T]
    for i in range(k):
        for j in range(i + 1, k):
            v = T[i] + T[j]
            norm = np.linalg.norm(v)
            if norm > 1e-12:
                starts.append((v / norm)[None, :])
    starts.append(curvature._unit_grid(n, curvature.VERTEX_GRID_STARTS))
    starts = np.concatenate(starts, axis=0)

    def value(E):
        dots = np.clip(E @ T.T, -1.0, 1.0)
        return np.sum(math.pi / 2.0 - np.arccos(dots), axis=-1)

    def gradient(E):
        dots = np.clip(E @ T.T, -1.0 + 1e-9, 1.0 - 1e-9)
        coef = 1.0 / np.sqrt(1.0 - dots ** 2)
        return coef @ T

    E = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    g = value(E)
    step = np.full(len(E), 0.25)
    for _ in range(curvature.VERTEX_ASCENT_MAX_ITER):
        grad = gradient(E)
        grad = grad - np.sum(grad * E, axis=1, keepdims=True) * E
        cand = E + step[:, None] * grad
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        gc = value(cand)
        better = gc > g
        E[better] = cand[better]
        g[better] = gc[better]
        step[better] *= 1.4
        step[~better] *= 0.5
        if np.all(step < 1e-13):
            best = int(np.argmax(g))
            return float(g[best]), E[best] @ basis
    raise IterationError("vertex ascent reached VERTEX_ASCENT_MAX_ITER")


def gram_schmidt_basis(space, p):
    """SpaceForm.tangent_basis as it was first written, point by point: the
    ambient axes projected to the tangent space at p and orthonormalized
    in turn, twice against the rows before them, skipping those shorter
    than 1e-8.  Away from the base point its rows are a rotation of the
    closed form's; it is kept as a reference for the vertex terms."""
    p = np.asarray(p, float)
    d = space.embedding_dim
    if space.model is Model.FLAT:
        return np.broadcast_to(np.eye(d), p.shape[:-1] + (d, d)).copy()
    out = []
    for x in p.reshape(-1, d):
        basis = []
        for i in range(d):
            v = space.tangent_project(x, np.eye(d)[i])
            for _ in range(2):
                for b in basis:
                    v = v - space.mdot(v, b) * b
            n = space.norm(v)
            if n > 1e-8:
                basis.append(v / n)
            if len(basis) == space.dim:
                break
        assert len(basis) == space.dim
        out.append(np.stack(basis))
    return np.array(out).reshape(p.shape[:-1] + (space.dim, d))


def refuse_allocation(*args, **kwargs):
    """A stand-in for np.linspace where a resampling step must be refused
    before any array is sized by it."""
    raise AssertionError("an array was sized by a step that must be refused")


# ---------------------------------------------------------------------------
# expression forms of the Gram kernels and the two-pass Karcher iteration

def expression_gram_root(space, alpha, beta, gamma):
    """cone._gram_root as one expression."""
    g = 4.0 * alpha * gamma - (beta - alpha - gamma) ** 2 \
        - 2.0 * space.sectional_curvature * alpha * beta * gamma
    return np.sqrt(np.maximum(g, 0.0))


def expression_root_areas(space, total, root):
    """cone._root_areas as one expression."""
    k = space.sectional_curvature
    if k == 0.0:
        return 0.5 * root
    return 2.0 / abs(k) * np.arctan2(abs(k) * root, 4.0 - k * total)


def expression_triangle_areas(space, alpha, beta, gamma):
    """cone._root_areas on cone._gram_root, the triangle areas, as one
    expression."""
    return expression_root_areas(space, alpha + beta + gamma,
                                 expression_gram_root(space, alpha, beta, gamma))


def expression_apex_angles(space, alpha, beta, gamma):
    """cone._apex_angles on cone._gram_root as one expression."""
    return np.arctan2(expression_gram_root(space, alpha, beta, gamma),
                      alpha + beta - gamma
                      - space.sectional_curvature * alpha * beta)


def expression_richardson_sum(areas, table):
    """cone._richardson_sum with a weighted copy and np.sum."""
    return float(np.sum(areas * table.weight))


def expression_cone_area_gradient(space, apex, graph, clearance):
    """cone.cone_area_gradient with 2K g written in both partials."""
    apex = np.asarray(apex, float)
    table = _chord_table(graph)
    alpha = check_apex(space, apex, graph.samples, clearance)
    a, b, gamma = alpha[table.tail], alpha[table.head], table.gamma
    k = space.sectional_curvature
    total = a + b + gamma
    root = expression_gram_root(space, a, b, gamma)
    d = 4.0 - k * total
    g = root * root
    fold = root == 0.0
    scale = table.weight / np.where(fold, 1.0, root * (k * k * g + d * d))
    scale[fold] = 0.0
    c_tail = scale * (d * (2.0 * (b + gamma - a) - 2.0 * k * b * gamma)
                      + 2.0 * k * g)
    c_head = scale * (d * (2.0 * (a + gamma - b) - 2.0 * k * a * gamma)
                      + 2.0 * k * g)
    c = np.bincount(table.tail, c_tail, minlength=len(alpha)) \
        + np.bincount(table.head, c_head, minlength=len(alpha))
    return (expression_richardson_sum(
        expression_root_areas(space, total, root), table),
        -c @ (graph.samples - apex))


def two_pass_karcher_center(space, points):
    """certify.karcher_center as it measured each point twice per
    iteration: space.dist for the points away from the center, then
    space.log of those points, averaged by np.mean."""
    center = space.project_point(np.mean(points, axis=0))
    for _ in range(KARCHER_MAX_ITER):
        away = space.dist(center, points) > 1e-12
        if not np.any(away):
            return center
        v = np.mean(space.log(center, points[away]), axis=0) \
            * (np.sum(away) / len(points))
        step = float(space.norm(v))
        center = space.exp(center, v)
        if step < KARCHER_TOL:
            return center
    raise IterationError("intrinsic mean iteration did not converge")
