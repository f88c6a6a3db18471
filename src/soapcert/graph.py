"""Embedded graphs: data model, ingestion, resampling, and combinatorics.

A graph is a finite set of vertices (each of valence >= 2) joined by edges;
each edge is stored as a geodesic polyline on the model manifold with an
arclength parameter.  Instances are immutable after construction and all
operations here are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _num
from .errors import ValidationError
from .spaceform import ANTIPODAL_SLACK, Model, SpaceForm, TangentVector

MIN_EDGE_SAMPLES = 8

# Edge endpoints must land on their vertex point this closely (they are
# snapped to it exactly when they do).
ENDPOINT_TOL = 1e-8

# resample_arclength makes at most this many samples over a whole graph.
MAX_RESAMPLED_SAMPLES = 2 ** 20


@dataclass(eq=False)
class Vertex:
    id: object
    point: np.ndarray


@dataclass(eq=False)
class _Cached:
    """An object that is immutable after construction, so whatever is
    derived from it alone is built once and kept on it by cached."""

    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def cached(self, key: str, build):
        """The value of build() under key, built on the first call."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build()
            return value


@dataclass(eq=False)
class EdgeCurve(_Cached):
    """A sampled edge: points joined by model-space geodesics.

    ``s`` holds cumulative geodesic chord lengths, so consecutive chord
    lengths equal the parameter increments by construction.  Every edge
    has at least MIN_EDGE_SAMPLES samples, one parameter per sample; the
    stencils in ``_num`` rely on that.
    """

    id: object
    endpoints: tuple
    samples: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        if len(self.samples) < MIN_EDGE_SAMPLES:
            raise ValidationError(f"edge {self.id!r} has fewer than "
                                  f"{MIN_EDGE_SAMPLES} samples")
        if len(self.s) != len(self.samples):
            raise ValidationError(f"edge {self.id!r} needs one parameter "
                                  "per sample")

    @property
    def length(self) -> float:
        return float(self.s[-1])


@dataclass(eq=False)
class EmbeddedGraph(_Cached):
    """Vertices joined by edges.  One pass over the edges builds the
    incidence map from vertex id to its (edge, end) pairs, in graph order
    with end 0 before end 1, and the stacked layout of the graph-wide
    kernels: samples and s, read-only, hold edge i's samples and parameters
    at rows offsets[i]:offsets[i + 1], and end_rows[end_offsets[j]:
    end_offsets[j + 1]] the rows of vertex j's edge-ends in incidence order.
    An edge naming an unknown vertex is filed under that id, after the
    vertices, so construction succeeds and validate_graph can report it."""

    space: SpaceForm
    vertices: list[Vertex]
    edges: list[EdgeCurve]
    _by_id: dict = field(init=False, repr=False)
    _ends: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._by_id = {v.id: v for v in self.vertices}
        self._ends = {v.id: [] for v in self.vertices}  # (edge, end, row)
        self.offsets = np.cumsum([0] + [len(e.samples) for e in self.edges])
        for e, stop in zip(self.edges, self.offsets[1:].tolist()):
            for end, row in ((0, stop - len(e.samples)), (1, stop - 1)):
                self._ends.setdefault(e.endpoints[end], []).append(
                    (e, end, row))
        ends = list(self._ends.values())
        self.end_offsets = np.cumsum([0] + [len(group) for group in ends])
        self.end_rows = np.array([r for group in ends for _, _, r in group],
                                 dtype=int)
        empty = [np.empty((0, self.space.embedding_dim))]
        self.samples = np.concatenate([e.samples for e in self.edges] or empty)
        self.s = np.concatenate([e.s for e in self.edges] or [np.empty(0)])
        self.samples.flags.writeable = self.s.flags.writeable = False

    def vertex_point(self, vertex_id) -> np.ndarray:
        try:
            return self._by_id[vertex_id].point
        except KeyError:
            raise ValidationError(f"unknown vertex id {vertex_id!r}") from None

    def edge_ends_at(self, vertex_id) -> list[tuple[EdgeCurve, int]]:
        """All (edge, end) pairs incident to the vertex; a loop edge
        contributes both of its ends."""
        return [(e, end) for e, end, _ in self._ends.get(vertex_id, ())]

    def valence(self, vertex_id) -> int:
        return len(self._ends.get(vertex_id, ()))

    @property
    def total_length(self) -> float:
        return sum(e.length for e in self.edges)

    def all_samples(self) -> np.ndarray:
        """The stacked samples: the same read-only array on every call."""
        return self.samples


# ---------------------------------------------------------------------------
# construction helpers

def _cumulative_length(chords: np.ndarray) -> np.ndarray:
    """Arclength parameters of a polyline from its chord lengths."""
    s = np.empty(len(chords) + 1)
    s[0] = 0.0
    np.cumsum(chords, out=s[1:])
    return s


def arclength_params(space: SpaceForm, samples: np.ndarray) -> np.ndarray:
    return _cumulative_length(space.dist(samples[:-1], samples[1:]))


def _subdivide_to_minimum(space: SpaceForm, samples: np.ndarray) -> np.ndarray:
    """Insert geodesic chord midpoints until the minimum sample count holds;
    the polyline's geometry is unchanged."""
    while len(samples) < MIN_EDGE_SAMPLES:
        mids = space.geodesic_point(samples[:-1], samples[1:],
                                    np.full(len(samples) - 1, 0.5))
        merged = np.empty((2 * len(samples) - 1, samples.shape[1]))
        merged[0::2] = samples
        merged[1::2] = mids
        samples = merged
    return samples


def make_edge(space: SpaceForm, edge_id, endpoints, samples) -> EdgeCurve:
    """Validate and build one edge from raw on-manifold samples."""
    samples = np.asarray(samples, float)
    if samples.ndim != 2 or len(samples) < 2:
        raise ValidationError(f"edge {edge_id!r} needs at least two samples")
    chords = space.dist(samples[:-1], samples[1:])
    if np.any(chords < 1e-12):
        raise ValidationError(f"edge {edge_id!r} has coincident consecutive samples")
    full = _subdivide_to_minimum(space, samples)
    s = (_cumulative_length(chords) if len(full) == len(samples)
         else arclength_params(space, full))
    return EdgeCurve(id=edge_id, endpoints=tuple(endpoints), samples=full, s=s)


def _check_spherical_diameter(space: SpaceForm, points: np.ndarray):
    """Reject any pair of these spherical samples whose chord reaches that
    of the angle pi - ANTIPODAL_SLACK, in O(N log N).

    Samples inside an open hemisphere pass in O(N): with c the sum of the
    samples, x . c > 1e-6 r |c| for every sample x puts all of them within
    pi/2 - 1e-6 of c, so every pair is closer than pi - 2e-6.  The 1e-6
    margin dwarfs the rounding of the dot products and the norm, and such
    a pair's chord falls short of the limit chord by about 1e-12 r, far
    more than the exact test's rounding, so the pre-test accepts only
    points the exact query accepts.  Everything else goes to the query."""
    radius = 1.0 / space.curv
    c = np.sum(points, axis=0)
    if np.min(points @ c) > 1e-6 * radius * float(np.linalg.norm(c)):
        return
    from scipy.spatial import cKDTree

    limit_chord = 2.0 * radius * math.sin(0.5 * (math.pi - ANTIPODAL_SLACK))
    # |x_i - x_j| >= limit_chord exactly when -x_i lies within
    # sqrt(4 r^2 - limit_chord^2) = 2 r sin(ANTIPODAL_SLACK / 2) of x_j, up to
    # rounding of |x| = r; the enlarged radius keeps every such pair as a
    # candidate, and each candidate is judged by the exact chord test.
    reach = 2.0 * radius * math.sin(0.5 * ANTIPODAL_SLACK) + 1e-6 * radius
    tree = cKDTree(points)
    for i, near in enumerate(tree.query_ball_point(-points, reach)):
        if near and np.any(
                np.linalg.norm(points[near] - points[i], axis=-1) >= limit_chord):
            raise ValidationError("spherical diameter bound violated: "
                                  "sample pair at distance >= pi/b")


def validate_graph(graph: EmbeddedGraph) -> EmbeddedGraph:
    """Check vertex ids, endpoint coincidence, valence and the spherical
    diameter bound.  One space.dist judges the ends at graph.end_rows; one at
    an unknown vertex, or spherically a chord over 1/b off it, fails.  The
    smallest failing row is an edge-by-edge scan's first failing end."""
    if len(graph._by_id) < len(graph.vertices):
        seen = set()
        vid = next(v.id for v in graph.vertices if v.id in seen or seen.add(v.id))
        raise ValidationError(f"duplicate vertex id {vid!r}")
    if not graph.edges:
        raise ValidationError("a graph needs at least one closed arc")
    n, rows, space = len(graph.vertices), graph.end_rows, graph.space
    valence, known = np.diff(graph.end_offsets[:n + 1]), graph.end_offsets[n]
    points = np.reshape([v.point for v in graph.vertices], (n, space.embedding_dim))
    ends, points = graph.samples[rows[:known]], np.repeat(points, valence, axis=0)
    far = space.norm(points - ends) > space.max_radius / math.pi  # 1/b spherically
    gap = np.full(len(rows), np.inf)
    gap[:known][~far] = space.dist(ends[~far], points[~far])
    if np.any(gap > ENDPOINT_TOL):
        j = int(np.argmin(np.where(gap > ENDPOINT_TOL, rows, len(graph.samples))))
        i = np.searchsorted(graph.offsets, rows[j], side="right") - 1
        e, end = graph.edges[i], int(rows[j] > graph.offsets[i])
        # its own space.dist, which raises for a far end just as a scan's would
        raise ValidationError(
            f"edge {e.id!r} references unknown vertex {e.endpoints[end]!r}"
            if j >= known else f"edge {e.id!r} end {end} misses vertex "
            f"{e.endpoints[end]!r} by {float(space.dist(ends[j], points[j])):.3g}")
    for v, c in zip(graph.vertices, valence.tolist()):
        if c < 2:
            raise ValidationError(f"vertex {v.id!r} has valence {c} < 2; closed arcs "
                                  "must meet in at least two edge-ends everywhere")
    if space.model is Model.SPHERICAL:
        _check_spherical_diameter(space, graph.samples)
    return graph


def _coordinate_fault(coords, ndim: int, d: int, what: str) -> ValidationError:
    """The error for raw coordinates that do not form a finite array of
    shape (d,) or (n, d).  Points are judged one by one, so a ragged list
    whose points are all numbers reads as a wrongly sized point."""
    try:
        items = list(coords) if ndim == 2 else [coords]
    except TypeError:
        items = [coords]
    for c in items:
        try:
            finite = bool(np.all(np.isfinite(np.asarray(c, float))))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            return ValidationError(f"{what}: coordinates must be finite numbers")
    return ValidationError(f"{what}: expected {d} coordinates")


def _take_points(space: SpaceForm, coords, ndim: int, what: str,
                 tol: float) -> np.ndarray:
    """Project raw coordinates onto the model manifold as one array: a
    single point when ndim is 1, a list of points when it is 2.  Each
    point may sit at most tol off the manifold, by SpaceForm.manifold_offset,
    which does not depend on where on the manifold it sits."""
    d = space.embedding_dim
    try:
        x = np.array(coords, float)
    except (TypeError, ValueError):
        raise _coordinate_fault(coords, ndim, d, what) from None
    if (x.ndim != ndim or x.shape[-1] != d or not x.size
            or not np.all(np.isfinite(x))):
        raise _coordinate_fault(coords, ndim, d, what)
    try:
        proj = space.project_point(x)
    except ValidationError as exc:
        raise ValidationError(f"{what}: {exc}") from None
    if not np.all(space.manifold_offset(x) <= tol):
        raise ValidationError(f"{what}: point is off the manifold "
                              f"beyond tolerance {tol:g}")
    return proj


def _entry(block, key: str, what: str):
    """block[key] of a document block, or a ValidationError naming the
    block when the block is no mapping or lacks the key."""
    if not isinstance(block, dict):
        raise ValidationError(f"{what} must be a mapping")
    if key not in block:
        raise ValidationError(f"{what} has no {key!r} entry")
    return block[key]


def _block_id(block, what: str):
    """The id of a vertex or edge block.  JSON lists and mappings cannot
    serve as ids: they are not hashable."""
    bid = _entry(block, "id", what)
    if isinstance(bid, (list, dict)):
        raise ValidationError(f"{what}: id must be a string or a number")
    return bid


def load_graph(document: dict) -> EmbeddedGraph:
    """Build a validated graph from a parsed document (see the file format
    in the CLI module).  Points are projected onto the model manifold;
    they may start at most the document's tolerance off it, measured by
    SpaceForm.manifold_offset."""
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
    try:
        tol = float(document.get("tolerance", 1e-6))
    except (TypeError, ValueError):
        raise ValidationError("malformed graph document: tolerance must be "
                              "a number") from None

    vertices = []
    seen = set()
    for i, vb in enumerate(vertex_blocks):
        vid = _block_id(vb, f"vertex block {i}")
        if vid in seen:
            raise ValidationError(f"duplicate vertex id {vid!r}")
        seen.add(vid)
        what = f"vertex {vid!r}"
        vertices.append(Vertex(id=vid, point=_take_points(
            space, _entry(vb, "coords", what), 1, what, tol)))

    vpoints = {v.id: v.point for v in vertices}
    edges = []
    seen = set()
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
        endpoints = tuple(endpoints)
        samples = _take_points(space, _entry(eb, "samples", what), 2,
                               f"{what} sample", tol)
        # snap edge ends onto their vertices when within tolerance
        for end, idx in ((0, 0), (1, -1)):
            vid = endpoints[end]
            if vid in vpoints:
                gap = float(space.dist(samples[idx], vpoints[vid]))
                if gap <= ENDPOINT_TOL:
                    samples[idx] = vpoints[vid]
        edges.append(make_edge(space, eid, endpoints, samples))

    return validate_graph(EmbeddedGraph(space=space, vertices=vertices, edges=edges))


def load_graph_file(path) -> EmbeddedGraph:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"not valid JSON: {exc}") from exc
    return load_graph(document)


# ---------------------------------------------------------------------------
# resampling

def resample_arclength(graph: EmbeddedGraph, h: float) -> EmbeddedGraph:
    """Resample every edge at arclength spacing ~h along its geodesic
    polyline.  Endpoints are kept exactly; each edge keeps at least
    MIN_EDGE_SAMPLES samples even when h is coarse.  A step that would make
    over MAX_RESAMPLED_SAMPLES samples fails before allocating anything."""
    if not h > 0.0:
        raise ValidationError("resampling step must be positive")
    # capped before the ceiling, so a quotient that overflowed stays finite
    counts = [max(math.ceil(min(e.length / h, MAX_RESAMPLED_SAMPLES) - 1e-9),
                  MIN_EDGE_SAMPLES - 1) for e in graph.edges]
    if sum(counts) + len(counts) > MAX_RESAMPLED_SAMPLES:
        raise ValidationError(f"step {h:g} would resample the graph to more "
                              f"than {MAX_RESAMPLED_SAMPLES} samples")
    space = graph.space
    new_edges = []
    for e, m in zip(graph.edges, counts):
        total = e.length
        if h > total:
            raise ValidationError(
                f"step {h:g} exceeds the length {total:g} of edge {e.id!r}")
        targets = np.linspace(0.0, total, m + 1)
        idx = np.clip(np.searchsorted(e.s, targets, side="right") - 1,
                      0, len(e.s) - 2)
        seg = e.s[idx + 1] - e.s[idx]
        lam = np.where(seg > 0, (targets - e.s[idx]) / np.where(seg > 0, seg, 1.0), 0.0)
        pts = space.geodesic_point(e.samples[idx], e.samples[idx + 1],
                                   np.clip(lam, 0.0, 1.0))
        pts[0] = e.samples[0]
        pts[-1] = e.samples[-1]
        new_edges.append(EdgeCurve(id=e.id, endpoints=e.endpoints, samples=pts,
                                   s=arclength_params(space, pts)))
    return EmbeddedGraph(space=space, vertices=graph.vertices, edges=new_edges)


# ---------------------------------------------------------------------------
# tangents

def derivative_stencil(graph: EmbeddedGraph) -> tuple[np.ndarray, np.ndarray]:
    """The first-derivative stencil of the graph's stacked samples: one
    _num.first_derivative_stencil build over graph.s, every window clamped
    to its own edge by graph.offsets, made on first use and cached on the
    graph.  Each edge's rows are its own stencil bit for bit."""
    return graph.cached("stencil", lambda: _num.first_derivative_stencil(
        graph.s, graph.offsets))


def unit_tangents(space: SpaceForm, x: np.ndarray, stencil: tuple,
                  graph: EmbeddedGraph) -> np.ndarray:
    """Unit tangents at the rows of x, laid out as the graph's stacked
    samples: the stencil of their parameters applied to x, projected to the
    tangent space and normalized.  A tangent shorter than 1e-12 raises
    ValidationError naming the edge of the first such row."""
    t = space.tangent_project(x, _num.apply_stencil(stencil, x))
    n = space.norm(t)
    if np.any(n < 1e-12):
        edge = graph.edges[np.searchsorted(
            graph.offsets, np.argmax(n < 1e-12), side="right") - 1]
        raise ValidationError(f"degenerate tangent on edge {edge.id!r}")
    return t / n[:, None]


def stacked_unit_tangents(graph: EmbeddedGraph) -> np.ndarray:
    """unit_tangents of the graph's stacked samples by its
    derivative_stencil, one pass made on first use and cached on the graph.
    Each edge's rows are its edge_unit_tangents bit for bit."""
    return graph.cached("unit_tangents", lambda: unit_tangents(
        graph.space, graph.samples, derivative_stencil(graph), graph))


def edge_unit_tangents(space: SpaceForm, edge: EdgeCurve) -> np.ndarray:
    """The edge's unit tangents by its own stencil, so one-sided at the
    ends, cached on the edge: its rows of a graph's stacked_unit_tangents
    when cone_total_curvature handed them over, else those of the edge
    alone as a one-edge graph."""
    return edge.cached("unit_tangents", lambda: stacked_unit_tangents(
        EmbeddedGraph(space=space, vertices=[], edges=[edge])))


def vertex_star(graph: EmbeddedGraph, vertex_id) -> list[TangentVector]:
    """Unit tangents at a vertex pointing into each incident edge-end: a
    view of the vertex's rows of the graph's star_table."""
    q = graph.vertex_point(vertex_id)
    table = star_table(graph)
    return [TangentVector(base=q, vec=vec)
            for vec in table.vec[table.rows[vertex_id]]]


@dataclass(eq=False)
class StarTable:
    """Every vertex's vertex_star, vertex after vertex in graph order, one
    row per edge-end: base holds the vertex points and vec the unit
    tangents.  rows maps each vertex id to its slice of them."""

    base: np.ndarray
    vec: np.ndarray
    rows: dict


def star_table(graph: EmbeddedGraph) -> StarTable:
    """The graph's StarTable, built on first use and cached on the graph.
    A vertex with no edge-end, then an edge-end whose sample coincides with
    its neighbour, fails one test each before any stencil is built.  The
    rows are graph.end_rows of stacked_unit_tangents, negated at heads."""
    def build():
        bounds = graph.end_offsets[:len(graph.vertices) + 1]
        if not np.all(np.diff(bounds)):
            v = graph.vertices[int(np.argmin(np.diff(bounds)))]
            raise ValidationError(f"vertex {v.id!r} has no incident edges")
        rows = graph.end_rows[:bounds[-1]]
        head = np.isin(rows + 1, graph.offsets)  # the next row starts an edge
        near = graph.space.dist(graph.samples[rows], graph.samples[
            np.where(head, rows - 1, rows + 1)]) < 1e-12
        if near.any():
            j = int(np.argmax(near))
            v = graph.vertices[np.searchsorted(bounds, j, side="right") - 1]
            e = graph.edges[np.searchsorted(graph.offsets, rows[j] + 1) - 1]
            raise ValidationError(f"edge {e.id!r} is degenerate at {v.id!r}")
        t = stacked_unit_tangents(graph)[rows]
        q = np.array([graph.vertex_point(v.id) for v in graph.vertices])
        return StarTable(
            base=np.repeat(q, np.diff(bounds), axis=0),
            vec=np.where(head[:, None], -t, t),
            rows={v.id: slice(lo, hi) for v, lo, hi in zip(
                graph.vertices, bounds.tolist(), bounds[1:].tolist())})

    return graph.cached("star_table", build)


# ---------------------------------------------------------------------------
# connectivity and the doubled Euler circuit

def connected_components(graph: EmbeddedGraph) -> list[list]:
    seen = set()
    components = []
    for v in graph.vertices:
        if v.id in seen:
            continue
        stack = [v.id]
        comp = []
        seen.add(v.id)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for e, end in graph.edge_ends_at(cur):
                nxt = e.endpoints[1 - end]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        components.append(comp)
    return components


@dataclass(frozen=True)
class EdgeTraversal:
    edge_id: object
    tail: object
    head: object


def euler_double_circuit(graph: EmbeddedGraph) -> list[EdgeTraversal]:
    """A closed walk through the graph that traverses every edge exactly
    twice, once each way (for a loop edge, twice around).  It is an
    out-and-back depth-first walk: an edge whose far end was already
    reached is crossed there and back at once, and any other edge is
    crossed back after its far end's subtree.  Iterative, so a long cycle
    is no deep recursion."""
    comps = connected_components(graph)
    if len(comps) != 1:
        raise ValidationError(
            f"graph is disconnected; components: {comps}")
    if not graph.edges:
        raise ValidationError("graph has no edges")

    start = graph.edges[0].endpoints[0]
    reached = {start}
    crossed = set()
    walk = []
    # each frame: a vertex, its unexplored edge-ends, the traversal home
    stack = [(start, iter(graph.edge_ends_at(start)), None)]
    while stack:
        v, ends, home = stack[-1]
        for e, end in ends:
            if e in crossed:
                continue
            crossed.add(e)
            w = e.endpoints[1 - end]
            walk.append(EdgeTraversal(edge_id=e.id, tail=v, head=w))
            back = EdgeTraversal(edge_id=e.id, tail=w, head=v)
            if w in reached:
                walk.append(back)
            else:
                reached.add(w)
                stack.append((w, iter(graph.edge_ends_at(w)), back))
                break
        else:
            stack.pop()
            if home is not None:
                walk.append(home)
    return walk
