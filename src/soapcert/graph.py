"""Embedded graphs: data model, ingestion, resampling, and combinatorics.

A graph is a finite set of vertices (each of valence >= 2) joined by edges;
each edge is stored as a geodesic polyline on the model manifold with an
arclength parameter.  Instances are immutable after construction and all
operations here are read-only.
"""

from __future__ import annotations

import gc
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _num
from .errors import SoapcertError, ValidationError
from .spaceform import ANTIPODAL_SLACK, Model, SpaceForm, TangentVector

MIN_EDGE_SAMPLES = 8

# Edge endpoints must land on their vertex point this closely (they are
# snapped to it exactly when they do).
ENDPOINT_TOL = 1e-8

NO_ARC = "a graph needs at least one closed arc"

# The types that numpy reads as 0 or 1 among numbers; _bools scans blocks
# of up to _SCAN_ROWS points for them without a gate.
_BOOL_TYPES = frozenset((bool, np.bool_))
_SCAN_ROWS = 64

# resample_arclength makes at most this many samples over a whole graph.
MAX_RESAMPLED_SAMPLES = 2 ** 20


@dataclass(eq=False)
class Vertex:
    id: object
    point: np.ndarray


@dataclass(eq=False)
class EdgeCurve:
    """A sampled edge: points joined by model-space geodesics.

    ``s`` holds cumulative geodesic chord lengths, so consecutive chord
    lengths equal the parameter increments by construction.  Every edge
    has at least MIN_EDGE_SAMPLES samples, one parameter per sample; the
    stencils in ``_num`` rely on that.  In a graph both are read-only views.
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
class EmbeddedGraph:
    """Vertices joined by edges.  One pass over the edges builds the
    incidence map from vertex id to its (edge, end) pairs, in graph order
    with end 0 before end 1, and the stacked layout of the graph-wide
    kernels: samples, s and end_points, read-only, hold edge i's samples and
    parameters at rows offsets[i]:offsets[i + 1], and end_rows[end_offsets[j]:
    end_offsets[j + 1]] the rows of vertex j's edge-ends in incidence order,
    end_points their vertex points.  An edge no graph holds yet (its arrays
    writeable) gets read-only views of its rows as samples and s.  An edge
    naming an unknown vertex is filed under that id, after the vertices, so
    construction succeeds and validate_graph can report it.  A graph is
    immutable after construction, so whatever is derived from it alone is
    built once and kept on it by cached."""

    space: SpaceForm
    vertices: list[Vertex]
    edges: list[EdgeCurve]
    _by_id: dict = field(init=False, repr=False)
    _ends: dict = field(init=False, repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self._by_id = {v.id: v for v in self.vertices}
        self._ends = {v.id: [] for v in self.vertices}  # (edge, end, row)
        self.offsets = np.cumsum([0] + [len(e.samples) for e in self.edges])
        for e, stop in zip(self.edges, self.offsets[1:].tolist()):
            for end, row in ((0, stop - len(e.samples)), (1, stop - 1)):
                self._ends.setdefault(e.endpoints[end], []).append((e, end, row))
        ends = list(self._ends.values())
        self.end_offsets = np.cumsum([0] + [len(group) for group in ends])
        self.end_rows = np.array([r for group in ends for _, _, r in group], dtype=int)
        d, known = self.space.embedding_dim, len(self._by_id)
        points = np.reshape([v.point for v in self._by_id.values()], (known, d))
        self.end_points = np.repeat(points, np.diff(self.end_offsets[:known + 1]), 0)
        self.samples = np.concatenate([e.samples for e in self.edges] or [points[:0]])
        self.s = np.concatenate([e.s for e in self.edges] or [np.empty(0)])
        for a in (self.samples, self.s, self.end_points):
            a.flags.writeable = False
        for e, lo, stop in zip(self.edges, self.offsets.tolist(), self.offsets[1:]):
            if e.samples.flags.writeable and e.s.flags.writeable:
                e.samples, e.s = self.samples[lo:stop], self.s[lo:stop]

    def cached(self, key: str, build):
        """The value of build() under key, built on the first call."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build()
            return value

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


# ---------------------------------------------------------------------------
# construction helpers

def make_edge(space: SpaceForm, edge_id, endpoints, samples) -> EdgeCurve:
    """Validate and build one edge from raw on-manifold samples."""
    samples = np.asarray(samples, float)
    if samples.ndim != 2:
        raise ValidationError(f"edge {edge_id!r} needs at least two samples")
    return _edges(space, samples, [len(samples)], [edge_id], [tuple(endpoints)])[0]


def _edges(space: SpaceForm, samples: np.ndarray, counts, ids, endpoints,
           targets=None) -> list[EdgeCurve]:
    """make_edge of edges stacked one after another, counts[i] samples of
    edge ids[i], in one pass; the one place an EdgeCurve is built.  Given
    targets (two rows per edge, NaN for none), each end within ENDPOINT_TOL
    of its own is first snapped onto it.  Short edges get geodesic chord
    midpoints up to MIN_EDGE_SAMPLES.  The chord rule: every chord between
    consecutive samples, padded ones included, is finite and at least
    1e-12, and the first chord to break it names its edge.  s is the
    running sum of the chords, so it equals the cumsum of space.dist over
    consecutive samples bit for bit."""
    counts = np.asarray(counts, dtype=int)
    stop = np.cumsum(counts)
    if targets is not None:
        rows = np.stack([stop - counts, stop - 1], axis=1).ravel()
        near = space.dist(samples[rows], targets) <= ENDPOINT_TOL
        samples[rows[near]] = targets[near]
    if np.any(counts < 2):
        raise ValidationError(f"edge {ids[np.argmax(counts < 2)]!r} needs at "
                              "least two samples")
    step = np.diff(samples, axis=0)  # space.dist's q - p, bit for bit
    step[stop[:-1] - 1] = 0.0  # no chord from one edge to the next
    with np.errstate(over="ignore", invalid="ignore"):  # the rule judges these
        chords = np.delete(space.chord_dist(space.mdot(step, step)),
                           stop[:-1] - 1)
    j = _broken_chord(chords)
    # the edge of the first broken stored chord; those before it are padded
    # and judged first
    first = len(counts) if j is None else \
        int(np.repeat(np.arange(len(counts)), counts - 1)[j])
    edges = []
    for i, (eid, pair, lo, hi) in enumerate(zip(
            ids[:first], endpoints, (stop - counts).tolist(), stop.tolist())):
        x, c = samples[lo:hi], chords[lo - i:hi - i - 1]
        while len(x) < MIN_EDGE_SAMPLES:
            mids = space.geodesic_point(x[:-1], x[1:], np.full(len(x) - 1, 0.5))
            x = np.insert(mids, np.arange(len(x)), x, axis=0)
        if len(x) > hi - lo:  # padded: the new chords obey the rule too
            c = space.dist(x[:-1], x[1:])
            _check_chords(c, eid)
        edges.append(EdgeCurve(eid, pair, x, np.concatenate(([0.0], np.cumsum(c)))))
    if j is not None:
        _check_chords(chords[j:j + 1], ids[first])
    return edges


def _broken_chord(chords: np.ndarray) -> int | None:
    """The index of the first chord that breaks the chord rule (finite and
    at least 1e-12), or None."""
    bad = ~(np.isfinite(chords) & (chords >= 1e-12))
    return int(np.argmax(bad)) if bad.any() else None


def _check_chords(chords: np.ndarray, edge_id) -> None:
    """ValidationError naming the edge when one of its chords breaks the
    chord rule."""
    j = _broken_chord(chords)
    if j is not None:
        raise ValidationError(f"edge {edge_id!r} has " + (
            "coincident consecutive samples" if chords[j] < 1e-12
            else "a chord that is not finite"))


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
        raise ValidationError(NO_ARC)
    n, rows, space = len(graph.vertices), graph.end_rows, graph.space
    valence, known = np.diff(graph.end_offsets[:n + 1]), graph.end_offsets[n]
    ends, points = graph.samples[rows[:known]], graph.end_points
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


def _numeric(x: np.ndarray) -> bool:
    """Whether numpy read x as numbers: an integer or float dtype.  Strings,
    which a float conversion would parse, read as a string dtype; null,
    huge integers and mixed entries as object; booleans alone as bool."""
    return x.dtype.kind in "fiu"


def _has_bool(point) -> bool:
    """Whether a raw point, a list of coordinates, holds a boolean."""
    return isinstance(point, (list, tuple)) \
        and not _BOOL_TYPES.isdisjoint(map(type, point))


def _bools(coords, x: np.ndarray) -> bool:
    """Whether raw coordinates that numpy read as the numbers x hold a
    boolean, which numpy reads as 0 or 1 among numbers.  Only lists and
    tuples can hold one.  A block is judged by the types of all its entries
    in one C-level scan, about 0.1 us a point.  A block of over _SCAN_ROWS
    points is first gated on exact 0s and 1s: with none (as in most
    graphs) it holds no boolean, and with few their points are walked one
    by one, which costs about 8 times a scan per point.  A curve in a
    coordinate plane has a 0 at every point, so its block is scanned."""
    if not isinstance(coords, (list, tuple)):
        return False
    points = coords if x.ndim == 2 else [coords]
    if len(points) > _SCAN_ROWS:
        hit = x == 0
        hit |= x == 1
        rows = np.flatnonzero(hit) // x.shape[1]  # a row per 0 or 1
        if 8 * len(rows) <= len(points):
            return any(_has_bool(points[i]) for i in rows.tolist())
    return not _BOOL_TYPES.isdisjoint(
        map(type, itertools.chain.from_iterable(points)))


def _parsed(space: SpaceForm, coords, ndim: int, what: str) -> np.ndarray:
    """Raw coordinates as one float array of shape (d,) when ndim is 1 or
    (n, d) when it is 2; _placed checks that they are finite.  Entries that
    numpy does not read as numbers (_numeric) are not coordinates, and
    neither are booleans among numbers (_bools).  Otherwise points are
    judged one by one, so a ragged list whose points are all numbers reads
    as a wrongly sized point."""
    d = space.embedding_dim
    try:
        x = np.array(coords)
        if _numeric(x) and x.ndim == ndim and x.shape[-1] == d and x.size \
                and not _bools(coords, x):
            return x.astype(float, copy=False)
    except (TypeError, ValueError):
        pass
    items = coords if ndim == 2 and isinstance(coords, (list, tuple)) else [coords]
    try:
        finite = all(not _has_bool(c) and _numeric(np.asarray(c))
                     and np.all(np.isfinite(c)) for c in items)
    except (TypeError, ValueError):
        finite = False
    raise ValidationError(f"{what}: expected {d} coordinates" if finite
                          else f"{what}: coordinates must be finite numbers")


def _placed(space: SpaceForm, x: np.ndarray, what: str, tol: float) -> np.ndarray:
    """Finite raw points x projected onto the model manifold; each may sit
    at most tol off it by SpaceForm.manifold_offset, wherever it sits."""
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{what}: coordinates must be finite numbers")
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


def _scalar(value, what: str, integral: bool = False):
    """A number of the document's space block or its tolerance, as an int
    when integral, else as a float.  Strings and booleans, which int() and
    float() would read, and non-integral dims raise TypeError."""
    kind = numbers.Integral if integral else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{what} must be "
                        + ("an integer" if integral else "a number"))
    return int(value) if integral else float(value)


def _blocks(space: SpaceForm, vertex_blocks, edge_blocks):
    """(id, endpoints, name, coordinates) of each vertex block, then of each
    edge block, parsed (_parsed) in document order: name prefixes the
    block's faults, and a vertex has endpoints None and shape (1, d)."""
    for i, vb in enumerate(vertex_blocks):
        vid = _block_id(vb, f"vertex block {i}")
        what = f"vertex {vid!r}"
        coords = _entry(vb, "coords", what)
        yield vid, None, what, _parsed(space, coords, 1, what)[None]
    seen = set()
    for i, eb in enumerate(edge_blocks):
        eid = _block_id(eb, f"edge block {i}")
        if eid in seen or seen.add(eid):
            raise ValidationError(f"duplicate edge id {eid!r}")
        what = f"edge {eid!r}"
        ends = _entry(eb, "endpoints", what)
        if not isinstance(ends, (list, tuple)) or len(ends) != 2 \
                or any(isinstance(v, (list, dict)) for v in ends):
            raise ValidationError(f"{what} needs a list of two endpoint ids")
        what, coords = f"{what} sample", _entry(eb, "samples", what)
        yield eid, tuple(ends), what, _parsed(space, coords, 2, what)


def load_graph(document: dict) -> EmbeddedGraph:
    """Build a validated graph from a parsed document (see the file format
    in the CLI module).  The stacked build parses each block (_blocks), then
    checks, projects (_placed), snaps and measures all points as one array.
    If that fails, the fault walk parses the blocks again and places, snaps
    and measures each on its own: the first block to fail raises its own
    fault, or else the stacked error goes on.  validate_graph judges last."""
    if not isinstance(document, dict):
        raise ValidationError("graph document must be a mapping")
    try:
        space_block = document["space"]
        model = Model(str(space_block["model"]).lower())
        space = SpaceForm(model=model,
                          dim=_scalar(space_block["dim"], "dim", integral=True),
                          curv=_scalar(space_block.get("curv", 0.0), "curv"))
        vertex_blocks = list(document["vertices"])
        edge_blocks = list(document["edges"])
        tol = _scalar(document.get("tolerance", 1e-6), "tolerance")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed graph document: {exc}") from exc
    if not 0.0 <= tol < math.inf:
        raise ValidationError("malformed graph document: tolerance must be "
                              "finite and nonnegative")

    if not (vertex_blocks or edge_blocks):
        raise ValidationError(NO_ARC)
    nv = len(vertex_blocks)
    try:
        ids, pairs, _, x = zip(*_blocks(space, vertex_blocks, edge_blocks))
        sizes = [len(block) for block in x]
        x = np.concatenate(x)  # the parsed blocks are freed,
        x = _placed(space, x, "graph", tol)  # and the raw array once placed
        index = {vid: i for i, vid in enumerate(ids[:nv])}
        points = np.concatenate([x[:nv], np.full((1, space.embedding_dim), np.nan)])
        at = [index.get(v, -1) for pair in pairs[nv:] for v in pair]  # -1: NaN
        edges = _edges(space, x[nv:], sizes[nv:], ids[nv:], pairs[nv:], points[at])
    except SoapcertError:  # the fault walk: blocks one by one, from the document
        placed = {}
        for bid, pair, what, x in _blocks(space, vertex_blocks, edge_blocks):
            x = _placed(space, x, what, tol)
            if pair is None:
                placed[bid] = x[0]  # the last of a repeated id, as index has
            else:
                _edges(space, x, [len(x)], [bid], [pair], np.array(
                    [placed.get(v, np.full_like(x[0], np.nan)) for v in pair]))
        raise
    vertices = [Vertex(id=vid, point=p) for vid, p in zip(ids[:nv], points)]
    return validate_graph(EmbeddedGraph(space=space, vertices=vertices,
                                        edges=edges))


def _decoded_graph(path) -> EmbeddedGraph:
    """load_graph of the JSON document in the file.  The document lives in
    this frame alone, so it is freed when the frame returns.  Text that is
    not UTF-8, and nesting deeper than the decoder's recursion limit, are
    not valid JSON either."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValidationError(f"not valid JSON: {exc}") from exc
    return load_graph(document)


def load_graph_file(path) -> EmbeddedGraph:
    """load_graph of the JSON file at path, decoded and built with the
    cyclic collector paused.  A decoded document is a tree of lists and
    mappings, so its tens of thousands of containers form no reference
    cycle: a collection would traverse the whole heap and free nothing,
    and reference counting frees the document once _decoded_graph returns,
    before the collector resumes.  It resumes only if it ran before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _decoded_graph(path)
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# resampling

def resample_arclength(graph: EmbeddedGraph, h: float) -> EmbeddedGraph:
    """Resample every edge at arclength spacing ~h along its geodesic
    polyline.  Endpoints are kept exactly; each edge keeps at least
    MIN_EDGE_SAMPLES samples even when h is coarse.  A step that would make
    over MAX_RESAMPLED_SAMPLES samples fails before allocating anything.
    All new edges are built by one _edges call, so they keep its chord rule
    and take their parameters from its chords."""
    if not h > 0.0:
        raise ValidationError("resampling step must be positive")
    # capped before the ceiling, so a quotient that overflowed stays finite
    counts = [max(math.ceil(min(e.length / h, MAX_RESAMPLED_SAMPLES) - 1e-9),
                  MIN_EDGE_SAMPLES - 1) for e in graph.edges]
    if sum(counts) + len(counts) > MAX_RESAMPLED_SAMPLES:
        raise ValidationError(f"step {h:g} would resample the graph to more "
                              f"than {MAX_RESAMPLED_SAMPLES} samples")
    space = graph.space
    blocks = []
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
        blocks.append(pts)
    # an edgeless graph's samples are its empty (0, d) block
    samples = np.concatenate(blocks or [graph.samples])
    del blocks  # so the stacked copy is the only one while the graph is built
    edges = _edges(space, samples, np.add(counts, 1), [e.id for e in graph.edges],
                   [e.endpoints for e in graph.edges])
    return EmbeddedGraph(space=space, vertices=graph.vertices, edges=edges)


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
    ends: the stacked_unit_tangents of the edge alone as a one-edge graph,
    built on every call."""
    return stacked_unit_tangents(
        EmbeddedGraph(space=space, vertices=[], edges=[edge]))


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
    row per edge-end: base holds the vertex points (the graph's end_points)
    and vec the unit tangents.  rows maps each vertex id to its slice."""

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
        return StarTable(
            base=graph.end_points, vec=np.where(head[:, None], -t, t),
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
