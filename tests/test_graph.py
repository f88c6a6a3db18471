import copy
import gc
import json
import math
import re
import types
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soapcert import (
    DiameterBoundError,
    EdgeCurve,
    EmbeddedGraph,
    Model,
    SpaceForm,
    ValidationError,
    cone_total_curvature,
    edge_unit_tangents,
    euler_double_circuit,
    load_graph,
    Vertex,
    resample_arclength,
    vertex_star,
)
from soapcert import _num, graph as graph_mod, shapes
from soapcert.graph import (
    _check_spherical_diameter,
    connected_components,
    star_table,
    validate_graph,
)
from soapcert.spaceform import ANTIPODAL_SLACK

from builders import (SPACES, arclength_params, edge_by_edge_load,
                      figure_eight_graph, loop_validate_message,
                      padded_short_edge_document, random_graph,
                      refuse_allocation, scaled_document)

FLAT = SpaceForm(Model.FLAT, 3)


def circle_document(n=64):
    t = np.linspace(0.0, 2.0 * math.pi, n + 1)
    samples = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    samples[-1] = samples[0]
    return {
        "space": {"model": "flat", "dim": 3, "curv": 0.0},
        "vertices": [{"id": "v0", "coords": samples[0].tolist()}],
        "edges": [{"id": "e0", "endpoints": ["v0", "v0"],
                   "samples": samples.tolist()}],
    }


class TestShapeBuilders:
    def test_polygon_needs_three_corners(self):
        with pytest.raises(ValidationError,
                           match="^a polygon needs at least 3 corners$"):
            shapes.polygon_graph(FLAT, [[0, 0, 0], [1, 0, 0]])

    def test_theta_graph_is_flat(self):
        with pytest.raises(ValidationError, match="^the symmetric three-arc "
                                                  "graph is built in flat "
                                                  "3-space$"):
            shapes.theta_graph(SpaceForm(Model.HYPERBOLIC, 3, 1.0))


class TestLoad:
    def test_circle_accepted(self):
        g = load_graph(circle_document())
        assert g.valence("v0") == 2
        assert len(g.edges) == 1

    def test_open_segment_rejected(self):
        doc = {
            "space": {"model": "flat", "dim": 3, "curv": 0.0},
            "vertices": [{"id": "a", "coords": [0, 0, 0]},
                         {"id": "b", "coords": [1, 0, 0]}],
            "edges": [{"id": "e", "endpoints": ["a", "b"],
                       "samples": [[0, 0, 0], [0.5, 0, 0], [1, 0, 0]]}],
        }
        with pytest.raises(ValidationError, match="valence"):
            load_graph(doc)

    def test_theta_graph_accepted(self):
        g = shapes.theta_graph()
        assert g.valence("p0") == 3
        assert g.valence("p1") == 3

    def test_endpoint_mismatch_rejected(self):
        doc = circle_document()
        doc["edges"][0]["samples"][0] = [1.0001, 0.0, 0.0]
        with pytest.raises(ValidationError, match="misses"):
            load_graph(doc)

    def test_off_manifold_rejected(self):
        doc = {
            "space": {"model": "spherical", "dim": 2, "curv": 1.0},
            "vertices": [{"id": "a", "coords": [1.1, 0, 0]}],
            "edges": [],
        }
        with pytest.raises(ValidationError, match="off the manifold"):
            load_graph(doc)

    def test_tolerance_field_loosens_the_gate(self):
        t = np.linspace(0.0, 1.0, 9)[:, None]
        a_raw = np.array([1.01, 0.0, 0.0])
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        bump = np.array([0.0, 0.0, 1.0])

        def on_sphere(path):
            path = path / np.linalg.norm(path, axis=1, keepdims=True)
            path[0] = a_raw  # off the sphere, but within the loosened gate
            path[-1] = b
            return path

        direct = on_sphere((1 - t) * a + t * b)
        detour = on_sphere((1 - t) * a + t * b + 0.4 * np.sin(math.pi * t) * bump)
        doc = {
            "space": {"model": "spherical", "dim": 2, "curv": 1.0},
            "vertices": [{"id": "a", "coords": a_raw.tolist()},
                         {"id": "b", "coords": b.tolist()}],
            "edges": [{"id": "e1", "endpoints": ["a", "b"],
                       "samples": direct.tolist()},
                      {"id": "e2", "endpoints": ["a", "b"],
                       "samples": detour.tolist()}],
            "tolerance": 0.05,
        }
        g = load_graph(doc)
        assert float(g.space.manifold_residual(g.vertex_point("a"))) < 1e-9

    @pytest.mark.parametrize("rapidity", [7.5, 10.0])
    def test_boosted_hyperbolic_loop_loads(self, rapidity):
        # the projection moves these points by 2.4e-6 and 4.1e-3 in
        # Euclidean terms, but their quadric residual stays below 2.4e-7
        space = SpaceForm(Model.HYPERBOLIC, 3, 1.0)
        boost = np.eye(4)
        boost[:2, :2] = [[math.cosh(rapidity), math.sinh(rapidity)],
                         [math.sinh(rapidity), math.cosh(rapidity)]]
        doc = shapes.graph_document(shapes.circle_graph(space, 0.8, 256))
        for block in doc["vertices"]:
            block["coords"] = (np.array(block["coords"]) @ boost.T).tolist()
        for block in doc["edges"]:
            block["samples"] = (np.array(block["samples"]) @ boost.T).tolist()
        raw = np.array(doc["edges"][0]["samples"])
        assert np.max(np.linalg.norm(space.project_point(raw) - raw,
                                     axis=-1)) > 1e-6
        g = load_graph(doc)
        assert len(g.edges[0].samples) == 257
        assert np.max(space.manifold_offset(raw)) < 1e-6

    def test_spherical_diameter_bound_rejected(self):
        n = 16
        t = np.linspace(0.0, math.pi - 1e-9, n)
        samples = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
        doc = {
            "space": {"model": "spherical", "dim": 2, "curv": 1.0},
            "vertices": [{"id": "a", "coords": samples[0].tolist()},
                         {"id": "b", "coords": samples[-1].tolist()}],
            "edges": [{"id": "e1", "endpoints": ["a", "b"],
                       "samples": samples.tolist()},
                      {"id": "e2", "endpoints": ["a", "b"],
                       "samples": samples.tolist()}],
        }
        with pytest.raises(ValidationError, match="diameter"):
            load_graph(doc)

    def test_projection_matches_pointwise_reference(self):
        rng = np.random.default_rng(4)
        for name, curv in (("flat", 0.0), ("hyperbolic", 0.8), ("spherical", 0.8)):
            space = SpaceForm(Model(name), 3, curv)
            doc = shapes.graph_document(shapes.circle_graph(space, 0.5, 256))
            raw = np.asarray(doc["edges"][0]["samples"])
            raw[1:-1] += 1e-9 * rng.standard_normal(raw[1:-1].shape)
            doc["edges"][0]["samples"] = raw.tolist()
            g = load_graph(doc)
            reference = np.array([space.project_point(x) for x in raw])
            assert np.array_equal(g.edges[0].samples[1:-1], reference[1:-1])

    def test_short_edges_are_subdivided(self):
        doc = {
            "space": {"model": "flat", "dim": 2, "curv": 0.0},
            "vertices": [{"id": "a", "coords": [0, 0]},
                         {"id": "b", "coords": [1, 0]}],
            "edges": [{"id": "e1", "endpoints": ["a", "b"],
                       "samples": [[0, 0], [1, 0]]},
                      {"id": "e2", "endpoints": ["a", "b"],
                       "samples": [[0, 0], [0.5, 0.4], [1, 0]]}],
        }
        g = load_graph(doc)
        for e in g.edges:
            assert len(e.samples) >= 8
        assert g.edges[0].length == pytest.approx(1.0, abs=1e-12)

    def test_edge_curve_enforces_sample_minimum(self):
        samples = np.stack([np.linspace(0.0, 1.0, 7), np.zeros(7),
                            np.zeros(7)], axis=1)
        with pytest.raises(ValidationError, match="fewer than 8"):
            EdgeCurve(id="e", endpoints=("a", "b"), samples=samples,
                      s=np.linspace(0.0, 1.0, 7))

    def test_edge_curve_needs_one_parameter_per_sample(self):
        samples = np.stack([np.linspace(0.0, 1.0, 9), np.zeros(9),
                            np.zeros(9)], axis=1)
        with pytest.raises(ValidationError, match="one parameter per sample"):
            EdgeCurve(id="e", endpoints=("a", "b"), samples=samples,
                      s=np.linspace(0.0, 1.0, 10))

    def test_duplicate_ids_rejected(self):
        doc = circle_document()
        doc["vertices"].append(doc["vertices"][0])
        with pytest.raises(ValidationError, match="duplicate"):
            load_graph(doc)

    def test_unknown_endpoint_rejected(self):
        doc = circle_document()
        doc["edges"][0]["endpoints"] = ["v0", "ghost"]
        with pytest.raises(ValidationError, match="ghost"):
            load_graph(doc)

    def test_document_round_trip(self):
        for name in ("flat", "hyperbolic", "spherical"):
            space = SpaceForm(Model(name), 3, 0.0 if name == "flat" else 0.8)
            g = shapes.circle_graph(space, 0.5, 64)
            back = load_graph(shapes.graph_document(g))
            assert back.space == g.space
            for e0, e1 in zip(g.edges, back.edges):
                assert np.max(space.dist(e0.samples, e1.samples)) < 1e-12


def _long_hyperbolic_document(n=4096):
    space = SpaceForm(Model.HYPERBOLIC, 3, 1.0)
    return shapes.graph_document(shapes.circle_graph(space, 0.8, n))


def _single_fault(doc, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_graph(doc)


class TestIngestErrors:
    """One fault in an otherwise valid document names the same point and
    reads the same as when samples were checked one at a time."""

    def test_off_manifold_sample_mid_edge(self):
        doc = _long_hyperbolic_document()
        doc["edges"][0]["samples"][2000] = [
            1.01 * c for c in doc["edges"][0]["samples"][2000]]
        _single_fault(doc, "edge 'c0' sample: point is off the manifold "
                           "beyond tolerance 1e-06")

    def test_wrong_coordinate_count_sample(self):
        doc = _long_hyperbolic_document()
        doc["edges"][0]["samples"][2000] = doc["edges"][0]["samples"][2000][:3]
        _single_fault(doc, "edge 'c0' sample: expected 4 coordinates")

    def test_wrong_coordinate_count_vertex(self):
        doc = _long_hyperbolic_document()
        doc["vertices"][0]["coords"].append(0.0)
        _single_fault(doc, "vertex 'v0': expected 4 coordinates")

    def test_non_positive_time_coordinate_sample(self):
        doc = _long_hyperbolic_document()
        sample = doc["edges"][0]["samples"][2000]
        sample[0] = -sample[0]
        _single_fault(doc, "edge 'c0' sample: hyperbolic points need a "
                           "positive time coordinate")

    @pytest.mark.parametrize("model, coords, message", [
        ("spherical", [0, 0, 0, 0],
         "cannot project the origin onto the sphere"),
        ("hyperbolic", [1, 2, 0, 0],
         "coordinates are not timelike; cannot project")])
    def test_unprojectable_vertex_names_the_point(self, model, coords,
                                                  message):
        space = SpaceForm(Model(model), 3, 1.0)
        doc = shapes.graph_document(shapes.circle_graph(space, 0.5, 64))
        doc["vertices"][0]["coords"] = coords
        _single_fault(doc, f"vertex 'v0': {message}")

    # numpy reads a boolean among numbers as 1 or 0: [True, 0, 0] would
    # load as the circle's first point, and a row of booleans among float
    # rows as floats
    @pytest.mark.parametrize("bad", [["x", 0, 0], [None, 0, 0],
                                     [float("nan"), 0, 0], [[0, 0], 0, 0],
                                     ["1.0", "0", "0"], [True, 0, 0],
                                     [0.5, False, 0.0], [1, 0.5, True],
                                     [True, False, False]])
    def test_non_numeric_coordinates_name_the_point(self, bad):
        doc = circle_document()
        doc["edges"][0]["samples"][5] = bad
        _single_fault(doc, "edge 'e0' sample: coordinates must be finite numbers")
        assert _outcome(edge_by_edge_load, doc) == (
            ValidationError, "edge 'e0' sample: coordinates must be finite numbers")
        doc = circle_document()
        doc["vertices"][0]["coords"] = bad
        _single_fault(doc, "vertex 'v0': coordinates must be finite numbers")
        assert _outcome(edge_by_edge_load, doc) == (
            ValidationError, "vertex 'v0': coordinates must be finite numbers")

    def test_boolean_coordinates_are_not_numbers(self):
        # a block of booleans only; among numbers a boolean reads as 0 or 1
        doc = circle_document()
        doc["vertices"][0]["coords"] = [True, False, False]
        _single_fault(doc, "vertex 'v0': coordinates must be finite numbers")

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_in_planar_block_is_refused(self, value):
        # every point of the circle has an exact 0, so the whole block is
        # scanned; False in place of a 0 reads as the very same number
        doc = _long_hyperbolic_document()
        assert doc["edges"][0]["samples"][2000][3] == 0.0
        doc["edges"][0]["samples"][2000][3] = value
        _single_fault(doc, "edge 'c0' sample: coordinates must be finite numbers")

    def test_planar_block_walks_no_point(self, monkeypatch):
        # 4,097 rows, each with an exact 0: one scan of the block's entry
        # types, not a _has_bool call per point
        doc = _long_hyperbolic_document()
        assert all(p[3] == 0.0 for p in doc["edges"][0]["samples"])
        calls = []
        has_bool = graph_mod._has_bool
        monkeypatch.setattr(graph_mod, "_has_bool",
                            lambda point: calls.append(point) or has_bool(point))
        assert len(load_graph(doc).samples) == 4097
        assert calls == []

    def test_overflowing_chords_name_the_edge(self):
        # the flat circle scaled by 1e160: every squared chord overflows,
        # which once gave s = inf and a tc of nan
        doc = scaled_document(circle_document(), 1e160)
        _single_fault(doc, "edge 'e0' has a chord that is not finite")
        assert _outcome(edge_by_edge_load, doc) == (
            ValidationError, "edge 'e0' has a chord that is not finite")

    def test_samples_that_are_not_two_dimensional_are_refused(self):
        for samples in ([0.0, 0.0, 0.0], [[[0.0, 0.0, 0.0]]]):
            with pytest.raises(ValidationError,
                               match="^edge 'e' needs at least two samples$"):
                graph_mod.make_edge(FLAT, "e", ("a", "b"), samples)

    def test_nan_samples_break_the_chord_rule(self):
        pts = np.linspace([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 9)
        pts[4, 1] = np.nan
        with pytest.raises(ValidationError,
                           match="^edge 'e' has a chord that is not finite$"):
            graph_mod.make_edge(FLAT, "e", ("a", "b"), pts)

    def test_first_chord_to_break_the_rule_names_its_edge(self):
        line = np.linspace([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 9)
        twice = np.insert(line, 3, line[3], axis=0)
        wild = line.copy()
        wild[2, 2] = np.inf
        for first, second, fault in ((twice, wild, "coincident consecutive"),
                                     (wild, twice, "a chord that is not")):
            with pytest.raises(ValidationError, match=f"^edge 'a' has {fault}"):
                graph_mod._edges(FLAT, np.concatenate([first, second]),
                                 [len(first), len(second)], ["a", "b"],
                                 [("u", "v"), ("v", "u")])

    def test_padded_chords_obey_the_chord_rule(self):
        # one stored chord of 1.5e-12 passes; padding to MIN_EDGE_SAMPLES
        # makes eight of 1.875e-13, which once loaded
        doc = padded_short_edge_document()
        fault = "edge 'short' has coincident consecutive samples"
        _single_fault(doc, fault)
        assert _outcome(edge_by_edge_load, doc) == (ValidationError, fault)
        with pytest.raises(ValidationError, match=f"^{fault}$"):
            graph_mod.make_edge(FLAT, "short", ("v0", "v1"),
                                doc["edges"][0]["samples"])
        # at eight times the gap the padded chords are 1.5e-12, and it loads
        g = load_graph(padded_short_edge_document(gap=1.2e-11))
        assert np.min(np.diff(g.edges[0].s)) >= 1e-12
        _assert_same_graph(g, edge_by_edge_load(
            padded_short_edge_document(gap=1.2e-11)))

    def test_first_broken_chord_names_its_edge_when_padded(self):
        # a padded chord and a stored chord break the rule: the edge first
        # in order is named, whichever kind its chord is
        short = np.array([[0.0, 0.0, 0.0], [1.5e-12, 0.0, 0.0]])
        line = np.linspace([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 9)
        twice = np.insert(line, 3, line[3], axis=0)
        for (a, b), named in (((short, twice), "a"), ((twice, short), "a"),
                              ((short, line), "a"), ((line, short), "b")):
            with pytest.raises(ValidationError, match=f"^edge '{named}' has "
                               "coincident consecutive samples$"):
                graph_mod._edges(FLAT, np.concatenate([a, b]),
                                 [len(a), len(b)], ["a", "b"],
                                 [("u", "v"), ("v", "u")])

    def test_integer_coordinates_still_load(self):
        doc = circle_document()
        doc["vertices"][0]["coords"] = [1, 0, 0]
        doc["edges"][0]["samples"][0] = [1, 0, 0]
        g = load_graph(doc)
        assert g.vertices[0].point.dtype == float
        assert g.vertices[0].point.tolist() == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("empty", [[], np.empty((0, 3))])
    def test_empty_sample_list(self, empty):
        doc = circle_document()
        doc["edges"][0]["samples"] = empty
        _single_fault(doc, "edge 'e0' sample: expected 3 coordinates")

    def test_array_input_left_unchanged(self):
        # the flat projection returns its input, and the first sample is
        # snapped onto its vertex: neither may write into the document
        doc = circle_document()
        samples = np.array(doc["edges"][0]["samples"], float)
        samples[0] += 1e-10
        doc["edges"][0]["samples"] = samples
        before = samples.copy()
        g = load_graph(doc)
        assert np.array_equal(samples, before)
        assert not np.shares_memory(g.edges[0].samples, samples)
        assert np.array_equal(g.edges[0].samples[0], g.vertices[0].point)

    def test_projection_is_one_call_per_vertex_and_edge(self, monkeypatch):
        doc = _long_hyperbolic_document(n=32768)
        calls = []
        project = SpaceForm.project_point

        def counted(self, x):
            calls.append(np.shape(x))
            return project(self, x)

        monkeypatch.setattr(SpaceForm, "project_point", counted)
        g = load_graph(doc)
        assert len(g.edges[0].samples) == 32769
        assert len(calls) <= len(doc["vertices"]) + len(doc["edges"])

    def test_each_chord_is_measured_once(self, monkeypatch):
        # the coincident-sample check and the arclength parameters read the
        # same chord lengths; the rest is a few endpoint gaps per edge
        doc = _long_hyperbolic_document(n=4096)
        rows = []
        dist = SpaceForm.dist

        def counted(self, p, q):
            out = dist(self, p, q)
            rows.append(np.size(out))
            return out

        monkeypatch.setattr(SpaceForm, "dist", counted)
        g = load_graph(doc)
        samples = sum(len(e.samples) for e in g.edges)
        assert samples == 4097
        assert sum(rows) <= samples + 4 * len(g.edges)


def _noisy_document(g, rng, sparse=False):
    """g's document with every point scaled off the manifold by about 1e-9
    and every edge end moved about 1e-10 further, so projection and end
    snapping both act.  sparse keeps every fourth sample of each edge (and
    both ends), which leaves short edges for the loader to subdivide."""
    doc = shapes.graph_document(g)
    for block in doc["vertices"]:
        block["coords"] = (np.array(block["coords"])
                           * (1.0 + 1e-9 * rng.standard_normal())).tolist()
    for block in doc["edges"]:
        x = np.array(block["samples"])
        if sparse:
            x = x[::4] if (len(x) - 1) % 4 == 0 else x[[0, len(x) // 2, -1]]
        x *= 1.0 + 1e-9 * rng.standard_normal((len(x), 1))
        x[[0, -1]] += 1e-10 * rng.standard_normal((2, x.shape[1]))
        block["samples"] = x.tolist()
    return doc


def _valid_documents():
    """(name, document) pairs in all three models: circles, polygons,
    random graphs with extra chords, and sparse copies to subdivide."""
    rng = np.random.default_rng(26)
    out = []
    for name, space in SPACES.items():
        graphs = [shapes.circle_graph(space, 0.6, 64),
                  shapes.regular_polygon_graph(space, 7, 0.8,
                                               samples_per_edge=8),
                  random_graph(space, rng, n_vertices=4, n_extra=2,
                               samples_per_edge=16)]
        for k, g in enumerate(graphs):
            out.append((f"{name}-{k}", _noisy_document(g, rng)))
            out.append((f"{name}-{k}-sparse",
                        _noisy_document(g, rng, sparse=True)))
    return out


VALID_DOCUMENTS = _valid_documents()


def _outcome(load, doc):
    """The graph load(doc) returns, or the type and text of what it raises."""
    try:
        return load(doc)
    except (ValidationError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _corrupted_document(doc, space, rng):
    """A copy of doc with one to three faults in random blocks: a sample
    off the manifold, a point with a coordinate too few, a non-finite
    coordinate, a repeated sample, an edge end off its vertex, an unknown
    endpoint, an end at the antipode of its vertex (spherical), an edge
    cut to one sample, or a vertex point mirrored through the origin."""
    doc = copy.deepcopy(doc)
    for fault in rng.integers(0, 9, size=rng.integers(1, 4)):
        eb = doc["edges"][int(rng.integers(len(doc["edges"])))]
        vb = doc["vertices"][int(rng.integers(len(doc["vertices"])))]
        x = eb["samples"]
        r = int(rng.integers(len(x)))
        end = int(rng.integers(2))
        if fault == 0:
            x[r] = [1.01 * c for c in x[r]]
        elif fault == 1:
            (vb["coords"] if rng.integers(2) else x[r]).pop()
        elif fault == 2:
            x[r][int(rng.integers(len(x[r])))] = [math.nan, math.inf][end]
        elif fault == 3:
            x.insert(r, list(x[r]))
        elif fault == 4 and len(x) > 2:  # the end takes its neighbour's neighbour
            x[-end] = list(x[-3] if end else x[2])
        elif fault == 5:
            eb["endpoints"][end] = "ghost"
        elif fault == 6 and space.model is Model.SPHERICAL:
            x[-end] = [-c for c in x[-end]]
        elif fault == 7:
            del x[1:]
        elif fault == 8:
            vb["coords"] = [-c for c in vb["coords"]]
    return doc


def _assert_same_graph(g, want):
    assert g.space == want.space
    assert [(v.id, v.point.tobytes()) for v in g.vertices] == \
        [(v.id, v.point.tobytes()) for v in want.vertices]
    assert [(e.id, e.endpoints) for e in g.edges] == \
        [(e.id, e.endpoints) for e in want.edges]
    assert g.samples.tobytes() == want.samples.tobytes()
    assert g.s.tobytes() == want.s.tobytes()
    assert np.array_equal(g.offsets, want.offsets)


class TestGraphWideLoad:
    """load_graph checks, projects and snaps all points as one array and
    gives what the block-by-block loader of builders gives: the same bits
    on valid documents, and the same first error on faulty ones."""

    @pytest.mark.parametrize("name, doc", VALID_DOCUMENTS,
                             ids=[name for name, _ in VALID_DOCUMENTS])
    def test_valid_documents_match_the_block_oracle(self, name, doc):
        _assert_same_graph(load_graph(doc), edge_by_edge_load(doc))

    @pytest.mark.parametrize("model", sorted(SPACES))
    def test_faulty_documents_match_the_block_oracle(self, model):
        space = SPACES[model]
        rng = np.random.default_rng(sorted(SPACES).index(model))
        docs = [_noisy_document(g, rng) for g in (
            shapes.regular_polygon_graph(space, 6, 0.8, samples_per_edge=8),
            random_graph(space, rng, n_vertices=4, n_extra=2,
                         samples_per_edge=12))]
        faults = 0
        for _ in range(60):
            bad = _corrupted_document(docs[int(rng.integers(2))], space, rng)
            got, want = _outcome(load_graph, bad), \
                _outcome(edge_by_edge_load, bad)
            if isinstance(want, tuple):
                faults += 1
                assert got == want
            else:
                _assert_same_graph(got, want)
        assert faults >= 40

    def test_edges_are_read_only_views_of_the_graph(self):
        graphs = [load_graph(doc) for _, doc in VALID_DOCUMENTS[::3]]
        graphs += [shapes.cube_skeleton_graph(), shapes.theta_graph(),
                   resample_arclength(graphs[0], 0.05)]
        for g in graphs:
            for e in g.edges:
                assert np.shares_memory(e.samples, g.samples)
                assert np.shares_memory(e.s, g.s)
                with pytest.raises(ValueError):
                    e.samples[0, 0] = 0.0
                with pytest.raises(ValueError):
                    e.s[-1] = 0.0
            with pytest.raises(ValueError):
                g.samples[0, 0] = 0.0
            with pytest.raises(ValueError):
                g.end_points[0, 0] = 0.0

    def test_no_graph_rebinds_an_edge_it_does_not_own(self):
        g = load_graph(_long_hyperbolic_document(n=64))
        twin = EmbeddedGraph(space=g.space, vertices=g.vertices, edges=g.edges)
        edge_unit_tangents(g.space, g.edges[0])  # through a one-edge graph
        for e in g.edges:
            assert np.shares_memory(e.samples, g.samples)
            assert not np.shares_memory(e.samples, twin.samples)
        assert twin.samples.tobytes() == g.samples.tobytes()

    def test_kernel_calls_do_not_grow_with_the_edge_count(self, monkeypatch):
        space = SpaceForm(Model.HYPERBOLIC, 3, 1.0)
        docs = [shapes.graph_document(shapes.regular_polygon_graph(
            space, m, 0.8, samples_per_edge=8)) for m in (4, 256)]
        calls = Counter()
        for name in ("project_point", "manifold_offset", "dist"):
            def counted(self, *args, _name=name, _f=getattr(SpaceForm, name)):
                calls[_name] += 1
                return _f(self, *args)
            monkeypatch.setattr(SpaceForm, name, counted)
        seen = []
        for doc in docs:
            calls.clear()
            load_graph(doc)
            seen.append(dict(calls))
        assert seen[0] == seen[1]
        assert seen[0]["project_point"] == 1

    def test_repeated_vertex_id_is_judged_after_the_blocks(self):
        # validate_graph alone rejects a repeated vertex id, so a fault in
        # any block, even a later one, is reported first
        doc = circle_document()
        doc["vertices"].append(dict(doc["vertices"][0]))
        _single_fault(copy.deepcopy(doc), "duplicate vertex id 'v0'")
        doc["edges"][0]["samples"][5] = [math.nan, 0.0, 0.0]
        _single_fault(doc, "edge 'e0' sample: coordinates must be finite "
                           "numbers")

    @pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf,
                                           -math.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance):
        doc = circle_document()
        doc["tolerance"] = tolerance
        _single_fault(doc, "malformed graph document: tolerance must be "
                           "finite and nonnegative")

    @pytest.mark.parametrize("model, curv, message", [
        ("hyperbolic", 1e-300, "hyperbolic curvature scale 1e-300 is out of "
         "range: its square is not a normal float"),
        ("spherical", 1e-160, "spherical curvature scale 1e-160 is out of "
         "range: its square is not a normal float"),
        ("spherical", 1e300, "spherical curvature scale 1e+300 is out of "
         "range: its square is not a normal float"),
        ("hyperbolic", math.inf, "hyperbolic curvature scale inf is out of "
         "range: its square is not a normal float"),
        ("hyperbolic", math.nan, "hyperbolic model needs a positive "
         "curvature scale"),
    ])
    def test_curvature_scale_the_models_cannot_hold(self, model, curv,
                                                    message):
        doc = circle_document()
        doc["space"].update(model=model, curv=curv)
        _single_fault(doc, f"malformed graph document: {message}")

    def test_dimension_no_array_axis_can_hold(self):
        doc = circle_document()
        doc["space"]["dim"] = 10 ** 30
        _single_fault(doc, f"malformed graph document: manifold dimension "
                           f"{10 ** 30} is too large")

    def test_first_block_fault_is_raised_before_any_array(self):
        # a dimension an axis can hold but no memory can: every block
        # fails, and the first one's fault is raised before any array of
        # that width is built
        doc = circle_document()
        doc["space"]["dim"] = 10 ** 18
        _single_fault(doc, f"vertex 'v0': expected {10 ** 18} coordinates")
        _single_fault({**doc, "vertices": [], "edges": []},
                      "a graph needs at least one closed arc")


def _hyperbolic_loop_file(path, n):
    g = shapes.wavy_closed_curve_graph(SpaceForm(Model.HYPERBOLIC, 3, 1.0),
                                       n=n)
    path.write_text(json.dumps(shapes.graph_document(g)))
    return path


@pytest.fixture(scope="module")
def long_loop_file(tmp_path_factory):
    """A 32,769-sample hyperbolic loop, the size of the benchmark's."""
    return _hyperbolic_loop_file(
        tmp_path_factory.mktemp("loop") / "loop.graph.json", 32768)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic collector enabled or disabled as the parameter says, and
    restored to its state before the test afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestLoadWithCollectorPaused:
    """load_graph_file decodes and builds with the cyclic collector paused,
    frees the document before it resumes, and leaves the collector as it
    found it on every path."""

    @pytest.mark.parametrize("content, message", [
        (b"[", "not valid JSON: Expecting value"),
        (b"\xff\xfe{}", "not valid JSON: 'utf-8' codec can't decode"),
        (b"[" * 100_000, "not valid JSON: maximum recursion depth exceeded"),
        (json.dumps({**circle_document(), "tolerance": -1.0}).encode(),
         "malformed graph document: tolerance must be finite"),
        (json.dumps(circle_document()).replace('["v0", "v0"]',
                                               '["v0", "w"]').encode(),
         "edge 'e0' references unknown vertex 'w'"),
    ], ids=["invalid-json", "not-utf-8", "too-deep", "bad-tolerance",
            "unknown-vertex"])
    def test_failed_load_leaves_the_collector_as_found(
            self, tmp_path, collector, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            graph_mod.load_graph_file(path)
        assert gc.isenabled() is collector

    def test_load_leaves_the_collector_as_found(self, tmp_path, collector):
        path = _hyperbolic_loop_file(tmp_path / "loop.json", 64)
        assert len(graph_mod.load_graph_file(path).samples) == 65
        assert gc.isenabled() is collector

    def test_long_loop_runs_no_collection_and_frees_the_document(
            self, long_loop_file, monkeypatch):
        graph_mod.load_graph_file(long_loop_file)  # imports json
        gc.collect()
        seen, resumed = [], []

        def record(phase, info):
            seen.append((phase, info["generation"]))

        def enable():
            resumed.append(gc.get_count()[0])
            gc.enable()

        monkeypatch.setattr(graph_mod, "gc", types.SimpleNamespace(
            isenabled=gc.isenabled, disable=gc.disable, enable=enable))
        before = gc.get_count()[0]
        gc.callbacks.append(record)
        try:
            g = graph_mod.load_graph_file(long_loop_file)
        finally:
            gc.callbacks.remove(record)
        after = gc.get_count()[0]
        assert gc.isenabled()
        assert seen == []
        # a document still held would leave some 33k containers counted,
        # at the resume as well as after it
        assert len(resumed) == 1
        assert abs(resumed[0] - before) <= 700
        assert abs(after - before) <= 700
        assert len(g.samples) == 32769

    def test_equals_load_graph_of_the_decoded_document(self, long_loop_file):
        with open(long_loop_file, encoding="utf-8") as fh:
            want = load_graph(json.load(fh))
        _assert_same_graph(graph_mod.load_graph_file(long_loop_file), want)


def _document_round_trips(g):
    back = load_graph(shapes.graph_document(g))
    assert back.space == g.space
    assert [v.id for v in back.vertices] == [v.id for v in g.vertices]
    assert [(e.id, e.endpoints) for e in back.edges] == \
        [(e.id, e.endpoints) for e in g.edges]
    for e0, e1 in zip(g.edges, back.edges):
        assert e1.samples.shape == e0.samples.shape
        assert np.max(g.space.dist(e0.samples, e1.samples)) < 1e-12
        assert np.max(np.abs(e1.s - e0.s)) < 1e-12 * (1.0 + e0.length)


MODELS = st.sampled_from(["flat", "hyperbolic", "spherical"])
CURVS = st.sampled_from([0.5, 1.0, 1.7])


def _space(model, curv):
    return SpaceForm(Model(model), 3, 0.0 if model == "flat" else curv)


class TestDocumentRoundTrip:
    # radii are in units of 1/curv, so spherical graphs stay well inside pi/b
    @settings(max_examples=25, deadline=None)
    @given(MODELS, CURVS, st.floats(0.05, 1.2), st.integers(8, 400))
    def test_circle(self, model, curv, radius, n):
        space = _space(model, curv)
        scale = 1.0 if model == "flat" else 1.0 / curv
        _document_round_trips(shapes.circle_graph(space, radius * scale, n))

    @settings(max_examples=25, deadline=None)
    @given(MODELS, CURVS, st.floats(0.3, 1.0), st.floats(0.0, 0.25),
           st.integers(2, 5), st.integers(16, 400))
    def test_wavy_loop(self, model, curv, base, wobble, lobes, n):
        space = _space(model, curv)
        scale = 1.0 if model == "flat" else 1.0 / curv
        _document_round_trips(shapes.wavy_closed_curve_graph(
            space, base * scale, wobble * scale, lobes, n))

    @settings(max_examples=15, deadline=None)
    @given(MODELS, st.integers(0, 2 ** 32 - 1), st.integers(8, 200))
    def test_theta_graph(self, model, seed, n):
        space = _space(model, 1.0)
        g = random_graph(space, np.random.default_rng(seed), n_vertices=2,
                         n_extra=1, samples_per_edge=n)
        assert sorted(g.valence(v.id) for v in g.vertices) == [3, 3]
        _document_round_trips(g)


def _reference_diameter_violated(space, points):
    """The quadratic scan: every pair's chord against the limit chord."""
    limit_chord = 2.0 / space.curv * math.sin(0.5 * (math.pi - ANTIPODAL_SLACK))
    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    return bool(np.any(d >= limit_chord))


def _diameter_violated(space, points):
    try:
        _check_spherical_diameter(space, points)
    except ValidationError as exc:
        assert "diameter" in str(exc)
        return True
    return False


def _at_angle(x, rng, angle):
    """A point at the given angle from x on the sphere through x."""
    u = rng.standard_normal(len(x))
    u -= (u @ x) / (x @ x) * x
    u *= np.linalg.norm(x) / np.linalg.norm(u)
    return math.cos(angle) * x + math.sin(angle) * u


def _equator_bulged_triangle(n_per_edge, bulge=0.3):
    """Corners on the equator of the unit 2-sphere 120 degrees apart, each
    edge rising to latitude ``bulge`` halfway.  Its diameter is pi - bulge,
    though its corners lie exactly pi/2 from its extrinsic mean (the pole),
    so no cap of half the limit angle about the mean holds it."""
    space = SpaceForm(Model.SPHERICAL, 2, 1.0)
    t = np.linspace(0.0, 1.0, n_per_edge + 1)

    def point(lon, lat):
        return np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon),
                         np.sin(lat)], axis=-1)

    third = 2.0 * math.pi / 3.0
    vertices = [{"id": f"v{k}", "coords": point(k * third, 0.0).tolist()}
                for k in range(3)]
    edges = [{"id": f"e{k}", "endpoints": [f"v{k}", f"v{(k + 1) % 3}"],
              "samples": point(third * (k + t), bulge * np.sin(math.pi * t)).tolist()}
             for k in range(3)]
    return space, {"space": {"model": "spherical", "dim": 2, "curv": 1.0},
                   "vertices": vertices, "edges": edges}


class TestSphericalDiameter:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 300),
           st.sampled_from([2, 3]), CURVS, st.floats(0.0, math.pi),
           st.integers(0, 3),
           st.sampled_from([-1e-12, 0.0, 1e-12, -1e-9, -1e-6]))
    def test_agrees_with_quadratic_scan(self, seed, n, dim, curv, cap, planted,
                                        offset):
        """Random samples in a cap of angular radius ``cap``, plus up to
        three near-antipodal pairs planted at random indices."""
        rng = np.random.default_rng(seed)
        space = SpaceForm(Model.SPHERICAL, dim, curv)
        center = space.project_point(rng.standard_normal(dim + 1))
        pts = np.array([_at_angle(center, rng, a)
                        for a in cap * np.sqrt(rng.uniform(size=n))])
        for _ in range(planted):
            i, j = rng.choice(n, size=2, replace=False)
            pts[j] = _at_angle(pts[i], rng, math.pi - ANTIPODAL_SLACK + offset)
        pts = space.project_point(pts)
        assert _diameter_violated(space, pts) == \
            _reference_diameter_violated(space, pts)

    def test_zero_mean_without_antipodes_passes(self):
        # three equator points 120 degrees apart: the mean is the origin up
        # to rounding, the diameter is 2 pi / 3
        space = SpaceForm(Model.SPHERICAL, 2, 1.0)
        a = 2.0 * math.pi / 3.0 * np.arange(3)
        pts = np.stack([np.cos(a), np.sin(a), np.zeros(3)], axis=1)
        assert not _diameter_violated(space, pts)
        assert _diameter_violated(space, np.vstack([pts, -pts[:1]]))

    def test_graph_outside_every_cap_loads(self):
        _, doc = _equator_bulged_triangle(64)
        g = load_graph(doc)
        assert len(g.samples) == 3 * 65

    @pytest.fixture()
    def no_tree(self, monkeypatch):
        """Make the exact query fail loudly whenever it runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("exact query reached")

        monkeypatch.setattr("scipy.spatial.cKDTree", refuse)

    def test_loop_in_a_hemisphere_skips_the_exact_query(self, no_tree):
        space = SpaceForm(Model.SPHERICAL, 3, 1.0)
        g = shapes.wavy_closed_curve_graph(space, 1.3, 0.12, 3, 512)
        points = g.samples
        assert np.max(space.dist(space.base_point(), points)) < 1.5
        loaded = load_graph(shapes.graph_document(g)).samples
        assert loaded.shape == points.shape
        assert np.max(space.dist(loaded, points)) < 1e-12

    def test_graph_outside_every_cap_reaches_the_exact_query(self, no_tree):
        _, doc = _equator_bulged_triangle(64)
        with pytest.raises(AssertionError, match="exact query reached"):
            load_graph(doc)

    def test_planted_antipode_in_large_graph_rejected(self):
        _, doc = _equator_bulged_triangle(11000)
        samples = doc["edges"][0]["samples"]
        assert 3 * len(samples) >= 32768
        samples[5000] = [-c for c in doc["edges"][1]["samples"][3000]]
        with pytest.raises(ValidationError, match="diameter"):
            load_graph(doc)


class TestResample:
    def test_circle_circumference(self):
        g = load_graph(circle_document(n=4096))
        h = 2.0 * math.pi / 256.0
        rg = resample_arclength(g, h)
        n = len(rg.edges[0].samples)
        assert abs(n - 257) <= 2
        assert rg.edges[0].length == pytest.approx(2.0 * math.pi, rel=1e-4)

    def test_square_side_lengths(self):
        g = shapes.square_graph(FLAT, 1.0, samples_per_edge=50)
        rg = resample_arclength(g, 0.01)
        for e in rg.edges:
            assert e.length == pytest.approx(1.0, abs=1e-6)

    def test_idempotent(self):
        g = shapes.circle_graph(FLAT, 1.0, 512)
        h = 0.05
        once = resample_arclength(g, h)
        twice = resample_arclength(once, h)
        assert len(once.edges[0].samples) == len(twice.edges[0].samples)
        gap = np.max(FLAT.dist(once.edges[0].samples, twice.edges[0].samples))
        assert gap < 1e-5

    def test_chord_spacing_window(self):
        g = shapes.circle_graph(FLAT, 1.0, 1024)
        rg = resample_arclength(g, 0.05)
        chords = np.diff(rg.edges[0].s)
        assert np.all(chords >= 0.5 * 0.05)
        assert np.all(chords <= 1.5 * 0.05)

    def test_endpoints_fixed(self):
        g = shapes.theta_graph(samples_per_edge=64)
        rg = resample_arclength(g, 0.02)
        for e0, e1 in zip(g.edges, rg.edges):
            assert np.array_equal(e0.samples[0], e1.samples[0])
            assert np.array_equal(e0.samples[-1], e1.samples[-1])

    def test_total_length_preserved(self):
        rng = np.random.default_rng(0)
        g = random_graph(SpaceForm(Model.HYPERBOLIC, 3, 1.0), rng,
                         samples_per_edge=256)
        rg = resample_arclength(g, g.total_length / 400.0)
        assert rg.total_length == pytest.approx(g.total_length, rel=1e-4)

    @pytest.mark.parametrize("model", sorted(SPACES))
    def test_parameters_come_from_one_edge_build(self, model, monkeypatch):
        # every resampled edge is built by the loader's _edges, in one call,
        # and its s is the running sum of space.dist over its chords
        space = SPACES[model]
        g = random_graph(space, np.random.default_rng(7), samples_per_edge=64)
        calls = []
        edges = graph_mod._edges
        monkeypatch.setattr(graph_mod, "_edges",
                            lambda *args: calls.append(args) or edges(*args))
        for h in (g.total_length / 300.0, g.total_length / 40.0):
            calls.clear()
            rg = resample_arclength(g, h)
            assert len(calls) == 1
            for e in rg.edges:
                x = e.samples
                want = np.concatenate(([0.0], np.cumsum(space.dist(x[:-1], x[1:]))))
                assert np.array_equal(e.s, want)

    def test_step_exceeding_shortest_edge_rejected(self):
        g = shapes.square_graph(FLAT, 1.0)
        with pytest.raises(ValidationError, match="exceeds"):
            resample_arclength(g, 1.5)

    @pytest.mark.parametrize("h", [1e-9, 1e-300, 5e-324])
    def test_too_fine_step_rejected_before_allocating(self, h, monkeypatch):
        # 1e-9 would make about 6e9 samples and 5e-324 overflows length / h;
        # np.linspace would size the resampled edge, so it must not be reached
        g = shapes.circle_graph(FLAT, 1.0, 1024)
        monkeypatch.setattr(np, "linspace", refuse_allocation)
        with pytest.raises(ValidationError, match="more than 1048576 samples"):
            resample_arclength(g, h)

    def test_sample_bound_counts_every_sample(self, monkeypatch):
        monkeypatch.setattr(graph_mod, "MAX_RESAMPLED_SAMPLES", 100)
        g = shapes.circle_graph(FLAT, 1.0, 1024)
        # 99 chords make 100 samples, 100 chords 101
        assert len(resample_arclength(
            g, g.total_length / 98.5).edges[0].samples) == 100
        with pytest.raises(ValidationError, match="more than 100 samples"):
            resample_arclength(g, g.total_length / 99.5)


class CountedEdges(list):
    """An edge list that counts the loops over it."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


INCIDENCE_CASES = {
    "random": lambda: [random_graph(FLAT, np.random.default_rng(seed),
                                    n_vertices=4, n_extra=3,
                                    samples_per_edge=8) for seed in range(20)],
    "theta": lambda: [shapes.theta_graph(samples_per_edge=16)],
    "circle": lambda: [shapes.circle_graph(FLAT, 1.0, 64)],
    "figure_eight": lambda: [figure_eight_graph(FLAT)],
}


class TestVertexStar:
    def test_isolated_vertex_rejected(self):
        # validate_graph would refuse this graph, so it is built unvalidated
        g = shapes.circle_graph(FLAT, 1.0, 16)
        lonely = EmbeddedGraph(
            space=FLAT, vertices=g.vertices + [Vertex(id="lonely",
                                                      point=np.ones(3))],
            edges=g.edges)
        with pytest.raises(ValidationError,
                           match="^vertex 'lonely' has no incident edges$"):
            vertex_star(lonely, "lonely")

    @pytest.mark.parametrize("case", sorted(INCIDENCE_CASES))
    def test_edge_ends_match_a_scan(self, case):
        for g in INCIDENCE_CASES[case]():
            for v in g.vertices:
                scan = [(e, end) for e in g.edges for end in (0, 1)
                        if e.endpoints[end] == v.id]
                # EdgeCurve compares by identity, so this checks order,
                # ends and the edge objects themselves
                assert g.edge_ends_at(v.id) == scan
                assert g.valence(v.id) == len(scan)

    def test_stars_do_not_rescan_edges(self):
        g = shapes.regular_polygon_graph(FLAT, 2000, 1.0, samples_per_edge=8)
        g.edges = CountedEdges(g.edges)
        stars = [vertex_star(g, v.id) for v in g.vertices]
        assert all(len(star) == 2 for star in stars)
        assert g.edges.iterations == 0

    def test_straight_through_vertex_antiparallel(self):
        corners = np.array([[-0.5, -0.5], [0.0, -0.5], [0.5, -0.5],
                            [0.5, 0.5], [-0.5, 0.5]])
        coords = np.zeros((5, 3))
        coords[:, :2] = corners
        g = shapes.polygon_graph(FLAT, coords, samples_per_edge=32)
        star = vertex_star(g, "v1")
        assert len(star) == 2
        ang = FLAT.angle_between(star[0].vec, star[1].vec)
        assert ang == pytest.approx(math.pi, abs=1e-6)

    def test_symmetric_junction_120_degrees(self):
        g = shapes.theta_graph(samples_per_edge=128)
        star = vertex_star(g, "p0")
        assert len(star) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                ang = FLAT.angle_between(star[i].vec, star[j].vec)
                assert ang == pytest.approx(2.0 * math.pi / 3.0, abs=1e-4)

    def test_cube_corner_orthogonal(self):
        g = shapes.cube_skeleton_graph()
        star = vertex_star(g, "v0")
        assert len(star) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                ang = FLAT.angle_between(star[i].vec, star[j].vec)
                assert ang == pytest.approx(math.pi / 2.0, abs=1e-4)

    def test_loop_contributes_two_tangents(self):
        g = shapes.circle_graph(FLAT, 1.0, 256)
        star = vertex_star(g, "v0")
        assert len(star) == 2

    def test_degenerate_head_end_rejected(self):
        # a flat two-arc loop from a to b; the hand-built arc "bad" repeats
        # its last sample, so its end at the head vertex b has no direction
        t = np.linspace(0.0, math.pi, 17)
        upper = np.stack([-np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
        lower = upper * np.array([1.0, -1.0, 1.0])
        bad = np.concatenate([lower, lower[-1:]], axis=0)
        a, b = upper[0], upper[-1]
        edges = [EdgeCurve(id=eid, endpoints=("a", "b"), samples=pts,
                           s=arclength_params(FLAT, pts))
                 for eid, pts in (("good", upper), ("bad", bad))]
        g = EmbeddedGraph(space=FLAT, vertices=[Vertex("a", a), Vertex("b", b)],
                          edges=edges)
        with pytest.raises(ValidationError, match="'bad' is degenerate at 'b'"):
            vertex_star(g, "b")


def two_arc_loop(bad_end):
    """A flat two-arc loop from a to b, built unvalidated, whose arc "bad"
    repeats its first sample (bad_end 0) or its last (bad_end 1), so that
    end has no direction and its parameters repeat a value."""
    t = np.linspace(0.0, math.pi, 17)
    upper = np.stack([-np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    lower = upper * np.array([1.0, -1.0, 1.0])
    bad = np.insert(lower, 0 if bad_end == 0 else len(lower),
                    lower[-bad_end], axis=0)
    edges = [EdgeCurve(id=eid, endpoints=("a", "b"), samples=pts,
                       s=arclength_params(FLAT, pts))
             for eid, pts in (("good", upper), ("bad", bad))]
    return EmbeddedGraph(space=FLAT, edges=edges, vertices=[
        Vertex("a", upper[0]), Vertex("b", upper[-1])])


class TestStarTableRejections:
    """The star table checks every vertex before it builds any stencil, and
    its rejections read as vertex_star's always did."""

    @pytest.mark.parametrize("end,vertex", [(0, "a"), (1, "b")])
    def test_degenerate_end_rejected_before_any_stencil(self, monkeypatch,
                                                        end, vertex):
        built = []
        build = _num.first_derivative_stencil

        def counted(s, bounds=None):
            built.append(s)
            return build(s, bounds)

        monkeypatch.setattr(_num, "first_derivative_stencil", counted)
        message = f"^edge 'bad' is degenerate at '{vertex}'$"
        with warnings.catch_warnings():
            # a stencil over the repeated parameter would divide by zero
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=message):
                star_table(two_arc_loop(end))
            with pytest.raises(ValidationError, match=message):
                vertex_star(two_arc_loop(end), vertex)
        assert built == []

    def test_isolated_vertex_rejected_by_table_and_tc(self):
        g = shapes.circle_graph(FLAT, 1.0, 16)
        lonely = EmbeddedGraph(
            space=FLAT, vertices=g.vertices + [Vertex(id="lonely",
                                                      point=np.ones(3))],
            edges=g.edges)
        message = "^vertex 'lonely' has no incident edges$"
        with pytest.raises(ValidationError, match=message):
            star_table(lonely)
        with pytest.raises(ValidationError, match=message):
            cone_total_curvature(FLAT, lonely)


class TestStackedLayout:
    def test_graph_without_edges_reaches_validation(self):
        document = circle_document()
        document["edges"] = []
        with pytest.raises(ValidationError,
                           match="^a graph needs at least one closed arc$"):
            load_graph(document)

    def test_samples_is_one_read_only_array(self):
        g = shapes.cube_skeleton_graph()
        samples = g.samples
        assert np.array_equal(samples,
                              np.concatenate([e.samples for e in g.edges]))
        with pytest.raises(ValueError):
            samples[0, 0] = 1.0
        with pytest.raises(ValueError):
            g.s[0] = 1.0

    @pytest.mark.parametrize("case", sorted(INCIDENCE_CASES))
    def test_layout_matches_a_scan(self, case):
        for g in INCIDENCE_CASES[case]():
            sizes = [len(e.samples) for e in g.edges]
            starts = np.cumsum([0] + sizes)
            assert np.array_equal(g.offsets, starts)
            assert np.array_equal(g.s, np.concatenate([e.s for e in g.edges]))
            for j, v in enumerate(g.vertices):
                scan = [starts[i] + end * (sizes[i] - 1)
                        for i, e in enumerate(g.edges) for end in (0, 1)
                        if e.endpoints[end] == v.id]
                rows = g.end_rows[g.end_offsets[j]:g.end_offsets[j + 1]]
                assert rows.tolist() == scan


# base graphs of the validation oracle: a polygon and a circle in each
# model, and the cube and theta graphs in the flat one
VALIDATION_CASES = {
    "cube": lambda: shapes.cube_skeleton_graph(samples_per_edge=8),
    "theta": lambda: shapes.theta_graph(samples_per_edge=16),
    **{f"polygon-{name}": lambda space=space: shapes.regular_polygon_graph(
        space, 5, 0.8, samples_per_edge=8) for name, space in SPACES.items()},
    **{f"circle-{name}": lambda space=space: shapes.circle_graph(space, 0.6, 32)
       for name, space in SPACES.items()},
}


def corrupted_graph(g, rng):
    """g, unvalidated, after one to three random faults: an endpoint renamed
    to an unknown id, an end moved off its vertex along the manifold by
    1e-10 to 1e-1, an edge dropped, an isolated vertex added."""
    space, vertices, edges = g.space, list(g.vertices), list(g.edges)
    for fault in rng.integers(0, 4, size=rng.integers(1, 4)):
        if fault == 3:
            vertices.append(Vertex(id=f"lonely{len(vertices)}",
                                   point=space.base_point()))
            continue
        if not edges:
            continue
        i, end = int(rng.integers(len(edges))), int(rng.integers(2))
        e = edges[i]
        if fault == 0:
            endpoints = list(e.endpoints)
            endpoints[end] = f"ghost{i}"
            edges[i] = EdgeCurve(id=e.id, endpoints=tuple(endpoints),
                                 samples=e.samples, s=e.s)
        elif fault == 1:
            samples = e.samples.copy()
            p = samples[-end]
            step = rng.normal(size=space.dim) @ space.tangent_basis(p)
            samples[-end] = space.exp(p, step * 10.0 ** rng.uniform(-10, -1)
                                      / space.norm(step))
            edges[i] = EdgeCurve(id=e.id, endpoints=e.endpoints,
                                 samples=samples, s=e.s)
        else:
            del edges[i]
    return EmbeddedGraph(space=space, vertices=vertices, edges=edges)


class TestValidation:
    """validate_graph judges all edge-ends in one array test and reports
    what an edge-end by edge-end scan reports."""

    @pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
    def test_messages_match_the_loop_oracle(self, case):
        g = VALIDATION_CASES[case]()
        rng = np.random.default_rng(sorted(VALIDATION_CASES).index(case))
        faults = 0
        for _ in range(40):
            bad = corrupted_graph(g, rng)
            want = loop_validate_message(bad)
            if want is None:
                assert validate_graph(bad) is bad
                continue
            faults += 1
            with pytest.raises(ValidationError) as exc:
                validate_graph(bad)
            assert str(exc.value) == want
        assert faults >= 30

    def test_far_spherical_ends_match_the_loop_oracle(self):
        # a spherical end far from its vertex fails on its own distance,
        # which raises near the antipode, but only where a scan reaches it
        space = SPACES["spherical"]
        g = shapes.regular_polygon_graph(space, 5, 0.8, samples_per_edge=8)

        def moved(e, end, point=None, endpoints=None):
            samples = e.samples.copy()
            if point is not None:
                samples[-end] = point
            return EdgeCurve(id=e.id, endpoints=endpoints or e.endpoints,
                             samples=samples, s=e.s)

        quarter = space.exp(g.vertex_point("v4"), 0.5 * math.pi / space.curv
                            * space.tangent_basis(g.vertex_point("v4"))[2])
        antipode = -g.vertex_point("v4")
        ghost = moved(g.edges[0], 0, endpoints=("ghost", "v1"))
        cases = [({3: moved(g.edges[3], 1, quarter)}, ValidationError),
                 ({3: moved(g.edges[3], 1, antipode)}, DiameterBoundError),
                 ({0: ghost, 3: moved(g.edges[3], 1, antipode)},
                  ValidationError)]
        for swaps, error in cases:
            bad = EmbeddedGraph(space=space, vertices=g.vertices, edges=[
                swaps.get(i, e) for i, e in enumerate(g.edges)])
            with pytest.raises(error) as exc:
                validate_graph(bad)
            if error is ValidationError:
                assert str(exc.value) == loop_validate_message(bad)

    @pytest.mark.parametrize("moved", [False, True])
    def test_repeated_vertex_id_rejected(self, moved):
        g = shapes.regular_polygon_graph(FLAT, 5, 1.0, samples_per_edge=8)
        point = g.vertices[0].point + (1.0 if moved else 0.0)
        twin = EmbeddedGraph(space=FLAT, edges=g.edges, vertices=g.vertices
                             + [Vertex(id="v0", point=point)])
        with pytest.raises(ValidationError,
                           match="^duplicate vertex id 'v0'$"):
            validate_graph(twin)

    def test_edges_are_not_iterated(self):
        g = shapes.regular_polygon_graph(FLAT, 2000, 1.0, samples_per_edge=8)
        g.edges = CountedEdges(g.edges)
        assert validate_graph(g) is g
        assert g.edges.iterations == 0

    def test_one_endpoint_distance_call(self, monkeypatch):
        g = shapes.regular_polygon_graph(FLAT, 64, 1.0, samples_per_edge=8)
        calls = []
        dist = SpaceForm.dist

        def counted(self, p, q):
            calls.append(len(p))
            return dist(self, p, q)

        monkeypatch.setattr(SpaceForm, "dist", counted)
        validate_graph(g)
        assert calls == [128]


def _check_double_circuit(graph):
    walk = euler_double_circuit(graph)
    assert len(walk) == 2 * len(graph.edges)
    counts = Counter(t.edge_id for t in walk)
    assert all(counts[e.id] == 2 for e in graph.edges)
    for a, b in zip(walk, walk[1:]):
        assert a.head == b.tail
    assert walk[0].tail == walk[-1].head
    ends = {e.id: set(e.endpoints) for e in graph.edges}
    for t in walk:
        assert {t.tail, t.head} <= ends[t.edge_id] | {t.tail}
        assert t.tail in ends[t.edge_id] and t.head in ends[t.edge_id]


class TestEulerDoubleCircuit:
    def test_graph_without_edges_rejected(self):
        g = EmbeddedGraph(space=FLAT,
                          vertices=[Vertex(id="v", point=np.zeros(3))],
                          edges=[])
        with pytest.raises(ValidationError, match="^graph has no edges$"):
            euler_double_circuit(g)

    def test_single_loop(self):
        g = shapes.circle_graph(FLAT, 1.0, 64)
        _check_double_circuit(g)

    def test_cycle_length_doubles(self):
        g = shapes.square_graph(FLAT, 1.0)
        walk = euler_double_circuit(g)
        assert len(walk) == 8
        _check_double_circuit(g)

    def test_theta_graph(self):
        g = shapes.theta_graph(samples_per_edge=16)
        walk = euler_double_circuit(g)
        assert len(walk) == 6
        _check_double_circuit(g)

    def test_cube_skeleton(self):
        g = shapes.cube_skeleton_graph(samples_per_edge=8)
        walk = euler_double_circuit(g)
        assert len(walk) == 24
        _check_double_circuit(g)

    def test_random_connected_graphs(self):
        rng = np.random.default_rng(21)
        for k in range(100):
            n_v = int(rng.integers(2, 6))
            n_e = int(rng.integers(0, 4))
            g = random_graph(FLAT, rng, n_vertices=n_v, n_extra=n_e,
                             samples_per_edge=8)
            _check_double_circuit(g)

    def test_non_loop_edges_cross_both_ways(self):
        rng = np.random.default_rng(22)
        graphs = [shapes.theta_graph(samples_per_edge=16),
                  shapes.cube_skeleton_graph(samples_per_edge=8),
                  figure_eight_graph(FLAT)]
        graphs += [random_graph(FLAT, rng, n_vertices=int(rng.integers(2, 6)),
                                n_extra=int(rng.integers(0, 4)),
                                samples_per_edge=8) for _ in range(50)]
        for g in graphs:
            crossings = {e.id: [] for e in g.edges}
            for t in euler_double_circuit(g):
                crossings[t.edge_id].append((t.tail, t.head))
            for e in g.edges:
                u, w = e.endpoints
                if u != w:
                    assert sorted(crossings[e.id]) == sorted([(u, w), (w, u)])

    def test_long_cycle_needs_no_recursion(self):
        # a 2,000-deep depth-first search; _check_double_circuit asserts the
        # closed 4,000-step walk
        _check_double_circuit(
            shapes.regular_polygon_graph(FLAT, 2000, 1.0, samples_per_edge=8))

    def test_disconnected_rejected(self):
        left = circle_document()
        right = circle_document()
        doc = {
            "space": left["space"],
            "vertices": left["vertices"] + [{"id": "w0", "coords": [5.0, 0.0, 0.0]}],
            "edges": left["edges"] + [{
                "id": "far", "endpoints": ["w0", "w0"],
                "samples": (np.asarray(right["edges"][0]["samples"])
                            + np.array([4.0, 0.0, 0.0])).tolist()}],
        }
        g = load_graph(doc)
        assert len(connected_components(g)) == 2
        with pytest.raises(ValidationError, match="disconnected"):
            euler_double_circuit(g)
