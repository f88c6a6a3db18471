import math
from collections import Counter

import numpy as np
import pytest

from soapcert import (
    EdgeCurve,
    Model,
    SpaceForm,
    ValidationError,
    euler_double_circuit,
    load_graph,
    resample_arclength,
    vertex_star,
)
from soapcert import shapes
from soapcert.graph import connected_components

from builders import random_graph

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

    def test_step_exceeding_shortest_edge_rejected(self):
        g = shapes.square_graph(FLAT, 1.0)
        with pytest.raises(ValidationError, match="exceeds"):
            resample_arclength(g, 1.5)


class TestVertexStar:
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
