import math

import numpy as np
import pytest

from soapcert import (
    EmbeddedGraph,
    IterationError,
    Model,
    SpaceForm,
    ValidationError,
    cone_total_curvature,
    edge_total_curvature,
    resample_arclength,
    vertex_star,
    vertex_tc,
    vertex_tc_grid,
)
from soapcert import curvature, shapes
from soapcert.curvature import curvature_vectors
from soapcert.graph import edge_unit_tangents, make_edge, star_table

from builders import (SPACES, carried_graph, edge_by_edge_star,
                      edge_by_edge_tc, edge_own_tangents, figure_eight_graph,
                      four_leg_star_graph, random_graph, random_isometry,
                      star_ascent, transform_graph, wedge_graph)

FLAT = SPACES["flat"]
CUBE_CORNER_TC = 3.0 * (math.pi / 2.0 - math.acos(1.0 / math.sqrt(3.0)))


def open_arc_edge(space, radius, angle_span, n):
    """A circular-arc edge (no graph around it; edge-level ops only)."""
    t = np.linspace(0.0, angle_span, n + 1)
    coords = np.zeros((len(t), space.embedding_dim))
    coords[:, 0] = radius * np.cos(t)
    coords[:, 1] = radius * np.sin(t)
    if space.model is not Model.FLAT:
        base = space.base_point()
        basis = space.tangent_basis(base)
        tang = np.zeros((len(t), space.dim))
        tang[:, 0] = radius * np.cos(t)
        tang[:, 1] = radius * np.sin(t)
        coords = space.exp(np.broadcast_to(base, (len(t), len(base))),
                           tang @ basis)
    return make_edge(space, "arc", ("x", "y"), coords)


def edge_alone(space, edge):
    """The edge as a one-edge graph with no vertices, for the graph-wide
    kernels; it needs no validation."""
    return EmbeddedGraph(space=space, vertices=[], edges=[edge])


def edge_kvec(space, edge):
    """Curvature vectors at the edge's interior samples, by its own
    tangents."""
    return curvature_vectors(space, edge.samples,
                             edge_unit_tangents(space, edge), edge.s)


class TestEdgeCurvature:
    def test_straight_polyline_vanishes(self):
        g = shapes.square_graph(FLAT, 1.0, samples_per_edge=32)
        for e in g.edges:
            assert np.max(FLAT.norm(edge_kvec(FLAT, e))) < 1e-8

    def test_unit_circle_curvature_one(self):
        g = shapes.circle_graph(FLAT, 1.0, 512)
        kmag = FLAT.norm(edge_kvec(FLAT, g.edges[0]))
        assert np.max(np.abs(kmag - 1.0)) < 1e-3

    def test_hyperbolic_circle_curvature(self):
        space = SpaceForm(Model.HYPERBOLIC, 3, 1.0)
        for radius in (0.7, 1.0):
            g = shapes.circle_graph(space, radius, 512)
            kmag = space.norm(edge_kvec(space, g.edges[0]))
            expected = float(space.circle_curvature(radius))
            assert np.max(np.abs(kmag - expected)) < 1e-3

    def test_curvature_vector_is_tangent_and_normal(self):
        space = SPACES["spherical"]
        g = shapes.circle_graph(space, 0.5, 256)
        e = g.edges[0]
        mid = e.samples[1:-1]
        assert np.max(space.tangency_residual(mid, edge_kvec(space, e))) < 1e-8


class TestEdgeTotalCurvature:
    def test_unit_circle(self):
        g = shapes.circle_graph(FLAT, 1.0, 1024)
        (integral,) = edge_total_curvature(FLAT, g)
        assert integral == pytest.approx(2.0 * math.pi, abs=1e-4)

    def test_flat_half_circle(self):
        e = open_arc_edge(FLAT, 2.0, math.pi, 1024)
        (integral,) = edge_total_curvature(FLAT, edge_alone(FLAT, e))
        assert integral == pytest.approx(math.pi, abs=1e-4)

    def test_geodesic_edge_every_model(self):
        for space in SPACES.values():
            base = space.base_point()
            basis = space.tangent_basis(base)
            t = np.linspace(0.0, 1.0, 65)
            pts = space.exp(np.broadcast_to(base, (len(t), len(base))),
                            np.outer(t, basis[0]))
            e = make_edge(space, "g", ("x", "y"), pts)
            (integral,) = edge_total_curvature(space, edge_alone(space, e))
            assert abs(integral) < 1e-8

    def test_float_array_in_graph_order(self):
        g = shapes.square_graph(FLAT, 1.0, samples_per_edge=32)
        integrals = edge_total_curvature(FLAT, g)
        assert integrals.dtype == np.float64
        assert integrals.shape == (len(g.edges),)
        rep = cone_total_curvature(FLAT, g)
        assert [e.edge_id for e in rep.per_edge] == [e.id for e in g.edges]
        assert _same_bits([e.integral for e in rep.per_edge], integrals)

    def test_one_curvature_pass_per_tc(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(len(args[1]))
            return curvature_vectors(*args)

        monkeypatch.setattr(curvature, "curvature_vectors", counted)
        g = shapes.cube_skeleton_graph()
        cone_total_curvature(g.space, g)
        assert calls == [len(g.samples)]


def _same_bits(got, want):
    return np.asarray(got, float).tobytes() == np.asarray(want, float).tobytes()


class TestVertexTC:
    def test_unknown_vertex_rejected(self):
        g = shapes.square_graph(FLAT, 1.0, samples_per_edge=32)
        with pytest.raises(ValidationError,
                           match="^unknown vertex id 'nope'$"):
            vertex_tc(FLAT, g, "nope")

    def test_smooth_through_point_zero(self):
        corners = np.zeros((5, 3))
        corners[:, :2] = [[-0.5, -0.5], [0.0, -0.5], [0.5, -0.5],
                          [0.5, 0.5], [-0.5, 0.5]]
        g = shapes.polygon_graph(FLAT, corners, samples_per_edge=32)
        res = vertex_tc(FLAT, g, "v1")
        assert res.tc == pytest.approx(0.0, abs=1e-7)

    def test_square_corner_right_angle(self):
        g = shapes.square_graph(FLAT, 1.0, samples_per_edge=32)
        res = vertex_tc(FLAT, g, "v0")
        assert res.tc == pytest.approx(math.pi / 2.0, abs=1e-9)
        # the sup is attained along the shorter arc between the inward
        # tangents (bisector included); the maximizer must lie on it
        star = vertex_star(g, "v0")
        a1 = FLAT.angle_between(res.argmax_dir.vec, star[0].vec)
        a2 = FLAT.angle_between(res.argmax_dir.vec, star[1].vec)
        between = FLAT.angle_between(star[0].vec, star[1].vec)
        assert a1 + a2 == pytest.approx(between, abs=1e-6)

    def test_symmetric_junction_against_grid_oracle(self):
        g = shapes.theta_graph(samples_per_edge=256)
        res = vertex_tc(FLAT, g, "p0")
        oracle = vertex_tc_grid(FLAT, g, "p0", n_dirs=1_000_000)
        assert res.tc == pytest.approx(oracle, abs=1e-3)
        assert res.tc == pytest.approx(math.pi / 6.0, abs=1e-3)

    def test_four_leg_star_reaches_supremum(self):
        # the supremum 3.390009464316815 comes from a downhill-simplex polish
        # with exact atan2 angles; the ascent needs about 3,100 iterations
        g = four_leg_star_graph()
        res = vertex_tc(g.space, g, "q")
        assert 3.390009464316 <= res.tc <= 3.39000947

    def test_capped_ascent_raises(self, monkeypatch):
        # the four-leg vertex needs about 3,100 iterations; a cap below
        # that must fail loudly, not return a value under the supremum
        monkeypatch.setattr(curvature, "VERTEX_ASCENT_MAX_ITER", 400)
        g = four_leg_star_graph()
        with pytest.raises(IterationError):
            vertex_tc(g.space, g, "q")

    def test_cube_corner_against_grid_oracle(self):
        g = shapes.cube_skeleton_graph()
        res = vertex_tc(FLAT, g, "v0")
        assert res.tc == pytest.approx(CUBE_CORNER_TC, abs=1e-4)
        oracle = vertex_tc_grid(FLAT, g, "v0", n_dirs=1_000_000)
        assert res.tc >= oracle - 1e-6
        # analytic maximizer: the inward diagonal of the corner
        diag = (np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)) \
            * np.sign(-g.vertex_point("v0"))
        assert FLAT.angle_between(res.argmax_dir.vec, diag) < 1e-3

    @staticmethod
    def _check_grid_oracle(spaces):
        """The 10k-direction grid never beats the ascent on random graphs."""
        rng = np.random.default_rng(9)
        for space in spaces:
            g = random_graph(space, rng, samples_per_edge=64)
            for v in g.vertices:
                res = vertex_tc(space, g, v.id)
                oracle = vertex_tc_grid(space, g, v.id, n_dirs=10_000)
                assert oracle <= res.tc + 1e-6

    def test_grid_never_beats_the_maximizer(self):
        self._check_grid_oracle([SPACES["flat"], SPACES["hyperbolic"]])

    @pytest.mark.parametrize("dim", [2, 4, 5])
    def test_grid_never_beats_the_maximizer_in_other_dimensions(self, dim):
        # random_graph's vertices have valence 3 or more, so the ascent runs
        # from _unit_grid's circle, cylinder and Gaussian start directions
        self._check_grid_oracle([SpaceForm(like.model, dim, like.curv)
                                 for like in SPACES.values()])

    @staticmethod
    def _check_valence_two(dim, draws):
        """A wedge corner of angle ang has vertex term pi - ang."""
        rng = np.random.default_rng(17)
        for _ in range(draws):
            like = list(SPACES.values())[int(rng.integers(3))]
            space = SpaceForm(like.model, dim, like.curv)
            ang = rng.uniform(0.15, math.pi - 0.15)
            t1 = np.zeros(space.dim)
            t1[0] = 1.0
            t2 = np.zeros(space.dim)
            t2[0] = math.cos(ang)
            t2[1] = math.sin(ang)
            g = wedge_graph(space, t1, t2,
                            leg=0.5 if space.model is Model.SPHERICAL else 0.7)
            res = vertex_tc(space, g, "q")
            assert res.tc == pytest.approx(math.pi - ang, abs=1e-6)

    def test_valence_two_exterior_angle_identity(self):
        self._check_valence_two(3, 100)

    @pytest.mark.parametrize("dim", [2, 4, 5])
    def test_valence_two_identity_in_other_dimensions(self, dim):
        # valence 2 takes the closed form, which reads no start directions
        self._check_valence_two(dim, 20)

    def test_valence_two_near_smooth_seam(self):
        # T1 is almost -T2 here: the exterior angle is 5.5e-12, where the
        # arccos of the tangents' dot product reads about 1.5e-8
        g = shapes.wavy_closed_curve_graph(FLAT, base_radius=0.6, wobble=0.12,
                                           lobes=3, n=4096)
        t1, t2 = (t.vec / FLAT.norm(t.vec) for t in vertex_star(g, "v0"))
        exterior = math.pi - 2.0 * math.atan2(float(FLAT.norm(t1 - t2)),
                                              float(FLAT.norm(t1 + t2)))
        assert vertex_tc(FLAT, g, "v0").tc == pytest.approx(
            exterior, rel=0.0, abs=1e-15)

    def test_only_valence_three_and_up_runs_the_ascent(self, monkeypatch):
        def no_ascent(*args):
            raise RuntimeError("ascent called")

        monkeypatch.setattr(curvature, "_ascent_on_sphere", no_ascent)
        square = shapes.square_graph(FLAT, 1.0, samples_per_edge=32)
        assert vertex_tc(FLAT, square, "v0").tc == pytest.approx(
            math.pi / 2.0, abs=1e-12)
        t2 = np.array([math.cos(1.0), math.sin(1.0), 0.0])
        wedge = wedge_graph(FLAT, np.array([1.0, 0.0, 0.0]), t2)
        assert vertex_tc(FLAT, wedge, "q").tc == pytest.approx(
            math.pi - 1.0, abs=1e-12)
        with pytest.raises(RuntimeError, match="ascent called"):
            vertex_tc(FLAT, shapes.cube_skeleton_graph(), "v0")


def _random_cases():
    """random_graph in dimensions 2-5 of every model: a sparse graph of
    valence 2 to 6, and a dense one of valence 3 to 9 whose stars, some of
    eight or more tangents, come in several shapes."""
    cases = {}
    for dim in (2, 3, 4, 5):
        for name, like in SPACES.items():
            space = SpaceForm(like.model, dim, like.curv)
            seed = 100 * dim + len(cases)
            cases[f"random-{name}-{dim}"] = (
                lambda space=space, seed=seed: random_graph(
                    space, np.random.default_rng(seed), n_vertices=5,
                    n_extra=4, samples_per_edge=32))
            cases[f"dense-{name}-{dim}"] = (
                lambda space=space, seed=seed: random_graph(
                    space, np.random.default_rng(seed + 1), n_vertices=4,
                    n_extra=9, samples_per_edge=16))
    return cases


LOCKSTEP_CASES = {
    "cube": shapes.cube_skeleton_graph,
    "theta": lambda: shapes.theta_graph(samples_per_edge=64),
    "four-leg-star": four_leg_star_graph,
    "hyperbolic-pentagon": lambda: shapes.regular_polygon_graph(
        SpaceForm(Model.HYPERBOLIC, 3, 1.0), 5, 0.8, samples_per_edge=32),
    **_random_cases(),
}


class TestLockstepAscent:
    """All valence >= 3 stars of a graph go to one ascent call, where stars
    of the same shape (start count, valence) share a lockstep, and each
    reads bit for bit what its own ascent alone reads."""

    @pytest.mark.parametrize("name", sorted(LOCKSTEP_CASES))
    def test_every_star_matches_its_own_ascent(self, name):
        g = LOCKSTEP_CASES[name]()
        for res in cone_total_curvature(g.space, g).per_vertex:
            tc, direction = star_ascent(g.space, g, res.vertex_id)
            assert np.array_equal(res.tc, tc)
            assert np.array_equal(res.argmax_dir.vec, direction)

    def test_one_lockstep_per_graph(self, monkeypatch):
        calls = []
        ascent = curvature._ascent_on_sphere

        def counted(starts, tangents):
            calls.append(len(starts))
            return ascent(starts, tangents)

        monkeypatch.setattr(curvature, "_ascent_on_sphere", counted)
        g = four_leg_star_graph()
        cone_total_curvature(g.space, g)
        assert calls == [5]

    def test_cube_corners_share_one_lockstep(self, monkeypatch):
        # the eight corners have one shape, so the graph reads the objective
        # as often as its slowest corner does alone, not as often as all
        # eight together
        calls = []
        values = curvature._star_values

        def counted(dots):
            calls.append(dots.shape)
            return values(dots)

        monkeypatch.setattr(curvature, "_star_values", counted)
        g = shapes.cube_skeleton_graph()
        per_corner = []
        for v in g.vertices:
            calls.clear()
            vertex_tc(g.space, g, v.id)
            per_corner.append(len(calls))
        calls.clear()
        cone_total_curvature(g.space, g)
        assert len(calls) == max(per_corner)

    def test_capped_lockstep_raises(self, monkeypatch):
        # the corners a_k stop within the cap; the valence-4 vertex q needs
        # about 3,100 iterations and must fail the whole graph loudly
        monkeypatch.setattr(curvature, "VERTEX_ASCENT_MAX_ITER", 400)
        g = four_leg_star_graph()
        assert sorted(g.valence(v.id) for v in g.vertices) == [3, 3, 3, 3, 4]
        for corner in ("a0", "a1", "a2", "a3"):
            vertex_tc(g.space, g, corner)
        with pytest.raises(IterationError):
            cone_total_curvature(g.space, g)


def _star_cases():
    """The cube, theta, four-leg star, circle and figure-eight loops in
    every model (the flat shapes carried into the curved ones by
    carried_graph), and TestLockstepAscent's random graphs."""
    cases = {name: build for name, build in LOCKSTEP_CASES.items()
             if name.startswith(("random-", "dense-"))}
    flat = {"cube": shapes.cube_skeleton_graph,
            "theta": lambda: shapes.theta_graph(samples_per_edge=32),
            "four-leg-star": four_leg_star_graph}
    for model, space in SPACES.items():
        for shape, build in flat.items():
            cases[f"{shape}-{model}"] = (
                lambda build=build, space=space: build()
                if space.model is Model.FLAT else carried_graph(build(), space))
        cases[f"circle-{model}"] = (
            lambda space=space: shapes.circle_graph(space, 0.5, 64))
        cases[f"figure-eight-{model}"] = (
            lambda space=space: figure_eight_graph(space))
    return cases


STAR_CASES = _star_cases()


class TestStarTableIsEdgeByEdge:
    """The star table gathers every edge-end's row of the graph's one
    tangent pass, and each row is bit for bit the tangent of that edge's
    own stencil build.  TC's edge terms, taken in one pass over the
    stacked samples, are bit for bit those of each edge built alone."""

    @pytest.mark.parametrize("name", sorted(STAR_CASES))
    def test_stars_and_table_rows_match_the_edge_builds(self, name):
        g = STAR_CASES[name]()
        table = star_table(g)
        for v in g.vertices:
            oracle = edge_by_edge_star(g, v.id)
            rows = table.rows[v.id]
            assert rows.stop - rows.start == len(oracle)
            assert np.array_equal(table.vec[rows],
                                  [tv.vec for tv in oracle])
            assert np.array_equal(table.base[rows],
                                  [tv.base for tv in oracle])
            star = vertex_star(g, v.id)
            assert np.array_equal([tv.vec for tv in star],
                                  [tv.vec for tv in oracle])
            assert all(np.array_equal(tv.base, v.point) for tv in star)

    @pytest.mark.parametrize("name", sorted(STAR_CASES))
    def test_edge_terms_match_the_edge_builds(self, name):
        g = STAR_CASES[name]()
        for e in g.edges:
            assert np.array_equal(edge_unit_tangents(g.space, e),
                                  edge_own_tangents(g.space, e))
        assert _same_bits(edge_total_curvature(g.space, g),
                          edge_by_edge_tc(g.space, g))


class TestConeTotalCurvature:
    def test_unit_circle(self):
        g = shapes.circle_graph(FLAT, 1.0, 1024)
        rep = cone_total_curvature(FLAT, g)
        assert rep.total == pytest.approx(2.0 * math.pi, abs=1e-4)

    def test_unit_square_exact(self):
        g = shapes.square_graph(FLAT, 1.0, samples_per_edge=64)
        rep = cone_total_curvature(FLAT, g)
        assert rep.total == pytest.approx(2.0 * math.pi, abs=1e-6)

    def test_cube_skeleton(self):
        g = shapes.cube_skeleton_graph()
        rep = cone_total_curvature(FLAT, g)
        assert rep.total == pytest.approx(8.0 * CUBE_CORNER_TC, abs=1e-3)
        assert all(e.integral < 1e-8 for e in rep.per_edge)

    def test_bookkeeping_identity(self):
        rng = np.random.default_rng(23)
        g = random_graph(SPACES["hyperbolic"], rng, samples_per_edge=64)
        rep = cone_total_curvature(SPACES["hyperbolic"], g)
        explicit = sum(e.integral for e in rep.per_edge) \
            + sum(v.tc for v in rep.per_vertex)
        assert rep.total == pytest.approx(explicit, abs=1e-12)

    def test_refinement_second_order(self):
        space = SPACES["flat"]
        g = shapes.wavy_closed_curve_graph(space, base_radius=1.0, wobble=0.2,
                                           n=4096)
        fine = cone_total_curvature(space, resample_arclength(g, 0.01)).total
        errs = []
        for h in (0.16, 0.08, 0.04):
            errs.append(abs(cone_total_curvature(
                space, resample_arclength(g, h)).total - fine))
        assert errs[1] < errs[0] / 2.5
        assert errs[2] < errs[1] / 2.5

    def test_isometry_invariance(self):
        rng = np.random.default_rng(31)
        for space in SPACES.values():
            g = random_graph(space, rng, samples_per_edge=64)
            rep = cone_total_curvature(space, g)
            moved = transform_graph(g, random_isometry(space, rng))
            rep2 = cone_total_curvature(space, moved)
            assert abs(rep.total - rep2.total) < 1e-8

    def test_additive_over_disconnected_components(self):
        from soapcert.graph import EmbeddedGraph, validate_graph

        one = shapes.circle_graph(FLAT, 1.0, 256)
        far = shapes.circle_graph(FLAT, 1.0, 256,
                                  center=np.array([5.0, 0.0, 0.0]))
        far.vertices[0].id = "w0"
        far.edges[0].id = "far"
        far.edges[0].endpoints = ("w0", "w0")
        both = validate_graph(EmbeddedGraph(
            space=FLAT, vertices=one.vertices + far.vertices,
            edges=one.edges + far.edges))
        total = cone_total_curvature(FLAT, both).total
        assert total == pytest.approx(2.0 * cone_total_curvature(
            FLAT, one).total, abs=1e-9)
