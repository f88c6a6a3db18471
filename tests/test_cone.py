import math

import numpy as np
import pytest

from soapcert import (
    ApexOnGraphError,
    ConjugatePointError,
    Model,
    NumericalError,
    SpaceForm,
    ValidationError,
    ambient_cone_area,
    ambient_cone_density,
    check_apex,
    cone_area_gradient,
    cone_conormal_curvature,
    cone_total_curvature,
    density_bound,
    develop_cone,
    gauss_bonnet_residual,
    hull_approx,
    resample_arclength,
    vertex_star,
)
from soapcert import _num, cone as cone_mod, shapes
from soapcert.certify import SEARCH_CLEARANCE, _ball_objective
from soapcert.cone import (
    APEX_CLEARANCE,
    ConeDevelopment,
    EdgeDevelopment,
    _apex_angles,
    _chord_table,
    _cone_density,
    _gram_root,
    _half_sq_chords,
    _richardson_sum,
    _root_areas,
    developed_points,
    development_plane,
)
from soapcert.graph import (EdgeCurve, EmbeddedGraph, Vertex, derivative_stencil,
                            make_edge, validate_graph)

from builders import (
    SPACES,
    carried_graph,
    developed_plain_area,
    expression_apex_angles,
    expression_cone_area_gradient,
    expression_gram_root,
    expression_richardson_sum,
    expression_root_areas,
    expression_triangle_areas,
    figure_eight_graph,
    four_leg_star_graph,
    gram_apex_angles,
    gram_triangle_areas,
    loop_gauss_bonnet_residual,
    mixed_chord_polygon,
    plain_cone_area,
    projected_cone_density,
    random_instance,
    spherical_cone_circle,
)

FLAT = SPACES["flat"]
HYP1 = SpaceForm(Model.HYPERBOLIC, 3, 1.0)
SPH1 = SpaceForm(Model.SPHERICAL, 3, 1.0)
UNIT_MODELS = pytest.mark.parametrize("space", [FLAT, HYP1, SPH1],
                                      ids=lambda s: s.model.value)


def _pentagon_apex(space):
    return space.exp(space.base_point(),
                     np.array([0.2, -0.1, 0.4]) @ space.tangent_basis(
                         space.base_point()))


def radial_segment_edge(space, t0=0.5, t1=1.5, n=64):
    base = space.base_point()
    basis = space.tangent_basis(base)
    t = np.linspace(t0, t1, n + 1)
    pts = space.exp(np.broadcast_to(base, (len(t), len(base))),
                    np.outer(t, basis[0]))
    return base, make_edge(space, "radial", ("x", "y"), pts)


class TestRadialProfile:
    """cone_conormal_curvature builds the radial directions from the apex
    only for an admitted apex."""

    def test_apex_on_graph_rejected(self):
        g = shapes.circle_graph(FLAT, 1.0, 128)
        with pytest.raises(ApexOnGraphError):
            cone_conormal_curvature(FLAT, np.array([1.0, 0.0, 0.0]),
                                    g.edges[0])

    def test_spherical_conjugate_apex_rejected(self):
        g = shapes.circle_graph(SPH1, 0.4, 128)
        apex = -g.edges[0].samples[0]  # antipodal to a sample
        with pytest.raises((ConjugatePointError, NumericalError)):
            cone_conormal_curvature(SPH1, apex, g.edges[0])


class TestDevelopCone:
    def test_flat_circle_about_center(self):
        g = shapes.circle_graph(FLAT, 1.0, 4096)
        dev = develop_cone(FLAT, np.zeros(3), g)
        assert dev.per_edge[0].theta[-1] == pytest.approx(2.0 * math.pi, abs=1e-5)
        assert dev.hat_density == pytest.approx(1.0, abs=1e-6)
        assert dev.hat_area == pytest.approx(math.pi, abs=1e-6)

    def test_hyperbolic_circle_closed_forms(self):
        g = shapes.circle_graph(HYP1, 1.0, 4096)
        dev = develop_cone(HYP1, HYP1.base_point(), g)
        assert dev.hat_density == pytest.approx(1.0, abs=1e-6)
        assert dev.hat_area == pytest.approx(
            2.0 * math.pi * (math.cosh(1.0) - 1.0), abs=1e-4)
        khat = dev.per_edge[0].khat_nu
        assert np.max(np.abs(khat + 1.0 / math.tanh(1.0))) < 1e-3

    def test_spherical_cone_circle_density(self):
        g = spherical_cone_circle(SPH1, rho=math.pi / 4.0, beta=math.pi / 4.0,
                                  n=4096)
        dev = develop_cone(SPH1, SPH1.base_point(), g)
        assert dev.hat_density == pytest.approx(math.sin(math.pi / 4.0),
                                                abs=1e-6)

    def test_theta_nondecreasing(self):
        rng = np.random.default_rng(5)
        g, apex = random_instance(SPACES["hyperbolic"], rng,
                                  samples_per_edge=128)
        dev = develop_cone(SPACES["hyperbolic"], apex, g)
        for ed in dev.per_edge:
            assert np.all(np.diff(ed.theta) >= -1e-15)
            assert ed.theta[0] == 0.0

    def test_cube_corner_close_apex(self):
        # 0.021 from a corner is under two sample spacings of 1/84
        g = shapes.cube_skeleton_graph(1.0, 84)
        corner = np.full(3, 0.5)
        apex = corner - 0.021 * corner / np.linalg.norm(corner)
        assert gauss_bonnet_residual(FLAT, apex, g) < 1e-9

    @UNIT_MODELS
    def test_straight_edges_exact(self, space):
        g = shapes.regular_polygon_graph(space, 5, 0.8, samples_per_edge=8)
        apex = _pentagon_apex(space)
        coarse = develop_cone(space, apex, g)
        assert gauss_bonnet_residual(space, apex, g, dev=coarse) < 1e-10
        for h in (0.05, 0.04, 0.013):  # odd and even chord counts per edge
            fine_graph = resample_arclength(g, h)
            fine = develop_cone(space, apex, fine_graph)
            assert fine.hat_density == pytest.approx(coarse.hat_density,
                                                     abs=1e-12)
            assert fine.hat_area == pytest.approx(coarse.hat_area, abs=1e-12)
            assert gauss_bonnet_residual(space, apex, fine_graph,
                                         dev=fine) < 1e-10

    @pytest.mark.parametrize("name", ["cube", "hyperbolic-pentagon",
                                      "spherical-loop"])
    def test_area_is_the_ambient_area(self, name):
        g = TestConeAreaCache.CASES[name](31)
        apex = _off_base_apex(g.space)
        assert develop_cone(g.space, apex, g).hat_area \
            == ambient_cone_area(g.space, apex, g)

    @UNIT_MODELS
    def test_apex_angles_match_tangent_angles(self, space):
        # corners 0.9 from the apex, chords down to 1e-7 (thin triangles);
        # the reference is the angle between the unit projected chords
        rng = np.random.default_rng(44)
        apex = _off_base_apex(space)
        basis = space.tangent_basis(apex)
        for chord in (0.5, 1e-3, 1e-7):
            z = rng.standard_normal((200, 3))
            x1 = space.exp(np.broadcast_to(apex, (200, len(apex))),
                           0.9 * z / np.linalg.norm(z, axis=1)[:, None] @ basis)
            step = space.tangent_project(
                x1, rng.standard_normal((200, len(apex))))
            x2 = space.exp(x1, chord * step / space.norm(step)[:, None])
            got = gram_apex_angles(space, _half_sq_chords(space, x1, apex),
                                   _half_sq_chords(space, x2, apex),
                                   _half_sq_chords(space, x1, x2))
            u1, u2 = (w / space.norm(w)[:, None] for w in (
                space.tangent_project(apex, x - apex) for x in (x1, x2)))
            want = 2.0 * np.arctan2(space.norm(u1 - u2), space.norm(u1 + u2))
            assert np.max(np.abs(got - want)) < 1e-13


class TestAmbientConeDensity:
    def test_flat_circle_about_center(self):
        g = shapes.circle_graph(FLAT, 1.0, 2048)
        assert ambient_cone_density(FLAT, np.zeros(3), g) == pytest.approx(
            1.0, abs=1e-6)

    def test_flat_circle_from_lifted_apex(self):
        g = shapes.circle_graph(FLAT, 1.0, 2048)
        apex = np.array([0.0, 0.0, 1.0])
        assert ambient_cone_density(FLAT, apex, g) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-4)

    def test_never_exceeds_developed_density(self):
        rng = np.random.default_rng(8)
        for space in SPACES.values():
            for _ in range(5):
                g, apex = random_instance(space, rng, samples_per_edge=256)
                dev = develop_cone(space, apex, g)
                amb = ambient_cone_density(space, apex, g)
                assert amb <= dev.hat_density + 1e-6
                # both sum the same apex angles; the projected-chord arccos
                # sum is an oracle independent of the Gram kernel
                assert abs(amb - dev.hat_density) <= 1e-12
                assert abs(amb - projected_cone_density(space, apex, g)) <= 1e-9


class TestAmbientConeArea:
    def test_flat_disk(self):
        g = shapes.circle_graph(FLAT, 1.0, 1024)
        assert ambient_cone_area(FLAT, np.zeros(3), g) == pytest.approx(
            math.pi, abs=1e-4)

    def test_flat_lateral_cone(self):
        g = shapes.circle_graph(FLAT, 1.0, 1024)
        apex = np.array([0.0, 0.0, 1.0])
        assert ambient_cone_area(FLAT, apex, g) == pytest.approx(
            math.pi * math.sqrt(2.0), abs=1e-3)

    def test_hyperbolic_geodesic_disk(self):
        g = shapes.circle_graph(HYP1, 1.0, 1024)
        expected = 2.0 * math.pi * (math.cosh(1.0) - 1.0)
        assert ambient_cone_area(HYP1, HYP1.base_point(), g) == pytest.approx(
            expected, abs=1e-3)

    def test_never_exceeds_developed_area(self):
        # The reference is the plain triangle sum over the developed points,
        # not hat_area, which is the same kernel on the same chords.
        rng = np.random.default_rng(12)
        for space in SPACES.values():
            g, apex = random_instance(space, rng, samples_per_edge=256)
            dev = develop_cone(space, apex, g)
            developed = developed_plain_area(dev)
            assert developed == pytest.approx(
                plain_cone_area(space, apex, g), rel=1e-12)
            amb = ambient_cone_area(space, apex, g)
            assert amb <= developed + 1e-5

    @UNIT_MODELS
    def test_straight_edges_exact(self, space):
        g = shapes.regular_polygon_graph(space, 5, 0.8, samples_per_edge=8)
        apex = _pentagon_apex(space)
        coarse = ambient_cone_area(space, apex, g)
        for h in (0.05, 0.04, 0.013):  # odd and even chord counts per edge
            fine = ambient_cone_area(space, apex, resample_arclength(g, h))
            assert fine == pytest.approx(coarse, abs=1e-12)

    @UNIT_MODELS
    @pytest.mark.parametrize("height", [0.0, 0.3, 0.6])
    def test_circle_from_axis_apex_closed_form(self, space, height):
        radius = 1.0
        g = shapes.circle_graph(space, radius, 512)
        base = space.base_point()
        apex = space.exp(base, height * space.tangent_basis(base)[2])
        rho = float(space.dist(apex, g.edges[0].samples[0]))
        sin_alpha = space.comparison(radius).f / space.comparison(rho).f
        expected = 2.0 * math.pi * sin_alpha * space.comparison(rho).F
        assert ambient_cone_area(space, apex, g) == pytest.approx(
            expected, abs=1e-6)

    @UNIT_MODELS
    @pytest.mark.parametrize("odd", [0, 1], ids=["even", "odd"])
    def test_wavy_loop_converges_at_fourth_order(self, space, odd):
        base = space.base_point()
        apex = space.exp(base, np.array([0.1, 0.0, 0.2])
                         @ space.tangent_basis(base))

        def area(n):
            return ambient_cone_area(space, apex, shapes.wavy_closed_curve_graph(
                space, base_radius=0.6, wobble=0.12, n=n))

        reference = area(4096)
        errs = [abs(area(n + odd) - reference) for n in (128, 256, 512, 1024)]
        for coarse, fine in zip(errs, errs[1:]):
            assert coarse >= 12.0 * fine

    def test_apex_on_graph_rejected(self):
        g = shapes.circle_graph(FLAT, 1.0, 128)
        with pytest.raises(ApexOnGraphError):
            ambient_cone_area(FLAT, g.edges[0].samples[5], g)
        near = np.array([1.001, 0.0, 0.0])
        assert ambient_cone_area(FLAT, near, g) > 0.0
        with pytest.raises(ApexOnGraphError):
            check_apex(FLAT, near, g.samples, clearance=1e-2)

    def test_spherical_apex_at_conjugate_distance_rejected(self):
        g = shapes.circle_graph(SPH1, 0.4, 128)
        x0 = g.edges[0].samples[0]
        away = SPH1.tangent_basis(x0)[2]
        apex = SPH1.exp(x0, (SPH1.max_radius - 5e-7) * away)
        with pytest.raises(ConjugatePointError):
            ambient_cone_area(SPH1, apex, g)


def _edge_triangles(space, apex, edge):
    """One edge's triangles from its own samples alone: the areas on its
    fine chords and on its coarse chords, which skip every other sample
    (the last one spans three on an odd count), and the first and one past
    the last fine chord of each coarse chord."""
    x = edge.samples
    alpha = _half_sq_chords(space, x, apex)
    fine = gram_triangle_areas(space, alpha[:-1], alpha[1:],
                               _half_sq_chords(space, x[:-1], x[1:]))
    nodes = np.arange(0, len(fine) + 1, 2)
    nodes[-1] = len(fine)
    lo, hi = nodes[:-1], nodes[1:]
    coarse = gram_triangle_areas(space, alpha[lo], alpha[hi],
                                 _half_sq_chords(space, x[lo], x[hi]))
    return fine, coarse, lo, hi


def _weighted_terms(space, apex, graph):
    """Every Richardson-weighted triangle area w_i A_i of the graph, built
    edge by edge, in the order ambient_cone_area adds them: the fine chords
    of all edges in graph order, then their coarse chords.  A coarse chord
    spanning j fine chords weighs -1/(j^2 - 1), each of those fine chords
    1 + 1/(j^2 - 1)."""
    fine_terms, coarse_terms = [], []
    for edge in graph.edges:
        fine, coarse, lo, hi = _edge_triangles(space, apex, edge)
        step = 1.0 / ((hi - lo) ** 2 - 1)
        fine_terms.append(fine * (1.0 + np.repeat(step, hi - lo)))
        coarse_terms.append(coarse * -step)
    return np.concatenate(fine_terms + coarse_terms)


def uncached_cone_area(space, apex, graph):
    """ambient_cone_area recomputed from scratch: each edge's triangles and
    Richardson weights from its own samples, added by one np.sum in the
    program's order."""
    return float(np.sum(_weighted_terms(space, apex, graph)))


def richardson_formula_area(space, apex, graph):
    """The Richardson step in its per-edge closed form,
    sum_fine A + sum_m (sum_{fine in m} A - A_coarse,m) / (j_m^2 - 1),
    each edge summed on its own and the edge sums added in graph order."""
    total = 0.0
    for edge in graph.edges:
        fine, coarse, lo, hi = _edge_triangles(space, apex, edge)
        correction = (np.add.reduceat(fine, lo) - coarse) / ((hi - lo) ** 2 - 1)
        total += float(np.sum(fine) + np.sum(correction))
    return total


def many_edge_polygon(space):
    """A regular 256-gon of radius 0.8 with 8 chords per edge, 2,304
    samples in all."""
    return shapes.regular_polygon_graph(space, 256, 0.8, samples_per_edge=8)


def refuse_trapezoid(*args, **kwargs):
    raise AssertionError("np.trapezoid was called")


def _off_base_apex(space):
    base = space.base_point()
    return space.exp(base, np.array([0.15, -0.1, 0.35])
                     @ space.tangent_basis(base))


# graph builders for the Richardson formula oracle
FORMULA_CASES = {
    "cube-odd": lambda: shapes.cube_skeleton_graph(samples_per_edge=31),
    "cube-even": lambda: shapes.cube_skeleton_graph(samples_per_edge=32),
    "hyperbolic-256-edges": lambda: many_edge_polygon(HYP1),
}
for _space in (FLAT, HYP1, SPH1):
    FORMULA_CASES[f"mixed-{_space.model.value}"] = \
        lambda space=_space: mixed_chord_polygon(space)


class TestConeAreaCache:
    # each builder makes edges of n chords (n + 96 on the loop)
    CASES = {
        "cube": lambda n: shapes.cube_skeleton_graph(samples_per_edge=n),
        "theta": lambda n: shapes.theta_graph(samples_per_edge=n),
        "hyperbolic-pentagon": lambda n: shapes.regular_polygon_graph(
            HYP1, 5, 0.8, samples_per_edge=n),
        "spherical-loop": lambda n: shapes.wavy_closed_curve_graph(
            SPH1, n=n + 96),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("n", [31, 32], ids=["odd", "even"])
    def test_bitwise_equal_to_uncached(self, name, n):
        g = self.CASES[name](n)
        apex = _off_base_apex(g.space)
        first = ambient_cone_area(g.space, apex, g)
        assert first == uncached_cone_area(g.space, apex, g)
        assert ambient_cone_area(g.space, apex, g) == first

    @pytest.mark.parametrize("build, space", [
        pytest.param(build, space, id=prefix + space.model.value)
        for prefix, build in (("", mixed_chord_polygon),
                              ("256-edges-", many_edge_polygon))
        for space in (FLAT, HYP1, SPH1)])
    def test_mixed_chord_counts_across_edges(self, build, space):
        g = build(space)
        apex = _off_base_apex(space)
        area = ambient_cone_area(space, apex, g)
        assert area == uncached_cone_area(space, apex, g)
        assert float.hex(cone_area_gradient(space, apex, g)[0]) \
            == float.hex(area)
        dev = develop_cone(space, apex, g)
        assert dev.hat_area == area
        assert ambient_cone_density(space, apex, g) == dev.hat_density

    @pytest.mark.parametrize("name", sorted(FORMULA_CASES))
    def test_weighted_sum_is_the_richardson_formula(self, name):
        """The weighted sum and the per-edge closed form add the same N
        terms w_i A_i, in two orders and groupings.  To first order in the
        unit roundoff eps, each lies within (N + 3) eps S of the exact sum,
        S = sum |w_i A_i|: the recursive-summation bound over at most N
        additions, plus up to three roundings per term for its weight, its
        product or difference, and the division.  Every partial sum of the
        closed form is bounded by S too, since its fine and coarse parts
        regroup the same w_i A_i.  So the two differ by at most
        2 (N + 3) eps S."""
        g = FORMULA_CASES[name]()
        apex = _off_base_apex(g.space)
        terms = _weighted_terms(g.space, apex, g)
        bound = 2 * (len(terms) + 3) * np.finfo(float).eps \
            * float(np.sum(np.abs(terms)))
        assert abs(ambient_cone_area(g.space, apex, g)
                   - richardson_formula_area(g.space, apex, g)) <= bound

    def test_one_chord_table_per_graph(self, monkeypatch):
        built = []
        table = cone_mod._ChordTable

        def counted(**fields):
            built.append(fields)
            return table(**fields)

        monkeypatch.setattr(cone_mod, "_ChordTable", counted)
        g = mixed_chord_polygon(HYP1)
        apex = _off_base_apex(HYP1)
        ambient_cone_area(HYP1, apex, g)
        cone_area_gradient(HYP1, apex, g)
        ambient_cone_density(HYP1, apex, g)
        develop_cone(HYP1, apex, g)
        assert len(built) == 1

    def test_resampled_graph_builds_its_own_chords(self):
        g = shapes.regular_polygon_graph(HYP1, 5, 0.8, samples_per_edge=32)
        apex = _off_base_apex(HYP1)
        ambient_cone_area(HYP1, apex, g)
        for h in (0.05, 0.043):
            fine = resample_arclength(g, h)
            assert ambient_cone_area(HYP1, apex, fine) \
                == uncached_cone_area(HYP1, apex, fine)


def _tangent_differences(space, apex, graph, h=1e-5):
    """Central differences of ambient_cone_area along the tangent basis at
    the apex."""
    return np.array([
        (ambient_cone_area(space, space.exp(apex, h * e), graph)
         - ambient_cone_area(space, space.exp(apex, -h * e), graph)) / (2 * h)
        for e in space.tangent_basis(apex)])


def _gradient_apices(space):
    base = space.base_point()
    basis = space.tangent_basis(base)
    return [space.exp(base, np.array(v) @ basis)
            for v in ([0.0, 0.0, 0.0], [0.1, 0.05, 0.2], [-0.3, 0.2, -0.1])]


class TestConeAreaGradient:
    @UNIT_MODELS
    def test_area_is_the_ambient_area_bit_for_bit(self, space):
        g = shapes.wavy_closed_curve_graph(space, n=512)
        for apex in _gradient_apices(space):
            area, _ = cone_area_gradient(space, apex, g)
            assert float.hex(area) == float.hex(ambient_cone_area(space, apex, g))

    @UNIT_MODELS
    def test_tangent_gradient_matches_central_differences(self, space):
        g = shapes.wavy_closed_curve_graph(space, n=512)
        for apex in _gradient_apices(space):
            _, grad = cone_area_gradient(space, apex, g)
            tangent = space.tangent_project(apex, grad)
            got = space.mdot(space.tangent_basis(apex), tangent)
            assert np.max(np.abs(got - _tangent_differences(space, apex, g))) \
                < 1e-8

    @UNIT_MODELS
    @pytest.mark.parametrize("sense", [1.0, -1.0], ids=["min", "max"])
    def test_normal_coordinate_gradient_matches_central_differences(
            self, space, sense):
        # at the hull center, inside the ball, and outside it, where the
        # objective is read at the projection onto the ball's boundary
        g = shapes.wavy_closed_curve_graph(space, n=512)
        hull = hull_approx(space, g, grid_n=1)
        fun, apex_at, _ = _ball_objective(space, g, hull, sense)
        direction = np.array([0.6, -0.48, 0.64])
        h = 1e-6
        for z in (np.zeros(3), 0.5 * hull.radius * direction,
                  1.4 * hull.radius * direction):
            value, grad = fun(z)
            assert value == sense * ambient_cone_area(
                space, apex_at(z), g, clearance=SEARCH_CLEARANCE)
            fd = np.array([(fun(z + h * e)[0] - fun(z - h * e)[0]) / (2 * h)
                           for e in np.eye(3)])
            assert np.max(np.abs(grad - fd)) < 1e-8
        assert float(space.dist(apex_at(z), hull.center)) == pytest.approx(
            hull.radius, rel=1e-12)

    @UNIT_MODELS
    def test_mixed_chord_counts_match_central_differences(self, space):
        g = mixed_chord_polygon(space)
        for apex in _gradient_apices(space):
            _, grad = cone_area_gradient(space, apex, g)
            got = space.mdot(space.tangent_basis(apex),
                             space.tangent_project(apex, grad))
            assert np.max(np.abs(got - _tangent_differences(space, apex, g))) \
                < 1e-8

    def test_fold_gives_a_finite_gradient(self):
        # apices on the geodesic through two consecutive samples, beyond
        # them: that chord's triangle is flat, g <= 0 where rounding allows,
        # and the partials of its sqrt(g) would be infinite
        g = shapes.wavy_closed_curve_graph(HYP1, n=512)
        x = g.edges[0].samples
        folds = 0
        for i in range(0, 512, 16):
            apex = HYP1.geodesic_point(x[i], x[i + 1], -40.0)
            alpha = _half_sq_chords(HYP1, x, apex)
            if _gram_root(HYP1, alpha[i], alpha[i + 1],
                          _half_sq_chords(HYP1, x[i], x[i + 1])) > 0.0:
                continue
            folds += 1
            area, grad = cone_area_gradient(HYP1, apex, g)
            assert area == ambient_cone_area(HYP1, apex, g)
            assert np.all(np.isfinite(grad))
            # the flat triangle's area is |height| times half its base, whose
            # central difference is 0, the partial it is given
            got = HYP1.mdot(HYP1.tangent_basis(apex),
                            HYP1.tangent_project(apex, grad))
            assert np.max(np.abs(got - _tangent_differences(
                HYP1, apex, g, h=1e-6))) < 1e-4
        assert folds > 0


def _admissibility_cases():
    for model, scales in ((Model.FLAT, (0.0,)), (Model.HYPERBOLIC, (1.0, 2.0)),
                          (Model.SPHERICAL, (1.0, 2.0))):
        for curv in scales:
            space = SpaceForm(model, 3, curv)
            # (distance d, clearance, whether apices just inside d fail,
            # whether density_bound's fixed clearance applies the same rule)
            for c in (1e-6, 1e-4, 1e-3):
                yield pytest.param(space, c, c, True, c == SEARCH_CLEARANCE,
                                   id=f"{model.value}-{curv:g}-{c:g}")
            if model is Model.SPHERICAL:
                yield pytest.param(space, space.max_radius - 1e-6,
                                   APEX_CLEARANCE, False, True,
                                   id=f"{model.value}-{curv:g}-conjugate")


class TestAdmissibilityRule:
    """check_apex, ambient_cone_area, cone_area_gradient and density_bound
    decide on half
    squared chords; they must accept or reject exactly where the distance
    tests do."""

    @pytest.mark.parametrize("space, d, clearance, inside_rejected, bound",
                             _admissibility_cases())
    def test_agrees_with_distance_tests(self, space, d, clearance,
                                        inside_rejected, bound):
        g = shapes.circle_graph(space, 0.4, 128)
        x0 = g.edges[0].samples[0]
        basis = space.tangent_basis(x0)
        rng = np.random.default_rng(31)
        samples = g.samples
        tc = cone_total_curvature(space, g)
        outcomes = []
        for factor in (1.0 - 1e-9, 1.0 + 1e-9):
            for _ in range(50):
                z = rng.standard_normal(3)
                apex = space.exp(x0, factor * d * (z / np.linalg.norm(z)) @ basis)
                r = space.dist(apex, samples)
                reject = bool(np.any(r <= clearance)) or (
                    space.model is Model.SPHERICAL
                    and bool(np.any(r >= space.max_radius - 1e-6)))
                outcomes.append(reject)
                fns = [lambda: check_apex(space, apex, samples, clearance),
                       lambda: ambient_cone_area(space, apex, g,
                                                 clearance=clearance),
                       lambda: cone_area_gradient(space, apex, g,
                                                  clearance=clearance)]
                if bound:
                    fns.append(lambda: density_bound(space, apex, g, tc))
                for fn in fns:
                    try:
                        fn()
                        raised = False
                    except (ApexOnGraphError, ConjugatePointError):
                        raised = True
                    assert raised == reject
        # the apices straddle the boundary on every draw
        assert outcomes == [inside_rejected] * 50 + [not inside_rejected] * 50

    def test_spherical_antipode_fails_the_conjugate_rule(self):
        g = shapes.circle_graph(SPH1, 0.4, 128)
        apex = -g.edges[0].samples[0]
        with pytest.raises(ConjugatePointError, match="conjugate radius"):
            check_apex(SPH1, apex, g.samples)
        with pytest.raises(ConjugatePointError, match="conjugate radius"):
            ambient_cone_area(SPH1, apex, g)


class TestKernelRange:
    """check_apex raises NumericalError, neither of its admissibility errors,
    when the smallest half squared chord alpha is not finite or exceeds
    L = 1e100 / max(|K|, 1e-150)^(1/3), under which the Gram kernels'
    products stay finite."""

    @staticmethod
    def limit(space):
        return 1e100 / max(abs(space.sectional_curvature), 1e-150) ** (1 / 3)

    @pytest.mark.parametrize("space", [
        FLAT, HYP1, SPH1, SpaceForm(Model.HYPERBOLIC, 3, 1e-100),
        SpaceForm(Model.HYPERBOLIC, 3, 1e-60),
        SpaceForm(Model.SPHERICAL, 3, 1e100),
        SpaceForm(Model.SPHERICAL, 3, 1e150)],
        ids=lambda s: f"{s.model.value}-{s.curv:g}")
    def test_kernels_are_finite_up_to_the_limit(self, space):
        # every triangle with half squared chords in {0, L/2, L}: the
        # suite turns an overflow's RuntimeWarning into an error
        grid = np.array([0.0, 0.5, 1.0]) * self.limit(space)
        alpha, beta, gamma = (a.ravel() for a in np.meshgrid(grid, grid, grid))
        for kernel in (_gram_root, gram_triangle_areas, gram_apex_angles):
            assert np.all(np.isfinite(kernel(space, alpha, beta, gamma)))

    def test_flat_limit_is_sharp(self):
        g = shapes.circle_graph(FLAT, 0.4, 128)
        x = np.sqrt(2e150) + 0.4  # alpha to the nearest sample, (0.4, 0, 0)
        with pytest.raises(NumericalError, match="too far from the graph"):
            check_apex(FLAT, np.array([x * (1 + 1e-9), 0.0, 0.0]), g.samples)
        apex = np.array([x * (1 - 1e-9), 0.0, 0.0])
        assert check_apex(FLAT, apex, g.samples).min() < 1e150
        area, grad = cone_area_gradient(FLAT, apex, g)
        assert math.isfinite(area) and np.all(np.isfinite(grad))
        assert math.isfinite(ambient_cone_density(FLAT, apex, g))

    @UNIT_MODELS
    def test_nan_apex_is_numerical_failure(self, space):
        g = shapes.circle_graph(space, 0.4, 128)
        apex = np.full(space.embedding_dim, np.nan)
        tc = cone_total_curvature(space, g)
        for fn in (lambda: check_apex(space, apex, g.samples),
                   lambda: develop_cone(space, apex, g),
                   lambda: ambient_cone_area(space, apex, g),
                   lambda: cone_area_gradient(space, apex, g),
                   lambda: density_bound(space, apex, g, tc)):
            with pytest.raises(NumericalError) as info:
                fn()
            assert type(info.value) is NumericalError
            assert str(info.value) == (
                "apex is too far from the graph for the cone kernels: half "
                f"squared chord nan to its nearest sample, above "
                f"{self.limit(space):.3g}")


class TestConeConormalCurvature:
    def test_flat_circle_inward_curvature(self):
        g = shapes.circle_graph(FLAT, 2.0, 1024)
        vals = cone_conormal_curvature(FLAT, np.zeros(3), g.edges[0])
        assert np.nanmax(np.abs(vals + 0.5)) < 1e-3

    def test_straight_edge_vanishes(self):
        g = shapes.square_graph(FLAT, 1.0, samples_per_edge=32)
        apex = np.array([0.3, 0.1, 0.7])
        for e in g.edges:
            vals = cone_conormal_curvature(FLAT, apex, e)
            assert np.nanmax(np.abs(vals)) < 1e-8

    def test_radial_run_flagged_absent(self):
        apex, edge = radial_segment_edge(FLAT)
        vals = cone_conormal_curvature(FLAT, apex, edge)
        assert np.all(np.isnan(vals))

    def test_developed_dominates_ambient(self):
        rng = np.random.default_rng(15)
        for space in SPACES.values():
            g, apex = random_instance(space, rng, samples_per_edge=256)
            dev = develop_cone(space, apex, g)
            for e, ed in zip(g.edges, dev.per_edge):
                knu = cone_conormal_curvature(space, apex, e)
                khat = ed.khat_nu[1:-1]
                mask = ~np.isnan(knu)
                assert np.all(khat[mask] >= knu[mask] - 1e-3)


class TestGaussBonnetResidual:
    def test_flat_circle(self):
        g = shapes.circle_graph(FLAT, 1.0, 512)
        assert gauss_bonnet_residual(FLAT, np.zeros(3), g) < 1e-3

    def test_hyperbolic_circle_with_closed_form_terms(self):
        g = shapes.circle_graph(HYP1, 1.0, 1024)
        dev = develop_cone(HYP1, HYP1.base_point(), g)
        assert gauss_bonnet_residual(HYP1, HYP1.base_point(), g, dev=dev) < 1e-3
        assert dev.hat_area == pytest.approx(
            2.0 * math.pi * (math.cosh(1.0) - 1.0), abs=1e-4)
        assert np.max(np.abs(dev.per_edge[0].khat_nu
                             + 1.0 / math.tanh(1.0))) < 1e-3

    def test_hyperbolic_pentagon(self):
        g = shapes.regular_polygon_graph(HYP1, 5, 0.8, samples_per_edge=256)
        basis = HYP1.tangent_basis(HYP1.base_point())
        apex = HYP1.exp(HYP1.base_point(), 0.3 * basis[2])
        assert gauss_bonnet_residual(HYP1, apex, g) < 1e-3

    def test_spherical_smooth_closed_curve(self):
        g = shapes.wavy_closed_curve_graph(SPH1, base_radius=0.5, wobble=0.08,
                                           n=1024)
        basis = SPH1.tangent_basis(SPH1.base_point())
        apex = SPH1.exp(SPH1.base_point(), 0.15 * basis[2])
        assert gauss_bonnet_residual(SPH1, apex, g) < 1e-3

    def test_flat_theta_graph(self):
        g = shapes.theta_graph(samples_per_edge=256)
        apex = np.array([0.3, 0.2, 0.6])
        assert gauss_bonnet_residual(FLAT, apex, g) < 1e-3

    def test_second_order_refinement(self):
        apex = np.array([0.3, 0.2, 0.6])
        residuals = [gauss_bonnet_residual(FLAT, apex,
                                           shapes.theta_graph(samples_per_edge=n))
                     for n in (64, 128, 256)]
        assert 3.5 <= residuals[0] / residuals[1] <= 4.5
        assert 3.5 <= residuals[1] / residuals[2] <= 4.5

    def test_vertex_terms_never_exceed_tc(self):
        rng = np.random.default_rng(19)
        for space in SPACES.values():
            g, apex = random_instance(space, rng, samples_per_edge=128)
            rep = cone_total_curvature(space, g)
            for vtc in rep.per_vertex:
                q = g.vertex_point(vtc.vertex_id)
                toward = space.log(q, apex)
                term = sum(math.pi / 2.0
                           - float(space.angle_between(tv.vec, toward))
                           for tv in vertex_star(g, vtc.vertex_id))
                assert term <= vtc.tc + 1e-6

    def test_density_area_chain_bounded_by_tc(self):
        rng = np.random.default_rng(27)
        for space in SPACES.values():
            g, apex = random_instance(space, rng, samples_per_edge=256)
            dev = develop_cone(space, apex, g)
            rep = cone_total_curvature(space, g)
            chain = 2.0 * math.pi * dev.hat_density \
                - space.sectional_curvature * dev.hat_area
            assert chain <= rep.total + 1e-3


class TestDevelopmentCheck:
    """gauss_bonnet_residual only accepts the development of its own apex
    and graph."""

    APEX = np.array([0.3, 0.2, 0.6])

    def test_matching_development_accepted(self):
        g = shapes.theta_graph(samples_per_edge=128)
        dev = develop_cone(FLAT, self.APEX, g)
        assert gauss_bonnet_residual(FLAT, self.APEX, g, dev=dev) < 1e-3

    def test_development_at_another_apex_rejected(self):
        g = shapes.theta_graph(samples_per_edge=128)
        dev = develop_cone(FLAT, np.array([0.1, -0.3, 0.5]), g)
        with pytest.raises(ValidationError, match="another apex"):
            gauss_bonnet_residual(FLAT, self.APEX, g, dev=dev)

    def test_development_of_another_graph_rejected(self):
        g = shapes.theta_graph(samples_per_edge=128)
        cube = shapes.cube_skeleton_graph(samples_per_edge=32)
        dev = develop_cone(FLAT, self.APEX, cube)
        with pytest.raises(ValidationError, match="another graph"):
            gauss_bonnet_residual(FLAT, self.APEX, g, dev=dev)

    def test_development_of_a_resampled_graph_rejected(self):
        # same edge ids, other parameters
        g = shapes.theta_graph(samples_per_edge=128)
        dev = develop_cone(FLAT, self.APEX, resample_arclength(g, 0.02))
        with pytest.raises(ValidationError, match="another graph"):
            gauss_bonnet_residual(FLAT, self.APEX, g, dev=dev)

    def test_parameters_one_ulp_off_rejected(self):
        g = shapes.theta_graph(samples_per_edge=128)
        dev = develop_cone(FLAT, self.APEX, g)
        ed = dev.per_edge[1]
        ed.s = ed.s.copy()
        ed.s[40] = np.nextafter(ed.s[40], np.inf)
        with pytest.raises(ValidationError, match="another graph"):
            gauss_bonnet_residual(FLAT, self.APEX, g, dev=dev)

    def test_edges_in_another_order_rejected(self):
        g = shapes.theta_graph(samples_per_edge=128)
        dev = develop_cone(FLAT, self.APEX, g)
        dev.per_edge = dev.per_edge[1:] + dev.per_edge[:1]
        with pytest.raises(ValidationError, match="another graph"):
            gauss_bonnet_residual(FLAT, self.APEX, g, dev=dev)

    def test_parameters_are_read_only_views_of_the_graph(self):
        g = shapes.theta_graph(samples_per_edge=128)
        dev = develop_cone(FLAT, self.APEX, g)
        for ed, lo in zip(dev.per_edge, g.offsets.tolist()):
            assert ed.s.base is g.s and np.shares_memory(ed.s, g.s[lo:])
        with pytest.raises(ValueError):
            dev.per_edge[0].s[0] = 1.0


def radial_run_graph():
    """radial_segment_edge closed by a two-leg return through a point off
    its line, with the apex it runs radially from."""
    apex, edge = radial_segment_edge(FLAT)
    x, y = edge.samples[0], edge.samples[-1]
    lam = np.linspace(0.0, 1.0, 33)[:, None]
    z = np.array([1.0, 0.8, 0.0])
    back = np.concatenate([y + lam * (z - y), (z + lam * (x - z))[1:]])
    return apex, validate_graph(EmbeddedGraph(
        space=FLAT, vertices=[Vertex("x", x), Vertex("y", y)],
        edges=[edge, make_edge(FLAT, "back", ("y", "x"), back)]))


class TestResidualEdgeTerm:
    """The residual's edge term is one pass of trapezoid terms over the
    stacked parameters, summed edge by edge without np.trapezoid, and it
    equals the per-edge trapezoids of the loop oracle bit for bit."""

    CASES = {
        "hyperbolic-256-edges": lambda: (many_edge_polygon(HYP1),
                                         _off_base_apex(HYP1)),
        "radial-run": lambda: radial_run_graph()[::-1],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_equals_loop_oracle_without_np_trapezoid(self, name, monkeypatch):
        g, apex = self.CASES[name]()
        dev = develop_cone(g.space, apex, g)
        want = loop_gauss_bonnet_residual(g.space, apex, g, dev=dev)
        assert np.isnan(dev.per_edge[0].khat_nu).all() == (name == "radial-run")
        monkeypatch.setattr(np, "trapezoid", refuse_trapezoid)
        assert gauss_bonnet_residual(g.space, apex, g, dev=dev) == want


@pytest.fixture
def stencil_builds(monkeypatch):
    """The parameter arrays of every first-derivative stencil built while
    the test runs."""
    built = []
    build = _num.first_derivative_stencil

    def counted(s, bounds=None):
        built.append(s)
        return build(s, bounds)

    monkeypatch.setattr(_num, "first_derivative_stencil", counted)
    return built


class TestDerivativeStencilSharing:
    """A graph builds one first-derivative stencil for all its edges, and
    each edge's rows of it are that edge's own stencil."""

    CASES = {
        "cube": lambda: shapes.cube_skeleton_graph(samples_per_edge=32),
        "hyperbolic-pentagon": lambda: shapes.regular_polygon_graph(
            HYP1, 5, 0.8, samples_per_edge=32),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_build_per_graph(self, name, stencil_builds):
        g = self.CASES[name]()
        apex = _off_base_apex(g.space)
        dev = develop_cone(g.space, apex, g)
        gauss_bonnet_residual(g.space, apex, g, dev=dev)
        for _ in range(4):
            gauss_bonnet_residual(g.space, apex, g)
        cone_total_curvature(g.space, g)
        assert len(stencil_builds) == 1

    @UNIT_MODELS
    def test_edge_rows_are_the_edge_stencil(self, space):
        g = mixed_chord_polygon(space)
        start, weights = derivative_stencil(g)
        lo = 0
        for e in g.edges:
            hi = lo + len(e.s)
            own_start, own_weights = _num.first_derivative_stencil(e.s)
            assert np.array_equal(start[lo:hi] - lo, own_start)
            assert np.array_equal(weights[lo:hi], own_weights)
            lo = hi
        assert lo == len(start)


def edge_by_edge_development(space, apex, graph):
    """develop_cone computed edge by edge: each edge's radii and swept
    angles from its own half squared chords, and its conormal curvature by
    cone_conormal_curvature on its developed curve, an EdgeCurve of its
    own with its own stencil.  The density adds all edges' apex angles,
    concatenated in graph order, by one np.sum; the area is
    uncached_cone_area."""
    plane, plane_apex = development_plane(space)
    per_edge = []
    angles = []
    for e in graph.edges:
        x = e.samples
        alpha = _half_sq_chords(space, x, apex)
        angles.append(gram_apex_angles(space, alpha[:-1], alpha[1:],
                                       _half_sq_chords(space, x[:-1], x[1:])))
        theta = np.concatenate(([0.0], np.cumsum(angles[-1])))
        r = space.chord_dist(2.0 * alpha)
        curve = EdgeCurve(id=e.id, endpoints=e.endpoints,
                          samples=developed_points(plane, r, theta), s=e.s)
        per_edge.append(EdgeDevelopment(
            edge_id=e.id, s=e.s.copy(), r=r, theta=theta,
            khat_nu=_num.extend_interior(cone_conormal_curvature(
                plane, plane_apex, curve))))
    return ConeDevelopment(apex=apex, per_edge=per_edge,
                           hat_density=float(np.sum(np.concatenate(angles)))
                           / (2.0 * math.pi),
                           hat_area=uncached_cone_area(space, apex, graph),
                           plane=plane, plane_apex=plane_apex)


# graphs of the graph-wide development test, each in all three models
DEVELOPMENT_CASES = {
    "mixed-chord-polygon": mixed_chord_polygon,
    "cube": lambda space: carried_graph(
        shapes.cube_skeleton_graph(samples_per_edge=16), space),
    "theta": lambda space: carried_graph(
        shapes.theta_graph(samples_per_edge=32), space),
}


@UNIT_MODELS
@pytest.mark.parametrize("name", sorted(DEVELOPMENT_CASES))
def test_graph_wide_development_is_the_edge_by_edge_one(name, space):
    g = DEVELOPMENT_CASES[name](space)
    for apex in _gradient_apices(space) + [_off_base_apex(space)]:
        dev = develop_cone(space, apex, g)
        ref = edge_by_edge_development(space, apex, g)
        assert (dev.hat_density, dev.hat_area) \
            == (ref.hat_density, ref.hat_area)
        for got, want in zip(dev.per_edge, ref.per_edge, strict=True):
            assert got.edge_id == want.edge_id
            for field in ("s", "r", "theta"):
                assert np.array_equal(getattr(got, field),
                                      getattr(want, field))
            assert np.array_equal(got.khat_nu, want.khat_nu, equal_nan=True)
        assert gauss_bonnet_residual(space, apex, g) \
            == loop_gauss_bonnet_residual(space, apex, g, dev=ref)


# (graph, apex) builders for the vertex-term oracle
VERTEX_TERM_CASES = {
    "cube": lambda: (shapes.cube_skeleton_graph(samples_per_edge=32),
                     np.array([0.11, -0.07, 0.21])),
    "theta": lambda: (shapes.theta_graph(samples_per_edge=64),
                      np.array([0.3, 0.2, 0.6])),
    "four-leg-star": lambda: (four_leg_star_graph(),
                              np.array([-0.1, 0.2, 0.15])),
}
for _space in (FLAT, HYP1, SPH1):
    VERTEX_TERM_CASES[f"pentagon-{_space.model.value}"] = \
        lambda space=_space: (shapes.regular_polygon_graph(
            space, 5, 0.8, samples_per_edge=32), _pentagon_apex(space))
    VERTEX_TERM_CASES[f"figure-eight-{_space.model.value}"] = \
        lambda space=_space: (figure_eight_graph(space), _off_base_apex(space))


@pytest.mark.parametrize("name", sorted(VERTEX_TERM_CASES))
def test_vertex_term_equals_loop_oracle_bitwise(name):
    g, apex = VERTEX_TERM_CASES[name]()
    dev = develop_cone(g.space, apex, g)
    want = loop_gauss_bonnet_residual(g.space, apex, g, dev=dev)
    assert gauss_bonnet_residual(g.space, apex, g, dev=dev) == want
    assert gauss_bonnet_residual(g.space, apex, g) == want


def _same_bits(got, want):
    """Equal shapes and equal bytes, so signed zeros and NaN payloads
    count."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype \
        and got.tobytes() == want.tobytes()


def _thin_triangles(space, rng, m=200):
    """Half squared chords (alpha, beta, gamma) of triangles with an apex
    off the base point and corners 0.9 from it, at chords from 0.5 down
    to 1e-9."""
    apex = _off_base_apex(space)
    basis = space.tangent_basis(apex)
    out = []
    for chord in (0.5, 1e-3, 1e-7, 1e-9):
        z = rng.standard_normal((m, 3))
        x1 = space.exp(np.broadcast_to(apex, (m, len(apex))),
                       0.9 * z / np.linalg.norm(z, axis=1)[:, None] @ basis)
        step = space.tangent_project(x1, rng.standard_normal((m, len(apex))))
        x2 = space.exp(x1, chord * step / space.norm(step)[:, None])
        out.append((_half_sq_chords(space, x1, apex),
                    _half_sq_chords(space, x2, apex),
                    _half_sq_chords(space, x1, x2)))
    return [np.concatenate(parts) for parts in zip(*out)]


def _fold_triangles(space):
    """Half squared chords of triangles whose apex lies on the geodesic
    through the other two corners, before, between and beyond them."""
    base = space.base_point()
    u = np.array([0.6, 0.0, 0.8]) @ space.tangent_basis(base)
    t = np.array([-1.1, -0.6, -0.25, 0.05, 0.4, 0.75, 1.3, 2.0])
    apex = space.exp(np.broadcast_to(base, (len(t), len(base))),
                     t[:, None] * u)
    x1, x2 = (space.exp(base, s * u) for s in (0.1, 0.3))
    return (_half_sq_chords(space, x1, apex), _half_sq_chords(space, x2, apex),
            np.full(len(t), _half_sq_chords(space, x1, x2)))


MODELS = pytest.mark.parametrize("name", sorted(SPACES))


class TestInPlaceKernels:
    """The Gram kernels are in-place chains that keep the evaluation order
    of their expression forms (kept in builders), so they give the same
    bits, signed zeros included, in every model."""

    def _check(self, space, alpha, beta, gamma):
        root = _gram_root(space, alpha, beta, gamma)
        assert _same_bits(root, expression_gram_root(space, alpha, beta,
                                                     gamma))
        # the areas and the apex angles are read off that one root
        total = alpha + beta + gamma
        assert _same_bits(_root_areas(space, total, root),
                          expression_triangle_areas(space, alpha, beta, gamma))
        assert _same_bits(_root_areas(space, total, root),
                          expression_root_areas(space, total, root))
        assert _same_bits(_apex_angles(space, alpha, beta, gamma, root),
                          expression_apex_angles(space, alpha, beta, gamma))

    @MODELS
    def test_thin_triangles(self, name):
        space = SPACES[name]
        self._check(space, *_thin_triangles(space, np.random.default_rng(5)))

    @MODELS
    def test_folds(self, name):
        space = SPACES[name]
        alpha, beta, gamma = _fold_triangles(space)
        # most of them round to g <= 0, where the root is 0
        assert np.sum(_gram_root(space, alpha, beta, gamma) == 0.0) >= 3
        self._check(space, alpha, beta, gamma)

    @MODELS
    def test_zero_dimensional_inputs(self, name):
        space = SPACES[name]
        for triple in zip(*_thin_triangles(space, np.random.default_rng(6),
                                           m=4), *_fold_triangles(space)):
            for alpha, beta, gamma in (triple[:3], triple[3:]):
                self._check(space, alpha, beta, gamma)
                self._check(space, float(alpha), float(beta), float(gamma))
                self._check(space, np.asarray(alpha), np.asarray(beta),
                            np.asarray(gamma))

    def test_flat_curvature_term_is_plus_zero(self):
        # K = 0: the skipped term 0 alpha beta gamma is +0 on the
        # nonnegative half squared chords, apex on a sample included
        alpha = np.array([0.0, 0.0, 0.5, 2.0, 1e-300])
        beta = np.array([0.5, 0.0, 2.0, 0.5, 1e-300])
        gamma = np.array([0.5, 0.0, 0.5, 0.5, 0.0])
        self._check(FLAT, alpha, beta, gamma)
        assert np.all(np.signbit(0.0 * alpha * beta * gamma) == 0)

    @MODELS
    def test_cone_quantities_on_random_graphs(self, name):
        space = SPACES[name]
        rng = np.random.default_rng(7)
        for _ in range(3):
            g, apex = random_instance(space, rng, samples_per_edge=48)
            table = _chord_table(g)
            alpha = check_apex(space, apex, g.samples)
            a, b = alpha[table.tail], alpha[table.head]
            n = table.nfine
            areas = expression_triangle_areas(space, a, b, table.gamma)
            assert ambient_cone_area(space, apex, g) \
                == expression_richardson_sum(areas, table)
            assert _richardson_sum(areas.copy(), table) \
                == expression_richardson_sum(areas, table)
            assert ambient_cone_density(space, apex, g) == float(np.sum(
                expression_apex_angles(space, a[:n], b[:n], table.gamma[:n]))
            ) / (2.0 * math.pi)
            got = cone_area_gradient(space, apex, g)
            want = expression_cone_area_gradient(space, apex, g, APEX_CLEARANCE)
            assert got[0] == want[0]
            assert _same_bits(got[1], want[1])

    def test_gradient_at_folds(self):
        # apices on the geodesic through two consecutive samples, where the
        # triangle's partials are set to 0
        g = shapes.wavy_closed_curve_graph(HYP1, n=256)
        x = g.samples
        for i in range(0, 256, 32):
            apex = HYP1.geodesic_point(x[i], x[i + 1], -40.0)
            got = cone_area_gradient(HYP1, apex, g)
            want = expression_cone_area_gradient(HYP1, apex, g, APEX_CLEARANCE)
            assert got[0] == want[0]
            assert _same_bits(got[1], want[1])


class TestOneGramPass:
    """develop_cone reads its fine chords' apex angles and all its
    triangle areas off one _gram_root pass over the chord table."""

    @UNIT_MODELS
    def test_one_gram_root_per_development(self, space, monkeypatch):
        g = mixed_chord_polygon(space)
        apex = _off_base_apex(space)
        calls = []
        gram_root = cone_mod._gram_root

        def counted(space, alpha, beta, gamma):
            calls.append(np.shape(gamma))
            return gram_root(space, alpha, beta, gamma)

        monkeypatch.setattr(cone_mod, "_gram_root", counted)
        dev = develop_cone(space, apex, g)
        assert calls == [(len(_chord_table(g).gamma),)]  # every chord at once
        assert dev.hat_area == ambient_cone_area(space, apex, g)
        assert dev.hat_density == ambient_cone_density(space, apex, g)


class TestReadOnlyChordTable:
    @pytest.mark.parametrize("space", [FLAT, HYP1, SPH1],
                             ids=lambda s: s.model.value)
    def test_table_arrays_cannot_be_written(self, space):
        g = mixed_chord_polygon(space)
        table = _chord_table(g)
        for a in (table.tail, table.head, table.gamma, table.weight,
                  table.columns):
            with pytest.raises(ValueError):
                a[0] = 0
        # the column-major copy holds the samples' own values
        assert np.array_equal(table.columns, g.samples)
        assert table.columns.flags.f_contiguous

    @MODELS
    def test_kernels_leave_their_inputs_unchanged(self, name):
        space = SPACES[name]
        inputs = _thin_triangles(space, np.random.default_rng(8), m=16)
        before = [x.copy() for x in inputs]
        total = inputs[0] + inputs[1] + inputs[2]
        root = _gram_root(space, *inputs)
        kept = total.copy(), root.copy()
        _gram_root(space, *inputs)
        _apex_angles(space, *inputs, root)
        _root_areas(space, total, root)
        _cone_density(root)
        for x, y in zip(inputs + [total, root], before + list(kept)):
            assert _same_bits(x, y)
        # on the cached table's read-only arrays a write would raise
        g = mixed_chord_polygon(space)
        table = _chord_table(g)
        gamma = table.gamma.copy()
        apex = _off_base_apex(space)
        ambient_cone_area(space, apex, g)
        ambient_cone_density(space, apex, g)
        cone_area_gradient(space, apex, g)
        develop_cone(space, apex, g)
        assert _same_bits(table.gamma, gamma)
        assert _chord_table(g) is table
