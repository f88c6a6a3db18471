import math

import numpy as np
import pytest

from soapcert import (
    ApexOnGraphError,
    ConjugatePointError,
    Model,
    NumericalError,
    SpaceForm,
    ambient_cone_area,
    ambient_cone_density,
    check_apex,
    cone_conormal_curvature,
    cone_total_curvature,
    density_bound,
    develop_cone,
    gauss_bonnet_residual,
    resample_arclength,
    vertex_star,
)
from soapcert import shapes
from soapcert.certify import SEARCH_CLEARANCE
from soapcert.cone import (
    APEX_CLEARANCE,
    _apex_angles,
    _half_sq_chords,
    _triangle_areas,
)
from soapcert.graph import make_edge

from builders import (
    SPACES,
    developed_plain_area,
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
            got = _apex_angles(space, _half_sq_chords(space, x1, apex),
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
            check_apex(FLAT, near, g.all_samples(), clearance=1e-2)

    def test_spherical_apex_at_conjugate_distance_rejected(self):
        g = shapes.circle_graph(SPH1, 0.4, 128)
        x0 = g.edges[0].samples[0]
        away = SPH1.tangent_basis(x0)[2]
        apex = SPH1.exp(x0, (SPH1.max_radius - 5e-7) * away)
        with pytest.raises(ConjugatePointError):
            ambient_cone_area(SPH1, apex, g)


def uncached_cone_area(space, apex, graph):
    """ambient_cone_area recomputed from scratch: the triangles over each
    edge's chords and over its coarse chords, then the Richardson step."""
    total = 0.0
    for edge in graph.edges:
        x = edge.samples
        alpha = _half_sq_chords(space, x, apex)
        fine = _triangle_areas(space, alpha[:-1], alpha[1:],
                               _half_sq_chords(space, x[:-1], x[1:]))
        nodes = np.arange(0, len(fine) + 1, 2)
        nodes[-1] = len(fine)
        lo, hi = nodes[:-1], nodes[1:]
        coarse = _triangle_areas(space, alpha[lo], alpha[hi],
                                 _half_sq_chords(space, x[lo], x[hi]))
        correction = (np.add.reduceat(fine, lo) - coarse) / ((hi - lo) ** 2 - 1)
        total += float(np.sum(fine) + np.sum(correction))
    return total


def _off_base_apex(space):
    base = space.base_point()
    return space.exp(base, np.array([0.15, -0.1, 0.35])
                     @ space.tangent_basis(base))


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

    def test_resampled_graph_builds_its_own_chords(self):
        g = shapes.regular_polygon_graph(HYP1, 5, 0.8, samples_per_edge=32)
        apex = _off_base_apex(HYP1)
        ambient_cone_area(HYP1, apex, g)
        for h in (0.05, 0.043):
            fine = resample_arclength(g, h)
            assert ambient_cone_area(HYP1, apex, fine) \
                == uncached_cone_area(HYP1, apex, fine)


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
    """check_apex, ambient_cone_area and density_bound decide on half
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
        samples = g.all_samples()
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
            check_apex(SPH1, apex, g.all_samples())
        with pytest.raises(ConjugatePointError, match="conjugate radius"):
            ambient_cone_area(SPH1, apex, g)


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
