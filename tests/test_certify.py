import importlib
import math
import warnings

import numpy as np
import pytest

from soapcert import (
    ApexOnGraphError,
    CROSSING_DENSITY,
    HullApprox,
    IterationError,
    Mode,
    Model,
    NumericalError,
    SpaceForm,
    T_CONE_DENSITY,
    ValidationError,
    Verdict,
    Y_CONE_DENSITY,
    ambient_cone_area,
    certify,
    cone_total_curvature,
    density_bound,
    evaluate_certificates,
    extremal_cone_area,
    hull_approx,
    karcher_center,
)
from soapcert import shapes
from soapcert.certify import SEARCH_CLEARANCE, _halton

from builders import (
    SPACES,
    figure_eight_graph,
    two_pass_karcher_center,
    mixed_chord_polygon,
    random_graph,
    random_isometry,
    transform_graph,
    wide_spherical_triangle,
)

FLAT = SPACES["flat"]
HYP1 = SpaceForm(Model.HYPERBOLIC, 3, 1.0)


class TestConstants:
    def test_singular_cone_densities(self):
        assert Y_CONE_DENSITY == 1.5
        assert T_CONE_DENSITY == pytest.approx(1.8245, abs=1e-4)
        assert 2.0 * math.pi * T_CONE_DENSITY == pytest.approx(
            6.0 * math.acos(-1.0 / 3.0), abs=1e-12)
        assert 2.0 * math.pi * T_CONE_DENSITY == pytest.approx(11.4638, abs=1e-4)
        # the tetrahedral threshold expressed as a multiple of pi
        assert 2.0 * T_CONE_DENSITY == pytest.approx(3.649, abs=1e-3)
        assert CROSSING_DENSITY == 2.0


class TestDensityBound:
    def test_flat_circle_center(self):
        g = shapes.circle_graph(FLAT, 1.0, 1024)
        tc = cone_total_curvature(FLAT, g)
        assert density_bound(FLAT, np.zeros(3), g, tc) == pytest.approx(
            1.0, abs=1e-4)

    def test_flat_bound_independent_of_apex(self):
        g = shapes.circle_graph(FLAT, 1.0, 256)
        tc = cone_total_curvature(FLAT, g)
        b1 = density_bound(FLAT, np.array([0.2, 0.1, 0.4]), g, tc)
        b2 = density_bound(FLAT, np.array([-0.5, 0.3, -0.2]), g, tc)
        assert b1 == b2 == tc.total / (2.0 * math.pi)

    def test_hyperbolic_circle_center(self):
        g = shapes.circle_graph(HYP1, 1.0, 1024)
        tc = cone_total_curvature(HYP1, g)
        assert tc.total == pytest.approx(2.0 * math.pi * math.cosh(1.0), abs=1e-3)
        assert density_bound(HYP1, HYP1.base_point(), g, tc) == pytest.approx(
            1.0, abs=1e-3)

    def test_bound_dominates_developed_density(self):
        from soapcert import develop_cone

        rng = np.random.default_rng(3)
        for space in SPACES.values():
            from builders import random_instance

            g, apex = random_instance(space, rng, samples_per_edge=256)
            tc = cone_total_curvature(space, g)
            dev = develop_cone(space, apex, g)
            assert density_bound(space, apex, g, tc) >= dev.hat_density - 1e-4


class TestHullApprox:
    def test_flat_circle_center_is_centroid(self):
        g = shapes.circle_graph(FLAT, 1.0, 512)
        hull = hull_approx(FLAT, g, grid_n=10)
        assert np.linalg.norm(hull.center) < 1e-8
        assert hull.radius == pytest.approx(1.0, abs=1e-9)

    def test_grid_inside_the_ball(self):
        rng = np.random.default_rng(4)
        for space in SPACES.values():
            g = random_graph(space, rng, samples_per_edge=32)
            hull = hull_approx(space, g, grid_n=64)
            assert len(hull.grid) == 64
            d = space.dist(np.broadcast_to(hull.center, hull.grid.shape),
                           hull.grid)
            assert np.max(d) <= hull.radius + 1e-9

    @pytest.mark.parametrize("name", ["theta", "cube", "mixed-flat",
                                      "mixed-hyperbolic", "mixed-spherical"])
    def test_center_and_radius_of_the_distinct_samples(self, name):
        # the samples without repeated points, found by rounding every row,
        # give the same center and radius bit for bit
        g = {"theta": shapes.theta_graph, "cube": shapes.cube_skeleton_graph,
             "mixed-flat": lambda: mixed_chord_polygon(FLAT),
             "mixed-hyperbolic": lambda: mixed_chord_polygon(HYP1),
             "mixed-spherical": lambda: mixed_chord_polygon(
                 SpaceForm(Model.SPHERICAL, 3, 1.0))}[name]()
        points = g.samples
        _, first = np.unique(points.round(decimals=12), axis=0,
                             return_index=True)
        distinct = points[np.sort(first)]
        center = karcher_center(g.space, distinct)
        hull = hull_approx(g.space, g, grid_n=1)
        assert np.array_equal(hull.center, center)
        assert hull.radius == float(np.max(g.space.dist(center, distinct)))

    @pytest.mark.parametrize("count", [1, 2, 127, 999])
    @pytest.mark.parametrize("d", range(2, 7))
    def test_halton_matches_scipy(self, d, count):
        # the grid's radical inverse against scipy's unscrambled Halton
        # engine, which starts at the all-zero point 0
        from scipy.stats import qmc

        engine = qmc.Halton(d=d, scramble=False)
        engine.fast_forward(1)
        expected = engine.random(count)
        u = _halton(d, count)
        assert np.array_equal(u, expected)
        assert np.array_equal(np.signbit(u), np.signbit(expected))

    def test_wide_spherical_graph_warns(self):
        space = SpaceForm(Model.SPHERICAL, 3, 1.0)
        g = wide_spherical_triangle(space, polar_angle=0.45 * math.pi)
        with pytest.warns(UserWarning, match="diameter"):
            hull_approx(space, g, grid_n=4)


def refuse_step(*args):
    raise AssertionError("the iteration took a step")


class TestKarcherCenter:
    """One chord pass per iteration gives the center of the two-pass
    iteration (builders) bit for bit."""

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_matches_the_two_pass_iteration(self, name):
        space = SPACES[name]
        rng = np.random.default_rng(12)
        for _ in range(4):
            points = random_graph(space, rng, samples_per_edge=32).samples
            assert karcher_center(space, points).tobytes() == \
                two_pass_karcher_center(space, points).tobytes()

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_points_at_the_center_take_the_away_branch(self, name):
        # points symmetric about the base point, with the base point itself
        # among them twice: the projected mean is that point, so the first
        # iteration leaves two points out of its log map
        space = SpaceForm(SPACES[name].model, 3, 1.0)
        base = space.base_point()
        v = 0.3 * space.tangent_basis(base)
        points = np.concatenate([[base, base], space.exp(
            np.broadcast_to(base, (6, len(base))), np.concatenate([v, -v]))])
        mean = space.project_point(np.mean(points, axis=0))
        assert np.any(np.all(points == mean, axis=1))
        center = karcher_center(space, points)
        assert center.tobytes() == two_pass_karcher_center(space, points).tobytes()
        # and a spread off the base point, which takes more iterations
        points = np.concatenate([points, space.exp(base, 0.2 * v[0])[None]])
        assert karcher_center(space, points).tobytes() == \
            two_pass_karcher_center(space, points).tobytes()

    def test_a_mean_at_the_sphere_center_is_ill_posed(self):
        space = SpaceForm(Model.SPHERICAL, 3, 0.7)
        base = space.base_point()
        with pytest.raises(IterationError,
                           match="^intrinsic mean is ill-posed: cannot "
                                 "project the origin onto the sphere$"):
            karcher_center(space, np.stack([base, -base]))

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_points_all_at_the_center_return_it_without_a_step(
            self, name, monkeypatch):
        space = SpaceForm(SPACES[name].model, 3, 1.0)
        base = space.base_point()
        monkeypatch.setattr(SpaceForm, "exp", refuse_step)
        center = karcher_center(space, np.stack([base] * 5))
        assert center.tobytes() == base.tobytes()

    @pytest.mark.parametrize("name", ["hyperbolic", "spherical"])
    def test_iteration_cap_raises(self, name, monkeypatch):
        # curved means take more than one step (see the test below)
        space = SPACES[name]
        points = random_graph(space, np.random.default_rng(13),
                              samples_per_edge=32).samples
        monkeypatch.setattr(importlib.import_module("soapcert.certify"),
                            "KARCHER_MAX_ITER", 1)
        with pytest.raises(IterationError,
                           match="^intrinsic mean iteration did not "
                                 "converge$"):
            karcher_center(space, points)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_one_chord_pass_per_iteration(self, name, monkeypatch):
        # every iteration that steps makes one exp call; each iteration
        # measures its chords once, by chord_dist, and never calls dist or
        # log, which would measure them again
        space = SPACES[name]
        points = random_graph(space, np.random.default_rng(13),
                              samples_per_edge=32).samples
        calls = {"chord_dist": 0, "dist": 0, "log": 0, "exp": 0}
        for method in calls:
            def counted(self, *args, _method=method,
                        _f=getattr(SpaceForm, method)):
                calls[_method] += 1
                return _f(self, *args)
            monkeypatch.setattr(SpaceForm, method, counted)
        karcher_center(space, points)
        # the flat mean is reached in one step, the curved ones take more
        assert calls["exp"] >= (1 if space.model is Model.FLAT else 2)
        assert calls["chord_dist"] == calls["exp"]
        assert calls["dist"] == calls["log"] == 0


class TestExtremalConeArea:
    def test_unknown_mode_rejected(self):
        g = shapes.circle_graph(FLAT, 1.0, 64)
        hull = hull_approx(FLAT, g, grid_n=1)
        with pytest.raises(ValidationError,
                           match="^mode must be 'min' or 'max'$"):
            extremal_cone_area(FLAT, g, hull, "median")

    def test_grid_without_usable_apex_rejected(self):
        # every candidate is a graph sample, so none is admitted
        g = shapes.circle_graph(FLAT, 1.0, 64)
        hull = HullApprox(center=np.zeros(3), radius=1.0,
                          grid=g.samples[:8])
        with pytest.raises(NumericalError, match="^no usable apex candidate "
                                                 "in the hull grid$"):
            extremal_cone_area(FLAT, g, hull, "min")

    def test_circle_minimum_at_center(self):
        g = shapes.circle_graph(FLAT, 1.0, 256)
        hull = hull_approx(FLAT, g, grid_n=1000)
        res = extremal_cone_area(FLAT, g, hull, "min")
        assert res.value == pytest.approx(math.pi, abs=1e-3)
        assert np.linalg.norm(res.apex) < 1e-2

    def test_circle_maximum_on_ball_boundary(self):
        g = shapes.circle_graph(FLAT, 1.0, 256)
        hull = hull_approx(FLAT, g, grid_n=1000)
        res = extremal_cone_area(FLAT, g, hull, "max")
        assert res.value == pytest.approx(math.pi * math.sqrt(2.0), abs=1e-2)
        assert abs(abs(float(res.apex[2])) - 1.0) < 2e-2

    def test_theta_minimum_positive_and_monotone_under_refinement(self):
        g = shapes.theta_graph(samples_per_edge=64)
        coarse = extremal_cone_area(FLAT, g, hull_approx(FLAT, g, grid_n=60),
                                    "min")
        fine = extremal_cone_area(FLAT, g, hull_approx(FLAT, g, grid_n=240),
                                  "min")
        assert coarse.value > 0.0
        assert fine.value <= coarse.value + 1e-6


    @pytest.mark.parametrize("name", list(SPACES))
    def test_skips_an_apex_on_the_graph(self, name):
        # the first grid apex, the hull center, falls on the figure eight's
        # vertex: the search must pass over it, not fail or return it
        space = SPACES[name]
        g = figure_eight_graph(space)
        hull = hull_approx(space, g, grid_n=24)
        tc = cone_total_curvature(space, g)
        with pytest.raises(ApexOnGraphError):
            density_bound(space, hull.grid[0], g, tc)
        res = extremal_cone_area(space, g, hull,
                                 "max" if name == "spherical" else "min")
        assert math.isfinite(res.value) and res.value > 0.0
        assert float(space.dist(res.apex, hull.grid[0])) > SEARCH_CLEARANCE

    def test_search_never_measures_every_sample(self, monkeypatch):
        """Each candidate's admissibility comes from the half squared chords
        that feed its area, so no distance call during the search spans the
        graph's samples.  The minimum starts its refinement at the hull
        center and measures no distance at all; the maximum starts at a
        grid point and measures its one distance from the center."""
        g = shapes.wavy_closed_curve_graph(HYP1, n=512)
        hull = hull_approx(HYP1, g, grid_n=32)
        rows = []
        dist = SpaceForm.dist

        def counted(self, p, q):
            rows.append(max(np.size(p) // np.shape(p)[-1],
                            np.size(q) // np.shape(q)[-1]))
            return dist(self, p, q)

        monkeypatch.setattr(SpaceForm, "dist", counted)
        extremal_cone_area(HYP1, g, hull, "min")
        extremal_cone_area(HYP1, g, hull, "max")
        assert rows and max(rows) < len(g.samples)

    @pytest.mark.parametrize("name", ["hyperbolic", "spherical", "flat"])
    def test_refinement_never_worse_than_the_grid(self, name):
        space = SPACES[name]
        rng = np.random.default_rng(41)
        graphs = [shapes.wavy_closed_curve_graph(space, n=256)] + [
            random_graph(space, rng, samples_per_edge=64) for _ in range(3)]
        for g in graphs:
            hull = hull_approx(space, g, grid_n=48)
            grid = []
            for apex in hull.grid:
                try:
                    grid.append(ambient_cone_area(
                        space, apex, g, clearance=SEARCH_CLEARANCE))
                except NumericalError:
                    pass
            low = extremal_cone_area(space, g, hull, "min")
            high = extremal_cone_area(space, g, hull, "max")
            assert low.value <= min(grid)
            assert high.value >= max(grid)
            for res in (low, high):
                assert float(space.dist(res.apex, hull.center)) \
                    <= hull.radius * (1.0 + 1e-9)

    @pytest.mark.parametrize("curv", [1.0, 1.5])
    def test_spherical_maximum_within_the_strict_bound(self, curv):
        # the refinement reaches the ball boundary, where the spherical
        # maximum lies; it must still stay below the rigorous bound
        space = SpaceForm(Model.SPHERICAL, 3, curv)
        g = shapes.wavy_closed_curve_graph(space, n=512)
        tc = cone_total_curvature(space, g)
        strict = evaluate_certificates(space, g, mode=Mode.STRICT, tc=tc)
        heur = evaluate_certificates(space, g, mode=Mode.HEURISTIC, tc=tc,
                                     grid_n=128)
        k = space.sectional_curvature
        assert -heur[0].cone_area_term / k <= -strict[0].cone_area_term / k
        for cs, ch in zip(strict, heur):
            assert cs.margin <= ch.margin

    @pytest.mark.parametrize("name", ["hyperbolic", "spherical"])
    def test_refinement_evaluation_count(self, name, monkeypatch):
        """A counted, not timed, guard on the refinement's cost: one
        scipy.optimize.minimize call per search, where the benchmark's
        tracer times it, within 50 evaluations of area and gradient."""
        space = SPACES[name]
        g = shapes.wavy_closed_curve_graph(space, n=512)
        hull = hull_approx(space, g, grid_n=128)
        optimize = importlib.import_module("scipy.optimize")
        minimize = optimize.minimize
        nfev = []

        def counted(*args, **kwargs):
            res = minimize(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        monkeypatch.setattr(optimize, "minimize", counted)
        extremal_cone_area(space, g, hull,
                           "max" if name == "spherical" else "min")
        assert len(nfev) == 1 and 0 < nfev[0] <= 50


class TestCertify:
    def test_flat_circle_all_verdicts(self):
        g = shapes.circle_graph(FLAT, 1.0, 1024)
        certs = certify(FLAT, g, mode=Mode.STRICT)
        kinds = [c.verdict for c in certs]
        assert kinds == [Verdict.EMBEDDED_OR_Y, Verdict.Y_SINGULARITIES_ONLY]
        certs = certify(FLAT, g, mode=Mode.STRICT, simple_curve=True)
        kinds = [c.verdict for c in certs]
        assert kinds == [Verdict.SIMPLE_CURVE_EMBEDDED, Verdict.EMBEDDED_OR_Y,
                         Verdict.Y_SINGULARITIES_ONLY]
        assert all(c.margin >= 0.0 for c in certs)

    def test_cube_skeleton_fails_with_triple_junction_margin(self):
        g = shapes.cube_skeleton_graph()
        certs = certify(FLAT, g, mode=Mode.STRICT)
        assert len(certs) == 1
        c = certs[0]
        assert c.verdict is Verdict.NO_CERTIFICATE
        assert c.margin == pytest.approx(3.0 * math.pi - 14.7702, abs=1e-2)
        assert "margin" in c.notes

    def test_rows_carry_their_claim_whether_or_not_they_qualify(self):
        g = shapes.cube_skeleton_graph()
        tc = cone_total_curvature(FLAT, g)
        rows = evaluate_certificates(FLAT, g, mode=Mode.STRICT, tc=tc)
        assert [c.claim for c in rows] == [Verdict.EMBEDDED_OR_Y,
                                           Verdict.Y_SINGULARITIES_ONLY]
        assert all(c.verdict is Verdict.NO_CERTIFICATE for c in rows)
        rows = evaluate_certificates(FLAT, g, mode=Mode.STRICT, tc=tc,
                                     simple_curve=True)
        assert [c.claim for c in rows] == [Verdict.SIMPLE_CURVE_EMBEDDED,
                                           Verdict.EMBEDDED_OR_Y,
                                           Verdict.Y_SINGULARITIES_ONLY]

    def test_no_certificate_note_lists_every_claim_margin(self, monkeypatch):
        g = shapes.cube_skeleton_graph()
        tc = cone_total_curvature(FLAT, g)
        rows = evaluate_certificates(FLAT, g, mode=Mode.STRICT, tc=tc,
                                     simple_curve=True)
        notes_before = [c.notes for c in rows]
        # the package attribute `certify` is the function, not the module
        module = importlib.import_module("soapcert.certify")
        monkeypatch.setattr(module, "evaluate_certificates",
                            lambda *args, **kwargs: rows)
        (top,) = certify(FLAT, g, mode=Mode.STRICT, tc=tc, simple_curve=True)
        assert top.claim is Verdict.SIMPLE_CURVE_EMBEDDED
        for c in rows:
            assert f"{c.claim.value}: margin {c.margin:.6f}" in top.notes
        # the returned row is a copy; the evaluated rows keep their notes
        assert [c.notes for c in rows] == notes_before

    def test_three_arc_junction_hand_computed(self):
        # three half circles of radius a meeting at 120 degrees: each arc
        # contributes pi, each pole contributes the symmetric-junction value
        g = shapes.theta_graph(separation=1.0, samples_per_edge=512)
        tc = cone_total_curvature(FLAT, g)
        expected = 3.0 * math.pi + 2.0 * (math.pi / 6.0)
        assert tc.total == pytest.approx(expected, abs=1e-3)
        certs = certify(FLAT, g, mode=Mode.STRICT, tc=tc)
        assert [c.verdict for c in certs] == [Verdict.Y_SINGULARITIES_ONLY]
        assert certs[0].margin == pytest.approx(
            2.0 * math.pi * T_CONE_DENSITY - expected, abs=1e-3)

    def test_strict_never_beats_heuristic_margin_spherical(self):
        space = SPACES["spherical"]
        rng = np.random.default_rng(33)
        for _ in range(8):
            g = random_graph(space, rng, samples_per_edge=96)
            tc = cone_total_curvature(space, g)
            strict = evaluate_certificates(space, g, mode=Mode.STRICT, tc=tc)
            heur = evaluate_certificates(space, g, mode=Mode.HEURISTIC, tc=tc,
                                         grid_n=24)
            for cs, ch in zip(strict, heur):
                assert cs.threshold == ch.threshold
                assert cs.margin <= ch.margin + 1e-9

    def test_strict_implies_heuristic_hyperbolic(self):
        space = SPACES["hyperbolic"]
        rng = np.random.default_rng(35)
        g = random_graph(space, rng, samples_per_edge=96)
        tc = cone_total_curvature(space, g)
        strict = evaluate_certificates(space, g, mode=Mode.STRICT, tc=tc)
        heur = evaluate_certificates(space, g, mode=Mode.HEURISTIC, tc=tc,
                                     grid_n=24)
        for cs, ch in zip(strict, heur):
            if cs.verdict is not Verdict.NO_CERTIFICATE:
                assert ch.verdict is not Verdict.NO_CERTIFICATE

    def test_isometry_invariance_strict(self):
        rng = np.random.default_rng(37)
        for space in SPACES.values():
            g = random_graph(space, rng, samples_per_edge=96)
            moved = transform_graph(g, random_isometry(space, rng))
            before = evaluate_certificates(space, g, mode=Mode.STRICT)
            after = evaluate_certificates(space, moved, mode=Mode.STRICT)
            for cb, ca in zip(before, after):
                assert cb.margin == pytest.approx(ca.margin, abs=1e-8)

    def test_flat_certificates_scale_invariant(self):
        g = shapes.circle_graph(FLAT, 1.0, 512)
        doubled = transform_graph(g, lambda x: 2.0 * x)
        before = evaluate_certificates(FLAT, g, mode=Mode.STRICT)
        after = evaluate_certificates(FLAT, doubled, mode=Mode.STRICT)
        for cb, ca in zip(before, after):
            assert cb.margin == pytest.approx(ca.margin, abs=1e-9)

    def test_spherical_strict_fallback_when_ball_too_wide(self):
        # near-equatorial loop: pairwise distances stay legal but the hull
        # ball's diameter exceeds pi/b, so the strict area bound must refuse
        space = SpaceForm(Model.SPHERICAL, 3, 1.0)
        g = shapes.wavy_closed_curve_graph(space, base_radius=1.55,
                                           wobble=0.08, n=512)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            certs = certify(space, g, mode=Mode.STRICT)
        assert certs[0].verdict is Verdict.NO_CERTIFICATE
        assert "conjugate" in certs[0].notes
        assert certs[0].cone_area_term == -math.inf
        assert certs[0].margin == -math.inf

    def test_y_note_mentions_the_assumptions(self):
        g = shapes.circle_graph(FLAT, 1.0, 256)
        certs = certify(FLAT, g, mode=Mode.STRICT)
        ynote = [c for c in certs if c.verdict is Verdict.Y_SINGULARITIES_ONLY]
        assert ynote and "tetrahedral" in ynote[0].notes
