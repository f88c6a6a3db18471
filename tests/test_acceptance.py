"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import math

import numpy as np
import pytest

from soapcert import (
    Mode,
    SpaceForm,
    Model,
    T_CONE_DENSITY,
    Verdict,
    ambient_cone_area,
    ambient_cone_density,
    cone_conormal_curvature,
    cone_total_curvature,
    density_bound,
    develop_cone,
    euler_double_circuit,
    evaluate_certificates,
    extremal_cone_area,
    gauss_bonnet_residual,
    hull_approx,
    certify,
    vertex_star,
    vertex_tc,
    vertex_tc_grid,
)
from soapcert import shapes
from soapcert.cli import run as cli_run

from builders import (
    SPACES,
    developed_plain_area,
    plain_cone_area,
    random_graph,
    random_instance,
    wedge_graph,
)

FLAT = SPACES["flat"]
HYP1 = SpaceForm(Model.HYPERBOLIC, 3, 1.0)
SPH1 = SpaceForm(Model.SPHERICAL, 3, 1.0)

CUBE_CORNER_TC = 3.0 * (math.pi / 2.0 - math.acos(1.0 / math.sqrt(3.0)))


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_total_curvature_closed_forms():
    circle = cone_total_curvature(FLAT, shapes.circle_graph(FLAT, 1.0, 1024))
    square = cone_total_curvature(
        FLAT, shapes.square_graph(FLAT, 1.0, samples_per_edge=64))
    err_circle = abs(circle.total - 2.0 * math.pi)
    err_square = abs(square.total - 2.0 * math.pi)
    _report(1, err_circle < 1e-4 and err_square < 1e-6,
            f"TC(circle)-2pi = {err_circle:.2e} (tol 1e-4), "
            f"TC(square)-2pi = {err_square:.2e} (tol 1e-6)")


def test_criterion_2_vertex_contributions():
    theta = shapes.theta_graph(samples_per_edge=256)
    y_tc = vertex_tc(FLAT, theta, "p0").tc
    y_oracle = vertex_tc_grid(FLAT, theta, "p0", n_dirs=1_000_000)
    ok_y = abs(y_tc - y_oracle) < 1e-3 and abs(y_tc - math.pi / 6.0) < 1e-3

    cube = shapes.cube_skeleton_graph()
    corner = vertex_tc(FLAT, cube, "v0").tc
    ok_corner = abs(corner - CUBE_CORNER_TC) < 1e-4

    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        space = list(SPACES.values())[int(rng.integers(3))]
        ang = rng.uniform(0.15, math.pi - 0.15)
        t1 = np.zeros(space.dim)
        t1[0] = 1.0
        t2 = np.zeros(space.dim)
        t2[0], t2[1] = math.cos(ang), math.sin(ang)
        g = wedge_graph(space, t1, t2,
                        leg=0.5 if space.model is Model.SPHERICAL else 0.7)
        got = vertex_tc(space, g, "q").tc
        worst = max(worst, abs(got - (math.pi - ang)))
    ok_ext = worst < 1e-6
    _report(2, ok_y and ok_corner and ok_ext,
            f"junction |tc-pi/6| = {abs(y_tc - math.pi / 6):.2e} "
            f"(oracle gap {abs(y_tc - y_oracle):.2e}, tol 1e-3), "
            f"cube corner err = {abs(corner - CUBE_CORNER_TC):.2e} (tol 1e-4), "
            f"exterior-angle worst = {worst:.2e} (tol 1e-6)")


def test_criterion_3_angle_balance_residuals():
    details = []
    ok = True

    g = shapes.circle_graph(HYP1, 1.0, 1024)
    dev = develop_cone(HYP1, HYP1.base_point(), g)
    res = gauss_bonnet_residual(HYP1, HYP1.base_point(), g, dev=dev)
    area_err = abs(dev.hat_area - 2.0 * math.pi * (math.cosh(1.0) - 1.0))
    khat_err = float(np.max(np.abs(dev.per_edge[0].khat_nu
                                   + 1.0 / math.tanh(1.0))))
    ok &= res < 1e-3 and area_err < 1e-4 and khat_err < 1e-3
    details.append(f"hyperbolic circle: residual {res:.2e}, "
                   f"area err {area_err:.2e}, khat err {khat_err:.2e}")

    pent = shapes.regular_polygon_graph(HYP1, 5, 0.8, samples_per_edge=256)
    apex = HYP1.exp(HYP1.base_point(), 0.3 * HYP1.tangent_basis(HYP1.base_point())[2])
    res_pent = gauss_bonnet_residual(HYP1, apex, pent)
    ok &= res_pent < 1e-3
    details.append(f"pentagon: {res_pent:.2e}")

    loop = shapes.wavy_closed_curve_graph(SPH1, base_radius=0.5, wobble=0.08,
                                          n=1024)
    apex_s = SPH1.exp(SPH1.base_point(),
                      0.15 * SPH1.tangent_basis(SPH1.base_point())[2])
    res_loop = gauss_bonnet_residual(SPH1, apex_s, loop)
    ok &= res_loop < 1e-3
    details.append(f"spherical loop: {res_loop:.2e}")

    apex_t = np.array([0.3, 0.2, 0.6])
    residuals = [gauss_bonnet_residual(
        FLAT, apex_t, shapes.theta_graph(samples_per_edge=n))
        for n in (64, 128, 256)]
    ok &= residuals[2] < 1e-3
    r1 = residuals[0] / residuals[1]
    r2 = residuals[1] / residuals[2]
    ok &= 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
    details.append(f"three-arc graph: {residuals[2]:.2e}, "
                   f"refinement ratios {r1:.2f}, {r2:.2f} (target [3.5,4.5])")
    _report(3, ok, "; ".join(details) + "; tol 1e-3")


def test_criterion_4_comparison_suite():
    worst = {"density": -np.inf, "area": -np.inf, "plain": -np.inf,
             "conormal": -np.inf, "vertex": -np.inf, "chain": -np.inf}
    rng = np.random.default_rng(2024)
    for space in SPACES.values():
        for _ in range(100):
            graph, apex = random_instance(space, rng, samples_per_edge=256)
            h = max(float(np.max(np.diff(e.s))) for e in graph.edges)
            area_tol = 100.0 * h ** 2
            dev = develop_cone(space, apex, graph)
            worst["density"] = max(
                worst["density"],
                ambient_cone_density(space, apex, graph) - dev.hat_density)
            # the developed reference is the plain triangle sum over the
            # developed points; hat_area is the ambient kernel itself
            developed = developed_plain_area(dev)
            plain = plain_cone_area(space, apex, graph)
            worst["plain"] = max(worst["plain"],
                                 abs(developed - plain) / plain)
            worst["area"] = max(
                worst["area"],
                ambient_cone_area(space, apex, graph) - developed - area_tol
                + 1e-15)
            for e, ed in zip(graph.edges, dev.per_edge):
                knu = cone_conormal_curvature(space, apex, e)
                gap = np.nanmax(knu - ed.khat_nu[1:-1])
                worst["conormal"] = max(worst["conormal"], float(gap))
            rep = cone_total_curvature(space, graph)
            for vtc in rep.per_vertex:
                q = graph.vertex_point(vtc.vertex_id)
                toward = space.log(q, apex)
                term = sum(
                    math.pi / 2.0 - float(space.angle_between(tv.vec, toward))
                    for tv in vertex_star(graph, vtc.vertex_id))
                worst["vertex"] = max(worst["vertex"], term - vtc.tc)
            chain = 2.0 * math.pi * dev.hat_density \
                - space.sectional_curvature * dev.hat_area
            worst["chain"] = max(worst["chain"], chain - rep.total)
    ok = (worst["density"] <= 1e-6 and worst["area"] <= 0.0
          and worst["plain"] <= 1e-12 and worst["conormal"] <= 1e-3
          and worst["vertex"] <= 1e-6 and worst["chain"] <= 1e-3)
    _report(4, ok,
            "300 instances; worst margins: "
            f"density {worst['density']:.2e} (tol 1e-6), "
            f"area-over-tol(h) {worst['area']:.2e} (tol(h)=100h^2), "
            f"developed-vs-ambient plain sum {worst['plain']:.2e} "
            "(rel tol 1e-12), "
            f"conormal {worst['conormal']:.2e} (tol 1e-3), "
            f"vertex {worst['vertex']:.2e} (tol 1e-6), "
            f"chain {worst['chain']:.2e} (tol 1e-3)")


def test_criterion_5_density_bound_closed_forms():
    flat_circle = shapes.circle_graph(FLAT, 1.0, 1024)
    flat_bound = density_bound(FLAT, np.zeros(3), flat_circle,
                               cone_total_curvature(FLAT, flat_circle))
    hyp_circle = shapes.circle_graph(HYP1, 1.0, 1024)
    hyp_bound = density_bound(HYP1, HYP1.base_point(), hyp_circle,
                              cone_total_curvature(HYP1, hyp_circle))
    ok = abs(flat_bound - 1.0) < 1e-4 and abs(hyp_bound - 1.0) < 1e-3
    _report(5, ok,
            f"flat circle bound err {abs(flat_bound - 1.0):.2e} (tol 1e-4), "
            f"hyperbolic err {abs(hyp_bound - 1.0):.2e} (tol 1e-3)")


def test_criterion_6_certificates():
    circle = shapes.circle_graph(FLAT, 1.0, 1024)
    got = {c.verdict for c in certify(FLAT, circle, mode=Mode.STRICT,
                                      simple_curve=True)}
    ok_circle = got == {Verdict.EMBEDDED_OR_Y, Verdict.Y_SINGULARITIES_ONLY,
                        Verdict.SIMPLE_CURVE_EMBEDDED}

    cube = shapes.cube_skeleton_graph()
    cube_cert = certify(FLAT, cube, mode=Mode.STRICT)
    margin_expected = 9.4248 - 14.7702
    ok_cube = (cube_cert[0].verdict is Verdict.NO_CERTIFICATE
               and abs(cube_cert[0].margin - margin_expected) < 1e-2)
    t_threshold = 2.0 * math.pi * T_CONE_DENSITY
    ok_const = abs(t_threshold - 6.0 * math.acos(-1.0 / 3.0)) < 1e-12 \
        and abs(t_threshold - 11.4638) < 1e-4 \
        and abs(2.0 * T_CONE_DENSITY - 3.649) < 1e-3

    rng = np.random.default_rng(55)
    worst_gap = -np.inf
    for _ in range(50):
        g = random_graph(SPACES["spherical"], rng, samples_per_edge=96)
        tc = cone_total_curvature(SPACES["spherical"], g)
        strict = evaluate_certificates(SPACES["spherical"], g,
                                       mode=Mode.STRICT, tc=tc)
        heur = evaluate_certificates(SPACES["spherical"], g,
                                     mode=Mode.HEURISTIC, tc=tc, grid_n=16)
        for cs, ch in zip(strict, heur):
            worst_gap = max(worst_gap, cs.margin - ch.margin)
    ok_modes = worst_gap <= 1e-9
    _report(6, ok_circle and ok_cube and ok_const and ok_modes,
            f"circle verdicts {sorted(v.value for v in got)}, "
            f"cube margin {cube_cert[0].margin:.4f} "
            f"(expected {margin_expected:.4f} +- 1e-2), "
            f"tetrahedral threshold {t_threshold:.5f}, "
            f"strict-minus-heuristic margin max {worst_gap:.2e} (<= 0)")


def test_criterion_7_doubled_euler_circuits():
    def closed_double_cover(graph):
        walk = euler_double_circuit(graph)
        if len(walk) != 2 * len(graph.edges):
            return False
        counts = {}
        for t in walk:
            counts[t.edge_id] = counts.get(t.edge_id, 0) + 1
        if any(counts.get(e.id, 0) != 2 for e in graph.edges):
            return False
        if any(a.head != b.tail for a, b in zip(walk, walk[1:])):
            return False
        return walk[0].tail == walk[-1].head

    ok = closed_double_cover(shapes.theta_graph(samples_per_edge=16))
    ok &= closed_double_cover(shapes.cube_skeleton_graph(samples_per_edge=8))
    rng = np.random.default_rng(77)
    for _ in range(100):
        g = random_graph(FLAT, rng, n_vertices=int(rng.integers(2, 6)),
                         n_extra=int(rng.integers(0, 4)), samples_per_edge=8)
        ok &= closed_double_cover(g)
    _report(7, ok, "theta, cube, and 100 random connected graphs: every edge "
                   "covered twice by one closed walk")


def test_criterion_8_extremal_cone_area():
    g = shapes.circle_graph(FLAT, 1.0, 256)
    hull = hull_approx(FLAT, g, grid_n=1000)
    res = extremal_cone_area(FLAT, g, hull, "min")
    value_err = abs(res.value - math.pi)
    center_gap = float(np.linalg.norm(res.apex))
    _report(8, value_err < 1e-3 and center_gap < 1e-2,
            f"min value err {value_err:.2e} (tol 1e-3), "
            f"apex offset {center_gap:.2e} (tol 1e-2); grid 1000 + refinement")


def test_criterion_9_deterministic_outputs(tmp_path, capsys):
    g = shapes.theta_graph(samples_per_edge=64)
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(shapes.graph_document(g)))

    outputs = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"{tag}.csv"
        svg_path = tmp_path / f"{tag}.svg"
        assert cli_run(["tc", str(path), "--seed", "3"]) == 0
        tc_text = capsys.readouterr().out
        assert cli_run(["develop", "--apex", "0.2,0.1,0.4", "--out",
                        str(csv_path), "--svg", str(svg_path),
                        str(path), "--seed", "3"]) == 0
        capsys.readouterr()
        assert cli_run(["certify", "--mode", "heuristic", "--grid", "30",
                        str(path), "--seed", "3"]) == 0
        cert_text = capsys.readouterr().out
        outputs.append((tc_text, cert_text, csv_path.read_bytes(),
                        svg_path.read_bytes()))
    _report(9, outputs[0] == outputs[1],
            "tc report, certify report, development CSV and SVG byte-equal "
            "across two runs with the same seed")
