import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from soapcert import (Model, SpaceForm, ValidationError, hull_approx,
                      load_graph_file)
import soapcert
from soapcert import _num, cli, shapes
from soapcert.certify import SEARCH_CLEARANCE
from soapcert.cli import run
from soapcert.graph import EmbeddedGraph, Vertex, make_edge, validate_graph

from builders import (SPACES, figure_eight_graph, four_leg_star_graph,
                      padded_short_edge_document, refuse_allocation,
                      scaled_document)

FLAT = SpaceForm(Model.FLAT, 3)


def far_loop_graph():
    """Spherical graph (dim 3, b = 1) with one vertex v near the pole
    e_0: a small circle of polar angle 0.05 through v, and a thin loop from
    v out to polar angle 0.93 pi and back."""
    space = SpaceForm(Model.SPHERICAL, 3, 1.0)

    def pt(theta, phi):
        return np.array([math.cos(theta), math.sin(theta) * math.cos(phi),
                         math.sin(theta) * math.sin(phi), 0.0])

    v = pt(0.05, 0.0)
    far = 0.93 * math.pi
    circle = [pt(0.05, 2.0 * math.pi * i / 2000) for i in range(2000)] + [v]
    out = [pt(0.05 + (far - 0.05) * i / 8, 0.0) for i in range(9)]
    back = [pt(far - (far - 0.05) * i / 8, 0.3 * math.sin(math.pi * i / 8))
            for i in range(1, 8)] + [v]
    return validate_graph(EmbeddedGraph(
        space=space, vertices=[Vertex(id="v", point=v)],
        edges=[make_edge(space, "a", ("v", "v"), np.array(circle)),
               make_edge(space, "b", ("v", "v"), np.array(out + back))]))


def two_arcs(first=None, second="c1", with_space=True) -> str:
    """A flat graph file: arcs c0 and `second` from vertex a to vertex b,
    c0 through `first` when given; without a space block unless
    with_space."""
    document = {
        "space": {"model": "flat", "dim": 3, "curv": 0.0},
        "vertices": [{"id": "a", "coords": [0, 0, 0]},
                     {"id": "b", "coords": [1, 0, 0]}],
        "edges": [{"id": "c0", "endpoints": ["a", "b"],
                   "samples": first or [[0, 0, 0], [0.5, -0.5, 0], [1, 0, 0]]},
                  {"id": second, "endpoints": ["a", "b"],
                   "samples": [[0, 0, 0], [0.5, 0.5, 0], [1, 0, 0]]}],
    }
    if not with_space:
        del document["space"]
    return json.dumps(document)


def turning_loop(y: float) -> str:
    """A flat graph file with two loop edges at vertex (1, y, 0): a square
    c0, then e, which runs out along x = 1..5 at height y and straight
    back, so its tangent vanishes where it turns."""
    xs = [1, 2, 3, 4, 5, 4, 3, 2, 1]
    square = [[1, y, 0], [1, y, 1], [1, y + 1, 1], [1, y + 1, 0], [1, y, 0]]
    return json.dumps({
        "space": {"model": "flat", "dim": 3},
        "vertices": [{"id": "v", "coords": [1, y, 0]}],
        "edges": [{"id": "c0", "endpoints": ["v", "v"], "samples": square},
                  {"id": "e", "endpoints": ["v", "v"],
                   "samples": [[x, y, 0] for x in xs]}],
    })


@pytest.fixture()
def circle_file(tmp_path):
    g = shapes.circle_graph(FLAT, 1.0, 1024)
    path = tmp_path / "circle.graph.json"
    path.write_text(json.dumps(shapes.graph_document(g)))
    return str(path)


@pytest.fixture()
def cube_file(tmp_path):
    g = shapes.cube_skeleton_graph()
    path = tmp_path / "cube.graph.json"
    path.write_text(json.dumps(shapes.graph_document(g)))
    return str(path)


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTC:
    def test_circle_total(self, capsys, circle_file):
        code, out, _ = run_capture(capsys, ["tc", circle_file])
        assert code == 0
        assert "total cone curvature: 6.2831" in out
        assert "(2.0000 pi)" in out

    def test_inputs_echoed(self, capsys, circle_file):
        code, out, _ = run_capture(capsys, ["tc", circle_file, "--seed", "7"])
        assert code == 0
        assert "space=flat dim=3" in out
        assert "seed=7" in out
        assert "h=native" in out

    def test_env_seed_overrides_flag(self, capsys, circle_file, monkeypatch):
        monkeypatch.setenv("SOAPCERT_SEED", "99")
        code, out, _ = run_capture(capsys, ["tc", circle_file, "--seed", "7"])
        assert code == 0
        assert "seed=99" in out

    def test_resampling_step_flag(self, capsys, circle_file):
        code, out, _ = run_capture(capsys, ["tc", circle_file, "--h", "0.05"])
        assert code == 0
        assert "h=0.05" in out
        total = float(out.splitlines()[-1].split(":")[1].split("rad")[0])
        assert total == pytest.approx(2.0 * math.pi, abs=2e-3)


class TestCone:
    def test_circle_quantities(self, capsys, circle_file):
        code, out, _ = run_capture(capsys,
                                   ["cone", "--apex", "0,0,0", circle_file])
        assert code == 0
        hat_line = next(ln for ln in out.splitlines() if "Theta(C^,p)" in ln)
        assert float(hat_line.split("=")[-1]) == pytest.approx(1.0, abs=1e-4)
        residual = float(out.splitlines()[-1].split("=")[-1])
        assert residual < 1e-3

    def test_apex_on_graph_is_numerical_failure(self, capsys, circle_file):
        code, _, err = run_capture(capsys,
                                   ["cone", "--apex", "1,0,0", circle_file])
        assert code == 3
        assert "numerical error" in err

    def test_spherical_antipode_apex_is_numerical_failure(self, capsys,
                                                          tmp_path):
        sphere = SpaceForm(Model.SPHERICAL, 3, 1.0)
        g = shapes.circle_graph(sphere, 0.4, 256)
        path = tmp_path / "sphere.graph.json"
        path.write_text(json.dumps(shapes.graph_document(g)))
        antipode = ",".join(repr(float(x)) for x in -g.edges[0].samples[3])
        code, out, err = run_capture(
            capsys, ["cone", f"--apex={antipode}", str(path)])
        assert code == 3
        assert out == ""
        assert err == ("numerical error: apex sees a graph point at or beyond "
                       "the conjugate radius pi/b\n")

    def test_bad_apex_is_validation_failure(self, capsys, tmp_path,
                                            circle_file):
        code, _, err = run_capture(capsys,
                                   ["cone", "--apex", "0,0", circle_file])
        assert code == 2
        assert "validation error" in err
        for model, apex, named in (
                (Model.FLAT, "0,zero,0",
                 "cannot parse apex coordinates '0,zero,0'"),
                (Model.HYPERBOLIC, "2,0,0,0",
                 "apex is off the manifold beyond tolerance"),
                (Model.SPHERICAL, "0.5,0,0,0",
                 "apex is off the manifold beyond tolerance")):
            path = tmp_path / f"{model.value}.json"
            path.write_text(json.dumps(shapes.graph_document(
                shapes.circle_graph(SpaceForm(model, 3, 1.0), 0.5, 64))))
            code, out, err = run_capture(
                capsys, ["cone", f"--apex={apex}", str(path)])
            assert code == 2
            assert out == ""
            assert err == f"validation error: {named}\n"

    @pytest.mark.parametrize("model, apex, message", [
        (Model.SPHERICAL, "0,0,0,0",
         "cannot project the origin onto the sphere"),
        (Model.HYPERBOLIC, "1,2,0,0",
         "coordinates are not timelike; cannot project"),
        (Model.HYPERBOLIC, "-1,0,0,0",
         "hyperbolic points need a positive time coordinate")])
    def test_unprojectable_apex_names_the_apex(self, capsys, tmp_path, model,
                                               apex, message):
        path = tmp_path / f"{model.value}.json"
        path.write_text(json.dumps(shapes.graph_document(
            shapes.circle_graph(SpaceForm(model, 3, 1.0), 0.5, 64))))
        code, out, err = run_capture(capsys,
                                     ["cone", f"--apex={apex}", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"validation error: apex: {message}\n"

    @pytest.mark.parametrize("model, apex", [
        (Model.FLAT, "nan,0,0"), (Model.FLAT, "inf,0,0"),
        (Model.HYPERBOLIC, "1,nan,0,0"), (Model.SPHERICAL, "nan,0,0,1")])
    def test_non_finite_apex_is_validation_failure(self, capsys, tmp_path,
                                                   model, apex):
        path = tmp_path / f"{model.value}.json"
        path.write_text(json.dumps(shapes.graph_document(
            shapes.circle_graph(SpaceForm(model, 3, 1.0), 0.5, 64))))
        code, out, err = run_capture(capsys,
                                     ["cone", f"--apex={apex}", str(path)])
        assert code == 2
        assert out == ""
        assert err == ("validation error: apex coordinates must be finite "
                       "numbers\n")

    @pytest.mark.parametrize("model, apex", [
        (Model.FLAT, "1e160,0,0"), (Model.FLAT, "1e154,1e154,1e154"),
        (Model.HYPERBOLIC, "1e200,1e200,0,0"), (Model.HYPERBOLIC, "1e200,0,0,0"),
        (Model.SPHERICAL, "1e200,0,0,0")])
    def test_overflowing_apex_is_validation_failure(self, capsys, tmp_path,
                                                    model, apex):
        # squares, projection or offset overflow; judged without a
        # RuntimeWarning, which the suite turns into an error.  The
        # hyperbolic (1e200, 1e200) projects to NaN, which once passed as
        # an apex and failed later with a misleading message
        path = tmp_path / f"{model.value}.json"
        path.write_text(json.dumps(shapes.graph_document(
            shapes.circle_graph(SpaceForm(model, 3, 1.0), 0.8, 64))))
        code, out, err = run_capture(capsys,
                                     ["cone", f"--apex={apex}", str(path)])
        assert code == 2
        assert out == ""
        assert err == ("validation error: apex coordinates overflow when "
                       "squared or projected\n")

    @pytest.mark.parametrize("apex, chord", [("1e154,0,0", "5e+307"),
                                             ("1e76,0,0", "5e+151")])
    def test_apex_beyond_the_kernels_range_is_numerical_failure(
            self, capsys, circle_file, apex, chord):
        # its squares are finite, but the cone kernels' products of half
        # squared chords would overflow: once Theta 256 or nan with exit 0
        code, out, err = run_capture(capsys,
                                     ["cone", f"--apex={apex}", circle_file])
        assert code == 3
        assert out == ""
        assert err == ("numerical error: apex is too far from the graph for "
                       f"the cone kernels: half squared chord {chord} to its "
                       "nearest sample, above 1e+150\n")


class TestDevelop:
    def test_csv_columns_and_svg(self, capsys, tmp_path, circle_file):
        out_csv = tmp_path / "dev.csv"
        out_svg = tmp_path / "dev.svg"
        code, out, _ = run_capture(capsys, [
            "develop", "--apex", "0,0,0", "--out", str(out_csv),
            "--svg", str(out_svg), circle_file])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "edge_id,s,r,theta,khat_nu"
        rows = [ln.split(",") for ln in lines[1:]]
        r = np.array([float(row[2]) for row in rows])
        theta = np.array([float(row[3]) for row in rows])
        assert np.max(np.abs(r - 1.0)) < 1e-8
        from soapcert import develop_cone, load_graph_file

        g = load_graph_file(circle_file)
        dev = develop_cone(g.space, np.zeros(3), g)
        assert theta[-1] == pytest.approx(2.0 * math.pi * dev.hat_density,
                                          abs=1e-9)
        svg = out_svg.read_text()
        assert svg.count("<polyline") == 1
        assert "<circle" in svg

    def test_unwritable_path_is_numerical_failure(self, capsys, tmp_path,
                                                  circle_file):
        # cli.run reports every write failure as an i/o error
        missing = tmp_path / "missing-dir" / "out.csv"
        for command in (["develop", "--apex", "0,0,0.5"],
                        ["density-map", "--grid", "8"]):
            code, out, err = run_capture(
                capsys, command + ["--out", str(missing), circle_file])
            assert code == 3
            assert out == ""
            assert err.startswith("i/o error: ")
            assert str(missing) in err

    def test_failed_svg_write_leaves_no_csv(self, capsys, tmp_path,
                                            circle_file):
        out_csv = tmp_path / "dev.csv"
        missing = tmp_path / "missing-dir" / "dev.svg"
        code, out, err = run_capture(capsys, [
            "develop", "--apex", "0,0,0.5", "--out", str(out_csv),
            "--svg", str(missing), circle_file])
        assert code == 3
        assert out == ""
        assert err.startswith("i/o error: ")
        assert not out_csv.exists()

    def test_failed_svg_write_keeps_an_existing_out_file(self, capsys, tmp_path,
                                                        circle_file):
        # only files the command created are removed; a path that already
        # existed (a user's file, or a device such as /dev/null) stays
        out_csv = tmp_path / "existing.csv"
        out_csv.write_text("kept\n")
        missing = tmp_path / "missing-dir" / "dev.svg"
        code, out, err = run_capture(capsys, [
            "develop", "--apex", "0,0,0.5", "--out", str(out_csv),
            "--svg", str(missing), circle_file])
        assert code == 3
        assert out == ""
        assert err.startswith("i/o error: ")
        assert str(missing) in err
        assert out_csv.exists()

    def test_svg_naming_the_out_file_is_validation_failure(
            self, capsys, tmp_path, circle_file):
        # the two outputs would overwrite each other; nothing is written
        out_csv = tmp_path / "dev.csv"
        same = tmp_path / "." / "dev.csv"
        code, out, err = run_capture(capsys, [
            "develop", "--apex", "0,0,0.5", "--out", str(out_csv),
            "--svg", str(same), circle_file])
        assert code == 2
        assert out == ""
        assert err == f"validation error: --svg names the --out file: {same}\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_output_naming_the_graph_is_validation_failure(
            self, capsys, tmp_path, circle_file, flag):
        # the graph file would be overwritten; nothing is written
        before = Path(circle_file).read_bytes()
        same = str(tmp_path / "." / Path(circle_file).name)
        out_csv = tmp_path / "dev.csv"
        outputs = ["--out", same] if flag == "--out" else [
            "--out", str(out_csv), "--svg", same]
        code, out, err = run_capture(capsys, [
            "develop", "--apex", "0,0,0.5", *outputs, circle_file])
        assert code == 2
        assert out == ""
        assert err == f"validation error: {flag} names the input graph: {same}\n"
        assert Path(circle_file).read_bytes() == before
        assert not out_csv.exists()

    @pytest.mark.parametrize("model", ["hyperbolic", "spherical"])
    def test_curved_svg_fits_the_view_box(self, capsys, tmp_path, model):
        space = SPACES[model]
        path = tmp_path / "circle.json"
        path.write_text(json.dumps(shapes.graph_document(
            shapes.circle_graph(space, 0.8, 256))))
        apex = ",".join(repr(float(c)) for c in space.base_point())
        out_svg = tmp_path / "dev.svg"
        code, _, _ = run_capture(capsys, [
            "develop", "--apex", apex, "--out", str(tmp_path / "dev.csv"),
            "--svg", str(out_svg), str(path)])
        assert code == 0
        svg = out_svg.read_text()
        assert svg.count("<polyline") == 1
        assert svg.count("<circle") == 1
        points = svg.split('points="')[1].split('"')[0]
        xy = np.array([[float(c) for c in p.split(",")]
                       for p in points.split()])
        assert np.all((xy >= 0.0) & (xy <= 500.0))
        # the developed circle is drawn, not collapsed to a point
        assert np.ptp(xy[:, 0]) > 100.0 and np.ptp(xy[:, 1]) > 100.0

    def test_validation_failure_writes_nothing(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"space": {"model": "flat", "dim": 3},
                                   "vertices": [], "edges": []}))
        out_csv = tmp_path / "never.csv"
        code, _, err = run_capture(capsys, [
            "develop", "--apex", "0,0,1", "--out", str(out_csv), str(bad)])
        assert code in (2, 3)
        assert not out_csv.exists()

    @pytest.mark.parametrize("argv", [
        ["tc"], ["cone", "--apex=0.3,0.2,0.4"],
        ["develop", "--apex=0.3,0.2,0.4", "--out", "dev.csv"]],
        ids=lambda argv: argv[0])
    def test_padded_short_edge_is_refused(self, capsys, tmp_path, argv):
        # padding the 1.5e-12 chord of edge 'short' makes chords of
        # 1.875e-13: develop once wrote khat_nu values near +-3.7e9
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(padded_short_edge_document()))
        argv = [str(tmp_path / a) if a == "dev.csv" else a for a in argv]
        code, out, err = run_capture(capsys, argv + [str(bad)])
        assert code == 2
        assert out == ""
        assert err == ("validation error: edge 'short' has coincident "
                       "consecutive samples\n")
        assert not (tmp_path / "dev.csv").exists()

    def test_non_finite_apex_writes_nothing(self, capsys, tmp_path,
                                            circle_file):
        out_csv = tmp_path / "never.csv"
        code, out, err = run_capture(capsys, [
            "develop", "--apex", "nan,0,0", "--out", str(out_csv),
            circle_file])
        assert code == 2
        assert out == ""
        assert err == ("validation error: apex coordinates must be finite "
                       "numbers\n")
        assert not out_csv.exists()


class TestCertify:
    def test_circle_all_verdicts(self, capsys, circle_file):
        code, out, _ = run_capture(capsys, [
            "certify", "--simple-curve", circle_file])
        assert code == 0
        for name in ("SimpleCurveEmbedded", "EmbeddedOrY",
                     "YSingularitiesOnly"):
            assert name in out

    def test_heuristic_reports_extremal_apex(self, capsys, tmp_path):
        space = SpaceForm(Model.HYPERBOLIC, 3, 1.0)
        path = tmp_path / "circle.json"
        path.write_text(json.dumps(shapes.graph_document(
            shapes.circle_graph(space, 1.0, 256))))
        code, out, _ = run_capture(capsys, ["certify", "--mode", "heuristic",
                                            "--grid", "16", str(path)])
        assert code == 0
        apex_lines = [ln for ln in out.splitlines()
                      if ln.startswith("  extremal apex: ")]
        assert apex_lines
        coords = np.array([float(x) for x in
                           apex_lines[0].split(": ")[1].split(",")])
        assert coords.shape == (4,)
        assert abs(float(space.manifold_residual(coords))) < 1e-5

    def test_cube_no_certificate(self, capsys, cube_file):
        code, out, _ = run_capture(capsys, ["certify", cube_file])
        assert code == 0
        assert "NoCertificate" in out
        margin = 3.0 * math.pi - 14.770158
        assert f"margin {margin:.4f}"[:12] in out


class TestDensityMapAndGBCheck:
    def test_density_map_file(self, capsys, tmp_path, circle_file):
        out_csv = tmp_path / "map.csv"
        code, out, _ = run_capture(capsys, [
            "density-map", "--grid", "40", "--out", str(out_csv), circle_file])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "x0,x1,x2,bound"
        assert len(lines) > 10
        bounds = np.array([float(ln.split(",")[-1]) for ln in lines[1:]])
        assert np.allclose(bounds, 1.0, atol=1e-3)

    def test_density_map_out_naming_the_graph_is_validation_failure(
            self, capsys, tmp_path, circle_file):
        before = Path(circle_file).read_bytes()
        same = str(tmp_path / "." / Path(circle_file).name)
        code, out, err = run_capture(capsys, [
            "density-map", "--grid", "8", "--out", same, circle_file])
        assert code == 2
        assert out == ""
        assert err == f"validation error: --out names the input graph: {same}\n"
        assert Path(circle_file).read_bytes() == before

    def test_density_map_spherical(self, capsys, tmp_path):
        space = SpaceForm(Model.SPHERICAL, 3, 1.0)
        g = shapes.circle_graph(space, 0.5, 256)
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(shapes.graph_document(g)))
        out_csv = tmp_path / "map.csv"
        code, _, _ = run_capture(capsys, ["density-map", "--grid", "20",
                                          "--out", str(out_csv), str(path)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "x0,x1,x2,x3,bound"
        bounds = np.array([float(ln.split(",")[-1]) for ln in lines[1:]])
        # with positive curvature the bound grows with the cone area term
        assert np.all(bounds >= 1.0 - 1e-3)

    @pytest.mark.parametrize("name", list(SPACES))
    def test_density_map_skips_inadmissible_apices(self, capsys, tmp_path,
                                                   name):
        # the figure eight's hull center, the first grid apex, falls on its
        # valence-4 vertex
        path = tmp_path / "eight.json"
        path.write_text(json.dumps(shapes.graph_document(
            figure_eight_graph(SPACES[name]))))
        out_csv = tmp_path / "map.csv"
        code, out, _ = run_capture(capsys, ["density-map", "--grid", "32",
                                            "--out", str(out_csv), str(path)])
        assert code == 0
        g = load_graph_file(str(path))
        center = hull_approx(g.space, g, grid_n=1).center
        assert float(g.space.dist(center, g.vertex_point("q"))) < 1e-15
        lines = out_csv.read_text().splitlines()[1:]
        apices = np.array([[float(x) for x in ln.split(",")[:-1]]
                           for ln in lines])
        assert 0 < len(apices) < 32
        assert f"({len(apices)} apices)" in out
        assert np.min(g.space.dist(apices, center)) > SEARCH_CLEARANCE
        for apex in apices:
            assert np.min(g.space.dist(apex, g.samples)) \
                > SEARCH_CLEARANCE

    def test_gb_check_without_room_for_apices(self, capsys, tmp_path):
        # every apex lands within the hull radius, far inside the 1e-3
        # clearance of a triangle of side 1e-4
        corners = 1e-4 * np.array([[0, 0, 0], [1, 0, 0], [0.5, 0.8, 0]])
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(shapes.graph_document(
            shapes.polygon_graph(FLAT, corners, samples_per_edge=8))))
        code, out, err = run_capture(capsys, ["gb-check", "--trials", "2",
                                              str(path)])
        assert code == 3
        assert out == ""
        assert err == ("numerical error: could not place enough apices "
                       "clear of the graph\n")

    def test_gb_check(self, capsys, circle_file):
        code, out, _ = run_capture(capsys, [
            "gb-check", "--trials", "3", "--seed", "5", circle_file])
        assert code == 0
        assert "max residual over 3 trials" in out
        worst = float(out.splitlines()[-1].split(":")[-1])
        assert worst < 1e-3

    @pytest.mark.parametrize("seed", [20, 31, 34])
    def test_gb_check_skips_trial_steps_past_the_conjugate_radius(
            self, capsys, tmp_path, seed):
        # a hull ball of radius 0.926 pi: these seeds draw a trial step
        # past pi/b before their fourth admitted apex
        path = tmp_path / "far_loop.graph.json"
        path.write_text(json.dumps(shapes.graph_document(far_loop_graph())))
        with pytest.warns(UserWarning, match="diameter bound"):
            code, out, _ = run_capture(capsys, [
                "gb-check", "--trials", "4", "--seed", str(seed), str(path)])
        assert code == 0
        assert "max residual over 4 trials" in out


def test_far_apex_is_judged_by_its_quadric_residual():
    # 1e-7 off the hyperboloid along its normal at distance 10 from the
    # base point, where the projection moves it by 1.6e-3 in Euclidean terms
    space = SpaceForm(Model.HYPERBOLIC, 3, 1.0)
    point = np.array([0.0, math.sinh(10.0), 0.3, -0.2])
    point[0] = math.sqrt(1.0 + np.sum(point[1:] ** 2))
    for scale, accepted in ((1.0 + 1e-7, True), (1.0 + 1e-5, False)):
        apex = scale * point
        text = ",".join(repr(float(c)) for c in apex)
        assert np.linalg.norm(space.project_point(apex) - apex) > 1e-6
        if accepted:
            assert np.array_equal(cli._parse_apex(space, text),
                                  space.project_point(apex))
        else:
            with pytest.raises(ValidationError, match="off the manifold"):
                cli._parse_apex(space, text)


class TestOneBuildPerGraph:
    """A command builds its graph's first-derivative stencil and its star
    table once, for every edge and every vertex."""

    @pytest.mark.parametrize("argv", [
        ["tc"], ["cone", "--apex=0.11,-0.07,0.21"],
        ["gb-check", "--trials", "3"],
        ["density-map", "--grid", "8", "--out", os.devnull],
        ["certify", "--mode", "heuristic", "--grid", "8"]],
        ids=["tc", "cone", "gb-check", "density-map", "certify-heuristic"])
    def test_one_stencil_and_one_star_table(self, capsys, monkeypatch,
                                            cube_file, argv):
        graph_mod = importlib.import_module("soapcert.graph")
        stencils, tables = [], []
        build, table = _num.first_derivative_stencil, graph_mod.StarTable

        def counted_stencil(s, bounds=None):
            stencils.append(s)
            return build(s, bounds)

        def counted_table(**fields):
            tables.append(fields)
            return table(**fields)

        monkeypatch.setattr(_num, "first_derivative_stencil", counted_stencil)
        monkeypatch.setattr(graph_mod, "StarTable", counted_table)
        code, _, _ = run_capture(capsys, argv + [cube_file])
        assert code == 0
        assert (len(stencils), len(tables)) == (1, 1)

    @pytest.mark.parametrize("argv", [
        ["tc"], ["cone"], ["gb-check", "--trials", "3"]],
        ids=["tc", "cone", "gb-check"])
    @pytest.mark.parametrize("name", ["cube", "hyperbolic-pentagon"])
    def test_one_tangent_pass_over_all_samples(self, capsys, monkeypatch,
                                               tmp_path, name, argv):
        # the cube's 12 edges of 33 samples make one call over 396 rows,
        # not one call per edge
        if name == "cube":
            g, apex = shapes.cube_skeleton_graph(), [0.11, -0.07, 0.21]
        else:
            space = SpaceForm(Model.HYPERBOLIC, 3, 1.0)
            g = shapes.regular_polygon_graph(space, 5, 0.8,
                                             samples_per_edge=32)
            apex = space.exp(space.base_point(), 0.3 * space.tangent_basis(
                space.base_point())[2])
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(shapes.graph_document(g)))
        if argv == ["cone"]:
            argv = ["cone", "--apex=" + ",".join(repr(float(c))
                                                 for c in apex)]
        graph_mod = importlib.import_module("soapcert.graph")
        rows = []
        tangents = graph_mod.unit_tangents

        def counted(space, x, stencil, graph):
            rows.append(len(x))
            return tangents(space, x, stencil, graph)

        monkeypatch.setattr(graph_mod, "unit_tangents", counted)
        code, _, _ = run_capture(capsys, argv + [str(path)])
        assert code == 0
        assert rows == [len(g.samples)]
        if name == "cube":
            assert rows == [396]


_SCIPY_PROBE = """
import contextlib, io, json, sys

def scipy_loaded():
    return sorted(k for k in sys.modules
                  if k == "scipy" or k.startswith("scipy."))

import soapcert, soapcert.cli
stages = [("import", 0, scipy_loaded())]
for name, argvs in json.loads(sys.argv[1]):
    codes = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(soapcert.cli.run(argv))
    stages.append((name, max(codes), scipy_loaded()))
print(json.dumps(stages))
"""


class TestScipyOnDemand:
    """In a fresh interpreter, importing the CLI and running the commands
    that need no optimizer load no part of scipy; the density map loads
    scipy.special alone, and the heuristic search adds scipy.optimize
    (which imports scipy.spatial itself) but never scipy.stats."""

    def test_modules_loaded_by_each_command(self, tmp_path):
        hyp = SPACES["hyperbolic"]
        sphere = SpaceForm(Model.SPHERICAL, 3, 1.0)
        graphs = {
            "pentagon": (shapes.regular_polygon_graph(
                hyp, 5, 0.8, samples_per_edge=64), hyp),
            "cube": (shapes.cube_skeleton_graph(), FLAT),
            "loop": (shapes.wavy_closed_curve_graph(sphere, n=256), sphere),
        }
        strict = []
        for key, (g, space) in graphs.items():
            path = str(tmp_path / f"{key}.json")
            Path(path).write_text(json.dumps(shapes.graph_document(g)))
            center = space.base_point()
            apex = ",".join(repr(float(x)) for x in space.exp(
                center, 0.05 * space.tangent_basis(center)[2]))
            strict += [["tc", path], ["cone", f"--apex={apex}", path],
                       ["develop", f"--apex={apex}", path,
                        "--out", str(tmp_path / f"{key}.csv")],
                       ["gb-check", "--trials", "2", path],
                       ["certify", path]]
        loop = str(tmp_path / "loop.json")
        stages = [
            ("strict", strict),
            ("density-map", [["density-map", "--grid", "8", loop,
                              "--out", str(tmp_path / "map.csv")]]),
            ("heuristic", [["certify", "--mode", "heuristic", "--grid", "8",
                            loop]]),
        ]
        src = Path(soapcert.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, json.dumps(stages)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True, check=True, timeout=120)
        seen = {name: (code, set(mods))
                for name, code, mods in json.loads(done.stdout)}
        assert seen["import"] == (0, set())
        assert seen["strict"] == (0, set())
        code, mods = seen["density-map"]
        assert code == 0 and "scipy.special" in mods
        assert not mods & {"scipy.optimize", "scipy.spatial", "scipy.stats"}
        code, mods = seen["heuristic"]
        assert code == 0 and {"scipy.optimize", "scipy.special"} <= mods
        assert "scipy.stats" not in mods


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys, circle_file):
        code, _, err = run_capture(capsys, ["tc", "--bogus", circle_file])
        assert code == 64
        assert "usage" in err

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_capture(capsys, ["frobnicate"])
        assert code == 64

    def test_non_integer_env_seed_is_validation_failure(
            self, capsys, circle_file, monkeypatch):
        monkeypatch.setenv("SOAPCERT_SEED", "7.5")
        code, out, err = run_capture(capsys, ["tc", circle_file])
        assert code == 2
        assert out == ""
        assert err == "validation error: SOAPCERT_SEED is not an integer: " \
            "'7.5'\n"

    def test_negative_seed_flag_is_validation_failure(self, capsys,
                                                       circle_file):
        code, out, err = run_capture(capsys, ["gb-check", circle_file,
                                              "--seed", "-5"])
        assert code == 2
        assert out == ""
        assert err == "validation error: --seed must be a non-negative " \
            "integer: -5\n"

    def test_negative_env_seed_is_validation_failure(
            self, capsys, circle_file, monkeypatch):
        monkeypatch.setenv("SOAPCERT_SEED", "-3")
        code, out, err = run_capture(capsys, ["gb-check", circle_file])
        assert code == 2
        assert out == ""
        assert err == "validation error: SOAPCERT_SEED must be a " \
            "non-negative integer: -3\n"

    @pytest.mark.parametrize("argv,message", [
        (["gb-check", "--trials", "0"], "trial count must be >= 1"),
        (["gb-check", "--trials", "-3"], "trial count must be >= 1"),
        (["density-map", "--grid", "0"], "grid size must be >= 1"),
    ])
    def test_counts_below_one_are_validation_failures(
            self, capsys, tmp_path, circle_file, argv, message):
        out_csv = tmp_path / "map.csv"
        if argv[0] == "density-map":
            argv = argv + ["--out", str(out_csv)]
        code, out, err = run_capture(capsys, argv + [circle_file])
        assert code == 2
        assert out == ""
        assert err == f"validation error: {message}\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize("mode", ["strict", "heuristic"])
    @pytest.mark.parametrize("model", sorted(SPACES))
    def test_certify_grid_below_one_is_validation_failure(
            self, capsys, tmp_path, model, mode):
        path = tmp_path / "circle.json"
        path.write_text(json.dumps(shapes.graph_document(
            shapes.circle_graph(SPACES[model], 0.5, 64))))
        code, out, err = run_capture(capsys, ["certify", "--mode", mode,
                                              "--grid", "0", str(path)])
        assert code == 2
        assert out == ""
        assert err == "validation error: grid size must be >= 1\n"

    @pytest.mark.parametrize("argv", [
        ["density-map"],
        ["certify", "--mode", "heuristic"],
        ["certify", "--mode", "strict"],
    ], ids=["density-map", "certify-heuristic", "certify-strict"])
    def test_grid_above_the_cap_is_validation_failure(self, capsys, tmp_path,
                                                      argv):
        # 10**13 points are refused before the grid is sized; numpy itself
        # would refuse an array that large without allocating it
        path = tmp_path / "circle.json"
        path.write_text(json.dumps(shapes.graph_document(
            shapes.circle_graph(SPACES["hyperbolic"], 0.5, 64))))
        if argv[0] == "density-map":
            argv = argv + ["--out", str(tmp_path / "map.csv")]
        code, out, err = run_capture(capsys, argv + [
            "--grid", str(10 ** 13), str(path)])
        assert code == 2
        assert out == ""
        assert err == "validation error: grid size must be <= 1048576\n"
        assert not (tmp_path / "map.csv").exists()

    @pytest.mark.parametrize("step,shown", [("1e-300", "1e-300"),
                                            ("1e-9", "1e-09")])
    def test_too_fine_resampling_step_is_validation_failure(
            self, capsys, monkeypatch, circle_file, step, shown):
        # the step is refused before np.linspace sizes a resampled edge
        monkeypatch.setattr(np, "linspace", refuse_allocation)
        code, out, err = run_capture(capsys, ["tc", circle_file, "--h", step])
        assert code == 2
        assert out == ""
        assert err == f"validation error: step {shown} would resample the " \
            "graph to more than 1048576 samples\n"

    def test_missing_file_is_io_failure(self, capsys):
        code, _, _ = run_capture(capsys, ["tc", "/nonexistent/x.json"])
        assert code == 3

    @pytest.mark.parametrize("command", ["tc", "certify"])
    def test_overflowing_chords_are_validation_failure(self, capsys, tmp_path,
                                                       command):
        # the flat 64-sample circle scaled by 1e160 once loaded with s = inf
        # and printed nan with exit 0
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(scaled_document(shapes.graph_document(
            shapes.circle_graph(FLAT, 1.0, 64)), 1e160)))
        code, out, err = run_capture(capsys, [command, str(path)])
        assert code == 2
        assert "nan" not in out
        assert err == ("validation error: edge 'c0' has a chord that is not "
                       "finite\n")

    def test_invalid_graph_is_validation_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "space": {"model": "flat", "dim": 3, "curv": 0.0},
            "vertices": [{"id": "a", "coords": [0, 0, 0]},
                         {"id": "b", "coords": [1, 0, 0]}],
            "edges": [{"id": "e", "endpoints": ["a", "b"],
                       "samples": [[0, 0, 0], [1, 0, 0]]}],
        }))
        code, _, err = run_capture(capsys, ["tc", str(bad)])
        assert code == 2
        assert "validation error" in err


    @pytest.mark.parametrize("samples, named", [
        ([[0, 0, 0], ["x", 0, 0], [1, 0, 0]],
         "edge 'e' sample: coordinates must be finite numbers"),
        ([[0, 0, 0], [0.5, 0], [1, 0, 0]],
         "edge 'e' sample: expected 3 coordinates"),
        ([[0, 0, 0], ["0.5", "-0.5", "0"], [1, 0, 0]],
         "edge 'e' sample: coordinates must be finite numbers"),
        ([[0, 0, 0], [0.5, True, 0.0], [1, 0, 0]],
         "edge 'e' sample: coordinates must be finite numbers"),
    ])
    def test_malformed_coordinates_are_validation_failures(
            self, capsys, tmp_path, samples, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "space": {"model": "flat", "dim": 3, "curv": 0.0},
            "vertices": [{"id": "a", "coords": [0, 0, 0]},
                         {"id": "b", "coords": [1, 0, 0]}],
            "edges": [{"id": "e", "endpoints": ["a", "b"], "samples": samples},
                      {"id": "f", "endpoints": ["a", "b"],
                       "samples": [[0, 0, 0], [0.5, 0.5, 0], [1, 0, 0]]}],
        }))
        code, out, err = run_capture(capsys, ["tc", str(bad)])
        assert code == 2
        assert out == ""
        assert err == f"validation error: {named}\n"


    @pytest.mark.parametrize("edit, named", [
        (lambda d: d["edges"][0].pop("samples"),
         "edge 'e' has no 'samples' entry"),
        (lambda d: d["vertices"][1].pop("id"),
         "vertex block 1 has no 'id' entry"),
        (lambda d: d["vertices"].__setitem__(0, ["a", [0, 0, 0]]),
         "vertex block 0 must be a mapping"),
        (lambda d: d["edges"][0].__setitem__("endpoints", 5),
         "edge 'e' needs a list of two endpoint ids"),
        (lambda d: d["vertices"][0].__setitem__("id", ["a"]),
         "vertex block 0: id must be a string or a number"),
        (lambda d: d.__setitem__("tolerance", "tight"),
         "malformed graph document: tolerance must be a number"),
        (lambda d: d.__setitem__("tolerance", "1e-6"),
         "malformed graph document: tolerance must be a number"),
        (lambda d: d.__setitem__("tolerance", True),
         "malformed graph document: tolerance must be a number"),
        (lambda d: d["space"].__setitem__("dim", 3.7),
         "malformed graph document: dim must be an integer"),
        (lambda d: d["space"].__setitem__("dim", "3"),
         "malformed graph document: dim must be an integer"),
        (lambda d: d["space"].__setitem__("curv", "1.0"),
         "malformed graph document: curv must be a number"),
        (lambda d: d["space"].__setitem__("curv", True),
         "malformed graph document: curv must be a number"),
        (lambda d: d["vertices"][0].__setitem__("coords", ["1.0", "0", "0"]),
         "vertex 'a': coordinates must be finite numbers"),
        (lambda d: d["vertices"][1].__setitem__("coords", [True, 0, 0.0]),
         "vertex 'b': coordinates must be finite numbers"),
        *[(lambda d, t=t: d.__setitem__("tolerance", t),
           "malformed graph document: tolerance must be finite and "
           "nonnegative") for t in (-1.0, math.nan, math.inf)],
    ], ids=["edge-without-samples", "vertex-without-id", "vertex-as-list",
            "numeric-endpoints", "list-valued-id", "word-tolerance",
            "string-tolerance", "boolean-tolerance", "fractional-dim",
            "string-dim", "string-curv", "boolean-curv", "string-coords",
            "boolean-coords",
            "negative-tolerance", "nan-tolerance", "infinite-tolerance"])
    def test_malformed_blocks_are_validation_failures(
            self, capsys, tmp_path, edit, named):
        document = {
            "space": {"model": "flat", "dim": 3, "curv": 0.0},
            "vertices": [{"id": "a", "coords": [0, 0, 0]},
                         {"id": "b", "coords": [1, 0, 0]}],
            "edges": [{"id": "e", "endpoints": ["a", "b"],
                       "samples": [[0, 0, 0], [0.5, -0.5, 0], [1, 0, 0]]},
                      {"id": "f", "endpoints": ["a", "b"],
                       "samples": [[0, 0, 0], [0.5, 0.5, 0], [1, 0, 0]]}],
        }
        edit(document)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        code, out, err = run_capture(capsys, ["tc", str(bad)])
        assert code == 2
        assert out == ""
        assert err == f"validation error: {named}\n"

    @pytest.mark.parametrize("text, argv, message", [
        ("{", ["tc"], "not valid JSON: Expecting property name enclosed in "
         "double quotes: line 1 column 2 (char 1)"),
        ("[]", ["tc"], "graph document must be a mapping"),
        (two_arcs(with_space=False), ["tc"], "malformed graph document: 'space'"),
        (two_arcs(second="c0"), ["tc"], "duplicate edge id 'c0'"),
        (two_arcs(first=[[0, 0, 0]]), ["tc"],
         "edge 'c0' needs at least two samples"),
        (two_arcs(first=[[0, 0, 0], [0, 0, 0], [1, 0, 0]]), ["tc"],
         "edge 'c0' has coincident consecutive samples"),
        (two_arcs(), ["tc", "--h", "0"], "resampling step must be positive"),
        (two_arcs(), ["gb-check", "--trials", str(2 ** 20 + 1)],
         "trial count must be <= 1048576"),
        (turning_loop(1.0), ["tc"], "degenerate tangent on edge 'e'"),
        (turning_loop(0.0), ["cone", "--apex", "0,0,0"],
         "degenerate tangent on edge 'e'"),
    ], ids=["bad-json", "json-list", "no-space", "duplicate-edge",
            "one-sample", "coincident-samples", "zero-step",
            "too-many-trials", "turning-edge-tangent",
            "turning-development-tangent"])
    def test_rejected_inputs_are_validation_failures(self, capsys, tmp_path,
                                                     text, argv, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run_capture(capsys, argv + [str(bad)])
        assert code == 2
        assert out == ""
        assert err == f"validation error: {message}\n"

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe{}", "not valid JSON: 'utf-8' codec can't decode byte "
         "0xff in position 0: invalid start byte"),
        (b"[" * 100_000 + b"\n", "not valid JSON: maximum recursion depth "
         "exceeded while decoding a JSON array from a unicode string"),
        (b'{"space": {"model": "hyperbolic", "dim": 2, "curv": 1e-300}}',
         "malformed graph document: hyperbolic curvature scale 1e-300 is out "
         "of range: its square is not a normal float"),
        (b'{"space": {"model": "spherical", "dim": 2, "curv": 1e300}}',
         "malformed graph document: spherical curvature scale 1e+300 is out "
         "of range: its square is not a normal float"),
        (b'{"space": {"model": "spherical", "dim": 2, "curv": 1e400}, '
         b'"vertices": [{"id": "v0", "coords": [1, 0, 0]}], "edges": []}',
         "malformed graph document: spherical curvature scale inf is out of "
         "range: its square is not a normal float"),
        (b'{"space": {"model": "flat", "dim": 1000000000000000000000000000000}'
         b', "vertices": [{"id": "v0", "coords": [1, 0, 0]}], "edges": []}',
         "malformed graph document: manifold dimension "
         "1000000000000000000000000000000 is too large"),
    ], ids=["not-utf-8", "too-deep", "tiny-curv", "huge-curv",
            "overflowing-curv", "huge-dim"])
    def test_unloadable_files_exit_2_in_a_fresh_interpreter(
            self, tmp_path, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        src = Path(soapcert.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "soapcert.cli", "tc", str(bad)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"validation error: {message}\n"
        assert "Traceback" not in done.stderr


class TestParserReuse:
    """run builds its argument parser once per process and reuses it."""

    def test_usage_error_leaves_later_runs_as_fresh_ones(
            self, capsys, monkeypatch, circle_file, cube_file):
        later = ["tc", cube_file]
        monkeypatch.setattr(cli, "_parser", None)
        fresh = run_capture(capsys, later)
        monkeypatch.setattr(cli, "_parser", None)
        assert run_capture(capsys, ["tc", circle_file, "--seed", "9"])[0] == 0
        code, out, err = run_capture(capsys, ["tc", "--bogus", circle_file])
        assert (code, out) == (64, "")
        assert "usage" in err
        code, out, _ = run_capture(capsys, later)
        assert (code, out) == fresh[:2]
        assert out.splitlines()[0].endswith("seed=0")

    def test_parser_built_once(self, capsys, monkeypatch, circle_file):
        builds = []
        build = cli.build_parser

        def counted():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        monkeypatch.setattr(cli, "_parser", None)
        for argv in (["tc", circle_file], ["frobnicate"],
                     ["tc", circle_file, "--seed", "2"]):
            run_capture(capsys, argv)
        assert len(builds) == 1


class TestDeterminism:
    def test_reports_byte_identical(self, capsys, circle_file):
        _, out1, _ = run_capture(capsys, ["tc", circle_file, "--seed", "3"])
        _, out2, _ = run_capture(capsys, ["tc", circle_file, "--seed", "3"])
        assert out1 == out2

    def test_develop_files_byte_identical(self, capsys, tmp_path, circle_file):
        texts = []
        for tag in ("a", "b"):
            csv_path = tmp_path / f"{tag}.csv"
            svg_path = tmp_path / f"{tag}.svg"
            run_capture(capsys, ["develop", "--apex", "0,0,0.5",
                                 "--out", str(csv_path), "--svg",
                                 str(svg_path), circle_file])
            texts.append((csv_path.read_bytes(), svg_path.read_bytes()))
        assert texts[0] == texts[1]

    def test_certify_heuristic_deterministic(self, capsys, tmp_path):
        g = shapes.theta_graph(samples_per_edge=64)
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(shapes.graph_document(g)))
        _, out1, _ = run_capture(capsys, ["certify", "--mode", "heuristic",
                                          "--grid", "30", str(path)])
        _, out2, _ = run_capture(capsys, ["certify", "--mode", "heuristic",
                                          "--grid", "30", str(path)])
        assert out1 == out2

    @pytest.mark.parametrize("command", [
        ["tc"], ["certify"], ["certify", "--mode", "heuristic", "--grid", "32"],
    ], ids=["tc", "strict", "heuristic"])
    def test_seed_leaves_reports_unchanged(self, capsys, tmp_path, command):
        # The star's vertex ascent stops at its iteration cap, so its value
        # depends on every start: a start drawn from the seed would move
        # the vertex term and the report with it.
        path = tmp_path / "star.json"
        path.write_text(json.dumps(shapes.graph_document(
            four_leg_star_graph())))
        reports = set()
        for seed in range(8):
            code, out, _ = run_capture(capsys, command + [str(path), "--seed",
                                                          str(seed)])
            assert code == 0
            inputs, *report = out.splitlines()
            assert inputs.endswith(f"seed={seed}")
            reports.add("\n".join(report))
        assert len(reports) == 1
