import json
import math

import numpy as np
import pytest

from soapcert import Model, SpaceForm, hull_approx, load_graph_file
from soapcert import shapes
from soapcert.certify import SEARCH_CLEARANCE
from soapcert.cli import run
from soapcert.graph import EmbeddedGraph, Vertex, make_edge, validate_graph

from builders import SPACES, figure_eight_graph, four_leg_star_graph

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
            assert np.min(g.space.dist(apex, g.all_samples())) \
                > SEARCH_CLEARANCE

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

    def test_missing_file_is_io_failure(self, capsys):
        code, _, _ = run_capture(capsys, ["tc", "/nonexistent/x.json"])
        assert code == 3

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
    ], ids=["edge-without-samples", "vertex-without-id", "vertex-as-list",
            "numeric-endpoints", "list-valued-id", "word-tolerance"])
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
