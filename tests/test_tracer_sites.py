"""The benchmark's tracer replaces functions at the sites the program calls
them from (``bench/tracer.py``, ``SPANS``).  Every such site must exist, so
that deleting or renaming a traced name fails here and not only when the
benchmark runs.  The cone, curvature and area-search sites must also be
reached by the commands that use them, or their per-layer metrics would
read 0.  The tracer is loaded from its file, without writing its bytecode
cache; it is installed only while those commands run, and then removed."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from soapcert import Model, SpaceForm, cli, shapes

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = saved
    return tracer


def _spans():
    return _tracer_module().SPANS


SITES = [site for _, sites in _spans() for site in sites]


@pytest.mark.parametrize("module,attr", SITES,
                         ids=[f"{m}.{a}" for m, a in SITES])
def test_traced_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


# the spans each command must reach, gb-check's development through
# gauss_bonnet_residual; the area search's spans through heuristic certify
# and density-map
REACHED = {
    "cone": {"cone.develop", "cone.gb_residual", "cone.area", "cone.density"},
    "gb-check": {"cone.develop", "cone.gb_residual"},
    "tc": {"curvature.edge"},
    "certify": {"certify.search", "cone.area", "certify.refine",
                "certify.karcher", "certify.hull"},
    "density-map": {"certify.density_bound", "cone.area", "certify.karcher",
                    "certify.hull"},
}


def test_cone_and_curvature_spans_are_reached(tmp_path, capsys):
    space = SpaceForm(Model.HYPERBOLIC, 3, 1.0)
    path = tmp_path / "pentagon.graph.json"
    path.write_text(json.dumps(shapes.graph_document(
        shapes.regular_polygon_graph(space, 5, 0.8, samples_per_edge=16))))
    apex = space.exp(space.base_point(),
                     0.3 * space.tangent_basis(space.base_point())[2])
    tracer = _tracer_module().Tracer()
    reached = {}
    tracer.install()
    try:
        for argv in (["cone", "--apex=" + ",".join(repr(float(c))
                                                   for c in apex)],
                     ["gb-check", "--trials", "2"], ["tc"],
                     ["certify", "--mode", "heuristic", "--grid", "8"],
                     ["density-map", "--grid", "8",
                      "--out", str(tmp_path / "map.csv")]):
            first = len(tracer.spans)
            assert cli.run(argv + [str(path)]) == 0
            reached[argv[0]] = {span[0] for span in tracer.spans[first:]}
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for command, names in REACHED.items():
        assert names <= reached[command], command
