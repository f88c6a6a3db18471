"""Seeded inputs for the soapcert benchmark.

Run as a script, this is the benchmark's set-up step.  It imports soapcert,
builds one workload's graphs from the seed with ``soapcert.shapes`` and
writes them as graph files, together with ``manifest.json``: the CLI
commands of one pass and the values their outputs must match.

    python3 bench/workloads.py --workload search --seed 7 --out DIR [--size smoke]

The program under test sees only the graph files.  The closed forms below
are computed here with ``math``, independently of the library.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("search", "ingest", "apex")

# Sample counts per workload.  "full" is what the benchmark measures;
# "smoke" is the reduced size the benchmark's own smoke test runs.  Circles
# stay at 512 samples or more in "smoke" because the closed-form checks use
# the acceptance tolerances, which a coarser circle does not meet.
SIZES = {
    "full": {"loop": 512, "grid": 128, "map_grid": 64,
             "sphere_loop": 8192, "hyp_loop": 32768, "cube_edge": 2730,
             "circle": 1024, "pent_edge": 200, "cube_small_edge": 84},
    "smoke": {"loop": 96, "grid": 8, "map_grid": 8,
              "sphere_loop": 256, "hyp_loop": 512, "cube_edge": 32,
              "circle": 512, "pent_edge": 40, "cube_small_edge": 16},
}

# Wobble of the wavy loops.  The flat loop wobbles less so that its
# EmbeddedOrY margin (about 1 rad) stays far from zero; with 0.12 it is
# about 0.1 rad.
LOOP_WOBBLE = {"hyperbolic": 0.12, "spherical": 0.12, "flat": 0.10}

# Verdict lines `certify` prints for these graphs, recorded at the commit
# that introduced the benchmark.  Over the seeded parameter ranges every
# margin stays at least about 0.4 rad away from zero, so a mismatch means
# the program's verdict changed, not the input.
REFERENCE_VERDICTS = {
    ("heuristic", "hyperbolic"): ["EmbeddedOrY", "YSingularitiesOnly"],
    ("heuristic", "spherical"): ["YSingularitiesOnly"],
    ("heuristic", "flat"): ["EmbeddedOrY", "YSingularitiesOnly"],
    ("strict", "spherical"): ["NoCertificate"],
    ("strict", "hyperbolic"): ["YSingularitiesOnly"],
    ("strict", "flat-cube"): ["NoCertificate"],
}

# TC of a cube skeleton: straight edges, and 8 corners of three orthogonal
# edge-ends each.
CUBE_TC = 8 * 3.0 * (math.pi / 2.0 - math.acos(1.0 / math.sqrt(3.0)))


# ---------------------------------------------------------------------------
# closed forms for a geodesic circle of radius R in curvature scale k

def _f(model: str, k: float, r: float) -> float:
    if model == "flat":
        return r
    if model == "hyperbolic":
        return math.sinh(k * r) / k
    return math.sin(k * r) / k


def _big_f(model: str, k: float, r: float) -> float:
    """Integral of f from 0 to r."""
    if model == "flat":
        return 0.5 * r * r
    if model == "hyperbolic":
        return (math.cosh(k * r) - 1.0) / (k * k)
    return (1.0 - math.cos(k * r)) / (k * k)


def circle_tc(model: str, k: float, radius: float) -> float:
    """Total curvature of a geodesic circle: its length 2 pi f(R) times its
    geodesic curvature f'(R)/f(R)."""
    if model == "flat":
        return 2.0 * math.pi
    if model == "hyperbolic":
        return 2.0 * math.pi * math.cosh(k * radius)
    return 2.0 * math.pi * math.cos(k * radius)


def circle_cone(model: str, k: float, radius: float,
                height: float) -> tuple[float, float]:
    """Density and area of the cone over a geodesic circle from an apex on
    its axis at distance ``height`` from the center.  Every ruling has the
    same length rho (Pythagoras in the model) and the same angle alpha to
    the axis, with sin(alpha) = f(R)/f(rho); the geodesic circle at
    distance t along the rulings has length 2 pi f(t) sin(alpha)."""
    if model == "flat":
        rho = math.hypot(radius, height)
    elif model == "hyperbolic":
        rho = math.acosh(math.cosh(k * radius) * math.cosh(k * height)) / k
    else:
        rho = math.acos(math.cos(k * radius) * math.cos(k * height)) / k
    sin_alpha = _f(model, k, radius) / _f(model, k, rho)
    return sin_alpha, 2.0 * math.pi * sin_alpha * _big_f(model, k, rho)


# ---------------------------------------------------------------------------
# workloads

def _spaces():
    from soapcert import Model, SpaceForm

    return {"flat": SpaceForm(Model.FLAT, 3),
            "hyperbolic": SpaceForm(Model.HYPERBOLIC, 3, 1.0),
            "spherical": SpaceForm(Model.SPHERICAL, 3, 1.0)}


def _tangent_point(space, rng, center, low: float, high: float):
    """exp_center of a tangent vector with a random direction and a length
    drawn from [low, high]."""
    v = rng.standard_normal(space.dim)
    v *= rng.uniform(low, high) / float(np.linalg.norm(v))
    return space.exp(center, v @ space.tangent_basis(center))


def _coords(point) -> str:
    return ",".join(repr(float(x)) for x in point)


class _Manifest:
    """Collects graphs and the commands of one pass."""

    def __init__(self, out: Path, seed: int):
        self.out = out
        self.graphs = {}
        self.commands = []
        self.cli_seed = str(seed % 100_000)

    def graph(self, key: str, graph, params: dict):
        from soapcert import shapes

        path = self.out / f"{key}.graph.json"
        path.write_text(json.dumps(shapes.graph_document(graph)),
                        encoding="utf-8")
        self.graphs[key] = {
            "file": str(path), "model": graph.space.model.value,
            "edges": len(graph.edges),
            "samples": int(sum(len(e.samples) for e in graph.edges)),
            "params": params}

    def command(self, kind: str, key: str, argv: list[str],
                expect: dict | None = None, out_file: str | None = None):
        self.commands.append({
            "kind": kind, "graph": key,
            "argv": argv + [self.graphs[key]["file"], "--seed", self.cli_seed],
            "expect": expect or {}, "out_file": out_file})


def _wavy_loop(b: _Manifest, rng, space, key: str, n: int):
    from soapcert import shapes

    model = space.model.value
    center = _tangent_point(space, rng, space.base_point(), 0.0, 0.5)
    base_radius = float(rng.uniform(0.58, 0.62))
    g = shapes.wavy_closed_curve_graph(
        space, base_radius=base_radius, wobble=LOOP_WOBBLE[model], lobes=3,
        n=n, center=center)
    b.graph(key, g, {"base_radius": base_radius,
                     "wobble": LOOP_WOBBLE[model], "lobes": 3, "n": n})


def build_search(b: _Manifest, rng, size: dict):
    for model, space in _spaces().items():
        key = f"loop-{model}"
        _wavy_loop(b, rng, space, key, size["loop"])
        b.command("certify_heuristic", key,
                  ["certify", "--mode", "heuristic", "--grid", str(size["grid"])],
                  {"verdicts": REFERENCE_VERDICTS[("heuristic", model)]})
        csv = str(b.out / f"{key}.map.csv")
        b.command("density_map", key,
                  ["density-map", "--grid", str(size["map_grid"]), "--out", csv],
                  out_file=csv)


def build_ingest(b: _Manifest, rng, size: dict):
    from soapcert import shapes

    spaces = _spaces()
    _wavy_loop(b, rng, spaces["spherical"], "loop-spherical",
               size["sphere_loop"])
    _wavy_loop(b, rng, spaces["hyperbolic"], "loop-hyperbolic",
               size["hyp_loop"])
    side = float(rng.uniform(0.9, 1.1))
    b.graph("cube-flat", shapes.cube_skeleton_graph(
        side=side, samples_per_edge=size["cube_edge"]), {"side": side})
    for key, ref in (("loop-spherical", ("strict", "spherical")),
                     ("loop-hyperbolic", ("strict", "hyperbolic")),
                     ("cube-flat", ("strict", "flat-cube"))):
        b.command("certify_strict", key, ["certify"],
                  {"verdicts": REFERENCE_VERDICTS[ref]})
        b.command("tc", key, ["tc"],
                  {"tc": CUBE_TC} if key == "cube-flat" else {})


def build_apex(b: _Manifest, rng, size: dict):
    from soapcert import shapes

    spaces = _spaces()
    for model, space in spaces.items():
        key = f"circle-{model}"
        center = _tangent_point(space, rng, space.base_point(), 0.0, 0.5)
        radius = 1.0
        b.graph(key, shapes.circle_graph(space, radius, size["circle"],
                                         center=center),
                {"radius": radius, "n": size["circle"]})
        axis = space.tangent_basis(center)[2]
        b.command("tc", key, ["tc"],
                  {"tc": circle_tc(model, space.curv, radius)})
        for low, high in ((0.0, 0.3), (0.3, 0.6)):
            height = float(rng.uniform(low, high))
            density, area = circle_cone(model, space.curv, radius, height)
            apex = space.exp(center, height * axis)
            b.command("cone", key, ["cone", f"--apex={_coords(apex)}"],
                      {"density": density, "area": area})
        b.command("gb_check", key, ["gb-check", "--trials", "4"])

    hyp = spaces["hyperbolic"]
    center = _tangent_point(hyp, rng, hyp.base_point(), 0.0, 0.5)
    radius = float(rng.uniform(0.75, 0.85))
    b.graph("pentagon-hyperbolic", shapes.regular_polygon_graph(
        hyp, 5, radius, samples_per_edge=size["pent_edge"], center=center),
        {"corners": 5, "radius": radius})
    apices = [_tangent_point(hyp, rng, center, 0.1, 0.4) for _ in range(2)]

    side = float(rng.uniform(0.9, 1.1))
    b.graph("cube-flat", shapes.cube_skeleton_graph(
        side=side, samples_per_edge=size["cube_small_edge"]), {"side": side})
    cube_apices = [rng.uniform(-0.3, 0.3, 3) * side for _ in range(2)]

    for key, points, expect_tc in (
            ("pentagon-hyperbolic", apices, {}),
            ("cube-flat", cube_apices, {"tc": CUBE_TC})):
        b.command("tc", key, ["tc"], expect_tc)
        for apex in points:
            b.command("cone", key, ["cone", f"--apex={_coords(apex)}"])
        b.command("gb_check", key, ["gb-check", "--trials", "4"])


MAKE = {"search": build_search, "ingest": build_ingest, "apex": build_apex}


def write_workload(workload: str, seed: int, out: Path,
                   size: str = "full") -> dict:
    """Build the workload's graphs from ``seed``, write them under ``out``
    and return the manifest (also written as ``out/manifest.json``)."""
    out.mkdir(parents=True, exist_ok=True)
    b = _Manifest(out, seed)
    MAKE[workload](b, np.random.default_rng(seed), SIZES[size])
    manifest = {"workload": workload, "seed": seed, "size": size,
                "graphs": b.graphs, "commands": b.commands}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1),
                                       encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    write_workload(args.workload, args.seed, args.out, args.size)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
