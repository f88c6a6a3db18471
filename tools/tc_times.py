"""Median ``cone_total_curvature`` times, with the edge terms apart.

    python3 tools/tc_times.py

Each graph's TC is taken 15 times cold, each time on a new
``EmbeddedGraph`` of the same vertices and edges, so the stencil, tangents
and star table are built again, and 15 times warm, on one graph whose
cache is full.  Building the graphs is not timed.  While they run,
``soapcert.curvature.edge_total_curvature`` is wrapped by a timer, so the
time of the edge terms (every call during one TC, summed) is shown apart.
One line per graph gives its edges, its rows and the medians in ms:

- a hyperbolic wavy loop of 32,769 rows, one edge;
- the flat cube skeleton with 12 edges of 2,730 chords;
- the flat cube skeleton with 12 edges of 84 chords, as in the ``apex``
  workload;
- hyperbolic regular polygons of radius 0.8 with 256 and 2,048 edges of
  8 samples each.

The hyperbolic graphs have curvature 1.  The cyclic collector is paused
while a TC runs and BLAS thread pools are capped at 1.  Compare the times
only with those of another tree run on the same host at about the same
time.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from soapcert import (EmbeddedGraph, Model, SpaceForm,  # noqa: E402
                      cone_total_curvature, curvature, shapes)

REPEATS = 15


def graphs() -> dict:
    hyp = SpaceForm(Model.HYPERBOLIC, 3, 1.0)
    return {
        "wavy loop, 1 x 32,768": shapes.wavy_closed_curve_graph(hyp, n=32768),
        "flat cube, 12 x 2,730": shapes.cube_skeleton_graph(
            samples_per_edge=2730),
        "flat cube, 12 x 84": shapes.cube_skeleton_graph(samples_per_edge=84),
        "polygon, 256 x 8": shapes.regular_polygon_graph(
            hyp, 256, 0.8, samples_per_edge=8),
        "polygon, 2,048 x 8": shapes.regular_polygon_graph(
            hyp, 2048, 0.8, samples_per_edge=8),
    }


def median_ms(graph: EmbeddedGraph, cold: bool) -> tuple[float, float]:
    """Median times of TC and of its edge terms, in ms."""
    edge_terms = curvature.edge_total_curvature
    spent = []

    def timed(*args):
        start = time.perf_counter()
        try:
            return edge_terms(*args)
        finally:
            spent.append(time.perf_counter() - start)

    totals, edges = [], []
    curvature.edge_total_curvature = timed
    try:
        for _ in range(REPEATS):
            g = EmbeddedGraph(space=graph.space, vertices=graph.vertices,
                              edges=graph.edges) if cold else graph
            spent.clear()
            gc.disable()
            try:
                start = time.perf_counter()
                cone_total_curvature(g.space, g)
                totals.append(time.perf_counter() - start)
            finally:
                gc.enable()
            edges.append(sum(spent))
    finally:
        curvature.edge_total_curvature = edge_terms
    return 1e3 * statistics.median(totals), 1e3 * statistics.median(edges)


def main() -> int:
    print(f"{'graph':24s} {'edges':>5s} {'rows':>6s}   cold tc / edge ms"
          "   warm tc / edge ms")
    for name, graph in graphs().items():
        cone_total_curvature(graph.space, graph)  # fill the warm cache
        cold, warm = median_ms(graph, True), median_ms(graph, False)
        print(f"{name:24s} {len(graph.edges):5d} {len(graph.samples):6d}"
              f"   {cold[0]:7.2f} / {cold[1]:7.2f}"
              f"   {warm[0]:7.2f} / {warm[1]:7.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
