"""Median ``load_graph`` times of four graphs that stress the loader.

    python3 tools/load_times.py

Each graph is turned into a document and through JSON, as a graph file is
read, and then ``soapcert.graph.load_graph`` builds it 15 times with the
cyclic collector paused, as ``load_graph_file`` runs it.  One line per
graph gives its rows and the median time in ms:

- a planar hyperbolic circle of 32,769 rows, whose every point has an
  exact 0 coordinate;
- a hyperbolic regular polygon of 2,048 edges of 8 chords each, also
  planar, whose cost is mostly per block;
- a hyperbolic wavy loop of 32,769 rows, which has almost no exact 0 or
  1 coordinate;
- the flat cube skeleton with 12 edges of 2,730 chords.

The hyperbolic graphs have curvature 1 and radius 0.8 (0.6 for the loop).
BLAS thread pools are capped at 1.  Compare the times only with those of
another tree run on the same host in the same session.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from soapcert import Model, SpaceForm, shapes  # noqa: E402
from soapcert.graph import load_graph  # noqa: E402

REPEATS = 15


def documents() -> dict:
    """The four graphs' documents, decoded from JSON text."""
    hyp = SpaceForm(Model.HYPERBOLIC, 3, 1.0)
    graphs = {
        "planar circle, 1 x 32,768": shapes.circle_graph(hyp, 0.8, 32768),
        "planar polygon, 2,048 x 8": shapes.regular_polygon_graph(
            hyp, 2048, 0.8, samples_per_edge=8),
        "wavy loop, 1 x 32,768": shapes.wavy_closed_curve_graph(hyp, n=32768),
        "flat cube, 12 x 2,730": shapes.cube_skeleton_graph(
            samples_per_edge=2730),
    }
    return {name: json.loads(json.dumps(shapes.graph_document(g)))
            for name, g in graphs.items()}


def median_load_ms(document: dict) -> float:
    times = []
    for _ in range(REPEATS):
        gc.disable()
        try:
            start = time.perf_counter()
            load_graph(document)
            times.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return 1e3 * statistics.median(times)


def main() -> int:
    for name, document in documents().items():
        rows = sum(len(e["samples"]) for e in document["edges"])
        print(f"{name:28s} {rows:6d} rows  {median_load_ms(document):7.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
