"""Command-line front end.

Graph files are JSON documents:

    {
      "space": {"model": "flat" | "hyperbolic" | "spherical",
                "dim": 3, "curv": 1.0},
      "vertices": [{"id": "v0", "coords": [...]}, ...],
      "edges": [{"id": "e0", "endpoints": ["v0", "v1"],
                 "samples": [[...], ...]}, ...],
      "tolerance": 1e-6
    }

Coordinates are embedding coordinates (R^n flat; R^{n+1} with the time
coordinate first for the hyperboloid; R^{n+1} on the radius-1/b sphere).
Exit codes: 0 success, 2 validation failure, 3 numerical failure, 64 usage.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time

import numpy as np

from . import cone as cone_mod
from .certify import Mode, certify, density_bound, hull_approx
from .curvature import cone_total_curvature
from .errors import (
    ApexOnGraphError,
    ConjugatePointError,
    NumericalError,
    ValidationError,
)
from .graph import EmbeddedGraph, load_graph_file, resample_arclength
from .spaceform import Model, SpaceForm

USAGE_EXIT = 64
VALIDATION_EXIT = 2
NUMERICAL_EXIT = 3

# A parsed --apex may sit this far off the model manifold, measured by
# SpaceForm.manifold_offset as graph file points are.
APEX_TOLERANCE = 1e-6

# gb-check admits its random apices only this far from every sample.
GB_CHECK_CLEARANCE = 1e-3

# gb-check runs at most this many trials; each keeps one output line.
MAX_GB_TRIALS = 2 ** 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _rad(x: float) -> str:
    return f"{x:.6f} rad ({x / math.pi:.4f} pi)"


def _num(x: float) -> str:
    return f"{x:.6f}"


def _effective_seed(args) -> int:
    env = os.environ.get("SOAPCERT_SEED")
    if env is None:
        seed, source = args.seed, "--seed"
    else:
        try:
            seed, source = int(env), "SOAPCERT_SEED"
        except ValueError:
            raise ValidationError(f"SOAPCERT_SEED is not an integer: {env!r}")
    if seed < 0:
        raise ValidationError(f"{source} must be a non-negative integer: {seed}")
    return seed


def _parse_apex(space: SpaceForm, text: str) -> np.ndarray:
    try:
        coords = np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise ValidationError(f"cannot parse apex coordinates {text!r}")
    if coords.shape != (space.embedding_dim,):
        raise ValidationError(
            f"apex needs {space.embedding_dim} comma-separated coordinates")
    if not np.all(np.isfinite(coords)):
        raise ValidationError("apex coordinates must be finite numbers")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is judged below
        try:
            proj = space.project_point(coords)
        except ValidationError as exc:
            raise ValidationError(f"apex: {exc}") from None
        offset = float(space.manifold_offset(coords))
        finite = np.all(np.isfinite([coords @ coords, offset, *proj]))
    if not finite:
        raise ValidationError("apex coordinates overflow when squared or projected")
    if offset > APEX_TOLERANCE:
        raise ValidationError("apex is off the manifold beyond tolerance")
    return proj


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed arguments, the loaded graph and the
# effective seed, and returns the report lines that follow the inputs line

def _cmd_tc(args, graph: EmbeddedGraph, seed: int) -> list[str]:
    report = cone_total_curvature(graph.space, graph)
    lines = ["edges:"]
    for e in report.per_edge:
        lines.append(f"  {e.edge_id}: curvature integral {_rad(e.integral)}")
    lines.append("vertices:")
    for v in report.per_vertex:
        lines.append(f"  {v.vertex_id}: tc {_rad(v.tc)}")
    lines.append(f"total cone curvature: {_rad(report.total)}")
    return lines


def _cmd_cone(args, graph: EmbeddedGraph, seed: int) -> list[str]:
    apex = _parse_apex(graph.space, args.apex)
    dev = cone_mod.develop_cone(graph.space, apex, graph)
    density = cone_mod.ambient_cone_density(graph.space, apex, graph)
    area = cone_mod.ambient_cone_area(graph.space, apex, graph)
    residual = cone_mod.gauss_bonnet_residual(graph.space, apex, graph, dev=dev)
    return [
        f"ambient cone density  Theta(C,p)    = {_num(density)}",
        f"developed cone density Theta(C^,p)  = {_num(dev.hat_density)}",
        f"ambient cone area     Area(C)       = {_num(area)}",
        f"developed cone area   Area(C^)      = {_num(dev.hat_area)}",
        f"angle-balance residual              = {residual:.3e}",
    ]


def _develop_csv(dev) -> str:
    lines = ["edge_id,s,r,theta,khat_nu"]
    offset = 0.0
    for ed in dev.per_edge:
        for s, r, th, k in zip(ed.s, ed.r, offset + ed.theta, ed.khat_nu):
            lines.append(f"{ed.edge_id},{s:.12e},{r:.12e},{th:.12e},{k:.12e}")
        offset += float(ed.theta[-1])
    return "\n".join(lines) + "\n"


def _plane_xy(dev, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Plot coordinates of developed points: direct polar for flat, unit
    Poincare disk for hyperbolic, orthographic for spherical."""
    pts = cone_mod.developed_points(dev.plane, r, theta)
    model = dev.plane.model
    if model is Model.FLAT:
        return pts
    k = dev.plane.curv
    if model is Model.HYPERBOLIC:
        unit = pts * k
        return unit[:, 1:] / (1.0 + unit[:, :1])
    return pts[:, 1:] * k


def _develop_svg(dev) -> str:
    polylines = []
    offset = 0.0
    for ed in dev.per_edge:
        polylines.append(_plane_xy(dev, ed.r, ed.theta + offset))
        offset += float(ed.theta[-1])
    allxy = np.concatenate(polylines + [np.zeros((1, 2))], axis=0)
    lo = allxy.min(axis=0)
    hi = allxy.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    margin = 0.05 * span
    size = 500.0

    def to_px(xy):
        """Pixel coordinates of the rows of xy, as a list of pairs."""
        unit = (xy - lo + margin) / (span + 2 * margin) * size
        unit[:, 1] = size - unit[:, 1]
        return unit.tolist()

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
             f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">']
    for xy in polylines:
        pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in to_px(xy))
        parts.append(f'<polyline fill="none" stroke="black" '
                     f'stroke-width="1.5" points="{pts}"/>')
    [(ax, ay)] = to_px(np.zeros((1, 2)))
    parts.append(f'<circle cx="{ax:.3f}" cy="{ay:.3f}" r="4" fill="red"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_files(outputs) -> None:
    """Write each (path, text) in turn.  When a write fails, the files this
    call created are removed before the error goes on; a path that existed
    before (a user's file, or a device such as /dev/null) is never removed."""
    created = []
    try:
        for path, text in outputs:
            mode = "w" if os.path.exists(path) else "x"
            with open(path, mode, encoding="utf-8") as fh:
                if mode == "x":
                    created.append(path)
                fh.write(text)
    except OSError:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _check_outputs(args, *flags: str) -> None:
    """ValidationError when the path of an output flag names, by realpath,
    the input graph or the path of an earlier flag, before anything is
    computed or written."""
    taken = {os.path.realpath(args.graph): "the input graph"}
    for flag in flags:
        path = getattr(args, flag)
        if path:
            real = os.path.realpath(path)
            if real in taken:
                raise ValidationError(f"--{flag} names {taken[real]}: {path}")
            taken[real] = f"the --{flag} file"


def _cmd_develop(args, graph: EmbeddedGraph, seed: int) -> list[str]:
    _check_outputs(args, "out", "svg")
    apex = _parse_apex(graph.space, args.apex)
    dev = cone_mod.develop_cone(graph.space, apex, graph)
    outputs = [(args.out, _develop_csv(dev))]
    if args.svg:
        outputs.append((args.svg, _develop_svg(dev)))
    _write_files(outputs)
    return [f"development written: {', '.join(p for p, _ in outputs)}",
            f"developed density = {_num(dev.hat_density)}, "
            f"developed area = {_num(dev.hat_area)}"]


def _cmd_density_map(args, graph: EmbeddedGraph, seed: int) -> list[str]:
    _check_outputs(args, "out")
    report = cone_total_curvature(graph.space, graph)
    hull = hull_approx(graph.space, graph, grid_n=args.grid)
    rows = []
    for apex in hull.grid:
        try:
            bound = density_bound(graph.space, apex, graph, report)
        except (ApexOnGraphError, ConjugatePointError):
            continue
        rows.append((apex, bound))
    header = ",".join(f"x{i}" for i in range(graph.space.embedding_dim))
    out_lines = [header + ",bound"]
    for apex, bound in rows:
        coords = ",".join(f"{c:.12e}" for c in apex.tolist())
        out_lines.append(f"{coords},{bound:.12e}")
    _write_files([(args.out, "\n".join(out_lines) + "\n")])
    return [f"density map written: {args.out} ({len(rows)} apices)"]


def _cmd_certify(args, graph: EmbeddedGraph, seed: int) -> list[str]:
    certs = certify(graph.space, graph, mode=Mode(args.mode),
                    simple_curve=args.simple_curve, grid_n=args.grid)
    lines = [f"total cone curvature: {_rad(certs[0].tc_total)}"]
    for c in certs:
        lines.append(f"verdict: {c.verdict.value}")
        lines.append(f"  threshold {_rad(c.threshold)}; "
                     f"area term {_num(c.cone_area_term)}; "
                     f"margin {_rad(c.margin)}; mode {c.mode.value}")
        if c.extremal_apex is not None:
            coords = ",".join(f"{x:.6f}" for x in c.extremal_apex)
            lines.append(f"  extremal apex: {coords}")
        if c.notes:
            lines.append(f"  notes: {c.notes}")
    return lines


def _cmd_gb_check(args, graph: EmbeddedGraph, seed: int) -> list[str]:
    if args.trials < 1:
        raise ValidationError("trial count must be >= 1")
    if args.trials > MAX_GB_TRIALS:
        raise ValidationError(f"trial count must be <= {MAX_GB_TRIALS}")
    rng = np.random.default_rng(seed)
    space = graph.space
    hull = hull_approx(space, graph, grid_n=1)
    basis = space.tangent_basis(hull.center)
    samples = graph.samples
    lines = []
    worst = 0.0
    done = 0
    attempts = 0
    while done < args.trials and attempts < 50 * args.trials:
        attempts += 1
        z = rng.standard_normal(space.dim)
        z *= rng.uniform(0.1, 1.1) * hull.radius / np.linalg.norm(z)
        try:
            apex = space.exp(hull.center, z @ basis)
            cone_mod.check_apex(space, apex, samples, GB_CHECK_CLEARANCE)
        except (ApexOnGraphError, ConjugatePointError):
            continue
        res = cone_mod.gauss_bonnet_residual(space, apex, graph)
        worst = max(worst, res)
        done += 1
        lines.append(f"trial {done}: residual {res:.3e}")
    if done < args.trials:
        raise NumericalError("could not place enough apices clear of the graph")
    lines.append(f"max residual over {done} trials: {worst:.3e}")
    return lines


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="soapcert",
                     description="cone curvature, cone developments and "
                                 "film regularity certificates for embedded "
                                 "graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("graph", help="graph JSON file")
        p.add_argument("--h", type=float, default=None,
                       help="arclength resampling step (default: keep input)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed of gb-check's random apices; the other "
                            "commands are deterministic and only echo it "
                            "(SOAPCERT_SEED overrides)")

    common(sub.add_parser("tc", help="cone total curvature report"))

    p = sub.add_parser("cone", help="cone quantities at a fixed apex")
    common(p)
    p.add_argument("--apex", required=True, help="comma-separated coordinates")

    p = sub.add_parser("develop", help="export the cone development")
    common(p)
    p.add_argument("--apex", required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--svg", default=None, help="optional SVG output path")

    p = sub.add_parser("density-map", help="density bound per apex grid point")
    common(p)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--out", required=True)

    p = sub.add_parser("certify", help="evaluate regularity certificates")
    common(p)
    p.add_argument("--mode", choices=["strict", "heuristic"], default="strict")
    p.add_argument("--simple-curve", action="store_true",
                   help="assert the graph is a simple closed curve")
    p.add_argument("--grid", type=int, default=1000)

    p = sub.add_parser("gb-check", help="angle-balance residuals at random apices")
    common(p)
    p.add_argument("--trials", type=int, default=10)

    return parser


_COMMANDS = {
    "tc": _cmd_tc,
    "cone": _cmd_cone,
    "develop": _cmd_develop,
    "density-map": _cmd_density_map,
    "certify": _cmd_certify,
    "gb-check": _cmd_gb_check,
}


_parser = None


def run(argv=None) -> int:
    # parse_args leaves the parser as it was, so one serves every call
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    started = time.perf_counter()
    try:
        graph = load_graph_file(args.graph)
        if args.h is not None:
            graph = resample_arclength(graph, args.h)
        seed = _effective_seed(args)
        s = graph.space
        h_text = "native" if args.h is None else f"{args.h:g}"
        lines = [f"inputs: file={args.graph} space={s.model.value} "
                 f"dim={s.dim} curv={s.curv:g} h={h_text} seed={seed}"]
        lines += _COMMANDS[args.command](args, graph, seed)
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return VALIDATION_EXIT
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return NUMERICAL_EXIT
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return NUMERICAL_EXIT
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stderr.write(f"elapsed {time.perf_counter() - started:.3f} s\n")
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
