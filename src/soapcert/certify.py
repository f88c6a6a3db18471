"""Density bounds and regularity certificates for graph-spanning films.

For a strongly stationary film spanning the graph, the apex density at any
point p obeys

    2 pi Theta <= TC(graph) - kappa^2 Area(cone at p)   (curvature -kappa^2)
    2 pi Theta <= TC(graph) + b^2 Area(cone at p)       (curvature +b^2)

Comparing the resulting density bound against the densities of the minimal
singular cones yields certificates:

* 3 pi threshold (density 3/2, the triple-junction cone): the film is
  embedded or a piece of that cone,
* 2 pi * T_CONE_DENSITY threshold (3-dimensional ambients): at worst
  triple-junction singularities, with a tetrahedral-cone exception,
* 4 pi threshold (density 2, simple closed boundary curves): a branched
  minimal immersion is embedded.

Strict mode replaces sampled area extrema with analytically safe values so
that a reported certificate never rests on an unproven optimum; heuristic
mode uses the sampled extrema and says so.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special
from scipy.stats import qmc

from .cone import ambient_cone_area, check_apex
from .curvature import TCReport, cone_total_curvature
from .errors import IterationError, NumericalError, ValidationError
from .graph import EmbeddedGraph
from .spaceform import Model, SpaceForm

Y_CONE_DENSITY = 1.5
T_CONE_DENSITY = 3.0 / math.pi * math.acos(-1.0 / 3.0)
CROSSING_DENSITY = 2.0

KARCHER_TOL = 1e-10
KARCHER_MAX_ITER = 200

# Apex candidates of the area search must keep at least this distance from
# every graph sample.
SEARCH_CLEARANCE = 1e-4


class Verdict(enum.Enum):
    EMBEDDED_OR_Y = "EmbeddedOrY"
    Y_SINGULARITIES_ONLY = "YSingularitiesOnly"
    SIMPLE_CURVE_EMBEDDED = "SimpleCurveEmbedded"
    NO_CERTIFICATE = "NoCertificate"


class Mode(enum.Enum):
    STRICT = "strict"
    HEURISTIC = "heuristic"


@dataclass(eq=False)
class Certificate:
    """One threshold test: ``claim`` is the verdict it tested, ``verdict``
    is that claim when it qualifies and NO_CERTIFICATE otherwise."""

    verdict: Verdict
    claim: Verdict
    tc_total: float
    threshold: float
    cone_area_term: float
    margin: float
    mode: Mode
    extremal_apex: np.ndarray | None
    notes: str


@dataclass(eq=False)
class HullApprox:
    """Outer approximation of the geodesic convex hull: the geodesic ball
    around the intrinsic mean of all graph samples.  Geodesic balls are
    convex in these models at the admissible radii, so extremizing over the
    ball brackets extremizing over the hull conservatively."""

    center: np.ndarray
    radius: float
    grid: np.ndarray


@dataclass(eq=False)
class ExtremalArea:
    value: float
    apex: np.ndarray


def density_bound(space: SpaceForm, apex: np.ndarray, graph: EmbeddedGraph,
                  tc: TCReport) -> float:
    """Upper bound (TC + K * cone area) / 2 pi, K the sectional curvature,
    for the density at `apex` of any strongly stationary film spanning the
    graph; the flat model computes no area.  The apex is admitted at
    SEARCH_CLEARANCE: ApexOnGraphError when a sample is that close,
    ConjugatePointError when a spherical sample is at the conjugate radius."""
    if space.model is Model.FLAT:
        check_apex(space, apex, graph.all_samples(), SEARCH_CLEARANCE)
        return tc.total / (2.0 * math.pi)
    area = ambient_cone_area(space, apex, graph, clearance=SEARCH_CLEARANCE)
    return (tc.total + space.sectional_curvature * area) / (2.0 * math.pi)


def karcher_center(space: SpaceForm, points: np.ndarray) -> np.ndarray:
    """Intrinsic mean by fixed-point iteration on tangent-space averages."""
    try:
        center = space.project_point(np.mean(points, axis=0))
    except ValidationError as exc:
        # fully symmetric spreads have no usable extrinsic mean
        raise IterationError(f"intrinsic mean is ill-posed: {exc}") from exc
    for _ in range(KARCHER_MAX_ITER):
        away = space.dist(center, points) > 1e-12
        if not np.any(away):
            return center
        v = np.mean(space.log(np.broadcast_to(center, points.shape)[away],
                              points[away]), axis=0) * (np.sum(away) / len(points))
        step = float(space.norm(v))
        center = space.exp(center, v)
        if step < KARCHER_TOL:
            return center
    raise IterationError("intrinsic mean iteration did not converge")


def _ball_grid(space: SpaceForm, center: np.ndarray, radius: float,
               grid_n: int) -> np.ndarray:
    """Quasi-uniform apex candidates in the geodesic ball: a low-discrepancy
    sequence in the tangent ball pushed out by the exponential map.  The
    center itself is always the first candidate."""
    if grid_n < 1:
        raise ValidationError("grid size must be >= 1")
    pts = [center]
    if grid_n > 1:
        n = space.dim
        sampler = qmc.Halton(d=n + 1, scramble=False)
        sampler.fast_forward(1)  # skip the all-zero first point
        u = sampler.random(grid_n - 1)
        dirs = special.ndtri(np.clip(u[:, :n], 1e-12, 1.0 - 1e-12))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = radius * u[:, n] ** (1.0 / n)
        basis = space.tangent_basis(center)
        vecs = (radii[:, None] * dirs) @ basis
        pts.extend(space.exp(np.broadcast_to(center, vecs.shape), vecs))
    return np.asarray(pts)


def _unique_rows(points: np.ndarray) -> np.ndarray:
    """Drop exact duplicates (shared endpoint samples repeat across edges)
    while preserving first-seen order."""
    _, idx = np.unique(points.round(decimals=12), axis=0, return_index=True)
    return points[np.sort(idx)]


def hull_approx(space: SpaceForm, graph: EmbeddedGraph,
                grid_n: int) -> HullApprox:
    """Build the ball approximation of the convex hull and its apex grid.
    A spherical graph whose ball diameter comes within 85% of the pi/b
    bound triggers a warning: apex candidates near the ball boundary may
    then see graph points at conjugate distances."""
    samples = _unique_rows(graph.all_samples())
    center = karcher_center(space, samples)
    radius = float(np.max(space.dist(center, samples)))
    if space.model is Model.SPHERICAL \
            and 2.0 * radius >= 0.85 * space.max_radius:
        warnings.warn(
            "graph spread is close to the diameter bound; apex candidates "
            "near the ball boundary may be rejected", stacklevel=2)
    grid = _ball_grid(space, center, radius, grid_n)
    return HullApprox(center=center, radius=radius, grid=grid)


def extremal_cone_area(space: SpaceForm, graph: EmbeddedGraph,
                       hull: HullApprox, mode: str,
                       refine_maxiter: int = 400) -> ExtremalArea:
    """Minimize or maximize the ambient cone area over the hull ball: grid
    sweep, then a simplex (Nelder-Mead) refinement in tangent coordinates at
    the incumbent, with the simplex shrinking to 1e-6.

    The refinement replaces the grid incumbent only when it wins by more
    than a relative 1e-6; on landscapes with flat valleys (cone area can be
    exactly constant over whole regions) the simplex would otherwise
    random-walk along rounding error and return an arbitrary point."""
    if mode not in ("min", "max"):
        raise ValidationError("mode must be 'min' or 'max'")
    sense = 1.0 if mode == "min" else -1.0
    ball_limit = hull.radius * (1.0 + 1e-9) + 1e-12

    def objective_at(apex: np.ndarray) -> float:
        try:
            if float(space.dist(apex, hull.center)) > ball_limit:
                return math.inf
            return sense * ambient_cone_area(space, apex, graph,
                                             clearance=SEARCH_CLEARANCE)
        except NumericalError:
            return math.inf

    best_val = math.inf
    best_apex = None
    for apex in hull.grid:
        val = objective_at(apex)
        if val < best_val:
            best_val = val
            best_apex = apex
    if best_apex is None:
        raise NumericalError("no usable apex candidate in the hull grid")

    basis = space.tangent_basis(best_apex)
    n = space.dim

    def objective(z: np.ndarray) -> float:
        try:
            apex = space.exp(best_apex, z @ basis)
        except NumericalError:
            return math.inf
        return objective_at(apex)

    scale = max(0.05 * hull.radius, 10.0 * SEARCH_CLEARANCE)
    simplex = np.zeros((n + 1, n))
    simplex[1:] = scale * np.eye(n)
    res = optimize.minimize(
        objective, np.zeros(n), method="Nelder-Mead",
        options={"initial_simplex": simplex, "xatol": 1e-6, "fatol": 1e-10,
                 "maxiter": refine_maxiter, "maxfev": refine_maxiter})
    noise_floor = 1e-6 * (1.0 + abs(best_val))
    if np.isfinite(res.fun) and res.fun < best_val - noise_floor:
        best_val = float(res.fun)
        best_apex = space.exp(best_apex, res.x @ basis)
    return ExtremalArea(value=sense * best_val, apex=np.asarray(best_apex))


# ---------------------------------------------------------------------------
# certificates

_STRICT_NOTE = ("strict mode: cone-area correction replaced by an "
                "analytically safe value")
_HEURISTIC_NOTE = ("heuristic mode: cone-area correction from a sampled "
                   "extremum; not a rigorous bound")
_Y_NOTE = ("assumes the film is a piecewise smooth area-minimizing set in a "
           "3-dimensional ambient; the exceptional case of a film contained "
           "in the tetrahedral stationary cone cannot be ruled out here")
_SIMPLE_NOTE = ("applies to branched minimal immersions bounded by a simple "
                "closed curve")


def _spherical_strict_area_bound(space: SpaceForm, graph: EmbeddedGraph,
                                 hull: HullApprox) -> float | None:
    """Rigorous upper bound for the supremum of the cone area over the hull
    ball: every apex-to-graph distance is at most twice the ball radius, the
    development sweeps angle at most ds / f(r), and F/f is nondecreasing, so
    Area <= Length * F(r_max) / f(r_max).  None when r_max hits the
    conjugate radius."""
    r_max = 2.0 * hull.radius
    if r_max >= space.max_radius - 1e-9:
        return None
    f, _, big_f = space.comparison(r_max)
    return graph.total_length * float(big_f) / float(f)


def evaluate_certificates(space: SpaceForm, graph: EmbeddedGraph,
                          mode: Mode = Mode.STRICT,
                          simple_curve: bool = False,
                          tc: TCReport | None = None,
                          grid_n: int = 1000,
                          refine_maxiter: int = 400) -> list[Certificate]:
    """Evaluate every applicable threshold and return one certificate row
    per threshold, strongest claim first, whether or not it qualifies
    (margin >= 0 means it does).  grid_n must be >= 1 in every model and
    mode, though only heuristic curved runs sample a grid."""
    if grid_n < 1:
        raise ValidationError("grid size must be >= 1")
    if tc is None:
        tc = cone_total_curvature(space, graph)
    spherical = space.model is Model.SPHERICAL

    extremal_apex = None
    fallback_note = ""
    if space.model is Model.FLAT:
        area_term = 0.0
        mode_note = "flat model: no cone-area correction"
    elif mode is Mode.STRICT:
        if space.model is Model.HYPERBOLIC:
            area_term = 0.0
        else:
            hull = hull_approx(space, graph, grid_n=1)
            bound = _spherical_strict_area_bound(space, graph, hull)
            if bound is None:
                area_term = -math.inf
                fallback_note = ("strict spherical area bound unavailable: "
                                 "ball diameter reaches the conjugate radius")
            else:
                area_term = -space.sectional_curvature * bound
        mode_note = _STRICT_NOTE
    else:
        hull = hull_approx(space, graph, grid_n=grid_n)
        extremum = extremal_cone_area(space, graph, hull,
                                      "max" if spherical else "min",
                                      refine_maxiter=refine_maxiter)
        extremal_apex = extremum.apex
        area_term = -space.sectional_curvature * extremum.value
        mode_note = _HEURISTIC_NOTE

    rows = []

    def add(claim: Verdict, threshold: float, strict_inequality: bool,
            extra_note: str):
        margin = threshold + area_term - tc.total
        qualifies = margin > 0.0 if strict_inequality else margin >= 0.0
        rows.append(Certificate(
            verdict=claim if qualifies else Verdict.NO_CERTIFICATE,
            claim=claim, tc_total=tc.total, threshold=threshold,
            cone_area_term=area_term, margin=margin, mode=mode,
            extremal_apex=extremal_apex,
            notes="; ".join(x for x in (mode_note, fallback_note, extra_note)
                            if x)))

    if simple_curve:
        add(Verdict.SIMPLE_CURVE_EMBEDDED, 2.0 * math.pi * CROSSING_DENSITY,
            spherical, _SIMPLE_NOTE)
    add(Verdict.EMBEDDED_OR_Y, 2.0 * math.pi * Y_CONE_DENSITY, False, "")
    if space.dim == 3:
        add(Verdict.Y_SINGULARITIES_ONLY, 2.0 * math.pi * T_CONE_DENSITY,
            False, _Y_NOTE)
    return rows


def certify(space: SpaceForm, graph: EmbeddedGraph,
            mode: Mode = Mode.STRICT, simple_curve: bool = False,
            grid_n: int = 1000,
            tc: TCReport | None = None) -> list[Certificate]:
    """All qualifying certificates, strongest first; when none qualifies, a
    single NoCertificate carrying the margin of the strongest attempted
    claim and, in its notes, the margin of every claim."""
    rows = evaluate_certificates(space, graph, mode=mode,
                                 simple_curve=simple_curve, tc=tc,
                                 grid_n=grid_n)
    winners = [c for c in rows if c.verdict is not Verdict.NO_CERTIFICATE]
    if winners:
        return winners
    top = rows[0]
    details = ", ".join(f"{c.claim.value}: margin {c.margin:.6f}"
                        for c in rows)
    notes = (top.notes + "; " if top.notes else "") + \
        "no threshold met (" + details + ")"
    return [dataclasses.replace(top, notes=notes)]
