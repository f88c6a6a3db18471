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
mode uses extrema from a grid sweep of the hull ball refined by L-BFGS-B on
the exact apex gradient of the cone area, and says so.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cone import ambient_cone_area, check_apex, cone_area_gradient
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

# Iteration cap of the area search's L-BFGS-B refinement.
REFINE_MAX_ITER = 100

# An apex grid holds at most this many points.
MAX_GRID_POINTS = 2 ** 20


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
        check_apex(space, apex, graph.samples, SEARCH_CLEARANCE)
        return tc.total / (2.0 * math.pi)
    area = ambient_cone_area(space, apex, graph, clearance=SEARCH_CLEARANCE)
    return (tc.total + space.sectional_curvature * area) / (2.0 * math.pi)


def karcher_center(space: SpaceForm, points: np.ndarray) -> np.ndarray:
    """Intrinsic mean by fixed-point iteration on tangent-space averages.
    Each iteration makes one chord pass: the chords from the center to the
    points and their distances serve both the test for points away from
    the center and the log map of those points (SpaceForm.chord_log).  The
    mean of the log map is its sum over the away points divided by their
    count, np.mean's own two steps."""
    try:
        center = space.project_point(np.mean(points, axis=0))
    except ValidationError as exc:
        # fully symmetric spreads have no usable extrinsic mean
        raise IterationError(f"intrinsic mean is ill-posed: {exc}") from exc
    for _ in range(KARCHER_MAX_ITER):
        w = points - center
        d = space.chord_dist(space.mdot(w, w))
        away = d > 1e-12
        n = int(away.sum())
        if n == 0:
            return center
        w, d = np.compress(away, w, axis=0), np.compress(away, d)
        v = space.chord_log(center, w, d).sum(axis=0) / n \
            * (n / len(points))
        step = float(space.norm(v))
        center = space.exp(center, v)
        if step < KARCHER_TOL:
            return center
    raise IterationError("intrinsic mean iteration did not converge")


def _primes(count: int) -> list[int]:
    """The first `count` primes."""
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _halton(d: int, count: int) -> np.ndarray:
    """Points 1 .. count of the unscrambled d-dimensional Halton sequence:
    coordinate j of point i is the radical inverse of i in the j-th prime
    base b, sum_k digit_k(i) b^-(k+1).  It is accumulated from the lowest
    digit with the factor divided by b after each digit, the order in which
    scipy.stats.qmc.Halton(d, scramble=False) sums it, so the two agree bit
    for bit."""
    out = np.zeros((count, d))
    for j, b in enumerate(_primes(d)):
        q = np.arange(1, count + 1)
        f = 1.0 / b
        while q.any():
            out[:, j] += (q % b) * f
            f /= b
            q //= b
    return out


def _check_grid_size(grid_n: int) -> None:
    """ValidationError unless 1 <= grid_n <= MAX_GRID_POINTS."""
    if grid_n < 1:
        raise ValidationError("grid size must be >= 1")
    if grid_n > MAX_GRID_POINTS:
        raise ValidationError(f"grid size must be <= {MAX_GRID_POINTS}")


def _ball_grid(space: SpaceForm, center: np.ndarray, radius: float,
               grid_n: int) -> np.ndarray:
    """Quasi-uniform apex candidates in the geodesic ball: points 1 ..
    grid_n - 1 of the (dim + 1)-dimensional Halton radical inverse, the
    first dim coordinates mapped to Gaussian directions by the inverse
    normal CDF and the last to the radius, pushed out by the exponential
    map.  The center itself is always the first candidate."""
    _check_grid_size(grid_n)
    pts = [center]
    if grid_n > 1:
        from scipy.special import ndtri

        n = space.dim
        u = _halton(n + 1, grid_n - 1)
        dirs = ndtri(np.clip(u[:, :n], 1e-12, 1.0 - 1e-12))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = radius * u[:, n] ** (1.0 / n)
        basis = space.tangent_basis(center)
        vecs = (radii[:, None] * dirs) @ basis
        pts.extend(space.exp(np.broadcast_to(center, vecs.shape), vecs))
    return np.asarray(pts)


def _hull_samples(graph: EmbeddedGraph) -> np.ndarray:
    """The graph's stacked samples with each vertex once: of the rows of
    the edge-ends at a vertex, only the first, the earliest's, is kept."""
    first = graph.end_offsets[:-1][np.diff(graph.end_offsets) > 0]
    return np.delete(graph.samples, np.delete(graph.end_rows, first), axis=0)


def hull_approx(space: SpaceForm, graph: EmbeddedGraph,
                grid_n: int) -> HullApprox:
    """Build the ball approximation of the convex hull and its apex grid.
    A spherical graph whose ball diameter comes within 85% of the pi/b
    bound triggers a warning: apex candidates near the ball boundary may
    then see graph points at conjugate distances."""
    samples = _hull_samples(graph)
    center = karcher_center(space, samples)
    radius = float(np.max(space.dist(center, samples)))
    if space.model is Model.SPHERICAL \
            and 2.0 * radius >= 0.85 * space.max_radius:
        warnings.warn(
            "graph spread is close to the diameter bound; apex candidates "
            "near the ball boundary may be rejected", stacklevel=2)
    grid = _ball_grid(space, center, radius, grid_n)
    return HullApprox(center=center, radius=radius, grid=grid)


def _ball_objective(space: SpaceForm, graph: EmbeddedGraph,
                    hull: HullApprox, sense: float):
    """The area search's objective F = sense * area in normal coordinates z
    at the hull center c, with its gradient in z; the map from z to the
    apex; and the tangent basis at c that the coordinates refer to.

    z is read at its projection onto the ball, y = z min(1, R/|z|), so the
    apex x = exp_c(y) never leaves the ball.  With r = |y|, u = z/|z|, f
    the model's comparison function and g the tangent gradient of F at x,
    the pullback through d exp_c is closed:

        dF/dz = <T, g> u + (f(r)/r) (I - u u^T) <B, g>   inside the ball,
        dF/dz = (R/|z|) (f(r)/r) (I - u u^T) <B, g>      outside it,

    where B holds the basis rows and T = f'(r) u.B - K f(r) c is the unit
    velocity at x of the geodesic from c: the radial part is F's derivative
    along T, the orthogonal part is scaled by f(r)/r, and the projection
    drops the radial part outside the ball.  An apex that is not admitted
    at SEARCH_CLEARANCE has value inf and gradient 0."""
    center, radius = hull.center, hull.radius
    basis = space.tangent_basis(center)
    k = space.sectional_curvature

    def apex_at(z: np.ndarray) -> np.ndarray:
        t = float(np.linalg.norm(z))
        return space.exp(center, (z * (radius / t) if t > radius else z)
                         @ basis)

    def fun(z: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            apex = apex_at(z)
            area, grad = cone_area_gradient(space, apex, graph,
                                            clearance=SEARCH_CLEARANCE)
        except NumericalError:
            return math.inf, np.zeros_like(z)
        g = sense * space.tangent_project(apex, grad)
        dz = space.mdot(basis, g)
        t = float(np.linalg.norm(z))
        if t > 0.0:
            r = min(t, radius)
            u = z / t
            f, fprime, _ = space.comparison(r)
            across = float(f) / r * (dz - u * (u @ dz))
            if t > radius:
                dz = radius / t * across
            else:
                along = fprime * (u @ basis) - k * f * center
                dz = across + float(space.mdot(along, g)) * u
        return sense * area, dz

    return fun, apex_at, basis


def extremal_cone_area(space: SpaceForm, graph: EmbeddedGraph,
                       hull: HullApprox, mode: str) -> ExtremalArea:
    """Minimize or maximize the ambient cone area over the hull ball: a
    sweep of the hull grid, then L-BFGS-B with the exact area gradient of
    cone_area_gradient, in normal coordinates at the hull center, started
    at the grid incumbent.  The ball is kept by evaluating at the
    projection of each iterate onto it.  The refined apex replaces the
    incumbent only when its value is finite and strictly better."""
    from scipy import optimize

    if mode not in ("min", "max"):
        raise ValidationError("mode must be 'min' or 'max'")
    sense = 1.0 if mode == "min" else -1.0

    best_val = math.inf
    best = None
    for i, apex in enumerate(hull.grid):
        try:
            val = sense * ambient_cone_area(space, apex, graph,
                                            clearance=SEARCH_CLEARANCE)
        except NumericalError:
            continue
        if val < best_val:
            best_val, best = val, i
    if best is None:
        raise NumericalError("no usable apex candidate in the hull grid")
    best_apex = hull.grid[best]

    # grid[0] is the center, where the log map is undefined
    fun, apex_at, basis = _ball_objective(space, graph, hull, sense)
    z0 = space.mdot(basis, space.log(hull.center, best_apex)) if best \
        else np.zeros(space.dim)
    res = optimize.minimize(fun, z0, jac=True, method="L-BFGS-B",
                            options={"maxiter": REFINE_MAX_ITER})
    # false for an inf or nan value too
    if res.fun < best_val:
        best_val = float(res.fun)
        best_apex = apex_at(res.x)
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
                          grid_n: int = 1000) -> list[Certificate]:
    """Evaluate every applicable threshold and return one certificate row
    per threshold, strongest claim first, whether or not it qualifies
    (margin >= 0 means it does).  grid_n must pass _check_grid_size in
    every model and mode, though only heuristic curved runs sample a grid."""
    _check_grid_size(grid_n)
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
                                      "max" if spherical else "min")
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
