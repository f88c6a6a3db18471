"""An independent 40-digit reference for the plain cone area, the apex
density and the apex derivative of the Richardson-weighted cone area, in
mpmath.

Every stored sample, and the apex, is projected onto the model at DIGITS
decimal digits: x itself flat, x / (b |x|) on the sphere and
x / (k sqrt(-<x, x>)) on the hyperboloid.  A distance is taken from the
half squared chord h = <x - y, x - y>/2 of two projected points: sqrt(2h)
flat, (2/b) asin(b sqrt(h/2)) on the sphere and (2/k) asinh(k sqrt(h/2))
on the hyperboloid, never acosh(-<x, y>), which loses the digits of short
chords to the points' distance off the model.

The plain cone area is the sum, over every chord of every edge, of the
geodesic triangle (apex, x_i, x_{i+1}), whose area comes from its three
sides alone: Heron's formula flat, L'Huilier's formula for the spherical
excess and its hyperbolic form for the defect.  The apex density is the
sum of the triangles' apex angles, each by the model's law of cosines,
over 2 pi.  Neither uses the Gram determinant of the package's kernels.

chord_triangles gives every fine chord's three half squared chords, and
area_and_density sums the triangles from them, so a test can also feed the
same half squared chords, rounded to floats, to the package's kernels.

The Richardson-weighted area adds, edge by edge, the triangles on the fine
chords and on the coarse chords: an edge of n chords has n // 2 coarse
chords, each spanning j = 2 fine chords, or j = 3 for the last one when n
is odd.  A fine chord under a coarse chord of span j has the weight
1 + 1/(j^2 - 1) and the coarse chord -1/(j^2 - 1), both exact rationals.
area_derivative differentiates that sum along a tangent direction at the
apex by mpmath.diff, moving the apex by the reference's own exponential
map.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from soapcert.spaceform import Model

DIGITS = 40


def _projected(space, x):
    """The float coordinates x, exact in mpmath, projected onto the model."""
    x = [mp.mpf(float(c)) for c in x]
    if space.model is Model.FLAT:
        return x
    if space.model is Model.SPHERICAL:
        scale = mp.mpf(space.curv) * mp.sqrt(mp.fsum(c * c for c in x))
    else:
        scale = mp.mpf(space.curv) * mp.sqrt(
            x[0] * x[0] - mp.fsum(c * c for c in x[1:]))
    return [c / scale for c in x]


def _mdot(space, x, y):
    """The model's ambient inner product: Minkowski on the hyperboloid."""
    dot = mp.fsum(a * b for a, b in zip(x, y))
    if space.model is Model.HYPERBOLIC:
        dot -= 2 * x[0] * y[0]
    return dot


def _exp(space, p, v, t):
    """The point exp_p(t v) of a projected p and a tangent v at it."""
    if space.model is Model.FLAT:
        return [a + t * b for a, b in zip(p, v)]
    k, n = mp.mpf(space.curv), mp.sqrt(_mdot(space, v, v))
    cos, sin = (mp.cos, mp.sin) if space.model is Model.SPHERICAL \
        else (mp.cosh, mp.sinh)
    c, s = cos(k * n * t), sin(k * n * t) / (k * n)
    return [c * a + s * b for a, b in zip(p, v)]


def _half_sq_chord(space, x, y):
    """Half the squared ambient chord <x - y, x - y>/2 of projected points."""
    w = [a - b for a, b in zip(x, y)]
    sq = mp.fsum(c * c for c in w)
    if space.model is Model.HYPERBOLIC:
        sq -= 2 * w[0] * w[0]
    return sq / 2


def _distance(space, h):
    """Geodesic distance of two points from their half squared chord h."""
    if space.model is Model.FLAT:
        return mp.sqrt(2 * h)
    k = mp.mpf(space.curv)
    arc = mp.asin if space.model is Model.SPHERICAL else mp.asinh
    return 2 * arc(k * mp.sqrt(h / 2)) / k


def _triangle(space, a, b, c):
    """Area and apex angle of the geodesic triangle whose sides from the
    apex are a and b and whose third side, the chord, is c."""
    if space.model is Model.FLAT:
        s = (a + b + c) / 2
        area = mp.sqrt(max(s * (s - a) * (s - b) * (s - c), 0))
        cos = (a * a + b * b - c * c) / (2 * a * b)
        return area, mp.acos(max(min(cos, 1), -1))
    k = mp.mpf(space.curv)
    a, b, c = k * a, k * b, k * c
    s = (a + b + c) / 2
    if space.model is Model.SPHERICAL:
        tan = mp.tan
        cos = (mp.cos(c) - mp.cos(a) * mp.cos(b)) / (mp.sin(a) * mp.sin(b))
    else:
        tan = mp.tanh
        cos = (mp.cosh(a) * mp.cosh(b) - mp.cosh(c)) \
            / (mp.sinh(a) * mp.sinh(b))
    # L'Huilier: tan(E/4)^2 for the excess (sphere) or defect (hyperboloid)
    # E, and the area is E / k^2
    quarter = tan(s / 2) * tan((s - a) / 2) * tan((s - b) / 2) \
        * tan((s - c) / 2)
    area = 4 * mp.atan(mp.sqrt(max(quarter, 0))) / (k * k)
    return area, mp.acos(max(min(cos, 1), -1))


def chord_triangles(space, apex, graph):
    """The half squared chords (alpha, beta, gamma) of every fine chord's
    triangle, in graph order: alpha and beta from the apex to the chord's
    ends, gamma between them, each a list of mpf at DIGITS digits."""
    with mp.workdps(DIGITS):
        p = _projected(space, apex)
        alpha, beta, gamma = [], [], []
        for edge in graph.edges:
            x = [_projected(space, row) for row in edge.samples]
            h = [_half_sq_chord(space, p, q) for q in x]
            alpha += h[:-1]
            beta += h[1:]
            gamma += [_half_sq_chord(space, a, b) for a, b in zip(x, x[1:])]
        return alpha, beta, gamma


def area_and_density(space, triangles):
    """The plain cone area, the sum of the triangles' areas, and the apex
    density, the sum of their apex angles over 2 pi, from chord_triangles,
    as mpf at DIGITS digits."""
    with mp.workdps(DIGITS):
        area, angle = mp.mpf(0), mp.mpf(0)
        for h in zip(*triangles):
            da, dt = _triangle(space, *(_distance(space, v) for v in h))
            area += da
            angle += dt
        return area, angle / (2 * mp.pi)


def _richardson_triangles(n):
    """(tail, head, weight) of the Richardson sum's triangles over an edge
    of n chords, by sample index: its fine chords, then its coarse ones."""
    lo = list(range(0, n - 1, 2))
    hi = lo[1:] + [n]
    fine = [(i, i + 1, 1 + Fraction(1, (b - a) ** 2 - 1))
            for a, b in zip(lo, hi) for i in range(a, b)]
    return fine + [(a, b, -Fraction(1, (b - a) ** 2 - 1))
                   for a, b in zip(lo, hi)]


def _weighted_areas(space, p, edges):
    """The weighted areas of the Richardson sum's triangles at the apex p,
    edges holding each edge's projected samples and its triangles as
    (tail, head, weight, chord length) rows."""
    out = []
    for x, triangles in edges:
        r = [_distance(space, _half_sq_chord(space, p, q)) for q in x]
        for a, b, w, c in triangles:
            area = _triangle(space, r[a], r[b], c)[0]
            out.append(area * w.numerator / w.denominator)
    return out


def area_derivative(space, apex, v, graph):
    """The derivative of the Richardson-weighted cone area at t = 0 as the
    apex moves to exp_p(t v), p the projected apex and v the float tangent
    made tangent at p; and the sum of its terms' magnitudes, each
    triangle's weighted derivative, by central differences of step 2^-40.
    Both are mpf at DIGITS digits."""
    with mp.workdps(DIGITS):
        p = _projected(space, apex)
        v = [mp.mpf(float(c)) for c in v]
        if space.model is not Model.FLAT:
            along = _mdot(space, v, p) / _mdot(space, p, p)
            v = [a - along * b for a, b in zip(v, p)]
        edges = []
        for edge in graph.edges:
            x = [_projected(space, row) for row in edge.samples]
            edges.append((x, [(a, b, w, _distance(
                space, _half_sq_chord(space, x[a], x[b])))
                for a, b, w in _richardson_triangles(len(x) - 1)]))
        derivative = mp.diff(lambda t: mp.fsum(_weighted_areas(
            space, _exp(space, p, v, t), edges)), 0)
        h = mp.ldexp(1, -40)
        up = _weighted_areas(space, _exp(space, p, v, h), edges)
        down = _weighted_areas(space, _exp(space, p, v, -h), edges)
        scale = mp.fsum(abs(a - b) for a, b in zip(up, down)) / (2 * h)
        return derivative, scale


def relative_error(value, exact) -> float:
    """|value - exact| / |exact| at DIGITS digits, as a float; value is a
    float or a sequence of floats, which is summed exactly."""
    with mp.workdps(DIGITS):
        if not isinstance(value, float):
            value = mp.fsum(mp.mpf(float(v)) for v in value)
        return float(abs(mp.mpf(value) - exact) / abs(exact))
