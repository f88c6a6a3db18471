"""Constant-curvature model geometries and their radial comparison functions.

Three models are supported:

* flat: points are vectors in R^n,
* hyperbolic of sectional curvature -kappa^2: the upper sheet of the
  hyperboloid <x, x> = -1/kappa^2 in R^{n+1} with the Minkowski form
  <x, y> = -x_0 y_0 + x_1 y_1 + ... (time coordinate first),
* spherical of sectional curvature +b^2: the radius-1/b sphere in R^{n+1}.

A point is any ``(..., d)`` float array in the embedding space; all kernel
operations broadcast over leading axes and are pure functions of their
arguments, safe for concurrent use.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _num
from .errors import (
    ConjugatePointError,
    DiameterBoundError,
    NumericalError,
    ValidationError,
)

# Arccos/acosh arguments may leave their domain by at most this much before
# the violation is treated as real invalid input rather than roundoff.
DOMAIN_SLACK = 1e-9

# Spherical pairs closer than this (in angle b*d) to antipodal are rejected.
ANTIPODAL_SLACK = 1e-7


class Model(enum.Enum):
    FLAT = "flat"
    HYPERBOLIC = "hyperbolic"
    SPHERICAL = "spherical"


@dataclass(eq=False)
class TangentVector:
    """A tangent vector `vec` attached to the manifold point `base`, as
    graph.vertex_star and VertexTC.argmax_dir report them.

    For the curved models tangency means the ambient bilinear form of base
    and vec vanishes (SpaceForm.tangency_residual).  It is not checked: the
    SpaceForm methods take plain arrays and trust their callers.
    """

    base: np.ndarray
    vec: np.ndarray

    def __post_init__(self):
        self.base = np.asarray(self.base, float)
        self.vec = np.asarray(self.vec, float)


class ComparisonFns(NamedTuple):
    f: float | np.ndarray
    fprime: float | np.ndarray
    F: float | np.ndarray


@dataclass(frozen=True)
class SpaceForm:
    """Ambient model geometry: model kind, manifold dimension, curvature scale.

    ``curv`` is kappa > 0 for the hyperbolic model (sectional curvature
    -kappa^2), b > 0 for the spherical model (+b^2), and ignored for flat.
    A curved model needs curv^2 to be a normal float, so that the
    curvature and its inverse are finite and nonzero, and every model an
    embedding dimension that an array axis can hold.
    """

    model: Model
    dim: int
    curv: float = 0.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValidationError(f"manifold dimension must be >= 2, got {self.dim}")
        if self.dim >= np.iinfo(np.intp).max:
            raise ValidationError(f"manifold dimension {self.dim} is too large")
        if self.model is Model.FLAT:
            object.__setattr__(self, "curv", 0.0)
        elif not self.curv > 0.0:
            raise ValidationError(
                f"{self.model.value} model needs a positive curvature scale")
        elif not sys.float_info.min <= self.curv * self.curv < math.inf:
            raise ValidationError(f"{self.model.value} curvature scale "
                                  f"{self.curv:g} is out of range: its square "
                                  "is not a normal float")

    # -- basic structure ---------------------------------------------------

    @property
    def embedding_dim(self) -> int:
        return self.dim if self.model is Model.FLAT else self.dim + 1

    @functools.cached_property
    def sectional_curvature(self) -> float:
        """Signed constant sectional curvature: -kappa^2, 0 or +b^2, worked
        out on first use and then read as a plain attribute."""
        if self.model is Model.HYPERBOLIC:
            return -self.curv ** 2
        if self.model is Model.SPHERICAL:
            return self.curv ** 2
        return 0.0

    @property
    def max_radius(self) -> float:
        """Largest admissible radial distance (pi/b spherically, else inf)."""
        if self.model is Model.SPHERICAL:
            return math.pi / self.curv
        return math.inf

    def base_point(self) -> np.ndarray:
        """A canonical point: the origin, or the embedding "pole"."""
        p = np.zeros(self.embedding_dim)
        if self.model is not Model.FLAT:
            p[0] = 1.0 / self.curv
        return p

    # -- ambient bilinear form and projections -----------------------------

    def mdot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Ambient bilinear form along the last axis (Minkowski for the
        hyperbolic model, Euclidean otherwise).  Restricted to a tangent
        space this is the Riemannian metric.  The coordinate products are
        added left to right by _num.rowsum, as np.sum adds them below 8
        coordinates; the hyperboloid then subtracts twice the time
        product."""
        prod = np.asarray(u, float) * np.asarray(v, float)
        out = _num.rowsum(prod)
        if self.model is Model.HYPERBOLIC:
            out -= 2.0 * prod[..., 0]
        return out

    def norm(self, v: np.ndarray) -> np.ndarray:
        """Length of tangent vectors under the model metric."""
        sq = self.mdot(v, v)
        return np.sqrt(np.maximum(sq, 0.0))

    def manifold_residual(self, x: np.ndarray) -> np.ndarray:
        """|<x, x> - 1/K| of the defining quadric <x, x> = 1/K; 0 flat."""
        if self.model is Model.FLAT:
            return np.zeros(np.shape(x)[:-1])
        return np.abs(self.mdot(x, x) - 1.0 / self.sectional_curvature)

    def manifold_offset(self, x: np.ndarray) -> np.ndarray:
        """How far ambient coordinates sit off the model manifold along its
        normal, to first order: manifold_residual times k/2, which is 0
        flat.  At x = (1 + e) p for a manifold point p it is |e|/k plus
        O(e^2), the length of x - p (its Minkowski length on the
        hyperboloid).  The quadric's residual is invariant under the
        model's isometries, so the offset does not depend on where x sits,
        unlike the Euclidean move of project_point, which grows like
        cosh(k d) at distance d from the base point on the hyperboloid."""
        return 0.5 * self.curv * self.manifold_residual(x)

    def project_point(self, x: np.ndarray) -> np.ndarray:
        """Radially project ambient coordinates onto the model manifold."""
        x = np.asarray(x, float)
        if x.shape[-1] != self.embedding_dim:
            raise ValidationError(
                f"expected {self.embedding_dim} coordinates, got {x.shape[-1]}")
        if self.model is Model.FLAT:
            return x
        if self.model is Model.SPHERICAL:
            n = np.sqrt(_num.rowsum(x * x))
            if np.any(n < 1e-12):
                raise ValidationError("cannot project the origin onto the sphere")
            return x / (self.curv * n)[..., None]
        if np.any(x[..., 0] <= 0.0):
            raise ValidationError("hyperbolic points need a positive time coordinate")
        m = -self.mdot(x, x)
        if np.any(m <= 0.0):
            raise ValidationError("coordinates are not timelike; cannot project")
        return x / (self.curv * np.sqrt(m))[..., None]

    def tangent_project(self, p: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Project an ambient vector w onto the tangent space at p:
        w - K <w, p> p, or w itself flat, which keeps its signed zeros."""
        if self.model is Model.FLAT:
            return np.asarray(w, float)
        coef = self.mdot(w, p) * self.sectional_curvature
        return w - coef[..., None] * p

    def tangency_residual(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """|<p, v>| k, which is 0 in the flat model, where k is 0."""
        return np.abs(self.mdot(p, v)) * self.curv

    # -- distances, geodesics ----------------------------------------------

    def dist(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Geodesic distance.  Uses chord-based formulas, which are exact
        for coincident points and stable for nearby ones."""
        w = np.asarray(q, float) - np.asarray(p, float)
        return self.chord_dist(self.mdot(w, w))

    def chord_dist(self, chord_sq: np.ndarray) -> np.ndarray:
        """Geodesic distance between points whose ambient chord (Minkowski
        for the hyperbolic model) has squared length `chord_sq`."""
        chord = np.sqrt(np.maximum(chord_sq, 0.0))
        if self.model is Model.FLAT:
            return chord
        k = self.curv
        if self.model is Model.HYPERBOLIC:
            return 2.0 / k * np.arcsinh(0.5 * k * chord)
        half = 0.5 * k * chord
        if np.any(half > 1.0 + DOMAIN_SLACK):
            raise NumericalError("spherical chord exceeds the embedded diameter")
        d = 2.0 / k * np.arcsin(np.minimum(half, 1.0))
        if np.any(k * d >= math.pi - ANTIPODAL_SLACK):
            raise DiameterBoundError("diameter bound violated: antipodal pair")
        return d

    def exp(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Point reached from p after unit time along the geodesic with
        initial velocity v (v tangent at p)."""
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        if self.model is Model.FLAT:
            return p + v
        k = self.curv
        t = self.norm(v)
        if self.model is Model.SPHERICAL and np.any(k * t >= math.pi):
            raise ConjugatePointError(
                "geodesic step reaches the conjugate radius pi/b")
        kt = k * t
        if self.model is Model.HYPERBOLIC:
            c = np.cosh(kt)
            m = np.maximum(kt, 1e-300)
            s = np.where(kt < 1e-8, 1.0 + kt ** 2 / 6.0, np.sinh(m) / m)
        else:
            c = np.cos(kt)
            s = np.sinc(kt / math.pi)
        out = c[..., None] * p + s[..., None] * v
        # renormalize to kill accumulated drift off the quadric
        return self.project_point(out)

    def log(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Initial velocity of the geodesic from p reaching q at unit time."""
        p = np.asarray(p, float)
        w = np.asarray(q, float) - p
        if self.model is Model.FLAT:
            return w
        return self.chord_log(p, w, self.dist(p, q))

    def chord_log(self, p: np.ndarray, w: np.ndarray,
                  d: np.ndarray) -> np.ndarray:
        """log(p, q) from the chords w = q - p and the distances d = dist(p,
        q) already measured, for callers that read them anyway: w itself
        flat, else w projected to the tangent space at p and scaled to
        length d.  Curved, (nearly) coincident points raise."""
        if self.model is Model.FLAT:
            return w
        if np.any(d < 1e-13):
            raise NumericalError("log map of (nearly) coincident points")
        w = self.tangent_project(p, w)
        wn = self.norm(w)
        if np.any(wn < 1e-300):
            raise NumericalError("log map direction is degenerate")
        return (d / wn)[..., None] * w

    def geodesic_point(self, p: np.ndarray, q: np.ndarray, t) -> np.ndarray:
        """Point at parameter t in [0, 1] on the geodesic from p to q."""
        v = self.log(p, q)
        t = np.asarray(t, float)
        return self.exp(p, t[..., None] * v if t.ndim else t * v)

    def angle_between(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Angle in [0, pi] between tangent vectors at a common base."""
        nu = self.norm(u)
        nv = self.norm(v)
        if np.any(nu < 1e-14) or np.any(nv < 1e-14):
            raise ValidationError("angle of a zero vector is undefined")
        c = self.mdot(u, v) / (nu * nv)
        return np.arccos(np.clip(c, -1.0, 1.0))

    def tangent_basis(self, p: np.ndarray) -> np.ndarray:
        """Rows of shape (..., dim, d), orthonormal in the model metric, that
        span the tangent space at each p of shape (..., d): the images of
        e_1..e_dim under the isometry taking the base point to p.  With
        c = k p_0 and u = k (p_1, ...), row j is e_j + s u_j (1, u/(1 + c)),
        s = +1 on the hyperboloid and -1 on the sphere, where p_0 < 0 takes
        the rows of -p (the same tangent space), so 1 + c >= 1.  Flat rows
        are the identity."""
        p = np.asarray(p, float)
        d = self.embedding_dim
        if self.model is Model.FLAT:
            return np.broadcast_to(np.eye(d), p.shape[:-1] + (d, d)).copy()
        q = self.curv * np.where(p[..., :1] < 0.0, -p, p)
        head = q / (1.0 + q[..., :1])
        head[..., 0] = 1.0
        s = 1.0 if self.model is Model.HYPERBOLIC else -1.0
        return np.eye(d)[1:] + s * q[..., 1:, None] * head[..., None, :]

    # -- radial comparison functions ----------------------------------------

    def comparison(self, r) -> ComparisonFns:
        """The radial profile f with f'' + K f = 0, f(0)=0, f'(0)=1, together
        with f' and the primitive F(r) = integral_0^r f.

        f/fprime give the geodesic-circle curvature f'/f; F is the area
        density of geodesic sectors.  Curved, f = sin(kr)/k, f' = cos(kr)
        and F = (1 - f')/K, with sinh and cosh on the hyperboloid.
        """
        r = np.asarray(r, float)
        if np.any(r < 0.0):
            raise ValidationError("radial argument must be nonnegative")
        k = self.curv
        if self.model is Model.FLAT:
            return ComparisonFns(r + 0.0, np.ones_like(r), r ** 2 / 2.0)
        if self.model is Model.SPHERICAL and np.any(k * r >= math.pi):
            raise ConjugatePointError("conjugate point reached")
        sin, cos = (np.sinh, np.cosh) if self.model is Model.HYPERBOLIC \
            else (np.sin, np.cos)
        c = cos(k * r)
        return ComparisonFns(sin(k * r) / k, c,
                             (1.0 - c) / self.sectional_curvature)

    def circle_curvature(self, r) -> np.ndarray:
        """Geodesic curvature f'(r)/f(r) of the distance circle of radius r."""
        f, fp, _ = self.comparison(r)
        return fp / f

