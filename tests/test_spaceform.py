import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soapcert import (
    ConjugatePointError,
    DiameterBoundError,
    Model,
    NumericalError,
    SpaceForm,
    ValidationError,
    cone_total_curvature,
)
from soapcert import shapes

from builders import (SPACES, carried_graph, gram_schmidt_basis,
                      random_graph, wedge_graph)

FLAT = SpaceForm(Model.FLAT, 3)
HYP = SpaceForm(Model.HYPERBOLIC, 2, 1.0)
HYP3 = SpaceForm(Model.HYPERBOLIC, 3, 1.0)
SPH = SpaceForm(Model.SPHERICAL, 2, 1.0)
SPH3 = SpaceForm(Model.SPHERICAL, 3, 1.0)

ALL3 = [FLAT, SpaceForm(Model.HYPERBOLIC, 3, 1.3), SpaceForm(Model.SPHERICAL, 3, 0.8)]


def random_point(space, rng, spread=0.7):
    base = space.base_point()
    basis = space.tangent_basis(base)
    return space.exp(base, (rng.standard_normal(space.dim) * spread) @ basis)


def random_tangent(space, p, rng):
    basis = space.tangent_basis(p)
    return rng.standard_normal(space.dim) @ basis


class TestMdotMetric:
    def test_unit_vector(self):
        assert float(FLAT.mdot([0.0, 1.0, 0.0], [0.0, 1.0, 0.0])) \
            == pytest.approx(1.0)

    def test_orthonormal_pair(self):
        assert float(FLAT.mdot([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])) \
            == pytest.approx(0.0)

    def test_minkowski_spacelike(self):
        u = np.array([0.0, 2.0, 0.0])  # tangent at (1, 0, 0)
        assert float(HYP.mdot(u, u)) == pytest.approx(4.0)


class TestDist:
    def test_identity(self):
        p = np.array([0.2, -0.4, 1.0])
        assert float(FLAT.dist(p, p)) == 0.0

    def test_euclidean(self):
        assert float(FLAT.dist(np.zeros(3), np.array([3.0, 4.0, 0.0]))) \
            == pytest.approx(5.0)

    def test_hyperboloid(self):
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([math.cosh(1.0), math.sinh(1.0), 0.0])
        assert float(HYP.dist(p, q)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for space in ALL3:
            p, q = random_point(space, rng), random_point(space, rng)
            assert float(space.dist(p, q)) \
                == pytest.approx(float(space.dist(q, p)), abs=1e-13)

    def test_spherical_antipodal_rejected(self):
        p = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DiameterBoundError):
            SPH.dist(p, -p)

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(7)
        for space in ALL3:
            p, q, r = (np.array([random_point(space, rng) for _ in range(60)])
                       for _ in range(3))
            assert np.all(space.dist(p, r) <= space.dist(p, q)
                          + space.dist(q, r) + 1e-10)


class TestExpLog:
    def test_flat_log_is_subtraction(self):
        q = np.array([1.0, 2.0, 2.0])
        v = FLAT.log(np.zeros(3), q)
        assert np.allclose(v, q)
        assert float(np.linalg.norm(v)) \
            == pytest.approx(float(FLAT.dist(np.zeros(3), q)))

    def test_exp_zero_vector(self):
        for space in ALL3:
            p = space.base_point()
            out = space.exp(p, np.zeros(space.embedding_dim))
            assert np.allclose(out, p, atol=1e-12)

    def test_hyperboloid_geodesic_formula(self):
        p = np.array([1.0, 0.0, 0.0])
        for t in (0.3, 1.0, 2.5):
            out = HYP.exp(p, np.array([0.0, t, 0.0]))
            assert np.allclose(out, [math.cosh(t), math.sinh(t), 0.0], atol=1e-12)

    def test_spherical_quarter_circle(self):
        p = np.array([1.0, 0.0, 0.0])
        v = SPH.log(p, np.array([0.0, 1.0, 0.0]))
        assert np.allclose(v, [0.0, math.pi / 2.0, 0.0], atol=1e-12)

    def test_roundtrip_random_pairs(self):
        rng = np.random.default_rng(11)
        for space in ALL3:
            for _ in range(100):
                p = random_point(space, rng)
                q = random_point(space, rng)
                back = space.exp(p, space.log(p, q))
                assert np.linalg.norm(back - q) < 1e-8

    def test_exp_distance_matches_norm(self):
        rng = np.random.default_rng(13)
        for space in ALL3:
            for _ in range(100):
                p = random_point(space, rng)
                v = random_tangent(space, p, rng)
                assert float(space.dist(p, space.exp(p, v))) == pytest.approx(
                    float(space.norm(v)), abs=1e-8)

    @pytest.mark.parametrize("space", [HYP3, SPH3],
                             ids=lambda s: s.model.value)
    def test_log_coincident_rejected(self, space):
        p = space.base_point()
        with pytest.raises(NumericalError, match="coincident"):
            space.log(p, p)


class TestAngleBetween:
    def test_self_zero_and_reverse_pi(self):
        rng = np.random.default_rng(5)
        for space in ALL3:
            p = random_point(space, rng)
            v = random_tangent(space, p, rng)
            assert float(space.angle_between(v, v)) \
                == pytest.approx(0.0, abs=1e-7)
            assert float(space.angle_between(v, -v)) \
                == pytest.approx(math.pi, abs=1e-7)

    def test_perpendicular(self):
        u, v = np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.0])
        assert float(FLAT.angle_between(u, v)) == pytest.approx(math.pi / 2.0)

    def test_zero_vector_rejected(self):
        for space in ALL3:
            p = space.base_point()
            v = random_tangent(space, p, np.random.default_rng(6))
            zero = np.zeros(space.embedding_dim)
            for u, w in ((zero, zero), (zero, v), (v, zero)):
                with pytest.raises(ValidationError, match="zero vector"):
                    space.angle_between(u, w)


class TestComparison:
    def test_flat_closed_form(self):
        c = FLAT.comparison(2.0)
        assert (c.f, c.fprime, c.F) == (2.0, 1.0, 2.0)

    def test_hyperbolic_closed_form(self):
        c = HYP.comparison(1.0)
        assert float(c.f) == pytest.approx(1.175201, abs=1e-6)
        assert float(c.F) == pytest.approx(0.543081, abs=1e-6)
        assert float(c.fprime) == pytest.approx(math.cosh(1.0))

    def test_spherical_closed_form(self):
        c = SPH.comparison(math.pi / 2.0)
        assert float(c.f) == pytest.approx(1.0)
        assert float(c.F) == pytest.approx(1.0)

    def test_at_zero(self):
        for space in ALL3:
            c = space.comparison(0.0)
            assert (c.f, c.fprime, c.F) == (0.0, 1.0, 0.0)

    def test_bigf_is_primitive_of_f(self):
        r = np.linspace(0.1, 1.4, 14)
        eps = 1e-6
        for space in ALL3:
            _, _, upper = space.comparison(r + eps)
            _, _, lower = space.comparison(r - eps)
            f, _, _ = space.comparison(r)
            assert np.allclose((upper - lower) / (2.0 * eps), f, atol=1e-8)

    def test_conjugate_point_rejected(self):
        with pytest.raises(ConjugatePointError):
            SPH.comparison(math.pi)

    def test_negative_radius_rejected(self):
        for space in ALL3:
            with pytest.raises(ValidationError):
                space.comparison(-0.1)

    def test_flat_limit_small_curvature(self):
        kappa = 1e-4
        space = SpaceForm(Model.HYPERBOLIC, 3, kappa)
        r = np.linspace(0.1, 3.0, 30)
        f, _, _ = space.comparison(r)
        assert np.all(np.abs(f - r) <= kappa ** 2 * r ** 3)

    def test_circle_curvature_identities(self):
        r = np.linspace(0.2, 1.2, 11)
        assert np.allclose(FLAT.circle_curvature(r), 1.0 / r, atol=1e-10)
        k = 1.3
        hyp = SpaceForm(Model.HYPERBOLIC, 3, k)
        assert np.allclose(hyp.circle_curvature(r), k / np.tanh(k * r), atol=1e-10)
        b = 0.8
        sph = SpaceForm(Model.SPHERICAL, 3, b)
        assert np.allclose(sph.circle_curvature(r), b / np.tan(b * r), atol=1e-10)


class TestSpaceForm:
    def test_dimension_validated(self):
        with pytest.raises(ValidationError):
            SpaceForm(Model.FLAT, 1)

    def test_curvature_required_when_curved(self):
        with pytest.raises(ValidationError):
            SpaceForm(Model.SPHERICAL, 3, 0.0)

    @pytest.mark.parametrize("model", [Model.HYPERBOLIC, Model.SPHERICAL])
    def test_curvature_square_must_be_a_normal_float(self, model):
        # the smallest and largest scales whose squares are normal floats
        low, high = math.sqrt(2.0 ** -1022), math.sqrt(1.7976931348623157e308)
        for curv in (low, 1.0, high):
            k = SpaceForm(model, 3, curv).sectional_curvature
            assert 0.0 < abs(k) < math.inf and 0.0 < abs(1.0 / k) < math.inf
        for curv in (math.nextafter(low, 0.0), 1e-300,
                     math.nextafter(high, math.inf), 1e300, math.inf):
            with pytest.raises(ValidationError, match="is out of range"):
                SpaceForm(model, 3, curv)
        SpaceForm(Model.FLAT, 3, 1e300)  # flat ignores the scale

    def test_dimension_must_fit_an_array_axis(self):
        for model in Model:
            with pytest.raises(ValidationError, match="is too large"):
                SpaceForm(model, 2 ** 63 - 1)

    @pytest.mark.parametrize("space", ALL3, ids=lambda s: s.model.value)
    def test_projection_needs_every_coordinate(self, space):
        d = space.embedding_dim
        with pytest.raises(ValidationError,
                           match=f"^expected {d} coordinates, got {d - 1}$"):
            space.project_point(np.ones((2, d - 1)))

    def test_chord_beyond_the_spherical_diameter_is_refused(self):
        space = SpaceForm(Model.SPHERICAL, 3, 0.8)
        diameter_sq = (2.0 / 0.8) ** 2
        space.chord_dist(np.array([0.25 * diameter_sq]))
        with pytest.raises(NumericalError, match="^spherical chord exceeds "
                           "the embedded diameter$"):
            space.chord_dist(np.array([0.25 * diameter_sq, 1.01 * diameter_sq]))

    @pytest.mark.parametrize("space", [HYP3, SPH3], ids=lambda s: s.model.value)
    def test_log_of_a_null_direction_is_refused(self, space):
        # the chord's length is that of a distinct point, but the chord
        # itself is zero, so it has no tangent direction
        p = space.base_point()
        with pytest.raises(NumericalError,
                           match="^log map direction is degenerate$"):
            space.chord_log(p, np.zeros_like(p), np.array(0.5))

    def test_projection_restores_quadric(self):
        rng = np.random.default_rng(2)
        for space in ALL3:
            p = random_point(space, rng)
            noisy = p + rng.standard_normal(space.embedding_dim) * 1e-7
            proj = space.project_point(noisy)
            assert float(space.manifold_residual(proj)) < 1e-9

    def test_tangent_basis_orthonormal(self):
        rng = np.random.default_rng(4)
        for space in ALL3:
            p = random_point(space, rng)
            basis = space.tangent_basis(p)
            gram = np.array([[float(space.mdot(a, b)) for b in basis] for a in basis])
            assert np.allclose(gram, np.eye(space.dim), atol=1e-10)
            assert np.all(space.tangency_residual(p, basis) < 1e-9)


class TestMdot:
    @staticmethod
    def former_mdot(space, u, v):
        """The ambient form as np.sum computed it."""
        out = np.sum(u * v, axis=-1)
        if space.model is Model.HYPERBOLIC:
            out = out - 2.0 * u[..., 0] * v[..., 0]
        return out

    @pytest.mark.parametrize("dim", range(2, 7))
    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_equals_the_np_sum_form_bitwise(self, model, dim):
        space = SpaceForm(model, dim, 0.8)
        d = space.embedding_dim
        rng = np.random.default_rng(dim)
        # the broadcasts the kernels use: rows against one point, and a
        # stack of tangent bases against one vector per stack
        for ushape, vshape in [((257, d), (d,)), ((257, d), (257, d)),
                               ((9, dim, d), (9, 1, d))]:
            u, v = (rng.standard_normal(shape)
                    * 10.0 ** rng.uniform(-100, 100, shape)
                    for shape in (ushape, vshape))
            got = space.mdot(u, v)
            want = self.former_mdot(space, u, v)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _frame_points(space, rng):
    """Points at which to test the tangent frame, at distance t from the
    base point in random directions: four random t, then boosts up to
    rapidity 12 on the hyperboloid, or on the sphere t near pi/2 (the
    equator p_0 = 0), the antipode of the base point and t at pi - 1e-12
    and pi - 1e-8 (near it).  Flat points go out to about 1e6."""
    if space.model is Model.FLAT:
        return np.concatenate([rng.standard_normal((4, space.dim)),
                               1e6 * rng.standard_normal((12, space.dim))])
    if space.model is Model.HYPERBOLIC:
        t = np.concatenate([rng.uniform(0.0, 4.0, 4),
                            [0.1, 3.0, 6.0, 7.5, 9.0, 10.0, 11.0, 11.5, 12.0,
                             12.0, 12.0, 12.0]])
        cos, sin = np.cosh, np.sinh
    else:
        t = np.concatenate([rng.uniform(0.0, math.pi, 4), math.pi - np.array(
            [0.0, 1e-12, 1e-12, 1e-8, 1e-8, 1e-6, 0.5, math.pi / 2 - 1e-9,
             math.pi / 2, math.pi / 2 + 1e-9, 3.0, math.pi])])
        cos, sin = np.cos, np.sin
    n = rng.standard_normal((len(t), space.dim))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    pts = np.concatenate([cos(t)[:, None], sin(t)[:, None] * n], axis=1)
    if space.model is Model.SPHERICAL:
        pts[-1] = -space.base_point() * space.curv  # the antipode exactly
    return pts / space.curv


class TestTangentBasis:
    """The closed-form frame of SpaceForm.tangent_basis."""

    # rounding bound, in units of eps |k p|^2, on the Gram matrix's distance
    # from the identity and on the rows' tangency residual; the points are
    # themselves rounded, and the largest reading is about 2.8
    ULPS = 8.0

    @pytest.mark.parametrize("model", [Model.HYPERBOLIC, Model.SPHERICAL])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("curv", [0.3, 1.0, 2.7])
    def test_rows_orthonormal_and_tangent(self, model, dim, curv):
        space = SpaceForm(model, dim, curv)
        p = _frame_points(space, np.random.default_rng(10 * dim))
        basis = space.tangent_basis(p)
        assert basis.shape == (len(p), dim, dim + 1)
        gram = space.mdot(basis[:, :, None, :], basis[:, None, :, :])
        off = np.max(np.abs(gram - np.eye(dim)), axis=(1, 2))
        tangency = np.max(space.tangency_residual(p[:, None, :], basis),
                          axis=1)
        bound = self.ULPS * np.finfo(float).eps * np.sum((curv * p) ** 2,
                                                         axis=1)
        assert np.all(off <= bound)
        assert np.all(tangency <= bound)

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("curv", [0.3, 0.9, 1.0, 49.0])
    def test_identity_at_the_base_point(self, model, curv):
        space = SpaceForm(model, 3, curv)
        d = space.embedding_dim
        want = np.eye(d) if model is Model.FLAT else np.eye(d)[1:]
        got = space.tangent_basis(space.base_point())
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert not np.any(np.signbit(got))

    @pytest.mark.parametrize("space", [FLAT, HYP, HYP3, SPH, SPH3],
                             ids=lambda s: f"{s.model.value}-{s.dim}")
    def test_batch_is_point_by_point(self, space):
        p = _frame_points(space, np.random.default_rng(5))[:15]
        batch = space.tangent_basis(p.reshape(3, 5, -1))
        assert batch.shape == (3, 5, space.dim, space.embedding_dim)
        for i, j in np.ndindex(3, 5):
            one = space.tangent_basis(p[5 * i + j])
            assert batch[i, j].tobytes() == one.tobytes()

    def test_vertex_terms_match_gram_schmidt(self, monkeypatch):
        # criterion 2's instances, the square, the cube and the theta
        # graph, and the curved square, cube and theta graph
        graphs = [shapes.theta_graph(samples_per_edge=256),
                  shapes.cube_skeleton_graph(),
                  shapes.square_graph(SPACES["flat"], 1.0,
                                      samples_per_edge=32)]
        for name in ("hyperbolic", "spherical"):
            graphs += [carried_graph(g, SPACES[name]) for g in graphs[:2]]
            graphs.append(shapes.square_graph(SPACES[name], 0.5,
                                              samples_per_edge=32))
        rng = np.random.default_rng(100)
        for _ in range(100):
            space = list(SPACES.values())[int(rng.integers(3))]
            ang = rng.uniform(0.15, math.pi - 0.15)
            t1 = np.zeros(space.dim)
            t1[0] = 1.0
            t2 = np.zeros(space.dim)
            t2[0], t2[1] = math.cos(ang), math.sin(ang)
            graphs.append(wedge_graph(
                space, t1, t2,
                leg=0.5 if space.model is Model.SPHERICAL else 0.7))
        got = [[v.tc for v in cone_total_curvature(g.space, g).per_vertex]
               for g in graphs]
        monkeypatch.setattr(SpaceForm, "tangent_basis", gram_schmidt_basis)
        for g, terms in zip(graphs, got):
            want = [v.tc for v in cone_total_curvature(g.space, g).per_vertex]
            assert np.max(np.abs(np.subtract(terms, want))) <= 1e-12

    @pytest.mark.parametrize("name", ["flat-cube", "hyperbolic-pentagon",
                                      "spherical-random"])
    def test_one_call_per_total_curvature(self, monkeypatch, name):
        g = {"flat-cube": shapes.cube_skeleton_graph,
             "hyperbolic-pentagon": lambda: shapes.regular_polygon_graph(
                 HYP3, 5, 0.8, samples_per_edge=32),
             "spherical-random": lambda: random_graph(
                 SPACES["spherical"], np.random.default_rng(3),
                 n_vertices=5, n_extra=4, samples_per_edge=32)}[name]()
        calls = []
        basis = SpaceForm.tangent_basis

        def counted(self, p):
            calls.append(np.shape(p))
            return basis(self, p)

        monkeypatch.setattr(SpaceForm, "tangent_basis", counted)
        cone_total_curvature(g.space, g)
        assert calls == [(len(g.vertices), g.space.embedding_dim)]


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9), st.floats(-0.9, 0.9),
       st.floats(-0.9, 0.9))
def test_spherical_distance_agrees_with_arccos(ax, ay, bx, by):
    space = SPH3
    base = space.base_point()
    basis = space.tangent_basis(base)
    p = space.exp(base, np.array([ax, ay, 0.0]) @ basis)
    q = space.exp(base, np.array([bx, by, 0.3]) @ basis)
    via_chord = float(space.dist(p, q))
    via_arccos = math.acos(float(np.clip(np.dot(p, q), -1.0, 1.0)))
    assert via_chord == pytest.approx(via_arccos, abs=1e-9)
