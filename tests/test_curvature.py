import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xcflow.curvature import (
    MetricJet,
    Riemann3,
    SymTensor3,
    christoffel,
    cross_curvature,
    cross_curvature_forms,
    eigen_frame,
    einstein_raised,
    generalized_eigh,
    jet_from_function,
    pack,
    ricci,
    riemann,
    space_form_chart,
    space_form_chart_jet,
    unpack,
    volume_form,
)
from xcflow import curvature
from xcflow.errors import DomainError, InternalConsistencyError

IDENTITY = SymTensor3.identity()
ORTHOGONAL = r"^rotation must be an orthogonal 3x3 matrix \(\|Q\^T Q - I\| <= 1e-12 entrywise\)$"


def constant_jet(g: SymTensor3) -> MetricJet:
    return MetricJet(g, np.zeros((3, 6)), np.zeros((6, 6)))


def spd(rng, scale=1.0):
    m = rng.uniform(-1.0, 1.0, (3, 3))
    return SymTensor3.from_matrix(scale * (m @ m.T + 0.5 * np.eye(3)))


def assert_determinant_form_matches(forms, p, det_g=1.0):
    """The determinant form equals the contraction form within
    1e-12 det(g) ||P||_F^2, the size adj(P) can reach."""
    p_norm = np.linalg.norm(p.matrix)
    dev = np.abs(forms.determinant_form.matrix - forms.contraction_form.matrix).max()
    assert dev <= 1e-12 * det_g * p_norm * p_norm


def gen_eigs(t, g):
    import scipy.linalg
    gm = g.matrix
    if t.variance == "lower":
        return np.sort(scipy.linalg.eigvalsh(t.matrix, gm))
    return np.sort(scipy.linalg.eigvalsh(gm @ t.matrix @ gm, gm))


class TestSymTensor3:
    def test_components_are_read_only_and_the_callers_array_stays_writeable(self):
        mine = np.array([2.0, 0.1, 0.0, 3.0, 4.0, 0.2])
        t = SymTensor3(mine)
        mine[0] = 7.0  # still the caller's array, and not the tensor's
        assert t.components[0] == 2.0
        for made in (t, SymTensor3.from_matrix(np.eye(3)), SymTensor3.identity(),
                     SymTensor3([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])):
            with pytest.raises(ValueError):
                made.components[0] = 5.0
        # the tensor keeps Python floats; each view is a fresh read-only array
        again = SymTensor3(t.components, "upper")
        assert again.values == t.values == (2.0, 0.1, 0.0, 3.0, 4.0, 0.2)
        assert t.components is not t.components

    def test_pack_unpack_roundtrip(self):
        m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        assert np.array_equal(unpack(pack(m)), m)

    def test_index_arrays_match_loop_reference(self):
        # pack/unpack and the jet's full arrays index with fixed arrays; the
        # loops below are the reference and the results must be equal
        order = ((0, 0), (0, 1), (0, 2), (1, 1), (2, 2), (1, 2))

        def loop_unpack(c):
            m = np.empty((3, 3))
            for value, (i, j) in zip(c, order):
                m[i, j] = m[j, i] = value
            return m

        rng = np.random.default_rng(29)
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            m = m + m.T
            c = rng.normal(size=6)
            assert np.array_equal(pack(m), [m[i, j] for i, j in order])
            assert np.array_equal(unpack(c), loop_unpack(c))
        jet = space_form_chart_jet(-0.8, rng.uniform(-0.5, 0.5, 3))
        dg_full = np.stack([loop_unpack(row) for row in jet.dg])
        ddg_full = np.empty((3, 3, 3, 3))
        for row, (k, l) in enumerate(order):
            ddg_full[k, l] = ddg_full[l, k] = loop_unpack(jet.ddg[row])
        assert np.array_equal(jet.dg_full, dg_full)
        assert np.array_equal(jet.ddg_full, ddg_full)
        again = MetricJet.from_full(jet.g.matrix, dg_full, ddg_full)
        assert np.array_equal(again.dg, jet.dg) and np.array_equal(again.ddg, jet.ddg)

    def test_component_order_is_11_12_13_22_33_23(self):
        m = np.array([[11.0, 12.0, 13.0], [12.0, 22.0, 23.0], [13.0, 23.0, 33.0]])
        assert np.array_equal(pack(m), [11.0, 12.0, 13.0, 22.0, 33.0, 23.0])

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(DomainError):
            SymTensor3.from_matrix(np.array([[1.0, 2.0, 0], [0, 1, 0], [0, 0, 1]]))

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_symmetry_tolerance_boundary_is_inclusive(self, scale):
        atol = 1e-12 * max(1.0, scale)
        m = scale * np.eye(3)
        m[0, 1] = atol  # m - m.T is exactly atol there
        assert SymTensor3.from_matrix(m).components[1] == 0.5 * atol
        m[0, 1] = 2.0 * atol
        with pytest.raises(DomainError, match="not symmetric"):
            SymTensor3.from_matrix(m)

    def test_symmetry_test_matches_allclose_reference(self):
        rng = np.random.default_rng(11)
        verdicts = set()
        for _ in range(3000):
            scale = 10.0 ** rng.uniform(-3, 6)
            a = rng.standard_normal((3, 3)) * scale
            m = a + a.T
            atol = 1e-12 * max(1.0, np.abs(m).max())
            i, j = rng.choice(3, size=2, replace=False)
            m[i, j] += rng.choice([0.5, 1.0, 2.0]) * atol
            symmetric = np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(m).max()))
            try:
                SymTensor3.from_matrix(m)
                accepted = True
            except DomainError:
                accepted = False
            assert accepted == symmetric
            verdicts.add(accepted)
        assert verdicts == {True, False}

    def test_positive_definite_by_leading_minors(self):
        assert IDENTITY.is_positive_definite()
        assert not SymTensor3(np.array([1.0, 0, 0, -1.0, 1.0, 0])).is_positive_definite()
        # g_12^2 > g_11 g_22: the second Cholesky pivot is negative
        assert not SymTensor3(np.array([1.0, 2.0, 0, 1.0, 1.0, 0])).is_positive_definite()

    @pytest.mark.parametrize("scale", [1e-300, 1e-110, 1.0, 1e103, 1e300])
    def test_positive_definite_verdict_does_not_depend_on_scale(self, scale):
        # det g under- or overflows at most of these scales; the Cholesky
        # pivots scale with g and decide alone
        assert SymTensor3(scale * np.array([1.0, 0.1, 0.0, 2.0, 1.0, 0.0])).is_positive_definite()
        assert not SymTensor3(scale * np.array([1.0, 2.0, 0.0, 1.0, 1.0, 0.0])).is_positive_definite()
        assert not SymTensor3(scale * np.array([1.0, 0.1, 0.0, 2.0, -1.0, 0.0])).is_positive_definite()

    def test_positive_definite_matches_eigenvalue_reference(self):
        # eigenvalues are the reference; LAPACK's output on a non-finite
        # matrix is unspecified, and such a matrix is not even a tensor
        rng = np.random.default_rng(37)
        verdicts = set()
        for trial in range(4000):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            lam = rng.uniform(0.05, 2.0, 3) * rng.choice([-1.0, 1.0], 3, p=[0.3, 0.7])
            if trial % 4 == 1:  # near-singular, either side of zero
                lam[rng.integers(3)] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9, -6)
            m = 10.0 ** rng.uniform(-3, 3) * (q * lam) @ q.T
            m = 0.5 * (m + m.T)
            if trial % 4 == 3:
                i, j = rng.integers(3, size=2)
                m[i, j] = m[j, i] = rng.choice([np.nan, np.inf, -np.inf])
            if not np.isfinite(m).all():
                with pytest.raises(DomainError, match="^components must be finite$"):
                    SymTensor3([m[i, j] for i, j in curvature.COMPONENT_ORDER])
                continue
            expected = bool(np.linalg.eigvalsh(m).min() > 0.0)
            t = SymTensor3(pack(m))
            assert t.is_positive_definite() == expected, m
            # the metric check decides from the same factor: it refuses a
            # positive definite g only for a determinant out of range
            try:
                curvature._require_metric(t)
                accepted = True
            except DomainError as exc:
                accepted = str(exc).startswith("metric determinant")
            assert accepted == expected, m
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_from_matrix_components_equal_numpy_symmetrization(self):
        # Python-float packing must round exactly as pack(0.5 * (m + m.T))
        # wherever that is finite, and stay finite where m + m.T overflows
        rng = np.random.default_rng(41)
        for _ in range(2000):
            a = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-300, 300)
            m = a + a.T
            i, j = rng.choice(3, size=2, replace=False)
            m[i, j] += 0.5e-12 * max(1.0, np.abs(m).max()) * rng.uniform(-1.0, 1.0)
            got = SymTensor3.from_matrix(m).components
            assert got.tobytes() == pack(0.5 * (m + m.T)).tobytes()
        huge = np.array([[1e308, -1e308, 1e308], [-1e308, 1e308, 5e-324],
                         [1e308, 5e-324, -1e308]])
        for m in (np.diag([1e308, 1.0, -1e308]), huge, np.full((3, 3), 1e308)):
            got = SymTensor3.from_matrix(m).components
            assert got.tobytes() == pack(m).tobytes()
        m = np.eye(3)
        m[0, 1], m[1, 0] = 1.7e308, np.nextafter(1.7e308, 0.0)
        midpoint = float((Fraction(m[0, 1]) + Fraction(m[1, 0])) / 2)  # correctly rounded
        assert SymTensor3.from_matrix(m).components[1] == midpoint


class TestVolumeForm:
    def test_identity_metric_normalization(self):
        mu_lo, mu_up = volume_form(IDENTITY)
        assert mu_lo[0, 1, 2] == 1.0
        assert mu_up[0, 1, 2] == 1.0

    def test_scaled_metric_determinant_scaling(self):
        g = SymTensor3(4.0 * IDENTITY.components)
        mu_lo, mu_up = volume_form(g)
        assert mu_lo[0, 1, 2] == pytest.approx(8.0, rel=1e-15)
        assert mu_up[0, 1, 2] == pytest.approx(1.0 / 8.0, rel=1e-15)

    def test_rejects_indefinite_metric(self):
        with pytest.raises(DomainError):
            volume_form(SymTensor3(np.array([-1.0, 0, 0, 1.0, 1.0, 0])))

    @pytest.mark.parametrize("scale, message", [
        (1e206, "metric determinant overflows: g is positive definite but of scale 1.26e+206"),
        (1e-220, "metric determinant underflows: g is positive definite but of scale 1.26e-220"),
    ])
    def test_determinant_out_of_range_is_named_with_the_scale(self, scale, message):
        # the Cholesky factor exists, but sqrt(det g) = l11 l22 l33 is inf or
        # 0: the error names the scale, and nothing downstream blames the pair
        g = SymTensor3(scale * np.array([1.0, 0.1, 0.0, 2.0, 1.0, 0.0]))
        assert g.is_positive_definite()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message.replace("+", r"\+")):
                einstein_raised(Riemann3.space_form(0.5 / scale, g), g)
            with pytest.raises(DomainError, match="determinant"):
                volume_form(g)

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_far_scales_keep_the_scale_covariance(self, scale):
        from xcflow.symbol import parabolicity
        # det g = 1e+-450 is no float, but sqrt(det g) = l11 l22 l33 is, and
        # nothing forms det g alone.  Under g -> c g the lowered Riemann
        # tensor scales as c, Ric not at all, R as 1/c, P as 1/c^2, h as 1/c
        # and the generalized eigenvalues of P, so parabolicity's threshold, as 1/c
        jet = _generic_jet(np.random.default_rng(74))
        far = MetricJet(SymTensor3(scale * jet.g.components), scale * jet.dg, scale * jet.ddg)
        near_riem, far_riem = riemann(jet), riemann(far)
        (near_ric, near_r), (far_ric, far_r) = ricci(near_riem, jet.g), ricci(far_riem, far.g)
        pairs = [
            (near_riem.lowered, far_riem.lowered / scale),
            (near_ric.components, far_ric.components),
            (np.array([near_r]), np.array([far_r * scale])),
            (einstein_raised(near_riem, jet.g).components,
             einstein_raised(far_riem, far.g).components * scale * scale),
            (cross_curvature(near_riem, jet.g).components,
             cross_curvature(far_riem, far.g).components * scale),
            (eigen_frame(einstein_raised(near_riem, jet.g), jet.g)[0].as_array(),
             eigen_frame(einstein_raised(far_riem, far.g), far.g)[0].as_array() * scale),
            (np.array([parabolicity(einstein_raised(near_riem, jet.g), jet.g, 0.0).threshold]),
             np.array([parabolicity(einstein_raised(far_riem, far.g), far.g, 0.0).threshold])
             * scale),
        ]
        for near, far_scaled in pairs:
            assert np.abs(far_scaled - near).max() <= 1e-12 * np.abs(near).max()

    @pytest.mark.parametrize("components", [
        [1e200, 0, 0, 1e200, -1e200, 0],      # indefinite at a scale whose det overflows
        [1e-200, 0, 0, 1e-200, -1e-200, 0],   # and at one whose det underflows
        [1e-320, 1e-9, 0, 1e300, 1e-320, 0],  # g_12^2 > g_11 g_22, diagonal 1e620 apart
        [5e-324, 1e300, 0, 5e-324, 5e-324, 0],  # g_12 / sqrt(g_11) overflows
        # u u^T of rank 2 plus 2^-52 e3 e3^T: det g = 1.1e-16 from the
        # cofactors, but the smallest eigenvalue is -1.3e-16
        [0.8125, 1.25, 0.75, 2.0, 1.0 + 2.0**-52, 1.0],
    ])
    def test_indefinite_metric_at_any_scale_is_not_positive_definite(self, components):
        g = SymTensor3(np.array(components, dtype=float))
        assert not g.is_positive_definite()
        with pytest.raises(DomainError, match="metric is not positive definite"):
            volume_form(g)

    def test_contraction_identity_brute_force(self):
        rng = np.random.default_rng(3)
        g = spd(rng)
        mu_lo, mu_up = volume_form(g)
        delta = np.eye(3)
        for i in range(3):
            for j in range(3):
                for l in range(3):
                    for m in range(3):
                        got = sum(mu_lo[i, j, k] * mu_up[l, m, k] for k in range(3))
                        want = delta[i, l] * delta[j, m] - delta[i, m] * delta[j, l]
                        assert got == pytest.approx(want, abs=1e-12)


class TestChristoffel:
    def test_constant_metric_gives_zero(self):
        rng = np.random.default_rng(5)
        jet = constant_jet(spd(rng))
        assert np.abs(christoffel(jet)).max() == 0.0

    def test_conformal_chart_critical_point(self):
        # dg = 0 at the chart origin, so the connection vanishes there
        jet = space_form_chart_jet(1.0, np.zeros(3))
        assert np.abs(christoffel(jet)).max() == 0.0

    def test_chart_values_match_symbolic_oracle(self):
        # frozen from symbolic differentiation of the kappa=1 conformal chart
        # at the point (0.1, 0.2, 0.3)
        gamma = christoffel(space_form_chart_jet(1.0, np.array([0.1, 0.2, 0.3])))
        d1, d2, d3 = -0.04830917874396135, -0.0966183574879227, -0.14492753623188406
        expected = np.array([
            [[d1, d2, d3], [d2, -d1, 0.0], [d3, 0.0, -d1]],
            [[-d2, d1, 0.0], [d1, d2, d3], [0.0, d3, -d2]],
            [[-d3, 0.0, d1], [0.0, -d3, d2], [d1, d2, d3]],
        ])
        assert np.abs(gamma - expected).max() < 1e-12


class TestRiemann:
    def test_flat_jet_gives_zero(self):
        jet = constant_jet(IDENTITY)
        assert np.abs(riemann(jet).lowered).max() == 0.0

    @pytest.mark.parametrize("kappa", [1.0, -1.0, 0.5])
    def test_space_form_closed_form_from_analytic_jet(self, kappa):
        x = np.array([0.2, -0.1, 0.3])
        jet = space_form_chart_jet(kappa, x)
        got = riemann(jet).lowered
        gm = jet.g.matrix
        want = kappa * (np.einsum("ik,jl->ijkl", gm, gm) - np.einsum("il,jk->ijkl", gm, gm))
        assert np.abs(got - want).max() < 1e-12

    def test_algebraic_symmetries_and_bianchi(self):
        jet = space_form_chart_jet(-1.0, np.array([0.3, 0.1, -0.2]))
        r = riemann(jet).lowered
        assert np.abs(r + r.transpose(1, 0, 2, 3)).max() < 1e-12
        assert np.abs(r + r.transpose(0, 1, 3, 2)).max() < 1e-12
        assert np.abs(r - r.transpose(2, 3, 0, 1)).max() < 1e-12
        bianchi = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
        assert np.abs(bianchi).max() < 1e-12

    def test_from_lowered_rejects_broken_symmetry(self):
        bad = np.zeros((3, 3, 3, 3))
        bad[0, 1, 0, 1] = 1.0  # missing the antisymmetric partners
        with pytest.raises(DomainError):
            Riemann3.from_lowered(bad, IDENTITY)
        # the test is scale-free: small noise is no curvature tensor either
        noise = 1e-13 * np.random.default_rng(61).standard_normal((3, 3, 3, 3))
        with pytest.raises(DomainError, match="Riemann algebraic symmetries"):
            Riemann3.from_lowered(noise, IDENTITY)
        flat = Riemann3.from_lowered(np.zeros((3, 3, 3, 3)), IDENTITY)
        assert not flat.bivector_form.components.any()

    def test_sphere_sign_convention(self):
        # unit round sphere has R_1212 = +1 in an orthonormal frame
        r = Riemann3.space_form(1.0, IDENTITY)
        assert r.lowered[0, 1, 0, 1] == 1.0

    @pytest.mark.parametrize("rotation, message", [
        (2.0 * np.eye(3), ORTHOGONAL),
        (np.eye(3) + 1e-11 * np.triu(np.ones((3, 3)), 1), ORTHOGONAL),
        (np.eye(2), r"^rotation must have shape \(3, 3\), got shape \(2, 2\)$"),
        (np.eye(3)[:, :, None], r"^rotation must have shape \(3, 3\), got shape \(3, 3, 1\)$"),
        (np.full((3, 3), np.nan), "^rotation must be finite$"),
        (np.diag([1.0, math.inf, 1.0]), "^rotation must be finite$"),
        (np.full((3, 3), 1e200), ORTHOGONAL),
        (np.zeros((0, 3)), r"^rotation must have shape \(3, 3\), got shape \(0, 3\)$"),
        ("abc", "^rotation must be an array of real numbers within the float range, got 'abc'$"),
        ([[1.0, 0.0], [0.0]], r"^rotation must be an array of real numbers within the float "
                              r"range, got \[\[1\.0, 0\.0\], \[0\.0\]\]$"),
    ], ids=["scaled", "near_orthogonal", "2x2", "3x3x1", "nan", "inf", "huge", "empty",
            "str", "ragged"])
    def test_from_frame_rotation_must_be_orthogonal(self, rotation, message):
        # 2 I used to give the frame (16, 32, 48), and a 2x2 a bare ValueError;
        # a rotation that is not a finite 3x3 array is refused by the reader
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            with pytest.raises(DomainError, match=message):
                Riemann3.from_frame(1.0, 2.0, 3.0, rotation=rotation)

    def test_from_frame_accepts_reflections(self):
        q, _ = np.linalg.qr(np.random.default_rng(83).standard_normal((3, 3)))
        for reflection in (np.diag([1.0, -1.0, 1.0]), -q if np.linalg.det(q) > 0 else q):
            riem = Riemann3.from_frame(1.0, 2.0, 3.0, rotation=reflection)
            frame, _ = eigen_frame(einstein_raised(riem, IDENTITY), IDENTITY)
            assert np.allclose(frame.as_array(), [1.0, 2.0, 3.0], rtol=0, atol=1e-14)


class TestRicci:
    def test_unit_sphere(self):
        r = Riemann3.from_frame(1.0, 1.0, 1.0)
        ric, scalar = ricci(r, IDENTITY)
        assert np.abs(ric.matrix - 2.0 * np.eye(3)).max() == 0.0
        assert scalar == 6.0

    def test_eigenvalues_for_mixed_frame(self):
        ric, scalar = ricci(Riemann3.from_frame(1.0, 2.0, 3.0), IDENTITY)
        assert np.allclose(np.sort(np.linalg.eigvalsh(ric.matrix)), [3.0, 4.0, 5.0])
        assert scalar == 12.0

    def test_flat(self):
        ric, scalar = ricci(Riemann3.space_form(0.0, IDENTITY), IDENTITY)
        assert np.abs(ric.matrix).max() == 0.0
        assert scalar == 0.0

    def test_keeps_precision_where_det_g_is_subnormal(self):
        scale = 1e-105  # det g is about 2e-315
        g = SymTensor3(scale * np.array([1.0, 0.1, 0.0, 2.0, 1.0, 0.0]))
        ric, scalar = ricci(Riemann3.space_form(0.5 / scale, g), g)
        assert abs(scalar - 3.0 / scale) <= 1e-14 * 3.0 / scale
        assert np.abs(ric.components - g.components / scale).max() <= 1e-14 * 2.0

    @pytest.mark.parametrize("g_scale", [1.0, 0.25])  # R overflows; Ric and R overflow
    @pytest.mark.parametrize("fn", [ricci, einstein_raised])
    def test_overflowing_curvature_is_named(self, fn, g_scale):
        r = Riemann3.from_frame(4e307, 4e307, 4e307)
        g = SymTensor3.from_matrix(g_scale * np.eye(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            with pytest.raises(DomainError, match="curvature values overflow"):
                fn(r, g)


class TestEinsteinRaised:
    def test_unit_sphere_is_identity(self):
        p = einstein_raised(Riemann3.from_frame(1.0, 1.0, 1.0), IDENTITY)
        assert np.abs(p.matrix - np.eye(3)).max() < 1e-15
        assert p.variance == "upper"

    def test_frame_eigenvalues_are_sectional_curvatures(self):
        p = einstein_raised(Riemann3.from_frame(1.0, 2.0, 3.0), IDENTITY)
        assert np.allclose(np.linalg.eigvalsh(p.matrix), [1.0, 2.0, 3.0])

    def test_flat_is_zero(self):
        p = einstein_raised(Riemann3.space_form(0.0, IDENTITY), IDENTITY)
        assert np.abs(p.matrix).max() == 0.0

    @pytest.mark.parametrize("g_components, kappa", [
        pytest.param(1e-106 * np.array([1.0, 0.1, 0.0, 2.0, 1.0, 0.0]), 0.5e106, id="det-2e-318"),
        pytest.param(1e-104 * np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0]), 1.0, id="det-1e-312"),
    ])
    def test_space_form_where_det_g_is_subnormal(self, g_components, kappa):
        # det g rounds to a subnormal float with a few significant bits, while
        # sqrt(det g) = l11 l22 l33 of the Cholesky factor is exact to a few ulps
        g = SymTensor3(g_components)
        riem = Riemann3.space_form(kappa, g)
        p = einstein_raised(riem, g)
        assert np.abs(p.matrix / kappa - np.linalg.inv(g.matrix)).max() <= (
            1e-13 * np.abs(np.linalg.inv(g.matrix)).max())
        assert np.abs(eigen_frame(p, g)[0].as_array() / kappa - 1.0).max() <= 1e-13
        # h = kappa^2 g by all three routes
        forms = cross_curvature_forms(riem, g)
        assert forms.max_pairwise_dev <= 1e-13
        for h in (forms.contraction_form, forms.mu_form, forms.determinant_form):
            assert np.abs(h.components / kappa**2 - g.components).max() <= (
                1e-13 * np.abs(g.components).max())

    def test_inconsistent_pair_raises(self):
        # Riemann of one metric paired with a very different metric breaks
        # the agreement between the trace form and the volume-form route
        r = Riemann3.space_form(1.0, IDENTITY)
        other = SymTensor3(np.array([4.0, 0.3, -0.2, 2.0, 1.0, 0.5]))
        with pytest.raises(InternalConsistencyError):
            einstein_raised(r, other)


class TestCrossCurvature:
    def test_frame_eigenvalues(self):
        h = cross_curvature(Riemann3.from_frame(1.0, 2.0, 3.0), IDENTITY)
        assert np.allclose(np.sort(np.linalg.eigvalsh(h.matrix)), [2.0, 3.0, 6.0])

    def test_unit_sphere_h_equals_g(self):
        h = cross_curvature(Riemann3.from_frame(1.0, 1.0, 1.0), IDENTITY)
        assert np.abs(h.matrix - np.eye(3)).max() < 1e-15

    def test_flat_h_is_zero_by_every_route(self):
        forms = cross_curvature_forms(Riemann3.space_form(0.0, IDENTITY), IDENTITY)
        assert np.abs(forms.contraction_form.matrix).max() == 0.0
        assert forms.determinant_singular
        assert np.abs(forms.determinant_form.matrix).max() == 0.0
        assert forms.max_pairwise_dev == 0.0

    def test_three_formulas_agree_on_rotated_frame(self):
        rng = np.random.default_rng(11)
        from scipy.stats import special_ortho_group
        q = special_ortho_group.rvs(3, random_state=rng)
        r = Riemann3.from_frame(-1.5, 2.0, 0.7, rotation=q)
        forms = cross_curvature_forms(r, IDENTITY)
        assert forms.max_pairwise_dev < 1e-12
        assert_determinant_form_matches(forms, einstein_raised(r, IDENTITY))

    def test_h_shares_eigenvectors_with_p(self):
        rng = np.random.default_rng(13)
        from scipy.stats import special_ortho_group
        q = special_ortho_group.rvs(3, random_state=rng)
        r = Riemann3.from_frame(1.0, 2.0, 3.0, rotation=q)
        p = einstein_raised(r, IDENTITY)
        h = cross_curvature(r, IDENTITY)
        _, vecs = eigen_frame(p, IDENTITY)
        # in the P eigenbasis h must be diagonal with entries bc, ac, ab
        h_in_frame = vecs.T @ h.matrix @ vecs
        assert np.allclose(h_in_frame, np.diag([6.0, 3.0, 2.0]), atol=1e-12)

    @given(
        a=st.floats(-5, 5), b=st.floats(-5, 5), c=st.floats(-5, 5),
        s=st.floats(0.1, 10),
    )
    @settings(max_examples=150, deadline=None)
    def test_homogeneity_under_metric_scaling(self, a, b, c, s):
        # h(s g) = h(g) / s when the Riemann input is rescaled consistently
        kappa = 0.5 * (a + b + c) / 3.0 + 0.1  # any nonzero-ish curvature
        g1 = IDENTITY
        g2 = SymTensor3(s * g1.components)
        h1 = cross_curvature(Riemann3.space_form(kappa, g1), g1).matrix
        h2 = cross_curvature(Riemann3.space_form(kappa / s, g2), g2).matrix
        scale = max(np.abs(h1).max(), 1e-300)
        assert np.abs(h2 - h1 / s).max() / scale < 1e-9

    @given(st.floats(0.05, 5), st.floats(0.05, 5), st.floats(0.05, 5))
    @settings(max_examples=150, deadline=None)
    def test_positive_frames_give_positive_definite_h(self, a, b, c):
        h = cross_curvature(Riemann3.from_frame(a, b, c), IDENTITY)
        assert h.is_positive_definite()

    @pytest.mark.parametrize("scale", [1e-150, 1e-20, 1.0, 1e20, 1e150])
    def test_determinant_cutoff_is_scale_free(self, scale):
        # both ends lie where |det P| <= 1e-12 ||P||^3 would under- or
        # overflow; |det(P / ||P||_F)| does neither
        q, _ = np.linalg.qr(np.random.default_rng(43).standard_normal((3, 3)))
        regular_r = Riemann3.from_frame(-1.5 * scale, 2.0 * scale, 0.7 * scale, rotation=q)
        regular = cross_curvature_forms(regular_r, IDENTITY)
        assert not regular.determinant_singular
        assert_determinant_form_matches(regular, einstein_raised(regular_r, IDENTITY))
        assert regular.max_pairwise_dev < 1e-12
        singular_r = Riemann3.from_frame(0.0, 2.0 * scale, 0.7 * scale, rotation=q)
        singular = cross_curvature_forms(singular_r, IDENTITY)
        assert singular.determinant_singular
        assert_determinant_form_matches(singular, einstein_raised(singular_r, IDENTITY))


@pytest.mark.parametrize("abc, unit, singular", [
    ((1.0, 2.0, 3.0), 6.0 / 14.0**1.5, False),
    ((0.0, 2.0, 3.0), 0.0, True),
    # invertible (det P = 1e17) but singular to working precision
    ((1e17, 1.0, 1.0), 1e-34, True),
])
def test_determinant_unit_is_what_the_singular_flag_thresholds(abc, unit, singular):
    forms = cross_curvature_forms(Riemann3.from_frame(*abc), IDENTITY)
    assert forms.determinant_unit == pytest.approx(unit, rel=1e-14, abs=0.0)
    assert forms.determinant_singular is singular


# Sectional curvatures log-uniform in +-[1e-150, 1e150], zeros mixed in
_SWEEP_VALUE = st.just(0.0) | st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]), st.floats(-150.0, 150.0))


@given(st.tuples(_SWEEP_VALUE, _SWEEP_VALUE, _SWEEP_VALUE), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_cross_curvature_eigenvalues_at_every_scale(abc, seed):
    # every check scales with the input, so no frame trips one; the
    # eigenvalues of h are (bc, ac, ab) to within 1e-12 ||P||_F^2
    from scipy.stats import special_ortho_group
    a, b, c = abc
    q = special_ortho_group.rvs(3, random_state=seed)  # Haar-distributed
    h = cross_curvature(Riemann3.from_frame(a, b, c, rotation=q), IDENTITY)
    got = np.linalg.eigvalsh(h.matrix)
    want = np.sort([b * c, a * c, a * b])
    assert np.abs(got - want).max() <= 1e-12 * (a * a + b * b + c * c)


def _product_chart(q):
    """S^2 x R in the linear chart x = q u: the round unit S^2 in conformal
    coordinates (x1, x2) times the line x3."""
    def g_fn(u):
        x = q @ u
        conformal = (1.0 + (x[0] ** 2 + x[1] ** 2) / 4.0) ** -2
        return q.T @ np.diag([conformal, conformal, 1.0]) @ q
    return g_fn


def test_vanishing_h_passes_every_check():
    # S^2 x R and the frame (0, 0, 1) have h = 0: each route's rounding is
    # measured against det(g) ||P||^2, not against h itself
    from scipy.stats import special_ortho_group
    rng = np.random.default_rng(67)
    for _ in range(20):
        q = special_ortho_group.rvs(3, random_state=rng)
        forms = cross_curvature_forms(Riemann3.from_frame(0.0, 0.0, 1.0, rotation=q), IDENTITY)
        for h in (forms.contraction_form, forms.mu_form, forms.determinant_form):
            assert np.abs(h.matrix).max() <= 1e-12
        jet = jet_from_function(_product_chart(q), rng.uniform(-0.5, 0.5, 3),
                                step=1e-3, richardson=True)
        riem = riemann(jet)
        forms = cross_curvature_forms(riem, jet.g)
        p_norm = np.linalg.norm(einstein_raised(riem, jet.g).matrix)
        assert abs(p_norm - 1.0) < 1e-6  # one unit sectional curvature
        for h in (forms.contraction_form, forms.mu_form, forms.determinant_form):
            assert np.abs(h.matrix).max() <= 1e-6 * p_norm**2


def _mutation_inputs():
    """(riem, g) pairs whose P is invertible, so every route runs."""
    q, _ = np.linalg.qr(np.random.default_rng(47).standard_normal((3, 3)))
    g = spd(np.random.default_rng(53))
    jet = space_form_chart_jet(-0.7, np.array([0.2, -0.1, 0.3]))
    return [
        (Riemann3.from_frame(-1.5, 2.0, 0.7, rotation=q), IDENTITY),
        (Riemann3.space_form(0.8, g), g),
        (riemann(jet), jet.g),
    ]


@pytest.mark.parametrize("route, is_p", [
    ("_p_trace", True), ("_p_bivector", True),
    ("_h_contraction", False), ("_h_mu", False), ("_h_determinant", False),
])
def test_every_formula_route_is_cross_checked(route, is_p, monkeypatch):
    # a 1e-9 relative error in any one route must raise; 1e-12 must not
    exact = getattr(curvature, route)
    calls = (cross_curvature_forms, einstein_raised) if is_p else (cross_curvature_forms,)
    for rel_error, raises in ((1e-12, False), (1e-9, True)):
        monkeypatch.setattr(curvature, route,
                            lambda *args, e=rel_error: [(1.0 + e) * v for v in exact(*args)])
        for riem, g in _mutation_inputs():  # _p_bivector runs as riem is built
            for call in calls:
                if raises:
                    with pytest.raises(InternalConsistencyError):
                        call(riem, g)
                else:
                    call(riem, g)


def _generic_jet(rng) -> MetricJet:
    # independent uniform derivatives: not conformally flat, no symmetry
    return MetricJet(spd(rng), rng.uniform(-1.0, 1.0, (3, 6)), rng.uniform(-1.0, 1.0, (6, 6)))


def test_lowered_riemann_is_read_only():
    mine = Riemann3.from_frame(1.0, 2.0, 3.0).lowered.copy()
    riem = Riemann3.from_lowered(mine, IDENTITY)
    mine[0, 1, 0, 1] = 9.0  # the caller's copy stays writeable and separate
    assert riem.lowered[0, 1, 0, 1] == 3.0
    for made in (riem, riemann(_generic_jet(np.random.default_rng(73))),
                 Riemann3.space_form(0.5, IDENTITY), Riemann3.from_frame(1.0, 2.0, 3.0)):
        with pytest.raises(ValueError):
            made.lowered[0, 1, 0, 1] = 1.0
        with pytest.raises(ValueError):
            made.bivector_form.components[0] = 1.0


def test_jet_derivatives_are_read_only():
    dg, ddg = np.zeros((3, 6)), np.zeros((6, 6))
    jet = MetricJet(IDENTITY, dg, ddg)
    dg[0, 0] = ddg[0, 0] = 9.0  # the caller's arrays stay writeable and separate
    assert jet.dg[0, 0] == jet.ddg[0, 0] == 0.0
    x = np.array([0.2, -0.1, 0.3])
    for made in (jet, space_form_chart_jet(0.7, x), jet_from_function(space_form_chart(0.7), x),
                 jet_from_function(space_form_chart(0.7), x, richardson=True),
                 MetricJet.from_full(np.eye(3), jet.dg_full, jet.ddg_full)):
        for array in (made.dg, made.ddg):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
    # the jet keeps Python floats; each view is a fresh read-only array
    assert MetricJet(IDENTITY, jet.dg, jet.ddg) == jet and jet.ddg is not jet.ddg


def _pair_outputs(riem, g):
    ric, scalar = ricci(riem, g)
    forms = cross_curvature_forms(riem, g)
    return (ric.components, np.array([scalar]), einstein_raised(riem, g).components,
            forms.contraction_form.components, forms.mu_form.components,
            forms.determinant_form.components, np.array([forms.max_pairwise_dev]))


def test_each_pair_pays_for_one_checked_pass(monkeypatch):
    calls = {"_p_trace": 0}
    for name in calls:
        def counted(*args, exact=getattr(curvature, name), name=name):
            calls[name] += 1
            return exact(*args)
        monkeypatch.setattr(curvature, name, counted)
    jet = _generic_jet(np.random.default_rng(79))
    riem = riemann(jet)
    for _ in range(3):
        _pair_outputs(riem, jet.g)
    assert calls == {"_p_trace": 1}
    # an equal metric in another object is another pair, with equal results
    twin = SymTensor3(jet.g.components.copy())
    for got, want in zip(_pair_outputs(riem, twin), _pair_outputs(riemann(jet), jet.g)):
        assert np.array_equal(got, want)
    assert calls == {"_p_trace": 3}


def _counted_cholesky(monkeypatch) -> list:
    """Record the components of every metric `curvature._cholesky` factors."""
    calls = []
    exact = curvature._cholesky

    def counted(comps):
        calls.append(tuple(comps))
        return exact(comps)

    monkeypatch.setattr(curvature, "_cholesky", counted)
    return calls


def _every_metric_use(jet):
    """Run every public operation that checks jet.g as a metric; return
    their array results."""
    from xcflow.symbol import parabolicity, to_orthonormal_frame

    g = jet.g
    riem = riemann(jet)
    ric, _ = ricci(riem, g)
    p = einstein_raised(riem, g)
    forms = cross_curvature_forms(riem, g)
    frame, vectors = eigen_frame(p, g)
    vals, vecs = generalized_eigh(ric, g)
    report = parabolicity(p, g, 0.1)
    MetricJet(g, jet.dg, jet.ddg)
    return (riem.lowered, ric.components, p.components, forms.contraction_form.components,
            forms.mu_form.components, forms.determinant_form.components, frame.as_array(),
            vectors, vals, vecs, christoffel(jet), *volume_form(g),
            to_orthonormal_frame(p, g).components, np.array([report.min_modified_eig]))


@pytest.mark.parametrize("make_jet", [
    lambda: space_form_chart_jet(0.7, np.array([0.2, -0.1, 0.3])),
    lambda: _generic_jet(np.random.default_rng(83)),
    lambda: jet_from_function(space_form_chart(-0.6), np.array([0.1, 0.3, -0.2])),
], ids=["chart_jet", "generic_jet", "fd_jet"])
def test_each_metric_object_is_factored_once(make_jet, monkeypatch):
    calls = _counted_cholesky(monkeypatch)
    jet = make_jet()
    for _ in range(2):
        first = _every_metric_use(jet)
    assert calls == [tuple(jet.g.components.tolist())]
    # an equal metric held in another object is factored again, to the same results
    twin = MetricJet(SymTensor3(jet.g.components.copy()), jet.dg, jet.ddg)
    for got, want in zip(_every_metric_use(twin), first):
        assert got.tobytes() == want.tobytes()
    assert len(calls) == 2


@pytest.mark.parametrize("components, variance, message", [
    ([1.0, 0.0, 0.0, -1.0, 1.0, 0.0], "lower", "metric is not positive definite"),
    ([1.0, 0.0, 0.0, 1.0, 1.0, 0.0], "upper", "a metric must carry lower indices"),
    ([1e-250, 0.0, 0.0, 1e-250, 1e-250, 0.0], "lower", "metric determinant underflows"),
    ([1e250, 0.0, 0.0, 1e250, 1e250, 0.0], "lower", "metric determinant overflows"),
])
def test_a_failing_metric_is_never_kept(components, variance, message, monkeypatch):
    calls = _counted_cholesky(monkeypatch)
    g = SymTensor3(np.array(components), variance)
    p = SymTensor3.identity("upper")
    for n, call in enumerate((lambda: curvature._require_metric(g), lambda: volume_form(g),
                              lambda: eigen_frame(p, g), lambda: constant_jet(g),
                              lambda: Riemann3.space_form(1.0, g)) * 2):
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value).startswith(message)
        assert g._factor is None
    # each call checked g afresh: a lower-index g was factored every time
    assert len(calls) == (10 if variance == "lower" else 0)


def test_the_kept_factor_is_read_only():
    g = spd(np.random.default_rng(89))
    factor = curvature._require_metric(g)
    assert curvature._require_metric(g) is factor and g._factor is factor
    # Python floats in tuples: nothing in the factor can be written
    assert isinstance(factor.root_det, float)
    for rows in (factor.upper, factor.inverse, (factor.ginv,)):
        assert all(isinstance(row, tuple) and all(isinstance(x, float) for x in row)
                   for row in rows)
    assert np.allclose(unpack(factor.ginv) @ g.matrix, np.eye(3), rtol=0.0, atol=1e-14)
    # the public results stay fresh arrays that belong to the caller
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    mu_lo, mu_up = volume_form(g)
    mu_up[0, 1, 2] = 7.0
    assert np.array_equal(volume_form(g)[1], eps / factor.root_det)
    assert np.array_equal(mu_lo, factor.root_det * eps)
    # the factor is not part of the tensor's value
    assert "_factor" not in repr(g)
    assert SymTensor3(g.components.copy())._factor is None


def test_inconsistent_pair_raises_on_every_call():
    riem = Riemann3.space_form(1.0, IDENTITY)
    other = SymTensor3(np.array([4.0, 0.3, -0.2, 2.0, 1.0, 0.5]))
    for _ in range(3):
        for call in (ricci, einstein_raised, cross_curvature_forms, cross_curvature):
            with pytest.raises(InternalConsistencyError):
                call(riem, other)
    # the consistent pair still passes, and the inconsistent one still raises after it
    assert np.array_equal(einstein_raised(riem, IDENTITY).matrix, np.eye(3))
    for call in (ricci, einstein_raised):
        with pytest.raises(InternalConsistencyError):
            call(riem, other)


def test_ricci_refuses_an_overflowing_trace_form(monkeypatch):
    # R is finite here; the trace form of P that checks the pair is not
    monkeypatch.setattr(curvature, "_p_trace", lambda *args: [math.inf] * 6)
    riem = Riemann3.from_frame(1.0, 2.0, 3.0)
    for _ in range(2):  # a failed pass is not kept
        with pytest.raises(DomainError, match="curvature values overflow"):
            ricci(riem, IDENTITY)


class TestEigenFrame:
    def test_diagonal_case(self):
        p = SymTensor3(np.array([1.0, 0, 0, 2.0, 3.0, 0]), "upper")
        frame, vecs = eigen_frame(p, IDENTITY)
        assert (frame.a, frame.b, frame.c) == (1.0, 2.0, 3.0)
        assert np.allclose(np.abs(vecs), np.eye(3))

    def test_scaled_sphere_eigenvalues(self):
        c = 4.0
        g = SymTensor3(c * IDENTITY.components)
        riem = Riemann3.space_form(1.0 / c, g)  # curvature of c * round metric
        p = einstein_raised(riem, g)
        frame, _ = eigen_frame(p, g)
        assert np.allclose(frame.as_array(), [1.0 / c] * 3, rtol=1e-12)

    def test_reconstruction_and_g_orthonormality(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = SymTensor3(spd(rng).components, "upper")
            g = spd(rng)
            frame, vecs = eigen_frame(p, g)
            rebuilt = (vecs * frame.as_array()) @ vecs.T
            assert np.abs(rebuilt - p.matrix).max() < 1e-10 * max(1, np.abs(p.matrix).max())
            assert np.abs(vecs.T @ g.matrix @ vecs - np.eye(3)).max() < 1e-12
            assert frame.a <= frame.b <= frame.c


class TestGeneralizedEigh:
    # scipy.linalg.eigvalsh(a, b) is the independent oracle here
    # cond None draws g as `spd` does (condition number below 100); 1e2 and
    # 1e4 draw g = s Q diag(1, c^u, c) Q^T with that condition number c
    @pytest.mark.parametrize("variance, cond", [
        pytest.param("lower", None, id="lower"), pytest.param("upper", None, id="upper"),
        ("lower", 1e2), ("upper", 1e2), ("lower", 1e4), ("upper", 1e4)])
    def test_matches_scipy_and_vectors_are_g_orthonormal(self, variance, cond):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = rng.uniform(-3.0, 3.0, (3, 3))
            t = SymTensor3.from_matrix(m + m.T, variance)
            scale_g = float(rng.uniform(0.2, 3.0))
            if cond is None:
                g = spd(rng, scale=scale_g)
            else:
                q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
                lam = scale_g * np.array([1.0, cond ** rng.uniform(0.0, 1.0), cond])
                g = SymTensor3.from_matrix((q * lam) @ q.T)
            gm = g.matrix
            # rounding in the Cholesky frame grows with cond(g); every
            # tolerance holds as it is up to cond(g) = 100 and grows with it beyond
            k = max(1.0, np.linalg.cond(gm) / 100.0)
            vals, vecs = generalized_eigh(t, g)
            scale = max(1.0, np.abs(vals).max())
            assert np.abs(vals - gen_eigs(t, g)).max() < 1e-12 * k * scale
            assert np.all(np.diff(vals) >= 0.0)
            assert np.abs(vecs.T @ gm @ vecs - np.eye(3)).max() < 1e-12 * k
            if variance == "lower":
                # t v = lam g v, and t = g V diag(lam) V^T g
                assert np.abs(t.matrix @ vecs - gm @ vecs * vals).max() < 1e-11 * k * scale
                rebuilt = gm @ (vecs * vals) @ vecs.T @ gm
            else:
                # t g v = lam v, and t = V diag(lam) V^T
                assert np.abs(t.matrix @ gm @ vecs - vecs * vals).max() < 1e-11 * k * scale
                rebuilt = (vecs * vals) @ vecs.T
            assert np.abs(rebuilt - t.matrix).max() < 1e-11 * k * max(1.0, np.abs(t.matrix).max())

    def test_rejects_indefinite_metric(self):
        g = SymTensor3(np.array([1.0, 0, 0, -1.0, 1.0, 0]))
        with pytest.raises(DomainError):
            generalized_eigh(IDENTITY, g)

    def test_eigen_frame_keeps_upper_index_check(self):
        with pytest.raises(DomainError):
            eigen_frame(SymTensor3(np.array([1.0, 0, 0, 2.0, 3.0, 0])), IDENTITY)

    @pytest.mark.parametrize("components, metrics, match", [
        pytest.param([math.nan, 0.0, 0.0, 1.0, 1.0, 0.0], (1.0, 1e100),
                     "components must be finite", id="components0-components must be finite"),
        pytest.param([math.inf, 0.0, 0.0, 1.0, 1.0, 0.0], (1.0, 1e100),
                     "components must be finite", id="components1-components must be finite"),
        # finite, but the largest eigenvalue is 2e308 (2e408 in the frame of 1e100 I)
        pytest.param([1e308, 1e308, 0.0, 1e308, 1.0, 0.0], (1.0, 1e100),
                     "eigenvalues overflow", id="components2-eigenvalues overflow"),
        # P and g = 1e100 I are finite, but the frame components L^T P L are 1e350
        pytest.param([1e250, 0.0, 0.0, 1e250, 1e250, 0.0], (1e100,),
                     "eigenvalues overflow", id="components3-eigenvalues overflow"),
    ])
    def test_non_finite_input_or_result_is_named(self, components, metrics, match):
        from xcflow.symbol import parabolicity, to_orthonormal_frame

        solvers = (generalized_eigh, eigen_frame, to_orthonormal_frame,
                   lambda p, g: parabolicity(p, g, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g in (SymTensor3(s * IDENTITY.components) for s in metrics):
                for solve in solvers:
                    # a non-finite P is refused as it is built
                    with pytest.raises(DomainError, match=match):
                        solve(SymTensor3(np.array(components), "upper"), g)

    def test_a_pivot_lost_to_rounding_is_a_domain_error(self):
        # u u^T of rank 2 plus 2^-52 e3 e3^T: the cofactor determinant is
        # 1.1e-16 > 0, but the last Cholesky pivot rounds to <= 0 (numpy's
        # cholesky raises LinAlgError on it, eigvalsh gives -1.3e-16), so
        # every routine refuses it as the metric check does
        from xcflow.symbol import parabolicity

        g = SymTensor3(np.array([0.8125, 1.25, 0.75, 2.0, 1.0 + 2.0**-52, 1.0]))
        assert not g.is_positive_definite()
        calls = (lambda: constant_jet(g),
                 lambda: volume_form(g),
                 lambda: Riemann3.space_form(1.0, g),
                 lambda: ricci(Riemann3.space_form(1.0, IDENTITY), g),
                 lambda: einstein_raised(Riemann3.space_form(1.0, IDENTITY), g),
                 lambda: generalized_eigh(IDENTITY, g),
                 lambda: parabolicity(SymTensor3.identity("upper"), g, 0.0))
        for call in calls:
            with pytest.raises(DomainError, match="metric is not positive definite"):
                call()


def test_space_form_chart_jet_matches_loop_reference():
    # the forward-mode jet against verify's hand-derived formulas, within the
    # bound of its check tensor_core/chart_jet_matches_hand_formulas
    from xcflow.verify import reference_chart_jet

    rng = np.random.default_rng(59)
    cases = [(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0)), rng.uniform(-0.4, 0.4, 3))
             for _ in range(200)]
    cases += [(kappa, np.array(x)) for kappa in (0.8, -1.3)
              for x in ([0.0, -0.0, 0.3], [-0.0, -0.2, 0.0], [0.0, 0.0, 0.0])]
    for kappa, x in cases:
        got, want = space_form_chart_jet(kappa, x), reference_chart_jet(kappa, x)
        pairs = ((got.g.components, want.g.components), (got.dg, want.dg), (got.ddg, want.ddg))
        scale = max(np.abs(b).max() for _, b in pairs)
        assert max(np.abs(a - b).max() for a, b in pairs) <= 1e-15 * scale


CHART_OVERFLOW = "the chart metric or its jet overflows; kappa and point must keep them finite"
STEP_OVERFLOW = "the stencil's divisor 2 fd_step squared overflows; fd_step must keep it finite"


@pytest.mark.parametrize("make, message", [
    (lambda: space_form_chart_jet(1.0, [1e200, 0.0, 0.0]), "metric is not positive definite"),
    (lambda: space_form_chart_jet(1.0, [0.0, -math.inf, 0.0]), "point must be finite"),
    (lambda: space_form_chart_jet(1.0, [math.nan, 0.0, 0.0]), "point must be finite"),
    (lambda: space_form_chart_jet(math.inf, [0.0, 0.0, 0.0]), "kappa must be a finite real number"),
    (lambda: space_form_chart(math.inf), "kappa must be a finite real number"),
    (lambda: space_form_chart(math.nan), "kappa must be a finite real number"),
    (lambda: space_form_chart_jet(-1.0, [1e200, 0.0, 0.0]), "point lies outside the chart"),
    # g = 1.6e-239 is refused by the metric check before any derivative is formed
    (lambda: space_form_chart_jet(1.0, [1e60, 0.0, 0.0]), "metric determinant underflows"),
    (lambda: space_form_chart_jet(1.0, [0.1, 0.2]),
     r"^point must have shape \(3,\), got shape \(2,\)$"),
    (lambda: jet_from_function(space_form_chart(1.0), [1e200, 0.0, 0.0]),
     "metric is not positive definite"),
    (lambda: jet_from_function(space_form_chart(1.0), [math.inf, 0.0, 0.0]),
     "point must be finite"),
    (lambda: jet_from_function(space_form_chart(1.0), [math.nan, 0.0, 0.0]),
     "point must be finite"),
    # u^2, a partial of the jet or the stencil's divisors that leave the float range
    (lambda: space_form_chart_jet(1.0, [1e100, 0.0, 0.0]), CHART_OVERFLOW),  # u^2
    (lambda: space_form_chart_jet(1.0, [1e153, 0.0, 0.0]), CHART_OVERFLOW),
    # |x|^2 overflows, and kappa = 0 times it is nan
    (lambda: space_form_chart_jet(0.0, [1e200, 0.0, 0.0]), CHART_OVERFLOW),
    # u = 2e-10 near the hyperbolic chart's boundary: kappa^2 |x|^2 / u^4 overflows in ddg
    (lambda: space_form_chart_jet(-1e300, [2e-150 * (1 - 1e-10), 0.0, 0.0]), CHART_OVERFLOW),
    (lambda: space_form_chart(1.0)(np.array([1e100, 0.0, 0.0])), CHART_OVERFLOW),
    (lambda: jet_from_function(space_form_chart(1.0), [1e100, 0.0, 0.0]), CHART_OVERFLOW),
    # a sample one step away overflows u^2, and the stencil names it
    (lambda: jet_from_function(space_form_chart(1.0), [0.1, 0.2, 0.3], step=1e154),
     "stencil leaves the metric's domain.*fd_step 1e\\+154.*" + CHART_OVERFLOW),
    (lambda: jet_from_function(space_form_chart(1.0), [0.1, 0.2, 0.3], step=1e160),
     STEP_OVERFLOW),  # h^2
    (lambda: jet_from_function(lambda x: np.eye(3), [0.1, 0.2, 0.3], step=1e154),
     STEP_OVERFLOW),  # 2 h^2
    (lambda: jet_from_function(lambda x: np.eye(3), [0.1, 0.2, 0.3], step=1e154,
                               richardson=True), STEP_OVERFLOW),
], ids=["huge", "inf", "nan", "inf_kappa", "chart_inf_kappa", "chart_nan_kappa", "outside",
        "underflow", "short", "fd_huge", "fd_inf", "fd_nan", "u2_overflows",
        "u2_overflows_edge", "flat_norm_overflows", "ddg_overflows", "chart_overflows",
        "fd_centre_overflows", "fd_sample_overflows", "fd_step_overflows",
        "fd_step_mixed_overflows", "fd_step_richardson_overflows"])
def test_chart_jets_raise_their_named_error_without_numpy_warnings(make, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            make()


def _exact_chart_partials(kappa, x):
    """u^-2 with u = 1 + kappa |x|^2 / 4, then its first and second partials
    in COMPONENT_ORDER, in exact rational arithmetic."""
    kappa, x = Fraction(kappa), [Fraction(v) for v in x]
    u = 1 + kappa * sum(v * v for v in x) / 4
    du = [kappa * v / 2 for v in x]  # and d_k d_l u = kappa / 2 delta_kl
    return ([1 / u**2] + [-2 * d / u**3 for d in du]
            + [6 * du[k] * du[l] / u**4 - (kappa / u**3 if k == l else 0)
               for k, l in curvature.COMPONENT_ORDER])


@pytest.mark.parametrize("kappa, x", [
    (1.0, [1e45, 0.0, 0.0]),   # d_0 g = -6.4e-224; u^4 = 3.9e357 is never formed
    (1.5e308, [0.0, 0.0, 0.0]),   # ddg = -kappa; 3/2 kappa is never formed
    (-1.5e308, [0.0, 0.0, 0.0]),
    (-0.7, [0.3, -1.1, 2e-3]),
], ids=["u4_out_of_range", "kappa_near_the_range", "negative_kappa_near_the_range",
        "interior"])
def test_chart_jets_near_the_float_range_are_exact(kappa, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jet = space_form_chart_jet(kappa, x)
    got = [jet.g.components[0], *jet.dg[:, 0], *jet.ddg[:, 0]]
    for value, exact in zip(got, _exact_chart_partials(kappa, x)):
        assert abs(Fraction(value) - exact) <= Fraction(1e-15) * abs(exact)
    # every partial is delta_ij times its (0, 0) entry
    packed = np.concatenate(([jet.g.components], jet.dg, jet.ddg))
    assert np.array_equal(packed, np.multiply.outer(packed[:, 0], IDENTITY.components))


@pytest.mark.parametrize("richardson", [False, True])
def test_the_step_guard_is_the_largest_divisor(richardson):
    # 2 h^2 = 1.28e308 is finite, so a constant metric differences to zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jet = jet_from_function(lambda x: np.eye(3), [0.1, 0.2, 0.3], step=8e153,
                                richardson=richardson)
    assert not jet.dg.any() and not jet.ddg.any()


@pytest.mark.parametrize("make, message", [
    (lambda: space_form_chart_jet(10**400, [0.1, 0.0, 0.0]), "kappa must be a finite real number"),
    (lambda: space_form_chart_jet("1", [0.1, 0.0, 0.0]), "kappa must be a finite real number"),
    (lambda: space_form_chart(10**400)(np.array([0.1, 0.0, 0.0])),
     "kappa must be a finite real number"),
    (lambda: space_form_chart("1")(np.array([0.1, 0.0, 0.0])),
     "kappa must be a finite real number"),
    (lambda: Riemann3.space_form(10**400, IDENTITY), "kappa must be a finite real number"),
    (lambda: Riemann3.space_form("1", IDENTITY), "kappa must be a finite real number"),
    (lambda: Riemann3.space_form(math.inf, IDENTITY), "kappa must be a finite real number"),
    (lambda: Riemann3.from_frame(10**400, 1, 1), "a must be a finite real number"),
    (lambda: Riemann3.from_frame(1.0, "1", 1.0), "b must be a finite real number"),
    (lambda: Riemann3.from_frame(1.0, 1.0, math.nan), "c must be a finite real number"),
], ids=["chart_jet_huge_int", "chart_jet_str", "chart_huge_int", "chart_str",
        "space_form_huge_int", "space_form_str", "space_form_inf", "frame_huge_int",
        "frame_str", "frame_nan"])
def test_curvature_scalars_that_are_not_floats_are_named(make, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            make()


def test_curvature_scalars_read_ints_and_numpy_floats_as_floats():
    x = np.array([0.1, -0.2, 0.3])
    assert (space_form_chart_jet(-1, x).ddg.tobytes()
            == space_form_chart_jet(np.float64(-1.0), x).ddg.tobytes()
            == space_form_chart_jet(-1.0, x).ddg.tobytes())
    assert space_form_chart(2)(x).tobytes() == space_form_chart(2.0)(x).tobytes()
    assert np.array_equal(Riemann3.from_frame(1, 2, 3).lowered,
                          Riemann3.from_frame(1.0, 2.0, 3.0).lowered)
    assert np.array_equal(Riemann3.space_form(np.int64(2), IDENTITY).lowered,
                          Riemann3.space_form(2.0, IDENTITY).lowered)


def test_chart_jet_keeps_the_largest_kappa_whose_products_are_finite():
    kappa = 1.1984620899082103e308  # the largest kappa with 1.5 kappa finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jet = space_form_chart_jet(kappa, [0.0, 0.0, 0.0])
    assert jet.g.components.tolist() == [1.0, 0.0, 0.0, 1.0, 1.0, 0.0]
    assert np.isfinite(jet.ddg).all() and jet.ddg[0, 0] == -kappa


def loop_jet_reference(g_fn, x, step=1e-3, richardson=False):
    """jet_from_function written out as a loop over the stencil, one sample
    at a time and each checked as it comes: the reference the stacked
    differences must match bit for bit, errors included."""
    def _sample(point):
        try:
            value = np.asarray(g_fn(point), dtype=float)
            if not np.all(np.isfinite(value)):
                raise DomainError("metric callback returned non-finite samples")
        except DomainError as exc:
            if point is x:
                raise
            where = ",".join(f"{v:.12g}" for v in point)
            raise DomainError(f"the finite-difference stencil leaves the metric's domain: "
                              f"its sample at {where} (fd_step {step:g}) fails with "
                              f"'{exc}'; the point itself is inside") from exc
        return value

    def _differences(h):
        e = np.eye(3)
        g0 = _sample(x)
        dg = np.empty((3, 3, 3))
        ddg = np.empty((3, 3, 3, 3))
        second = []  # g(x + h e_k) - 2 g(x) + g(x - h e_k)
        for k in range(3):
            gp = _sample(x + h * e[k])
            gm_ = _sample(x - h * e[k])
            dg[k] = (gp - gm_) / (2.0 * h)
            second.append(gp - 2.0 * g0 + gm_)
            ddg[k, k] = second[k] / h**2
        for k in range(3):
            for l in range(k + 1, 3):
                diagonal = (_sample(x + h * e[k] + h * e[l]) - 2.0 * g0
                            + _sample(x - h * e[k] - h * e[l]))
                mixed = (diagonal - second[k] - second[l]) / (2.0 * h**2)
                ddg[k, l] = mixed
                ddg[l, k] = mixed
        return dg, ddg

    x = np.asarray(x, dtype=float)
    dg, ddg = _differences(step)
    if richardson:
        dg_half, ddg_half = _differences(step / 2.0)
        dg = (4.0 * dg_half - dg) / 3.0
        ddg = (4.0 * ddg_half - ddg) / 3.0
    return MetricJet.from_full(_sample(x), dg, ddg)


def _sign_reading_chart(kappa):
    """The space-form chart, perturbed by the sign bits of the point's
    coordinates, so a sample at -0.0 differs from one at +0.0."""
    chart = space_form_chart(kappa)

    def g_fn(x):
        return chart(x) * (1.0 + 1e-3 * np.signbit(x).sum()) + 1e-4 * np.diag(np.copysign(1.0, x))

    return g_fn


class TestJetFromFunction:
    def test_matches_loop_reference_bit_for_bit(self):
        rng = np.random.default_rng(71)
        signed_zero_points = 0
        for trial in range(600):
            kappa = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0))
            x = rng.uniform(-0.5, 0.5, 3)
            if trial % 3 == 0:  # some coordinates +-0.0, sometimes all three
                zeros = rng.random(3) < (1.0 if trial % 2 else 0.4)
                x[zeros] = rng.choice([0.0, -0.0], zeros.sum())
                signed_zero_points += bool(np.signbit(x[zeros]).any())
            step = float(10.0 ** rng.uniform(-5, -1)) if trial % 4 else 2.0 ** -int(rng.integers(3, 20))
            g_fn = _sign_reading_chart(kappa) if trial % 2 else space_form_chart(kappa)
            for richardson in (False, True):
                got = jet_from_function(g_fn, x, step=step, richardson=richardson)
                want = loop_jet_reference(g_fn, x, step=step, richardson=richardson)
                for a, b in ((got.g.components, want.g.components), (got.dg, want.dg),
                             (got.ddg, want.ddg)):
                    assert a.tobytes() == b.tobytes(), (kappa, x, step, richardson)
        assert signed_zero_points > 50

    def test_signed_zero_samples_reach_the_callback(self):
        # x - h e_k keeps a -0.0 coordinate and x + h e_k makes it +0.0: the
        # sign-reading chart sees both, so its jet differs from the chart's
        x = np.array([0.1, -0.0, 0.2])
        plain = jet_from_function(space_form_chart(0.5), x)
        signed = jet_from_function(_sign_reading_chart(0.5), x)
        assert not np.array_equal(plain.dg, signed.dg)
        assert signed.dg.tobytes() == loop_jet_reference(_sign_reading_chart(0.5), x).dg.tobytes()

    @pytest.mark.parametrize("richardson, calls", [(False, 13), (True, 25)])
    def test_one_sample_per_stencil_point(self, richardson, calls):
        points = []
        chart = space_form_chart(1.0)

        def g_fn(x):
            points.append(x.copy())
            return chart(x)

        x = np.array([0.1, -0.2, 0.3])
        jet_from_function(g_fn, x, richardson=richardson)
        assert len(points) == calls
        assert np.array_equal(points[0], x)
        # no stencil point is sampled twice
        assert len({p.tobytes() for p in points}) == calls

    def test_a_field_that_is_not_conformally_flat(self):
        # g = I + 0.15 sin(A x + B), A symmetric in its first two indices: its
        # mixed second derivatives are nonzero and differ from one another,
        # where the space-form chart's R is set by the pure ones
        rng = np.random.default_rng(3)
        a = rng.uniform(-1.0, 1.0, (3, 3, 3))
        a = 0.5 * (a + a.transpose(1, 0, 2))
        b = rng.uniform(-np.pi, np.pi, (3, 3))
        b = 0.5 * (b + b.T)
        x = rng.uniform(-0.5, 0.5, 3)
        theta, a_k = a @ x + b, a.transpose(2, 0, 1)  # a_k[k, i, j] = A_ijk
        exact = MetricJet.from_full(np.eye(3) + 0.15 * np.sin(theta),
                                    0.15 * np.cos(theta) * a_k,
                                    -0.15 * np.sin(theta) * a_k[:, None] * a_k[None])
        mixed = exact.ddg[[1, 2, 5]]
        assert np.abs(mixed).min() > 1e-4 and len(set(mixed.ravel().tolist())) == 18

        def g_fn(point):
            return np.eye(3) + 0.15 * np.sin(a @ point + b)

        errors = [jet_from_function(g_fn, x, step=step).ddg - exact.ddg for step in (1e-3, 5e-4)]
        for rows in (slice(None), [1, 2, 5]):  # all of ddg, then its mixed rows
            ratio = np.abs(errors[0][rows]).max() / np.abs(errors[1][rows]).max()
            assert 2.0 <= ratio <= 8.0
        # Richardson cancels the h^2 term: what is left at h = 1e-3 is rounding,
        # 5.3e-9 relative here with the seven-point mixed stencil, 5.5e-9 with
        # the four corners
        scalar = ricci(riemann(exact), exact.g)[1]
        jet = jet_from_function(g_fn, x, step=1e-3, richardson=True)
        assert abs(ricci(riemann(jet), jet.g)[1] - scalar) < 1e-8 * abs(scalar)

    def test_non_finite_stencil_sample_is_named_with_the_step(self):
        def g_fn(x):
            return np.eye(3) * (math.nan if x[1] < 0.0 else 1.0)

        with pytest.raises(DomainError, match=r"stencil leaves the metric's domain: its sample "
                           r"at 0,-0\.002,0 \(fd_step 0\.002\) fails with 'metric callback "
                           r"returned non-finite samples'"):
            jet_from_function(g_fn, np.zeros(3), step=2e-3)

    def test_non_finite_centre_is_not_named(self):
        def g_fn(x):
            return np.eye(3) * (math.nan if not x.any() else 1.0)

        with pytest.raises(DomainError, match="^metric callback returned non-finite samples$"):
            jet_from_function(g_fn, np.zeros(3), richardson=True)

    @pytest.mark.parametrize("first, then, named", [
        ("nan", "raise", "metric callback returned non-finite samples"),
        ("raise", "nan", "outside"),
    ])
    def test_first_failing_sample_is_the_one_named(self, first, then, named):
        # +e_0 is sampled before -e_0; whichever fails first is named, as a
        # loop that checks every sample as it comes names it
        def g_fn(x):
            how = first if x[0] > 0.0 else then if x[0] < 0.0 else None
            if how == "raise":
                raise DomainError("outside")
            return np.eye(3) * (math.nan if how == "nan" else 1.0)

        message = (r"its sample at 0\.001,0,0 \(fd_step 0\.001\) fails with '" + named + "'")
        for fn in (jet_from_function, loop_jet_reference):
            with pytest.raises(DomainError, match=message):
                fn(g_fn, np.zeros(3))

    def test_wrong_shape_callback_names_the_shape(self):
        with pytest.raises(DomainError, match=r"^metric callback returned shape \(2, 2\), "
                           r"not \(3, 3\)$"):
            jet_from_function(lambda x: np.eye(2), np.zeros(3))
        # a stencil sample of another shape is named like a non-finite one
        with pytest.raises(DomainError, match=r"its sample at 0,0\.001,0 \(fd_step 0\.001\) "
                           r"fails with 'metric callback returned shape \(2, 2\)"):
            jet_from_function(lambda x: np.eye(2) if x[1] > 0.0 else np.eye(3), np.zeros(3))

    def test_constant_metric_exact_zero(self):
        g = np.diag([2.0, 1.0, 3.0])
        jet = jet_from_function(lambda x: g, np.zeros(3), step=1e-3)
        assert np.abs(jet.dg).max() == 0.0
        assert np.abs(jet.ddg).max() == 0.0

    def test_quadratic_metric_exact_derivatives(self):
        # central differences are exact on quadratics, up to rounding
        def g_fn(x):
            return np.eye(3) * (1.0 + 0.1 * x[0] + 0.05 * x[1] ** 2) + 0.02 * np.outer(x, x)

        jet = jet_from_function(g_fn, np.array([0.3, -0.2, 0.1]), step=1e-2)
        analytic = 0.1 * np.eye(3)
        analytic = analytic + 0.02 * (np.outer(np.eye(3)[0], [0.3, -0.2, 0.1])
                                      + np.outer([0.3, -0.2, 0.1], np.eye(3)[0]))
        assert np.abs(jet.dg_full[0] - analytic).max() < 1e-12

    def test_chart_jet_reproduces_curvature(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(-0.5, 0.5, 3)
        jet = jet_from_function(space_form_chart(1.0), x, step=1e-3)
        _, scalar = ricci(riemann(jet), jet.g)
        assert abs(scalar - 6.0) < 1e-5

    @pytest.mark.parametrize("kappa, x, richardson, tol", [
        (1.0, [0.1, 0.2, 0.3], False, 1e-5),
        (-0.5, [0.3, -0.2, 0.1], True, 1e-7),
    ], ids=["sphere", "hyperbolic_richardson"])
    def test_chart_jet_curvature_within_its_bound(self, kappa, x, richardson, tol):
        # the h^2 error at the default step 1e-3, and the rounding left by Richardson
        jet = jet_from_function(space_form_chart(kappa), x, richardson=richardson)
        assert abs(ricci(riemann(jet), jet.g)[1] - 6.0 * kappa) < tol

    def test_richardson_refinement_improves(self):
        x = np.array([0.4, -0.3, 0.2])
        plain = jet_from_function(space_form_chart(1.0), x, step=1e-3)
        refined = jet_from_function(space_form_chart(1.0), x, step=1e-3, richardson=True)
        _, s_plain = ricci(riemann(plain), plain.g)
        _, s_refined = ricci(riemann(refined), refined.g)
        assert abs(s_refined - 6.0) < abs(s_plain - 6.0) / 10.0

    def test_non_finite_samples_raise(self):
        def g_fn(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.eye(3) / x[0]  # singular across the stencil at x = 0

        with pytest.raises(DomainError):
            jet_from_function(g_fn, np.zeros(3), step=1e-3)

    def test_stencil_outside_the_domain_is_named(self):
        # the point lies inside the hyperbolic chart |x| < 2; x + step e1 does not
        with pytest.raises(DomainError, match=r"stencil leaves the metric's domain: its "
                           r"sample at 2\.0009999,0,0 \(fd_step 0\.001\)"):
            jet_from_function(space_form_chart(-1.0), np.array([1.9999999, 0.0, 0.0]))
        with pytest.raises(DomainError, match="^point lies outside the chart domain$"):
            jet_from_function(space_form_chart(-1.0), np.array([2.1, 0.0, 0.0]))

    @pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -1e-3])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(DomainError,
                           match="finite-difference step must be finite and positive"):
            jet_from_function(space_form_chart(1.0), np.zeros(3), step=step)

    @pytest.mark.parametrize("step", [True, np.True_, "0.001", 10**400, None],
                             ids=["bool", "numpy_bool", "str", "huge_int", "none"])
    def test_step_must_be_a_real_number(self, step):
        # True used to run with h = 1, "0.001" to raise TypeError and 10**400
        # a bare OverflowError
        with pytest.raises(DomainError, match="finite-difference step must be a real number"):
            jet_from_function(space_form_chart(1.0), np.zeros(3), step=step)

    @pytest.mark.parametrize("richardson", [False, True])
    def test_numpy_float_step_differences_in_float64(self, richardson):
        # a float32 step used to take its divisors in float32 (ddg off by 1.5e-8)
        g_fn, x = space_form_chart(1.0), np.array([0.1, 0.2, 0.3])
        got = jet_from_function(g_fn, x, step=np.float32(1e-3), richardson=richardson)
        want = jet_from_function(g_fn, x, step=float(np.float32(1e-3)), richardson=richardson)
        assert got.dg.tobytes() == want.dg.tobytes()
        assert got.ddg.tobytes() == want.ddg.tobytes()
        assert got.dg.dtype == got.ddg.dtype == np.float64

    @pytest.mark.parametrize("richardson", ["no", "", 0, 1, None])
    def test_richardson_must_be_a_bool(self, richardson):
        # "no" used to refine
        with pytest.raises(DomainError, match="richardson must be a bool"):
            jet_from_function(space_form_chart(1.0), np.zeros(3), richardson=richardson)

    def test_numpy_bool_richardson_refines(self):
        x = np.array([0.1, 0.2, 0.3])
        got = jet_from_function(space_form_chart(1.0), x, richardson=np.True_)
        want = jet_from_function(space_form_chart(1.0), x, richardson=True)
        assert got.ddg.tobytes() == want.ddg.tobytes()

    def test_ddg_pair_symmetry_is_structural(self):
        jet = jet_from_function(space_form_chart(-1.0), np.array([0.1, 0.5, -0.4]))
        full = jet.ddg_full
        assert np.array_equal(full, full.transpose(1, 0, 2, 3))


@given(st.integers(0, 2), st.integers(0, 2), st.floats(0.2, 5.0))
@settings(max_examples=60, deadline=None)
def test_mu_raising_consistency(i, j, scale):
    g = SymTensor3(scale * IDENTITY.components)
    mu_lo, mu_up = volume_form(g)
    ginv = np.linalg.inv(g.matrix)
    raised = np.einsum("ip,jq,kr,pqr->ijk", ginv, ginv, ginv, mu_lo)
    assert np.abs(raised - mu_up).max() < 1e-12


def test_christoffel_raises_the_lowered_symbols_of_riemann():
    # one route to Gamma: the gathered Gamma_{m,ab} raised by the kept g^-1,
    # against verify's exact connection (adj(g) / det g over the full
    # bracket, in Fractions), rounded once to floats
    from xcflow.verify import _exact_connection

    rng = np.random.default_rng(97)
    worst = 0.0
    for _ in range(300):
        jet = _generic_jet(rng)
        got = christoffel(jet)
        want = np.array(_exact_connection(jet)[-1], dtype=float)
        worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
        assert np.array_equal(got, got.transpose(0, 2, 1))
    assert worst <= 1e-14


def test_symmetric_parts_pack_by_midpoint():
    # pack(0.5 * (m + m^T)) bit for bit wherever numpy's is finite, and
    # finite where the sum of an off-diagonal pair overflows
    rng = np.random.default_rng(101)
    overflowed = 0
    for _ in range(400):
        m = rng.uniform(-1.8, 1.8, (3, 3)) * 10.0 ** rng.integers(-300, 309)
        with np.errstate(over="ignore"):
            want = (0.5 * (m + m.T))[[0, 0, 0, 1, 2, 1], [0, 1, 2, 1, 2, 2]]
        got = np.array(curvature._packed_symmetric_part(m.ravel().tolist()))
        finite = np.isfinite(want)
        overflowed += not finite.all()
        assert got[finite].tobytes() == want[finite].tobytes()
        assert np.isfinite(got).all()
    assert overflowed > 0
    assert curvature._packed_symmetric_part([1.5e308] * 9) == [1.5e308] * 6


@pytest.mark.parametrize("make, message", [
    (lambda: SymTensor3(np.zeros(5)), r"^components must have shape \(6,\), got shape \(5,\)$"),
    (lambda: SymTensor3(np.zeros((2, 3))),
     r"^components must have shape \(6,\), got shape \(2, 3\)$"),
    (lambda: SymTensor3(np.zeros(6), "middle"), "variance must be 'lower' or 'upper'"),
    # an array variance used to end in numpy's "truth value ... is ambiguous"
    (lambda: SymTensor3(np.zeros(6), np.zeros(2)), "variance must be 'lower' or 'upper'"),
    (lambda: SymTensor3.from_matrix(np.eye(2)),
     r"^matrix must have shape \(3, 3\), got shape \(2, 2\)$"),
    (lambda: SymTensor3.from_matrix(np.eye(3), "middle"), "variance must be 'lower' or 'upper'"),
    (lambda: SymTensor3(np.array([1.0, 0.0, 0.0, 1.0, -math.inf, 0.0])),
     "^components must be finite$"),
    (lambda: MetricJet(IDENTITY, np.zeros((6, 3)), np.zeros((6, 6))),
     r"^dg must have shape \(3, 6\), got shape \(6, 3\)$"),
    (lambda: MetricJet(IDENTITY, np.zeros((3, 6)), np.zeros((3, 6))),
     r"^ddg must have shape \(6, 6\), got shape \(3, 6\)$"),
    (lambda: Riemann3.from_lowered(np.zeros((3, 3, 9)), IDENTITY),
     r"^lowered must have shape \(3, 3, 3, 3\), got shape \(3, 3, 9\)$"),
    # a point of the wrong shape used to end in numpy's broadcast ValueError
    (lambda: jet_from_function(space_form_chart(1.0), [1, 2]),
     r"^point must have shape \(3,\), got shape \(2,\)$"),
    (lambda: jet_from_function(space_form_chart(1.0), np.zeros((1, 3))),
     r"^point must have shape \(3,\), got shape \(1, 3\)$"),
], ids=["short_components", "matrix_components", "unknown_variance", "array_variance",
        "from_matrix_shape", "from_matrix_variance", "non_finite_components", "dg_shape",
        "ddg_shape", "lowered_shape", "fd_point_short", "fd_point_row"])
def test_malformed_inputs_raise_their_named_error(make, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            make()


OVERFLOW = "curvature values overflow; the input must keep them finite"


def _infinite_frame() -> np.ndarray:
    """The unit frame's R_ijkl with every nonzero entry made +-inf."""
    r = Riemann3.from_frame(1.0, 1.0, 1.0).lowered.copy()
    r[r != 0.0] = np.copysign(math.inf, r[r != 0.0])
    return r


@pytest.mark.parametrize("make, message", [
    # P = R / det g is 7e307 and checks (test below), but h is about 5e585
    (lambda: cross_curvature_forms(
        Riemann3.space_form(7e297, SymTensor3(1e-10 * IDENTITY.components)),
        SymTensor3(1e-10 * IDENTITY.components)), OVERFLOW),
    (lambda: Riemann3.space_form(1e300, SymTensor3(1e-10 * IDENTITY.components)), OVERFLOW),
    # P is the frame itself; Ric_22 = a + c is 2e308
    (lambda: ricci(Riemann3.from_frame(1e308, -1e308, 1e308), IDENTITY), OVERFLOW),
    (lambda: Riemann3.from_lowered(np.full((3, 3, 3, 3), np.nan), IDENTITY),
     "^lowered must be finite$"),
    (lambda: Riemann3.from_lowered(_infinite_frame(), IDENTITY), "^lowered must be finite$"),
    # R itself overflows: Gamma^T g^-1 Gamma, the sums of ddg, or g_ik g_jl
    (lambda: riemann(MetricJet(IDENTITY, np.full((3, 6), 1e160), np.zeros((6, 6)))), OVERFLOW),
    (lambda: riemann(MetricJet(SymTensor3(1e-100 * IDENTITY.components),
                               1e110 * np.random.default_rng(7).uniform(-1, 1, (3, 6)),
                               np.zeros((6, 6)))), OVERFLOW),
    (lambda: riemann(MetricJet(IDENTITY, np.zeros((3, 6)), np.full((6, 6), 1e308))), OVERFLOW),
    (lambda: Riemann3.space_form(1.0, SymTensor3(1e160 * IDENTITY.components)), OVERFLOW),
    (lambda: Riemann3.space_form(1e-300, SymTensor3(1e155 * IDENTITY.components)), OVERFLOW),
], ids=["space_form_near_the_edge", "space_form", "frame", "nan", "inf", "riemann_quadratic",
        "riemann_quadratic_small_metric", "riemann_second", "space_form_outer",
        "space_form_outer_small_kappa"])
def test_bivector_form_overflow_is_named_without_numpy_warnings(make, message):
    # the finite input used to warn "overflow encountered in matmul" (or "in
    # multiply", "in add"), then raise that the entries must be finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            make()


def test_a_trace_form_that_overflows_on_the_way_is_formed_on_halves():
    # (R/2) g^ij is 2.1e308 before Ric^ij is subtracted; on Ric / 2 and R / 2,
    # doubled, the trace form is 7e307 and checks P
    g = SymTensor3(1e-10 * IDENTITY.components)
    riem = Riemann3.space_form(7e297, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ric, scalar = ricci(riem, g)
        p = einstein_raised(riem, g)
    assert ric.values == (1.3999999999999996e288, 0.0, 0.0, 1.3999999999999996e288,
                          1.3999999999999996e288, 0.0)
    assert scalar == 4.199999999999998e298
    assert p.values == (6.999999999999997e307, 0.0, 0.0, 6.999999999999997e307,
                        6.999999999999997e307, 0.0)


def test_riemann_near_the_float_range_is_kept():
    # R is quadratic in dg at g = I, ddg = 0: dg scaled by 2^510 gives R
    # scaled by 2^1020 (~1e307) exactly, with no warning; a non-finite jet
    # is refused when it is built
    dg = np.random.default_rng(7).uniform(-1, 1, (3, 6))
    base = riemann(MetricJet(IDENTITY, dg, np.zeros((6, 6)))).lowered
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = riemann(MetricJet(IDENTITY, 2.0 ** 510 * dg, np.zeros((6, 6)))).lowered
        assert got.tobytes() == (2.0 ** 1020 * base).tobytes()
        assert np.abs(got).max() > 1e306
        with pytest.raises(DomainError, match="^ddg must be finite$"):
            riemann(MetricJet(IDENTITY, np.zeros((3, 6)), np.full((6, 6), np.inf)))


@pytest.mark.parametrize("dg, message", [
    (np.full((3, 6), np.inf), "^dg must be finite$"),
    (np.full((3, 6), np.nan), "^dg must be finite$"),
    # finite, but d_a g_bm + d_b g_am overflows: Gamma used to come out all nan
    (np.full((3, 6), 1e308), OVERFLOW),
], ids=["inf", "nan", "overflow"])
def test_christoffel_of_a_jet_that_overflows_is_named(dg, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            christoffel(MetricJet(IDENTITY, dg, np.zeros((6, 6))))


def test_bivector_form_near_the_float_range_is_kept():
    # P = kappa g^-1 is R_(ij)(kl) / det g, divided by sqrt(det g) twice: near
    # the top of the float range it is kept, with no warning
    g = SymTensor3(1e-10 * IDENTITY.components)
    for kappa in (3e297, 7e297):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            riem = Riemann3.space_form(kappa, g)
        p = 1e10 * kappa
        assert riem.bivector_form.values == pytest.approx((p, 0.0, 0.0, p, p, 0.0), rel=1e-15)


def test_a_metric_whose_volume_form_overflows_is_refused():
    # sqrt(det g) = 1e-309 is a positive float, but mu^ijk = eps_ijk / sqrt(det g)
    # overflowed with numpy's warning
    g = SymTensor3(1e-206 * IDENTITY.components)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="metric determinant underflows"):
            volume_form(g)
    assert g._factor is None


def _pipeline_inputs(rng, count):
    """Builders of (Riemann3, metric) pairs at magnitudes 1 to 1e308: rotated
    and plain frames, space forms and random jets on metrics of scale 1e-150
    to 1e150, and chart jets at kappa and points of every size."""
    from xcflow.verify import _random_rotation

    def metric():
        m = rng.uniform(-1.0, 1.0, (3, 3))
        return SymTensor3.from_matrix(10.0 ** rng.uniform(-150, 150) * (m @ m.T + 0.5 * np.eye(3)))

    def jet_pair(jet):
        return riemann(jet), jet.g

    for n in range(count):
        size = 1e308 if n % 25 == 0 else 10.0 ** rng.uniform(0.0, 308.0)
        kind = n % 4
        if kind == 0:
            abc = rng.uniform(-1.0, 1.0, 3) * size
            rotation = _random_rotation(rng) if n % 8 == 0 else None
            yield lambda: (Riemann3.from_frame(*abc, rotation=rotation), IDENTITY)
        elif kind == 1:
            kappa, g = float(rng.uniform(-1.0, 1.0) * size), metric()
            yield lambda: (Riemann3.space_form(kappa, g), g)
        elif kind == 2:
            g, dg, ddg = metric(), rng.uniform(-1.0, 1.0, (3, 6)) * size, \
                rng.uniform(-1.0, 1.0, (6, 6)) * size
            yield lambda: jet_pair(MetricJet(g, dg, ddg))
        else:
            kappa = float(rng.uniform(-1.0, 1.0) * size)
            x = rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(-160.0, 160.0)
            yield lambda: jet_pair(space_form_chart_jet(kappa, x))


def test_every_public_call_names_its_own_overflow_under_warnings_as_errors():
    # the whole curvature pipeline, each call returning or raising a named
    # XcflowError, never a numpy warning: cross_curvature_forms' h_mu route
    # used to warn "overflow encountered in matmul" before its DomainError
    from xcflow.errors import XcflowError

    outcomes = {"returned": 0, "named": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in _pipeline_inputs(np.random.default_rng(83), 600):
            try:
                riem, g = build()
                ricci(riem, g)
                p = einstein_raised(riem, g)
                h = cross_curvature_forms(riem, g).contraction_form
                eigen_frame(p, g)
                generalized_eigh(h, g)
                outcomes["returned"] += 1
            except XcflowError:
                outcomes["named"] += 1
    # both outcomes occur, so the sweep reaches past the float range and inside it
    assert min(outcomes.values()) > 50, outcomes
