import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import special_ortho_group

from xcflow import curvature
from xcflow import symbol as symbol_module
from xcflow.curvature import (MetricJet, Riemann3, SymTensor3, eigen_frame, einstein_raised,
                              generalized_eigh, pack, riemann, space_form_chart_jet, unpack)
from xcflow.errors import DomainError, InternalConsistencyError
from xcflow.symbol import (
    IMAG_RESIDUE_TOL,
    MAX_DIRECTION_SAMPLES,
    STRICTNESS_FLOOR,
    ParabolicityReport,
    SymbolMatrix,
    case_sign,
    parabolicity,
    quotient_blocks,
    spectrum,
    stated_threshold,
    symbol_modified,
    symbol_raw,
    symbol_stacks,
    to_orthonormal_frame,
    unit_directions,
)
from xcflow.verify import _random_rotation, engine_symbol, matrix_of

E1 = np.array([1.0, 0.0, 0.0])
IDENTITY = SymTensor3.identity()
P_IDENTITY = SymTensor3.identity("upper")
ZERO_P = SymTensor3(np.zeros(6), "upper")


def sym_upper(rng, span=5.0):
    m = rng.uniform(-span, span, (3, 3))
    return SymTensor3.from_matrix(0.5 * (m + m.T), "upper")


def haar_rotation(rng) -> np.ndarray:
    """Haar rotation: QR of a Gaussian matrix, signs fixed by diag(R), det +1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def gauge_term(xi) -> np.ndarray:
    """The gauge term's 6x6 matrix at xi, from the stack kernel."""
    return symbol_stacks(ZERO_P, 0.0, np.asarray(xi, dtype=float)[None])[1][0]


def displayed_raw_matrix(pm: np.ndarray, rho: float) -> np.ndarray:
    """The 6x6 raw-symbol matrix at xi = e1, written out entry by entry."""
    m = np.zeros((6, 6))
    m[0, 3:] = [pm[1, 1] - 2 * rho, pm[2, 2] - 2 * rho, 2 * pm[1, 2]]
    m[1, 3], m[1, 5] = -pm[0, 1], -pm[0, 2]
    m[2, 4], m[2, 5] = -pm[0, 2], -pm[0, 1]
    m[3, 3], m[3, 4] = pm[0, 0] - 2 * rho, -2 * rho
    m[4, 3], m[4, 4] = -2 * rho, pm[0, 0] - 2 * rho
    m[5, 5] = pm[0, 0]
    return m


class TestRawSymbol:
    def test_matches_displayed_matrix_at_e1(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p = sym_upper(rng)
            rho = float(rng.uniform(-2, 2))
            got = symbol_raw(p, rho, E1).entries
            assert np.array_equal(got, displayed_raw_matrix(p.matrix, rho))

    def test_first_three_columns_vanish_at_e1(self):
        rng = np.random.default_rng(4)
        m = symbol_raw(sym_upper(rng), 0.9, E1).entries
        assert np.abs(m[:, :3]).max() == 0.0

    def test_identity_p_spectrum(self):
        assert np.allclose(spectrum(symbol_raw(P_IDENTITY, 0.0, E1)),
                           [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])

    def test_spectrum_formula_substituted(self):
        p = SymTensor3(np.array([7.0, 0, 0, 1.0, 1.0, 0]), "upper")
        assert np.allclose(spectrum(symbol_raw(p, 1.0, E1)), [0, 0, 0, 3, 7, 7])
        assert np.allclose(spectrum(symbol_modified(p, 1.0, E1)), [1, 1, 1, 3, 7, 7])

    def test_zero_covector_rejected(self):
        with pytest.raises(DomainError):
            symbol_raw(P_IDENTITY, 0.0, np.zeros(3))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_normalization_is_scale_free(self, scale):
        # the norm of scale * xi over- or underflows; the largest component does not
        p = SymTensor3(np.array([1.0, 0.0, 0.0, 2.0, 3.0, 0.0]), "upper")
        want = symbol_raw(p, 0.1, [1.0, 1.0, 0.0]).entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = symbol_raw(p, 0.1, [scale, scale, 0.0]).entries
        assert np.array_equal(got, want)

    def test_vectorized_action_matches_tensor_action(self):
        rng = np.random.default_rng(6)
        p = sym_upper(rng)
        rho = -0.4
        xi = rng.normal(size=3)
        sym = symbol_raw(p, rho, xi)
        v = xi / np.linalg.norm(xi)
        pm = p.matrix
        for _ in range(10):
            m = rng.uniform(-1, 1, (3, 3))
            m = 0.5 * (m + m.T)
            mpv = m @ pm @ v
            tensor_action = (
                float(v @ pm @ v) * m
                - np.outer(v, mpv) - np.outer(mpv, v)
                + float(np.trace(pm @ m)) * np.outer(v, v)
                + 2.0 * rho * (float(v @ m @ v) - np.trace(m)) * np.eye(3)
            )
            assert np.abs(sym.apply(m) - tensor_action).max() < 1e-14

    @given(st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
    @settings(max_examples=20, deadline=None)
    def test_quadratic_homogeneity_exact_for_pow2_scales(self, s):
        rng = np.random.default_rng(8)
        p = sym_upper(rng)
        xi = rng.normal(size=3)
        for base, scaled in zip(symbol_stacks(p, 0.3, xi[None]),
                                symbol_stacks(p, 0.3, s * xi[None])):
            assert np.array_equal(scaled, s * s * base)

    def test_rho_zero_has_no_trace_coupling(self):
        rng = np.random.default_rng(10)
        p = sym_upper(rng)
        xi = rng.normal(size=3)
        full = symbol_raw(p, 1.3, xi).entries
        p_part = symbol_raw(p, 0.0, xi).entries
        rho_part = symbol_raw(ZERO_P, 1.3, xi).entries
        assert np.abs(full - p_part - rho_part).max() < 1e-13
        assert np.abs(symbol_raw(ZERO_P, 0.0, xi).entries).max() == 0.0

    def test_non_finite_data_rejected(self):
        with pytest.raises(DomainError):
            symbol_raw(P_IDENTITY, float("nan"), E1)
        with pytest.raises(DomainError):
            symbol_raw(SymTensor3(np.array([np.inf, 0, 0, 1.0, 1.0, 0]), "upper"), 0.0, E1)


def assert_stacks_are_engine_response(jet, epsilon, rho, directions):
    p = einstein_raised(riemann(jet), jet.g)
    raw, gauge = symbol_stacks(SymTensor3(epsilon * p.components, "upper"), rho, directions)
    assert raw.shape == gauge.shape == (len(directions), 6, 6)
    for v, raw_v, gauge_v in zip(directions, raw, gauge):
        scale = max(1.0, np.abs(raw_v).max())
        raw_ref, gauge_ref = engine_symbol(jet, epsilon, rho, v)
        assert np.abs(raw_v - raw_ref).max() <= 1e-13 * scale
        assert np.abs(gauge_v - gauge_ref).max() <= 1e-13 * scale


class TestStacks:
    def test_stacks_match_engine_response_over_lattice(self):
        # random jets at g = I: the stacks are the linearisation of -2 eps h + 2 rho R g
        rng = np.random.default_rng(30)
        directions = unit_directions(50)
        for epsilon in (1.0, -1.0, 1.0):
            jet = MetricJet(IDENTITY, rng.uniform(-1, 1, (3, 6)), rng.uniform(-1, 1, (6, 6)))
            assert_stacks_are_engine_response(jet, epsilon, float(rng.uniform(-2, 2)),
                                              directions)

    @pytest.mark.parametrize("kappa", [1.0, -1.0, 0.3])
    @pytest.mark.parametrize("epsilon", [1.0, -1.0])
    def test_stacks_match_engine_response_at_chart_origins(self, kappa, epsilon):
        # the sphere and hyperbolic charts have g = I and dg = 0 at the origin
        jet = space_form_chart_jet(kappa, np.zeros(3))
        directions = np.vstack([np.eye(3), unit_directions(7), [[2.0, -1.0, 0.5]]])
        for rho in (0.0, 0.4):
            assert_stacks_are_engine_response(jet, epsilon, rho, directions)

    def test_engine_reference_needs_the_identity_metric(self):
        jet = MetricJet(SymTensor3.from_matrix(2.0 * np.eye(3)), np.zeros((3, 6)),
                        np.zeros((6, 6)))
        with pytest.raises(DomainError, match="metric is the identity"):
            engine_symbol(jet, 1.0, 0.0, E1)

    def test_single_direction_symbols_are_stack_rows(self):
        rng = np.random.default_rng(32)
        p = sym_upper(rng)
        xi = rng.normal(size=3)
        unit = xi / np.abs(xi).max()
        unit /= np.linalg.norm(unit)
        raw, gauge = symbol_stacks(p, 0.7, unit[None])
        blocks, scale = quotient_blocks(raw, gauge, unit[None])
        q = float(unit @ p.matrix @ unit) / float(unit @ unit)
        for sym, entries in ((symbol_raw(p, 0.7, xi), raw[0]),
                             (symbol_modified(p, 0.7, xi), raw[0] - gauge[0])):
            assert np.array_equal(sym.entries, entries)
            assert np.array_equal(sym.xi, unit)
            assert sym.q == q
        # the quotient block there has the spectrum that q stands for
        expected = np.sort([q, q, q - 2.8])
        assert np.abs(np.linalg.eigvalsh(blocks[0]) - expected).max() <= 1e-14 * scale


class TestDeflation:
    def test_quotient_spectrum_is_the_closed_form(self):
        # spec B = {q, q, q - 4 rho}, q = xi^T P xi, in every direction
        rng = np.random.default_rng(34)
        directions = unit_directions(60)
        for _ in range(5):
            p = sym_upper(rng)
            rho = float(rng.uniform(-2, 2))
            blocks, _ = quotient_blocks(*symbol_stacks(p, rho, directions), directions)
            q = np.einsum("na,ab,nb->n", directions, p.matrix, directions)
            expected = np.sort(np.column_stack([q, q, q - 4 * rho]), axis=1)
            got = np.linalg.eigvals(blocks)
            assert np.abs(got.imag).max() < 1e-12
            assert np.abs(np.sort(got.real, axis=1) - expected).max() < 1e-12

    @pytest.mark.parametrize("stack, on", [("raw", "K"), ("gauge", "K"), ("gauge", "T")])
    @pytest.mark.parametrize("error, raises", [(1e-9, True), (1e-13, False)])
    def test_structure_residuals_catch_a_perturbed_stack(self, stack, on, error, raises,
                                                         monkeypatch):
        # a rank-one error m -> error * scale * tr(u m) e_11 along u = xi xi^T
        # in K, or the projector I - xi xi^T in T; the raw error sits on K, so
        # B and the verdict stay as they were and only a residual sees it
        kernel = symbol_module.symbol_stacks

        def perturbed(p, rho, xis):
            raw, gauge = kernel(p, rho, xis)
            u = np.einsum("na,nb->nab", xis, xis)
            if on == "T":
                u = (np.eye(3) - u) / np.sqrt(2.0)
            dual = u[:, [0, 0, 0, 1, 2, 1], [0, 1, 2, 1, 2, 2]] * [1.0, 2.0, 2.0, 1.0, 1.0, 2.0]
            scale = max(1.0, np.abs(raw).max()) if stack == "raw" else 1.0
            delta = np.zeros((len(xis), 6, 6))
            delta[:, 0, :] = error * scale * dual
            return (raw + delta, gauge) if stack == "raw" else (raw, gauge + delta)

        monkeypatch.setattr(symbol_module, "symbol_stacks", perturbed)
        p = SymTensor3(np.array([3.0, 0.4, -0.2, 2.0, 1.0, 0.3]), "upper")
        if raises:
            with pytest.raises(InternalConsistencyError, match="symbol structure"):
                parabolicity(p, IDENTITY, 0.2)
        else:
            assert parabolicity(p, IDENTITY, 0.2).verdict == "strictly_parabolic_deturck"


def reference_sweep(p, g, rho, case, n):
    """The sweep of `parabolicity` with the general solver: the same
    directions and blocks, every block's eigenvalues from np.linalg.eigvals.
    Returns the verdict, min_modified_eig, min_raw_eig and the symbol scale."""
    p_frame = to_orthonormal_frame(p, g)
    vecs = np.linalg.eigh(p_frame.matrix)[1]
    directions = np.vstack([unit_directions(n), vecs.T])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    raw, gauge = symbol_stacks(SymTensor3(case * p_frame.components, "upper"), rho, directions)
    blocks, scale = quotient_blocks(raw, gauge, directions)
    lowest = float(np.linalg.eigvals(blocks).real.min())
    min_modified, min_raw = min(1.0, lowest), min(0.0, lowest)
    if min_modified >= STRICTNESS_FLOOR:
        verdict = "strictly_parabolic_deturck"
    elif min_raw >= -max(STRICTNESS_FLOOR, 1e-7 * scale):
        verdict = "weakly_parabolic"
    else:
        verdict = "not_parabolic"
    return verdict, min_modified, min_raw, scale


class TestSymmetricSolve:
    @pytest.mark.parametrize("case", [1, -1])
    def test_quotient_block_is_symmetric(self, case):
        # B = q 1 - 2 rho pi pi^T: symmetric up to rounding, in random
        # directions and next to +-e3, on both branches of the Householder
        # reflection (xi_3 >= 0 and xi_3 < 0)
        rng = np.random.default_rng(40)
        tiny = rng.normal(size=(8, 2)) * 10.0 ** rng.uniform(-16, -6, (8, 1))
        near_poles = np.vstack([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                                np.column_stack([tiny, np.ones(8)]),
                                np.column_stack([tiny, -np.ones(8)])])
        for _ in range(20):
            p = SymTensor3(case * sym_upper(rng).components, "upper")
            rho = float(rng.uniform(-2, 2))
            directions = np.vstack([rng.normal(size=(30, 3)), near_poles])
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            blocks, scale = quotient_blocks(*symbol_stacks(p, rho, directions), directions)
            assert np.abs(blocks - blocks.swapaxes(1, 2)).max() <= 1e-15 * scale

    def test_sweep_matches_the_general_solver(self):
        # verdicts and minima of the symmetric solve against the sweep with
        # np.linalg.eigvals, for random P and g, both cases, rho far from and
        # near the threshold, one lattice direction to 200
        rng = np.random.default_rng(41)
        for i in range(120):
            p = sym_upper(rng)
            m = rng.uniform(-1, 1, (3, 3))
            g = SymTensor3.from_matrix(m @ m.T + 0.5 * np.eye(3))
            case = int(rng.choice([1, -1]))
            n = int(rng.choice([1, 50, 200]))
            rho = float(rng.uniform(-2, 2))
            if i % 2:
                lowest = (case * np.linalg.eigvalsh(to_orthonormal_frame(p, g).matrix)).min()
                rho = float(lowest / 4.0 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-8, -3))
            rep = parabolicity(p, g, rho, case=case, direction_samples=n)
            verdict, min_modified, min_raw, scale = reference_sweep(p, g, rho, case, n)
            assert rep.verdict == verdict
            assert abs(rep.min_modified_eig - min_modified) <= 1e-13 * scale
            assert abs(rep.min_raw_eig - min_raw) <= 1e-13 * scale
        # at rho = min(lam) / 4 an eigenvalue of B meets the structural zeros
        for p in (P_IDENTITY, SymTensor3(np.array([2.0, 0, 0, 3.0, 1.0, 0]), "upper")):
            rep = parabolicity(p, IDENTITY, 0.25 * float(p.components[4]))
            assert rep.verdict == reference_sweep(p, IDENTITY, rep.rho, 1, 200)[0]
            assert rep.verdict == "weakly_parabolic"

    @pytest.mark.parametrize("change, raises", [
        ("skew part 1e-6", True),  # beyond IMAG_RESIDUE_TOL of the scale
        ("entry 1e-9", True),
        ("rotated within its spectrum", True),
        ("entry STRUCTURE_TOL / 4", False),
    ])
    def test_a_block_off_its_closed_form_at_one_direction_raises(self, change, raises,
                                                                 monkeypatch):
        # the quotient block in the Householder frame of xi, changed in units
        # of the symbol scale before the closed-form check sees it
        entry = np.zeros((3, 3))
        entry[0, 2] = 1.0
        c, s_ = np.cos(1e-3), np.sin(1e-3)
        turn = np.array([[c, -s_, 0.0], [s_, c, 0.0], [0.0, 0.0, 1.0]])
        perturbation = {
            "skew part 1e-6": lambda b: b + 1e-6 * (entry - entry.T),
            "entry 1e-9": lambda b: b + 1e-9 * entry,
            "rotated within its spectrum": lambda b: turn @ b @ turn.T,
            "entry STRUCTURE_TOL / 4": lambda b: b + 0.25 * symbol_module.STRUCTURE_TOL * entry,
        }[change]
        frame_blocks = symbol_module._frame_blocks

        def perturbed(raw, gauge, frames):
            blocks, raw_scale = frame_blocks(raw, gauge, frames)
            return raw_scale * perturbation(blocks / raw_scale), raw_scale

        monkeypatch.setattr(symbol_module, "_frame_blocks", perturbed)
        p = SymTensor3(np.array([3.0, 0.4, -0.2, 2.0, 1.0, 0.3]), "upper")
        xi = np.array([0.3, -0.5, 0.8])
        for make in (symbol_raw, symbol_modified):
            if raises:
                with pytest.raises(InternalConsistencyError,
                                   match="symbol self-check: the block at xi is off q 1 - 2 rho"):
                    make(p, 0.7, xi)
            else:
                q = xi @ p.matrix @ xi / (xi @ xi)
                assert make(p, 0.7, xi).q == pytest.approx(q, rel=1e-14)

    # `parabolicity` solves P's eigenproblem before it assembles a symbol, so
    # a P whose largest eigenvalue overflows (about 1.9e308 in the second
    # row) ends there; finite eigenvalues reach the symbol's own check
    @pytest.mark.parametrize("components, rho, stops_at", [
        pytest.param([1.0, 0.1, 0.0, 2.0, 3.0, 0.2], 1e308, "symbol matrix entries overflow",
                     id="components0-1e+308"),
        pytest.param([1e308, 1e307, 0.0, 1.5e308, 1.7e308, 2e307], 0.0, "eigenvalues overflow",
                     id="components1-0.0"),
        pytest.param([1e308, 1e307, 0.0, 1.4e308, 1.5e308, 2e307], 0.0,
                     "symbol matrix entries overflow", id="components2-0.0"),
    ])
    def test_overflow_is_the_named_domain_error(self, components, rho, stops_at):
        p = SymTensor3(np.array(components), "upper")
        message = "symbol matrix entries overflow: P or rho is too large"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=stops_at):
                parabolicity(p, IDENTITY, rho)
            with pytest.raises(DomainError, match=message):
                spectrum(symbol_raw(p, rho, [1.0, 2.0, 3.0]))


def tilted_from_e3(angle: float, sign: float) -> np.ndarray:
    """A rotation whose third column is sign * e3 tilted by `angle` toward e1."""
    c, s_ = np.cos(angle), np.sin(angle)
    turn = np.array([[c, 0.0, s_], [0.0, 1.0, 0.0], [-s_, 0.0, c]])
    return turn @ np.diag([sign, 1.0, sign])


# P in frame components where eigh's eigenvectors are arbitrary (a degenerate
# eigenvalue, in a rotated frame or not) or lie at or next to +-e3
ROTATION = haar_rotation(np.random.default_rng(44))
EIGENFRAME_CASES = {
    "identity": np.eye(3),
    "diag(2, 2, 5)": np.diag([2.0, 2.0, 5.0]),
    "rotated diag(2, 2, 5)": ROTATION @ np.diag([2.0, 2.0, 5.0]) @ ROTATION.T,
    "rotated diag(5, 2, 2)": ROTATION @ np.diag([5.0, 2.0, 2.0]) @ ROTATION.T,
    "identity + 1e-15 noise": np.eye(3) + 1e-15 * (ROTATION + ROTATION.T),
    **{f"e3 tilted by {angle:g}, sign {sign:+g}":
       tilted_from_e3(angle, sign) @ np.diag([1.0, 2.0, 0.5]) @ tilted_from_e3(angle, sign).T
       for angle in (0.0, 1e-17, 1e-9) for sign in (1.0, -1.0)},
}


class TestEigenvectorFrames:
    """The frames (v_n, v_{n+1}, v_{n+2}) that `parabolicity` builds its
    bases from at P's eigenvectors v_n, in place of Householder frames."""

    @pytest.mark.parametrize("name", EIGENFRAME_CASES)
    def test_bases_are_orthonormal_and_split_k_from_t(self, name):
        vecs = np.linalg.eigh(EIGENFRAME_CASES[name])[1].T
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        basis, t_dual = symbol_module._split_bases(vecs[symbol_module._CYCLIC])
        weight = np.array([1.0, 2.0, 2.0, 1.0, 1.0, 2.0])
        gram = basis.transpose(0, 2, 1) @ (weight[:, None] * basis)
        assert np.abs(gram - np.eye(6)).max() <= 1e-15
        assert np.array_equal(t_dual, basis[..., 3:].transpose(0, 2, 1) * weight)
        for xi, columns in zip(vecs, basis):
            tensors = [unpack(column) for column in columns.T]
            pi = np.eye(3) - np.outer(xi, xi)
            # K = {xi X^T + X xi^T} is what pi annihilates on both sides, and T
            # (m xi = 0) is its Frobenius complement
            assert max(np.abs(pi @ m @ pi).max() for m in tensors[:3]) <= 1e-15
            assert max(np.abs(m @ xi).max() for m in tensors[3:]) <= 1e-15

    @pytest.mark.parametrize("name", EIGENFRAME_CASES)
    @pytest.mark.parametrize("case", [1, -1])
    def test_blocks_match_the_householder_frames(self, name, case):
        # the same quotient block up to a rotation of T's basis: equal spectra,
        # a skew part of rounding size, and the report's closed-form verdict
        p = SymTensor3.from_matrix(case * EIGENFRAME_CASES[name], "upper")
        lam = case * np.linalg.eigvalsh(p.matrix)
        vecs = np.linalg.eigh(p.matrix)[1].T
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        for rho in (-0.7, 0.0, float(lam.min()) / 4.0, 1.3):
            raw, gauge = symbol_stacks(p, rho, vecs)
            framed, scale = symbol_module._frame_blocks(raw, gauge,
                                                        vecs[symbol_module._CYCLIC])
            householder, _ = quotient_blocks(raw, gauge, vecs)
            got, want = (np.linalg.eigvalsh(0.5 * (b + b.swapaxes(1, 2)))
                         for b in (framed, householder))
            assert np.abs(got - want).max() <= 1e-14 * scale
            skew = np.linalg.norm(0.5 * (framed - framed.swapaxes(1, 2)), 2, axis=(1, 2))
            assert skew.max() <= 1e-15 * scale
            rep = parabolicity(p, IDENTITY, rho, case=case)
            assert rep.max_imag_residue <= 1e-15
            assert rep.min_modified_eig == pytest.approx(
                min(1.0, lam.min(), lam.min() - 4.0 * rho), abs=1e-14)


class TestClosedForm:
    def test_direction_samples_changes_no_other_field(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            p = sym_upper(rng)
            m = rng.uniform(-1, 1, (3, 3))
            g = SymTensor3.from_matrix(m @ m.T + 0.5 * np.eye(3))
            args = (p, g, float(rng.uniform(-2, 2)), int(rng.choice([1, -1])),
                    str(rng.choice(["frame", "all_directions"])))
            reports = {repr(dataclasses.replace(parabolicity(*args, direction_samples=n),
                                                direction_samples=0))
                       for n in (1, 50, 200, 5000)}
            assert len(reports) == 1

    @staticmethod
    def _perturb_blocks(monkeypatch, change):
        """Make `parabolicity` check `change(blocks, raw_scale)` in place of
        its quotient blocks; returns the list of (blocks, raw_scale) it saw."""
        frame_blocks, seen = symbol_module._frame_blocks, []

        def perturbed(raw, gauge, frames):
            blocks, raw_scale = frame_blocks(raw, gauge, frames)
            blocks = change(blocks, raw_scale)
            seen.append((blocks, raw_scale))
            return blocks, raw_scale

        monkeypatch.setattr(symbol_module, "_frame_blocks", perturbed)
        return seen

    @staticmethod
    def _spectra_match(blocks, raw_scale, q, rho):
        """The check at P's eigenvectors as it was before it compared entries:
        the spectrum of each block's symmetric part against {q, q, q - 4 rho},
        within STRUCTURE_TOL of the symbol scale."""
        sym = 0.5 * blocks + 0.5 * blocks.swapaxes(-1, -2)
        eigs = np.linalg.eigvalsh(sym) / raw_scale
        closed = np.sort(np.column_stack([q, q, q - 4.0 * rho]), axis=1) / raw_scale
        return np.abs(eigs - closed).max() <= symbol_module.STRUCTURE_TOL

    def test_a_wrong_block_entry_trips_the_check_at_the_eigenvectors(self, monkeypatch):
        # the eigenpairs of P are right, one entry of a quotient block is not
        def change(blocks, raw_scale):
            blocks[1, 0, 2] += 1e-9 * raw_scale
            return blocks

        self._perturb_blocks(monkeypatch, change)
        p = SymTensor3(np.array([3.0, 0.4, -0.2, 2.0, 1.0, 0.3]), "upper")
        with pytest.raises(InternalConsistencyError,
                           match="quotient block at P's eigenvectors is off q 1 - 2 rho"):
            parabolicity(p, IDENTITY, 0.2)

    @pytest.mark.parametrize("fraction, raises", [(0.25, False), (0.5, True)])
    def test_the_entrywise_tolerance_is_a_third_of_the_spectral_one(self, fraction, raises,
                                                                    monkeypatch):
        # |B - C|_2 <= 3 max |B - C|: an entry may be off by STRUCTURE_TOL / 3,
        # though an entry off by STRUCTURE_TOL / 2 moves no eigenvalue that far
        def change(blocks, raw_scale):
            blocks[1, 0, 2] += fraction * symbol_module.STRUCTURE_TOL * raw_scale
            return blocks

        seen = self._perturb_blocks(monkeypatch, change)
        p = SymTensor3(np.array([3.0, 0.0, 0.0, 2.0, 1.0, 0.0]), "upper")
        if raises:
            with pytest.raises(InternalConsistencyError, match="quotient block"):
                parabolicity(p, IDENTITY, 0.2)
        else:
            assert parabolicity(p, IDENTITY, 0.2).verdict == "strictly_parabolic_deturck"
        (blocks, raw_scale), = seen
        assert self._spectra_match(blocks, raw_scale, np.array([1.0, 2.0, 3.0]), 0.2)

    def test_a_block_rotated_within_its_spectrum_trips_the_check(self, monkeypatch):
        # R B R^T has B's spectrum but not its entries: the spectral check
        # passed it, the entrywise one does not
        c, s_ = np.cos(1e-3), np.sin(1e-3)
        rotation = np.array([[c, -s_, 0.0], [s_, c, 0.0], [0.0, 0.0, 1.0]])

        def change(blocks, raw_scale):
            blocks[0] = rotation @ blocks[0] @ rotation.T
            return blocks

        seen = self._perturb_blocks(monkeypatch, change)
        # P diagonal: v_n = +-e_n, q_n = P_nn
        p = SymTensor3(np.array([3.0, 0.0, 0.0, 2.0, 1.0, 0.0]), "upper")
        rho = 0.2
        with pytest.raises(InternalConsistencyError,
                           match="quotient block at P's eigenvectors is off"):
            parabolicity(p, IDENTITY, rho)
        (blocks, raw_scale), = seen
        assert self._spectra_match(blocks, raw_scale, np.array([1.0, 2.0, 3.0]), rho)

    def test_one_eigensolve_per_query(self, monkeypatch):
        # _frame_eigh's Jacobi solve, and no eigensolve of the quotient blocks
        calls = {"_jacobi": 0, "eigh": 0, "eigvalsh": 0, "eigvals": 0, "eig": 0}
        for name in calls:
            module = curvature if name == "_jacobi" else np.linalg
            solver = getattr(module, name)

            def counted(*args, _solver=solver, _name=name, **kwargs):
                calls[_name] += 1
                return _solver(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        rng = np.random.default_rng(47)
        for n in range(1, 7):
            m = rng.uniform(-1, 1, (3, 3))
            g = SymTensor3.from_matrix(m @ m.T + 0.5 * np.eye(3))
            parabolicity(sym_upper(rng), g, float(rng.uniform(-2, 2)),
                         int(rng.choice([1, -1])), str(rng.choice(["frame", "all_directions"])))
            assert calls == {"_jacobi": n, "eigh": 0, "eigvalsh": 0, "eigvals": 0, "eig": 0}

    def test_a_wrong_minimum_trips_the_eigensolve_certificate(self, monkeypatch):
        # a rotated frame with its Rayleigh quotients as "eigenvalues": the
        # blocks there match them, but q_min is not the minimum over the sphere
        c, s_ = np.cos(0.3), np.sin(0.3)
        frame = np.array([[c, -s_, 0.0], [s_, c, 0.0], [0.0, 0.0, 1.0]])
        monkeypatch.setattr(curvature, "_jacobi", lambda comps: (
            np.einsum("ai,ab,bi->i", frame, unpack(comps), frame).tolist(), frame.T.tolist()))
        p = SymTensor3(np.array([0.2, 0.0, 0.0, 5.0, 5.0, 0.0]), "upper")
        with pytest.raises(InternalConsistencyError, match="eigensolve self-check"):
            parabolicity(p, IDENTITY, 0.0)

    @pytest.mark.parametrize("frame, rho, branch, verdict", [
        ((0.2, 5.0, 5.0), 0.051, "q - 4 rho", "not_parabolic"),
        ((0.2, 5.0, 5.0), -0.1, "q", "strictly_parabolic_deturck"),
        ((5.0, 5.0, 5.0), -10.0, "gauge", "strictly_parabolic_deturck"),
    ])
    def test_the_report_names_what_decided_the_verdict(self, frame, rho, branch, verdict):
        p = SymTensor3(np.array([frame[0], 0.0, 0.0, frame[1], frame[2], 0.0]), "upper")
        rep = parabolicity(p, IDENTITY, rho)
        assert (rep.deciding_branch, rep.verdict) == (branch, verdict)
        assert np.array_equal(np.abs(rep.critical_direction), E1)
        assert rep.min_modified_eig == pytest.approx(
            min(1.0, min(frame), min(frame) - 4.0 * rho), abs=1e-15)


class TestDeturckCorrection:
    def test_identity_variation_at_e1(self):
        out = unpack(gauge_term(E1) @ pack(np.eye(3)))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0  # tr - 2 = 3 - 2
        assert np.array_equal(out, expected)

    def test_kernel_variations_map_to_zero(self):
        # traceless variations with vanishing first row are annihilated
        m = np.array([[0.0, 0, 0], [0, 1.0, 0.3], [0, 0.3, -1.0]])
        out = unpack(gauge_term(E1) @ pack(m))
        assert np.abs(out).max() == 0.0

    def test_rotated_direction_matches_direct_formula(self):
        xi = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        got = gauge_term(xi)

        def direct(m):
            mv = m @ xi
            return np.trace(m) * np.outer(xi, xi) - np.outer(xi, mv) - np.outer(mv, xi)

        expected = np.column_stack([pack(direct(unpack(r))) for r in np.eye(6)])
        assert np.abs(got - expected).max() < 1e-14

    def test_conjugation_by_induced_rotation(self):
        # with S(Q) pack(m) = pack(Q m Q^T) and Q xi = e1, the gauge term at
        # xi is S(Q^T) G(e1) S(Q)
        q = haar_rotation(np.random.default_rng(28))
        xi = q.T @ E1
        s = matrix_of(lambda m: q @ m @ q.T)
        s_back = matrix_of(lambda m: q.T @ m @ q)
        assert np.abs(s_back @ gauge_term(E1) @ s - gauge_term(xi)).max() < 1e-14


class TestModifiedSymbol:
    def test_displayed_modified_matrix_at_e1(self):
        rng = np.random.default_rng(12)
        p = sym_upper(rng)
        rho = float(rng.uniform(-2, 2))
        expected = displayed_raw_matrix(p.matrix, rho)
        expected[:3, :3] = np.eye(3)
        expected[0, 3] -= 1.0
        expected[0, 4] -= 1.0
        assert np.abs(symbol_modified(p, rho, E1).entries - expected).max() < 1e-15

    def test_identity_case_gives_identity_matrix(self):
        m = symbol_modified(P_IDENTITY, 0.0, E1)
        assert np.array_equal(m.entries, np.eye(6))

    def test_example_spectrum_2_3_5(self):
        p = SymTensor3(np.array([2.0, 0, 0, 3.0, 5.0, 0]), "upper")
        got = spectrum(symbol_modified(p, 0.25, E1))
        assert np.allclose(np.sort(got), [1, 1, 1, 1, 2, 2])

    def test_negative_case_flips_curvature_term(self):
        p = SymTensor3(np.array([-1.0, 0, 0, -1.0, -1.0, 0]), "upper")
        got = spectrum(symbol_modified(p, 0.0, E1, case=-1))
        assert np.allclose(got, [1.0] * 6)


class TestSpectrum:
    def test_closed_form_over_random_data(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            p = sym_upper(rng)
            rho = float(rng.uniform(-2, 2))
            p11 = p.components[0]
            tol = 1e-12 * max(1, abs(p11), abs(rho))
            raw = spectrum(symbol_raw(p, rho, E1))
            assert np.abs(raw - np.sort([0, 0, 0, p11, p11, p11 - 4 * rho])).max() < tol
            mod = spectrum(symbol_modified(p, rho, E1))
            assert np.abs(mod - np.sort([1, 1, 1, p11, p11, p11 - 4 * rho])).max() < tol

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            p = sym_upper(rng, span=3.0)
            xi = rng.normal(size=3)
            xi /= np.linalg.norm(xi)
            rho = float(rng.uniform(-2, 2))
            q = special_ortho_group.rvs(3, random_state=rng)
            base = spectrum(symbol_raw(p, rho, xi))
            moved = spectrum(symbol_raw(
                SymTensor3.from_matrix(q @ p.matrix @ q.T, "upper"), rho, q @ xi))
            assert np.abs(base - moved).max() < 1e-9

    @pytest.mark.parametrize("kind", ["threshold", "isotropic"])
    def test_exact_where_an_eigenvalue_meets_the_structural_ones(self, kind):
        # at rho = q / 4 the eigenvalue q - 4 rho of B meets the raw
        # symbol's three zeros, and for isotropic P with rho = 0 the
        # gauge-fixed symbol at q = 1 is the identity; the non-normal 6x6
        # solve split such eigenvalues by ~1e-8 and warned of imaginary
        # residue there
        rng = np.random.default_rng(29)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(100):
                xi = rng.normal(size=3)
                xi /= np.linalg.norm(xi)
                if kind == "threshold":
                    p = sym_upper(rng)
                    q = float(xi @ p.matrix @ xi)
                    rho = q / 4.0
                else:
                    q = float(rng.choice([1.0, rng.uniform(-5, 5)]))
                    p = SymTensor3(q * P_IDENTITY.components, "upper")
                    rho = float(rng.choice([0.0, q / 4.0]))
                scale = max(1.0, abs(q), abs(rho))
                raw = spectrum(symbol_raw(p, rho, xi))
                mod = spectrum(symbol_modified(p, rho, xi))
                assert np.abs(raw - np.sort([0, 0, 0, q, q, q - 4 * rho])).max() <= 1e-12 * scale
                assert np.abs(mod - np.sort([1, 1, 1, q, q, q - 4 * rho])).max() <= 1e-12 * scale

    def test_structural_eigenvalues_are_exact(self):
        rng = np.random.default_rng(31)
        p, xi = sym_upper(rng), rng.normal(size=3)
        q = float(xi @ p.matrix @ xi) / float(xi @ xi)
        for sym, structural in ((symbol_raw(p, 0.4, xi), 0.0),
                                (symbol_modified(p, 0.4, xi), 1.0)):
            got = spectrum(sym)
            assert np.count_nonzero(got == structural) >= 3
            # the other three against numpy's general solve of the quotient block
            block = quotient_blocks(*symbol_stacks(p, 0.4, sym.xi[None]), sym.xi[None])[0][0]
            rest = np.delete(got, np.flatnonzero(got == structural)[:3])
            assert np.abs(np.sort(np.linalg.eigvals(block).real) - rest).max() < 1e-12
            assert np.abs(rest - np.sort([q, q, q - 1.6])).max() < 1e-12

    def test_imaginary_residue_is_judged_relative_to_the_entries(self):
        # at |P| ~ 1e150 the quotient block's rounding is far above 1e-10 in
        # absolute terms, yet only ~1e-16 of the entries: the closed-form
        # check passes, nothing warns, and the spectrum is the closed form
        rng = np.random.default_rng(22)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(20):
                p, xi = sym_upper(rng, span=1e150), rng.normal(size=3)
                q = float(xi @ p.matrix @ xi) / float(xi @ xi)
                got = spectrum(symbol_raw(p, 0.0, xi))
                scale = np.abs(p.matrix).max()
                assert np.abs(got - np.sort([0, 0, 0, q, q, q])).max() <= 1e-13 * scale

    def test_a_spectrum_solves_no_eigenproblem(self, monkeypatch):
        # the one eigensolve of the library is _frame_eigh's, which a
        # single-direction symbol does not call
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, None)
        p = SymTensor3(np.array([3.0, 0.4, -0.2, 2.0, 1.0, 0.3]), "upper")
        q = float(np.array([1.0, 2.0, 3.0]) @ p.matrix @ [1.0, 2.0, 3.0]) / 14.0
        got = spectrum(symbol_modified(p, 0.1, [1.0, 2.0, 3.0]))
        assert np.abs(got - np.sort([1, 1, 1, q, q, q - 0.4])).max() <= 1e-15

    def test_direction_dependence_through_quadratic_form(self):
        # at any unit direction the nonzero eigenvalues are xi'P xi (twice)
        # and xi'P xi - 4 rho
        rng = np.random.default_rng(18)
        p = sym_upper(rng)
        rho = 0.15
        for xi in unit_directions(12):
            q = float(xi @ p.matrix @ xi)
            got = spectrum(symbol_raw(p, rho, xi))
            tol = 1e-12 * max(1, abs(q))
            assert np.abs(got - np.sort([0, 0, 0, q, q, q - 4 * rho])).max() < tol


class TestParabolicity:
    def test_sphere_rho_zero(self):
        rep = parabolicity(P_IDENTITY, IDENTITY, 0.0)
        assert rep.verdict == "strictly_parabolic_deturck"
        assert rep.threshold == 0.25
        assert rep.margin == 0.25
        assert rep.spectral_margin == 0.25

    def test_sphere_threshold_bracket(self):
        assert parabolicity(P_IDENTITY, IDENTITY, 0.24).verdict == "strictly_parabolic_deturck"
        assert parabolicity(P_IDENTITY, IDENTITY, 0.26).verdict == "not_parabolic"

    def test_sphere_above_threshold_detail(self):
        rep = parabolicity(P_IDENTITY, IDENTITY, 0.3)
        assert rep.verdict == "not_parabolic"
        assert rep.min_modified_eig == pytest.approx(-0.2, abs=1e-12)

    def test_frame_vs_all_directions_modes(self):
        p = SymTensor3(np.array([3.0, 0, 0, 2.0, 1.0, 0]), "upper")
        frame_rep = parabolicity(p, IDENTITY, 0.2, mode="frame")
        dir_rep = parabolicity(p, IDENTITY, 0.2, mode="all_directions")
        assert frame_rep.threshold == pytest.approx(0.75)
        assert dir_rep.threshold == pytest.approx(0.25)
        assert frame_rep.verdict == dir_rep.verdict == "strictly_parabolic_deturck"
        assert frame_rep.margin > dir_rep.margin

    def test_negative_case_thresholds(self):
        p_neg = SymTensor3(np.array([-1.0, 0, 0, -1.0, -1.0, 0]), "upper")
        rep = parabolicity(p_neg, IDENTITY, 0.0, case=-1)
        assert rep.case == "negative"
        assert rep.threshold == pytest.approx(0.5)
        assert rep.verdict == "strictly_parabolic_deturck"
        # the stated bound admits rho where the sampled spectrum already
        # fails; the report keeps both visible
        rep2 = parabolicity(p_neg, IDENTITY, 0.3, case=-1)
        assert rep2.margin > 0.0
        assert rep2.verdict == "not_parabolic"
        assert rep2.min_modified_eig < 0.0
        # the spectral margin is the one that tracks the verdict
        assert rep2.spectral_margin == pytest.approx(-0.05, abs=1e-15)

    def test_raw_flow_is_weakly_parabolic_below_threshold(self):
        # without gauge fixing the kernel keeps three zero eigenvalues
        rep = parabolicity(P_IDENTITY, IDENTITY, 0.1)
        assert rep.min_raw_eig == 0.0  # the structural zeros are exact, not solved for
        assert rep.verdict == "strictly_parabolic_deturck"

    def test_weak_verdict_at_exact_threshold(self):
        # at rho = 1/4 on the sphere the gauged spectrum touches zero in
        # every direction while the raw one stays nonnegative
        rep = parabolicity(P_IDENTITY, IDENTITY, 0.25)
        assert rep.verdict == "weakly_parabolic"
        assert rep.min_modified_eig == pytest.approx(0.0, abs=1e-12)

    def test_non_identity_metric_frame_transform(self):
        # scaled sphere: g = 4 I, P = (1/4) g^{-1} has generalized eigenvalues 1/4
        g = SymTensor3(4.0 * IDENTITY.components)
        riem = Riemann3.space_form(0.25, g)
        p = einstein_raised(riem, g)
        rep = parabolicity(p, g, 0.0)
        assert rep.threshold == pytest.approx(0.25 / 4.0)
        assert rep.verdict == "strictly_parabolic_deturck"
        p_frame = to_orthonormal_frame(p, g)
        assert np.allclose(p_frame.matrix, 0.25 * np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("samples", [50, 200])
    @pytest.mark.parametrize("offset", [-1e-3, 1e-3])
    def test_rotated_anisotropic_threshold_verdict_is_exact(self, samples, offset):
        # the critical direction of Q diag(0.2, 5, 5) Q^T falls between
        # lattice points, where a sampled sweep calls rho = 0.05 + 1e-3 strict
        rng = np.random.default_rng(24)
        lam = np.array([0.2, 5.0, 5.0])
        rho = lam.min() / 4.0 + offset
        strict = lam.min() >= STRICTNESS_FLOOR and lam.min() - 4.0 * rho >= STRICTNESS_FLOOR
        for _ in range(50):
            q = haar_rotation(rng)
            p = SymTensor3.from_matrix((q * lam) @ q.T, "upper")
            rep = parabolicity(p, IDENTITY, rho, direction_samples=samples)
            assert (rep.verdict == "strictly_parabolic_deturck") == strict
            assert rep.direction_samples == samples

    def test_spectral_margin_decides_verdict(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            p = sym_upper(rng)
            m = rng.uniform(-1, 1, (3, 3))
            g = SymTensor3.from_matrix(m @ m.T + 0.5 * np.eye(3))
            rho = float(rng.uniform(-2, 2))
            case = int(rng.choice([1, -1]))
            rep = parabolicity(p, g, rho, case=case, direction_samples=50)
            strict = rep.verdict == "strictly_parabolic_deturck"
            assert strict == (4.0 * rep.spectral_margin >= STRICTNESS_FLOOR)
            assert rep.min_modified_eig == pytest.approx(
                min(1.0, 4.0 * rep.spectral_margin), abs=1e-9)
            if case > 0 and rho >= 0.0:
                assert rep.spectral_margin == rep.margin

    @pytest.mark.parametrize("bad", [
        {"rho": float("nan")},
        {"rho": float("inf")},
        {"p": [np.nan, 0, 0, 1.0, 1.0, 0]},  # components: a tensor refuses them
        {"direction_samples": 0},
        {"direction_samples": MAX_DIRECTION_SAMPLES + 1},
        {"direction_samples": 10**12},
        {"direction_samples": 2.5},
        {"direction_samples": True},
        {"rho": "x"},
        {"rho": None},
    ])
    def test_bad_input_raises_domain_error(self, bad):
        args = {"p": P_IDENTITY, "g": IDENTITY, "rho": 0.0, **bad}
        with pytest.raises(DomainError):
            if isinstance(args["p"], list):
                args["p"] = SymTensor3(np.array(args["p"]), "upper")
            parabolicity(**args)

    @pytest.mark.parametrize("rho", ["0.1", b"0.1", bytearray(b"0.1"), True, False, 1j,
                                     10**400, [0.1], np.True_, np.False_, np.array(True)],
                             ids=["str", "bytes", "bytearray", "true", "false", "complex",
                                  "huge_int", "list", "numpy_true", "numpy_false",
                                  "bool_array"])
    def test_rho_must_be_a_finite_real_number(self, rho):
        # float() reads "0.1", b"0.1" and True (numpy's too), but none of them
        # is a real parameter
        with pytest.raises(DomainError, match="rho must be a finite real number"):
            parabolicity(P_IDENTITY, IDENTITY, rho)
        with pytest.raises(DomainError, match="rho must be a finite real number"):
            symbol_raw(P_IDENTITY, rho, E1)

    def test_rho_accepts_real_numbers(self):
        for rho in (0, np.float64(0.1), np.float32(0.25), np.int64(0), np.array(0.1)):
            assert parabolicity(P_IDENTITY, IDENTITY, rho).rho == float(rho)

    @pytest.mark.parametrize("case", [True, np.True_, False, np.False_, 0, 2, "sideways"],
                             ids=["true", "numpy_true", "false", "numpy_false", "zero", "two",
                                  "name"])
    def test_case_must_be_a_sign_or_its_name(self, case):
        # True == 1, yet a bool is no case, as it is no rho
        match = r"case must be \+1/-1 or 'positive'/'negative'"
        with pytest.raises(DomainError, match=match):
            case_sign(case)
        with pytest.raises(DomainError, match=match):
            symbol_modified(P_IDENTITY, 0.0, E1, case=case)
        with pytest.raises(DomainError, match=match):
            parabolicity(P_IDENTITY, IDENTITY, 0.0, case=case)

    def test_case_accepts_signs_and_names(self):
        for case, sign in ((1, 1), (-1, -1), ("positive", 1), ("negative", -1),
                           (np.int64(-1), -1), (1.0, 1)):
            assert case_sign(case) == sign

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_a_negative_symbol_eigenvalue_is_not_weak(self):
        # rho = 1/4 + d/4 puts the eigenvalue q_min - 4 rho = -d below zero;
        # the weak floor max(1e-9, 1e-7 raw_scale) calls it weakly parabolic
        p = SymTensor3(np.array([1.0, 0, 0, 2.0, 3.0, 0]), "upper")
        rep = parabolicity(p, IDENTITY, 0.25 + 1e-8 / 4.0)
        assert rep.min_raw_eig < 0.0
        assert rep.verdict == "not_parabolic"

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_the_strict_verdict_does_not_depend_on_the_scale_of_p(self):
        # P = t diag(1, 2, 3), rho = 0.1 t: min(1, q_min, q_min - 4 rho) = 0.6 t > 0
        # at every t, but STRICTNESS_FLOOR is absolute
        t = 1e-9
        p = SymTensor3(t * np.array([1.0, 0, 0, 2.0, 3.0, 0]), "upper")
        assert parabolicity(p, IDENTITY, 0.1 * t).verdict == "strictly_parabolic_deturck"

    @pytest.mark.xfail(strict=True, raises=InternalConsistencyError, reason="ROADMAP item 3")
    def test_a_consistent_pair_on_an_ill_conditioned_metric_is_not_blamed(self):
        # riem is built from g itself, but cond(g) = 1e6 carries the trace form's
        # rounding past FORMULA_AGREEMENT_RTOL (relative deviation 1.9e-9)
        q = _random_rotation(np.random.default_rng(1))
        g = SymTensor3.from_matrix(q @ np.diag([1.0, 1e3, 1e6]) @ q.T)
        p = einstein_raised(Riemann3.space_form(1.0, g), g).matrix
        ginv = np.linalg.inv(g.matrix)
        assert np.abs(p - ginv).max() <= 1e-8 * np.abs(ginv).max()

    def test_imag_residue_is_relative_to_the_symbol_scale(self):
        p = SymTensor3(np.array([1e150, 0.0, 0.0, 1.0, 1.0, 0.0]), "upper")
        assert parabolicity(p, IDENTITY, 0.0).max_imag_residue <= IMAG_RESIDUE_TOL

    def test_report_types(self):
        rep = parabolicity(P_IDENTITY, IDENTITY, 0.0, direction_samples=16)
        assert isinstance(rep, ParabolicityReport)
        assert rep.direction_samples == 16
        assert rep.max_imag_residue < 1e-8


class TestHelpers:
    def test_unit_directions_are_unit_and_deterministic(self):
        d1 = unit_directions(200)
        d2 = unit_directions(200)
        assert np.array_equal(d1, d2)
        assert np.abs(np.linalg.norm(d1, axis=1) - 1.0).max() < 1e-14

    @pytest.mark.parametrize("n", [2.5, 3.0, True, False, "3", None, float("nan")])
    def test_unit_directions_takes_an_integer(self, n):
        with pytest.raises(DomainError, match="must be an integer"):
            unit_directions(n)

    @pytest.mark.parametrize("n", [0, -3])
    def test_unit_directions_needs_one_direction(self, n):
        with pytest.raises(DomainError, match="at least one direction"):
            unit_directions(n)

    def test_unit_directions_accepts_numpy_integers(self):
        assert np.array_equal(unit_directions(np.int64(7)), unit_directions(7))
        assert unit_directions(1).shape == (1, 3)

    def test_symbol_matrix_metadata(self):
        m = symbol_raw(P_IDENTITY, 0.5, np.array([0.0, 2.0, 0.0]))
        assert isinstance(m, SymbolMatrix)
        assert m.kind == "raw"
        assert m.rho == 0.5
        assert np.array_equal(m.xi, [0.0, 1.0, 0.0])  # the unit covector
        assert m.q == 1.0
        assert symbol_modified(P_IDENTITY, 0.5, [0.0, 2.0, 0.0]).kind == "deturck"

    def test_stated_threshold_cases(self):
        assert stated_threshold(0.2, 5.0, +1) == 0.05
        assert stated_threshold(-5.0, -0.2, -1) == 0.1

    def test_stated_threshold_is_the_report_threshold(self):
        # the report reads the eigenvalues generalized_eigh returns, to the
        # last bit, at g = I (20 draws) and at random SPD g (200 draws)
        rng = np.random.default_rng(27)
        for i in range(220):
            p = sym_upper(rng)
            if i < 20:
                g = IDENTITY
                eigs = np.linalg.eigvalsh(p.matrix)
            else:
                m = rng.uniform(-1.0, 1.0, (3, 3))
                g = SymTensor3.from_matrix(m @ m.T + 0.5 * np.eye(3))
            vals, _ = generalized_eigh(p, g)
            for case in (1, -1):
                rep = parabolicity(p, g, 0.0, case=case, direction_samples=8)
                assert rep.threshold == stated_threshold(vals[0], vals[-1], case)
                if i < 20:
                    assert rep.threshold == pytest.approx(
                        stated_threshold(eigs[0], eigs[-1], case), rel=1e-13, abs=1e-13)
                p11 = p.components[0]
                rep = parabolicity(p, g, 0.0, case=case, mode="frame",
                                   direction_samples=8)
                assert rep.threshold == stated_threshold(p11, p11, case)

    def test_frame_transform_rejects_indefinite_metric(self):
        g = SymTensor3(np.array([1.0, 0, 0, -1.0, 1.0, 0]))
        with pytest.raises(DomainError):
            to_orthonormal_frame(P_IDENTITY, g)


def rotated_jacobi(angle: float):
    """`curvature._jacobi` with its first two eigenvectors rotated by `angle`
    in their plane and their Rayleigh quotients returned as the eigenvalues."""
    jacobi = curvature._jacobi
    c, s_ = np.cos(angle), np.sin(angle)
    turn = np.array([[c, -s_, 0.0], [s_, c, 0.0], [0.0, 0.0, 1.0]])

    def wrong(comps):
        m, vecs = unpack(comps), np.array(jacobi(comps)[1]).T @ turn
        return np.einsum("ai,ab,bi->i", vecs, m, vecs).tolist(), vecs.T.tolist()
    return wrong


class TestEigensolveCertificate:
    """`curvature._frame_eigh` checks the residuals |F v - lam v| and
    |V^T V - I| of every eigensolve, so each of its three callers refuses
    eigenpairs that are wrong by more than rounding."""

    P = SymTensor3(np.array([1.0, 0.0, 0.0, 2.0, 3.0, 0.0]), "upper")
    CALLERS = {
        "parabolicity": lambda p: parabolicity(p, IDENTITY, 0.1),
        "generalized_eigh": lambda p: generalized_eigh(p, IDENTITY),
        "eigen_frame": lambda p: eigen_frame(p, IDENTITY),
    }

    @pytest.mark.parametrize("caller", CALLERS)
    def test_eigenvectors_rotated_by_a_microradian_raise(self, caller, monkeypatch):
        # every other self-check passes for them: the symbol's blocks at the
        # rotated vectors do have the spectra their Rayleigh quotients give
        self.CALLERS[caller](self.P)
        monkeypatch.setattr(curvature, "_jacobi", rotated_jacobi(1e-6))
        # 1e-6 |lam_2 - lam_1| / max |lam| = 3.3e-7 of the scale
        with pytest.raises(InternalConsistencyError, match=r"max \|lam\|\) is 3\.33\de-07"):
            self.CALLERS[caller](self.P)

    @pytest.mark.parametrize("caller", CALLERS)
    def test_eigenvectors_off_orthonormal_raise(self, caller, monkeypatch):
        jacobi = curvature._jacobi

        def stretched(comps):
            vals, vecs = jacobi(comps)
            return vals, [[(1.0 + 1e-9) * x for x in vecs[0]], *vecs[1:]]
        monkeypatch.setattr(curvature, "_jacobi", stretched)
        # |v_1|^2 - 1 = 2e-9
        with pytest.raises(InternalConsistencyError, match=r"\|V\^T V - I\| is 2\.000e-09"):
            self.CALLERS[caller](self.P)

    @pytest.mark.parametrize("frame", [(1e-8, 1.0, 1e8), (1e-300, 1.0, 1e300), (-1e150, 0.0, 1.0)])
    def test_exact_eigenpairs_pass_at_every_scale(self, frame):
        p = SymTensor3(np.array([frame[0], 0.0, 0.0, frame[1], frame[2], 0.0]), "upper")
        for call in self.CALLERS.values():
            call(p)


@pytest.mark.parametrize("make, message", [
    (lambda: symbol_raw(P_IDENTITY, 0.1, [1.0, 2.0]),
     r"^xi must have shape \(3,\), got shape \(2,\)$"),
    (lambda: symbol_stacks(SymTensor3.identity(), 0.1, np.eye(3)),
     "symbol assembly expects P with upper indices"),
    (lambda: to_orthonormal_frame(SymTensor3.identity(), IDENTITY),
     "frame transform expects a tensor with upper indices"),
    (lambda: parabolicity(P_IDENTITY, IDENTITY, 0.1, mode="every_direction"),
     "mode must be 'frame' or 'all_directions', got 'every_direction'"),
    # directions of the wrong shape used to end in numpy's IndexError
    (lambda: symbol_stacks(P_IDENTITY, 0.1, [1, 2]),
     r"xis must have shape \(N, 3\), got shape \(2,\)"),
    (lambda: symbol_stacks(P_IDENTITY, 0.1, np.ones((2, 4))),
     r"xis must have shape \(N, 3\), got shape \(2, 4\)"),
    # array choices used to end in numpy's "truth value ... is ambiguous"
    (lambda: parabolicity(P_IDENTITY, IDENTITY, 0.1, mode=np.zeros((2, 2))),
     "mode must be 'frame' or 'all_directions'"),
    (lambda: parabolicity(P_IDENTITY, IDENTITY, 0.1, case=np.zeros((2, 2))),
     "case must be \\+1/-1 or 'positive'/'negative'"),
], ids=["covector_shape", "stacks_lower_p", "frame_lower_p", "unknown_mode", "xis_vector",
        "xis_columns", "array_mode", "array_case"])
def test_malformed_symbol_inputs_raise_their_named_error(make, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            make()
