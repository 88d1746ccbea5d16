"""Principal symbol of the linearized flow operator and parabolicity tests.

The linearized right-hand side of the flow dg/dt = -2*eps*h + 2*rho*R*g,
frozen at a point in normal coordinates (g = identity), acts on metric
variations by a second-order operator.  Replacing derivatives with a
covector xi gives a linear map on symmetric 2-tensors; in the component
basis (11, 12, 13, 22, 33, 23) that map is a 6x6 matrix whose spectrum
decides parabolicity.  It is the curvature engine's own linear response,
`verify.engine_symbol`, which the check `symbol/linearisation_matches_engine`
holds both stacks of `symbol_stacks` to within 1e-12 of the symbol scale.

For the positive-curvature flow the eigenvalues in direction xi (unit
length) are {0, 0, 0, q, q, q - 4*rho} with q = xi^T P xi, where P is the
raised Einstein-type tensor.  Adding the standard gauge-fixing vector
field replaces the three zeros with ones, so the gauged system is
strictly parabolic exactly when q > 0 and q - 4*rho > 0 in every
direction.

Every symbol matrix comes from one kernel, `symbol_stacks`: the symbol is
quadratic in xi and linear in P and rho, so a direction enters only
through the components of xi xi^T, contracted with a coefficient tensor
built once per (P, rho).  In the Cholesky frame of g, over unit xi, q
(times the case sign s) ranges over the generalized eigenvalues lambda
of P and is smallest at an eigenvector of P.  So `parabolicity` decides in
closed form from q_min = min(s lambda), over the whole unit sphere to
rounding once `curvature._frame_eigh` has certified the eigenpairs, and
assembles the symbol only at P's eigenvectors v_n, to check it against the
closed form below.  The other two span the plane orthogonal to v_n, so the
frame (v_n, v_{n+1}, v_{n+2}) (indices mod 3) stands in for the Householder
frame that `quotient_blocks` builds at a general direction.

A spectrum is read off a 3x3 block, not a 6x6 matrix.  At a unit xi the
variations split as K(xi) + T(xi): K = {xi X^T + X xi^T} (3-dimensional)
and T the symmetric tensors on the plane orthogonal to xi, its Frobenius
complement.  The raw symbol R maps K to 0, and the gauge term G maps
every variation into K and acts as -1 on K.  So R and the gauge-fixed
S = R - G are block upper-triangular on K + T with the same quotient
block B = E^T W R E on T (E a packed Frobenius-orthonormal basis of T,
W = diag(1, 2, 2, 1, 1, 2) the Frobenius weight of packed components),
and
    spec R = {0, 0, 0} + spec B,    spec S = {1, 1, 1} + spec B.
`quotient_blocks` checks that structure on the assembled stacks before
it returns B, so the structural eigenvalues are exact, not solved for in
the non-normal 6x6 matrix; `verify` keeps the full 6x6 solve as the
reference.

B is symmetric.  A variation m in T has m xi = 0, so xi^T m xi = 0, and
the three terms xi (m P xi)^T + (m P xi) xi^T and tr(P m) xi xi^T of the
raw action lie in K, which the projection onto T drops.  What is left is
q m - 2 rho tr(m) I with q = xi^T P xi.  The identity splits as xi xi^T
in K plus pi = I - xi xi^T in T, and tr m = <pi, m> on T, so
    B = q 1 - 2 rho pi pi^T
in the basis E, with |pi|^2 = 2: symmetric, with spec B = {q, q, q -
4 rho}.  In a frame (xi, e, f), the Householder frame of `quotient_blocks`
or the frame (v_n, v_{n+1}, v_{n+2}) of an eigenvector v_n, pi has the
T-coordinates (1, 1, 0), so B has the diagonal (q - 2 rho, q - 2 rho, q),
-2 rho at (1, 2) and (2, 1) and zeros elsewhere.  `_check_closed_form`
compares B with that entry by entry, within STRUCTURE_TOL / 3 of the
symbol scale: a 3x3 matrix has |M|_2 <= 3 max |M_ij|, so by Weyl's
inequality the spectrum of B is then within STRUCTURE_TOL of {q, q,
q - 4 rho}, and a block rotated within its spectrum fails too.
`parabolicity` runs it at P's eigenvectors with q = s lambda_n, and
`symbol_raw` and `symbol_modified` at their one direction with the
Rayleigh quotient q = xi^T P xi / xi^T xi, which `spectrum` then reads:
no eigenproblem is solved for a spectrum, and the library's one
eigensolve is `curvature._frame_eigh`'s.  The skew part (B - B^T) / 2 is
rounding alone; by Bendixson's theorem its norm bounds the imaginary part
a general solve of B could return, and over the symbol scale it is the
`max_imag_residue` a report carries.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bounds import (DEFAULT_DIRECTION_SAMPLES, MAX_DIRECTION_SAMPLES, finite_real, integer,
                     is_bool, stated_threshold)
from .curvature import (COMPONENT_ORDER, STRUCTURE_TOL, SymTensor3, _frame_eigh, _real_array,
                        _tensor, pack, unpack)
from .errors import DomainError, InternalConsistencyError

IMAG_RESIDUE_TOL = 1e-10
STRICTNESS_FLOOR = 1e-9
_SYMBOL_OVERFLOW = "symbol matrix entries overflow: P or rho is too large"
_ROWS, _COLS = np.array(COMPONENT_ORDER).T


class ComplexEigenvalueWarning(RuntimeWarning):
    """A nominally real spectrum carried imaginary residue above tolerance.

    Nothing raises it now: `spectrum` solves nothing, and a quotient block
    that passes `_check_closed_form` has a skew part, the bound on that
    residue, about 170 times below IMAG_RESIDUE_TOL of the symbol scale.
    The name stays for callers that still filter it, as the benchmark's
    parabolicity check does until ROADMAP item 4 removes that filter.
    """


@dataclass(frozen=True)
class SymbolMatrix:
    """6x6 matrix of a symbol operator on symmetric 2-tensors.

    Rows and columns follow the component order (11, 12, 13, 22, 33, 23).
    `kind` is 'raw' for the ungauged operator, 'deturck' for the
    gauge-fixed one.  `xi` is the unit covector the entries were assembled
    at, and `q` = xi^T P xi there (P signed by the case for 'deturck'):
    the quotient block at xi passed its check against q 1 - 2 rho pi pi^T,
    so `spectrum` reads the eigenvalues off q.
    """

    entries: np.ndarray
    kind: str
    xi: np.ndarray
    rho: float
    q: float

    def apply(self, tensor: np.ndarray) -> np.ndarray:
        """Act on a symmetric 3x3 tensor and return the symmetric result."""
        return unpack(self.entries @ pack(tensor))


def _symbol_data(p: SymTensor3, rho) -> float:
    """Check the data a symbol is assembled from; returns rho as a float."""
    if _tensor(p, None, "p").variance != "upper":
        raise DomainError("symbol assembly expects P with upper indices")
    return finite_real(rho, "rho")


def _coefficients() -> tuple[np.ndarray, np.ndarray]:
    """Coefficient tensors of the raw symbol and of the gauge term.

    With B_k the symmetric matrix of canonical component k, P = sum_j p_j B_j
    and V = xi xi^T = sum_k w_k B_k, the actions of `symbol_stacks` read
        raw:   tr(P V) m - V P m - m P V + tr(P m) V + 2 rho (tr(m V) - tr V tr m) I
        gauge: tr(m) V - V m - m V.
    Evaluating both on m = B_c and packing gives the entries [.., k, r, c];
    the raw tensor is indexed by (p_1..p_6, rho) first, flattened to
    (7, 216), the gauge tensor to (6, 36).
    """
    b = np.zeros((6, 3, 3))
    b[np.arange(6), _ROWS, _COLS] = b[np.arange(6), _COLS, _ROWS] = 1.0
    tr_bb = np.einsum("jab,kba->jk", b, b)
    tr_b = np.einsum("kaa->k", b)
    p_part = (np.einsum("jk,cab->jkcab", tr_bb, b)
              - np.einsum("kab,jbd,cde->jkcae", b, b, b)
              - np.einsum("cab,jbd,kde->jkcae", b, b, b)
              + np.einsum("jc,kab->jkcab", tr_bb, b))
    rho_part = 2.0 * np.einsum("kc,ab->kcab", tr_bb - np.outer(tr_b, tr_b), np.eye(3))
    gauge = (np.einsum("c,kab->kcab", tr_b, b)
             - np.einsum("kab,cbd->kcad", b, b)
             - np.einsum("cab,kbd->kcad", b, b))
    raw = np.concatenate([p_part, rho_part[None]])[..., _ROWS, _COLS]
    return (raw.transpose(0, 1, 3, 2).reshape(7, 216),
            gauge[..., _ROWS, _COLS].transpose(0, 2, 1).reshape(6, 36))


_RAW_COEFF, _GAUGE_COEFF = _coefficients()


def symbol_stacks(p: SymTensor3, rho: float, xis) -> tuple[np.ndarray, np.ndarray]:
    """Raw symbols and gauge terms in N directions, as two (N, 6, 6) stacks.

    Row n of `xis` (shape (N, 3)) is used as given, without normalizing,
    so both stacks are exactly quadratic in it.  The raw action on a
    variation m at xi is
        (xi^T P xi) m - xi (m P xi)^T - (m P xi) xi^T + tr(P m) xi xi^T
        + 2 rho (xi^T m xi - |xi|^2 tr m) I,
    the gauge term m -> tr(m) xi xi^T - xi (m xi)^T - (m xi) xi^T; the
    gauge-fixed symbol is their difference.  One matrix product with the
    components of xi xi^T assembles every matrix of both stacks, formed
    quietly: an entry that overflows is a DomainError, not a numpy warning.
    """
    rho = _symbol_data(p, rho)
    weights = np.array([*p.values, rho])
    v = np.array(_real_array(xis, (None, 3), "xis")).reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = np.concatenate([(weights @ _RAW_COEFF).reshape(6, 36), _GAUGE_COEFF], axis=1)
        stacks = ((v[:, _ROWS] * v[:, _COLS]) @ coeff).reshape(len(v), 2, 6, 6)
    if not np.isfinite(stacks).all():
        raise DomainError(_SYMBOL_OVERFLOW)
    return stacks[:, 0], stacks[:, 1]


def _one_direction(p: SymTensor3, rho, xi):
    """The unit covector v along xi, the raw symbol and gauge term there, and
    the Rayleigh quotient q = v^T P v / v^T v, once the quotient block at v
    has passed `_check_closed_form`.  Entries or a q that overflow end as a
    DomainError, without numpy's overflow warnings first."""
    coords = _real_array(xi, (3,), "xi")
    if not any(coords):
        raise DomainError("xi must be nonzero")
    # largest |component| first: np.linalg.norm's sqrt(v . v) neither over- nor underflows
    v = np.array(coords) / max(map(abs, coords))
    v /= math.sqrt(v.dot(v))
    raw, gauge = symbol_stacks(p, rho, v[None])
    blocks, raw_scale = quotient_blocks(raw, gauge, v[None])
    with np.errstate(over="ignore", invalid="ignore"):
        q = float(v @ p.matrix @ v) / float(v @ v)
    _check_closed_form(blocks, raw_scale, [q], float(rho), "symbol self-check: the block at xi")
    return v, raw[0], gauge[0], q


def symbol_raw(p: SymTensor3, rho: float, xi) -> SymbolMatrix:
    """Symbol of the ungauged linearized operator at g = identity.

    The action on a variation m is the raw action of `symbol_stacks` at xi
    rescaled to unit Euclidean length.
    """
    v, raw, _, q = _one_direction(p, rho, xi)
    return SymbolMatrix(raw, "raw", v, float(rho), q)


def symbol_modified(p: SymTensor3, rho: float, xi, case: int = +1) -> SymbolMatrix:
    """Gauge-fixed symbol: raw symbol minus the gauge correction.

    `case` is the sign of the curvature term in the flow: +1 for the
    positive-curvature flow -2h + 2 rho R g, -1 for the negative-curvature
    flow +2h + 2 rho R g.  The sign folds into P, leaving the rho term
    untouched.  At xi = e1 the spectrum is {1, 1, 1, s P11, s P11,
    s P11 - 4 rho} with s = case.
    """
    v, raw, gauge, q = _one_direction(_signed(p, case), rho, xi)
    return SymbolMatrix(raw - gauge, "deturck", v, float(rho), q)


def _signed(p: SymTensor3, case) -> SymTensor3:
    """P times the sign of `case`: the P of the gauge-fixed symbol."""
    sign = case_sign(case)
    return SymTensor3._made([sign * x for x in _tensor(p, None, "p").values], p.variance)


def case_sign(case) -> int:
    """+1 or -1 from `case`; a bool, Python's or numpy's, is refused though
    it compares equal to 1 or 0, and so is an array of more than one entry,
    whose == compares entry by entry."""
    if not is_bool(case) and getattr(case, "size", 1) == 1:
        if case in (+1, "positive"):
            return +1
        if case in (-1, "negative"):
            return -1
    raise DomainError(f"case must be +1/-1 or 'positive'/'negative', got {case!r}")


def _skew_norms(blocks: np.ndarray) -> np.ndarray:
    """Spectral norm of the skew part B / 2 - B^T / 2 of each 3x3 block B,
    halved first so that nothing overflows: a 3x3 skew matrix with entries
    a, b, c above its diagonal has eigenvalues 0 and +-i |(a, b, c)|."""
    half = 0.5 * blocks
    skew = half - half.swapaxes(-1, -2)
    return np.hypot(np.hypot(skew[..., 0, 1], skew[..., 0, 2]), skew[..., 1, 2])


def spectrum(m: SymbolMatrix) -> np.ndarray:
    """Eigenvalues of a symbol matrix, sorted ascending: {0, 0, 0, q, q,
    q - 4 rho} for the raw symbol and {1, 1, 1, q, q, q - 4 rho} for the
    gauge-fixed one, with q = m.q (module docstring).  Nothing is solved
    for: the quotient block at m.xi passed its closed-form check when m was
    assembled, which puts its spectrum within STRUCTURE_TOL of the symbol
    scale of {q, q, q - 4 rho}.
    """
    structural = 0.0 if m.kind == "raw" else 1.0
    return np.sort([structural] * 3 + [m.q, m.q, m.q - 4.0 * m.rho])


@dataclass(frozen=True)
class DirectionReport:
    """At a covector xi, kept as given, the raw symbol of the case-signed P and
    the gauge-fixed one, then their spectra: the `symbol` command's order."""

    xi: tuple[float, float, float]
    raw_matrix: np.ndarray
    deturck_matrix: np.ndarray
    raw_spectrum: np.ndarray
    deturck_spectrum: np.ndarray


def direction_report(p: SymTensor3, rho: float, xi, case: int = +1) -> DirectionReport:
    """The DirectionReport of (P, rho, case) at xi: `symbol_raw` of the
    case-signed P and `symbol_modified`, from one assembly and check."""
    v, raw, gauge, q = _one_direction(_signed(p, case), rho, xi)
    raw = SymbolMatrix(raw, "raw", v, float(rho), q)
    modified = SymbolMatrix(raw.entries - gauge, "deturck", v, float(rho), q)
    return DirectionReport(tuple(_real_array(xi, (3,), "xi")), raw.entries, modified.entries,
                           spectrum(raw), spectrum(modified))


def _check_closed_form(blocks: np.ndarray, raw_scale: float, q: list[float], rho: float,
                       where: str) -> None:
    """Compare each quotient block B_n with q_n 1 - 2 rho pi pi^T, pi = (1, 1,
    0) in T's coordinates, entry by entry in units of the symbol scale
    raw_scale, where nothing overflows (module docstring).  A non-finite
    entry or q_n is a DomainError; an entry off by more than STRUCTURE_TOL
    / 3 an InternalConsistencyError that names `where`."""
    entries = (blocks / raw_scale).ravel().tolist()
    if not all(map(math.isfinite, entries + q)):
        raise DomainError(_SYMBOL_OVERFLOW)
    two_rho = 2.0 * (rho / raw_scale)
    closed = []
    for qn in [e / raw_scale for e in q]:
        closed += (qn - two_rho, -two_rho, 0.0, -two_rho, qn - two_rho, 0.0, 0.0, 0.0, qn)
    mismatch = max(map(abs, map(operator.sub, entries, closed)))
    # |B - C|_2 <= 3 max |B - C| for 3x3 blocks, so by Weyl's inequality the
    # spectra of B_n are within STRUCTURE_TOL of {q, q, q - 4 rho}
    if not mismatch <= STRUCTURE_TOL / 3.0:
        raise InternalConsistencyError(
            f"{where} is off q 1 - 2 rho pi pi^T by {mismatch:.3e} of the symbol scale")


# Pairs (a, b) of the frame (xi, e, f) whose packed a b^T + b a^T, times
# the factor that makes it Frobenius-unit, span K(xi) (first three) and
# T(xi) (last three); pack(a) @ (_FROBENIUS * pack(b)) = tr(a b).
_PAIR_A = np.array([0, 0, 0, 1, 2, 1])
_PAIR_B = np.array([1, 2, 0, 1, 2, 2])
_PAIR_NORM = np.array([0.5**0.5, 0.5**0.5, 0.5, 0.5, 0.5, 0.5**0.5])
# [:, slot, pair]: the flat frame indices of a_r, b_c, a_c and b_r, with
# (r, c) the canonical slot, so a b^T + b a^T packs to a_r b_c + a_c b_r
_PAIR_GATHER = np.stack([3 * _PAIR_A + _ROWS[:, None], 3 * _PAIR_B + _COLS[:, None],
                         3 * _PAIR_A + _COLS[:, None], 3 * _PAIR_B + _ROWS[:, None]])
_FROBENIUS = np.array([1.0, 2.0, 2.0, 1.0, 1.0, 2.0])


# Row n: the frame (v_n, v_{n+1}, v_{n+2}), cyclically, of P's eigenvector n
_CYCLIC = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def _householder_frames(xis: np.ndarray) -> np.ndarray:
    """(N, 3, 3) orthonormal frames (xi, e, f), by rows, for unit rows xi.

    e and f are the first two columns of the Householder reflection
    I - v v^T / (1 + |xi_3|), v = xi + sign(xi_3) e3, which maps xi to
    -sign(xi_3) e3; its other columns are therefore orthogonal to xi.
    """
    v = xis.copy()
    v[:, 2] += np.where(xis[:, 2] >= 0.0, 1.0, -1.0)
    frames = np.empty((len(xis), 3, 3))
    frames[:, 0] = xis
    frames[:, 1:] = (v[:, :2] / (1.0 + np.abs(xis[:, 2:])))[:, :, None] * -v[:, None]
    frames[:, 1, 0] += 1.0
    frames[:, 2, 1] += 1.0
    return frames


def _split_bases(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, 6, 6) packed Frobenius-orthonormal bases of K(xi) + T(xi), K in
    columns 0-2, from orthonormal frames (xi, e, f) by rows, and the
    (N, 3, 6) T-duals E^T W that project a packed variation onto T's
    coordinates."""
    factors = frames.reshape(len(frames), 9)[:, _PAIR_GATHER]
    basis = (factors[:, 0] * factors[:, 1] + factors[:, 2] * factors[:, 3]) * _PAIR_NORM
    return basis, basis[..., 3:].transpose(0, 2, 1) * _FROBENIUS


def _frame_blocks(raw: np.ndarray, gauge: np.ndarray,
                  frames: np.ndarray) -> tuple[np.ndarray, float]:
    """The checked quotient blocks and raw scale of `quotient_blocks`, in
    the given orthonormal frames (xi, e, f), whose rows xi are the
    directions the stacks were assembled at."""
    basis, t_dual = _split_bases(frames)
    raw_scale = max(1.0, float(np.abs(raw).max()))
    raw_basis = (raw / raw_scale) @ basis
    gauge_basis = gauge @ basis
    residuals = (
        ("raw symbol on K", abs(raw_basis[..., :3]).max()),
        ("gauge term on K plus identity", abs(gauge_basis[..., :3] + basis[..., :3]).max()),
        ("gauge term on T, projected to T", abs(t_dual @ gauge_basis[..., 3:]).max()),
    )
    for name, residual in residuals:
        if residual > STRUCTURE_TOL:
            raise InternalConsistencyError(
                f"symbol structure broken: {name} has residual {residual:.3e} "
                f"(tol {STRUCTURE_TOL:.0e})")
    return raw_scale * (t_dual @ raw_basis[..., 3:]), raw_scale


def quotient_blocks(raw: np.ndarray, gauge: np.ndarray, xis) -> tuple[np.ndarray, float]:
    """The 3x3 block B that the raw and gauge-fixed symbols share, and the
    scale of the raw stack.

    `raw` and `gauge` are `symbol_stacks` at the unit rows of `xis`.  In
    direction n, spec raw[n] = {0, 0, 0} + spec B[n] and spec (raw[n] -
    gauge[n]) = {1, 1, 1} + spec B[n], and B[n] is symmetric up to rounding
    (module docstring).  B is taken in the basis E of T(xi) built from the
    Householder frame (xi, e, f) of each xi (`_householder_frames`);
    `parabolicity` runs the same checks in the frames of P's eigenvectors,
    whose B differs from this one by a rotation of T's basis, so only in
    rounding.  Three residuals check the structure that makes this true:
    |R K| (R maps K to 0), |G K + K| (G is -1 on K) and |E^T W G E| (G
    maps T into K).  R enters divided by raw_scale = max(1, max |raw|), so
    none of them overflows; G is already of order 1 at unit xi.  A
    residual above STRUCTURE_TOL raises InternalConsistencyError.
    """
    xis = np.array(_real_array(xis, (None, 3), "xis")).reshape(-1, 3)
    return _frame_blocks(raw, gauge, _householder_frames(xis))


def unit_directions(n: int) -> np.ndarray:
    """n unit covectors from the Fibonacci sphere lattice (deterministic);
    n must be a positive integer (not a bool)."""
    n = integer(n, "the number of directions")
    if n < 1:
        raise DomainError("need at least one direction")
    i = np.arange(n) + 0.5
    polar = np.arccos(1.0 - 2.0 * i / n)
    azimuth = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.column_stack([
        np.sin(polar) * np.cos(azimuth),
        np.sin(polar) * np.sin(azimuth),
        np.cos(polar),
    ])


def to_orthonormal_frame(p: SymTensor3, g: SymTensor3) -> SymTensor3:
    """Components L^T P L of an upper-index tensor in the g-orthonormal
    Cholesky frame of g = L L^T (`curvature._frame_eigh`), where the metric
    is the identity that the symbol assembly assumes; they keep the
    generalized eigenvalues of P relative to g."""
    if _tensor(p, None, "p").variance != "upper":
        raise DomainError("frame transform expects a tensor with upper indices")
    return SymTensor3._made(_frame_eigh(p, g)[0], "upper")


@dataclass(frozen=True)
class ParabolicityReport:
    """Verdict and threshold bookkeeping for one (P, g, rho, case) query, in
    the order the `symbol` command writes them: the query, then the rest.

    `threshold` is the stated bound on rho for the requested case and mode
    (`bounds.stated_threshold`); `margin` = threshold - rho.  A positive
    margin implies a strict verdict only in the positive all_directions
    case with P positive definite.  Elsewhere it does not: in the negative
    case P = -I, rho = 0.3 has margin +0.2 and verdict not_parabolic, and
    an indefinite P or the frame mode's P11 can do the same in the positive
    case.  `spectral_margin` is min(mu, mu - 4 rho) / 4 with mu the minimum
    of s lambda over the generalized eigenvalues lambda of P: the verdict
    is strict exactly when 4 * spectral_margin clears the positivity floor.
    It equals `margin` in the positive all_directions case with rho >= 0
    and differs from it in the negative case, whose stated bound is
    -lambda_max / 2.

    The gauge-fixed spectrum at a unit xi is {1, 1, 1, q, q, q - 4 rho}
    (module docstring), so over all directions `min_modified_eig` = min(1,
    q_min, q_min - 4 rho) and `min_raw_eig` = min(0, q_min, q_min - 4 rho).
    `critical_direction` is the unit eigenvector of q_min in g-orthonormal
    frame components, and `deciding_branch` names what sets
    `min_modified_eig`: "gauge" (the structural 1), "q" or "q - 4 rho".
    `max_imag_residue` is the largest norm of the skew part (B - B^T) / 2
    at P's eigenvectors over the symbol scale max(1, max |raw|) there; by
    Bendixson's theorem it bounds the imaginary part a general solve of B
    could return.  B is taken in the frames of P's eigenvectors, so this
    skew part, which is rounding alone, can differ in its last bits from
    that of `quotient_blocks` at the same direction.  `direction_samples`
    echoes the query's option, which decides nothing.
    """

    rho: float
    case: str
    mode: str
    threshold: float
    margin: float
    spectral_margin: float
    verdict: str
    min_modified_eig: float
    min_raw_eig: float
    direction_samples: int
    max_imag_residue: float
    critical_direction: tuple[float, float, float]
    deciding_branch: str


def parabolicity(
    p: SymTensor3,
    g: SymTensor3,
    rho: float,
    case: int = +1,
    mode: str = "all_directions",
    direction_samples: int = DEFAULT_DIRECTION_SAMPLES,
) -> ParabolicityReport:
    """Classify the flow linearization as strictly/weakly/not parabolic.

    mode='frame' reads the threshold off the literal 11-component of P
    as supplied; mode='all_directions' uses the direction-uniform bound
    from the generalized eigenvalues of P relative to g (minimum / 4 for
    the positive case, -maximum / 2 for the negative case).  The verdict
    itself comes from q_min = min(s lambda) (module docstring).  The
    quotient blocks at P's eigenvectors v_n pass the structure checks of
    `quotient_blocks`, in the frames (v_n, v_{n+1}, v_{n+2}) those
    eigenvectors already form, and `_check_closed_form` with q_n = s
    lambda_n.  The eigenpairs themselves are certified by `_frame_eigh`,
    the one eigensolve of a query.
    `direction_samples`, an integer from 1 to MAX_DIRECTION_SAMPLES, is
    only echoed in the report.
    """
    sign = case_sign(case)
    if not (isinstance(mode, str) and mode in ("frame", "all_directions")):
        raise DomainError(f"mode must be 'frame' or 'all_directions', got {mode!r}")
    samples = integer(direction_samples, "direction_samples")
    if not 1 <= samples <= MAX_DIRECTION_SAMPLES:
        raise DomainError(f"direction_samples must be between 1 and "
                          f"{MAX_DIRECTION_SAMPLES}, got {direction_samples!r}")
    rho = _symbol_data(p, rho)

    frame, eigs, gen_vecs, _ = _frame_eigh(p, g)
    lo, hi = (p.values[0],) * 2 if mode == "frame" else (eigs[0], eigs[-1])
    threshold = stated_threshold(lo, hi, sign)
    q = [sign * e for e in eigs]
    q_min = min(q)
    critical = q.index(q_min)

    # unit eigenvectors by rows, through numpy's norm along axis 1 written out
    rows = np.array(gen_vecs)
    vecs = rows / np.sqrt(np.add.reduce(rows * rows, axis=1, keepdims=True))
    signed = SymTensor3._made([sign * x for x in frame], "upper")
    # P's eigenvectors, taken cyclically, frame K(v_n) + T(v_n) at each v_n.
    # P or rho large enough to overflow the symbol entries ends in the
    # DomainError of symbol_stacks, without numpy's overflow warnings first
    blocks, raw_scale = _frame_blocks(*symbol_stacks(signed, rho, vecs), vecs[_CYCLIC])
    _check_closed_form(blocks, raw_scale, q, rho,
                       "parabolicity self-check: a quotient block at P's eigenvectors")
    skew_norms = _skew_norms(blocks)
    lowest = min(q_min, q_min - 4.0 * rho)
    min_raw, min_modified = min(0.0, lowest), min(1.0, lowest)
    branch = "gauge" if lowest >= 1.0 else "q - 4 rho" if rho > 0.0 else "q"

    # weak: nothing below the raw spectrum's three structural zeros, up to a
    # tolerance scaled like the symbol at P's eigenvectors (at the weak
    # boundary the closed form carries only rounding error, far below it)
    weak_floor = max(STRICTNESS_FLOOR, 1e-7 * raw_scale)
    if min_modified >= STRICTNESS_FLOOR:
        verdict = "strictly_parabolic_deturck"
    elif min_raw >= -weak_floor:
        verdict = "weakly_parabolic"
    else:
        verdict = "not_parabolic"

    return ParabolicityReport(
        rho=rho,
        case="positive" if sign > 0 else "negative",
        mode=mode,
        threshold=float(threshold),
        margin=float(threshold - rho),
        spectral_margin=lowest / 4.0,
        verdict=verdict,
        min_modified_eig=min_modified,
        min_raw_eig=min_raw,
        direction_samples=samples,
        # the skew part bounds the imaginary residue; it is tracked, not
        # warned about per direction
        max_imag_residue=float(skew_norms.max()) / raw_scale,
        critical_direction=tuple(vecs[critical].tolist()),
        deciding_branch=branch,
    )
