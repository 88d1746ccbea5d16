"""Principal symbol of the linearized flow operator and parabolicity tests.

The linearized right-hand side of the flow dg/dt = -2*eps*h + 2*rho*R*g,
frozen at a point in normal coordinates (g = identity), acts on metric
variations by a second-order operator.  Replacing derivatives with a
covector xi gives a linear map on symmetric 2-tensors; in the component
basis (11, 12, 13, 22, 33, 23) that map is a 6x6 matrix whose spectrum
decides parabolicity.

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
of P and is smallest at an eigenvector of P.  `parabolicity` takes P's
frame components and eigenpairs from one call of the solver behind
`curvature.generalized_eigh`, so its threshold reads that function's
eigenvalues, and decides in closed form from q_min = min(s lambda).  It
assembles the symbol only at P's three eigenvectors, to check its
spectra there against the closed form, and checks q_min against s q over
a cached Fibonacci lattice.  At an eigenvector v_n the other two already
span the plane orthogonal to it, so the frame (v_n, v_{n+1}, v_{n+2})
(indices mod 3) stands in for the Householder frame that `quotient_blocks`
builds at a general direction.  Over the lattice, s q is one product
with a cached table of the directions' packed xi xi^T, Frobenius-weighted
so that q = table @ pack(s P).

A spectrum takes one 3x3 eigenproblem, not a 6x6 one.  At a unit xi the
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
it returns B.  Every spectrum, `parabolicity`'s and `spectrum`'s, is read
off B, so the structural eigenvalues are exact, not solved for in the
non-normal 6x6 matrix; `verify` keeps the full 6x6 solve as the reference.

B is symmetric.  A variation m in T has m xi = 0, so xi^T m xi = 0, and
the three terms xi (m P xi)^T + (m P xi) xi^T and tr(P m) xi xi^T of the
raw action lie in K, which the projection onto T drops.  What is left is
q m - 2 rho tr(m) I with q = xi^T P xi.  The identity splits as xi xi^T
in K plus pi = I - xi xi^T in T, and tr m = <pi, m> on T, so
    B = q 1 - 2 rho pi pi^T
in the basis E, with |pi|^2 = 2: symmetric, with spec B = {q, q, q -
4 rho}.  Every spectrum is therefore taken with the symmetric solver
`eigvalsh` on the symmetric part (B + B^T) / 2; the skew part (B - B^T) / 2
is rounding alone.  By Bendixson's theorem every eigenvalue of B lies
within |(B - B^T) / 2|_2 of the real axis, so that norm bounds the
imaginary residue a general solve of B could return.  Over the symbol
scale, it is the `max_imag_residue` a report carries, and `spectrum`
warns when it exceeds IMAG_RESIDUE_TOL of the entries.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import DEFAULT_DIRECTION_SAMPLES, MAX_DIRECTION_SAMPLES, stated_threshold
from .curvature import _COLS, _ROWS, SymTensor3, _frame_eigh, pack, unpack
from .errors import DomainError, InternalConsistencyError

IMAG_RESIDUE_TOL = 1e-10
STRICTNESS_FLOOR = 1e-9
STRUCTURE_TOL = 1e-12


class ComplexEigenvalueWarning(RuntimeWarning):
    """A nominally real spectrum carried imaginary residue above tolerance."""


@dataclass(frozen=True)
class SymbolMatrix:
    """6x6 matrix of a symbol operator on symmetric 2-tensors.

    Rows and columns follow the component order (11, 12, 13, 22, 33, 23).
    `kind` is 'raw' for the ungauged operator, 'deturck' for the
    gauge-fixed one.  `xi` is the unit covector the entries were assembled
    at, and `block` the 3x3 quotient block B that `quotient_blocks`
    checked there, which `spectrum` reads the eigenvalues from.
    """

    entries: np.ndarray
    kind: str
    xi: np.ndarray
    rho: float
    block: np.ndarray

    def apply(self, tensor: np.ndarray) -> np.ndarray:
        """Act on a symmetric 3x3 tensor and return the symmetric result."""
        return unpack(self.entries @ pack(tensor))


def _covector(xi) -> np.ndarray:
    v = np.asarray(xi, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"covector must have 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)) or not v.any():
        raise DomainError("covector must be finite and nonzero")
    return v


def _symbol_data(p: SymTensor3, rho) -> float:
    """Check the data a symbol is assembled from; returns rho as a float."""
    if p.variance != "upper":
        raise DomainError("symbol assembly expects P with upper indices")
    if not all(map(math.isfinite, p.components.tolist())):
        raise DomainError("P components must be finite")
    rho = float(rho)
    if not math.isfinite(rho):
        raise DomainError(f"rho must be finite, got {rho!r}")
    return rho


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
    components of xi xi^T assembles every matrix of both stacks.
    """
    weights = np.append(p.components, _symbol_data(p, rho))
    v = np.asarray(xis, dtype=float)
    coeff = np.hstack([(weights @ _RAW_COEFF).reshape(6, 36), _GAUGE_COEFF])
    stacks = ((v[:, _ROWS] * v[:, _COLS]) @ coeff).reshape(len(v), 2, 6, 6)
    return stacks[:, 0], stacks[:, 1]


def _one_direction(p: SymTensor3, rho, xi):
    """The unit covector along xi, and the raw symbol, gauge term and
    quotient block there.  Entries that overflow end as the DomainError of
    `_block_spectra` in `spectrum`, without numpy's overflow warnings first."""
    xi_v = _covector(xi)
    # largest |component| first: the norm neither over- nor underflows
    v = xi_v / np.abs(xi_v).max()
    v /= np.linalg.norm(v)
    with np.errstate(over="ignore", invalid="ignore"):
        raw, gauge = symbol_stacks(p, rho, v[None])
        blocks, _ = quotient_blocks(raw, gauge, v[None])
    return v, raw[0], gauge[0], blocks[0]


def symbol_raw(p: SymTensor3, rho: float, xi) -> SymbolMatrix:
    """Symbol of the ungauged linearized operator at g = identity.

    The action on a variation m is the raw action of `symbol_stacks` at xi
    rescaled to unit Euclidean length.
    """
    v, raw, _, block = _one_direction(p, rho, xi)
    return SymbolMatrix(raw, "raw", v, float(rho), block)


def symbol_modified(p: SymTensor3, rho: float, xi, case: int = +1) -> SymbolMatrix:
    """Gauge-fixed symbol: raw symbol minus the gauge correction.

    `case` is the sign of the curvature term in the flow: +1 for the
    positive-curvature flow -2h + 2 rho R g, -1 for the negative-curvature
    flow +2h + 2 rho R g.  The sign folds into P, leaving the rho term
    untouched.  At xi = e1 the spectrum is {1, 1, 1, s P11, s P11,
    s P11 - 4 rho} with s = case.
    """
    p_eff = SymTensor3(case_sign(case) * p.components, p.variance)
    v, raw, gauge, block = _one_direction(p_eff, rho, xi)
    return SymbolMatrix(raw - gauge, "deturck", v, float(rho), block)


def case_sign(case) -> int:
    if case in (+1, "positive"):
        return +1
    if case in (-1, "negative"):
        return -1
    raise DomainError(f"case must be +1/-1 or 'positive'/'negative', got {case!r}")


def _block_spectra(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the symmetric part of each 3x3 block, and the
    spectral norm of its skew part, which bounds the imaginary part of every
    eigenvalue of the block (Bendixson; module docstring).  Entries that
    overflowed to inf or nan (P or rho beyond what the symbol's products keep
    finite) are a DomainError: `eigvalsh` would return nan for them."""
    if not np.isfinite(blocks).all():
        raise DomainError("symbol matrix entries overflow: P or rho is too large")
    # halves first, so neither the sum nor the difference overflows
    half, half_t = 0.5 * blocks, 0.5 * blocks.swapaxes(-1, -2)
    skew = half - half_t
    # a 3x3 skew matrix with entries a, b, c above its diagonal has
    # eigenvalues 0 and +-i |(a, b, c)|
    skew_norm = np.hypot(np.hypot(skew[..., 0, 1], skew[..., 0, 2]), skew[..., 1, 2])
    return np.linalg.eigvalsh(half + half_t), skew_norm


def spectrum(m: SymbolMatrix) -> np.ndarray:
    """Eigenvalues of a symbol matrix, sorted ascending.

    They are read off the checked quotient block: {0, 0, 0} + spec B for
    the raw symbol and {1, 1, 1} + spec B for the gauge-fixed one (module
    docstring), so the structural eigenvalues are exact and only B's
    three are solved for, as the eigenvalues of its symmetric part.  A
    skew part of B above 1e-10 max(1, max |entries|), which bounds the
    imaginary residue a general solve could return, is surfaced as a
    ComplexEigenvalueWarning rather than dropped silently.
    """
    vals, skew_norm = _block_spectra(m.block)
    if skew_norm > IMAG_RESIDUE_TOL * max(1.0, float(np.abs(m.entries).max())):
        warnings.warn(
            f"symbol spectrum has imaginary residue up to {float(skew_norm):.3e} "
            f"(the skew part of its quotient block)",
            ComplexEigenvalueWarning,
            stacklevel=2,
        )
    structural = 0.0 if m.kind == "raw" else 1.0
    return np.sort(np.append(np.full(3, structural), vals))


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
        ("raw symbol on K", np.abs(raw_basis[..., :3]).max()),
        ("gauge term on K plus identity", np.abs(gauge_basis[..., :3] + basis[..., :3]).max()),
        ("gauge term on T, projected to T", np.abs(t_dual @ gauge_basis[..., 3:]).max()),
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
    residual above STRUCTURE_TOL raises InternalConsistencyError.  Entries
    that overflowed to inf or nan make every residual nan, which passes
    here and reaches `_block_spectra` in B.
    """
    return _frame_blocks(raw, gauge, _householder_frames(np.asarray(xis, dtype=float)))


def unit_directions(n: int) -> np.ndarray:
    """n unit covectors from the Fibonacci sphere lattice (deterministic)."""
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


# 24 B per direction per entry: four entries hold at most 4.8 MB at
# MAX_DIRECTION_SAMPLES (bounds.py)
@functools.lru_cache(maxsize=4)
def _directions(n: int) -> np.ndarray:
    """The normalised `unit_directions(n)`, read-only: the lattice that
    `parabolicity` cross-checks q_min over."""
    directions = unit_directions(n)
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    directions.flags.writeable = False
    return directions


# 48 B per direction per entry, built a column at a time so that building
# it adds 16 B per direction at most: four entries hold at most 9.6 MB at
# MAX_DIRECTION_SAMPLES, on top of the 4.8 MB of `_directions` (bounds.py)
@functools.lru_cache(maxsize=4)
def _lattice_table(n: int) -> np.ndarray:
    """Row k: the packed xi xi^T of lattice direction k (`_directions`)
    times the Frobenius weight W, read-only, so that xi^T M xi is
    `_lattice_table(n) @ pack(M)` for every symmetric M."""
    directions = _directions(n)
    table = np.empty((n, 6))
    for k, (r, c, w) in enumerate(zip(_ROWS, _COLS, _FROBENIUS)):
        table[:, k] = w * directions[:, r] * directions[:, c]
    table.flags.writeable = False
    return table


def to_orthonormal_frame(p: SymTensor3, g: SymTensor3) -> SymTensor3:
    """Components L^T P L of an upper-index tensor in the g-orthonormal
    Cholesky frame of g = L L^T (`curvature._frame_eigh`), where the metric
    is the identity that the symbol assembly assumes; they keep the
    generalized eigenvalues of P relative to g."""
    if p.variance != "upper":
        raise DomainError("frame transform expects a tensor with upper indices")
    return SymTensor3(_frame_eigh(p, g)[0], "upper")


@dataclass(frozen=True)
class ParabolicityReport:
    """Verdict and threshold bookkeeping for one (P, g, rho, case) query.

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
    echoes the size of the lattice q_min was checked over; it changes no
    other field.
    """

    case: str
    mode: str
    threshold: float
    rho: float
    verdict: str
    margin: float
    spectral_margin: float
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
    eigenvectors already form.  Two more self-checks raise
    InternalConsistencyError beyond STRUCTURE_TOL of the symbol scale: the
    blocks must have the spectra {s lambda_i, s lambda_i, s lambda_i -
    4 rho}, and s q must not fall below q_min over `direction_samples` (at
    most MAX_DIRECTION_SAMPLES) lattice directions, whose number changes
    no result.
    """
    sign = case_sign(case)
    if mode not in ("frame", "all_directions"):
        raise DomainError(f"mode must be 'frame' or 'all_directions', got {mode!r}")
    if not 1 <= direction_samples <= MAX_DIRECTION_SAMPLES:
        raise DomainError(f"direction_samples must be between 1 and "
                          f"{MAX_DIRECTION_SAMPLES}, got {direction_samples!r}")
    rho = _symbol_data(p, rho)
    table = _lattice_table(direction_samples)

    frame, gen_eigs, gen_vecs, _ = _frame_eigh(p, g)
    lo, hi = (p.components[0],) * 2 if mode == "frame" else (gen_eigs[0], gen_eigs[-1])
    threshold = stated_threshold(float(lo), float(hi), sign)
    q = sign * gen_eigs
    critical = int(q.argmin())
    q_min = float(q[critical])

    vecs = gen_vecs.T / np.linalg.norm(gen_vecs.T, axis=1, keepdims=True)
    signed = SymTensor3(sign * frame, "upper")
    # P's eigenvectors, taken cyclically, frame K(v_n) + T(v_n) at each v_n.
    # P or rho large enough to overflow the symbol entries ends as the
    # DomainError of _block_spectra, without numpy's overflow warnings first
    with np.errstate(over="ignore", invalid="ignore"):
        blocks, raw_scale = _frame_blocks(*symbol_stacks(signed, rho, vecs), vecs[_CYCLIC])
    eigs, skew_norms = _block_spectra(blocks)
    # both checks in units of the symbol scale, where nothing overflows
    qs = (q / raw_scale).tolist()
    shift = 4.0 * (rho / raw_scale)
    mismatch = max(abs(e - c) for row, qn in zip((eigs / raw_scale).tolist(), qs)
                   for e, c in zip(row, sorted((qn, qn, qn - shift))))
    undershoot = qs[critical] - float((table @ (signed.components / raw_scale)).min())
    for what, residual in (("spectrum at P's eigenvectors off {q, q, q - 4 rho}", mismatch),
                           ("a lattice direction below q_min", undershoot)):
        if not residual <= STRUCTURE_TOL:
            raise InternalConsistencyError(
                f"parabolicity self-check: {what} by {residual:.3e} of the symbol scale")
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
        case="positive" if sign > 0 else "negative",
        mode=mode,
        threshold=float(threshold),
        rho=rho,
        verdict=verdict,
        margin=float(threshold - rho),
        spectral_margin=lowest / 4.0,
        min_modified_eig=min_modified,
        min_raw_eig=min_raw,
        direction_samples=direction_samples,
        # the skew part bounds the imaginary residue; it is tracked, not
        # warned about per direction
        max_imag_residue=float(skew_norms.max()) / raw_scale,
        critical_direction=tuple(vecs[critical].tolist()),
        deciding_branch=branch,
    )
