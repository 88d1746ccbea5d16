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
built once per (P, rho).  `parabolicity` sweeps a Fibonacci lattice plus
the three eigenvectors of P.  Since q is extremal at those eigenvectors,
the minimum of the swept spectra is the exact minimum over the sphere,
not a sample of it.

The sweep solves one 3x3 eigenproblem per direction, not two 6x6 ones.
At a unit xi the variations split as K(xi) + T(xi): K = {xi X^T + X xi^T}
(3-dimensional) and T the symmetric tensors on the plane orthogonal to
xi, its Frobenius complement.  The raw symbol R maps K to 0, and the
gauge term G maps every variation into K and acts as -1 on K.  So R and
the gauge-fixed S = R - G are block upper-triangular on K + T with the
same quotient block B = E^T W R E on T (E a packed Frobenius-orthonormal
basis of T, W = diag(1, 2, 2, 1, 1, 2) the Frobenius weight of packed
components), and
    spec R = {0, 0, 0} + spec B,    spec S = {1, 1, 1} + spec B.
`quotient_blocks` checks that structure on the assembled stacks before
it returns B.  Every spectrum, the sweep's and `spectrum`'s, is read off
B, so the structural eigenvalues are exact, not solved for in the
non-normal 6x6 matrix; `verify` keeps the full 6x6 solve as the reference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .curvature import COMPONENT_ORDER, SymTensor3, cholesky_frame, pack, unpack
from .errors import DomainError, InternalConsistencyError

IMAG_RESIDUE_TOL = 1e-10
STRICTNESS_FLOOR = 1e-9
STRUCTURE_TOL = 1e-12
DEFAULT_DIRECTION_SAMPLES = 200
# The sweep peaks at about 2.1 KB per direction (peak RSS grew by 106 MB
# at 50000 directions with numpy 2.4), so this bounds it near 110 MB; a
# larger request is refused before anything is built.  The verdict is exact
# at any lattice size, so more directions would buy nothing.
MAX_DIRECTION_SAMPLES = 50_000


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
    if not np.all(np.isfinite(p.components)):
        raise DomainError("P must have finite components")
    rho = float(rho)
    if not np.isfinite(rho):
        raise DomainError(f"rho must be finite, got {rho!r}")
    return rho


_ROWS, _COLS = np.array(COMPONENT_ORDER).T


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
    `_eigvals` in `spectrum`, without numpy's overflow warnings first."""
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


def _eigvals(stack: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals, with entries that overflowed to inf or nan (P or
    rho beyond what the symbol's products keep finite) as a DomainError."""
    try:
        return np.linalg.eigvals(stack)
    except np.linalg.LinAlgError as exc:
        if np.isfinite(stack).all():
            raise
        raise DomainError("symbol matrix entries overflow: P or rho is too large") from exc


def spectrum(m: SymbolMatrix) -> np.ndarray:
    """Eigenvalues of a symbol matrix, sorted ascending.

    They are read off the checked quotient block: {0, 0, 0} + spec B for
    the raw symbol and {1, 1, 1} + spec B for the gauge-fixed one (module
    docstring), so the structural eigenvalues are exact and only B's
    three are solved for.  The spectra are real; imaginary residue in
    spec B above 1e-10 max(1, max |entries|) is surfaced as a
    ComplexEigenvalueWarning rather than dropped silently.
    """
    vals = _eigvals(m.block)
    residue = float(np.abs(vals.imag).max())
    if residue > IMAG_RESIDUE_TOL * max(1.0, float(np.abs(m.entries).max())):
        warnings.warn(
            f"symbol spectrum has imaginary residue {residue:.3e}",
            ComplexEigenvalueWarning,
            stacklevel=2,
        )
    structural = 0.0 if m.kind == "raw" else 1.0
    return np.sort(np.append(np.full(3, structural), vals.real))


# Pairs (a, b) of the frame (xi, e, f) whose packed a b^T + b a^T, times
# the factor that makes it Frobenius-unit, span K(xi) (first three) and
# T(xi) (last three); pack(a) @ (_FROBENIUS * pack(b)) = tr(a b).
_PAIR_A = np.array([0, 0, 0, 1, 2, 1])
_PAIR_B = np.array([1, 2, 0, 1, 2, 2])
_PAIR_NORM = np.array([0.5**0.5, 0.5**0.5, 0.5, 0.5, 0.5, 0.5**0.5])
_FROBENIUS = np.array([1.0, 2.0, 2.0, 1.0, 1.0, 2.0])


def _split_bases(xis: np.ndarray) -> np.ndarray:
    """(N, 6, 6) packed Frobenius-orthonormal bases of K(xi) + T(xi), K in
    columns 0-2, for unit rows xi.

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
    a, b = frames[:, _PAIR_A], frames[:, _PAIR_B]
    basis = a[..., _ROWS] * b[..., _COLS] + a[..., _COLS] * b[..., _ROWS]
    return (basis * _PAIR_NORM[:, None]).transpose(0, 2, 1)


def quotient_blocks(raw: np.ndarray, gauge: np.ndarray, xis) -> tuple[np.ndarray, float]:
    """The 3x3 block B that the raw and gauge-fixed symbols share, and the
    scale of the raw stack.

    `raw` and `gauge` are `symbol_stacks` at the unit rows of `xis`.  In
    direction n, spec raw[n] = {0, 0, 0} + spec B[n] and spec (raw[n] -
    gauge[n]) = {1, 1, 1} + spec B[n].  Three residuals check the structure
    that makes this true: |R K| (R maps K to 0), |G K + K| (G is -1 on K)
    and |E^T W G E| (G maps T into K).  R enters divided by raw_scale =
    max(1, max |raw|), so none of them overflows; G is already of order 1
    at unit xi.  A residual above STRUCTURE_TOL raises
    InternalConsistencyError.  Entries that overflowed to inf or nan make
    every residual nan, which passes here and reaches `_eigvals` in B.
    """
    basis = _split_bases(np.asarray(xis, dtype=float))
    t_dual = basis[..., 3:].transpose(0, 2, 1) * _FROBENIUS
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


def to_orthonormal_frame(p: SymTensor3, g: SymTensor3) -> SymTensor3:
    """Components of an upper-index tensor in a g-orthonormal frame.

    With g = L L^T (Cholesky), the frame components are L^T P L
    (`curvature.cholesky_frame`); the metric becomes the identity, which is
    what the symbol assembly assumes.  Generalized eigenvalues of P
    relative to g are preserved.  A metric that is not positive definite
    raises DomainError.
    """
    if p.variance != "upper":
        raise DomainError("frame transform expects a tensor with upper indices")
    components, _ = cholesky_frame(p, g)
    return SymTensor3.from_matrix(components, "upper")


def stated_threshold(lowest: float, highest: float, sign: int) -> float:
    """Stated sufficient bound on rho from the extreme eigenvalues of P:
    lowest / 4 in the positive case (sign +1), -highest / 2 in the
    negative case (sign -1)."""
    return lowest / 4.0 if sign > 0 else -highest / 2.0


@dataclass(frozen=True)
class ParabolicityReport:
    """Verdict and threshold bookkeeping for one (P, g, rho, case) query.

    `threshold` is the stated sufficient-condition bound on rho for the
    requested case and mode; `margin` = threshold - rho.  `spectral_margin`
    is min(mu, mu - 4 rho) / 4 with mu the minimum of s lambda over the
    generalized eigenvalues lambda of P: the verdict is strict exactly when
    4 * spectral_margin clears the positivity floor.  It equals `margin` in
    the positive all_directions case with rho >= 0 and differs from it in
    the negative case, whose stated bound is -lambda_max / 2.

    The verdict comes from the symbol spectra over the Fibonacci lattice
    plus the three eigenvectors of P, where the gauge-fixed spectrum is
    extremal, so `min_modified_eig` / `min_raw_eig` are the exact minima
    over all directions.  Each spectrum is read off the 3x3 quotient block
    B of the K/T splitting (module docstring): the raw one is {0, 0, 0} +
    spec B and the gauge-fixed one {1, 1, 1} + spec B, so `min_raw_eig` is
    min(0, min spec B) with exact structural zeros and `min_modified_eig`
    is min(1, min spec B).  `max_imag_residue` is the largest imaginary
    part among the eigenvalues of B over the symbol scale max(1, max |raw|),
    so IMAG_RESIDUE_TOL bounds it relatively.  `direction_samples` counts
    the lattice directions only.
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
    itself always comes from the eigenvalues of the assembled symbols in
    `direction_samples` Fibonacci lattice directions plus the three
    eigenvectors of P in the g-orthonormal frame.  The gauge-fixed
    spectrum {1, 1, 1, s q, s q, s q - 4 rho} is smallest at one of those
    eigenvectors, so the verdict is exact for any lattice size.  At most
    MAX_DIRECTION_SAMPLES lattice directions are swept.
    """
    sign = case_sign(case)
    if mode not in ("frame", "all_directions"):
        raise DomainError(f"mode must be 'frame' or 'all_directions', got {mode!r}")
    if not 1 <= direction_samples <= MAX_DIRECTION_SAMPLES:
        raise DomainError(f"direction_samples must be between 1 and "
                          f"{MAX_DIRECTION_SAMPLES}, got {direction_samples!r}")
    rho = _symbol_data(p, rho)
    lattice = unit_directions(direction_samples)

    p_frame = to_orthonormal_frame(p, g)
    gen_eigs, gen_vecs = np.linalg.eigh(p_frame.matrix)

    if mode == "frame":
        p11 = float(p.components[0])
        threshold = stated_threshold(p11, p11, sign)
    else:
        threshold = stated_threshold(float(gen_eigs[0]), float(gen_eigs[-1]), sign)
    lowest_q = float((sign * gen_eigs).min())

    directions = np.vstack([lattice, gen_vecs.T])
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    # P or rho large enough to overflow the symbol entries ends as the
    # DomainError of _eigvals, without numpy's overflow warnings first
    with np.errstate(over="ignore", invalid="ignore"):
        raw, gauge = symbol_stacks(SymTensor3(sign * p_frame.components, "upper"),
                                   rho, directions)
        blocks, raw_scale = quotient_blocks(raw, gauge, directions)
        eigs = _eigvals(blocks)
    # the verdict uses real parts; imaginary residue is tracked, not warned
    # about per direction
    imag_residue = float(np.abs(eigs.imag).max()) / raw_scale
    lowest = float(eigs.real.min())
    min_raw = min(0.0, lowest)
    min_modified = min(1.0, lowest)

    # weak: nothing below the raw spectrum's three structural zeros, up to a
    # tolerance scaled like the symbol (at the weak boundary B's eigenvalue
    # carries only rounding error, far below it)
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
        spectral_margin=min(lowest_q, lowest_q - 4.0 * rho) / 4.0,
        min_modified_eig=min_modified,
        min_raw_eig=min_raw,
        direction_samples=direction_samples,
        max_imag_residue=imag_residue,
    )
