"""Pointwise curvature of 3-metrics and the cross curvature tensor.

Everything here operates on value types at a single point: a symmetric
3x3 metric, its first and second coordinate derivatives (a "jet"), the
fully lowered Riemann tensor, and the symmetric 2-tensors derived from
them.  The tensors are immutable: their component arrays are read-only,
and an array the caller passes in is copied, so the caller's array stays
writeable.

`riemann` works from the jet without differentiating the connection:

    R_ijkl = 1/2 (d_j d_k g_il + d_i d_l g_jk - d_i d_k g_jl - d_j d_l g_ik)
             + Gamma_{m,li} Gamma^m_kj - Gamma_{m,ki} Gamma^m_lj,

with Gamma_{m,ab} = 1/2 (d_a g_bm + d_b g_am - d_m g_ab); the quadratic
term is one symmetric 9x9 product Gamma^T g^-1 Gamma.  g^-1 is
L^-T L^-1 from the Cholesky factor g = L L^T in Python floats, the one
factor that also decides whether g is a metric and gives sqrt(det g) =
l11 l22 l33; no LAPACK inverse is called.  Every use of det g takes that
product (det g as two factors of it), so a metric whose det g is a
subnormal float keeps full precision.  Each metric object is factored
once: the first metric check that passes keeps sqrt(det g), L^T, L^-1,
g^-1, mu^ijk and L^-T on the object (`_require_metric`), and every
later use of that object (a jet, `riemann`, the Ricci pass, the
eigensolver) reads them there.

The Einstein tensor with raised indices, P, is the volume-form value,
checked against the trace form relative to ||P||_F.  The cross
curvature tensor is computed by three independent routes (determinant
form, contraction form, volume-form contraction), all three for every P,
and each pair is checked relative to det(g) ||P||_F^2: one path at every
scale, with no branch for a singular P.  Each (Riemann3, metric) pair
pays for one checked pass (`_pair_pass`), which the Riemann3 keeps for
the last metric object it was paired with, only once every check has
succeeded: `ricci`, `einstein_raised` and `cross_curvature_forms` all
read it, and an inconsistent pair raises on every call of each.

Sign conventions are pinned by the unit round 3-sphere: in an
orthonormal frame R_1212 = +1, the Ricci tensor is 2g, the scalar
curvature is 6, and the raised Einstein-type tensor P has eigenvalues
equal to the sectional curvatures (all +1).  With eigenvalues (a, b, c)
of P, the Ricci eigenvalues are (b+c, a+c, a+b) and the cross curvature
eigenvalues are (bc, ac, ab).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .bounds import finite_real, flag, real_number
from .errors import DomainError, InternalConsistencyError

# Canonical ordering of the 6 independent components of a symmetric
# 3x3 tensor.  The 33 component precedes 23 throughout the package.
COMPONENT_ORDER: tuple[tuple[int, int], ...] = (
    (0, 0), (0, 1), (0, 2), (1, 1), (2, 2), (1, 2),
)
_ROWS, _COLS = np.array(COMPONENT_ORDER).T
# _UNPACK[i, j] is the canonical slot of entry (i, j)
_UNPACK = np.array([[0, 1, 2], [1, 3, 5], [2, 5, 4]])

_EPS3 = np.zeros((3, 3, 3))
_EPS3[0, 1, 2] = _EPS3[1, 2, 0] = _EPS3[2, 0, 1] = 1.0
_EPS3[0, 2, 1] = _EPS3[2, 1, 0] = _EPS3[1, 0, 2] = -1.0


def _transposed(index: np.ndarray, *perms: tuple[int, ...]) -> np.ndarray:
    """Flat gather indices: row n holds index.transpose(perms[n]).ravel()."""
    return np.stack([index.transpose(perm).ravel() for perm in perms])


_FLAT4 = np.arange(81).reshape(3, 3, 3, 3)
# r.ravel()[_SYMMETRY_GATHER] stacks r transposed by each permutation that
# the algebraic symmetries compare r with (see Riemann3.from_lowered)
_SYMMETRY_GATHER = _transposed(_FLAT4, (1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1),
                               (0, 2, 3, 1), (0, 3, 1, 2))
# Slots of MetricJet's dg (3, 6) and ddg (6, 6) arrays, flattened:
# dg[k, _UNPACK[i, j]] = d_k g_ij and ddg[_UNPACK[k, l], _UNPACK[i, j]] = d_k d_l g_ij
_DG_SLOT = 6 * np.arange(3)[:, None, None] + _UNPACK[None]
_DDG_SLOT = 6 * _UNPACK[:, :, None, None] + _UNPACK[None, None]
# [n, m, a, b] -> the three terms d_a g_bm, d_b g_am, d_m g_ab of the
# Christoffel bracket, gathered from dg
_BRACKET_GATHER = np.stack([_DG_SLOT.transpose(2, 0, 1), _DG_SLOT.transpose(2, 1, 0),
                            _DG_SLOT]).reshape(3, 3, 9)
# the four second-derivative terms d_j d_k g_il, d_i d_l g_jk, d_i d_k g_jl,
# d_j d_l g_ik of R_ijkl, gathered from ddg
_RIEMANN_LINEAR = _transposed(_DDG_SLOT, (2, 0, 1, 3), (0, 2, 3, 1), (0, 2, 1, 3),
                              (2, 0, 3, 1))
# M[li, kj] and M[ki, lj] for M = Gamma^T g^-1 Gamma, as [i, j, k, l]
_RIEMANN_QUADRATIC = _transposed(_FLAT4, (1, 3, 2, 0), (1, 3, 0, 2))

# Relative tolerance for agreement between independent formulas of the
# same tensor; failures indicate inconsistent (riem, g) input.
FORMULA_AGREEMENT_RTOL = 1e-10
# Residual tolerance of an eigensolve's and a symbol's self-checks, in units of their scale
STRUCTURE_TOL = 1e-12
_OVERFLOW = "curvature values overflow; the input must keep them finite"


def pack(matrix: np.ndarray) -> np.ndarray:
    """Extract the 6 canonical components (11,12,13,22,33,23) of a symmetric matrix."""
    return np.asarray(matrix, dtype=float)[_ROWS, _COLS]


def unpack(components: np.ndarray) -> np.ndarray:
    """Rebuild the symmetric 3x3 matrix from canonical components."""
    return np.asarray(components, dtype=float)[_UNPACK]


@dataclass(frozen=True)
class SymTensor3:
    """A symmetric 3x3 tensor stored as 6 components in canonical order.

    The variance tag distinguishes index placement: 'lower' for (0,2)
    tensors (metrics, Ricci, cross curvature) and 'upper' for (2,0)
    tensors (inverse metrics, the raised Einstein-type tensor).
    Symmetry is structural: only the 6 independent components exist.
    `components` is read-only; a writeable float array passed in is
    copied first, so it stays the caller's.
    """

    components: np.ndarray
    variance: str = "lower"
    # the checked factor of this object as a metric (`_require_metric`)
    _factor: "_MetricFactor | None" = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        comps = _read_only(self.components)
        if comps.shape != (6,):
            raise DomainError(f"expected 6 components, got shape {comps.shape}")
        if self.variance not in ("lower", "upper"):
            raise DomainError(f"variance must be 'lower' or 'upper', got {self.variance!r}")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, variance: str = "lower") -> "SymTensor3":
        m = np.asarray(matrix, dtype=float)
        if m.shape != (3, 3):
            raise DomainError(f"expected a 3x3 matrix, got shape {m.shape}")
        entries = m.ravel().tolist()
        if not all(map(math.isfinite, entries)):
            raise DomainError("matrix entries must be finite")
        m11, m12, m13, m21, m22, m23, m31, m32, m33 = entries
        # np.allclose(m, m.T, rtol=0, atol=...) on finite entries, in Python
        # floats: one compare of the largest off-diagonal gap
        scale = max(1.0, *map(abs, entries))
        if max(abs(m12 - m21), abs(m13 - m31), abs(m23 - m32)) > 1e-12 * scale:
            raise DomainError("matrix is not symmetric")
        # pack(0.5 * (m + m.T)), rounded entry by entry as numpy rounds it
        # wherever that is finite: 0.5 * (x + x) == x on the diagonal
        p12, p13, p23 = _midpoint(m12, m21), _midpoint(m13, m31), _midpoint(m23, m32)
        return cls(_frozen(np.array([m11, p12, p13, m22, m33, p23])), variance)

    @classmethod
    def identity(cls, variance: str = "lower") -> "SymTensor3":
        return cls(_frozen(np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])), variance)

    @classmethod
    def _made(cls, components: list[float], variance: str = "lower") -> "SymTensor3":
        """A tensor on six finite components the library has just computed,
        as a fresh read-only array, without the checks of `SymTensor3(...)`,
        which every tensor a caller builds still passes."""
        t = object.__new__(cls)
        object.__setattr__(t, "components", _frozen(np.array(components)))
        object.__setattr__(t, "variance", variance)
        object.__setattr__(t, "_factor", None)
        return t

    @property
    def matrix(self) -> np.ndarray:
        return unpack(self.components)

    def is_positive_definite(self) -> bool:
        """Whether the Cholesky factor t = L L^T exists in floats: finite
        components and three positive pivots.  The pivots scale as t, so
        the verdict does not depend on the overall scale of t.  A metric
        check may still refuse t if sqrt(det t) = l11 l22 l33, the one form
        of its determinant the code uses, under- or overflows."""
        return _cholesky(self.components.tolist()) is not None


def _frozen(array: np.ndarray) -> np.ndarray:
    """An array the library has just made, marked read-only in place."""
    array.setflags(write=False)
    return array


def _read_only(given) -> np.ndarray:
    """`given` as a read-only float array.  An array np.asarray returns as
    it is and that is still writeable belongs to the caller, so it is
    copied; one it had to make anew, and a read-only one, are not."""
    array = np.asarray(given, dtype=float)
    if not array.flags.writeable:
        return array
    return _frozen(array.copy() if array is given else array)


def _midpoint(x: float, y: float) -> float:
    """0.5 * (x + y) for finite x, y, halving first where the sum overflows
    (exact there, since both halves are far above the subnormal range)."""
    total = x + y
    return 0.5 * total if abs(total) != math.inf else 0.5 * x + 0.5 * y


# the metric of from_frame, factored once for every frame
_IDENTITY = SymTensor3.identity()


def _sym_adjugate_det(a: float, b: float, c: float,
                      d: float, e: float, f: float) -> tuple[list[float], float]:
    """Adjugate (canonical components) and determinant of the symmetric 3x3
    matrix whose canonical components (11, 12, 13, 22, 33, 23) are a..f."""
    adj = [d * e - f * f, c * f - b * e, b * f - c * d,
           a * e - c * c, a * d - b * b, b * c - a * f]
    return adj, a * adj[0] + b * adj[1] + c * adj[2]


def _cholesky(comps: list[float]) -> tuple[float, tuple, tuple] | None:
    """The one test of a metric: the Cholesky factor g = L L^T, in Python
    floats on g's canonical components.  Every component must be finite
    and every pivot positive; an off-diagonal ratio that overflows exceeds
    the diagonal, so the next pivot is -inf or nan, and no scaling is
    needed.  Returns sqrt(det g) = l11 l22 l33, exact to a few ulps even
    where det g itself would round to a subnormal float, with L^T and L^-1
    (forward substitution) by rows, or None where the factor does not exist."""
    if not all(map(math.isfinite, comps)):
        return None
    a, b, c, d, e, f = comps
    if not a > 0.0:
        return None
    l11 = math.sqrt(a)
    l21, l31 = b / l11, c / l11
    pivot = d - l21 * l21
    if not pivot > 0.0:
        return None
    l22 = math.sqrt(pivot)
    l32 = (f - l31 * l21) / l22
    pivot = e - l31 * l31 - l32 * l32
    if not pivot > 0.0:
        return None
    l33 = math.sqrt(pivot)
    m11, m22, m33 = 1.0 / l11, 1.0 / l22, 1.0 / l33
    m21 = -l21 * m11 / l22
    return (l11 * l22 * l33, ((l11, l21, l31), (0.0, l22, l32), (0.0, 0.0, l33)),
            ((m11, 0.0, 0.0), (m21, m22, 0.0),
             (-(l31 * m11 + l32 * m21) / l33, -l32 * m22 / l33, m33)))


class _MetricFactor(NamedTuple):
    """What the metric check of one g keeps: sqrt(det g) = l11 l22 l33, the
    rows of L^T and of L^-1 (g = L L^T) as Python floats, and, as read-only
    arrays, g^-1 = L^-T L^-1, mu^ijk = eps_ijk / sqrt(det g) and L^-T."""

    root_det: float
    upper: tuple
    inverse: tuple
    ginv: np.ndarray
    mu_upper: np.ndarray
    frame_axes: np.ndarray


def _require_metric(g: SymTensor3) -> _MetricFactor:
    """The factor of g, once g is checked to be a metric: lower indices, a
    Cholesky factor (`_cholesky`), and sqrt(det g) = l11 l22 l33 a positive
    finite float.

    Each metric object is factored once: the first call that passes every
    check keeps the factor on g (components are read-only, so it stays
    g's), and later calls return it.  A g that fails is never kept, so it
    raises the same DomainError on every call; an equal metric held in
    another object is factored again."""
    factor = g._factor
    if factor is not None:
        return factor
    if g.variance != "lower":
        raise DomainError("a metric must carry lower indices")
    comps = g.components.tolist()
    cholesky = _cholesky(comps)
    if cholesky is None:
        raise DomainError("metric is not positive definite")
    root_det, upper, inverse = cholesky
    if not 0.0 < root_det < math.inf:  # sqrt(det g), the determinant the code uses
        scale = math.exp(sum(math.log(comps[k]) for k in (0, 3, 4)) / 3.0)
        raise DomainError(
            f"metric determinant {'overflows' if root_det else 'underflows'}: g is positive "
            f"definite but of scale {scale:.3g} (geometric mean of its diagonal); "
            "rescale it toward 1")
    (m11, _, _), (m21, m22, _), (m31, m32, m33) = inverse
    ginv = unpack([m11 * m11 + m21 * m21 + m31 * m31, m21 * m22 + m31 * m32,
                   m31 * m33, m22 * m22 + m32 * m32, m33 * m33, m32 * m33])
    factor = _MetricFactor(root_det, upper, inverse, _frozen(ginv),
                           _frozen(_EPS3 / root_det), _frozen(np.array(inverse)).T)
    object.__setattr__(g, "_factor", factor)
    return factor


def _metric_inverse(g: SymTensor3) -> tuple[float, np.ndarray]:
    """sqrt(det g) and g^-1 = L^-T L^-1 (read-only) of a checked metric."""
    factor = _require_metric(g)
    return factor.root_det, factor.ginv


def volume_form(g: SymTensor3) -> tuple[np.ndarray, np.ndarray]:
    """Volume form of a metric and its fully raised counterpart.

    Returns (mu_lower, mu_upper) with mu_ijk = sqrt(det g) * eps_ijk and
    mu^ijk = eps_ijk / sqrt(det g), so that raising mu_lower with the
    inverse metric reproduces mu_upper.  In an orthonormal frame both
    normalizations give mu_123 = mu^123 = 1.
    """
    root_det = _require_metric(g).root_det
    return root_det * _EPS3, _EPS3 / root_det


@dataclass(frozen=True)
class MetricJet:
    """Metric plus first and second coordinate derivatives at a point.

    dg has shape (3, 6): row k holds the canonical components of
    d_k g_ij.  ddg has shape (6, 6): row p holds the components of
    d_k d_l g_ij for the (k, l) pair in canonical pair order, so the
    symmetry of mixed partials is structural.  dg and ddg are read-only;
    writeable float arrays passed in are copied, so they stay the caller's.
    """

    g: SymTensor3
    dg: np.ndarray
    ddg: np.ndarray

    def __post_init__(self):
        _require_metric(self.g)
        dg = _read_only(self.dg)
        ddg = _read_only(self.ddg)
        if dg.shape != (3, 6):
            raise DomainError(f"dg must have shape (3, 6), got {dg.shape}")
        if ddg.shape != (6, 6):
            raise DomainError(f"ddg must have shape (6, 6), got {ddg.shape}")
        object.__setattr__(self, "dg", dg)
        object.__setattr__(self, "ddg", ddg)

    @classmethod
    def from_full(cls, g: np.ndarray, dg_full: np.ndarray, ddg_full: np.ndarray) -> "MetricJet":
        """Build from full arrays dg_full[k,i,j] and ddg_full[k,l,i,j]."""
        dg = np.asarray(dg_full, dtype=float)[:, _ROWS, _COLS]
        ddg = np.asarray(ddg_full, dtype=float)[_ROWS, _COLS][:, _ROWS, _COLS]
        return cls(SymTensor3.from_matrix(g), _frozen(dg), _frozen(ddg))

    @property
    def dg_full(self) -> np.ndarray:
        """First derivatives as a (3, 3, 3) array indexed [k, i, j]."""
        return self.dg[:, _UNPACK]

    @property
    def ddg_full(self) -> np.ndarray:
        """Second derivatives as a (3, 3, 3, 3) array indexed [k, l, i, j]."""
        return self.ddg[:, _UNPACK][_UNPACK]


def _bracket(dg: np.ndarray) -> np.ndarray:
    """[i, j, l] -> d_i g_jl + d_j g_il - d_l g_ij from dg[k, i, j] = d_k g_ij."""
    return dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)


def _christoffel(ginv: np.ndarray, bracket: np.ndarray) -> np.ndarray:
    return 0.5 * np.einsum("kl,ijl->kij", ginv, bracket)


def christoffel(jet: MetricJet) -> np.ndarray:
    """Levi-Civita connection coefficients, shape (3, 3, 3) indexed [k, i, j].

    Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij), symmetric in (i, j).
    """
    return _christoffel(_metric_inverse(jet.g)[1], _bracket(jet.dg_full))


@dataclass(frozen=True)
class Riemann3:
    """Fully lowered Riemann tensor of a 3-metric.

    `lowered` is R_ijkl with the algebraic symmetries (antisymmetry in
    (i,j) and (k,l), pair symmetry, first Bianchi identity), read-only.
    `bivector_form` is the symmetric (2,0) tensor
    1/4 mu^irs mu^jkl R_rskl, the curvature viewed as a bilinear form on
    the mu-identified bivector space.  `_pair` is the checked pass over
    this tensor and the last metric object it was paired with:
    (g, pass), the pass as `_pair_pass` returns it.
    """

    lowered: np.ndarray
    bivector_form: SymTensor3
    _pair: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lowered", _read_only(self.lowered))

    @classmethod
    def from_lowered(cls, lowered: np.ndarray, g: SymTensor3) -> "Riemann3":
        r = np.asarray(lowered, dtype=float)
        if r.shape != (3, 3, 3, 3):
            raise DomainError(f"lowered Riemann must have shape (3,3,3,3), got {r.shape}")
        # the residuals r + r^(1,0,2,3), r + r^(0,1,3,2), r - r^(2,3,0,1) and
        # r + r^(0,2,3,1) + r^(0,3,1,2), from one gather of the 81 entries
        # (row 2 holds the negated difference, which rounds the same)
        flat = r.ravel()
        moved = flat[_SYMMETRY_GATHER]
        moved[:2] += flat
        moved[2] -= flat
        moved[3] += flat
        moved[3] += moved[4]
        if np.abs(moved[:4]).max() > 1e-12 * np.abs(flat).max():
            raise DomainError("input violates the Riemann algebraic symmetries")
        mu_up = _require_metric(g).mu_upper
        return cls(r, SymTensor3.from_matrix(_p_bivector(r, mu_up), "upper"))

    @classmethod
    def space_form(cls, kappa: float, g: SymTensor3) -> "Riemann3":
        """Constant-curvature tensor R_ijkl = kappa (g_ik g_jl - g_il g_jk)."""
        kappa = finite_real(kappa, "kappa")
        _require_metric(g)
        gm = g.matrix
        outer = gm[:, None, :, None] * gm[None, :, None, :]  # [i, j, k, l] = g_ik g_jl
        return cls.from_lowered(_frozen(kappa * (outer - outer.transpose(0, 1, 3, 2))), g)

    @classmethod
    def from_frame(cls, a: float, b: float, c: float,
                   rotation: np.ndarray | None = None) -> "Riemann3":
        """Curvature with sectional values R_2323 = a, R_1313 = b, R_1212 = c
        in the identity metric, optionally pushed forward by a rotation: a
        finite 3x3 Q with |Q^T Q - I| <= STRUCTURE_TOL entrywise (a
        reflection is one), else DomainError."""
        r = np.zeros((3, 3, 3, 3))
        for (i, j), v in (((1, 2), finite_real(a, "a")), ((0, 2), finite_real(b, "b")),
                          ((0, 1), finite_real(c, "c"))):
            r[i, j, i, j] = r[j, i, j, i] = v
            r[i, j, j, i] = r[j, i, i, j] = -v
        if rotation is not None:
            try:
                q = np.asarray(rotation, dtype=float)
            except (TypeError, ValueError):  # not numbers, or ragged
                q = np.empty(0)
            columns = q.T.tolist() if q.shape == (3, 3) else [[math.nan] * 3] * 3
            if not (all(math.isfinite(x) for column in columns for x in column)
                    and _gram_deviation(columns) <= STRUCTURE_TOL):
                raise DomainError(f"rotation must be an orthogonal 3x3 matrix "
                                  f"(|Q^T Q - I| <= {STRUCTURE_TOL:.0e} entrywise)")
            # R'_ijkl = q_ia q_jb q_kc q_ld R_abcd as K R K^T on index pairs,
            # with K[ij, ab] = q_ia q_jb
            k = (q[:, None, :, None] * q[None, :, None, :]).reshape(9, 9)
            r = (k @ r.reshape(9, 9) @ k.T).reshape(3, 3, 3, 3)
        return cls.from_lowered(_frozen(r), _IDENTITY)


def riemann(jet: MetricJet) -> Riemann3:
    """Riemann tensor of the jet's metric, symmetrized onto the algebraic
    curvature symmetries to remove rounding residue.

    R_ijkl = 1/2 (d_j d_k g_il + d_i d_l g_jk - d_i d_k g_jl - d_j d_l g_ik)
             + M[li, kj] - M[ki, lj],
    with M = Gamma^T g^-1 Gamma and Gamma[m, ab] = Gamma_{m,ab} the
    lowered Christoffel symbols: no derivative of the connection is formed.
    """
    _, ginv = _metric_inverse(jet.g)
    first = jet.dg.ravel()[_BRACKET_GATHER]
    gamma = 0.5 * (first[0] + first[1] - first[2])
    quadratic = (gamma.T @ ginv @ gamma).ravel()[_RIEMANN_QUADRATIC]
    second = jet.ddg.ravel()[_RIEMANN_LINEAR]
    r = 0.5 * (second[0] + second[1] - second[2] - second[3]) + quadratic[0] - quadratic[1]
    r = r.reshape(3, 3, 3, 3)
    r = 0.25 * (r - r.transpose(1, 0, 2, 3) - r.transpose(0, 1, 3, 2) + r.transpose(1, 0, 3, 2))
    r = 0.5 * (r + r.transpose(2, 3, 0, 1))
    return Riemann3.from_lowered(_frozen(r), jet.g)


# The two routes to P and the three to h.  Each formula is its own function,
# so a test can perturb one route and see the agreement check fire.

def _p_bivector(r: np.ndarray, mu_up: np.ndarray) -> np.ndarray:
    """P^ij = 1/4 mu^irs mu^jkl R_rskl, as two matrix products."""
    mu = mu_up.reshape(3, 9)
    return 0.25 * (mu @ r.reshape(9, 9) @ mu.T)


def _p_trace(ginv: np.ndarray, ric: np.ndarray, scalar: float) -> np.ndarray:
    """P^ij = (R/2) g^ij - g^ik Ric_kl g^lj."""
    return 0.5 * scalar * ginv - ginv @ ric @ ginv


def _h_contraction(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """h_ij = 1/2 P^rs R_irjs."""
    return 0.5 * np.einsum("rs,irjs->ij", p, r)


def _h_mu(r: np.ndarray, mu_up: np.ndarray) -> np.ndarray:
    """h_ij = 1/8 T_ilk T_kjl with T_ilk = R_ilpq mu^pqk: two pairwise
    contractions in place of one four-operand sum."""
    t = (r.reshape(9, 9) @ mu_up.reshape(9, 3)).reshape(3, 3, 3)
    return 0.125 * (t.reshape(3, 9) @ t.transpose(2, 0, 1).reshape(9, 3))


def _h_determinant(root_det: float, p_components: list[float]) -> np.ndarray:
    """h_ij = det(g) adj(P)_ij = adj(sqrt(det g) P)_ij, defined for every P
    and free of g^-1.  Scaling P first keeps det g from rounding to a
    subnormal float, and adj(P) from overflowing where h is finite:
    sqrt(det g) P is of the size of sqrt(|h|)."""
    return unpack(_sym_adjugate_det(*(root_det * v for v in p_components))[0])


def _deviation(xs: list[float], ys: list[float], scale: tuple[float, ...]) -> float:
    """max |x - y| over finite Python floats, divided by each factor of `scale`."""
    dev = max(map(abs, map(operator.sub, xs, ys)))
    for factor in scale:  # a zero factor leaves 0 at 0 and makes the rest huge
        dev /= max(factor, math.ulp(0.0))
    return dev


def _packed_symmetric_part(h: list[float]) -> list[float]:
    """pack(0.5 * (h + h^T)) of a 3x3 h given row by row, rounded entry by
    entry as numpy rounds it."""
    return [0.5 * (h[0] + h[0]), 0.5 * (h[1] + h[3]), 0.5 * (h[2] + h[6]),
            0.5 * (h[4] + h[4]), 0.5 * (h[8] + h[8]), 0.5 * (h[5] + h[7])]


def _pair_pass(riem: Riemann3,
               g: SymTensor3) -> tuple[float, SymTensor3, float, SymTensor3, float]:
    """sqrt(det g), Ric_ij = g^kl R_kilj, R = g^ij Ric_ij, the checked raised
    Einstein-type tensor P and ||P||_F, once per pair.

    One g^-1, from the metric's one Cholesky factor, serves both contractions
    and the trace form (R/2) g^ij - Ric^ij, which checks P, the volume-form
    value `riem.bivector_form` that keeps every sectional curvature, relative
    to ||P||_F: the input sets the scale.  Raises DomainError when R or the
    trace form overflows and InternalConsistencyError, which indicates an
    inconsistent pair, when the forms disagree.  The pass is kept on `riem`
    only once every check has succeeded, so such a pair raises on every call.
    """
    pair = riem._pair
    if pair is not None and pair[0] is g:
        return pair[1]
    root_det, ginv = _metric_inverse(g)
    ric = np.einsum("kl,kilj->ij", ginv, riem.lowered)
    scalar = float(np.einsum("ij,ij->", ginv, ric))
    # every entry of Ric enters R (times g^ij, and inf * 0 is nan), so a
    # non-finite Ric makes R non-finite too
    if not math.isfinite(scalar):
        raise DomainError(_OVERFLOW)
    ric = SymTensor3.from_matrix(ric, "lower")
    p = riem.bivector_form
    comps = p.components.tolist()
    p_norm = math.hypot(*comps, comps[1], comps[2], comps[5])
    trace_form = _p_trace(ginv, ric.matrix, scalar).ravel().tolist()
    bivector = p.matrix.ravel().tolist()
    if not all(map(math.isfinite, trace_form + bivector)):
        raise DomainError(_OVERFLOW)
    dev = _deviation(trace_form, bivector, (p_norm,))
    if dev > FORMULA_AGREEMENT_RTOL:
        raise InternalConsistencyError(
            f"trace and volume-form evaluations of the raised Einstein tensor "
            f"disagree (relative deviation {dev:.3e}); riem and g are inconsistent"
        )
    passed = root_det, ric, scalar, p, p_norm
    object.__setattr__(riem, "_pair", (g, passed))
    return passed


def ricci(riem: Riemann3, g: SymTensor3) -> tuple[SymTensor3, float]:
    """Ricci tensor Ric_ij = g^kl R_kilj and scalar curvature R = g^ij Ric_ij,
    from the pair's one checked pass: an inconsistent (riem, g) pair raises
    InternalConsistencyError, as in `einstein_raised`."""
    return _pair_pass(riem, g)[1:3]


def einstein_raised(riem: Riemann3, g: SymTensor3) -> SymTensor3:
    """Raised Einstein-type tensor P^ij with sectional-curvature eigenvalues.

    Returns the volume-form contraction 1/4 mu^irs mu^jkl R_rskl, which
    `Riemann3` already carries; on the unit sphere P is the identity.  The
    trace form (R/2) g^ij - Ric^ij checks it to within 1e-10 ||P||_F, and
    disagreement raises InternalConsistencyError, which indicates an
    inconsistent (riem, g) pair.
    """
    return _pair_pass(riem, g)[3]


@dataclass(frozen=True)
class CrossCurvatureForms:
    """All evaluations of the cross curvature tensor, for cross-checking.

    `determinant_form` is det(g) adj(P), present for every P.
    `determinant_unit` is det(P / ||P||_F), which measures how well P is
    conditioned (0 for P = 0).  `determinant_singular` records whether P
    is singular to working precision (|det(P / ||P||_F)| <= 1e-12), not
    whether det P = 0: it reads true for an invertible P whose
    eigenvalues lie far apart, and it selects nothing.
    `max_pairwise_dev` is the largest deviation among the three pairs,
    relative to det(g) ||P||_F^2, the size adj(P) can reach.
    """

    contraction_form: SymTensor3
    mu_form: SymTensor3
    determinant_form: SymTensor3
    determinant_unit: float
    determinant_singular: bool
    max_pairwise_dev: float


def cross_curvature_forms(riem: Riemann3, g: SymTensor3) -> CrossCurvatureForms:
    """Evaluate the cross curvature tensor by all three routes.

    contraction: h_ij = 1/2 P^rs R_irjs
    mu form:     h_ij = 1/8 T_ilk T_kjl with T_ilk = R_ilpq mu^pqk
    determinant: h_ij = det(g) adj(P)_ij, which is (det P^kl / det g^kl)
                 times the inverse of P^kl when P is invertible

    P and sqrt(det g) = l11 l22 l33 come from one pass over (riem, g), and
    mu^ijk = eps_ijk / sqrt(det g) from g's factor.  Each route is read
    into Python floats once, for one finiteness test and the three pairwise
    deviations.  All three pairs are compared relative to
    det(g) ||P||_F^2, which scales like h under g -> s g and bounds it, so a
    vanishing h (a singular or zero P) is checked like any other.  The scale
    is divided in two steps of sqrt(det g) ||P||_F, because ||P||_F^2 alone
    overflows where h is still finite and det g alone can round to a
    subnormal float.
    """
    root_det, _, _, p_t, p_norm = _pair_pass(riem, g)
    r = riem.lowered
    comps = p_t.components.tolist()

    routes = (_h_contraction(p_t.matrix, r), _h_mu(r, _require_metric(g).mu_upper),
              _h_determinant(root_det, comps))
    h_con, h_mu, h_det = (h.ravel().tolist() for h in routes)
    unit_det = _sym_adjugate_det(*(v / p_norm for v in comps))[1] if p_norm else 0.0

    if not all(map(math.isfinite, h_con + h_mu + h_det)):
        raise DomainError(_OVERFLOW)
    scale = (root_det * p_norm,) * 2
    max_dev = max(_deviation(h_con, h_mu, scale), _deviation(h_con, h_det, scale),
                  _deviation(h_mu, h_det, scale))
    if max_dev > FORMULA_AGREEMENT_RTOL:
        raise InternalConsistencyError(
            f"cross curvature formulas disagree (relative deviation {max_dev:.3e})"
        )

    # h_det and 0.5 (h + h^T) are exactly symmetric, so packing them gives
    # what SymTensor3.from_matrix would; finiteness is all it would still
    # check, since the sum can overflow where h does not
    con, mu = _packed_symmetric_part(h_con), _packed_symmetric_part(h_mu)
    if not all(map(math.isfinite, con + mu)):
        raise DomainError(_OVERFLOW)
    return CrossCurvatureForms(
        contraction_form=SymTensor3._made(con),
        mu_form=SymTensor3._made(mu),
        determinant_form=SymTensor3._made([h_det[k] for k in (0, 1, 2, 4, 8, 5)]),
        determinant_unit=unit_det,
        determinant_singular=abs(unit_det) <= 1e-12,
        max_pairwise_dev=max_dev,
    )


def cross_curvature(riem: Riemann3, g: SymTensor3) -> SymTensor3:
    """Cross curvature tensor h_ij (the contraction-form value); all three
    formulas are cross-checked before returning."""
    return cross_curvature_forms(riem, g).contraction_form


@dataclass(frozen=True)
class CurvatureFrame:
    """Sectional curvatures (a, b, c) in an orthonormal frame diagonalizing
    the raised Einstein-type tensor, ordered a <= b <= c."""

    a: float
    b: float
    c: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


def _frame_eigh(t: SymTensor3, g: SymTensor3) -> tuple[np.ndarray, ...]:
    """The one routine that solves a generalized eigenproblem: t in the
    Cholesky frame of g = L L^T, whose axes are the columns of L^-T, has
    components L^T t L (upper indices) or L^-1 t L^-T (lower), read off
    the lower triangle.  L^T, L^-1 and L^-T come from g's one factor
    (`_require_metric`); the components are Python floats, which overflow
    to inf silently.
    Returns the canonical frame components (read-only), their ascending
    eigenvalues, the orthonormal eigenvectors in the frame (columns) and
    L^-T (read-only).  A t that is not finite, a g that is not a metric and an
    overflow are each a DomainError; `_certify_eigenpairs` checks every solve."""
    t11, t12, t13, t22, t33, t23 = comps = t.components.tolist()
    if not all(map(math.isfinite, comps)):
        raise DomainError("tensor components must be finite")
    _, upper, inv, _, _, frame_axes = _require_metric(g)
    rows = upper if t.variance == "upper" else inv
    # B t B^T for B = L^T or L^-1: w = B t by rows, then entry (j, i) = w_j . B_i
    w = [(x * t11 + y * t12 + z * t13, x * t12 + y * t22 + z * t23,
          x * t13 + y * t23 + z * t33) for x, y, z in rows]
    frame = [w[j][0] * rows[i][0] + w[j][1] * rows[i][1] + w[j][2] * rows[i][2]
             for i, j in COMPONENT_ORDER]
    if all(map(math.isfinite, frame + [*inv[1], *inv[2]])):
        components = _frozen(np.array(frame))
        vals, vecs = np.linalg.eigh(components[_UNPACK])
        if all(map(math.isfinite, vals.tolist())):
            _certify_eigenpairs(frame, vals.tolist(), vecs.T.tolist())
            return components, vals, vecs, frame_axes
    raise DomainError("eigenvalues overflow; the tensor and metric must keep them finite")


def _certify_eigenpairs(frame: list[float], lams: list[float], vecs: list[list[float]]) -> None:
    """Raise InternalConsistencyError unless the residuals r_i = F v_i - lam_i
    v_i over s = max(1, max |lam|) and E = V^T V - I of the eigenpairs of the
    symmetric F (canonical components `frame`) are all within STRUCTURE_TOL.
    Then each lam_i lies within |r_i| of an eigenvalue of F, up to O(|E|)
    (Kahan's residual bound; B. N. Parlett, The Symmetric Eigenvalue Problem,
    SIAM 1998).  F and lam enter divided by s, so nothing overflows."""
    scale = max(1.0, *map(abs, lams))
    f11, f12, f13, f22, f33, f23 = [x / scale for x in frame]
    residual = max(math.hypot(f11 * x + f12 * y + f13 * z - lam * x,
                              f12 * x + f22 * y + f23 * z - lam * y,
                              f13 * x + f23 * y + f33 * z - lam * z)
                   for (x, y, z), lam in zip(vecs, [lam / scale for lam in lams]))
    gram = _gram_deviation(vecs)
    if not max(residual, gram) <= STRUCTURE_TOL:
        raise InternalConsistencyError(
            f"eigensolve self-check: |F v - lam v| / max(1, max |lam|) is {residual:.3e} and "
            f"|V^T V - I| is {gram:.3e} (tol {STRUCTURE_TOL:.0e})")


def _gram_deviation(vecs: list[list[float]]) -> float:
    """max |V^T V - I| over the entries, for the columns `vecs` of a finite 3x3
    V, in Python floats: a diagonal entry comes first, so an overflow is inf."""
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = vecs
    return max(abs(a1 * a1 + a2 * a2 + a3 * a3 - 1.0), abs(b1 * b1 + b2 * b2 + b3 * b3 - 1.0),
               abs(c1 * c1 + c2 * c2 + c3 * c3 - 1.0), abs(a1 * b1 + a2 * b2 + a3 * b3),
               abs(a1 * c1 + a2 * c2 + a3 * c3), abs(b1 * c1 + b2 * c2 + b3 * c3))


def generalized_eigh(t: SymTensor3, g: SymTensor3) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric tensor relative to a metric, ascending, and
    g-orthonormal eigenvectors V as columns (V^T g V = I): t v = lam g v for
    lower-index t, t g v = lam v for upper-index t.  They are the eigenpairs
    of `_frame_eigh`, whose DomainErrors it raises, mapped back by L^-T."""
    _, vals, vecs, frame = _frame_eigh(t, g)
    return vals, frame @ vecs


def eigen_frame(p: SymTensor3, g: SymTensor3) -> tuple[CurvatureFrame, np.ndarray]:
    """`generalized_eigh` of an upper-index P: its eigenvalues as a
    CurvatureFrame (ascending) and its g-orthonormal eigenvectors v_k as
    columns, with P^ij = sum_k lam_k v_k v_k^T.  A degenerate eigenvalue
    gets an arbitrary orthonormal basis of its eigenspace."""
    if p.variance != "upper":
        raise DomainError("eigen_frame expects a tensor with upper indices")
    vals, vecs = generalized_eigh(p, g)
    return CurvatureFrame(*map(float, vals)), vecs


def _fd_offsets() -> np.ndarray:
    """The finite-difference stencil in sampling order: +e_k, -e_k for
    k = 0, 1, 2, then the diagonals +(e_k + e_l), -(e_k + e_l) for
    (k, l) = (0, 1), (0, 2), (1, 2): 12 rows.

    Each row is the sum of the signed unit vectors, so a zero entry is -0.0
    exactly where every term subtracts, and x + h * row rounds as the
    chained x +- h e_k +- h e_l does, signed zeros included.
    """
    e = np.eye(3)
    axes = [s * e[k] for k in range(3) for s in (1.0, -1.0)]
    diagonals = [s * e[k] + s * e[l] for k, l in ((0, 1), (0, 2), (1, 2)) for s in (1.0, -1.0)]
    return _frozen(np.array(axes + diagonals))


_FD_OFFSETS = _fd_offsets()
# the axes k and l of the mixed pairs (0, 1), (0, 2), (1, 2)
_FD_PAIR_K = np.array([0, 0, 1])
_FD_PAIR_L = np.array([1, 2, 2])
# MetricJet's ddg rows (pairs 11, 12, 13, 22, 33, 23) from the stacked
# second differences: the pure ones d_k d_k (rows 0-2), then the mixed
# d_0 d_1, d_0 d_2, d_1 d_2 (rows 3-5)
_FD_DDG_ROWS = np.array([0, 3, 4, 1, 2, 5])


def _stencil_failure(samples: list, points: list[np.ndarray], step: float) -> None:
    """Raise DomainError for the first sample that is not a finite 3x3
    matrix, naming it unless it is the centre points[0]; return if none is.

    A sample that np.asarray cannot read as floats raises numpy's error.
    """
    for n, sample in enumerate(samples):
        value = np.asarray(sample, dtype=float)
        if value.shape != (3, 3):
            reason = f"metric callback returned shape {value.shape}, not (3, 3)"
        elif not np.all(np.isfinite(value)):
            reason = "metric callback returned non-finite samples"
        else:
            continue
        if n == 0:
            raise DomainError(reason)
        raise DomainError(_stencil_message(points[n], step, reason))


def _stencil_message(point: np.ndarray, step: float, reason: object) -> str:
    where = ",".join(f"{v:.12g}" for v in point)
    return (f"the finite-difference stencil leaves the metric's domain: its sample at "
            f"{where} (fd_step {step:g}) fails with '{reason}'; the point itself is inside")


def jet_from_function(
    g_fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    step: float = 1e-3,
    richardson: bool = False,
) -> MetricJet:
    """Second-order central-difference jet of a coordinate metric field.

    g_fn maps a point (3-vector) to the 3x3 metric matrix there.  It is
    called once at x, then at the 12 points x + h * row of the stencil
    `_FD_OFFSETS` (+-e_k, then the diagonals +-(e_k + e_l)) for h = step
    and, with richardson=True, again for h = step / 2: 13 samples, or 25.
    With the second differences D_v = g(x + h v) - 2 g(x) + g(x - h v),

        d_k g = (g(x + h e_k) - g(x - h e_k)) / 2h,
        d_k d_k g = D_{e_k} / h^2,
        d_k d_l g = (D_{e_k + e_l} - D_{e_k} - D_{e_l}) / 2h^2,

    the last being the seven-point formula of Abramowitz & Stegun 25.3.27,
    which shares the axis samples of the pure derivatives.  Its error is
    h^2/12 (2 g_kkkl + 3 g_kkll + 2 g_klll), even in h, and ddg is
    symmetric under the derivative-pair swap exactly.  With richardson=True
    the step and half-step estimates are combined to fourth order.  dg and
    the pure rows of ddg are the same as those of the 18-point stencil of
    four corners per mixed pair, bit for bit; only the mixed rows differ.

    The samples are differenced as one stack of canonical components, with
    the operations, in the order, of the differences above written out per
    entry, so the jet is the same bit for bit as that of a loop over
    the stencil.  The first sample that raises DomainError, is not finite
    or is not 3x3 ends the call: at x itself its error propagates as it is,
    at another sample it is re-raised naming that sample and the step,
    since the point itself lies in the domain.  `step` is read as a Python
    float (`bounds.real_number`), `richardson` as a bool (`bounds.flag`).
    """
    step = real_number(step, "finite-difference step")
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"finite-difference step must be finite and positive, got {step!r}")
    richardson = flag(richardson, "richardson")
    x = np.asarray(x, dtype=float)
    steps = (step, step / 2.0) if richardson else (step,)
    points = [x, *(x + np.array(steps)[:, None, None] * _FD_OFFSETS).reshape(-1, 3)]
    samples = []
    try:
        for point in points:
            samples.append(g_fn(point))
    except Exception as exc:
        # a bad sample before the raising one ends the call first
        _stencil_failure(samples, points, step)
        if not samples or not isinstance(exc, DomainError):
            raise
        raise DomainError(_stencil_message(points[len(samples)], step, exc)) from exc
    try:
        stack = np.array(samples, dtype=float)
    except (TypeError, ValueError):  # samples of different shapes, or not numbers
        _stencil_failure(samples, points, step)
        raise
    if stack.shape[1:] != (3, 3) or not np.isfinite(stack).all():
        _stencil_failure(samples, points, step)
    # per step: 2h, h^2 and 2h^2 in Python floats, as the written-out
    # differences divide by them; h^2 raises where it overflows, 2h^2 turns inf
    try:
        div = [[2.0 * h, h**2, 2.0 * h**2] for h in steps]
    except OverflowError:
        div = [[math.inf]]
    if div[0][-1] == math.inf:
        raise DomainError(_CHART_OVERFLOW)

    packed = stack[:, _ROWS, _COLS]
    # [step, v, s]: the sample at x + s h v, s = +1, -1, for the six v of
    # the stencil: e_0, e_1, e_2, e_0 + e_1, e_0 + e_2, e_1 + e_2
    pairs = packed[1:].reshape(len(steps), 6, 2, 6)
    plus, minus = pairs[:, :, 0], pairs[:, :, 1]
    div = np.array(div)[:, :, None, None]
    dg = (plus[:, :3] - minus[:, :3]) / div[:, 0]
    second = plus - 2.0 * packed[0] + minus  # D_v for the six v
    mixed = (second[:, 3:] - second[:, _FD_PAIR_K] - second[:, _FD_PAIR_L]) / div[:, 2]
    ddg = np.concatenate((second[:, :3] / div[:, 1], mixed), axis=1)[:, _FD_DDG_ROWS]
    if richardson:
        dg = (4.0 * dg[1] - dg[0]) / 3.0
        ddg = (4.0 * ddg[1] - ddg[0]) / 3.0
    else:
        dg, ddg = dg[0], ddg[0]
    return MetricJet(SymTensor3.from_matrix(stack[0]), _frozen(dg), _frozen(ddg))


_CHART_OVERFLOW = ("the chart metric or its differences overflow; kappa, point and "
                  "fd_step must keep them finite")
_CHART_IDENTITY = _frozen(np.eye(3))
# delta_ij and -delta_ij, packed
_PACKED_IDENTITY = _IDENTITY.components
_NEG_PACKED_IDENTITY = _frozen(-_PACKED_IDENTITY)


def _conformal_factor(kappa: float, x: np.ndarray) -> tuple[float, float, float]:
    """u = 1 + kappa |x|^2 / 4 of the conformal chart, u^2 and |x|^2; a DomainError
    where u <= 0 or u^2 overflows.  |x|^2 is numpy's x @ x; a coordinate of
    1e150 or more can overflow it, so there it is taken without numpy's
    overflow warning: the inf makes g = 0, which the metric check names."""
    coords = x.ravel().tolist()
    # max and min may pass over a nan, never over a coordinate of 1e150 or more
    if max(coords) < 1e150 and min(coords) > -1e150:
        r2 = float(x @ x)
    else:
        with np.errstate(over="ignore"):
            r2 = float(x @ x)
    u = 1.0 + kappa * r2 / 4.0
    if u <= 0.0:
        raise DomainError("point lies outside the chart domain")
    try:
        return u, u**2, r2
    except OverflowError as exc:
        raise DomainError(_CHART_OVERFLOW) from exc


def space_form_chart(kappa: float) -> Callable[[np.ndarray], np.ndarray]:
    """Conformal chart of the curvature-kappa space form:
    g_ij(x) = delta_ij (1 + kappa |x|^2 / 4)^-2, kappa read once.  An
    infinite or nan kappa makes no metric entry finite, and is refused here
    as `space_form_chart_jet` refuses it."""
    kappa = real_number(kappa, "kappa")
    if not math.isfinite(kappa):
        raise DomainError("matrix entries must be finite")

    def g_fn(x: np.ndarray) -> np.ndarray:
        _, u2, _ = _conformal_factor(kappa, np.asarray(x, dtype=float))
        return _CHART_IDENTITY / u2  # a fresh array; the identity stays read-only

    return g_fn


def space_form_chart_jet(kappa: float, x: np.ndarray) -> MetricJet:
    """Analytic jet of the conformal space-form chart (no differencing error).

    The jet is written packed: g's six components, dg (3, 6) and ddg (6, 6)
    from -delta_ij packed, each entry with the operations, in the order, of
    the formulas below.  The metric is checked before its derivatives are
    formed, so a point where g is not a metric raises its DomainError with
    no numpy warning.  So does a u^2, u^3 or u^4, or a bound on |dg| or
    |ddg| in Python floats, beyond the float range."""
    kappa = real_number(kappa, "kappa")
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise DomainError(f"point must be a 3-vector, got shape {x.shape}")
    u, u2, r2 = _conformal_factor(kappa, x)
    diagonal = 1.0 / u2
    if diagonal != diagonal:  # u is nan: a nan in x or kappa
        raise DomainError("matrix entries must be finite")
    g = SymTensor3._made([diagonal, 0.0, 0.0, diagonal, diagonal, 0.0])
    _require_metric(g)
    try:
        u3, u4 = u**3, u**4
    except OverflowError as exc:
        raise DomainError(_CHART_OVERFLOW) from exc
    # |kappa| |x| / u^3 and |kappa| (1 / u^3 + 3/2 |kappa| |x|^2 / u^4) bound every
    # product numpy forms below; nan is 1.5 |kappa| = inf times |x|^2 = 0
    size = abs(kappa)
    if not (size * math.sqrt(r2) / u3 < math.inf
            and size * (1.0 / u3 + 1.5 * size * r2 / u4) < math.inf):
        raise DomainError(_CHART_OVERFLOW)
    # dg_kij = -delta_ij kappa x_k / u^3 and
    # ddg_klij = -delta_ij kappa (delta_kl / u^3 - 3/2 kappa x_k x_l / u^4)
    dg = _NEG_PACKED_IDENTITY * kappa * x[:, None] / u3
    inner = _PACKED_IDENTITY / u3 - (1.5 * kappa * x)[_ROWS] * x[_COLS] / u4
    ddg = (_NEG_PACKED_IDENTITY * kappa)[None, :] * inner[:, None]
    return MetricJet(g, _frozen(dg), _frozen(ddg))
