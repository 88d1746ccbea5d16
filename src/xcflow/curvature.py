"""Pointwise curvature of 3-metrics and the cross curvature tensor.

Everything here operates on value types at a single point: a symmetric
3x3 metric, its first and second coordinate derivatives (a "jet"), the
fully lowered Riemann tensor, and the symmetric 2-tensors derived from
them.  The tensors are immutable: their component arrays are read-only,
and an array the caller passes in is copied, so the caller's array stays
writeable.  Every array a caller hands the library, here, in `symbol` and in
`flow`, is read once, by `_real_array`, into a finite float array of its shape
or a DomainError naming it: components are finite by construction, and every
public call names an overflow on its way as a DomainError, not a numpy warning.

`riemann` works from the jet without differentiating the connection.
g^-1, sqrt(det g) and the eigensolver's frame come from one Cholesky factor
g = L L^T in Python floats, which alone decides whether g is a metric and
which each metric object keeps (`_require_metric`).  P, the Einstein-type
tensor with raised indices, and the cross curvature tensor h are computed by
routes that check one another, in one pass per (Riemann3, metric) pair
(`_pair_pass`).  The conformal space-form chart is written once, over Python
floats and over a forward-mode number that gives its exact jet
(`_conformal_chart`); `jet_from_function` differences any metric callback.

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
    Symmetry is structural: only the 6 independent components exist, and
    `_real_array` reads them once, finite by construction, so no routine
    tests them again.  `components` is read-only; a writeable float array
    passed in is copied first, so it stays the caller's.
    """

    components: np.ndarray
    variance: str = "lower"
    # the checked factor of this object as a metric (`_require_metric`)
    _factor: "_MetricFactor | None" = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        object.__setattr__(self, "components", _read_only(self.components, (6,), "components"))
        _variance(self.variance)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, variance: str = "lower") -> "SymTensor3":
        entries = _real_array(matrix, (3, 3), "matrix").ravel().tolist()
        _, m12, m13, m21, _, m23, m31, m32, _ = entries
        # np.allclose(m, m.T, rtol=0, atol=...) on finite entries, in Python
        # floats: one compare of the largest off-diagonal gap
        scale = max(1.0, *map(abs, entries))
        if max(abs(m12 - m21), abs(m13 - m31), abs(m23 - m32)) > 1e-12 * scale:
            raise DomainError("matrix is not symmetric")
        return cls._made(_packed_symmetric_part(entries), _variance(variance))

    @classmethod
    def identity(cls, variance: str = "lower") -> "SymTensor3":
        return cls(_frozen(np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])), variance)

    @classmethod
    def _made(cls, components: list[float], variance: str = "lower") -> "SymTensor3":
        """A tensor on six finite components the library has just computed,
        as a fresh read-only array, without the checks of `SymTensor3(...)`,
        which every tensor a caller builds still passes."""
        t = object.__new__(cls)
        t.__dict__.update(components=_frozen(np.array(components)), variance=variance, _factor=None)
        return t

    @property
    def matrix(self) -> np.ndarray:
        return unpack(self.components)

    def is_positive_definite(self) -> bool:
        """Whether the Cholesky factor t = L L^T exists in floats: three
        positive pivots.  The pivots scale as t, so the verdict does not
        depend on the overall scale of t.  A metric check may still refuse t
        if sqrt(det t) = l11 l22 l33, the one form of its determinant the
        code uses, under- or overflows."""
        return _cholesky(self.components.tolist()) is not None


def _variance(variance) -> str:
    """`variance` if it is 'lower' or 'upper', else a DomainError."""
    if not (isinstance(variance, str) and variance in ("lower", "upper")):
        raise DomainError(f"variance must be 'lower' or 'upper', got {variance!r}")
    return variance


def _frozen(array: np.ndarray) -> np.ndarray:
    """An array the library has just made, marked read-only in place."""
    array.setflags(write=False)
    return array


def _real_array(value, shape: tuple, name: str) -> np.ndarray:
    """`value` as a float array of `shape` (a leading None: any length) with
    finite entries, or a DomainError naming it `name`.  A float ndarray is
    read as it is, anything else only if it holds numbers `bounds.real_number`
    reads (`_real_entries`): text, bools, complex numbers, 10**400, None,
    other objects and ragged nesting end here, not in numpy."""
    try:
        if not (type(value) is np.ndarray and value.dtype.kind == "f"):
            _real_entries(value)
        array = np.asarray(value, dtype=float)
    except (DomainError, TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be an array of real numbers within the float range, "
                          f"got {value!r}") from None
    if array.shape != shape and (shape[0] is not None or array.shape[1:] != shape[1:]):
        raise DomainError(f"{name} must have shape {str(shape).replace('None', 'N')}, "
                          f"got shape {array.shape}")
    # Python floats, in memory order, for the small arrays of a pointwise call; numpy past them
    if not (all(map(math.isfinite, array.ravel("K").tolist())) if array.size <= 36
            else np.isfinite(array).all()):
        raise DomainError(f"{name} must be finite")
    return array


def _real_entries(value) -> None:
    """Raise unless every entry of `value` is a number `bounds.real_number`
    reads; a numpy array of bools, complex numbers or text is refused by its
    dtype, and ragged nesting leaves sequences for entries."""
    kind = getattr(getattr(value, "dtype", None), "kind", "O")
    if kind not in "fiuO":
        raise TypeError("not an array of real numbers")
    for entry in np.asarray(value, dtype=object).ravel().tolist() if kind == "O" else ():
        _real_entries(entry) if hasattr(entry, "dtype") else real_number(entry, "entry")


def _read_only(given, shape: tuple, name: str) -> np.ndarray:
    """`_real_array(given, shape, name)`, read-only: an array returned as it
    is and still writeable is the caller's, so it is copied, no other one."""
    array = _real_array(given, shape, name)
    if not array.flags.writeable:
        return array
    return _frozen(array.copy() if array is given else array)


def _midpoint(x: float, y: float) -> float:
    """0.5 * (x + y) for finite x, y, halving first where the sum overflows
    (exact there, since both halves are far above the subnormal range)."""
    total = x + y
    return 0.5 * total if abs(total) != math.inf else 0.5 * x + 0.5 * y


def _packed_symmetric_part(m: list[float]) -> list[float]:
    """pack(0.5 * (m + m^T)) of a finite 3x3 m given row by row, rounded
    entry by entry as numpy rounds it wherever that is finite: the diagonal
    as it is (0.5 * (x + x) == x), each off-diagonal pair by `_midpoint`,
    so the result is finite too."""
    return [m[0], _midpoint(m[1], m[3]), _midpoint(m[2], m[6]),
            m[4], m[8], _midpoint(m[5], m[7])]


# the metric of from_frame, factored once for every frame, and its matrix
_IDENTITY = SymTensor3.identity()
_EYE = _frozen(np.eye(3))


def _sym_adjugate_det(a: float, b: float, c: float,
                      d: float, e: float, f: float) -> tuple[list[float], float]:
    """Adjugate (canonical components) and determinant of the symmetric 3x3
    matrix whose canonical components (11, 12, 13, 22, 33, 23) are a..f."""
    adj = [d * e - f * f, c * f - b * e, b * f - c * d,
           a * e - c * c, a * d - b * b, b * c - a * f]
    return adj, a * adj[0] + b * adj[1] + c * adj[2]


def _cholesky(comps: list[float]) -> tuple[float, tuple, tuple] | None:
    """The one test of a metric: the Cholesky factor g = L L^T, in Python
    floats on g's canonical components.  Every pivot must be positive; an
    off-diagonal ratio that overflows exceeds the diagonal, so the next
    pivot is -inf or nan, and no scaling is needed.  Returns sqrt(det g) =
    l11 l22 l33, exact to a few ulps even where det g itself would round to
    a subnormal float, with L^T and L^-1 (forward substitution) by rows, or
    None where the factor does not exist."""
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
    finite float whose reciprocal is finite too.

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
    # sqrt(det g), the determinant the code uses, and its reciprocal in mu^ijk
    if not (0.0 < root_det < math.inf and 1.0 / root_det < math.inf):
        scale = math.exp(sum(math.log(comps[k]) for k in (0, 3, 4)) / 3.0)
        raise DomainError(
            f"metric determinant {'overflows' if root_det > 1.0 else 'underflows'}: g is positive "
            f"definite but of scale {scale:.3g} (geometric mean of its diagonal); "
            "rescale it toward 1")
    (m11, _, _), (m21, m22, _), (m31, m32, m33) = inverse
    ginv = unpack([m11 * m11 + m21 * m21 + m31 * m31, m21 * m22 + m31 * m32,
                   m31 * m33, m22 * m22 + m32 * m32, m33 * m33, m32 * m33])
    factor = _MetricFactor(root_det, upper, inverse, _frozen(ginv),
                           _frozen(_EPS3 / root_det), _frozen(np.array(inverse)).T)
    object.__setattr__(g, "_factor", factor)
    return factor


def volume_form(g: SymTensor3) -> tuple[np.ndarray, np.ndarray]:
    """Volume form of a metric and its fully raised counterpart.

    Returns (mu_lower, mu_upper) with mu_ijk = sqrt(det g) * eps_ijk and
    mu^ijk = eps_ijk / sqrt(det g), so that raising mu_lower with the
    inverse metric reproduces mu_upper.  In an orthonormal frame both
    normalizations give mu_123 = mu^123 = 1: fresh arrays from g's factor.
    """
    factor = _require_metric(g)
    return factor.root_det * _EPS3, factor.mu_upper.copy()


@dataclass(frozen=True)
class MetricJet:
    """Metric plus first and second coordinate derivatives at a point.

    dg has shape (3, 6): row k holds the canonical components of
    d_k g_ij.  ddg has shape (6, 6): row p holds the components of
    d_k d_l g_ij for the (k, l) pair in canonical pair order, so the
    symmetry of mixed partials is structural.  dg and ddg are read by
    `_real_array`, so they are finite, and read-only; writeable float arrays
    passed in are copied, so they stay the caller's.
    """

    g: SymTensor3
    dg: np.ndarray
    ddg: np.ndarray

    def __post_init__(self):
        _require_metric(self.g)
        object.__setattr__(self, "dg", _read_only(self.dg, (3, 6), "dg"))
        object.__setattr__(self, "ddg", _read_only(self.ddg, (6, 6), "ddg"))

    @classmethod
    def from_full(cls, g: np.ndarray, dg_full: np.ndarray, ddg_full: np.ndarray) -> "MetricJet":
        """Build from full arrays dg_full[k,i,j] and ddg_full[k,l,i,j]."""
        dg = _real_array(dg_full, (3, 3, 3), "dg_full")[:, _ROWS, _COLS]
        ddg = _real_array(ddg_full, (3, 3, 3, 3), "ddg_full")[_ROWS, _COLS][:, _ROWS, _COLS]
        return cls(SymTensor3.from_matrix(_real_array(g, (3, 3), "g")), _frozen(dg), _frozen(ddg))

    @property
    def dg_full(self) -> np.ndarray:
        """First derivatives as a (3, 3, 3) array indexed [k, i, j]."""
        return self.dg[:, _UNPACK]

    @property
    def ddg_full(self) -> np.ndarray:
        """Second derivatives as a (3, 3, 3, 3) array indexed [k, l, i, j]."""
        return self.ddg[:, _UNPACK][_UNPACK]


def _lowered_gamma(jet: MetricJet) -> np.ndarray:
    """Gamma[m, ab] = Gamma_{m,ab} = 1/2 (d_a g_bm + d_b g_am - d_m g_ab), the
    lowered Christoffel symbols as a (3, 9) array gathered from the packed dg."""
    first = jet.dg.ravel()[_BRACKET_GATHER]
    return 0.5 * (first[0] + first[1] - first[2])


def christoffel(jet: MetricJet) -> np.ndarray:
    """Levi-Civita connection coefficients, shape (3, 3, 3) indexed [k, i, j].

    Gamma^k_ij = g^km Gamma_{m,ij}: the lowered symbols that `riemann` uses,
    raised by the metric's kept g^-1; exactly symmetric in (i, j).  A jet
    whose Gamma overflows is a DomainError naming the overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = (_require_metric(jet.g).ginv @ _lowered_gamma(jet)).reshape(3, 3, 3)
    if not np.isfinite(gamma).all():
        raise DomainError(_OVERFLOW)
    return gamma


def _curvature_tensor(lowered) -> tuple[np.ndarray, float]:
    """`lowered` read-only (`_read_only`) and max |R_ijkl|, once the
    algebraic symmetries hold to within 1e-12 of that maximum."""
    r = _read_only(lowered, (3, 3, 3, 3), "lowered")
    flat = r.ravel()
    size = float(np.abs(flat).max())
    # the residuals r + r^(1,0,2,3), r + r^(0,1,3,2), r - r^(2,3,0,1) and
    # r + r^(0,2,3,1) + r^(0,3,1,2), from one gather of the 81 entries
    # (row 2 holds the negated difference, which rounds the same)
    moved = flat[_SYMMETRY_GATHER]
    moved[:2] += flat
    moved[2] -= flat
    moved[3] += flat
    moved[3] += moved[4]
    if np.abs(moved[:4]).max() > 1e-12 * size:
        raise DomainError("input violates the Riemann algebraic symmetries")
    return r, size


@dataclass(frozen=True)
class Riemann3:
    """Fully lowered Riemann tensor of a 3-metric.

    `lowered` is R_ijkl, read by `_real_array`, with the algebraic symmetries
    (antisymmetry in (i,j) and (k,l), pair symmetry, first Bianchi identity), read-only.
    `bivector_form` is the symmetric (2,0) tensor (an upper-index SymTensor3)
    1/4 mu^irs mu^jkl R_rskl, the curvature viewed as a bilinear form on
    the mu-identified bivector space.  `_pair` is the checked pass over
    this tensor and the last metric object it was paired with:
    (g, pass), the pass as `_pair_pass` returns it.
    """

    lowered: np.ndarray
    bivector_form: SymTensor3
    _pair: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lowered", _curvature_tensor(self.lowered)[0])
        p = self.bivector_form
        if not (isinstance(p, SymTensor3) and p.variance == "upper"):
            raise DomainError(f"bivector_form must be a SymTensor3 with upper indices, got {p!r}")

    @classmethod
    def from_lowered(cls, lowered: np.ndarray, g: SymTensor3) -> "Riemann3":
        r, size = _curvature_tensor(lowered)
        root_det, _, _, _, mu_up, _ = _require_metric(g)
        # a row of mu^irs holds two entries +-1 / sqrt(det g), so no partial sum of
        # P's products exceeds 4 max |R| / det g; near inf, P is tried quietly first
        if not 8.0 * size / root_det / root_det < math.inf:
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.isfinite(_p_bivector(r, mu_up)).all():
                    raise DomainError(_OVERFLOW)
        riem = object.__new__(cls)  # built without repeating the checks of Riemann3(...)
        riem.__dict__.update(lowered=r, _pair=None,
                             bivector_form=SymTensor3.from_matrix(_p_bivector(r, mu_up), "upper"))
        return riem

    @classmethod
    def space_form(cls, kappa: float, g: SymTensor3) -> "Riemann3":
        """Constant-curvature tensor R_ijkl = kappa (g_ik g_jl - g_il g_jk)."""
        kappa = finite_real(kappa, "kappa")
        _require_metric(g)
        # g_ik g_jl - g_il g_jk and its product with kappa stay below this bound
        size = max(map(abs, g.components.tolist()))
        if not max(1.0, abs(kappa)) * 2.0 * size * size < math.inf:
            raise DomainError(_OVERFLOW)
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
            q = _real_array(rotation, (3, 3), "rotation")
            if not _gram_deviation(q.T.tolist()) <= STRUCTURE_TOL:
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
    A finite jet whose R overflows is a DomainError naming the overflow.
    """
    # formed quietly: an overflow on the way leaves R non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = _lowered_gamma(jet)
        quadratic = (gamma.T @ _require_metric(jet.g).ginv @ gamma).ravel()[_RIEMANN_QUADRATIC]
        second = jet.ddg.ravel()[_RIEMANN_LINEAR]
        r = 0.5 * (second[0] + second[1] - second[2] - second[3]) + quadratic[0] - quadratic[1]
        r = r.reshape(3, 3, 3, 3)
        r = 0.25 * (r - r.transpose(1, 0, 2, 3) - r.transpose(0, 1, 3, 2)
                    + r.transpose(1, 0, 3, 2))
        r = 0.5 * (r + r.transpose(2, 3, 0, 1))
    if not np.isfinite(r).all():
        raise DomainError(_OVERFLOW)
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
    root_det, _, _, ginv, _, _ = _require_metric(g)
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
    if not all(map(math.isfinite, trace_form)):
        raise DomainError(_OVERFLOW)
    dev = _deviation(trace_form, p.matrix.ravel().tolist(), (p_norm,))
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

    All three pairs are compared relative to
    det(g) ||P||_F^2, which scales like h under g -> s g and bounds it, so a
    vanishing h (a singular or zero P) is checked like any other.  The scale
    is divided in two steps of sqrt(det g) ||P||_F, because ||P||_F^2 alone
    overflows where h is still finite and det g alone can round to a
    subnormal float.
    """
    root_det, _, _, p_t, p_norm = _pair_pass(riem, g)
    r = riem.lowered
    comps = p_t.components.tolist()

    # formed quietly: an overflow on the way leaves a route non-finite
    with np.errstate(over="ignore", invalid="ignore"):
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

    # the two finite routes packed as SymTensor3.from_matrix packs them, and
    # h_det, which is exactly symmetric
    return CrossCurvatureForms(
        contraction_form=SymTensor3._made(_packed_symmetric_part(h_con)),
        mu_form=SymTensor3._made(_packed_symmetric_part(h_mu)),
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
    to inf silently.  Returns the canonical frame components (read-only),
    their ascending eigenvalues, the orthonormal eigenvectors in the frame
    (columns) and L^-T (read-only).  A g that is not a metric and an
    overflow are each a DomainError; `_certify_eigenpairs` checks every solve."""
    t11, t12, t13, t22, t33, t23 = t.components.tolist()
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


# The finite-difference stencil in sampling order: +e_k, -e_k for k = 0, 1, 2,
# then the diagonals +(e_k + e_l), -(e_k + e_l) for (k, l) = (0, 1), (0, 2),
# (1, 2).  Each row is a sum of signed unit vectors, so a zero entry is -0.0
# exactly where every term subtracts, and x + h * row rounds as the chained
# x +- h e_k +- h e_l does, signed zeros included.
_FD_OFFSETS = _frozen(np.array(
    [s * _EYE[k] for k in range(3) for s in (1.0, -1.0)]
    + [s * _EYE[k] + s * _EYE[l] for k, l in ((0, 1), (0, 2), (1, 2)) for s in (1.0, -1.0)]))
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


def jet_from_function(g_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                      step: float = 1e-3, richardson: bool = False) -> MetricJet:
    """Second-order central-difference jet of a coordinate metric field.

    g_fn maps a point (3-vector) to the 3x3 metric matrix there.  It is
    called once at x, then at the 12 points x + h * row of `_FD_OFFSETS` for
    h = step and, with richardson=True, for h = step / 2: 13 samples, or 25.
    With the second differences D_v = g(x + h v) - 2 g(x) + g(x - h v),

        d_k g = (g(x + h e_k) - g(x - h e_k)) / 2h,
        d_k d_k g = D_{e_k} / h^2,
        d_k d_l g = (D_{e_k + e_l} - D_{e_k} - D_{e_l}) / 2h^2,

    the last being the seven-point formula of Abramowitz & Stegun 25.3.27,
    which shares the axis samples of the pure derivatives.  Its error is
    h^2/12 (2 g_kkkl + 3 g_kkll + 2 g_klll), even in h, and ddg is
    symmetric under the derivative-pair swap exactly.  With richardson=True
    the step and half-step estimates are combined to fourth order.

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
    x = np.array(_real_array(x, (3,), "point"))
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
    # differences divide by them; the largest, 2 step^2, must be finite
    if not 2.0 * step * step < math.inf:
        raise DomainError(_STEP_OVERFLOW)

    packed = stack[:, _ROWS, _COLS]
    # [step, v, s]: the sample at x + s h v, s = +1, -1, for the six v of
    # the stencil: e_0, e_1, e_2, e_0 + e_1, e_0 + e_2, e_1 + e_2
    pairs = packed[1:].reshape(len(steps), 6, 2, 6)
    plus, minus = pairs[:, :, 0], pairs[:, :, 1]
    div = np.array([[2.0 * h, h**2, 2.0 * h**2] for h in steps])[:, :, None, None]
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


_STEP_OVERFLOW = "the stencil's divisor 2 fd_step squared overflows; fd_step must keep it finite"
_CHART_OVERFLOW = "the chart metric or its jet overflows; kappa and point must keep them finite"
_SEEDS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))  # unit first partials


class _HyperDual:
    """Second-order forward-mode ("hyper-dual") number in three variables, in
    Python floats (J. Fike and J. Alonso, AIAA 2011-886): value v, first
    partials d_k, second partials h = d_k d_l in COMPONENT_ORDER.  It has only
    what the chart uses: + and * with floats or such numbers, the square,
    float() and c / w."""

    __slots__ = ("v", "d", "h")

    def __init__(self, v: float, d: tuple, h: tuple = (0.0,) * 6):
        self.v, self.d, self.h = v, d, h

    def __float__(self) -> float:
        return self.v

    def __add__(self, other):
        if type(other) is not _HyperDual:
            return _HyperDual(self.v + other, self.d, self.h)
        (a0, a1, a2), (p0, p1, p2, p3, p4, p5) = self.d, self.h
        (b0, b1, b2), (q0, q1, q2, q3, q4, q5) = other.d, other.h
        return _HyperDual(self.v + other.v, (a0 + b0, a1 + b1, a2 + b2),
                          (p0 + q0, p1 + q1, p2 + q2, p3 + q3, p4 + q4, p5 + q5))

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not _HyperDual:
            return _HyperDual(self.v * other, tuple([x * other for x in self.d]),
                              tuple([x * other for x in self.h]))
        # d_k d_l (a b) = a b_kl + a_k b_l + a_l b_k + a_kl b, written out per pair
        a, (a0, a1, a2), (p0, p1, p2, p3, p4, p5) = self.v, self.d, self.h
        b, (b0, b1, b2), (q0, q1, q2, q3, q4, q5) = other.v, other.d, other.h
        return _HyperDual(
            a * b, (a * b0 + a0 * b, a * b1 + a1 * b, a * b2 + a2 * b),
            (a * q0 + 2.0 * a0 * b0 + p0 * b, a * q1 + a0 * b1 + a1 * b0 + p1 * b,
             a * q2 + a0 * b2 + a2 * b0 + p2 * b, a * q3 + 2.0 * a1 * b1 + p3 * b,
             a * q4 + 2.0 * a2 * b2 + p4 * b, a * q5 + a1 * b2 + a2 * b1 + p5 * b))

    __rmul__ = __mul__

    def __pow__(self, n):
        return self * self if n == 2 else NotImplemented

    def __rtruediv__(self, c):
        # d_k (c / w) = -c w_k / w^2, d_k d_l (c / w) = c (2 w_k w_l / w - w_kl) / w^2, each
        # partial times r = 1 / w before the second r: w^2 would leave the float range first
        w, (d0, d1, d2), (h0, h1, h2, h3, h4, h5) = self.v, self.d, self.h
        r = 1.0 / w
        s, t0, t1, t2 = c * r, d0 * r, d1 * r, d2 * r  # c / w and w_k / w
        return _HyperDual(s, (-t0 * s, -t1 * s, -t2 * s),
                          ((2.0 * t0 * d0 - h0) * r * s, (2.0 * t0 * d1 - h1) * r * s,
                           (2.0 * t0 * d2 - h2) * r * s, (2.0 * t1 * d1 - h3) * r * s,
                           (2.0 * t2 * d2 - h4) * r * s, (2.0 * t1 * d2 - h5) * r * s))


def _conformal_chart(kappa: float, x):
    """The conformal chart of the curvature-kappa space form, written once:
    g_ij = delta_ij u^-2, u = 1 + kappa |x|^2 / 4, at three finite coordinates
    (floats or seeded `_HyperDual`s).  A DomainError where u <= 0, where u is
    nan (kappa = 0 times an |x|^2 that overflows) or a finite u's float square
    overflows; u = inf gives g = 0, a non-metric."""
    x0, x1, x2 = x
    u = 1.0 + 0.25 * kappa * (x0 * x0 + x1 * x1 + x2 * x2)
    if float(u) <= 0.0:
        raise DomainError("point lies outside the chart domain")
    if math.isnan(float(u)):
        raise DomainError(_CHART_OVERFLOW)
    try:
        return 1.0 / u ** 2
    except OverflowError as exc:
        raise DomainError(_CHART_OVERFLOW) from exc


def space_form_chart(kappa: float) -> Callable[[np.ndarray], np.ndarray]:
    """Conformal chart of the curvature-kappa space form as a metric callback:
    `_conformal_chart` on floats, kappa read once (`bounds.finite_real`) and
    each point by `_real_array`.  Each call returns a fresh array."""
    kappa = finite_real(kappa, "kappa")
    return lambda x: _EYE * _conformal_chart(kappa, _real_array(x, (3,), "point").tolist())


def space_form_chart_jet(kappa: float, x: np.ndarray) -> MetricJet:
    """Exact jet of the conformal space-form chart, to rounding: kappa and the
    point read once, g from `_conformal_chart` on floats, checked as a metric
    first, then dg and ddg from the same chart on seeded coordinates; a
    derivative that is not finite is a DomainError naming the overflow."""
    kappa = finite_real(kappa, "kappa")
    coords = _real_array(x, (3,), "point").tolist()
    diagonal = _conformal_chart(kappa, coords)
    g = SymTensor3._made([diagonal, 0.0, 0.0, diagonal, diagonal, 0.0])
    _require_metric(g)
    jet = _conformal_chart(kappa, map(_HyperDual, coords, _SEEDS))
    partials = [*jet.d, *jet.h]
    if not all(map(math.isfinite, partials)):
        raise DomainError(_CHART_OVERFLOW)
    # dg_kij = delta_ij d_k u^-2 and ddg_klij = delta_ij d_k d_l u^-2, packed
    packed = _frozen(np.multiply.outer(partials, _IDENTITY.components))
    return MetricJet(g, packed[:3], packed[3:])
