"""Pointwise curvature of 3-metrics and the cross curvature tensor.

Everything here operates on immutable value types at a single point: a
symmetric 3x3 metric, its first and second coordinate derivatives (a
"jet"), the fully lowered Riemann tensor, and the symmetric 2-tensors
derived from them.  The engine runs on Python floats: numpy is imported only
at the array edge, where a read-only `components`, `matrix`, `lowered`,
`dg` or `ddg` or a documented array result is built on demand, and by
`jet_from_function`, whose callbacks take and return arrays.  Every array a
caller hands the library, here, in `symbol` and in `flow`, is read once, by
`_real_array`, into finite floats or a DomainError naming it, every tensor
argument is checked to be one (`_tensor`), and every public call names an
overflow on its way as a DomainError.

In 3-D the six components R_(ij)(kl) over the bivectors (12), (20), (01)
fix R_ijkl: `riemann`, `Riemann3.space_form` and `Riemann3.from_frame`
compute those six and expand them with one index table, and a caller's
R_ijkl is checked for the algebraic symmetries.  g^-1, sqrt(det g) and the
eigensolver's frame come from one Cholesky factor g = L L^T, which alone
decides whether g is a metric and which each metric object keeps
(`_require_metric`).  P, the Einstein-type tensor with raised indices, and
the cross curvature tensor h are computed by routes that check one another,
each h route over the entries R_ijkl, in one pass per (Riemann3, metric)
pair (`_pair_pass`).  Each eigenproblem is solved by a cyclic Jacobi
iteration, certified by its residuals (`_frame_eigh`).  The conformal
space-form chart is written once, over floats and over a forward-mode
number that gives its exact jet (`_conformal_chart`).

Sign conventions are pinned by the unit round 3-sphere: in an
orthonormal frame R_1212 = +1, the Ricci tensor is 2g, the scalar
curvature is 6, and the raised Einstein-type tensor P has eigenvalues
equal to the sectional curvatures (all +1).  With eigenvalues (a, b, c)
of P, the Ricci eigenvalues are (b+c, a+c, a+b) and the cross curvature
eigenvalues are (bc, ac, ab).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

from .bounds import finite_real, flag, real_number
from .errors import DomainError, InternalConsistencyError

if TYPE_CHECKING:
    import numpy as np

# Canonical ordering of the 6 independent components of a symmetric
# 3x3 tensor.  The 33 component precedes 23 throughout the package.
COMPONENT_ORDER: tuple[tuple[int, int], ...] = (
    (0, 0), (0, 1), (0, 2), (1, 1), (2, 2), (1, 2),
)
_SLOT = ((0, 1, 2), (1, 3, 5), (2, 5, 4))  # _SLOT[i][j]: the canonical slot of entry (i, j)
# a symmetric matrix's nine entries, row by row, from its six components, and back
_FULL = operator.itemgetter(0, 1, 2, 1, 3, 5, 2, 5, 4)
_PACK = operator.itemgetter(0, 1, 2, 4, 8, 5)
# the bivectors (12), (20), (01); e_i ^ e_j is +-(1 + a) times bivector a
_BIVECTORS = ((1, 2), (2, 0), (0, 1))
_PAIR = {pair[::s]: s * (1 + a) for a, pair in enumerate(_BIVECTORS) for s in (1, -1)}


def _flat(*index: int) -> int:
    """The row-major slot of an entry of a 3-D array of rank len(index)."""
    return functools.reduce(lambda slot, value: 3 * slot + value, index, 0)


def _gather(slot: Callable[..., int], rank: int = 4) -> operator.itemgetter:
    """The gather of the entries slot(*index) for each index of a 3-D array
    of rank `rank`, row-major."""
    indices = itertools.product(range(3), repeat=rank)
    return operator.itemgetter(*(slot(*index) for index in indices))


def _expansion(i: int, j: int, k: int, l: int) -> int:
    """Where R_ijkl = sign(ij) sign(kl) R_(ij)(kl) is in (0.0, *s, *-s), for
    the six bivector components s."""
    a, b = _PAIR.get((i, j), 0), _PAIR.get((k, l), 0)
    return a and b and (1 if a * b > 0 else 7) + _SLOT[abs(a) - 1][abs(b) - 1]


# the 81 entries R_ijkl from the six bivector components, and back
_EXPAND = _gather(_expansion)
_BIVECTOR_ENTRIES = operator.itemgetter(*(_flat(*_BIVECTORS[a], *_BIVECTORS[b])
                                          for a, b in COMPONENT_ORDER))
# R_ijkl moved as each algebraic symmetry compares it: R_jikl, R_ijlk, R_klij,
# and the two other terms R_iljk, R_iklj of the first Bianchi identity
_SYMMETRY_GATHERS = [_gather(lambda *q, p=p: _flat(*(q[n] for n in p))) for p in
                     ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1), (0, 3, 1, 2), (0, 2, 3, 1))]
# per component ij, over (k, l) or (r, s): R_kilj of Ric_ij = g^kl R_kilj, R_irjs of
# h_ij = 1/2 P^rs R_irjs, and T_ilk, T_kjl of h_ij = 1/8 T_ilk T_kjl (T flat, [i, l, k])
_RICCI = [_gather(lambda k, l, i=i, j=j: _flat(k, i, l, j), 2) for i, j in COMPONENT_ORDER]
_H_CONTRACTION = [_gather(lambda r, s, i=i, j=j: _flat(i, r, j, s), 2) for i, j in COMPONENT_ORDER]
_H_MU = [(_gather(lambda l, k, i=i: _flat(i, l, k), 2),
          _gather(lambda l, k, j=j: _flat(k, j, l), 2)) for i, j in COMPONENT_ORDER]
# T_ilk = R_ilpq mu^pqk has the terms R_il(bc) and R_il(cb), (b, c) the bivector k
_T_TERMS = [_gather(lambda i, l, k, s=s: _flat(i, l, *_BIVECTORS[k][::s]), 3) for s in (1, -1)]
# per bivector component R_ijkl: the slots in the packed ddg of d_j d_k g_il,
# d_i d_l g_jk, d_i d_k g_jl and d_j d_l g_ik, and of the pairs il, jk, ik, jl
# of its M = Gamma^T g^-1 Gamma entries M[il, jk] - M[ik, jl]
_RIEMANN_TERMS = [(6 * _SLOT[j][k] + _SLOT[i][l], 6 * _SLOT[i][l] + _SLOT[j][k],
                   6 * _SLOT[i][k] + _SLOT[j][l], 6 * _SLOT[j][l] + _SLOT[i][k],
                   _SLOT[i][l], _SLOT[j][k], _SLOT[i][k], _SLOT[j][l])
                  for (i, j), (k, l) in ((_BIVECTORS[a], _BIVECTORS[b])
                                         for a, b in COMPONENT_ORDER)]
# eps_ijk, row-major: +1 on the cyclic orders of (0, 1, 2), -1 on the others
_EPS = [(1.0 if (j - i) % 3 == 1 else -1.0) if len({i, j, k}) == 3 else 0.0
        for i, j, k in itertools.product(range(3), repeat=3)]
# MetricJet's dg and ddg from full arrays [k, i, j] and [k, l, i, j], and back
_DG_PACK = operator.itemgetter(*(_flat(k, *ij) for k in range(3) for ij in COMPONENT_ORDER))
_DDG_PACK = operator.itemgetter(*(_flat(*kl, *ij) for kl in COMPONENT_ORDER
                                  for ij in COMPONENT_ORDER))
_DG_FULL = _gather(lambda k, i, j: 6 * k + _SLOT[i][j], 3)
_DDG_FULL = _gather(lambda k, l, i, j: 6 * _SLOT[k][l] + _SLOT[i][j])
# full arrays [k, i, j] and [k, l, i, j] with (i, j), or (k, l), swapped
_DG_SWAP_IJ = _gather(lambda k, i, j: _flat(k, j, i), 3)
_DDG_SWAP_IJ = _gather(lambda k, l, i, j: _flat(k, l, j, i))
_DDG_SWAP_KL = _gather(lambda k, l, i, j: _flat(l, k, i, j))
# the terms d_a g_bm, d_b g_am, d_m g_ab of Gamma_{m,ab} in the packed dg, m-major
_BRACKET = [operator.itemgetter(*(6 * x + _SLOT[y][z] for m in range(3) for a, b in COMPONENT_ORDER
                                  for x, y, z in [((a, b, m), (b, a, m), (m, a, b))[n]]))
            for n in range(3)]

# Relative tolerance for agreement between independent formulas of the
# same tensor; failures indicate inconsistent (riem, g) input.
FORMULA_AGREEMENT_RTOL = 1e-10
# Residual tolerance of an eigensolve's and a symbol's self-checks, in units of their scale
STRUCTURE_TOL = 1e-12
_OVERFLOW = "curvature values overflow; the input must keep them finite"
# The Jacobi iteration stops once every off-diagonal entry of the matrix,
# scaled to a largest entry in [1/2, 1), is at most this, and after this many sweeps
_JACOBI_FLOOR = 2.0 ** -55
_JACOBI_SWEEPS = 12


def _array(values, shape: tuple = (), *, frozen: bool = True) -> np.ndarray:
    """`values` as a fresh float array of `shape` (as given, if empty), read-only if `frozen`."""
    import numpy as np

    array = np.array(values, dtype=float)
    array = array.reshape(shape) if shape else array
    array.setflags(write=not frozen)
    return array


def _dot9(a, b) -> float:
    """a . b of two sequences of nine floats, summed left to right."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3 + a4 * b4 + a5 * b5 + a6 * b6 + a7 * b7
            + a8 * b8)


def pack(matrix: np.ndarray) -> np.ndarray:
    """The 6 canonical components (11,12,13,22,33,23) of a finite 3x3 matrix, fresh."""
    return _array(_PACK(_real_array(matrix, (3, 3), "matrix")), frozen=False)


def unpack(components: np.ndarray) -> np.ndarray:
    """The symmetric 3x3 matrix of six finite canonical components, fresh."""
    return _array(_FULL(_real_array(components, (6,), "components")), (3, 3), frozen=False)


@dataclass(frozen=True, init=False)
class SymTensor3:
    """A symmetric 3x3 tensor stored as 6 components in canonical order.

    The variance tag distinguishes index placement: 'lower' for (0,2)
    tensors (metrics, Ricci, cross curvature) and 'upper' for (2,0)
    tensors (inverse metrics, the raised Einstein-type tensor).
    Symmetry is structural: only the 6 independent components exist, read
    once by `_real_array` into `values`, Python floats finite by
    construction.  `components` (read-only) and `matrix` are fresh arrays.
    """

    values: tuple
    variance: str = "lower"
    # the checked factor of this object as a metric (`_require_metric`)
    _factor: "_MetricFactor | None" = field(default=None, repr=False, compare=False)

    def __init__(self, components, variance: str = "lower"):
        self.__dict__.update(values=tuple(_real_array(components, (6,), "components")),
                             variance=_variance(variance), _factor=None)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, variance: str = "lower") -> "SymTensor3":
        entries = _real_array(matrix, (3, 3), "matrix")
        _, m12, m13, m21, _, m23, m31, m32, _ = entries
        # np.allclose(m, m.T, rtol=0, atol=...) on finite entries, in Python
        # floats: one compare of the largest off-diagonal gap
        scale = max(1.0, *map(abs, entries))
        if max(abs(m12 - m21), abs(m13 - m31), abs(m23 - m32)) > 1e-12 * scale:
            raise DomainError("matrix is not symmetric")
        return cls._made(_packed_symmetric_part(entries), _variance(variance))

    @classmethod
    def identity(cls, variance: str = "lower") -> "SymTensor3":
        return cls._made((1.0, 0.0, 0.0, 1.0, 1.0, 0.0), _variance(variance))

    @classmethod
    def _made(cls, values, variance: str = "lower") -> "SymTensor3":
        """A tensor on six finite floats the library has just computed, unchecked."""
        t = object.__new__(cls)
        t.__dict__.update(values=tuple(values), variance=variance, _factor=None)
        return t

    @property
    def components(self) -> np.ndarray:
        return _array(self.values)

    @property
    def matrix(self) -> np.ndarray:
        return _array(_FULL(self.values), (3, 3), frozen=False)

    def is_positive_definite(self) -> bool:
        """Whether the Cholesky factor t = L L^T exists in floats, whatever the
        scale of t; a metric check still refuses a sqrt(det t) out of range."""
        return _cholesky(self.values) is not None


def _variance(variance) -> str:
    """`variance` if it is 'lower' or 'upper', else a DomainError."""
    if not (isinstance(variance, str) and variance in ("lower", "upper")):
        raise DomainError(f"variance must be 'lower' or 'upper', got {variance!r}")
    return variance


def _tensor(value, variance: str | None, name: str) -> SymTensor3:
    """`value` if it is a SymTensor3, with `variance` indices unless that is
    None, else a DomainError naming the argument `name`."""
    if not (isinstance(value, SymTensor3) and variance in (None, value.variance)):
        kind = f"a SymTensor3 with {variance} indices" if variance else "a SymTensor3"
        raise DomainError(f"{name} must be {kind}, got {value!r}")
    return value


def _real_array(value, shape: tuple, name: str) -> list[float]:
    """The entries of `value`, row-major, as Python floats, once it is an
    array of `shape` (a leading None: any length) of finite numbers that
    `bounds.real_number` reads (`_entries`), or a DomainError naming it `name`:
    text, bools, complex numbers, 10**400, None and ragged nesting end here."""
    try:
        dims, entries = _entries(value)
    except (DomainError, TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be an array of real numbers within the float range, "
                          f"got {value!r}") from None
    if dims != shape and (shape[0] is not None or dims[1:] != shape[1:] or not dims):
        raise DomainError(f"{name} must have shape {str(shape).replace('None', 'N')}, "
                          f"got shape {dims}")
    if not all(map(math.isfinite, entries)):
        raise DomainError(f"{name} must be finite")
    return entries


def _entries(value) -> tuple[tuple, list[float]]:
    """(shape, float entries, row-major) of a number, a numpy array or a
    regular nesting of lists, tuples and ranges; an array of bools, complex
    numbers or text, ragged nesting and an entry `bounds.real_number` refuses raise."""
    if type(value) is float:
        return (), [value]
    kind = getattr(getattr(value, "dtype", None), "kind", None)
    if kind is not None and kind != "O":
        if kind not in "fiu":
            raise TypeError("not an array of real numbers")
        return tuple(value.shape), list(map(float, value.ravel().tolist()))
    if kind == "O":
        value = value.tolist()
    if isinstance(value, (list, tuple, range)):
        if all(type(item) is float for item in value):
            return (len(value),), list(value)
        items = [_entries(item) for item in value]
        inner = {dims for dims, _ in items}
        if len(inner) > 1:
            raise ValueError("ragged nesting")
        return (len(items), *(inner.pop() if items else ())), [x for _, xs in items for x in xs]
    return (), [real_number(value, "entry")]


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


# the metric of from_frame, factored once for every frame
_IDENTITY = SymTensor3.identity()


def _sym_adjugate_det(a: float, b: float, c: float,
                      d: float, e: float, f: float) -> tuple[list[float], float]:
    """Adjugate (canonical components) and determinant of the symmetric 3x3
    matrix whose canonical components (11, 12, 13, 22, 33, 23) are a..f."""
    adj = [d * e - f * f, c * f - b * e, b * f - c * d,
           a * e - c * c, a * d - b * b, b * c - a * f]
    return adj, a * adj[0] + b * adj[1] + c * adj[2]


def _cholesky(comps) -> tuple[float, tuple, tuple] | None:
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
    rows of L^T and of L^-1 (g = L L^T), and the components of g^-1 = L^-T L^-1."""

    root_det: float
    upper: tuple
    inverse: tuple
    ginv: tuple


def _require_metric(g: SymTensor3) -> _MetricFactor:
    """The factor of g, once g is checked to be a metric: a SymTensor3
    (`_tensor`) with lower indices, a Cholesky factor (`_cholesky`), and
    sqrt(det g) = l11 l22 l33 a positive finite float whose reciprocal is
    finite too.  The first call that passes keeps the factor on g, and later
    calls return it; a g that fails is never kept, so it raises on every
    call, and an equal metric held in another object is factored again."""
    factor = g._factor if type(g) is SymTensor3 else _tensor(g, None, "g")._factor
    if factor is not None:
        return factor
    if g.variance != "lower":
        raise DomainError("a metric must carry lower indices")
    comps = g.values
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
    ginv = (m11 * m11 + m21 * m21 + m31 * m31, m21 * m22 + m31 * m32, m31 * m33,
            m22 * m22 + m32 * m32, m33 * m33, m32 * m33)
    factor = _MetricFactor(root_det, upper, inverse, ginv)
    object.__setattr__(g, "_factor", factor)
    return factor


def volume_form(g: SymTensor3) -> tuple[np.ndarray, np.ndarray]:
    """Volume form of a metric and its fully raised counterpart, as fresh
    arrays: mu_ijk = sqrt(det g) eps_ijk and mu^ijk = eps_ijk / sqrt(det g),
    so raising mu_lower with g^-1 gives mu_upper, and mu_123 = mu^123 = 1 in
    an orthonormal frame."""
    root_det = _require_metric(g).root_det
    return tuple(_array([unit * e for e in _EPS], (3, 3, 3), frozen=False)
                 for unit in (root_det, 1.0 / root_det))


@dataclass(frozen=True, init=False)
class MetricJet:
    """Metric plus first and second coordinate derivatives at a point.

    dg has shape (3, 6): row k holds the canonical components of
    d_k g_ij.  ddg has shape (6, 6): row p holds the components of
    d_k d_l g_ij for the (k, l) pair in canonical pair order, so the
    symmetry of mixed partials is structural.  dg and ddg are read by
    `_real_array` into Python floats; the properties are fresh read-only arrays.
    """

    g: SymTensor3
    _dg: tuple = field(repr=False)
    _ddg: tuple = field(repr=False)

    def __init__(self, g: SymTensor3, dg: np.ndarray, ddg: np.ndarray):
        _require_metric(g)
        self.__dict__.update(g=g, _dg=tuple(_real_array(dg, (3, 6), "dg")),
                             _ddg=tuple(_real_array(ddg, (6, 6), "ddg")))

    @classmethod
    def _made(cls, g: SymTensor3, dg, ddg) -> "MetricJet":
        """A jet on a checked metric and 18 + 36 finite floats, unchecked."""
        jet = object.__new__(cls)
        jet.__dict__.update(g=g, _dg=tuple(dg), _ddg=tuple(ddg))
        return jet

    @classmethod
    def from_full(cls, g: np.ndarray, dg_full: np.ndarray, ddg_full: np.ndarray) -> "MetricJet":
        """Build from full arrays dg_full[k,i,j] and ddg_full[k,l,i,j], each
        symmetric in (i, j), and ddg_full in (k, l) too, to within 1e-12 of
        max(1, its largest |entry|) (a DomainError naming it otherwise); the
        canonical entries are kept."""
        first = _real_array(dg_full, (3, 3, 3), "dg_full")
        second = _real_array(ddg_full, (3, 3, 3, 3), "ddg_full")
        for entries, swap, name, pair in ((first, _DG_SWAP_IJ, "dg_full", "(i, j)"),
                                          (second, _DDG_SWAP_IJ, "ddg_full", "(i, j)"),
                                          (second, _DDG_SWAP_KL, "ddg_full", "(k, l)")):
            scale = max(1.0, *map(abs, entries))
            if max(map(abs, map(operator.sub, entries, swap(entries)))) > 1e-12 * scale:
                raise DomainError(f"{name} is not symmetric in {pair}")
        g = _real_array(g, (3, 3), "g")
        metric = SymTensor3.from_matrix([g[:3], g[3:6], g[6:]])
        _require_metric(metric)
        return cls._made(metric, _DG_PACK(first), _DDG_PACK(second))

    @property
    def dg(self) -> np.ndarray:
        return _array(self._dg, (3, 6))

    @property
    def ddg(self) -> np.ndarray:
        return _array(self._ddg, (6, 6))

    @property
    def dg_full(self) -> np.ndarray:
        """First derivatives as a (3, 3, 3) array indexed [k, i, j]."""
        return _array(_DG_FULL(self._dg), (3, 3, 3), frozen=False)

    @property
    def ddg_full(self) -> np.ndarray:
        """Second derivatives as a (3, 3, 3, 3) array indexed [k, l, i, j]."""
        return _array(_DDG_FULL(self._ddg), (3, 3, 3, 3), frozen=False)


def _lowered_gamma(dg: tuple) -> list[float]:
    """Gamma_{m,ab} = 1/2 (d_a g_bm + d_b g_am - d_m g_ab) at 6 m + slot(ab)."""
    return [0.5 * (x + y - z) for x, y, z in zip(*(gather(dg) for gather in _BRACKET))]


def christoffel(jet: MetricJet) -> np.ndarray:
    """Levi-Civita connection Gamma^k_ij = g^km Gamma_{m,ij}, indexed [k, i, j]:
    the lowered symbols of `riemann` raised by the kept g^-1, exactly
    symmetric in (i, j).  A jet that is not a MetricJet, or an overflow, is
    a DomainError naming it."""
    if type(jet) is not MetricJet:
        raise DomainError(f"jet must be a MetricJet, got {jet!r}")
    gamma = _lowered_gamma(jet._dg)
    ginv = _FULL(_require_metric(jet.g).ginv)
    raised = [ginv[3 * k] * gamma[n] + ginv[3 * k + 1] * gamma[6 + n]
              + ginv[3 * k + 2] * gamma[12 + n] for k in range(3) for n in range(6)]
    if not all(map(math.isfinite, raised)):
        raise DomainError(_OVERFLOW)
    return _array(_DG_FULL(raised), (3, 3, 3), frozen=False)


def _curvature_tensor(lowered) -> tuple:
    """`lowered` read by `_real_array` into 81 floats, once the algebraic
    symmetries hold to within 1e-12 of max |R_ijkl|."""
    r = tuple(_real_array(lowered, (3, 3, 3, 3), "lowered"))
    size = max(map(abs, r))
    # the residuals r + r^(1,0,2,3), r + r^(0,1,3,2), r^(2,3,0,1) - r and
    # r + r^(0,2,3,1) + r^(0,3,1,2), over the 81 entries
    t1, t2, t3, t4, t5 = (gather(r) for gather in _SYMMETRY_GATHERS)
    residual = max(max(map(abs, map(operator.add, r, t1))), max(map(abs, map(operator.add, r, t2))),
                   max(map(abs, map(operator.sub, t3, r))),
                   max(abs(x + y + z) for x, y, z in zip(r, t4, t5)))
    if residual > 1e-12 * size:
        raise DomainError("input violates the Riemann algebraic symmetries")
    return r


@dataclass(frozen=True, init=False)
class Riemann3:
    """Fully lowered Riemann tensor of a 3-metric.

    `lowered` is R_ijkl, kept as 81 Python floats with the algebraic
    symmetries (antisymmetry in (i,j) and (k,l), pair symmetry, first Bianchi
    identity), as a fresh read-only array.  `bivector_form` is the symmetric
    (2,0) tensor (an upper-index SymTensor3) 1/4 mu^irs mu^jkl R_rskl, the
    curvature as a bilinear form on the mu-identified bivector space.
    `_pair` is (g, the checked `_pair_pass`) for the last metric object paired.
    """

    _r: tuple = field(repr=False)
    bivector_form: SymTensor3
    _pair: tuple | None = field(default=None, repr=False, compare=False)

    def __init__(self, lowered: np.ndarray, bivector_form: SymTensor3):
        self.__dict__.update(_r=_curvature_tensor(lowered), _pair=None,
                             bivector_form=_tensor(bivector_form, "upper", "bivector_form"))

    @property
    def lowered(self) -> np.ndarray:
        return _array(self._r, (3, 3, 3, 3))

    @classmethod
    def _made(cls, bivector, g: SymTensor3, r: tuple | None = None) -> "Riemann3":
        """The tensor of bivector components R_(ij)(kl) `bivector` on the
        metric g that raises its P, and of entries `r` (by default their
        expansion), unchecked; an overflow on the way is a DomainError."""
        p = _p_bivector(bivector, _require_metric(g).root_det)
        if not all(map(math.isfinite, [*bivector, *p])):
            raise DomainError(_OVERFLOW)
        riem = object.__new__(cls)
        riem.__dict__.update(_r=r or _EXPAND((0.0, *bivector, *[-v for v in bivector])),
                             bivector_form=SymTensor3._made(p, "upper"), _pair=None)
        return riem

    @classmethod
    def from_lowered(cls, lowered: np.ndarray, g: SymTensor3) -> "Riemann3":
        r = _curvature_tensor(lowered)
        return cls._made(_BIVECTOR_ENTRIES(r), g, r)

    @classmethod
    def space_form(cls, kappa: float, g: SymTensor3) -> "Riemann3":
        """Constant-curvature tensor R_ijkl = kappa (g_ik g_jl - g_il g_jk),
        whose bivector components are kappa adj(g)."""
        kappa = finite_real(kappa, "kappa")
        _require_metric(g)
        return cls._made([kappa * v for v in _sym_adjugate_det(*g.values)[0]], g)

    @classmethod
    def from_frame(cls, a: float, b: float, c: float,
                   rotation: np.ndarray | None = None) -> "Riemann3":
        """Curvature with sectional values R_2323 = a, R_1313 = b, R_1212 = c
        in the identity metric, optionally pushed forward by a rotation: a
        finite 3x3 Q with |Q^T Q - I| <= STRUCTURE_TOL entrywise (a
        reflection is one), else DomainError."""
        abc = (finite_real(a, "a"), finite_real(b, "b"), finite_real(c, "c"))
        bivector = [abc[0], 0.0, 0.0, abc[1], abc[2], 0.0]
        if rotation is not None:
            q = _real_array(rotation, (3, 3), "rotation")
            if not _gram_deviation([q[0::3], q[1::3], q[2::3]]) <= STRUCTURE_TOL:
                raise DomainError(f"rotation must be an orthogonal 3x3 matrix "
                                  f"(|Q^T Q - I| <= {STRUCTURE_TOL:.0e} entrywise)")
            # R'_ijkl = q_ia q_jb q_kc q_ld R_abcd moves bivectors by the
            # cofactor matrix C of Q (Q e_b ^ Q e_c = C_ab e_(a)), so the
            # bivector components become C diag(a, b, c) C^T
            cof = [q[3 * i + k] * q[3 * j + l] - q[3 * i + l] * q[3 * j + k]
                   for i, j in _BIVECTORS for k, l in _BIVECTORS]
            bivector = [cof[3 * m] * cof[3 * n] * abc[0] + cof[3 * m + 1] * cof[3 * n + 1] * abc[1]
                        + cof[3 * m + 2] * cof[3 * n + 2] * abc[2] for m, n in COMPONENT_ORDER]
        return cls._made(bivector, _IDENTITY)


def riemann(jet: MetricJet) -> Riemann3:
    """Riemann tensor of the jet's metric, exact in its algebraic symmetries:
    the six bivector components ((i, j), (k, l) in (12), (20), (01)) of

    R_ijkl = 1/2 (d_j d_k g_il + d_i d_l g_jk - d_i d_k g_jl - d_j d_l g_ik)
             + M[il, jk] - M[ik, jl],

    with M = Gamma^T g^-1 Gamma = U^T U, U = L^-1 Gamma for the lowered
    Christoffel symbols Gamma[m, ab] and g = L L^T.  A jet that is not a
    MetricJet, or an overflow, is a DomainError naming it.
    """
    if type(jet) is not MetricJet:
        raise DomainError(f"jet must be a MetricJet, got {jet!r}")
    (m11, _, _), (m21, m22, _), (m31, m32, m33) = _require_metric(jet.g).inverse
    gamma = _lowered_gamma(jet._dg)
    g0, g1, g2 = gamma[:6], gamma[6:12], gamma[12:]
    u0 = [m11 * x for x in g0]
    u1 = [m21 * x + m22 * y for x, y in zip(g0, g1)]
    u2 = [m31 * x + m32 * y + m33 * z for x, y, z in zip(g0, g1, g2)]
    ddg = jet._ddg
    return Riemann3._made(
        [0.5 * (ddg[a] + ddg[b] - ddg[c] - ddg[d])
         + (u0[p] * u0[q] + u1[p] * u1[q] + u2[p] * u2[q])
         - (u0[v] * u0[w] + u1[v] * u1[w] + u2[v] * u2[w])
         for a, b, c, d, p, q, v, w in _RIEMANN_TERMS], jet.g)


# The two routes to P and the three to h, each its own function, so a test can
# perturb one route and see the agreement check fire: canonical components in
# Python floats, where an overflow on the way leaves an entry non-finite.

def _p_bivector(bivector, root_det: float) -> list[float]:
    """P^ij = 1/4 mu^irs mu^jkl R_rskl = R_(i)(j) / det g, (i) the bivector i."""
    return [v / root_det / root_det for v in bivector]


def _p_trace(ginv, ric, scalar: float) -> list[float]:
    """P^ij = (R/2) g^ij - g^ik Ric_kl g^lj."""
    g, m = _FULL(ginv), _FULL(ric)
    w = [g[i] * m[j] + g[i + 1] * m[j + 3] + g[i + 2] * m[j + 6] for i in (0, 3, 6)
         for j in range(3)]  # g^-1 Ric, row by row
    half = 0.5 * scalar
    return [half * ginv[n] - (w[3 * i] * g[j] + w[3 * i + 1] * g[j + 3] + w[3 * i + 2] * g[j + 6])
            for n, (i, j) in enumerate(COMPONENT_ORDER)]


def _h_contraction(p, r: tuple) -> list[float]:
    """h_ij = 1/2 P^rs R_irjs."""
    p = _FULL(p)
    return [0.5 * _dot9(p, gather(r)) for gather in _H_CONTRACTION]


def _h_mu(r: tuple, root_det: float) -> list[float]:
    """h_ij = 1/8 T_ilk T_kjl with T_ilk = R_ilpq mu^pqk, whose two terms
    are +-R_il(bc) / sqrt(det g) for (b, c) the bivector k and its reverse."""
    mu = 1.0 / root_det
    t = [x * mu - y * mu for x, y in zip(*(terms(r) for terms in _T_TERMS))]
    return [0.125 * _dot9(left(t), right(t)) for left, right in _H_MU]


def _h_determinant(root_det: float, p_components) -> list[float]:
    """h_ij = det(g) adj(P)_ij = adj(sqrt(det g) P)_ij, defined for every P
    and free of g^-1.  Scaling P first keeps det g from rounding to a
    subnormal float, and adj(P) from overflowing where h is finite:
    sqrt(det g) P is of the size of sqrt(|h|)."""
    return _sym_adjugate_det(*(root_det * v for v in p_components))[0]


def _deviation(xs, ys, scale: tuple[float, ...]) -> float:
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
    value `riem.bivector_form`, relative to ||P||_F.  Raises DomainError when
    riem is not a Riemann3, g not a metric, or R or the trace form overflows
    (the latter even when formed on Ric / 2 and R / 2, then doubled), and
    InternalConsistencyError, which indicates an inconsistent pair, when
    the forms disagree.  The pass is kept on `riem` only once every check has
    succeeded, so such a pair raises on every call.
    """
    if type(riem) is not Riemann3:
        raise DomainError(f"riem must be a Riemann3, got {riem!r}")
    pair = riem._pair
    if pair is not None and pair[0] is g:
        return pair[1]
    root_det, _, _, ginv = _require_metric(g)
    full_ginv, r = _FULL(ginv), riem._r
    ric = [_dot9(full_ginv, gather(r)) for gather in _RICCI]
    scalar = _dot9(full_ginv, _FULL(ric))
    # every entry of Ric enters R (times g^ij, and inf * 0 is nan), so a
    # non-finite Ric makes R non-finite too
    if not math.isfinite(scalar):
        raise DomainError(_OVERFLOW)
    p = riem.bivector_form
    comps = p.values
    p_norm = math.hypot(*comps, comps[1], comps[2], comps[5])
    trace_form = _p_trace(ginv, ric, scalar)
    if not all(map(math.isfinite, trace_form)):
        # (R/2) g^ij can overflow where P is finite: twice the form on Ric / 2, R / 2
        trace_form = [2.0 * v for v in _p_trace(ginv, [0.5 * v for v in ric], 0.5 * scalar)]
        if not all(map(math.isfinite, trace_form)):
            raise DomainError(_OVERFLOW)
    dev = _deviation(trace_form, comps, (p_norm,))
    if dev > FORMULA_AGREEMENT_RTOL:
        raise InternalConsistencyError(
            f"trace and volume-form evaluations of the raised Einstein tensor "
            f"disagree (relative deviation {dev:.3e}); riem and g are inconsistent"
        )
    passed = root_det, SymTensor3._made(ric), scalar, p, p_norm
    object.__setattr__(riem, "_pair", (g, passed))
    return passed


def ricci(riem: Riemann3, g: SymTensor3) -> tuple[SymTensor3, float]:
    """Ricci tensor Ric_ij = g^kl R_kilj and scalar curvature R = g^ij Ric_ij,
    from the pair's one checked pass: an inconsistent (riem, g) pair raises
    InternalConsistencyError, as in `einstein_raised`."""
    return _pair_pass(riem, g)[1:3]


def einstein_raised(riem: Riemann3, g: SymTensor3) -> SymTensor3:
    """Raised Einstein-type tensor P^ij with sectional-curvature eigenvalues:
    `riem.bivector_form` (the identity on the unit sphere), once the trace
    form (R/2) g^ij - Ric^ij agrees within 1e-10 ||P||_F; disagreement raises
    InternalConsistencyError, which indicates an inconsistent (riem, g) pair."""
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

    All three pairs are compared, component by component, relative to
    det(g) ||P||_F^2, which scales like h and bounds it, so a vanishing h is
    checked like any other; the scale divides in two steps of sqrt(det g)
    ||P||_F, each in range where h is.
    """
    root_det, _, _, p_t, p_norm = _pair_pass(riem, g)
    r, comps = riem._r, p_t.values
    h_con, h_mu, h_det = (_h_contraction(comps, r), _h_mu(r, root_det),
                          _h_determinant(root_det, comps))
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

    return CrossCurvatureForms(
        contraction_form=SymTensor3._made(h_con),
        mu_form=SymTensor3._made(h_mu),
        determinant_form=SymTensor3._made(h_det),
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
    the raised Einstein-type tensor, ordered a <= b <= c, and that frame:
    `vectors` holds the g-orthonormal eigenvectors of a, b and c, one per row."""

    a: float
    b: float
    c: float
    vectors: tuple[tuple[float, float, float], ...]

    def as_array(self) -> np.ndarray:
        return _array([self.a, self.b, self.c], frozen=False)


def _rotation(app: float, aqq: float, apq: float) -> tuple[float, float, float]:
    """tan, cos and sin of the Jacobi rotation that zeroes a_pq != 0: t the
    root of least magnitude of t^2 + 2 theta t = 1, theta = (a_qq - a_pp) /
    2 a_pq (H. Rutishauser, Numer. Math. 9, 1966); theta = inf gives t = 0."""
    theta = (aqq - app) / (2.0 * apq)
    t = 1.0 / (abs(theta) + math.hypot(1.0, theta))
    if theta < 0.0:
        t = -t
    c = 1.0 / math.sqrt(1.0 + t * t)
    return t, c, t * c


def _jacobi(frame: list[float]) -> tuple[list[float], list[tuple]]:
    """Eigenvalues, ascending, and orthonormal eigenvectors (one per row) of
    the finite symmetric 3x3 matrix with canonical components `frame`, by
    cyclic Jacobi rotations in the planes (1, 2), (1, 3), (2, 3), on the
    matrix scaled exactly by a power of two to a largest entry in [1/2, 1);
    scaling the eigenvalues back can raise OverflowError."""
    top = max(map(abs, frame))
    if not top:
        return [0.0, 0.0, 0.0], [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    shift = math.frexp(top)[1]
    x0, y01, y02, x1, x2, y12 = [math.ldexp(v, -shift) for v in frame]
    # v_ab: row a of the accumulated rotation, whose columns are the eigenvectors
    v00 = v11 = v22 = 1.0
    v01 = v02 = v10 = v12 = v20 = v21 = 0.0
    for _ in range(_JACOBI_SWEEPS):
        if max(abs(y01), abs(y02), abs(y12)) <= _JACOBI_FLOOR:
            break
        if y01:  # the plane (1, 2): a_11, a_22, a_12, then a_13, a_23, then columns 1, 2
            t, c, s = _rotation(x0, x1, y01)
            x0, x1, y01 = x0 - t * y01, x1 + t * y01, 0.0
            y02, y12 = c * y02 - s * y12, s * y02 + c * y12
            v00, v01, v10, v11, v20, v21 = (c * v00 - s * v01, s * v00 + c * v01, c * v10 - s * v11,
                                            s * v10 + c * v11, c * v20 - s * v21, s * v20 + c * v21)
        if y02:
            t, c, s = _rotation(x0, x2, y02)
            x0, x2, y02 = x0 - t * y02, x2 + t * y02, 0.0
            y01, y12 = c * y01 - s * y12, s * y01 + c * y12
            v00, v02, v10, v12, v20, v22 = (c * v00 - s * v02, s * v00 + c * v02, c * v10 - s * v12,
                                            s * v10 + c * v12, c * v20 - s * v22, s * v20 + c * v22)
        if y12:
            t, c, s = _rotation(x1, x2, y12)
            x1, x2, y12 = x1 - t * y12, x2 + t * y12, 0.0
            y01, y02 = c * y01 - s * y02, s * y01 + c * y02
            v01, v02, v11, v12, v21, v22 = (c * v01 - s * v02, s * v01 + c * v02, c * v11 - s * v12,
                                            s * v11 + c * v12, c * v21 - s * v22, s * v21 + c * v22)
    pairs = sorted(zip((x0, x1, x2), ((v00, v10, v20), (v01, v11, v21), (v02, v12, v22))),
                   key=operator.itemgetter(0))
    return [math.ldexp(lam, shift) for lam, _ in pairs], [vec for _, vec in pairs]


def _frame_eigh(t: SymTensor3, g: SymTensor3) -> tuple[list[float], list[float], list, tuple]:
    """The one routine that solves an eigenproblem: t in the Cholesky frame
    of g = L L^T, whose axes are the columns of L^-T, has components L^T t L
    (upper indices) or L^-1 t L^-T (lower), from g's one factor
    (`_require_metric`).  Returns them, their ascending eigenvalues and
    orthonormal eigenvectors (one per row) from `_jacobi`, and the rows of
    L^-1.  A g that is not a metric and an overflow are each a DomainError;
    `_certify_eigenpairs` checks every solve."""
    t11, t12, t13, t22, t33, t23 = t.values
    _, upper, inv, _ = _require_metric(g)
    rows = upper if t.variance == "upper" else inv
    # B t B^T for B = L^T or L^-1: w = B t by rows, then entry (j, i) = w_j . B_i
    w = [(x * t11 + y * t12 + z * t13, x * t12 + y * t22 + z * t23,
          x * t13 + y * t23 + z * t33) for x, y, z in rows]
    frame = [w[j][0] * rows[i][0] + w[j][1] * rows[i][1] + w[j][2] * rows[i][2]
             for i, j in COMPONENT_ORDER]
    if all(map(math.isfinite, frame + [*inv[1], *inv[2]])):
        try:
            lams, vecs = _jacobi(frame)
        except OverflowError:
            pass
        else:
            _certify_eigenpairs(frame, lams, vecs)
            return frame, lams, vecs, inv
    raise DomainError("eigenvalues overflow; the tensor and metric must keep them finite")


def _certify_eigenpairs(frame: list[float], lams: list[float], vecs: list) -> None:
    """Raise InternalConsistencyError unless the residuals F v_i - lam_i v_i
    over s = max(1, max |lam|) and V^T V - I of the eigenpairs of the
    symmetric F (components `frame`) are within STRUCTURE_TOL, so each lam_i
    is that close to an eigenvalue of F (Kahan's residual bound; B. N.
    Parlett, The Symmetric Eigenvalue Problem, SIAM 1998)."""
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


def _gram_deviation(vecs) -> float:
    """max |V^T V - I| over the entries, for the columns `vecs` of a finite 3x3
    V, in Python floats: a diagonal entry comes first, so an overflow is inf."""
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = vecs
    return max(abs(a1 * a1 + a2 * a2 + a3 * a3 - 1.0), abs(b1 * b1 + b2 * b2 + b3 * b3 - 1.0),
               abs(c1 * c1 + c2 * c2 + c3 * c3 - 1.0), abs(a1 * b1 + a2 * b2 + a3 * b3),
               abs(a1 * c1 + a2 * c2 + a3 * c3), abs(b1 * c1 + b2 * c2 + b3 * c3))


def _eigenpairs(t: SymTensor3, g: SymTensor3) -> tuple[list[float], list[tuple]]:
    """The eigenpairs of `_frame_eigh`, each eigenvector mapped back by L^-T
    to a g-orthonormal one, in Python floats."""
    _, lams, vecs, ((m11, _, _), (m21, m22, _), (m31, m32, m33)) = _frame_eigh(t, g)
    return lams, [(m11 * x + m21 * y + m31 * z, m22 * y + m32 * z, m33 * z) for x, y, z in vecs]


def generalized_eigh(t: SymTensor3, g: SymTensor3) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric tensor relative to a metric, ascending, and
    g-orthonormal eigenvectors V as columns (V^T g V = I): t v = lam g v for
    lower-index t, t g v = lam v for upper-index t (`_eigenpairs`), fresh arrays."""
    lams, vecs = _eigenpairs(_tensor(t, None, "t"), g)
    return _array(lams, frozen=False), _array(list(zip(*vecs)), frozen=False)


def eigen_frame(p: SymTensor3, g: SymTensor3) -> tuple[CurvatureFrame, np.ndarray]:
    """`generalized_eigh` of an upper-index P: its eigenvalues as a
    CurvatureFrame (ascending) and its g-orthonormal eigenvectors v_k as
    columns, with P^ij = sum_k lam_k v_k v_k^T.  A degenerate eigenvalue
    gets an arbitrary orthonormal basis of its eigenspace."""
    if _tensor(p, None, "p").variance != "upper":
        raise DomainError("eigen_frame expects a tensor with upper indices")
    lams, vecs = _eigenpairs(p, g)
    return CurvatureFrame(*lams, tuple(vecs)), _array(list(zip(*vecs)), frozen=False)


@dataclass(frozen=True)
class CurvatureReport:
    """The pointwise report of a (Riemann3, metric) pair, its fields in the
    order the `curvature` command writes them: g, Ric, R, P, P's eigenframe,
    the three evaluations of h and h's eigenvalues relative to g, ascending."""

    g: SymTensor3
    ricci: SymTensor3
    scalar_curvature: float
    einstein_raised: SymTensor3
    frame: CurvatureFrame
    cross_curvature: CrossCurvatureForms
    h_eigenvalues: tuple[float, float, float]


def curvature_report(riem: Riemann3, g: SymTensor3) -> CurvatureReport:
    """Every quantity of the CurvatureReport, from the pair's one checked pass."""
    _, ric, scalar, p, _ = _pair_pass(riem, g)
    forms = cross_curvature_forms(riem, g)
    lams, vecs = _eigenpairs(p, g)
    return CurvatureReport(g, ric, scalar, p, CurvatureFrame(*lams, tuple(vecs)), forms,
                           tuple(_eigenpairs(forms.contraction_form, g)[0]))


# The finite-difference stencil in sampling order: +e_k, -e_k for k = 0, 1, 2,
# then the diagonals +(e_k + e_l), -(e_k + e_l) for (k, l) = (0, 1), (0, 2),
# (1, 2).  Each row is a sum of signed unit vectors, so a zero entry is -0.0
# exactly where every term subtracts, and x + h * row rounds as the chained
# x +- h e_k +- h e_l does, signed zeros included.
_SEEDS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))  # unit vectors, unit first partials
_FD_OFFSETS = (
    [tuple(s * x for x in _SEEDS[k]) for k in range(3) for s in (1.0, -1.0)]
    + [tuple(s * x + s * y for x, y in zip(_SEEDS[k], _SEEDS[l]))
       for k, l in ((0, 1), (0, 2), (1, 2)) for s in (1.0, -1.0)])


def _stencil_sample(g_fn: Callable, point: list[float], step: float, centre: bool) -> list:
    """The nine entries of g_fn at `point` (an array), once they are a finite
    3x3 matrix: a DomainError g_fn raises, or a sample that is not one, is
    named with the step unless `point` is the centre, which lies in the domain."""
    import numpy as np

    try:
        value = np.asarray(g_fn(np.array(point)), dtype=float)
        if value.shape != (3, 3):
            raise DomainError(f"metric callback returned shape {value.shape}, not (3, 3)")
        entries = value.ravel().tolist()
        if not all(map(math.isfinite, entries)):
            raise DomainError("metric callback returned non-finite samples")
    except DomainError as exc:
        if centre:
            raise
        where = ",".join(f"{v:.12g}" for v in point)
        raise DomainError(f"the finite-difference stencil leaves the metric's domain: its "
                          f"sample at {where} (fd_step {step:g}) fails with '{exc}'; the point "
                          f"itself is inside") from exc
    return entries


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

    the last the seven-point formula of Abramowitz & Stegun 25.3.27, whose
    error h^2/12 (2 g_kkkl + 3 g_kkll + 2 g_klll) is even in h.  With
    richardson=True the step and half-step estimates combine to fourth order.
    Each sample is checked as it comes (`_stencil_sample`) and differenced
    per canonical component in Python floats.  `step` is read by
    `bounds.real_number`, `richardson` by `bounds.flag`.
    """
    step = real_number(step, "finite-difference step")
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"finite-difference step must be finite and positive, got {step!r}")
    richardson = flag(richardson, "richardson")
    x = _real_array(x, (3,), "point")
    steps = (step, step / 2.0) if richardson else (step,)
    points = [x, *([a + h * b for a, b in zip(x, row)] for h in steps for row in _FD_OFFSETS)]
    samples = [_stencil_sample(g_fn, point, step, n == 0) for n, point in enumerate(points)]
    # per step: 2h, h^2 and 2h^2 in Python floats, as the differences divide
    # by them; the largest, 2 step^2, must be finite
    if not 2.0 * step * step < math.inf:
        raise DomainError(_STEP_OVERFLOW)
    centre = _PACK(samples[0])
    jets = []
    for n, h in enumerate(steps):
        # the samples at x + h v and x - h v for v = e_0, e_1, e_2, e_0 + e_1, e_0 + e_2, e_1 + e_2
        plus, minus = (list(map(_PACK, samples[1 + 12 * n + s:13 + 12 * n:2])) for s in (0, 1))
        second = [[p - 2.0 * c + m for p, m, c in zip(*vs, centre)] for vs in zip(plus, minus)]
        pure = [[d / h**2 for d in second[k]] for k in range(3)]
        mixed = [[(d - a - b) / (2.0 * h**2) for d, a, b in zip(diagonal, second[k], second[l])]
                 for diagonal, (k, l) in zip(second[3:], ((0, 1), (0, 2), (1, 2)))]
        dg = [[(p - m) / (2.0 * h) for p, m in zip(*vs)] for vs in zip(plus[:3], minus[:3])]
        jets.append((dg, [pure[0], mixed[0], mixed[1], pure[1], pure[2], mixed[2]]))
    if richardson:
        jets = [[[(4.0 * b - a) / 3.0 for a, b in zip(*rows)] for rows in zip(*parts)]
                for parts in zip(*jets)]
    else:
        jets = jets[0]
    g = samples[0]
    return MetricJet(SymTensor3.from_matrix([g[:3], g[3:6], g[6:]]), *jets)


_STEP_OVERFLOW = "the stencil's divisor 2 fd_step squared overflows; fd_step must keep it finite"
_CHART_OVERFLOW = "the chart metric or its jet overflows; kappa and point must keep them finite"


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
    nan or a finite u's square overflows; u = inf gives g = 0, a non-metric."""
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

    def chart(x):
        diagonal = _conformal_chart(kappa, _real_array(x, (3,), "point"))
        return _array([diagonal * e for e in _FULL(_IDENTITY.values)], (3, 3), frozen=False)
    return chart


def space_form_chart_jet(kappa: float, x: np.ndarray) -> MetricJet:
    """Exact jet of the conformal space-form chart, to rounding: kappa and the
    point read once, g from `_conformal_chart` on floats, checked as a metric
    first, then dg and ddg from the same chart on seeded coordinates; a
    derivative that is not finite is a DomainError naming the overflow."""
    kappa = finite_real(kappa, "kappa")
    coords = _real_array(x, (3,), "point")
    diagonal = _conformal_chart(kappa, coords)
    g = SymTensor3._made([diagonal, 0.0, 0.0, diagonal, diagonal, 0.0])
    _require_metric(g)
    jet = _conformal_chart(kappa, map(_HyperDual, coords, _SEEDS))
    partials = [*jet.d, *jet.h]
    if not all(map(math.isfinite, partials)):
        raise DomainError(_CHART_OVERFLOW)
    # dg_kij = delta_ij d_k u^-2 and ddg_klij = delta_ij d_k d_l u^-2, packed
    packed = [x * e for x in partials for e in _IDENTITY.values]
    return MetricJet._made(g, packed[:18], packed[18:])
