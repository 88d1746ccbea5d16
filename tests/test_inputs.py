"""Every array a caller hands the library, crossed with the malformed values
a caller can pass: each ends in a DomainError that names the argument, with
no numpy warning, traceback or nan on the way.

Only numpy and pytest are needed, so this file runs without the test
oracles (scipy, hypothesis).
"""

import inspect
import math
import re
import warnings

import numpy as np
import pytest

from xcflow import curvature, flow, symbol
from xcflow.curvature import (MetricJet, Riemann3, SymTensor3, christoffel, cross_curvature,
                              cross_curvature_forms, curvature_report, eigen_frame,
                              einstein_raised, generalized_eigh, jet_from_function, pack, ricci,
                              riemann, space_form_chart, space_form_chart_jet, unpack, volume_form)
from xcflow.errors import DomainError
from xcflow.flow import tensor_norm
from xcflow.symbol import (direction_report, parabolicity, quotient_blocks, symbol_modified,
                           symbol_raw, symbol_stacks, to_orthonormal_frame)

IDENTITY = SymTensor3.identity()
P = SymTensor3(np.array([1.0, 0.1, 0.0, 2.0, 3.0, 0.2]), "upper")
CHART = space_form_chart(1.0)
STACKS = symbol_stacks(P, 0.1, np.eye(3))

# (argument name, shape (None: any length), a valid value, the call that reads it)
ENTRY_POINTS = {
    "SymTensor3": ("components", (6,), np.zeros(6), lambda v: SymTensor3(v)),
    "from_matrix": ("matrix", (3, 3), np.eye(3), lambda v: SymTensor3.from_matrix(v)),
    "MetricJet.dg": ("dg", (3, 6), np.zeros((3, 6)),
                     lambda v: MetricJet(IDENTITY, v, np.zeros((6, 6)))),
    "MetricJet.ddg": ("ddg", (6, 6), np.zeros((6, 6)),
                      lambda v: MetricJet(IDENTITY, np.zeros((3, 6)), v)),
    "from_full.g": ("g", (3, 3), np.eye(3),
                    lambda v: MetricJet.from_full(v, np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 3)))),
    "from_full.dg_full": ("dg_full", (3, 3, 3), np.zeros((3, 3, 3)),
                          lambda v: MetricJet.from_full(np.eye(3), v, np.zeros((3, 3, 3, 3)))),
    "from_full.ddg_full": ("ddg_full", (3, 3, 3, 3), np.zeros((3, 3, 3, 3)),
                           lambda v: MetricJet.from_full(np.eye(3), np.zeros((3, 3, 3)), v)),
    "Riemann3": ("lowered", (3, 3, 3, 3), np.zeros((3, 3, 3, 3)),
                 lambda v: Riemann3(v, SymTensor3.identity("upper"))),
    "from_lowered": ("lowered", (3, 3, 3, 3), np.zeros((3, 3, 3, 3)),
                     lambda v: Riemann3.from_lowered(v, IDENTITY)),
    "from_frame": ("rotation", (3, 3), np.eye(3),
                   lambda v: Riemann3.from_frame(1.0, 2.0, 3.0, rotation=v)),
    "space_form_chart_jet": ("point", (3,), np.zeros(3), lambda v: space_form_chart_jet(1.0, v)),
    "space_form_chart": ("point", (3,), np.zeros(3), lambda v: CHART(v)),
    "jet_from_function": ("point", (3,), np.zeros(3), lambda v: jet_from_function(CHART, v)),
    "symbol_raw": ("xi", (3,), np.array([1.0, 0.0, 0.0]), lambda v: symbol_raw(P, 0.1, v)),
    "symbol_modified": ("xi", (3,), np.array([1.0, 0.0, 0.0]),
                        lambda v: symbol_modified(P, 0.1, v)),
    "symbol_stacks": ("xis", (None, 3), np.eye(3), lambda v: symbol_stacks(P, 0.1, v)),
    "quotient_blocks": ("xis", (None, 3), np.eye(3), lambda v: quotient_blocks(*STACKS, v)),
    "tensor_norm": ("t_lower", (3, 3), np.eye(3), lambda v: tensor_norm(v, IDENTITY)),
    "pack": ("matrix", (3, 3), np.eye(3), pack),
    "unpack": ("components", (6,), np.zeros(6), unpack),
}


def _with_first(valid: np.ndarray, entry) -> list:
    """`valid` as nested Python lists, its first entry replaced by `entry`."""
    flat = valid.ravel().tolist()
    flat[0] = entry
    return np.array(flat, dtype=object).reshape(valid.shape).tolist()


def _ragged(valid: np.ndarray) -> list:
    """`valid` as nested Python lists with its last innermost list one entry short."""
    nested = valid.tolist() if valid.ndim > 1 else [valid.tolist(), valid.tolist()]
    inner = nested
    while isinstance(inner[-1], list) and isinstance(inner[-1][-1], list):
        inner = inner[-1]
    inner[-1] = inner[-1][:-1]
    return nested


def _unreadable(name, value) -> str:
    return (f"^{name} must be an array of real numbers within the float range, "
            f"got {re.escape(repr(value))}$")


# (fault, the malformed value made from a valid one, the message it must raise
# for an argument `name` of shape `shape`)
FAULTS = {
    "text": (lambda valid: "abcdef", lambda name, shape, bad: _unreadable(name, bad)),
    # text numpy itself would read as numbers
    "numeric_text": (lambda valid: np.full(valid.shape, "0").tolist(),
                     lambda name, shape, bad: _unreadable(name, bad)),
    "ragged": (_ragged, lambda name, shape, bad: _unreadable(name, bad)),
    "10**400": (lambda valid: _with_first(valid, 10**400),
                lambda name, shape, bad: _unreadable(name, bad)),
    "complex_array": (lambda valid: valid.astype(complex),
                      lambda name, shape, bad: _unreadable(name, bad)),
    "bool_array": (lambda valid: valid.astype(bool),
                   lambda name, shape, bad: _unreadable(name, bad)),
    # a Python bool among floats, which numpy would read as 1.0
    "bool_entry": (lambda valid: _with_first(valid, True),
                   lambda name, shape, bad: _unreadable(name, bad)),
    "None": (lambda valid: None, lambda name, shape, bad: _unreadable(name, bad)),
    "wrong_shape": (lambda valid: valid[..., None],
                    lambda name, shape, bad: (
                        f"^{name} must have shape {re.escape(str(shape).replace('None', 'N'))}, "
                        f"got shape {re.escape(str(bad.shape))}$")),
    "nan": (lambda valid: np.array(_with_first(valid, math.nan), dtype=float),
            lambda name, shape, bad: f"^{name} must be finite$"),
    "inf": (lambda valid: np.array(_with_first(valid, -math.inf), dtype=float),
            lambda name, shape, bad: f"^{name} must be finite$"),
}


def test_every_valid_value_is_read():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _, _, valid, call in ENTRY_POINTS.values():
            call(valid)


# rotation=None is from_frame's default: no rotation
@pytest.mark.parametrize("entry_point, fault", [
    (entry_point, fault) for entry_point in ENTRY_POINTS for fault in FAULTS
    if (entry_point, fault) != ("from_frame", "None")])
def test_a_malformed_array_is_a_domain_error_naming_its_argument(entry_point, fault):
    name, shape, valid, call = ENTRY_POINTS[entry_point]
    make, message = FAULTS[fault]
    bad = make(valid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message(name, shape, bad)):
            call(bad)


ZERO_DG, ZERO_DDG = np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 3))


def _full_with(shape: tuple, index: tuple, value: float) -> np.ndarray:
    """Zeros of `shape` with `value` at `index` alone."""
    full = np.zeros(shape)
    full[index] = value
    return full


@pytest.mark.parametrize("make, message", [
    # a bivector form that is not an upper-index tensor used to be kept as given
    (lambda: Riemann3(np.zeros((3, 3, 3, 3)), "x"),
     "^bivector_form must be a SymTensor3 with upper indices, got 'x'$"),
    (lambda: Riemann3(np.zeros((3, 3, 3, 3)), IDENTITY),
     "^bivector_form must be a SymTensor3 with upper indices, got SymTensor3"),
    (lambda: Riemann3(np.ones((3, 3, 3, 3)), SymTensor3.identity("upper")),
     "^input violates the Riemann algebraic symmetries$"),
    # entries that overflow as the stacks are formed used to warn "overflow
    # encountered in multiply" and return inf
    (lambda: symbol_stacks(P, 0.1, [[1e200, 0.0, 0.0]]),
     "^symbol matrix entries overflow: P or rho is too large$"),
    (lambda: symbol_stacks(P, 1e308, np.eye(3)),
     "^symbol matrix entries overflow: P or rho is too large$"),
    (lambda: symbol_raw(P, 0.1, np.zeros(3)), "^xi must be nonzero$"),
    # sqrt(g^ik g^jl T_ij T_kl) = 3e308: the norm itself leaves the float range
    (lambda: tensor_norm(np.full((3, 3), 1e308), IDENTITY),
     "^the norm of t_lower overflows; t_lower and g must keep it finite$"),
    # derivative arrays that are not symmetric used to be read at their
    # canonical entries alone: d_0 g_10 = 1 below the diagonal came back as 0
    (lambda: MetricJet.from_full(np.eye(3), _full_with((3, 3, 3), (0, 1, 0), 1.0), ZERO_DDG),
     r"^dg_full is not symmetric in \(i, j\)$"),
    (lambda: MetricJet.from_full(np.eye(3), _full_with((3, 3, 3), (0, 0, 1), 1.0), ZERO_DDG),
     r"^dg_full is not symmetric in \(i, j\)$"),
    (lambda: MetricJet.from_full(np.eye(3), ZERO_DG, _full_with((3, 3, 3, 3), (0, 1, 0, 0), 5.0)),
     r"^ddg_full is not symmetric in \(k, l\)$"),
    (lambda: MetricJet.from_full(np.eye(3), ZERO_DG, _full_with((3, 3, 3, 3), (0, 0, 1, 2), 5.0)),
     r"^ddg_full is not symmetric in \(i, j\)$"),
    # beyond 1e-12 of max(1, the largest entry), as SymTensor3.from_matrix
    (lambda: MetricJet.from_full(np.eye(3), _full_with((3, 3, 3), (0, 0, 1), 3e-12), ZERO_DDG),
     r"^dg_full is not symmetric in \(i, j\)$"),
], ids=["bivector_form_text", "bivector_form_lower", "riemann_symmetries", "stacks_huge_xi",
        "stacks_huge_rho", "zero_xi", "tensor_norm_overflows", "dg_full_below_diagonal",
        "dg_full_above_diagonal", "ddg_full_kl", "ddg_full_ij", "dg_full_past_tolerance"])
def test_the_checks_past_the_reader_are_named(make, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            make()


def test_from_full_keeps_the_canonical_entries_within_the_symmetry_tolerance():
    dg_full = _full_with((3, 3, 3), (0, 0, 1), 1.0)
    dg_full[0, 1, 0] = 1.0 + 1e-13
    ddg_full = _full_with((3, 3, 3, 3), (0, 1, 2, 2), 2.0)
    ddg_full[1, 0, 2, 2] = 2.0 - 1e-12
    jet = MetricJet.from_full(np.eye(3), dg_full, ddg_full)
    assert jet.dg[0].tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert jet.ddg[1].tolist() == [0.0, 0.0, 0.0, 0.0, 2.0, 0.0]


def test_riemann3_keeps_a_valid_tensor():
    riem = Riemann3.from_frame(1.0, 2.0, 3.0)
    again = Riemann3(riem.lowered.copy(), riem.bivector_form)
    assert again.lowered.tobytes() == riem.lowered.tobytes()
    assert not again.lowered.flags.writeable
    assert again.bivector_form is riem.bivector_form


def test_every_real_number_type_is_read():
    # Python and numpy integers, floats of other widths and integers past
    # int64, in lists or arrays, are numbers bounds.real_number reads
    t = SymTensor3([1, np.int32(0), np.float32(0.5), 2**70, 1.0, 0])
    assert t.components.tolist() == [1.0, 0.0, 0.5, 2.0**70, 1.0, 0.0]
    jet = MetricJet(IDENTITY, [np.zeros(6, np.float32)] * 3, np.zeros((6, 6), int))
    assert jet.dg.dtype == jet.ddg.dtype == float
    assert SymTensor3(range(6)).values == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)


def test_a_tensor_norm_in_the_float_range_is_returned():
    # the sum of squares 3e400 overflows, the norm 1.7e200 does not; it used
    # to come back as inf, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tensor_norm(1e200 * np.eye(3), IDENTITY) == pytest.approx(math.sqrt(3.0) * 1e200,
                                                                         rel=1e-15)


RIEM = Riemann3.from_frame(1.0, 2.0, 3.0)


def _a_tensor(name: str, kind: str = "SymTensor3") -> str:
    return f"^{name} must be a {kind}, got array\\("


# (function, its tensor parameter, a call that passes an array for it, the
# message).  An array where a tensor belongs used to end in AttributeError
# ("'numpy.ndarray' object has no attribute '_factor'", "... 'variance'",
# "... 'components'"), and where a jet belongs in "... no attribute 'g'" and "... '_dg'"
TENSOR_ARGUMENTS = {
    "ricci": (ricci, "g", lambda: ricci(RIEM, np.eye(3)), _a_tensor("g")),
    "einstein_raised": (einstein_raised, "g", lambda: einstein_raised(RIEM, np.eye(3)),
                        _a_tensor("g")),
    "cross_curvature_forms": (cross_curvature_forms, "g",
                              lambda: cross_curvature_forms(RIEM, np.eye(3)), _a_tensor("g")),
    "ricci_riem": (ricci, "riem", lambda: ricci(np.eye(3), IDENTITY),
                   _a_tensor("riem", "Riemann3")),
    "eigen_frame_p": (eigen_frame, "p", lambda: eigen_frame(np.eye(3), IDENTITY), _a_tensor("p")),
    "eigen_frame_g": (eigen_frame, "g", lambda: eigen_frame(P, np.eye(3)), _a_tensor("g")),
    "generalized_eigh_t": (generalized_eigh, "t", lambda: generalized_eigh(np.eye(3), IDENTITY),
                           _a_tensor("t")),
    "generalized_eigh_g": (generalized_eigh, "g", lambda: generalized_eigh(IDENTITY, np.eye(3)),
                           _a_tensor("g")),
    "metric_jet": (MetricJet.__init__, "g",
                   lambda: MetricJet(np.eye(3), np.zeros((3, 6)), np.zeros((6, 6))),
                   _a_tensor("g")),
    "from_lowered": (Riemann3.from_lowered, "g",
                     lambda: Riemann3.from_lowered(RIEM.lowered, np.eye(3)), _a_tensor("g")),
    "space_form": (Riemann3.space_form, "g", lambda: Riemann3.space_form(1.0, np.eye(3)),
                   _a_tensor("g")),
    "tensor_norm": (tensor_norm, "g", lambda: tensor_norm(np.eye(3), np.eye(3)), _a_tensor("g")),
    "parabolicity_p": (parabolicity, "p", lambda: parabolicity(np.eye(3), IDENTITY, 0.1),
                       _a_tensor("p")),
    "parabolicity_g": (parabolicity, "g", lambda: parabolicity(P, np.eye(3), 0.1),
                       _a_tensor("g")),
    "symbol_raw": (symbol_raw, "p", lambda: symbol_raw(np.eye(3), 0.1, [1.0, 0.0, 0.0]),
                   _a_tensor("p")),
    "symbol_modified": (symbol_modified, "p",
                        lambda: symbol_modified(np.eye(3), 0.1, [1.0, 0.0, 0.0]), _a_tensor("p")),
    "riemann": (riemann, "jet", lambda: riemann(np.eye(3)), _a_tensor("jet", "MetricJet")),
    "christoffel": (christoffel, "jet", lambda: christoffel(np.eye(3)),
                    _a_tensor("jet", "MetricJet")),
    "volume_form": (volume_form, "g", lambda: volume_form(np.eye(3)), _a_tensor("g")),
    "to_orthonormal_frame_p": (to_orthonormal_frame, "p",
                               lambda: to_orthonormal_frame(np.eye(3), IDENTITY), _a_tensor("p")),
    "to_orthonormal_frame_g": (to_orthonormal_frame, "g",
                               lambda: to_orthonormal_frame(P, np.eye(3)), _a_tensor("g")),
    "symbol_stacks": (symbol_stacks, "p", lambda: symbol_stacks(np.eye(3), 0.1, np.eye(3)),
                      _a_tensor("p")),
    "direction_report": (direction_report, "p",
                         lambda: direction_report(np.eye(3), 0.1, [1.0, 0.0, 0.0]),
                         _a_tensor("p")),
    "curvature_report_riem": (curvature_report, "riem",
                              lambda: curvature_report(np.eye(3), IDENTITY),
                              _a_tensor("riem", "Riemann3")),
    "curvature_report_g": (curvature_report, "g", lambda: curvature_report(RIEM, np.eye(3)),
                           _a_tensor("g")),
    "cross_curvature": (cross_curvature, "g", lambda: cross_curvature(RIEM, np.eye(3)),
                        _a_tensor("g")),
    "einstein_raised_riem": (einstein_raised, "riem",
                             lambda: einstein_raised(np.eye(3), IDENTITY),
                             _a_tensor("riem", "Riemann3")),
    "cross_curvature_forms_riem": (cross_curvature_forms, "riem",
                                   lambda: cross_curvature_forms(np.eye(3), IDENTITY),
                                   _a_tensor("riem", "Riemann3")),
    "cross_curvature_riem": (cross_curvature, "riem", lambda: cross_curvature(np.eye(3), IDENTITY),
                             _a_tensor("riem", "Riemann3")),
    "riemann3_bivector_form": (Riemann3.__init__, "bivector_form",
                               lambda: Riemann3(RIEM.lowered, np.eye(3)),
                               "^bivector_form must be a SymTensor3 with upper indices, "
                               "got array\\("),
}


@pytest.mark.parametrize("case", TENSOR_ARGUMENTS)
def test_an_array_where_a_tensor_belongs_is_named(case):
    _, _, make, message = TENSOR_ARGUMENTS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            make()


def _tensor_parameters() -> set:
    """(module, qualified name, parameter) of every parameter annotated
    SymTensor3, Riemann3 or MetricJet in a public function or method of the
    curvature, symbol and flow modules."""
    found = set()
    for module in (curvature, symbol, flow):
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            members = vars(value).items() if inspect.isclass(value) else [(name, value)]
            for attr, member in members:
                if isinstance(member, classmethod | staticmethod):
                    member = member.__func__
                # the dataclass decorator, not the module, writes the report types' __init__
                if (not inspect.isfunction(member) or attr.startswith("_") and attr != "__init__"
                        or member.__code__.co_filename != module.__file__):
                    continue
                for param in inspect.signature(member).parameters.values():
                    if param.annotation in ("SymTensor3", "Riemann3", "MetricJet"):
                        found.add((module.__name__, member.__qualname__, param.name))
    return found


def test_every_tensor_parameter_has_a_refusal_case():
    found = _tensor_parameters()
    covered = {(fn.__module__, fn.__qualname__, name)
               for fn, name, _, _ in TENSOR_ARGUMENTS.values()}
    # the enumeration reads all three modules, and methods as well as functions
    assert {("xcflow.curvature", "Riemann3.from_lowered", "g"),
            ("xcflow.flow", "tensor_norm", "g"), ("xcflow.symbol", "parabolicity", "p")} <= found
    assert covered <= found  # each row names a tensor parameter of its function
    assert found - covered == set()
