"""Every array a caller hands the library, crossed with the malformed values
a caller can pass: each ends in a DomainError that names the argument, with
no numpy warning, traceback or nan on the way.

Only numpy and pytest are needed, so this file runs without the test
oracles (scipy, hypothesis).
"""

import math
import re
import warnings

import numpy as np
import pytest

from xcflow.curvature import (MetricJet, Riemann3, SymTensor3, jet_from_function,
                              space_form_chart, space_form_chart_jet)
from xcflow.errors import DomainError
from xcflow.flow import tensor_norm
from xcflow.symbol import symbol_modified, symbol_raw, symbol_stacks

IDENTITY = SymTensor3.identity()
P = SymTensor3(np.array([1.0, 0.1, 0.0, 2.0, 3.0, 0.2]), "upper")
CHART = space_form_chart(1.0)

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
    "tensor_norm": ("t_lower", (3, 3), np.eye(3), lambda v: tensor_norm(v, IDENTITY)),
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
], ids=["bivector_form_text", "bivector_form_lower", "riemann_symmetries", "stacks_huge_xi",
        "stacks_huge_rho", "zero_xi"])
def test_the_checks_past_the_reader_are_named(make, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            make()


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
