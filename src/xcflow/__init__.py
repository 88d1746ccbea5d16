"""Numerical toolkit for cross curvature flow on 3-manifolds.

Subsystems:

- `curvature`: symmetric tensors, metric jets, Riemann/Ricci/Einstein
  tensors, the cross curvature tensor via three cross-checking
  formulas, and the generalized eigenvalues of a tensor relative to a
  metric, all computed in Python floats; numpy builds the arrays its
  public results are returned as.  The conformal space-form chart is
  written once; its jet is exact to rounding by second-order forward-mode
  arithmetic, and `jet_from_function` differences any other metric
  callback.  One private routine factors g = L L^T and inverts L; that
  factor alone decides whether g is a metric and gives det g, g^-1 and
  the frame in which one cyclic Jacobi solve, certified by its residuals,
  answers each generalized eigenproblem, for `generalized_eigh`,
  `eigen_frame`, `symbol.to_orthonormal_frame` and
  `symbol.parabolicity`.  numpy is the only runtime dependency.
- `symbol`: 6x6 principal-symbol matrices of the linearized flow
  operator (raw and gauge-fixed), their spectra, and parabolicity
  verdicts.
- `bounds`: the stated parabolicity bound and the range of
  `direction_samples`, without numpy, shared by `symbol`, `flow` and `cli`.
- `flow`: the scale-factor reduction of the flow for Einstein initial
  data, with RK4 integration, event detection, and closed-form oracles.
- `verify`: invariant suites that re-derive every promised identity by
  an independent route.
- `cli`: the `xcflow` command (curvature / symbol / flow / verify): it
  parses options and formats the reports the library builds.

Every name in `__all__` loads its submodule on first access (PEP 562), so
`import xcflow` loads no numpy.  `xcflow symbol` and verify's `tensor_core`
and `symbol` suites need numpy; every other command and suite runs without it.
"""

import importlib

__version__ = "0.1.0"

# every re-exported name, by the submodule it comes from
_EXPORTS = {
    "curvature": (
        "COMPONENT_ORDER",
        "CrossCurvatureForms",
        "CurvatureFrame",
        "CurvatureReport",
        "MetricJet",
        "Riemann3",
        "SymTensor3",
        "christoffel",
        "cross_curvature",
        "cross_curvature_forms",
        "curvature_report",
        "eigen_frame",
        "einstein_raised",
        "generalized_eigh",
        "jet_from_function",
        "pack",
        "ricci",
        "riemann",
        "space_form_chart",
        "space_form_chart_jet",
        "unpack",
        "volume_form",
    ),
    "errors": (
        "DomainError",
        "ExtinctStateError",
        "ExtinctionExceededError",
        "InternalConsistencyError",
        "XcflowError",
    ),
    "flow": (
        "FlowParams",
        "FlowTrace",
        "TraceRecord",
        "closed_form_c",
        "einstein_residual",
        "einstein_rhs",
        "engine_rhs",
        "integrate",
    ),
    "symbol": (
        "DirectionReport",
        "ParabolicityReport",
        "SymbolMatrix",
        "direction_report",
        "parabolicity",
        "spectrum",
        "symbol_modified",
        "symbol_raw",
        "to_orthonormal_frame",
        "unit_directions",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    """A re-exported name, or one of the submodules above, loaded on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
