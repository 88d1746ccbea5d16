"""Numerical toolkit for cross curvature flow on 3-manifolds.

Subsystems:

- `curvature`: symmetric tensors, metric jets, Riemann/Ricci/Einstein
  tensors, the cross curvature tensor via three cross-checking
  formulas, and the generalized eigenvalues of a tensor relative to a
  metric (one Cholesky-frame solver on numpy, the only runtime
  dependency).
- `symbol`: 6x6 principal-symbol matrices of the linearized flow
  operator (raw and gauge-fixed), their spectra, and parabolicity
  verdicts.
- `flow`: the scale-factor reduction of the flow for Einstein initial
  data, with RK4 integration, event detection, and closed-form oracles.
- `verify`: invariant suites that re-derive every promised identity by
  an independent route.
- `cli`: the `xcflow` command (curvature / symbol / flow / verify).
"""

__version__ = "0.1.0"

from .curvature import (
    COMPONENT_ORDER,
    CrossCurvatureForms,
    CurvatureFrame,
    MetricJet,
    Riemann3,
    SymTensor3,
    christoffel,
    cross_curvature,
    cross_curvature_forms,
    eigen_frame,
    einstein_raised,
    generalized_eigh,
    jet_from_function,
    pack,
    ricci,
    riemann,
    space_form_chart,
    space_form_chart_jet,
    unpack,
    volume_form,
)
from .errors import (
    DomainError,
    ExtinctStateError,
    ExtinctionExceededError,
    InternalConsistencyError,
    XcflowError,
)
from .flow import (
    FlowParams,
    FlowTrace,
    TraceRecord,
    closed_form_c,
    einstein_residual,
    einstein_rhs,
    engine_rhs,
    integrate,
)
from .symbol import (
    ParabolicityReport,
    SymbolMatrix,
    parabolicity,
    spectrum,
    symbol_modified,
    symbol_raw,
    to_orthonormal_frame,
    unit_directions,
)

__all__ = [
    "__version__",
    "COMPONENT_ORDER",
    "CrossCurvatureForms",
    "CurvatureFrame",
    "DomainError",
    "ExtinctStateError",
    "ExtinctionExceededError",
    "FlowParams",
    "FlowTrace",
    "InternalConsistencyError",
    "MetricJet",
    "ParabolicityReport",
    "Riemann3",
    "SymTensor3",
    "SymbolMatrix",
    "TraceRecord",
    "XcflowError",
    "christoffel",
    "closed_form_c",
    "cross_curvature",
    "cross_curvature_forms",
    "eigen_frame",
    "einstein_raised",
    "einstein_residual",
    "einstein_rhs",
    "engine_rhs",
    "generalized_eigh",
    "integrate",
    "jet_from_function",
    "pack",
    "parabolicity",
    "ricci",
    "riemann",
    "space_form_chart",
    "space_form_chart_jet",
    "spectrum",
    "symbol_modified",
    "symbol_raw",
    "to_orthonormal_frame",
    "unit_directions",
    "unpack",
    "volume_form",
]
