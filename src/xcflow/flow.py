"""Scale-factor flow for Einstein initial data.

An Einstein 3-metric (Ric = lambda * g at t = 0) has constant sectional
curvature lambda / 2, and the flow dg/dt = -2*eps*h + 2*rho*R*g preserves
the family g(t) = c(t) * g(0).  On that ansatz the metric evolution
collapses to a scalar ODE for the scale factor,

    dc/dt = -eps * lambda^2 / (2 c) + 6 * rho * lambda,    c(0) = 1,

derived by evaluating the full tensor right-hand side on the space form
of curvature lambda / (2 c).  The curvature engine provides an
independent evaluation of the same coefficient (`engine_rhs`), used to
cross-check the closed form.  Integration is fixed-step classical RK4
with extinction detection (bisection-refined) and parabolicity-margin
monitoring along the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curvature as cv
from . import symbol as sb
from .errors import DomainError, ExtinctStateError, ExtinctionExceededError

DEFAULT_C_MIN = 1e-8
STEADY_STATE_RHS_TOL = 1e-14
STEADY_STATE_RUN_LENGTH = 10


@dataclass(frozen=True)
class FlowParams:
    """Parameters of one flow run.

    epsilon is the sectional-curvature sign of the initial metric and
    must match the sign of the Einstein constant lam (epsilon = +1 with
    lam > 0, epsilon = -1 with lam < 0) unless unsafe_signs is set.
    """

    rho: float
    epsilon: int
    lam: float
    dt: float
    t_end: float
    unsafe_signs: bool = False

    def __post_init__(self):
        if self.epsilon not in (+1, -1):
            raise DomainError(f"epsilon must be +1 or -1, got {self.epsilon!r}")
        for name in ("rho", "lam", "dt", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.dt <= 0.0 or self.t_end <= 0.0:
            raise DomainError("dt and t_end must be positive")
        if self.dt > self.t_end:
            raise DomainError("dt must not exceed t_end")
        if not self.unsafe_signs and self.epsilon * self.lam <= 0.0:
            raise DomainError(
                "epsilon must match the sign of the Einstein constant "
                "(epsilon=+1 needs lam>0, epsilon=-1 needs lam<0); "
                "pass unsafe_signs=True (--unsafe-signs) to override"
            )


@dataclass(frozen=True)
class FlowState:
    t: float
    c: float


@dataclass(frozen=True)
class TraceRecord:
    """One sampled point of a run: scale factor, derived curvature scalars,
    parabolicity margin, and any event flags raised at or since the
    previous record."""

    t: float
    c: float
    scalar_curvature: float
    h_eigenvalue: float
    parabolicity_margin: float
    events: tuple[str, ...] = ()


@dataclass(frozen=True)
class FlowTrace:
    """Result of an integration run.

    status is one of 'completed', 'extinct', 'parabolicity_lost'.
    extinction_time is set only for extinct runs.
    """

    params: FlowParams
    records: tuple[TraceRecord, ...]
    status: str
    extinction_time: float | None = None


def einstein_rhs(c: float, params: FlowParams) -> float:
    """dc/dt on the Einstein ansatz: -eps * lam^2 / (2c) + 6 rho lam."""
    if c <= 0.0:
        raise ExtinctStateError(f"scale factor must be positive, got {c!r}")
    return -params.epsilon * params.lam**2 / (2.0 * c) + 6.0 * params.rho * params.lam


def engine_rhs(c: float, params: FlowParams) -> float:
    """The same dc/dt coefficient, evaluated through the curvature engine.

    Builds the space form g = c * identity with sectional curvature
    lam / (2c), computes -2*eps*h + 2*rho*R*g with the tensor operations,
    and reads off the coefficient of the initial metric.  Serves as the
    independent verification of einstein_rhs.
    """
    if c <= 0.0:
        raise ExtinctStateError(f"scale factor must be positive, got {c!r}")
    g = cv.SymTensor3(c * cv.SymTensor3.identity().components)
    kappa = params.lam / (2.0 * c)
    riem = cv.Riemann3.space_form(kappa, g)
    h = cv.cross_curvature(riem, g)
    _, scalar = cv.ricci(riem, g)
    rhs_tensor = -2.0 * params.epsilon * h.matrix + 2.0 * params.rho * scalar * g.matrix
    # coefficient of g(0) = identity
    return float(rhs_tensor[0, 0])


def published_ode_rhs(c: float, params: FlowParams) -> float:
    """First-order form of the reduced ODE as originally published.

    Kept for diagnostic comparison only: it disagrees with the
    engine-verified right-hand side (the undefined coefficient in its
    source is read as the Einstein constant).  Never used for
    integration.
    """
    if c <= 0.0:
        raise ExtinctStateError(f"scale factor must be positive, got {c!r}")
    lam = params.lam
    ratio = (2.0 * c**2 - 3.0 * lam**2) / (2.0 * lam * c**2)
    return -2.0 * ratio**2 / c**3 + 6.0 * params.rho * lam


def equilibrium_scale(params: FlowParams) -> float | None:
    """Fixed point c* = eps * lam / (12 rho) of the reduced ODE, or None."""
    if params.rho == 0.0:
        return None
    c_star = params.epsilon * params.lam / (12.0 * params.rho)
    return c_star if c_star > 0.0 else None


def extinction_time_closed_form(params: FlowParams) -> float | None:
    """Extinction time of the rho = 0 flow (positive case): 1 / lam^2."""
    if params.rho != 0.0 or params.epsilon != +1:
        return None
    return 1.0 / params.lam**2


def closed_form_c(t: float, params: FlowParams) -> float:
    """Exact scale factor, available for rho = 0 or at the equilibrium.

    rho = 0: c(t) = sqrt(1 - eps * lam^2 * t); for the shrinking case the
    argument turns negative past the extinction time and
    ExtinctionExceededError is raised.  At the equilibrium c* = 1 the
    solution is constant.
    """
    if t < 0.0:
        raise DomainError("time must be nonnegative")
    if params.rho == 0.0:
        radicand = 1.0 - params.epsilon * params.lam**2 * t
        if radicand < 0.0:
            raise ExtinctionExceededError(t, extinction_time_closed_form(params))
        return math.sqrt(radicand)
    c_star = equilibrium_scale(params)
    if c_star is not None and abs(c_star - 1.0) <= 1e-12:
        return 1.0
    raise DomainError(
        "closed form requires rho = 0 or parameters at the unit equilibrium"
    )


def _rk4_step(c: float, dt: float, params: FlowParams, c_floor: float) -> float | None:
    """One classical RK4 step; None if any stage leaves the valid region."""
    stages = []
    y = c
    for weight in (None, 0.5, 0.5, 1.0):
        if weight is not None:
            y = c + weight * dt * stages[-1]
            if not np.isfinite(y) or y <= c_floor:
                return None
        stages.append(einstein_rhs(y, params))
    k1, k2, k3, k4 = stages
    c_next = c + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(c_next):
        return None
    return c_next


def _refine_extinction(c: float, t: float, dt: float, params: FlowParams,
                       c_min: float, time_tol: float) -> float:
    """Bisection on the step size for the crossing c = c_min inside [t, t+dt]."""
    lo, hi = 0.0, dt
    while hi - lo > time_tol:
        mid = 0.5 * (lo + hi)
        c_mid = _rk4_step(c, mid, params, 0.0)
        if c_mid is None or c_mid <= c_min:
            hi = mid
        else:
            lo = mid
    return t + 0.5 * (lo + hi)


def _margin(c: float, params: FlowParams) -> float:
    """Parabolicity margin of the instantaneous space form (direction-uniform).

    On isotropic data the generalized eigenvalues of P all equal the
    sectional curvature kappa = lam / (2c), so the all-directions stated
    threshold is that of symbol.parabolicity on the same data, at scalar
    cost.
    """
    kappa = params.lam / (2.0 * c)
    return sb.stated_threshold(kappa, kappa, params.epsilon) - params.rho


def parabolicity_report_at(c: float, params: FlowParams) -> sb.ParabolicityReport:
    """Full symbol-sweep parabolicity report on the instantaneous space form."""
    g = cv.SymTensor3(c * cv.SymTensor3.identity().components)
    riem = cv.Riemann3.space_form(params.lam / (2.0 * c), g)
    p = cv.einstein_raised(riem, g)
    return sb.parabolicity(p, g, params.rho, case=params.epsilon,
                           mode="all_directions")


def _record(t: float, c: float, params: FlowParams, events: tuple[str, ...]) -> TraceRecord:
    kappa = params.lam / (2.0 * c)
    return TraceRecord(
        t=t,
        c=c,
        scalar_curvature=3.0 * params.lam / c,
        h_eigenvalue=kappa**2,
        parabolicity_margin=_margin(c, params),
        events=events,
    )


def integrate(
    params: FlowParams,
    record_every: int = 100,
    c_min: float = DEFAULT_C_MIN,
    halt_on_parabolicity_loss: bool = False,
) -> FlowTrace:
    """Integrate the reduced flow with fixed-step RK4.

    Events checked every step: extinction (c <= c_min; the crossing time
    is refined by bisection to dt * 1e-3 and the run truncates with
    status 'extinct'), loss of the parabolicity margin (flagged on the
    next record; halts with status 'parabolicity_lost' if requested), and
    steady state (|dc/dt| < 1e-14 for 10 consecutive steps).  Records are
    kept every `record_every` steps, plus the initial and final states.
    """
    if record_every < 1:
        raise DomainError("record_every must be a positive integer")

    n_steps = round(params.t_end / params.dt)
    remainder = params.t_end - n_steps * params.dt
    if remainder > 1e-12 * params.t_end:
        n_steps += 1  # final partial step handled below

    records: list[TraceRecord] = []
    pending: set[str] = set()
    parab_lost = False
    steady_run = 0
    status = "completed"
    extinction_time = None

    c = 1.0
    t = 0.0
    if _margin(c, params) <= 0.0:
        pending.add("parabolicity_lost")
        parab_lost = True
    records.append(_record(0.0, c, params, tuple(sorted(pending))))
    pending.clear()

    if parab_lost and halt_on_parabolicity_loss:
        return FlowTrace(params, tuple(records), "parabolicity_lost")

    for step in range(1, n_steps + 1):
        t_next = min(step * params.dt, params.t_end)
        dt = t_next - t
        if dt <= 0.0:
            break
        c_next = _rk4_step(c, dt, params, 0.0)

        if c_next is None or c_next <= c_min:
            extinction_time = _refine_extinction(
                c, t, dt, params, c_min, time_tol=params.dt * 1e-3)
            pending.add("extinct")
            status = "extinct"
            c = c_min
            t = extinction_time
            break

        c, t = c_next, t_next

        if abs(einstein_rhs(c, params)) < STEADY_STATE_RHS_TOL:
            steady_run += 1
            if steady_run == STEADY_STATE_RUN_LENGTH:
                pending.add("steady_state")
        else:
            steady_run = 0

        if not parab_lost and _margin(c, params) <= 0.0:
            pending.add("parabolicity_lost")
            parab_lost = True
            if halt_on_parabolicity_loss:
                status = "parabolicity_lost"
                records.append(_record(t, c, params, tuple(sorted(pending))))
                return FlowTrace(params, tuple(records), status)

        if step % record_every == 0 and t < params.t_end:
            records.append(_record(t, c, params, tuple(sorted(pending))))
            pending.clear()

    # final state (or the event point for truncated runs)
    records.append(_record(t, c, params, tuple(sorted(pending))))
    return FlowTrace(params, tuple(records), status, extinction_time)


def einstein_residual(record: TraceRecord, params: FlowParams) -> float:
    """Deviation of the reconstructed metric from the Einstein condition.

    Rebuilds g(t) = c * g(0) as space-form data, computes
    ||Ric - (R/3) g||_g through the curvature engine, and returns the
    norm.  Identically zero on the ansatz up to rounding; measures
    engine self-consistency rather than integration error.
    """
    c = record.c
    g = cv.SymTensor3(c * cv.SymTensor3.identity().components)
    riem = cv.Riemann3.space_form(params.lam / (2.0 * c), g)
    ric, scalar = cv.ricci(riem, g)
    return tensor_norm(ric.matrix - (scalar / 3.0) * g.matrix, g)


def tensor_norm(t_lower: np.ndarray, g: cv.SymTensor3) -> float:
    """Metric norm of a lowered 2-tensor: sqrt(g^ik g^jl T_ij T_kl)."""
    ginv = np.linalg.inv(g.matrix)
    return float(np.sqrt(np.einsum("ik,jl,ij,kl->", ginv, ginv, t_lower, t_lower)))
