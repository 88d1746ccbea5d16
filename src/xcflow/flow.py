"""Scale-factor flow for Einstein initial data.

An Einstein 3-metric (Ric = lambda * g at t = 0) has constant sectional
curvature lambda / 2, and the flow dg/dt = -2*eps*h + 2*rho*R*g preserves
the family g(t) = c(t) * g(0).  On that ansatz the metric evolution
collapses to a scalar ODE for the scale factor,

    dc/dt = -eps * lambda^2 / (2 c) + 6 * rho * lambda,    c(0) = 1,

derived by evaluating the full tensor right-hand side on the space form
of curvature lambda / (2 c).  The curvature engine provides an
independent evaluation of the same coefficient (`engine_rhs`), used to
cross-check the closed form.  The right-hand side is num / (2c) + a with
run constants num = -eps * lambda^2, a = 6 * rho * lambda.  Integration
is fixed-step classical RK4 on those floats, with extinction detection
(bisection-refined) and parabolicity-margin monitoring, in one flat loop
that makes no Python-level call on an accepted step.  `_rk4_step` is the
one named step, every stage through `einstein_rhs`; the extinction
bisection takes it, and the loop repeats it inline.  A run is extinct
once c falls to the constant `C_MIN`.  verify's
`flow/integrate_matches_reference_replay` replays whole runs step by step
against `_rk4_step` and `_record`.

The integrator runs on the standard library alone, so `xcflow flow` loads
no numpy.  The engine cross-checks import `curvature` when they are called,
which runs on Python floats too (`engine_rhs`, `einstein_residual`,
`tensor_norm`); `parabolicity_report_at` calls `symbol`, so it alone loads
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite
from typing import TYPE_CHECKING, NamedTuple

from .bounds import finite_real, flag, integer, is_bool, real_number, stated_threshold
from .errors import DomainError, ExtinctStateError, ExtinctionExceededError

if TYPE_CHECKING:
    import numpy as np

    from .curvature import Riemann3, SymTensor3
    from .symbol import ParabolicityReport

# the scale factor at which a run is extinct: its final record
C_MIN = 1e-8
STEADY_STATE_RHS_TOL = 1e-14
STEADY_STATE_RUN_LENGTH = 10
# the most RK4 steps one run may take (t_end / dt); at about 1 us a step,
# a run at the bound takes minutes, and anything beyond it is refused
MAX_STEPS = 10**8


@dataclass(frozen=True)
class FlowParams:
    """Parameters of one flow run.

    epsilon is the sectional-curvature sign of the initial metric and
    must match the sign of the Einstein constant lam (epsilon = +1 with
    lam > 0, epsilon = -1 with lam < 0) unless unsafe_signs is set.
    epsilon is kept as the Python int +1 or -1, whatever number type gave
    it (a numpy float32 would run the integration in float32), rho, lam,
    dt and t_end as the Python floats they are read as
    (`bounds.finite_real`), and unsafe_signs as a Python bool
    (`bounds.flag`: a non-bool such as "false" is refused).
    """

    rho: float
    epsilon: int
    lam: float
    dt: float
    t_end: float
    unsafe_signs: bool = False

    def __post_init__(self):
        if is_bool(self.epsilon) or self.epsilon not in (+1, -1):
            raise DomainError(f"epsilon must be +1 or -1, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", 1 if self.epsilon == 1 else -1)
        object.__setattr__(self, "unsafe_signs", flag(self.unsafe_signs, "unsafe_signs"))
        for name in ("rho", "lam", "dt", "t_end"):  # a numpy float32 would run in float32
            object.__setattr__(self, name, finite_real(getattr(self, name), name))
        if self.dt <= 0.0 or self.t_end <= 0.0:
            raise DomainError("dt and t_end must be positive")
        if self.dt > self.t_end:
            raise DomainError("dt must not exceed t_end")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise DomainError(f"dt is too small for t_end: t_end / dt = "
                              f"{self.t_end / self.dt!r} exceeds {MAX_STEPS} steps")
        if not self.unsafe_signs and self.epsilon * self.lam <= 0.0:
            raise DomainError(
                "epsilon must match the sign of the Einstein constant "
                "(epsilon=+1 needs lam>0, epsilon=-1 needs lam<0); "
                "pass unsafe_signs=True (--unsafe-signs) to override"
            )


class TraceRecord(NamedTuple):
    """One sampled point of a run: scale factor, derived curvature scalars,
    parabolicity margin, and any event flags raised at or since the
    previous record.

    A NamedTuple, so that the per-step record is cheap to build: it is
    immutable and hashable, compares equal to a plain tuple of the same
    values and unpacks like one.  Copy with `_replace`, convert with
    `_asdict`; the field order (`_fields`) is the CSV column order.
    """

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
    extinction_time is set only for extinct runs.  Counters: `steps` RK4
    steps taken (not the one that crossed C_MIN), `bisection_iterations`
    halvings refining the extinction time (0 unless extinct).
    """

    params: FlowParams
    records: tuple[TraceRecord, ...]
    status: str
    extinction_time: float | None = None
    steps: int = 0
    bisection_iterations: int = 0


def _rhs_coefficients(params: FlowParams) -> tuple[float, float]:
    """The run constants (num, a) of dc/dt = num / (2c) + a."""
    return -params.epsilon * params.lam**2, 6.0 * params.rho * params.lam


def _require_scale(c: float) -> float:
    """The scale-factor check of every pointwise evaluation at c (not of
    the integrate loop, whose stage guards keep c positive and finite):
    c is read as a Python float (`bounds.real_number`), so a numpy float32
    is evaluated in float64; a collapsed c <= 0 is an ExtinctStateError, a
    nan or inf a DomainError.  Returns the float."""
    c = real_number(c, "scale factor")
    if c <= 0.0:
        raise ExtinctStateError(f"scale factor must be positive, got {c!r}")
    if not isfinite(c):
        raise DomainError(f"scale factor must be finite, got {c!r}")
    return c


def einstein_rhs(c: float, params: FlowParams) -> float:
    """dc/dt on the Einstein ansatz: -eps * lam^2 / (2c) + 6 rho lam."""
    c = _require_scale(c)
    num, a = _rhs_coefficients(params)
    return num / (2.0 * c) + a


def _space_form(c: float, params: FlowParams) -> tuple[Riemann3, SymTensor3]:
    """The Einstein metric at scale c as engine data: the Riemann tensor of
    the space form of curvature lam / (2c) on g = c * identity, and g."""
    from . import curvature as cv

    c = _require_scale(c)
    g = cv.SymTensor3((c, 0.0, 0.0, c, c, 0.0))
    return cv.Riemann3.space_form(params.lam / (2.0 * c), g), g


def engine_rhs(c: float, params: FlowParams) -> float:
    """The same dc/dt coefficient, evaluated through the curvature engine.

    Builds the space form g = c * identity with sectional curvature
    lam / (2c), computes -2*eps*h + 2*rho*R*g with the tensor operations,
    and reads off the coefficient of the initial metric.  Serves as the
    independent verification of einstein_rhs.
    """
    from . import curvature as cv

    riem, g = _space_form(c, params)
    h = cv.cross_curvature(riem, g)
    _, scalar = cv.ricci(riem, g)
    # the 11 entry of -2 eps h + 2 rho R g: the coefficient of g(0) = identity
    return -2.0 * params.epsilon * h.values[0] + 2.0 * params.rho * scalar * g.values[0]


def published_ode_rhs(c: float, params: FlowParams) -> float:
    """First-order form of the reduced ODE as originally published.

    Kept for diagnostic comparison only: it disagrees with the
    engine-verified right-hand side (the undefined coefficient in its
    source is read as the Einstein constant).  Never used for
    integration.
    """
    c = _require_scale(c)
    lam = params.lam
    try:
        ratio = (2.0 * c**2 - 3.0 * lam**2) / (2.0 * lam * c**2)
        return -2.0 * ratio**2 / c**3 + 6.0 * params.rho * lam
    except (OverflowError, ZeroDivisionError) as exc:  # Python floats raise, not inf
        raise DomainError(
            f"the published ODE is not finite at c = {c!r} for lambda = {lam!r}") from exc


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
    solution is constant.  t is read as a finite Python float
    (`bounds.finite_real`).
    """
    t = finite_real(t, "time")
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


def _rk4_step(c: float, dt: float, params: FlowParams) -> float | None:
    """One classical RK4 step from c with every stage through `einstein_rhs`;
    None if a stage point leaves 0 < y < inf or the result is not finite."""
    stages = [einstein_rhs(c, params)]
    for weight in (0.5, 0.5, 1.0):
        y = c + weight * dt * stages[-1]
        if not (0.0 < y < math.inf):
            return None
        stages.append(einstein_rhs(y, params))
    k1, k2, k3, k4 = stages
    c_next = c + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return c_next if isfinite(c_next) else None


def _refine_extinction(c: float, t: float, dt: float, params: FlowParams) -> tuple[float, int]:
    """Bisection on the step size for the crossing c = C_MIN inside [t, t+dt],
    down to params.dt * 1e-3; returns the crossing time and the number of
    halvings."""
    lo, hi, halvings = 0.0, dt, 0
    while hi - lo > params.dt * 1e-3:
        mid = 0.5 * (lo + hi)
        c_mid = _rk4_step(c, mid, params)
        if c_mid is None or c_mid <= C_MIN:
            hi = mid
        else:
            lo = mid
        halvings += 1
    return t + 0.5 * (lo + hi), halvings


def parabolicity_report_at(c: float, params: FlowParams) -> ParabolicityReport:
    """Closed-form, self-checked `symbol.parabolicity` report on the
    instantaneous space form."""
    from . import curvature as cv
    from . import symbol as sb

    riem, g = _space_form(c, params)
    p = cv.einstein_raised(riem, g)
    return sb.parabolicity(p, g, params.rho, case=params.epsilon,
                           mode="all_directions")


def _record(t: float, c: float, params: FlowParams, events: tuple[str, ...]) -> TraceRecord:
    """Record at scale c.  P's generalized eigenvalues all equal kappa, so the
    margin is symbol.parabolicity's all-directions stated bound, at scalar cost."""
    kappa = params.lam / (2.0 * c)
    margin = stated_threshold(kappa, kappa, params.epsilon) - params.rho
    return TraceRecord(t, c, 3.0 * params.lam / c, kappa**2, margin, events)


def _check_c_min(params: FlowParams) -> None:
    """DomainError unless the record at C_MIN (the final record of an
    extinct run) is finite for the run's lam."""
    try:
        _, _, *scalars, _ = _record(0.0, C_MIN, params, ())  # R, h, margin
        finite = all(isfinite(v) for v in scalars)
    except OverflowError:  # kappa**2 in Python floats
        finite = False
    if not finite:
        raise DomainError(
            f"c_min={C_MIN!r} is too small for lam={params.lam!r}: "
            "the curvature scalars at c_min overflow")


def integrate(
    params: FlowParams,
    record_every: int = 100,
    halt_on_parabolicity_loss: bool = False,
) -> FlowTrace:
    """Integrate the reduced flow with fixed-step RK4 in one flat scalar loop.

    Events checked every step: extinction (c <= C_MIN; the crossing time
    is refined to dt * 1e-3 by bisecting the size of one `_rk4_step`, and
    the run truncates with status 'extinct'), loss of the parabolicity margin (flagged on the
    next record; halts with status 'parabolicity_lost' if requested), and
    steady state (|dc/dt| < 1e-14 for 10 consecutive steps).  The rate at
    an accepted c is also the next step's first stage, and a record reuses
    the step's margin.  Records are kept every `record_every` steps, plus
    the initial and final states.  record_every must be an integer >= 1
    (not a bool), halt_on_parabolicity_loss a bool (`bounds.flag`), and the
    record at C_MIN must be finite for the run's lam; otherwise DomainError
    is raised before the loop.

    An accepted step makes no Python-level call: the loop body repeats
    `_rk4_step` (stage guards `0 < y < inf`), `_record` (the margin as
    kappa times the stated-threshold factor of P = kappa g^-1) and the
    record construction inline, operation for operation, so a trace is
    bit for bit what those functions give.  verify's
    `flow/integrate_matches_reference_replay` replays every accepted step
    and record against `_rk4_step` and `_record`.
    """
    try:
        every = integer(record_every, "record_every")
    except DomainError:
        every = 0
    if every < 1:
        raise DomainError(f"record_every must be a positive integer, got {record_every!r}")
    halt_on_parabolicity_loss = flag(halt_on_parabolicity_loss, "halt_on_parabolicity_loss")
    _check_c_min(params)

    dt_full, t_end = params.dt, params.t_end
    n_steps = round(t_end / dt_full)
    if t_end - n_steps * dt_full > 1e-12 * t_end:
        n_steps += 1  # final partial step: the last t_next is capped at t_end

    num, a = _rhs_coefficients(params)
    lam, rho = params.lam, params.rho
    lam3 = 3.0 * lam  # 3 lam / c evaluates as (3 lam) / c
    # stated_threshold(kappa, kappa, eps) is kappa times this exact power of two
    factor = stated_threshold(1.0, 1.0, params.epsilon)
    steady_tol, steady_len = STEADY_STATE_RHS_TOL, STEADY_STATE_RUN_LENGTH
    # tuple.__new__ builds a TraceRecord without NamedTuple's argument binding
    inf, c_min, new = math.inf, C_MIN, tuple.__new__
    pending: set[str] = set()
    steady_run = 0

    c, t = 1.0, 0.0
    first = _record(t, c, params, ())
    parab_lost = first.parabolicity_margin <= 0.0
    if parab_lost:
        first = _record(t, c, params, ("parabolicity_lost",))
        if halt_on_parabolicity_loss:
            return FlowTrace(params, (first,), "parabolicity_lost")
    records = [first]
    append = records.append

    k = num / (2.0 * c) + a  # rate at c: the next step's first stage
    for step in range(1, n_steps + 1):
        t_next = step * dt_full
        if t_next > t_end:  # only the final partial step
            t_next = t_end
        dt = t_next - t
        # _rk4_step(c, dt, params) inline; a rejected stage or a result
        # at or below C_MIN ends the loop at the crossing step
        half = 0.5 * dt
        y = c + half * k
        if not (0.0 < y < inf):
            break
        k2 = num / (2.0 * y) + a
        y = c + half * k2
        if not (0.0 < y < inf):
            break
        k3 = num / (2.0 * y) + a
        y = c + dt * k3
        if not (0.0 < y < inf):
            break
        k4 = num / (2.0 * y) + a
        c_next = c + dt / 6.0 * (k + 2.0 * k2 + 2.0 * k3 + k4)
        if not (c_min < c_next < inf):
            break

        c, t = c_next, t_next
        k = num / (2.0 * c) + a
        steady_run = steady_run + 1 if -steady_tol < k < steady_tol else 0
        if steady_run == steady_len:
            pending.add("steady_state")

        kappa = lam / (2.0 * c)
        margin = kappa * factor - rho
        if margin <= 0.0 and not parab_lost:
            pending.add("parabolicity_lost")
            parab_lost = True
            if halt_on_parabolicity_loss:
                append(_record(t, c, params, tuple(sorted(pending))))
                return FlowTrace(params, tuple(records), "parabolicity_lost", steps=step)

        if step % every == 0 and t < t_end:
            events = ()
            if pending:
                events = tuple(sorted(pending))
                pending.clear()
            append(new(TraceRecord, (t, c, lam3 / c, kappa**2, margin, events)))
    else:  # every step accepted: the final state
        append(_record(t, c, params, tuple(sorted(pending))))
        return FlowTrace(params, tuple(records), "completed", steps=n_steps)

    # the crossing step is not taken: bisection on its size replaces it
    extinction_time, bisections = _refine_extinction(c, t, dt, params)
    pending.add("extinct")
    append(_record(extinction_time, C_MIN, params, tuple(sorted(pending))))
    return FlowTrace(params, tuple(records), "extinct", extinction_time,
                     steps=step - 1, bisection_iterations=bisections)


def einstein_residual(record: TraceRecord, params: FlowParams) -> float:
    """Deviation of the reconstructed metric from the Einstein condition.

    Rebuilds g(t) = c * g(0) as space-form data, computes
    ||Ric - (R/3) g||_g through the curvature engine, and returns the
    norm.  Identically zero on the ansatz up to rounding; measures
    engine self-consistency rather than integration error.
    """
    from . import curvature as cv

    riem, g = _space_form(record.c, params)
    ric, scalar = cv.ricci(riem, g)
    t = cv._FULL([r - scalar / 3.0 * x for r, x in zip(ric.values, g.values)])
    return tensor_norm((t[:3], t[3:6], t[6:]), g)


def tensor_norm(t_lower: np.ndarray, g: SymTensor3) -> float:
    """Metric norm of a lowered 2-tensor: sqrt(g^ik g^jl T_ij T_kl), the
    Frobenius norm of L^-1 T L^-T on the factor g = L L^T that the metric
    check of g keeps (`curvature._require_metric`), in Python floats.  A g
    that is not a metric, a t_lower not a finite 3x3 array, and a norm that
    overflows are each a DomainError; a norm in the float range is returned
    even where the sum of squares alone would overflow."""
    from .curvature import _real_array, _require_metric

    rows = _require_metric(g).inverse
    t = _real_array(t_lower, (3, 3), "t_lower")
    # L^-1 T by rows, then its entries times the rows of L^-1
    left = [[a * t[j] + b * t[3 + j] + c * t[6 + j] for j in range(3)] for a, b, c in rows]
    norm = math.hypot(*(x * a + y * b + z * c for x, y, z in left for a, b, c in rows))
    if not math.isfinite(norm):
        raise DomainError("the norm of t_lower overflows; t_lower and g must keep it finite")
    return norm
