"""`flow` workload: one `integrate()` call of 1k-10k RK4 steps per op, in process.

A 5-op cycle covers the four regimes of the scale-factor flow, with
records every step in some runs and every 100 steps in others.  Step
counts are fixed per slot, and chosen so the median op is always the
extinction run (4000 steps, every step recorded) with the next cheaper
and dearer slots well apart from it.

Oracles: the rho = 0 runs follow c(t) = sqrt(1 - eps lam^2 t) within 1e-7;
the sphere goes extinct within 5e-3 of 1/lam^2; the unit equilibrium
(rho = 1/6, lam = 2) drifts by less than 1e-12 and flags `steady_state`;
the coupled run flags `parabolicity_lost` where the closed-form solution
of dc/dt = a - b/c reaches c = lam / (8 rho).  Every op also checks the
closed-form right-hand side against the curvature engine's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import xcflow.flow as fl

from inputs import rng_for
from tracing import bind, durations_us
from stats import median

NAME = "flow"
# (regime, record_every, RK4 steps taken)
SLOTS = (
    ("hyperbolic", 100, 1000),
    ("equilibrium", 100, 2500),
    ("extinction", 1, 4000),
    ("coupled", 1, 7000),
    ("hyperbolic", 100, 10000),
)
EXTINCTION_OVERSHOOT = 1.25   # t_end / t_ext, so the run stops after 4/5 of its steps
BATCH = len(SLOTS)
POOL = 20 * BATCH
CENSUS = BATCH
TAIL_PCT = 95.0
CLOSED_FORM_TOL = 1e-7
EXTINCTION_TOL = 5e-3
DRIFT_TOL = 1e-12
RHS_TOL = 1e-9

CALLS = {f"integrate_{steps}": (f"flow.integrate@{steps}", fl.integrate)
         for _, _, steps in SLOTS}
CALLS["engine_rhs"] = ("flow.engine_rhs", fl.engine_rhs)
CALLS["einstein_rhs"] = ("flow.einstein_rhs", fl.einstein_rhs)


@dataclass(frozen=True)
class Case:
    regime: str
    params: fl.FlowParams
    record_every: int
    steps: int
    t_event: float = 0.0   # extinction or parabolicity-loss time, closed form


def api(tracer=None):
    return bind(CALLS, tracer)


def _loss_time(rho: float, lam: float) -> float:
    """Time at which dc/dt = a - b/c, c(0) = 1, reaches c = lam / (8 rho)."""
    a, b = 6.0 * rho * lam, lam * lam / 2.0
    c = lam / (8.0 * rho)
    return (c - 1.0) / a + b / a**2 * math.log((a * c - b) / (a - b))


def build(seed: int, ctx=None) -> list[Case]:
    rng = rng_for(seed, NAME)
    pool = []
    for i in range(POOL):
        regime, record_every, steps = SLOTS[i % BATCH]
        t_event = 0.0
        if regime == "hyperbolic":
            rho, eps, lam, t_end = 0.0, -1, -rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0)
        elif regime == "equilibrium":
            rho, eps, lam, t_end = 1.0 / 6.0, 1, 2.0, rng.uniform(0.5, 2.0)
        elif regime == "extinction":
            rho, eps, lam = 0.0, 1, rng.uniform(0.7, 2.0)
            t_event = 1.0 / lam**2
            t_end = EXTINCTION_OVERSHOOT * t_event
        else:  # lam/12 < rho < lam/8: c grows and the margin lam/(8c) - rho turns negative
            eps, lam = 1, rng.uniform(0.5, 2.0)
            rho = lam * rng.uniform(0.09, 0.115)
            t_event = _loss_time(rho, lam)
            t_end = 1.5 * t_event
        total = round(steps * EXTINCTION_OVERSHOOT) if regime == "extinction" else steps
        params = fl.FlowParams(rho=float(rho), epsilon=eps, lam=float(lam),
                               dt=float(t_end) / total, t_end=float(t_end))
        pool.append(Case(regime, params, record_every, steps, t_event))
    return pool


def run_op(x: Case, api):
    return getattr(api, f"integrate_{x.steps}")(x.params, record_every=x.record_every)


def check(x: Case, trace, api, counts) -> tuple[str, str]:
    prm, recs = x.params, trace.records
    counts["records"] += len(recs)
    counts["ops"] += 1
    counts["extinct_runs"] += trace.status == "extinct"
    mid = recs[len(recs) // 2].c
    closed, engine = api.einstein_rhs(mid, prm), api.engine_rhs(mid, prm)
    if abs(closed - engine) > RHS_TOL * max(1.0, abs(closed)):
        return "failed", f"einstein_rhs {closed!r} != engine_rhs {engine!r} at c={mid!r}"

    if x.regime == "extinction":
        if trace.status != "extinct" or abs(trace.extinction_time - x.t_event) >= EXTINCTION_TOL:
            return "failed", (f"extinction: {trace.status} at {trace.extinction_time!r}, "
                              f"want {x.t_event!r}")
        return "ok", ""
    if trace.status != "completed":
        return "failed", f"{x.regime}: status {trace.status}"
    if x.regime == "hyperbolic":
        dev = max(abs(r.c - math.sqrt(1.0 - prm.epsilon * prm.lam**2 * r.t)) for r in recs)
        if dev >= CLOSED_FORM_TOL:
            return "failed", f"hyperbolic: closed-form deviation {dev:.3e}"
    elif x.regime == "equilibrium":
        drift = max(abs(r.c - 1.0) for r in recs)
        if drift >= DRIFT_TOL or not any("steady_state" in r.events for r in recs):
            return "failed", f"equilibrium: drift {drift:.3e}, steady_state missing"
    else:
        flagged = [r.t for r in recs if "parabolicity_lost" in r.events]
        lo, hi = x.t_event - 2.0 * prm.dt, x.t_event + (x.record_every + 1) * prm.dt
        if not flagged or not lo <= flagged[0] <= hi:
            return "failed", f"coupled: parabolicity_lost at {flagged[:1]}, want {x.t_event!r}"
    return "ok", ""


def layer_metrics(spans, counts, extra) -> dict[str, float]:
    per_op = {steps: durations_us(spans, f"flow.integrate@{steps}") for _, _, steps in SLOTS}
    return {
        "flow.integrate.p50_ms": median([t for times in per_op.values() for t in times]) / 1e3,
        "flow.rk4_step_us": median([t / steps for steps, times in per_op.items() for t in times]),
        "flow.records_per_op": counts["records"] / max(counts["ops"], 1),
        "flow.extinct_runs": counts["extinct_runs"],
        "flow.engine_rhs.p50_us": median(durations_us(spans, "flow.engine_rhs")),
    }
