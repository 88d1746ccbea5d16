import io
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from xcflow.errors import (
    DomainError,
    ExtinctStateError,
    ExtinctionExceededError,
)
from xcflow.cli import write_trace_csv, write_trace_json
from xcflow.flow import (
    C_MIN,
    MAX_STEPS,
    FlowParams,
    TraceRecord,
    closed_form_c,
    einstein_residual,
    einstein_rhs,
    engine_rhs,
    equilibrium_scale,
    integrate,
    parabolicity_report_at,
    published_ode_rhs,
)


def sphere(rho=0.0, dt=1e-4, t_end=0.2):
    return FlowParams(rho=rho, epsilon=+1, lam=2.0, dt=dt, t_end=t_end)


def hyperbolic(rho=0.0, dt=1e-3, t_end=2.0):
    return FlowParams(rho=rho, epsilon=-1, lam=-2.0, dt=dt, t_end=t_end)


class TestFlowParams:
    def test_sign_pairing_enforced(self):
        with pytest.raises(DomainError):
            FlowParams(rho=0.0, epsilon=+1, lam=-2.0, dt=1e-3, t_end=1.0)
        with pytest.raises(DomainError):
            FlowParams(rho=0.0, epsilon=-1, lam=2.0, dt=1e-3, t_end=1.0)

    def test_sign_pairing_override(self):
        params = FlowParams(rho=0.0, epsilon=+1, lam=-2.0, dt=1e-3, t_end=1.0,
                            unsafe_signs=True)
        assert params.lam == -2.0

    def test_dt_bounds(self):
        with pytest.raises(DomainError):
            FlowParams(rho=0.0, epsilon=+1, lam=2.0, dt=2.0, t_end=1.0)
        with pytest.raises(DomainError):
            FlowParams(rho=0.0, epsilon=+1, lam=2.0, dt=-1e-3, t_end=1.0)

    def test_step_count_bound(self):
        params = FlowParams(rho=0.0, epsilon=+1, lam=1e-3, dt=1.0, t_end=float(MAX_STEPS))
        assert params.t_end / params.dt == MAX_STEPS
        for dt in (0.5, 1e-300, 5e-324):
            with pytest.raises(DomainError, match="steps"):
                FlowParams(rho=0.0, epsilon=+1, lam=1e-3, dt=dt, t_end=float(MAX_STEPS))

    @pytest.mark.parametrize("field", ["rho", "lam", "dt", "t_end"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "x", None])
    def test_non_finite_values_rejected(self, field, value):
        args = {"rho": 0.0, "epsilon": +1, "lam": 2.0, "dt": 1e-3, "t_end": 1.0,
                "unsafe_signs": True, field: value}
        with pytest.raises(DomainError, match=field):
            FlowParams(**args)

    @pytest.mark.parametrize("field", ["rho", "lam", "dt", "t_end"])
    @pytest.mark.parametrize("value", ["0.1", b"0.1", True, 1j, np.True_, np.array(True)])
    def test_values_that_are_not_real_numbers_rejected(self, field, value):
        # float() would read "0.1", b"0.1" and True, numpy's bools too; none is
        # a real parameter
        args = {"rho": 0.0, "epsilon": +1, "lam": 2.0, "dt": 1e-3, "t_end": 1.0,
                "unsafe_signs": True, field: value}
        with pytest.raises(DomainError, match=f"{field} must be a finite real number"):
            FlowParams(**args)

    @pytest.mark.parametrize("value", [True, False, 1.5, "1", None, np.True_, np.array(True)])
    def test_epsilon_is_a_sign(self, value):
        with pytest.raises(DomainError, match="epsilon must be \\+1 or -1"):
            FlowParams(rho=0.0, epsilon=value, lam=2.0, dt=1e-3, t_end=1.0,
                       unsafe_signs=True)

    def test_real_values_are_kept_as_python_floats(self):
        params = FlowParams(rho=np.float64(0.1), epsilon=np.int64(1), lam=np.float32(0.3),
                            dt=1e-3, t_end=1)
        assert [type(v) for v in (params.rho, params.lam, params.dt, params.t_end)] == [float] * 4
        # a float32 lam used to run the flow in float32
        same = FlowParams(rho=0.1, epsilon=1, lam=float(np.float32(0.3)), dt=1e-3, t_end=1.0)
        assert integrate(params).records == integrate(same).records


    @pytest.mark.parametrize("epsilon, lam", [(np.float32(1.0), 2.0), (np.int64(1), 2.0),
                                              (np.float32(-1.0), -2.0), (np.int64(-1), -2.0)],
                             ids=["float32", "int64", "float32_negative", "int64_negative"])
    def test_epsilon_is_kept_as_a_python_int(self, epsilon, lam):
        # a float32 epsilon used to run the flow in float32, and an int64 one
        # made the JSON trace unserialisable
        params = FlowParams(rho=0.1, epsilon=epsilon, lam=lam, dt=1e-3, t_end=0.5)
        assert type(params.epsilon) is int
        same = FlowParams(rho=0.1, epsilon=int(epsilon), lam=lam, dt=1e-3, t_end=0.5)
        traces = []
        for run in (params, same):
            out = io.StringIO()
            write_trace_json(out, integrate(run, record_every=1))
            traces.append(out.getvalue())
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None, np.array([True, False])],
                             ids=["false", "no", "0", "1", "None", "bool_pair"])
    def test_unsafe_signs_must_be_a_bool(self, value):
        # "false" used to pass the sign check, and its JSON trace printed it
        with pytest.raises(DomainError, match="unsafe_signs must be a bool"):
            FlowParams(rho=0.0, epsilon=1, lam=-1.0, dt=1e-3, t_end=1.0, unsafe_signs=value)

    @pytest.mark.parametrize("value", [np.True_, np.array(True)], ids=["bool_", "array"])
    def test_numpy_bool_flags_are_kept_as_python_bools(self, value):
        params = FlowParams(rho=0.0, epsilon=1, lam=-1.0, dt=1e-3, t_end=1.0, unsafe_signs=value)
        assert params.unsafe_signs is True


class TestRhs:
    def test_unit_sphere_values(self):
        assert einstein_rhs(1.0, sphere()) == -2.0
        assert einstein_rhs(1.0, sphere(rho=1.0 / 6.0)) == 0.0
        assert einstein_rhs(1.0, hyperbolic()) == 2.0

    def test_engine_oracle_on_unit_cases(self):
        assert engine_rhs(1.0, sphere()) == pytest.approx(-2.0, abs=1e-14)
        assert engine_rhs(1.0, sphere(rho=1.0 / 6.0)) == pytest.approx(0.0, abs=1e-14)
        assert engine_rhs(1.0, hyperbolic()) == pytest.approx(2.0, abs=1e-14)

    def test_engine_agreement_over_grid(self):
        worst = 0.0
        for c in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            for lam in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
                for rho in (-0.2, 0.0, 0.1, 1.0 / 6.0):
                    params = FlowParams(rho=rho, epsilon=1 if lam > 0 else -1,
                                        lam=lam, dt=1e-4, t_end=1.0)
                    a, b = einstein_rhs(c, params), engine_rhs(c, params)
                    # four grid points are equilibria (a = 0), so the scale is
                    # the larger of the two RHS terms, not |a| or |b|
                    terms = max(lam**2 / (2.0 * c), abs(6.0 * rho * lam))
                    worst = max(worst, abs(a - b) / terms)
        assert worst < 1e-10

    def test_collapsed_state_rejected(self):
        with pytest.raises(ExtinctStateError):
            einstein_rhs(0.0, sphere())
        with pytest.raises(ExtinctStateError):
            engine_rhs(-1.0, sphere())

    @pytest.mark.parametrize("evaluate", [
        einstein_rhs, engine_rhs, published_ode_rhs, parabolicity_report_at,
        lambda c, params: einstein_residual(TraceRecord(0.0, c, 0.0, 0.0, 0.0), params),
    ], ids=["einstein_rhs", "engine_rhs", "published_ode_rhs", "parabolicity_report_at",
            "einstein_residual"])
    def test_every_evaluation_checks_the_scale_factor(self, evaluate):
        # one check: a collapsed c is extinct, a non-finite one is named,
        # with no ZeroDivisionError, nan result or numpy warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in (0.0, -1.0, -math.inf):
                with pytest.raises(ExtinctStateError, match="scale factor must be positive"):
                    evaluate(c, sphere())
            for c in (math.nan, math.inf):
                with pytest.raises(DomainError, match="scale factor must be finite") as caught:
                    evaluate(c, sphere())
                assert not isinstance(caught.value, ExtinctStateError)

    @pytest.mark.parametrize("evaluate", [einstein_rhs, engine_rhs, published_ode_rhs],
                             ids=["einstein_rhs", "engine_rhs", "published_ode_rhs"])
    def test_scale_factor_is_read_as_a_python_float(self, evaluate):
        # a numpy float32 computed in float32 and returned a numpy float32
        got = evaluate(np.float32(0.5), sphere(rho=0.1))
        assert type(got) is float
        assert got == evaluate(0.5, sphere(rho=0.1))

    @pytest.mark.parametrize("c", ["abc", "0.5", None, True, 1j])
    def test_scale_factor_must_be_a_real_number(self, c):
        # "abc" raised a TypeError
        with pytest.raises(DomainError, match="scale factor must be a real number"):
            einstein_rhs(c, sphere())

    def test_published_form_disagrees(self):
        # the originally published reduced ODE is kept only as a diagnostic;
        # at the unit sphere it gives -12.5 against the engine's -2
        assert published_ode_rhs(1.0, sphere()) == -12.5
        assert einstein_rhs(1.0, sphere()) == -2.0


class TestClosedForm:
    def test_sphere_quadrature(self):
        assert closed_form_c(0.1, sphere()) == pytest.approx(math.sqrt(0.6), rel=1e-15)

    def test_hyperbolic_quadrature(self):
        assert closed_form_c(1.0, hyperbolic()) == pytest.approx(math.sqrt(5.0), rel=1e-15)

    def test_equilibrium_constant(self):
        params = sphere(rho=1.0 / 6.0)
        assert equilibrium_scale(params) == pytest.approx(1.0)
        assert closed_form_c(0.7, params) == 1.0

    def test_extinction_exceeded(self):
        with pytest.raises(ExtinctionExceededError) as err:
            closed_form_c(0.3, sphere())
        assert err.value.t_ext == pytest.approx(0.25)

    def test_unavailable_for_generic_rho(self):
        with pytest.raises(DomainError):
            closed_form_c(0.1, sphere(rho=0.05))

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError, match="time must be nonnegative"):
            closed_form_c(-1e-3, sphere())

    @pytest.mark.parametrize("t", [math.nan, math.inf, "0.1", None, True])
    def test_time_must_be_a_finite_real_number(self, t):
        # nan returned nan
        with pytest.raises(DomainError, match="time must be a finite real number"):
            closed_form_c(t, sphere())

    def test_time_is_read_as_a_python_float(self):
        got = closed_form_c(np.float32(0.125), sphere())
        assert type(got) is float and got == closed_form_c(0.125, sphere())


class TestIntegrate:
    def test_sphere_terminal_accuracy(self):
        trace = integrate(sphere())
        assert trace.status == "completed"
        assert abs(trace.records[-1].c - math.sqrt(0.2)) < 1e-8

    def test_hyperbolic_terminal_accuracy(self):
        trace = integrate(hyperbolic())
        assert trace.status == "completed"
        assert abs(trace.records[-1].c - 3.0) < 1e-7

    def test_rk4_convergence_order(self):
        exact = math.sqrt(0.2)
        errs = [abs(integrate(sphere(dt=dt)).records[-1].c - exact)
                for dt in (2e-3, 1e-3, 5e-4)]
        for e_coarse, e_fine in zip(errs, errs[1:]):
            order = math.log2(e_coarse / e_fine)
            assert abs(order - 4.0) <= 0.2

    def test_matches_closed_form_along_trace(self):
        trace = integrate(sphere(dt=1e-3, t_end=0.15), record_every=10)
        for record in trace.records:
            assert record.c == pytest.approx(closed_form_c(record.t, sphere()), abs=1e-9)

    def test_extinction_event(self):
        trace = integrate(sphere(t_end=0.3))
        assert trace.status == "extinct"
        assert abs(trace.extinction_time - 0.25) < 5e-3
        assert trace.records[-1].t == trace.extinction_time
        assert "extinct" in trace.records[-1].events
        # trace truncates at the event
        assert trace.records[-1].t < 0.3

    def test_trace_time_strictly_increasing(self):
        trace = integrate(sphere(dt=1e-3, t_end=0.1), record_every=7)
        times = [r.t for r in trace.records]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_scalar_curvature_identity_on_records(self):
        trace = integrate(hyperbolic(dt=1e-3, t_end=0.5), record_every=25)
        for record in trace.records:
            assert abs(record.scalar_curvature * record.c - 3.0 * (-2.0)) < 1e-12

    def test_h_eigenvalue_column(self):
        trace = integrate(sphere(dt=1e-3, t_end=0.1), record_every=50)
        for record in trace.records:
            kappa = 2.0 / (2.0 * record.c)
            assert record.h_eigenvalue == pytest.approx(kappa**2, rel=1e-14)

    def test_parabolicity_loss_flagged_from_start(self):
        trace = integrate(sphere(rho=0.3, dt=1e-3, t_end=0.05))
        assert trace.records[0].parabolicity_margin < 0.0
        assert "parabolicity_lost" in trace.records[0].events

    def test_halt_on_parabolicity_loss(self):
        trace = integrate(sphere(rho=0.3, dt=1e-3, t_end=0.05),
                          halt_on_parabolicity_loss=True)
        assert trace.status == "parabolicity_lost"
        assert len(trace.records) == 1

    def test_margin_loss_mid_run_flagged(self):
        # for lam/12 < rho < lam/8 the scale factor grows, so the margin
        # lam/(8c) - rho starts positive and crosses zero at c = lam/(8 rho)
        params = FlowParams(rho=0.2, epsilon=+1, lam=2.0, dt=1e-3, t_end=2.0)
        trace = integrate(params, record_every=100)
        margins = [r.parabolicity_margin for r in trace.records]
        assert margins[0] > 0.0
        assert margins[-1] < 0.0
        assert any("parabolicity_lost" in r.events for r in trace.records)

    def test_equilibrium_steady_state_flag(self):
        trace = integrate(sphere(rho=1.0 / 6.0, dt=1e-3, t_end=0.1))
        assert trace.status == "completed"
        assert any("steady_state" in r.events for r in trace.records)
        assert all(r.c == 1.0 for r in trace.records)

    def test_coupled_run_shrinks_slower(self):
        base = integrate(sphere(dt=1e-4, t_end=0.2), record_every=500)
        coupled = integrate(sphere(rho=1.0 / 6.0 - 1e-3, dt=1e-4, t_end=0.2),
                            record_every=500)
        for b, s in zip(base.records[1:], coupled.records[1:]):
            assert s.c > b.c
            assert s.c < 1.0

    def test_parabolic_rescaling_covariance(self):
        s = 2.0
        base = integrate(FlowParams(rho=0.0, epsilon=+1, lam=1.0, dt=1e-3, t_end=0.4),
                         record_every=50)
        scaled = integrate(FlowParams(rho=0.0, epsilon=+1, lam=s, dt=1e-3 / s**2,
                                      t_end=0.4 / s**2), record_every=50)
        for r1, r2 in zip(base.records, scaled.records):
            assert r1.t == pytest.approx(s**2 * r2.t, abs=1e-12)
            assert r1.c == pytest.approx(r2.c, abs=1e-7)

    def test_fractional_final_step(self):
        trace = integrate(sphere(dt=1e-3, t_end=0.0105))
        assert trace.records[-1].t == pytest.approx(0.0105, abs=1e-15)


class TestFusedStep:
    def test_step_matches_reference_bit_for_bit(self):
        # integrate's loop repeats _rk4_step inline: every accepted step is
        # the named step bit for bit, and the crossing step is refused by both
        from xcflow.flow import _rk4_step
        rejected = 0
        for params in (sphere(t_end=0.3), sphere(rho=0.1, dt=1e-3, t_end=0.3),
                       hyperbolic(rho=-0.2), hyperbolic(rho=0.3, dt=1e-2, t_end=3.0),
                       FlowParams(rho=0.0, epsilon=+1, lam=1.0, dt=1.9, t_end=1.9),
                       sphere(dt=1e-3, t_end=0.0105)):
            trace = integrate(params, record_every=1)
            recs = trace.records
            extinct = trace.status == "extinct"
            for prev, rec in zip(recs, recs[1:-1] if extinct else recs[1:]):
                assert _rk4_step(prev.c, rec.t - prev.t, params).hex() == rec.c.hex()
            if extinct:
                prev = recs[-2]
                dt = min((trace.steps + 1) * params.dt, params.t_end) - prev.t
                ref = _rk4_step(prev.c, dt, params)
                rejected += ref is None
                assert ref is None or ref <= C_MIN
        assert rejected > 0  # a stage left 0 < y < inf at least once

    def test_counters_completed_run(self):
        trace = integrate(sphere(dt=1e-3, t_end=0.0105))
        assert trace.status == "completed"
        assert (trace.steps, trace.bisection_iterations) == (11, 0)

    def test_counters_extinct_run(self):
        trace = integrate(sphere(t_end=0.3))
        assert trace.status == "extinct"
        # the crossing step is a full dt, halved to dt * 1e-3 in 10 bisections
        assert trace.bisection_iterations == 10
        dt = trace.params.dt
        assert trace.steps * dt <= trace.extinction_time < (trace.steps + 1) * dt

    def test_counters_halted_runs(self):
        at_start = integrate(sphere(rho=0.3, dt=1e-3, t_end=0.05),
                             halt_on_parabolicity_loss=True)
        assert (at_start.steps, at_start.bisection_iterations) == (0, 0)
        params = FlowParams(rho=0.2, epsilon=+1, lam=2.0, dt=1e-3, t_end=2.0)
        mid_run = integrate(params, halt_on_parabolicity_loss=True)
        assert mid_run.status == "parabolicity_lost"
        assert mid_run.bisection_iterations == 0
        assert mid_run.records[-1].t == pytest.approx(mid_run.steps * 1e-3, abs=1e-12)
        assert 0 < mid_run.steps < 2000


class TestNamedStep:
    def test_stage_outside_the_open_half_line_is_refused(self):
        from xcflow.flow import _rk4_step
        shrinking = FlowParams(rho=0.0, epsilon=+1, lam=1.0, dt=1.9, t_end=1.9)
        assert _rk4_step(1.0, 1.9, shrinking) is None  # third stage at y < 0
        assert _rk4_step(1.0, 1e308, hyperbolic()) is None  # fourth stage at y = inf
        assert _rk4_step(1.0, 1e-3, shrinking) == pytest.approx(
            closed_form_c(1e-3, shrinking), abs=1e-15)

    def test_refined_extinction_time_brackets_the_crossing(self):
        from xcflow.flow import _rk4_step
        params = FlowParams(rho=0.0, epsilon=+1, lam=1.0, dt=1e-2, t_end=2.0)
        trace = integrate(params, record_every=1)
        assert trace.status == "extinct"
        prev, tol = trace.records[-2], params.dt * 1e-3
        assert prev.t < trace.extinction_time < prev.t + params.dt
        assert _rk4_step(prev.c, trace.extinction_time - prev.t - tol, params) > C_MIN
        late = _rk4_step(prev.c, trace.extinction_time - prev.t + tol, params)
        assert late is None or late <= C_MIN
        assert trace.extinction_time == pytest.approx(1.0, abs=params.dt)


class TestCrossingStep:
    # the first step of each run is its crossing step: at dt = 1.9 the third
    # stage point c + dt k3 is negative, at dt = 1.1 every stage point is
    # positive but the result c_next falls below C_MIN
    @pytest.mark.parametrize("dt, rejected_by", [(1.9, "stage"), (1.1, "result")])
    def test_a_rejected_first_step_ends_extinct_as_the_bisection_gives(self, dt, rejected_by):
        from xcflow.flow import _record, _refine_extinction, _rk4_step
        params = FlowParams(rho=0.0, epsilon=+1, lam=1.0, dt=dt, t_end=dt)
        step = _rk4_step(1.0, dt, params)
        if rejected_by == "stage":
            assert step is None
        else:
            assert step is not None and step <= C_MIN
        trace = integrate(params, record_every=1)
        t_ext, halvings = _refine_extinction(1.0, 0.0, dt, params)
        assert (trace.status, trace.steps, trace.bisection_iterations) == ("extinct", 0, halvings)
        assert trace.extinction_time == t_ext
        assert trace.records == (_record(0.0, 1.0, params, ()),
                                 _record(t_ext, C_MIN, params, ("extinct",)))


class TestCMin:
    def test_c_min_whose_record_overflows_rejected(self):
        # kappa**2 at C_MIN overflows for this lam
        params = FlowParams(rho=0.0, epsilon=-1, lam=-1e150, dt=1e-3, t_end=1.0)
        with pytest.raises(DomainError, match="c_min=1e-08 is too small"):
            integrate(params)

    def test_c_min_bound_is_where_the_record_overflows(self):
        # kappa = lam / (2 C_MIN) squares to inf past lam ~ 2.7e146
        finite = FlowParams(rho=0.0, epsilon=+1, lam=1e146, dt=1e-3, t_end=1.0)
        assert integrate(finite).records[-1].c == C_MIN
        with pytest.raises(DomainError, match=r"c_min=1e-08 is too small for lam=1e\+147"):
            integrate(FlowParams(rho=0.0, epsilon=+1, lam=1e147, dt=1e-3, t_end=1.0))

    def test_valid_c_min_is_the_final_record(self):
        params = FlowParams(rho=0.0, epsilon=+1, lam=1.0, dt=1e-3, t_end=1.3)
        trace = integrate(params)
        assert trace.status == "extinct"
        assert trace.records[-1].c == C_MIN
        assert all(math.isfinite(v) for v in trace.records[-1][:5])


class TestRecordEvery:
    @pytest.mark.parametrize("every", [2.5, math.nan, True, 0, -3, "7", None])
    def test_non_positive_or_non_integer_rejected_by_name(self, every):
        with pytest.raises(DomainError, match="record_every must be a positive integer"):
            integrate(sphere(dt=1e-3, t_end=0.1), record_every=every)

    def test_integer_like_values_accepted(self):
        base = integrate(sphere(dt=1e-3, t_end=0.1), record_every=7)
        assert integrate(sphere(dt=1e-3, t_end=0.1), record_every=np.int64(7)) == base
        assert len(base.records) == 100 // 7 + 2


class TestHaltFlag:
    @pytest.mark.parametrize("value", ["no", "", 0, 1, None])
    def test_non_bool_rejected_by_name(self, value):
        # "no" used to halt
        with pytest.raises(DomainError, match="halt_on_parabolicity_loss must be a bool"):
            integrate(sphere(rho=0.1, dt=1e-3, t_end=0.5), halt_on_parabolicity_loss=value)

    def test_numpy_bool_halts_as_true(self):
        params = FlowParams(rho=0.1, epsilon=1, lam=1.0, dt=1e-3, t_end=20.0)
        halted = integrate(params, halt_on_parabolicity_loss=True)
        assert halted.status == "parabolicity_lost"
        assert integrate(params, halt_on_parabolicity_loss=np.True_) == halted


class TestTraceRecord:
    def test_fields_follow_the_csv_columns(self):
        assert TraceRecord._fields == ("t", "c", "scalar_curvature", "h_eigenvalue",
                                       "parabolicity_margin", "events")
        trace = integrate(sphere(t_end=0.3), record_every=500)
        buf = io.StringIO()
        write_trace_csv(buf, trace)
        lines = [ln for ln in buf.getvalue().splitlines() if not ln.startswith("#")]
        assert lines[0].split(",")[:6] == ["t", "c", "R", "h_eig", "parab_margin", "events"]
        for line, record in zip(lines[1:], trace.records, strict=True):
            cells = line.split(",")
            assert tuple(float(x) for x in cells[:5]) == record[:5]
            assert cells[5] == ";".join(record.events)

    def test_immutable_value_with_empty_events_default(self):
        record = TraceRecord(0.5, 1.0, 6.0, 1.0, 0.25)
        assert record.events == ()
        assert record == (0.5, 1.0, 6.0, 1.0, 0.25, ())
        assert hash(record) == hash((0.5, 1.0, 6.0, 1.0, 0.25, ()))
        with pytest.raises(AttributeError):
            record.c = 2.0
        assert record._replace(c=2.0).c == 2.0 and record.c == 1.0

    @pytest.mark.parametrize("halt", [False, True])
    def test_every_record_of_a_run_is_a_trace_record(self, halt):
        runs = [integrate(sphere(t_end=0.3), record_every=7, halt_on_parabolicity_loss=halt),
                integrate(FlowParams(rho=0.2, epsilon=+1, lam=2.0, dt=1e-3, t_end=2.0),
                          halt_on_parabolicity_loss=halt),
                integrate(sphere(rho=0.3, dt=1e-3, t_end=0.05), record_every=1,
                          halt_on_parabolicity_loss=halt),
                integrate(hyperbolic(dt=1e-3, t_end=0.05), record_every=1)]
        for trace in runs:
            assert len(trace.records) >= 1
            assert all(type(r) is TraceRecord for r in trace.records)


class TestEinsteinResidual:
    @pytest.mark.parametrize("c", [1e-3, 0.5, 1.0, 7.0])
    def test_space_form_is_the_einstein_metric_at_scale_c(self, c):
        from xcflow import curvature as cv
        from xcflow.flow import _space_form
        for params in (sphere(), hyperbolic(rho=0.1)):
            riem, g = _space_form(c, params)
            np.testing.assert_array_equal(g.matrix, c * np.eye(3))
            ric, scalar = cv.ricci(riem, g)
            # Ric = lam * g(0) at every scale, so R = 3 lam / c
            np.testing.assert_allclose(ric.matrix, params.lam * np.eye(3), rtol=1e-14, atol=0)
            assert scalar == pytest.approx(3.0 * params.lam / c, rel=1e-14)

    def test_residual_vanishes_on_space_form_records(self):
        for params in (sphere(dt=1e-3, t_end=0.1), hyperbolic(dt=1e-3, t_end=0.5)):
            trace = integrate(params, record_every=25)
            for record in trace.records:
                assert einstein_residual(record, params) < 1e-12

    def test_residual_runs_without_numpy(self):
        # Ric - (R/3) g is formed in Python floats: the same bits with numpy blocked
        code = ("import sys; sys.modules['numpy'] = None\n"
                "from xcflow.flow import FlowParams, TraceRecord, einstein_residual\n"
                "params = FlowParams(rho=0.1, epsilon=-1, lam=-2.0, dt=1e-3, t_end=2.0)\n"
                "for c in (1e-3, 0.3, 7.0):\n"
                "    print(einstein_residual(TraceRecord(0.0, c, 0.0, 0.0, 0.0), params).hex())")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert proc.stdout.split() == [
            einstein_residual(TraceRecord(0.0, c, 0.0, 0.0, 0.0), hyperbolic(rho=0.1)).hex()
            for c in (1e-3, 0.3, 7.0)]

    def test_detector_sees_injected_anisotropy(self):
        # direct norm computation on deliberately perturbed frame data
        from xcflow.curvature import Riemann3, SymTensor3, ricci
        from xcflow.flow import tensor_norm
        g = SymTensor3.identity()
        riem = Riemann3.from_frame(1.0 + 1e-3, 1.0, 1.0)
        ric, scalar = ricci(riem, g)
        residual = tensor_norm(ric.matrix - (scalar / 3.0) * g.matrix, g)
        assert 1e-4 < residual < 1e-2

    @pytest.mark.parametrize("components", [
        [1.0, 0.0, 0.0, -1.0, 1.0, 0.0],  # indefinite
        [1.0, 1.0, 0.0, 1.0, 1.0, 0.0],   # singular
    ])
    def test_tensor_norm_rejects_a_non_metric(self, components):
        from xcflow.curvature import SymTensor3
        from xcflow.flow import tensor_norm
        with pytest.raises(DomainError, match="metric is not positive definite"):
            tensor_norm(np.eye(3), SymTensor3(np.array(components)))


class TestParabolicityAlongFlow:
    def test_report_matches_margin_column(self):
        params = sphere(rho=0.1, dt=1e-3, t_end=0.05)
        trace = integrate(params, record_every=10)
        for record in trace.records[::3]:
            report = parabolicity_report_at(record.c, params)
            assert report.margin == pytest.approx(record.parabolicity_margin, abs=1e-12)

    def test_full_report_verdict_at_start(self):
        report = parabolicity_report_at(1.0, sphere())
        assert report.verdict == "strictly_parabolic_deturck"
        assert report.threshold == pytest.approx(0.25)
