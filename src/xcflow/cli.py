"""Batch command-line surface.

Four subcommands: `curvature` (pointwise tensor reports), `symbol`
(symbol matrices, spectra, parabolicity verdicts), `flow` (scale-factor
integration with CSV/JSON traces), and `verify` (the invariant suites).

Inputs come from flags or from a flat key-value config file with dotted
section prefixes (`flow.dt = 1e-4`); flags override file values, and
unknown or missing keys are rejected by name.  All floats are emitted
with their shortest round-trip representation, so identical inputs
produce byte-identical outputs.

Exit codes: 0 success; 2 usage error, for malformed input (an unknown,
duplicate or missing key, a value that is not a number, or not an
integer where one is required, or contradictory options); 3
numeric/domain error, for well-formed values outside the domain of the
mathematics (a non-finite or nonpositive step, a NaN coupling, an
indefinite metric), raised by the library before anything is printed;
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import IO

import numpy as np

from . import __version__
from . import curvature as cv
from . import flow as fl
from . import symbol as sb
from .errors import DomainError, XcflowError


class UsageError(Exception):
    """Malformed invocation or configuration; maps to exit code 2."""


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

COMMON_KEYS = {"command", "seed", "output", "format"}
COMMAND_KEYS = {
    "curvature": {"frame", "space_form", "kappa", "jet_from_chart", "point",
                  "fd_step", "richardson"},
    "symbol": {"frame", "p", "rho", "xi", "case", "mode", "direction_samples"},
    "flow": {"rho", "epsilon", "lambda", "dt", "t_end", "record_every",
             "unsafe_signs", "paper_ode", "halt_on_parabolicity_loss"},
    "verify": {"suite", "cases"},
}


# ---------------------------------------------------------------------------
# config handling

def _parse_scalar(text: str):
    s = text.strip()
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def parse_value(text: str):
    """Type a config value by content; comma-separated scalars become tuples."""
    if "," in text:
        return tuple(_parse_scalar(part) for part in text.split(","))
    return _parse_scalar(text)


def read_config_file(path: str) -> dict[str, str]:
    """Read `key = value` lines; '#' starts a comment, blanks are skipped."""
    raw: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, value = stripped.split("=", 1)
                key = key.strip()
                if key in raw:
                    raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
                raw[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return raw


def apply_config_keys(raw: dict[str, str], command: str) -> dict[str, object]:
    """Validate config keys against the command schema and type the values.

    Dotted keys must use the command name as the section; plain keys must
    be one of the common keys.  Any unknown key is rejected by name.
    """
    allowed = COMMAND_KEYS[command]
    options: dict[str, object] = {}
    for key, value in raw.items():
        if "." in key:
            section, sub = key.split(".", 1)
            if section != command or sub not in allowed:
                raise UsageError(f"unknown config key {key!r} for command {command!r}")
            options[sub] = parse_value(value)
        else:
            if key not in COMMON_KEYS:
                raise UsageError(f"unknown config key {key!r}")
            options[key] = parse_value(value)
    if "command" in options and options["command"] != command:
        raise UsageError(
            f"config file is for command {options['command']!r}, invoked {command!r}")
    return options


def _as_floats(value, n: int, key: str) -> tuple[float, ...]:
    if isinstance(value, str):
        value = parse_value(value)
    if not isinstance(value, tuple):
        value = (value,)
    try:
        floats = tuple(float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{key} must be {n} comma-separated numbers") from exc
    if len(floats) != n:
        raise UsageError(f"{key} must have exactly {n} components, got {len(floats)}")
    return floats


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{key} must be a number, got {value!r}")
    return float(value)


def _require_finite(values: tuple[float, ...], key: str) -> None:
    """A domain error (exit 3) unless every value is finite."""
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"{key} must be finite, got {_vec_str(values)}")


def _as_int(value, key: str) -> int:
    """The integer a config or flag value stands for; 2.0 passes, 2.5 does not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{key} must be an integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# float / output formatting

def fmt(x: float) -> str:
    """Shortest round-trip decimal representation of a 64-bit float."""
    return repr(float(x))


def _write_report(report: dict, path: str | None, fmt_name: str) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        if fmt_name == "json":
            json.dump(report, fh, indent=2)
            fh.write("\n")
        else:
            fh.write(f"# xcflow v{__version__}\n")
            for key, value in _flatten(report):
                fh.write(f"{key},{value}\n")


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            rows.extend(_flatten(value, f"{prefix}{key}." if prefix else f"{key}."))
    elif isinstance(obj, (list, tuple)):
        rows.append((prefix.rstrip("."), ";".join(
            fmt(v) if isinstance(v, float) else str(v) for v in np.ravel(np.asarray(obj, dtype=object)))))
    elif isinstance(obj, float):
        rows.append((prefix.rstrip("."), fmt(obj)))
    else:
        rows.append((prefix.rstrip("."), str(obj)))
    return rows


def _vec_str(values) -> str:
    return ",".join(fmt(v) for v in values)


# ---------------------------------------------------------------------------
# curvature command

def _curvature_inputs(options: dict) -> tuple[cv.Riemann3, cv.SymTensor3, dict]:
    modes = [k for k in ("frame", "space_form", "jet_from_chart") if k in options]
    if len(modes) != 1:
        raise UsageError(
            "provide exactly one of --frame, --space-form, --jet-from-chart")
    mode = modes[0]
    meta: dict = {"input_mode": mode}
    if mode == "frame":
        a, b, c = _as_floats(options["frame"], 3, "frame")
        _require_finite((a, b, c), "frame")
        meta["frame"] = [a, b, c]
        return cv.Riemann3.from_frame(a, b, c), cv.SymTensor3.identity(), meta

    name = options.get("space_form") or options.get("jet_from_chart")
    if name not in ("sphere", "hyperbolic"):
        raise UsageError("space form name must be 'sphere' or 'hyperbolic'")
    kappa = _as_float(options.get("kappa", 1.0 if name == "sphere" else -1.0), "kappa")
    _require_finite((kappa,), "kappa")
    if name == "sphere" and kappa <= 0.0:
        raise UsageError("kappa must be positive for the sphere")
    if name == "hyperbolic" and kappa >= 0.0:
        raise UsageError("kappa must be negative for the hyperbolic space form")
    meta.update({"space_form": name, "kappa": kappa})

    if mode == "space_form":
        g = cv.SymTensor3.identity()
        return cv.Riemann3.space_form(kappa, g), g, meta

    point = np.array(_as_floats(options.get("point", (0.0, 0.0, 0.0)), 3, "point"))
    fd_step = _as_float(options.get("fd_step", 1e-3), "fd_step")
    richardson = bool(options.get("richardson", False))
    meta.update({"point": list(point), "fd_step": fd_step, "richardson": richardson})
    try:
        jet = cv.jet_from_function(cv.space_form_chart(kappa), point,
                                   step=fd_step, richardson=richardson)
    except OverflowError as exc:  # Python float arithmetic in the chart and stencil
        raise DomainError("the chart metric or its differences overflow; kappa, "
                          "point and fd_step must keep them finite") from exc
    return cv.riemann(jet), jet.g, meta


def cmd_curvature(options: dict, stdout: IO[str]) -> int:
    # A finite but huge input can overflow on the way to the tensor checks,
    # which reject the non-finite result (exit 3); numpy's warnings about
    # the overflow would only put noise on stderr ahead of that error line.
    with np.errstate(over="ignore", invalid="ignore"):
        riem, g, meta = _curvature_inputs(options)
        ric, scalar = cv.ricci(riem, g)
        p = cv.einstein_raised(riem, g)
        forms = cv.cross_curvature_forms(riem, g)
        frame, vectors = cv.eigen_frame(p, g)
        h = forms.contraction_form
        h_eigs, _ = cv.generalized_eigh(h, g)

    report = {
        "version": __version__,
        "command": "curvature",
        "input": meta,
        "g": list(g.components),
        "ricci": list(ric.components),
        "scalar_curvature": scalar,
        "einstein_raised": list(p.components),
        "frame": {"a": frame.a, "b": frame.b, "c": frame.c,
                  "vectors": vectors.T.tolist()},
        "cross_curvature": {
            "contraction_form": list(h.components),
            "mu_form": list(forms.mu_form.components),
            "determinant_form": (None if forms.determinant_form is None
                                 else list(forms.determinant_form.components)),
            "determinant_singular": forms.determinant_singular,
            "max_pairwise_dev": forms.max_pairwise_dev,
        },
        "h_eigenvalues": [float(v) for v in h_eigs],
        "warnings": (["determinant form unavailable: P is singular"]
                     if forms.determinant_singular else []),
    }

    print(f"g: {_vec_str(g.components)}", file=stdout)
    print(f"Ric: {_vec_str(ric.components)}", file=stdout)
    print(f"R: {fmt(scalar)}", file=stdout)
    print(f"P: {_vec_str(p.components)}", file=stdout)
    print(f"frame a,b,c: {fmt(frame.a)},{fmt(frame.b)},{fmt(frame.c)}", file=stdout)
    print(f"h (contraction): {_vec_str(h.components)}", file=stdout)
    print(f"h (mu form): {_vec_str(forms.mu_form.components)}", file=stdout)
    if forms.determinant_form is None:
        print("h (determinant): unavailable (P singular)", file=stdout)
    else:
        print(f"h (determinant): {_vec_str(forms.determinant_form.components)}",
              file=stdout)
    print(f"h max pairwise deviation: {fmt(forms.max_pairwise_dev)}", file=stdout)
    print(f"h eigenvalues: {_vec_str(sorted(report['h_eigenvalues'], reverse=True))}",
          file=stdout)
    for warning in report["warnings"]:
        print(f"warning: {warning}", file=stdout)

    _write_report(report, options.get("output"), options.get("format", "json"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# symbol command

def _symbol_p(options: dict) -> cv.SymTensor3:
    if ("frame" in options) == ("p" in options):
        raise UsageError("provide exactly one of --frame or --p")
    if "frame" in options:
        a, b, c = _as_floats(options["frame"], 3, "frame")
        return cv.SymTensor3(np.array([a, 0.0, 0.0, b, c, 0.0]), "upper")
    return cv.SymTensor3(np.array(_as_floats(options["p"], 6, "p")), "upper")


def _xi_list(options: dict) -> list[np.ndarray]:
    if "xi" not in options:
        return [np.array([1.0, 0.0, 0.0])]
    value = options["xi"]
    if isinstance(value, list):  # repeated --xi flags
        return [np.array(_as_floats(v, 3, "xi")) for v in value]
    return [np.array(_as_floats(value, 3, "xi"))]


def cmd_symbol(options: dict, stdout: IO[str]) -> int:
    p = _symbol_p(options)
    rho = _as_float(options.get("rho", 0.0), "rho")
    samples = _as_int(options.get("direction_samples", sb.DEFAULT_DIRECTION_SAMPLES),
                      "direction_samples")
    case = options.get("case", "positive")
    mode = options.get("mode", "all_directions")
    xis = _xi_list(options)

    # everything that can reject the input runs before the first line is printed
    report_obj = sb.parabolicity(p, cv.SymTensor3.identity(), rho, case=case,
                                 mode=mode, direction_samples=samples)
    p_signed = cv.SymTensor3(sb.case_sign(case) * p.components, "upper")
    per_direction = []
    for xi in xis:
        raw = sb.symbol_raw(p_signed, rho, xi)
        modified = sb.symbol_modified(p, rho, xi, case=case)
        per_direction.append({
            "xi": [float(v) for v in xi],
            "raw_matrix": raw.entries.tolist(),
            "deturck_matrix": modified.entries.tolist(),
            "raw_spectrum": [float(v) for v in sb.spectrum(raw)],
            "deturck_spectrum": [float(v) for v in sb.spectrum(modified)],
        })

    for entry in per_direction:
        print(f"xi: {_vec_str(entry['xi'])}", file=stdout)
        print(f"raw: {_vec_str(entry['raw_spectrum'])}", file=stdout)
        print(f"deturck: {_vec_str(entry['deturck_spectrum'])}", file=stdout)
    print(f"threshold: {fmt(report_obj.threshold)}", file=stdout)
    print(f"margin: {fmt(report_obj.margin)}", file=stdout)
    print(f"verdict: {report_obj.verdict}", file=stdout)

    report = {
        "version": __version__,
        "command": "symbol",
        "p": list(p.components),
        "rho": rho,
        "case": report_obj.case,
        "mode": report_obj.mode,
        "directions": per_direction,
        "parabolicity": {
            "threshold": report_obj.threshold,
            "margin": report_obj.margin,
            "spectral_margin": report_obj.spectral_margin,
            "verdict": report_obj.verdict,
            "min_modified_eig": report_obj.min_modified_eig,
            "min_raw_eig": report_obj.min_raw_eig,
            "direction_samples": report_obj.direction_samples,
            "max_imag_residue": report_obj.max_imag_residue,
        },
    }
    _write_report(report, options.get("output"), options.get("format", "json"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# flow command

def build_flow_params(options: dict) -> fl.FlowParams:
    """Assemble FlowParams, naming any missing or non-numeric key.

    The values themselves are checked by FlowParams (DomainError, exit 3).
    """
    for key in ("rho", "epsilon", "lambda", "dt", "t_end"):
        if key not in options:
            raise UsageError(f"missing required key {key!r} for the flow command")
    return fl.FlowParams(
        rho=_as_float(options["rho"], "rho"),
        epsilon=_as_int(options["epsilon"], "epsilon"),
        lam=_as_float(options["lambda"], "lambda"),
        dt=_as_float(options["dt"], "dt"),
        t_end=_as_float(options["t_end"], "t_end"),
        unsafe_signs=bool(options.get("unsafe_signs", False)),
    )


def write_trace_csv(fh: IO[str], trace: fl.FlowTrace) -> None:
    """Pinned CSV trace format: version comment, then
    t,c,R,h_eig,parab_margin,events (plus c_closed_form when rho = 0)."""
    params = trace.params
    with_closed = params.rho == 0.0
    fh.write(f"# xcflow v{__version__}\n")
    columns = ["t", "c", "R", "h_eig", "parab_margin", "events"]
    if with_closed:
        columns.append("c_closed_form")
    fh.write(",".join(columns) + "\n")
    for record in trace.records:
        row = [fmt(record.t), fmt(record.c), fmt(record.scalar_curvature),
               fmt(record.h_eigenvalue), fmt(record.parabolicity_margin),
               ";".join(record.events)]
        if with_closed:
            try:
                row.append(fmt(fl.closed_form_c(record.t, params)))
            except XcflowError:
                row.append("nan")
        fh.write(",".join(row) + "\n")


def _trace_dict(trace: fl.FlowTrace, diagnostics: dict | None = None) -> dict:
    params = trace.params
    with_closed = params.rho == 0.0
    records = []
    for record in trace.records:
        entry = {
            "t": record.t,
            "c": record.c,
            "R": record.scalar_curvature,
            "h_eig": record.h_eigenvalue,
            "parab_margin": record.parabolicity_margin,
            "events": list(record.events),
        }
        if with_closed:
            try:
                entry["c_closed_form"] = fl.closed_form_c(record.t, params)
            except XcflowError:
                entry["c_closed_form"] = None
        records.append(entry)
    out = {
        "version": __version__,
        "command": "flow",
        "params": {
            "rho": params.rho,
            "epsilon": params.epsilon,
            "lambda": params.lam,
            "dt": params.dt,
            "t_end": params.t_end,
            "unsafe_signs": params.unsafe_signs,
        },
        "status": trace.status,
        "extinction_time": trace.extinction_time,
        "counters": {
            "steps": trace.steps,
            "bisection_iterations": trace.bisection_iterations,
        },
        "records": records,
    }
    if diagnostics:
        out["diagnostics"] = diagnostics
    return out


def write_trace_json(fh: IO[str], trace: fl.FlowTrace,
                     diagnostics: dict | None = None) -> None:
    json.dump(_trace_dict(trace, diagnostics), fh, indent=2)
    fh.write("\n")


def cmd_flow(options: dict, stdout: IO[str]) -> int:
    out_format = options.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise UsageError(f"format must be 'csv' or 'json', got {out_format!r}")
    record_every = _as_int(options.get("record_every", 100), "record_every")
    params = build_flow_params(options)
    trace = fl.integrate(
        params,
        record_every=record_every,
        halt_on_parabolicity_loss=bool(options.get("halt_on_parabolicity_loss", False)),
    )

    diagnostics = None
    if options.get("paper_ode"):
        # side-by-side of the integrated right-hand side and the originally
        # published form of the reduced ODE, which disagrees with the
        # engine-derived one
        discrepancies = [
            abs(fl.einstein_rhs(r.c, params) - fl.published_ode_rhs(r.c, params))
            for r in trace.records
        ]
        diagnostics = {
            "published_ode": {
                "derived_rhs_at_start": fl.einstein_rhs(1.0, params),
                "published_rhs_at_start": fl.published_ode_rhs(1.0, params),
                "max_abs_discrepancy_on_trace": max(discrepancies),
            }
        }
        print("published-ODE diagnostic: derived rhs(1) = "
              f"{fmt(diagnostics['published_ode']['derived_rhs_at_start'])}, "
              "published rhs(1) = "
              f"{fmt(diagnostics['published_ode']['published_rhs_at_start'])}, "
              "max |difference| along trace = "
              f"{fmt(diagnostics['published_ode']['max_abs_discrepancy_on_trace'])}",
              file=stdout)

    output = options.get("output")
    if output is None:
        if out_format == "csv":
            write_trace_csv(stdout, trace)
        else:
            write_trace_json(stdout, trace, diagnostics)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            if out_format == "csv":
                write_trace_csv(fh, trace)
            else:
                write_trace_json(fh, trace, diagnostics)
        print(f"status: {trace.status}", file=stdout)
        if trace.extinction_time is not None:
            print(f"extinction_time: {fmt(trace.extinction_time)}", file=stdout)
        print(f"wrote {output}", file=stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify command

def cmd_verify(options: dict, stdout: IO[str]) -> int:
    from . import verify as vf  # the suites load only when asked for

    suites = options.get("suite")
    if isinstance(suites, str):
        suites = [suites]
    elif isinstance(suites, tuple):
        suites = list(suites)
    if suites:
        unknown = set(suites) - set(vf.available_suites())
        if unknown:
            raise UsageError(f"unknown suite(s): {', '.join(sorted(unknown))}")
    cases = options.get("cases")
    if cases is not None:
        cases = _as_int(cases, "cases")
        if cases < 1:
            raise UsageError("cases must be a positive integer")
    seed = _as_int(options.get("seed", vf.DEFAULT_SEED), "seed")

    summary = vf.run_checks(suites=suites, cases=cases, seed=seed)
    for result in summary.results:
        print(result.line(), file=stdout)
    n_failed = sum(not r.passed for r in summary.results)
    print(f"SUMMARY: {len(summary.results) - n_failed}/{len(summary.results)} "
          f"checks passed (seed {seed})", file=stdout)

    output = options.get("output")
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            json.dump(summary.to_dict(), fh, indent=2)
            fh.write("\n")
    return EXIT_OK if summary.all_passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xcflow",
        description="Cross curvature tensors, symbol parabolicity, and "
                    "Einstein-data flow integration on 3-manifolds.")
    parser.add_argument("--version", action="version", version=f"xcflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key-value config file; flags override it")
        sp.add_argument("--output", help="write the report/trace to this path")
        sp.add_argument("--format", choices=("csv", "json"),
                        help="output file format (default: json for reports, csv for traces)")
        sp.add_argument("--seed", type=int, help="seed for randomized suites")

    p_curv = sub.add_parser("curvature", help="pointwise curvature and cross "
                            "curvature report")
    common(p_curv)
    p_curv.add_argument("--frame", help="sectional curvatures a,b,c")
    p_curv.add_argument("--space-form", dest="space_form",
                        choices=("sphere", "hyperbolic"),
                        help="named constant-curvature geometry")
    p_curv.add_argument("--kappa", type=float, help="sectional curvature of the space form")
    p_curv.add_argument("--jet-from-chart", dest="jet_from_chart",
                        choices=("sphere", "hyperbolic"),
                        help="finite-difference jet of the conformal chart")
    p_curv.add_argument("--point", help="chart point x,y,z")
    p_curv.add_argument("--fd-step", dest="fd_step", type=float,
                        help="finite-difference step (default 1e-3)")
    p_curv.add_argument("--richardson", action="store_true", default=None,
                        help="refine the jet to fourth order")

    p_sym = sub.add_parser("symbol", help="symbol matrices, spectra, parabolicity")
    common(p_sym)
    p_sym.add_argument("--frame", help="P eigenvalues a,b,c (orthonormal frame)")
    p_sym.add_argument("--p", help="P components p11,p12,p13,p22,p33,p23")
    p_sym.add_argument("--rho", type=float, help="scalar-curvature coupling (default 0)")
    p_sym.add_argument("--xi", action="append", help="direction x,y,z (repeatable)")
    p_sym.add_argument("--case", choices=("positive", "negative"),
                       help="curvature sign case (default positive)")
    p_sym.add_argument("--mode", choices=("frame", "all_directions"),
                       help="threshold reading (default all_directions)")
    p_sym.add_argument("--direction-samples", dest="direction_samples", type=int,
                       help="Fibonacci lattice directions swept with P's three "
                            "eigenvectors; the verdict uses the exact minimum over "
                            "all directions whatever the count (default 200)")

    p_flow = sub.add_parser("flow", help="integrate the scale-factor flow")
    common(p_flow)
    p_flow.add_argument("--rho", type=float, help="scalar-curvature coupling")
    p_flow.add_argument("--epsilon", type=int, choices=(1, -1),
                        help="sectional-curvature sign of the initial metric")
    p_flow.add_argument("--lambda", dest="lambda", type=float,
                        help="Einstein constant of the initial metric")
    p_flow.add_argument("--dt", type=float, help="integration step")
    p_flow.add_argument("--t-end", dest="t_end", type=float, help="final time")
    p_flow.add_argument("--record-every", dest="record_every", type=int,
                        help="record every N steps (default 100)")
    p_flow.add_argument("--unsafe-signs", dest="unsafe_signs", action="store_true",
                        default=None, help="allow epsilon/lambda sign mismatch")
    p_flow.add_argument("--paper-ode", dest="paper_ode", action="store_true",
                        default=None,
                        help="also evaluate the originally published reduced ODE "
                             "and report its discrepancy")
    p_flow.add_argument("--halt-on-parabolicity-loss",
                        dest="halt_on_parabolicity_loss", action="store_true",
                        default=None, help="stop when the margin turns negative")

    p_ver = sub.add_parser("verify", help="run the invariant verification suites")
    common(p_ver)
    p_ver.add_argument("--suite", action="append",
                       help="restrict to a suite (repeatable): "
                            "tensor_core, symbol, flow, cli")
    p_ver.add_argument("--cases", type=int, help="override per-check case counts")

    return parser


def _collect_options(args: argparse.Namespace) -> dict[str, object]:
    """Config file values, overridden by the flags that were given."""
    command = args.command
    options: dict[str, object] = {}
    if args.config:
        options.update(apply_config_keys(read_config_file(args.config), command))
    for key in (*COMMAND_KEYS[command], *(COMMON_KEYS - {"command"})):
        value = getattr(args, key)
        if value is not None:
            options[key] = value
    options.pop("command", None)
    return options


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        options = _collect_options(args)
        handler = {
            "curvature": cmd_curvature,
            "symbol": cmd_symbol,
            "flow": cmd_flow,
            "verify": cmd_verify,
        }[args.command]
        return handler(options, sys.stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except XcflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
