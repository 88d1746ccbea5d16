"""Batch command-line surface.

Four subcommands: `curvature` (pointwise tensor reports), `symbol`
(symbol matrices, spectra, parabolicity verdicts), `flow` (scale-factor
integration with CSV/JSON traces), and `verify` (the invariant suites).

Every key a command takes is declared once, in `COMMANDS`, with its
converter, default and help text.  A key is set by a flag (`--t-end 0.5`)
or by a line of a flat key-value config file (`flow.t_end = 0.5`; the
command prefix is optional), and flags override file values.  Both
routes hand the same text to the same converter, so the same text gives
the same value, or the same usage error naming the key, whichever route
it came by.  A value may follow its flag as a separate word even when it
starts with '-' (`--lambda -1e-3`, `--xi -1,0,0`).  A boolean is a flag
without a value, or `true` / `false` in any case in a config file; any
other spelling is a usage error.
`format` is `json` (default) or `csv` for the `curvature` and `symbol`
reports, `csv` (default) or `json` for the `flow` trace, and `json` only
for the `verify` summary.  All floats are emitted with their shortest
round-trip representation, so identical inputs produce byte-identical
outputs.

Exit codes: 0 success; 2 usage error, for malformed input (an unknown,
duplicate or missing key, a value its key's converter rejects, such as
text that is not a number, a non-integral count or a misspelt boolean,
contradictory options, or an output file that cannot be opened); 3
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
from contextlib import nullcontext
from typing import IO, Callable, NamedTuple

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


# ---------------------------------------------------------------------------
# converters: raw text -> typed value; a ValueError says what was expected

def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError("a number") from None


def _integer(text: str) -> int:
    """An integer; an integral float such as 20.0 or 1e3 counts as one."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value.is_integer():
        raise ValueError("an integer")
    return int(value)


def _at_least(low: int) -> Callable[[str], int]:
    def convert(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise ValueError(f"an integer >= {low}")
        return value
    return convert


def _floats(n: int) -> Callable[[str], tuple[float, ...]]:
    def convert(text: str) -> tuple[float, ...]:
        try:
            values = tuple(float(part) for part in text.split(","))
        except ValueError:
            values = ()
        if len(values) != n:
            raise ValueError(f"{n} comma-separated numbers")
        return values
    return convert


def _choice(*choices, parse: Callable[[str], object] = str) -> Callable[[str], object]:
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value not in choices:
            raise ValueError("one of " + ", ".join(map(str, choices)))
        return value
    return convert


def _boolean(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("true or false")
    return text.lower() == "true"


def _path(text: str) -> str:
    if not text:
        raise ValueError("a file path")
    return text


def _suites(text: str) -> list[str]:
    from . import verify as vf  # the suites load only when asked for

    names = [name.strip() for name in text.split(",")]
    if not set(names) <= set(vf.available_suites()):
        raise ValueError("suite names from " + ", ".join(vf.available_suites()))
    return names


def _shown(value) -> str:
    """A default as its text would be written: 1,0,0 for (1.0, 0.0, 0.0)."""
    if isinstance(value, tuple):
        return ",".join(map(_shown, value))
    return f"{value:g}" if isinstance(value, float) else str(value)


class Key(NamedTuple):
    """One option of one command: its flag `--name` and config key `name`."""

    name: str
    convert: Callable[[str], object]
    help: str
    default: object = None
    required: bool = False
    many: bool = False  # a repeatable flag; the value lists one item per use

    def typed(self, raw):
        """The value of raw text, a list of texts (`many`) or a bare flag's True."""
        if raw is True:
            return True
        values = []
        for text in raw if self.many else [raw]:
            try:
                values.append(self.convert(text))
            except ValueError as exc:
                raise UsageError(f"{self.name} must be {exc}, got {text!r}") from None
        return values if self.many else values[0]


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


def collect_options(command: str, config: dict[str, str],
                    flags: dict[str, object] | None = None) -> dict[str, object]:
    """Every key of `command`, typed: flags over config text over defaults.

    A config key is a key name, optionally prefixed by the command
    (`flow.dt`); `command = <name>` must name the invoked command.
    Unknown, duplicate and missing required keys are rejected by name.
    """
    keys = {key.name: key for key in COMMANDS[command].keys}
    raw: dict[str, object] = {}
    for name, text in config.items():
        if name == "command":
            if text != command:
                raise UsageError(
                    f"config file is for command {text!r}, invoked {command!r}")
            continue
        key = keys.get(name.removeprefix(command + "."))
        if key is None:
            raise UsageError(f"unknown config key {name!r} for command {command!r}")
        if key.name in raw:
            raise UsageError(f"duplicate config key {key.name!r}")
        raw[key.name] = [text] if key.many else text
    raw.update((name, value) for name, value in (flags or {}).items() if value is not None)
    options: dict[str, object] = {}
    for key in keys.values():
        if key.name in raw:
            options[key.name] = key.typed(raw[key.name])
        elif key.required:
            raise UsageError(f"missing required key {key.name!r} for the {command} command")
        else:
            options[key.name] = key.default
    return options


def _require_finite(values: tuple[float, ...], key: str) -> None:
    """A domain error (exit 3) unless every value is finite."""
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"{key} must be finite, got {_vec_str(values)}")


# ---------------------------------------------------------------------------
# float / output formatting

def fmt(x: float) -> str:
    """Shortest round-trip decimal representation of a 64-bit float."""
    return repr(float(x))


def _open_output(path: str) -> IO[str]:
    try:
        return open(path, "w", encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise UsageError(f"cannot write output file: {exc}") from exc


def _write_report(report: dict, path: str | None, fmt_name: str) -> None:
    if path is None:
        return
    with _open_output(path) as fh:
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
    modes = [k for k in ("frame", "space_form", "jet_from_chart") if options[k] is not None]
    if len(modes) != 1:
        raise UsageError(
            "provide exactly one of --frame, --space-form, --jet-from-chart")
    mode = modes[0]
    meta: dict = {"input_mode": mode}
    if mode == "frame":
        a, b, c = options["frame"]
        _require_finite((a, b, c), "frame")
        meta["frame"] = [a, b, c]
        return cv.Riemann3.from_frame(a, b, c), cv.SymTensor3.identity(), meta

    name = options[mode]
    kappa = options["kappa"]
    if kappa is None:
        kappa = 1.0 if name == "sphere" else -1.0
    _require_finite((kappa,), "kappa")
    if name == "sphere" and kappa <= 0.0:
        raise UsageError("kappa must be positive for the sphere")
    if name == "hyperbolic" and kappa >= 0.0:
        raise UsageError("kappa must be negative for the hyperbolic space form")
    meta.update({"space_form": name, "kappa": kappa})

    if mode == "space_form":
        g = cv.SymTensor3.identity()
        return cv.Riemann3.space_form(kappa, g), g, meta

    point = np.array(options["point"])
    fd_step, richardson = options["fd_step"], options["richardson"]
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
            "determinant_form": list(forms.determinant_form.components),
            "determinant_unit": forms.determinant_unit,
            "determinant_singular": forms.determinant_singular,
            "max_pairwise_dev": forms.max_pairwise_dev,
        },
        "h_eigenvalues": [float(v) for v in h_eigs],
    }

    print(f"g: {_vec_str(g.components)}", file=stdout)
    print(f"Ric: {_vec_str(ric.components)}", file=stdout)
    print(f"R: {fmt(scalar)}", file=stdout)
    print(f"P: {_vec_str(p.components)}", file=stdout)
    print(f"frame a,b,c: {fmt(frame.a)},{fmt(frame.b)},{fmt(frame.c)}", file=stdout)
    print(f"h (contraction): {_vec_str(h.components)}", file=stdout)
    print(f"h (mu form): {_vec_str(forms.mu_form.components)}", file=stdout)
    print(f"h (determinant): {_vec_str(forms.determinant_form.components)}", file=stdout)
    print(f"h max pairwise deviation: {fmt(forms.max_pairwise_dev)}", file=stdout)
    print(f"h eigenvalues: {_vec_str(sorted(report['h_eigenvalues'], reverse=True))}",
          file=stdout)

    _write_report(report, options["output"], options["format"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# symbol command

def _symbol_p(options: dict) -> cv.SymTensor3:
    if (options["frame"] is None) == (options["p"] is None):
        raise UsageError("provide exactly one of --frame or --p")
    if options["frame"] is not None:
        a, b, c = options["frame"]
        return cv.SymTensor3(np.array([a, 0.0, 0.0, b, c, 0.0]), "upper")
    return cv.SymTensor3(np.array(options["p"]), "upper")


def cmd_symbol(options: dict, stdout: IO[str]) -> int:
    p = _symbol_p(options)
    rho, case = options["rho"], options["case"]
    xis = [np.array(xi) for xi in options["xi"]]

    # everything that can reject the input runs before the first line is printed
    report_obj = sb.parabolicity(p, cv.SymTensor3.identity(), rho, case=case,
                                 mode=options["mode"],
                                 direction_samples=options["direction_samples"])
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
    _write_report(report, options["output"], options["format"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# flow command

def build_flow_params(options: dict) -> fl.FlowParams:
    """FlowParams from typed flow options; FlowParams checks the values
    (DomainError, exit 3)."""
    return fl.FlowParams(rho=options["rho"], epsilon=options["epsilon"],
                         lam=options["lambda"], dt=options["dt"],
                         t_end=options["t_end"], unsafe_signs=options["unsafe_signs"])


def _trace_table(trace: fl.FlowTrace) -> tuple[list[str], list[list]]:
    """Column names and one row per record: t, c, R, h_eig, parab_margin,
    events, plus c_closed_form (None where it is undefined) when rho = 0."""
    params = trace.params
    columns = ["t", "c", "R", "h_eig", "parab_margin", "events"]
    rows = [[r.t, r.c, r.scalar_curvature, r.h_eigenvalue, r.parabolicity_margin,
             list(r.events)] for r in trace.records]
    if params.rho == 0.0:
        columns.append("c_closed_form")
        for row in rows:
            try:
                row.append(fl.closed_form_c(row[0], params))
            except XcflowError:
                row.append(None)
    return columns, rows


def _csv_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, list):
        return ";".join(value)
    return fmt(value)


def write_trace_csv(fh: IO[str], trace: fl.FlowTrace) -> None:
    """Pinned CSV trace format: version comment, then
    t,c,R,h_eig,parab_margin,events (plus c_closed_form when rho = 0)."""
    columns, rows = _trace_table(trace)
    fh.write(f"# xcflow v{__version__}\n")
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(map(_csv_cell, row)) + "\n")


def _trace_dict(trace: fl.FlowTrace, diagnostics: dict | None = None) -> dict:
    params = trace.params
    columns, rows = _trace_table(trace)
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
        "records": [dict(zip(columns, row)) for row in rows],
    }
    if diagnostics:
        out["diagnostics"] = diagnostics
    return out


def write_trace_json(fh: IO[str], trace: fl.FlowTrace,
                     diagnostics: dict | None = None) -> None:
    json.dump(_trace_dict(trace, diagnostics), fh, indent=2)
    fh.write("\n")


def cmd_flow(options: dict, stdout: IO[str]) -> int:
    params = build_flow_params(options)
    trace = fl.integrate(params, record_every=options["record_every"],
                         halt_on_parabolicity_loss=options["halt_on_parabolicity_loss"])

    diagnostics = None
    if options["paper_ode"]:
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

    output = options["output"]
    with nullcontext(stdout) if output is None else _open_output(output) as fh:
        if options["format"] == "csv":
            write_trace_csv(fh, trace)
        else:
            write_trace_json(fh, trace, diagnostics)
    if output is not None:
        print(f"status: {trace.status}", file=stdout)
        if trace.extinction_time is not None:
            print(f"extinction_time: {fmt(trace.extinction_time)}", file=stdout)
        print(f"wrote {output}", file=stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify command

def cmd_verify(options: dict, stdout: IO[str]) -> int:
    from . import verify as vf  # the suites load only when asked for

    suites = None if options["suite"] is None else sum(options["suite"], [])
    seed = vf.DEFAULT_SEED if options["seed"] is None else options["seed"]
    summary = vf.run_checks(suites=suites, cases=options["cases"], seed=seed)
    for result in summary.results:
        print(result.line(), file=stdout)
    n_failed = sum(not r.passed for r in summary.results)
    print(f"SUMMARY: {len(summary.results) - n_failed}/{len(summary.results)} "
          f"checks passed (seed {summary.seed})", file=stdout)

    _write_report(summary.to_dict(), options["output"], options["format"])
    return EXIT_OK if summary.all_passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# the option table, parser and dispatch

class Command(NamedTuple):
    run: Callable[[dict, IO[str]], int]
    help: str
    keys: tuple[Key, ...]


_OUTPUT = Key("output", _path, "write the report, trace or summary to this path")
_REPORT_FORMAT = Key("format", _choice("json", "csv"),
                     "report file format: json or csv", "json")

COMMANDS = {
    "curvature": Command(cmd_curvature, "pointwise curvature and cross curvature report", (
        Key("frame", _floats(3), "sectional curvatures a,b,c"),
        Key("space_form", _choice("sphere", "hyperbolic"),
            "named constant-curvature geometry: sphere or hyperbolic"),
        Key("kappa", _number, "sectional curvature of the space form "
            "(default 1 for the sphere, -1 for the hyperbolic space form)"),
        Key("jet_from_chart", _choice("sphere", "hyperbolic"),
            "finite-difference jet of the conformal chart: sphere or hyperbolic"),
        Key("point", _floats(3), "chart point x,y,z", (0.0, 0.0, 0.0)),
        Key("fd_step", _number, "finite-difference step", 1e-3),
        Key("richardson", _boolean, "refine the jet to fourth order", False),
        _OUTPUT, _REPORT_FORMAT)),
    "symbol": Command(cmd_symbol, "symbol matrices, spectra, parabolicity", (
        Key("frame", _floats(3), "P eigenvalues a,b,c (orthonormal frame)"),
        Key("p", _floats(6), "P components p11,p12,p13,p22,p33,p23"),
        Key("rho", _number, "scalar-curvature coupling", 0.0),
        Key("xi", _floats(3), "direction x,y,z, repeatable",
            ((1.0, 0.0, 0.0),), many=True),
        Key("case", _choice("positive", "negative"),
            "curvature sign case: positive or negative", "positive"),
        Key("mode", _choice("frame", "all_directions"),
            "threshold reading: frame or all_directions",
            "all_directions"),
        Key("direction_samples", _integer,
            "Fibonacci lattice directions swept with P's three eigenvectors, at most "
            f"{sb.MAX_DIRECTION_SAMPLES}; the verdict uses the exact minimum over all "
            "directions whatever the count",
            sb.DEFAULT_DIRECTION_SAMPLES),
        _OUTPUT, _REPORT_FORMAT)),
    "flow": Command(cmd_flow, "integrate the scale-factor flow", (
        Key("rho", _number, "scalar-curvature coupling", required=True),
        Key("epsilon", _choice(1, -1, parse=_integer),
            "sectional-curvature sign of the initial metric: 1 or -1", required=True),
        Key("lambda", _number, "Einstein constant of the initial metric", required=True),
        Key("dt", _number, f"integration step; t_end / dt at most {fl.MAX_STEPS}",
            required=True),
        Key("t_end", _number, "final time", required=True),
        Key("record_every", _integer, "record every N steps", 100),
        Key("unsafe_signs", _boolean, "allow epsilon/lambda sign mismatch", False),
        Key("paper_ode", _boolean, "also evaluate the originally published reduced "
            "ODE and report its discrepancy", False),
        Key("halt_on_parabolicity_loss", _boolean,
            "stop when the margin turns negative", False),
        _OUTPUT,
        Key("format", _choice("csv", "json"), "trace format: csv or json",
            "csv"))),
    "verify": Command(cmd_verify, "run the invariant verification suites", (
        Key("suite", _suites, "restrict to suites (repeatable or comma-separated): "
            "tensor_core, symbol, flow, cli", many=True),
        Key("cases", _at_least(1), "override per-check case counts"),
        Key("seed", _at_least(0), "seed for the randomized checks "
            "(default: the fixed seed the summary line names)"),
        _OUTPUT,
        Key("format", _choice("json"), "summary file format: json only", "json"))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xcflow",
        description="Cross curvature tensors, symbol parabolicity, and "
                    "Einstein-data flow integration on 3-manifolds.")
    parser.add_argument("--version", action="version", version=f"xcflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--config", help="key-value config file; flags override it")
        for key in command.keys:
            # every flag keeps its raw text for the key's converter
            action = ("store_true" if key.convert is _boolean
                      else "append" if key.many else "store")
            shown = (f" (default {_shown(key.default)})"
                     if key.default is not None and action != "store_true" else "")
            sp.add_argument("--" + key.name.replace("_", "-"), dest=key.name,
                            action=action, default=None, help=key.help + shown)
    return parser


def _reads_as_number(word: str) -> bool:
    try:
        float(word.split(",", 1)[0])
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """`--key -1e100` as `--key=-1e100`, for every flag that takes a value.

    argparse reads a separate word that starts with '-' as an option unless
    it is a plain negative integer or decimal (-2, -0.5), so -1e100, -1e-3,
    -inf or -1,0,0 after a flag would leave the flag without its value.  A
    word that starts with '-' and whose first comma-separated part reads as
    a number is attached to the value-taking flag before it.
    """
    command = next((word for word in argv if word in COMMANDS), None)
    if command is None:
        return list(argv)
    takes_value = {"--" + key.name.replace("_", "-")
                   for key in COMMANDS[command].keys if key.convert is not _boolean}
    joined: list[str] = []
    for word in argv:
        if (joined and joined[-1] in takes_value and word.startswith("-")
                and _reads_as_number(word)):
            joined[-1] += "=" + word
        else:
            joined.append(word)
    return joined


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _join_negative_values(sys.argv[1:] if argv is None else argv))
    command = COMMANDS[args.command]
    try:
        options = collect_options(
            args.command, read_config_file(args.config) if args.config else {},
            {key.name: getattr(args, key.name) for key in command.keys})
        return command.run(options, sys.stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except XcflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
