import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from xcflow import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("argv", [
    ["--frame=1,2,3", "--rho=nan"],
    ["--frame=1,2,3", "--rho=inf"],
    ["--frame=1,2,3", "--rho=-inf"],
    ["--frame=1,2,3", "--direction-samples=-3"],
    ["--frame=1,2,3", "--direction-samples=0"],
    ["--p=nan,0,0,1,1,0"],
    ["--frame=1,2,3", "--xi=0,0,0"],
    ["--p=1,0.1,0,2,3,0.2", "--rho=1e308"],  # the symbol entries overflow
    ["--frame=1,2,3", "--direction-samples=1e9"],  # refused before the lattice is built
])
def test_symbol_bad_input_exits_3_before_printing(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow ends in the error line alone
        assert cli.main(["symbol", *argv]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_symbol_nan_rho_process_has_no_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "xcflow", "symbol", "--frame=1,2,3", "--rho=nan"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, check=False)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_symbol_config_non_numeric_rho_is_usage_error(tmp_path, capsys):
    config = tmp_path / "sym.cfg"
    config.write_text("symbol.frame = 1,2,3\nsymbol.rho = abc\n", encoding="utf-8")
    assert cli.main(["symbol", "--config", str(config)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err


def test_symbol_json_reports_spectral_margin(tmp_path, capsys):
    path = tmp_path / "sym.json"
    assert cli.main(["symbol", "--frame=1,2,3", "--rho=0.1", "--output", str(path)]) == 0
    out, _ = capsys.readouterr()
    block = json.loads(path.read_text(encoding="utf-8"))["parabolicity"]
    # positive case, all_directions, rho >= 0: the two margins coincide
    assert block["spectral_margin"] == block["margin"] == pytest.approx(0.15)
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "xi", "raw", "deturck", "threshold", "margin", "verdict"]


def test_cli_and_verify_import_without_scipy():
    code = ("import sys, xcflow.cli, xcflow.verify; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=True)
    assert proc.stdout.strip() == "[]"


FLOW_ARGS = ["--rho=0", "--epsilon=1", "--lambda=2", "--dt=1e-3", "--t-end=0.1"]


@pytest.mark.parametrize("override", [
    ["--rho=nan"],
    ["--t-end=inf"],
    ["--dt=-1"],
    ["--lambda=-2"],            # sign mismatch without --unsafe-signs
    ["--record-every=0"],
    ["--lambda=1e200"],         # the record at the default c_min overflows
    ["--unsafe-signs", "--paper-ode", "--lambda=0"],    # the published ODE divides by lambda
    ["--unsafe-signs", "--paper-ode", "--epsilon=-1", "--lambda=1e100"],  # ... squares it
    ["--dt=5e-324"],            # t_end / dt, the step count, overflows
])
def test_flow_bad_values_exit_3_before_printing(override, capsys):
    assert cli.main(["flow", *FLOW_ARGS, *override]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_flow_step_count_above_the_bound_never_starts_the_loop(monkeypatch, capsys):
    def loop(*args, **kwargs):
        raise AssertionError("integrate was called")

    monkeypatch.setattr(cli.fl, "integrate", loop)
    argv = ["flow", "--rho", "0", "--epsilon", "1", "--lambda", "1e-3", "--dt", "1e-300",
            "--t-end", "1"]
    assert cli.main(argv) == cli.EXIT_NUMERIC
    _, err = capsys.readouterr()
    assert err.startswith("error: dt is too small for t_end") and "steps" in err


# sha256 of the JSON trace, recording every step, taken from the loop that
# called `_rk4_step` and `_record` each step: the flat loop must match it byte
# for byte
PINNED_FLOW_TRACES = [
    (["--rho", "0", "--epsilon", "1", "--lambda", "1", "--dt", "1e-3", "--t-end", "2"],
     "extinct", "fc5c39c14c993b5345d2e6f936d41322d1023a35a6199e613278f829cc4b2e54"),
    (["--rho", "0.16666666666666666", "--epsilon", "1", "--lambda", "2", "--dt", "1e-3",
      "--t-end", "1"],
     "completed", "8fec3e44cd2100d6c1f718c5b5e6b8878af5d296b085db597bcfc045f0fdca62"),
    (["--rho", "0.1", "--epsilon", "1", "--lambda", "1", "--dt", "1e-3", "--t-end", "20",
      "--halt-on-parabolicity-loss"],
     "parabolicity_lost", "46e175d93628ae2dec335d602d61dda24b961a901caa13d9c01a4b957c6ab679"),
]


@pytest.mark.parametrize("args,status,digest", PINNED_FLOW_TRACES,
                         ids=[status for _, status, _ in PINNED_FLOW_TRACES])
def test_flow_json_trace_is_pinned(args, status, digest, tmp_path, capsys):
    path = tmp_path / "trace.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["flow", *args, "--record-every", "1", "--format", "json",
                         "--output", str(path)]) == cli.EXIT_OK
    out, _ = capsys.readouterr()
    assert f"status: {status}\n" in out
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command,lines", [
    ("symbol", ["symbol.frame = 1,2,3", "symbol.direction_samples = 2.5"]),
    ("flow", ["flow.rho = 0", "flow.epsilon = 1", "flow.lambda = 2", "flow.dt = 1e-3",
              "flow.t_end = 0.1", "flow.record_every = 2.7"]),
    ("flow", ["flow.rho = 0", "flow.epsilon = 1.5", "flow.lambda = 2", "flow.dt = 1e-3",
              "flow.t_end = 0.1"]),
    ("flow", ["flow.rho = abc", "flow.epsilon = 1", "flow.lambda = 2", "flow.dt = 1e-3",
              "flow.t_end = 0.1"]),
    ("verify", ["verify.cases = 1.5"]),
    ("verify", ["seed = true"]),
])
def test_config_malformed_numbers_are_usage_errors(command, lines, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main([command, "--config", str(config)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: ") and "Traceback" not in err


def test_config_integral_float_counts_as_integer(tmp_path, capsys):
    config = tmp_path / "sym.cfg"
    config.write_text("symbol.frame = 1,2,3\nsymbol.direction_samples = 20.0\n",
                      encoding="utf-8")
    path = tmp_path / "sym.json"
    assert cli.main(["symbol", "--config", str(config), "--output", str(path)]) == 0
    capsys.readouterr()
    assert json.loads(path.read_text(encoding="utf-8"))["parabolicity"]["direction_samples"] == 20


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_parser_dests_match_command_keys(command):
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    dests = {a.dest for a in subparsers.choices[command]._actions}
    names = [key.name for key in cli.COMMANDS[command].keys]
    assert len(names) == len(set(names))
    assert dests - {"help", "config"} == set(names)


def test_lambda_flag_overrides_config(tmp_path, capsys):
    config = tmp_path / "flow.cfg"
    config.write_text("flow.rho = 0\nflow.epsilon = 1\nflow.lambda = 1\nflow.dt = 1e-3\n"
                      "flow.t_end = 0.01\n", encoding="utf-8")
    path = tmp_path / "trace.json"
    argv = ["flow", "--config", str(config), "--lambda=2", "--output", str(path),
            "--format", "json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert json.loads(path.read_text(encoding="utf-8"))["params"]["lambda"] == 2.0


@pytest.mark.parametrize("argv, overflows", [
    (["--frame=1,nan,2"], False),
    (["--frame=-inf,1,2"], False),
    (["--space-form=sphere", "--kappa=nan"], False),
    (["--space-form=sphere", "--kappa=inf"], False),
    (["--space-form=hyperbolic", "--kappa=nan"], False),
    (["--jet-from-chart=sphere", "--kappa=nan"], False),
    (["--frame=1e308,1e308,-1e308"], True),
    (["--space-form=sphere", "--kappa=1e300"], True),
    (["--space-form=sphere", "--kappa=1e200"], True),
    (["--frame=1e200,1e200,-1e200"], True),
    (["--jet-from-chart=sphere", "--kappa=1e200"], True),
    (["--jet-from-chart=sphere", "--fd-step=1e300"], True),
])
def test_curvature_non_finite_values_exit_3_naming_finiteness(argv, overflows, capsys):
    with warnings.catch_warnings():
        # no numpy warning either way: a non-finite input is rejected before
        # any numpy work, a finite one that overflows by the tensor checks
        warnings.simplefilter("error")
        assert cli.main(["curvature", *argv]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "finite" in err and "not symmetric" not in err
    if not overflows:
        assert "must be finite, got" in err  # names the option and its value


_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 1e308, -1e308, 5e-324, float("nan"), float("inf"), float("-inf")])


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.floats() | _EDGE_FLOATS] * 3))
def test_curvature_frame_any_floats_exit_0_or_3(frame):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(["curvature", "--frame=" + ",".join(repr(v) for v in frame)])
    assert code in (cli.EXIT_OK, cli.EXIT_NUMERIC)
    assert "Traceback" not in err.getvalue()
    if code == cli.EXIT_NUMERIC:
        assert out.getvalue() == ""
    if not all(math.isfinite(v) for v in frame):
        assert code == cli.EXIT_NUMERIC


@pytest.mark.parametrize("frame, singular", [
    ("1e102,1e102,1e103", False),   # ||P||^3 overflows; det(P / ||P||) does not
    ("1e-150,2e-150,3e-150", False),  # det P underflows to 0; det(P / ||P||) does not
    ("1,2,3", False),
    ("0,1,2", True),
])
def test_curvature_determinant_form_at_every_scale(frame, singular, tmp_path, capsys):
    path = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["curvature", f"--frame={frame}", "--output", str(path),
                         "--format", "json"])
    assert code == cli.EXIT_OK
    out, _ = capsys.readouterr()
    full = json.loads(path.read_text(encoding="utf-8"))
    report = full["cross_curvature"]
    assert report["determinant_singular"] is singular
    # the flag thresholds the normalised determinant det(P / ||P||_F), reported next to it
    assert (abs(report["determinant_unit"]) <= 1e-12) is singular
    # present for every P, within 1e-12 det(g) ||P||_F^2 of the contraction form
    p = full["einstein_raised"]
    p_norm = math.hypot(*p, p[1], p[2], p[5])
    dev = max(abs(x - y) for x, y in zip(report["determinant_form"],
                                         report["contraction_form"]))
    assert dev <= 1e-12 * p_norm * p_norm
    assert "unavailable" not in out and "warning" not in out


@pytest.mark.parametrize("frame, h_eigenvalues", [
    ("1e17,1,1", [1.0, 1e17, 1e17]),
    ("1e60,1,1", [1.0, 1e60, 1e60]),
    ("1,2,1e90", [2.0, 1e90, 2e90]),
])
def test_curvature_keeps_small_curvatures_next_to_large(frame, h_eigenvalues, tmp_path):
    # P is the volume-form value, which the trace form's cancellation
    # cannot reach, so h = (bc, ac, ab) comes out exact
    path = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["curvature", f"--frame={frame}", "--output", str(path),
                         "--format", "json"])
    assert code == cli.EXIT_OK
    assert json.loads(path.read_text(encoding="utf-8"))["h_eigenvalues"] == h_eigenvalues


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_curvature_non_finite_fd_step_is_named(step, capsys):
    code = cli.main(["curvature", "--jet-from-chart=sphere", f"--fd-step={step}"])
    assert code == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == "" and "finite-difference step must be finite" in err


@pytest.mark.parametrize("argv, message", [
    # g = I / (1 + 1e120 / 4)^2 is positive definite; only det g underflows
    (["--jet-from-chart=sphere", "--point=1e60,0,0"],
     "metric determinant underflows: g is positive definite but of scale 1.6e-239"),
    # the point is inside the chart; the step-1e-3 stencil is not
    (["--jet-from-chart=hyperbolic", "--point=1.9999999,0,0"],
     "the finite-difference stencil leaves the metric's domain: its sample at "
     "2.0009999,0,0 (fd_step 0.001)"),
])
def test_curvature_chart_edge_cases_name_their_cause(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["curvature", *argv]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert message in err and "not positive definite" not in err


def test_symbol_at_the_threshold_runs_under_warnings_as_errors():
    # at rho = q / 4 the structural zeros meet an eigenvalue of B; the
    # spectra come from B, so no imaginary-residue warning is raised
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "xcflow", "symbol", "--frame", "1,1,1",
         "--rho", "0.25", "--xi", "1,1,1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "raw: 0.0,0.0,0.0,0.0," in proc.stdout
    assert "deturck: 0.0,1.0,1.0,1.0," in proc.stdout


def _spectrum_lines(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["symbol", *argv]) == cli.EXIT_OK
    out, _ = capsys.readouterr()
    return [line for line in out.splitlines() if line.startswith(("raw:", "deturck:"))]


@pytest.mark.parametrize("xi", ["1e200,1e200,0", "1e-200,1e-200,0"])
def test_symbol_covector_scale_does_not_change_the_spectrum(xi, capsys):
    want = _spectrum_lines(["--frame=1,2,3", "--xi=1,1,0"], capsys)
    assert _spectrum_lines(["--frame=1,2,3", f"--xi={xi}"], capsys) == want


def _run_main(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the flag itself
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


_FRAME = ["--frame=1,2,3"]
_FLOW_NO_EPSILON = ["--rho=0", "--lambda=2", "--dt=1e-3", "--t-end=0.1"]
_FLOW_NO_LAMBDA = ["--rho=0", "--epsilon=-1", "--dt=1e-3", "--t-end=0.01"]

# (command, flags completing the run, key, value, exit code by either route)
PROBES = [
    ("flow", FLOW_ARGS, "unsafe_signs", "no", cli.EXIT_USAGE),
    ("flow", FLOW_ARGS, "halt_on_parabolicity_loss", "maybe", cli.EXIT_USAGE),
    ("curvature", ["--jet-from-chart=sphere"], "richardson", "off", cli.EXIT_USAGE),
    ("curvature", [], "frame", "true,2,3", cli.EXIT_USAGE),
    ("symbol", [], "frame", "true,2,3", cli.EXIT_USAGE),
    ("verify", [], "suite", "1", cli.EXIT_USAGE),
    ("flow", _FLOW_NO_EPSILON, "epsilon", "2", cli.EXIT_USAGE),
    ("symbol", _FRAME, "case", "foo", cli.EXIT_USAGE),
    ("symbol", _FRAME, "mode", "foo", cli.EXIT_USAGE),
    ("symbol", _FRAME, "direction_samples", "20.0", cli.EXIT_OK),
    ("curvature", _FRAME, "output", "3", cli.EXIT_OK),
    ("curvature", _FRAME, "output", "a,b", cli.EXIT_OK),
    ("curvature", _FRAME, "output", "1", cli.EXIT_OK),
    ("curvature", [*_FRAME, "--output=report"], "format", "xml", cli.EXIT_USAGE),
    ("verify", [], "format", "csv", cli.EXIT_USAGE),
    ("curvature", _FRAME, "seed", "1", cli.EXIT_USAGE),
    ("symbol", _FRAME, "seed", "1", cli.EXIT_USAGE),
    ("flow", FLOW_ARGS, "seed", "1", cli.EXIT_USAGE),
    ("verify", [], "seed", "-1", cli.EXIT_USAGE),
    # negative values that argparse alone would read as options
    ("flow", _FLOW_NO_LAMBDA, "lambda", "-1e100", cli.EXIT_OK),
    ("flow", _FLOW_NO_LAMBDA, "lambda", "-1e-3", cli.EXIT_OK),
    ("symbol", _FRAME, "rho", "-inf", cli.EXIT_NUMERIC),
    ("symbol", [], "frame", "-1e-3,2,3", cli.EXIT_OK),
]


@pytest.mark.parametrize("command, base, key, value, expected", PROBES,
                         ids=[f"{p[0]}-{p[2]}={p[3]}" for p in PROBES])
def test_flag_and_config_line_give_the_same_result(command, base, key, value, expected,
                                                   tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    plain = key in ("output", "format", "seed")
    (tmp_path / "run.cfg").write_text(
        f"{key} = {value}\n" if plain else f"{command}.{key} = {value}\n", encoding="utf-8")
    flag = "--" + key.replace("_", "-")
    routes = [[f"{flag}={value}"], ["--config", "run.cfg"]]
    if not any(k.name == key and k.convert is cli._boolean for k in cli.COMMANDS[command].keys):
        routes.append([flag, value])  # the value as a separate word
    results = []
    for extra in routes:
        code, out, err = _run_main([command, *base, *extra], capsys)
        assert "Traceback" not in err
        if code == cli.EXIT_USAGE:
            assert key in err or key.replace("_", "-") in err
        written = None
        if key == "output":
            written = (tmp_path / value).read_text(encoding="utf-8")
            (tmp_path / value).unlink()
        results.append((code, out, written))
    assert all(result == results[0] for result in results)
    assert results[0][0] == expected


_WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyzEFT_", min_size=1, max_size=8)
_SCALAR_TEXT = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    (st.floats() | _EDGE_FLOATS).map(repr),
    _WORDS,
    st.just(""),
    st.sampled_from(["true", "False", "no", "2.5", "20.0"]),
)
_VALUE_TEXT = _SCALAR_TEXT | st.lists(_SCALAR_TEXT, min_size=2, max_size=7).map(",".join)
# text that no flow step or direction count accepts as a positive size
_NOT_A_SIZE = _WORDS | st.sampled_from(["", "0", "-1", "-0.0", "2.5", "nan", "inf", "-inf",
                                        "-1e308", "1,2"])
# well-formed values of every kind, edge floats included; each key draws
# from the ones its converter accepts, so that most files reach the library
_CANDIDATES = [
    "0", "1", "-1", "2", "3", "0.5", "-0.25", "1e-3", "20.0", "1e308", "-1e308", "5e-324",
    "nan", "inf", "-inf", "-0.0", "1,2,3", "0,0,0", "1,0,0", "0,1,1", "nan,1,2", "1e308,1,1",
    "0.2,5,5", "-1,2,3", "1,0.1,0,2,3,0.2", "1,0,0,2,3,0", "1,2,3,4,5,6", "positive",
    "negative", "frame", "all_directions", "csv", "json", "true", "FALSE", "report", "a,b",
]


def _accepts(key, text: str) -> bool:
    try:
        key.typed([text] if key.many else text)
    except cli.UsageError:
        return False
    return True


def _well_formed(key):
    texts = st.sampled_from([t for t in _CANDIDATES if _accepts(key, t)])
    return (texts | (st.floats() | _EDGE_FLOATS).map(repr)) if _accepts(key, "0.5") else texts


def _sized_values(data, command: str) -> dict[str, str]:
    """Text for the keys whose values set the run's size: at most 10^4 flow
    steps, at most 400 lattice directions, or a value that is rejected."""
    def either(valid: str) -> str:
        return data.draw(_NOT_A_SIZE) if data.draw(st.integers(0, 4)) == 4 else valid

    if command == "symbol":
        return {"direction_samples": either(str(data.draw(st.integers(-3, 400))))}
    t_end = data.draw(st.floats(1e-6, 10.0))
    dt = t_end / data.draw(st.integers(1, 10**4))
    return {"dt": either(repr(dt)), "t_end": either(repr(t_end))}


@pytest.mark.parametrize("command", ["symbol", "flow"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_random_config_files_end_in_exit_0_2_or_3(command, data):
    keys = cli.COMMANDS[command].keys
    names = [key.name for key in keys]
    omitted = data.draw(st.sets(st.sampled_from(names), max_size=1))
    if command == "symbol":  # P is given by exactly one of the two keys
        omitted.add(data.draw(st.sampled_from(["p", "frame"])))
    sized = _sized_values(data, command)
    malformed = data.draw(st.sets(st.sampled_from(sorted(set(names) - set(sized))),
                                  max_size=1))
    lines = []
    for key in keys:
        if key.name in omitted:
            continue
        if key.name in sized:
            value = sized[key.name]
        elif key.name in malformed:
            value = data.draw(_VALUE_TEXT)
        else:
            value = data.draw(_well_formed(key))
        prefix = data.draw(st.sampled_from(["", f"{command}."]))
        lines.append(f"{prefix}{key.name} = {value}")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # a drawn `output` value is a file name in here
        try:
            with open("run.cfg", "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = cli.main([command, "--config", "run.cfg"])
        finally:
            os.chdir(cwd)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NUMERIC), (lines, err.getvalue())
