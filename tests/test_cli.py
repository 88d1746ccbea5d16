import hashlib
import importlib
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

import xcflow
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
    ["--frame=1,2,3", "--direction-samples=1e9"],  # above MAX_DIRECTION_SAMPLES
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
        "xi", "raw", "deturck", "threshold", "margin", "spectral_margin", "verdict"]
    assert f"spectral_margin: {block['spectral_margin']!r}" in out.splitlines()


def test_symbol_json_names_the_critical_direction_and_branch(tmp_path):
    # the command CI runs under warnings as errors; --direction-samples is only echoed
    path = tmp_path / "crit.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "xcflow", "symbol", "--frame", "0.2,5,5",
         "--rho", "0.051", "--direction-samples", "1", "--format", "json",
         "--output", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, check=False)
    assert proc.returncode == 0, proc.stderr
    block = json.loads(path.read_text(encoding="utf-8"))["parabolicity"]
    assert block["verdict"] == "not_parabolic"
    assert [abs(v) for v in block["critical_direction"]] == [1.0, 0.0, 0.0]
    assert block["deciding_branch"] == "q - 4 rho"


def test_cli_and_verify_import_without_scipy():
    code = ("import sys, xcflow.cli, xcflow.verify; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=True)
    assert proc.stdout.strip() == "[]"


def _python(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=True)


def test_import_xcflow_loads_no_numpy_and_no_submodule():
    code = ("import sys, xcflow\n"
            "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] in "
            "('xcflow', 'numpy'))\n"
            "print(loaded())\n"
            "assert xcflow.flow.integrate is xcflow.integrate\n"
            "print(loaded())")
    assert _python("-c", code).stdout.splitlines() == [
        "['xcflow']", "['xcflow', 'xcflow.bounds', 'xcflow.errors', 'xcflow.flow']"]


def test_verify_flow_and_cli_suites_never_load_numpy_random():
    # neither suite draws a number, so neither builds a generator, and
    # neither runs the exact reference, so `fractions` stays out too; neither
    # builds an array, so numpy and the symbol module stay out as well, also
    # when the suite name is refused (listing the suites imports verify)
    code = ("import contextlib, io, sys\n"
            "from xcflow import cli\n"
            "for suite in ('bogus', 'flow', 'cli'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        code = cli.main(['verify', '--suite', suite])\n"
            "    print(suite, code, *(m in sys.modules for m in "
            "('numpy', 'numpy.random', 'xcflow.symbol', 'fractions')))")
    assert _python("-c", code).stdout.splitlines() == [
        "bogus 2 False False False False", "flow 0 False False False False",
        "cli 0 False False False False"]


# `python -m xcflow` with numpy unimportable
_WITHOUT_NUMPY = ("-c", "import runpy, sys; sys.modules['numpy'] = None; "
                        "runpy.run_module('xcflow', run_name='__main__')")


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_flow_command_runs_without_numpy(fmt_name, tmp_path):
    argv = ["flow", "--rho", "0.1", "--epsilon", "1", "--lambda", "1", "--dt", "1e-2",
            "--t-end", "20", "--record-every", "3", "--paper-ode", "--format", fmt_name]
    path = tmp_path / f"trace.{fmt_name}"
    outputs = []
    for python in (("-m", "xcflow"), _WITHOUT_NUMPY):
        trace = _python(*python, *argv).stdout
        printed = _python(*python, *argv, "--output", str(path)).stdout
        outputs.append((trace, printed, path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert "parabolicity_lost" in outputs[0][0] and f"wrote {path}" in outputs[0][1]


def test_extinct_flow_command_runs_without_numpy():
    # the extinction bisection steps through einstein_rhs, on floats alone
    argv = ["flow", "--rho", "0", "--epsilon", "1", "--lambda", "1", "--dt", "1e-3",
            "--t-end", "2", "--record-every", "1", "--format", "json"]
    with_numpy = _python("-m", "xcflow", *argv).stdout
    assert _python(*_WITHOUT_NUMPY, *argv).stdout == with_numpy
    assert '"extinct"' in with_numpy


def test_verify_flow_and_cli_suites_run_without_numpy(tmp_path):
    # the same checks, verdicts, case counts and details with numpy blocked;
    # only the timings may differ
    argv = ["verify", "--suite", "flow,cli", "--format", "json"]
    outputs = []
    for python in (("-m", "xcflow"), _WITHOUT_NUMPY):
        path = tmp_path / f"verify{len(outputs)}.json"
        printed = _python(*python, *argv, "--output", str(path)).stdout
        report = json.loads(path.read_text())
        for check in report["checks"]:
            del check["elapsed_s"]
        outputs.append(([line.rsplit(", ", 1)[0] for line in printed.splitlines()], report))
    assert outputs[0] == outputs[1]
    lines, report = outputs[0]
    assert report["n_checks"] == 15 and report["all_passed"] is True
    assert lines[-1] == "SUMMARY: 15/15 checks passed (seed 1729)"


@pytest.mark.parametrize("argv", [
    ["--frame", "1,2,3"], ["--frame", "-1.5,2,0.7"], ["--space-form", "sphere"],
    ["--space-form", "hyperbolic", "--kappa", "-0.5"],
    ["--jet-from-chart", "sphere", "--point", "0.1,0.2,0.3"],
    ["--jet-from-chart", "hyperbolic", "--kappa", "-0.5", "--point", "0.3,-0.2,0.1"],
], ids=["frame", "signed_frame", "sphere", "hyperbolic", "chart_jet", "hyperbolic_chart_jet"])
def test_curvature_command_runs_without_numpy(argv, tmp_path):
    # the engine runs on Python floats: the same report with numpy blocked
    argv = ["curvature", *argv, "--format", "json"]
    outputs = []
    for python in (("-m", "xcflow"), _WITHOUT_NUMPY):
        path = tmp_path / f"report{len(outputs)}.json"
        outputs.append((_python(*python, *argv, "--output", str(path)).stdout, path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].startswith("g: ")


def test_curvature_command_loads_no_numpy():
    code = ("import sys; from xcflow.cli import main; "
            "main(['curvature', '--jet-from-chart', 'sphere', '--point', '0.1,0.2,0.3']); "
            "print('numpy' in sys.modules)")
    assert _python("-c", code).stdout.splitlines()[-1] == "False"


def test_curvature_command_loads_no_symbol_module():
    code = ("import sys; from xcflow.cli import main; "
            "code = main(['curvature', '--frame', '1,2,3']); "
            "print('modules', *(m for m in sorted(sys.modules) if m.startswith('xcflow.'))); "
            "sys.exit(code)")
    last = _python("-c", code).stdout.splitlines()[-1].split()
    assert last[0] == "modules" and "xcflow.curvature" in last
    assert "xcflow.symbol" not in last


@pytest.mark.parametrize("name", [name for name in xcflow.__all__ if name != "__version__"])
def test_every_export_is_its_home_modules_object(name):
    home = importlib.import_module(f"xcflow.{xcflow._HOME[name]}")
    value = getattr(xcflow, name)
    assert value is getattr(home, name)
    # the home module defines the name, not a re-export of it
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_namespace_lists_every_export_and_refuses_unknown_names():
    assert set(xcflow.__all__) <= set(dir(xcflow))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(xcflow, "no_such_name")


def test_symbol_csv_has_one_key_and_one_value_per_row(tmp_path, capsys):
    path = tmp_path / "s.csv"
    assert cli.main(["symbol", "--frame", "1,2,3", "--xi", "1,1,0", "--xi", "0,0,1",
                     "--output", str(path), "--format", "csv"]) == cli.EXIT_OK
    capsys.readouterr()
    comment, *lines = path.read_text(encoding="utf-8").splitlines()
    assert comment.startswith("# xcflow v")
    rows = dict(line.split(",") for line in lines)  # exactly one comma per row
    assert len(rows) == len(lines)
    spectrum = [float(v) for v in rows["directions.1.raw_spectrum"].split(";")]
    assert spectrum[:3] == [0.0, 0.0, 0.0] and spectrum[3:] == pytest.approx([3.0] * 3)
    assert len(rows["directions.0.raw_matrix"].split(";")) == 36
    assert rows["directions.0.xi"] == "1.0;1.0;0.0"


def test_each_xi_assembles_its_symbol_once(monkeypatch, capsys):
    # direction_report builds the raw and the gauge-fixed symbol from one
    # assembly and closed-form check: one symbol_stacks call per --xi
    from xcflow import symbol
    stacks, calls = symbol.symbol_stacks, []

    def counted(*args, **kwargs):
        calls.append(args)
        return stacks(*args, **kwargs)

    monkeypatch.setattr(symbol, "symbol_stacks", counted)
    counts = []
    for xis in (["--xi", "1,1,0"], ["--xi", "1,1,0", "--xi", "0,0,1", "--xi", "2,-1,0.5"]):
        calls.clear()
        assert cli.main(["symbol", "--frame", "1,2,3", *xis]) == cli.EXIT_OK
        counts.append(len(calls))
    capsys.readouterr()
    assert counts[1] - counts[0] == 2  # two more directions, two more calls


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


_PAPER_ODE = ["flow", "--rho", "0", "--epsilon", "-1", "--lambda", "-1", "--dt", "1e-2",
              "--t-end", "0.05", "--paper-ode"]
_PAPER_ODE_NOTE = ("published-ODE diagnostic: derived rhs(1) = 0.5, published rhs(1) = -0.5, "
                   "max |difference| along trace = 1.0")


def test_paper_ode_json_trace_on_stdout_is_the_trace_alone(tmp_path, capsys):
    assert cli.main([*_PAPER_ODE, "--format", "json"]) == cli.EXIT_OK
    trace = json.loads(capsys.readouterr().out)
    assert trace["diagnostics"]["published_ode"] == {
        "derived_rhs_at_start": 0.5, "published_rhs_at_start": -0.5,
        "max_abs_discrepancy_on_trace": 1.0}
    # with --output the note is printed, and the file holds the same trace
    path = tmp_path / "trace.json"
    assert cli.main([*_PAPER_ODE, "--format", "json", "--output", str(path)]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == _PAPER_ODE_NOTE
    assert json.loads(path.read_text(encoding="utf-8")) == trace


def test_paper_ode_csv_trace_carries_the_note_as_a_comment(tmp_path, capsys):
    assert cli.main([*_PAPER_ODE, "--format", "csv"]) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    path = tmp_path / "trace.csv"
    assert cli.main([*_PAPER_ODE, "--format", "csv", "--output", str(path)]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        _PAPER_ODE_NOTE, "status: completed", f"wrote {path}"]
    assert path.read_text(encoding="utf-8") == stdout
    version, note, header, *rows = stdout.splitlines()
    assert version == f"# xcflow v{xcflow.__version__}" and note == f"# {_PAPER_ODE_NOTE}"
    assert header.startswith("t,c,R,") and len(rows) == 2


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


def _rotated_frame():
    from xcflow import curvature as cv

    q = [[2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0],
         [-1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0]]  # orthogonal: the rows are orthonormal
    return (cv.Riemann3.from_frame(-1.5, 2.0, 0.7, rotation=q), cv.SymTensor3.identity(),
            {"input_mode": "frame", "frame": [-1.5, 2.0, 0.7], "rotation": q})


def _space_form_off_identity():
    from xcflow import curvature as cv

    g = cv.SymTensor3([2.0, 0.3, -0.1, 1.5, 1.2, 0.25])
    return (cv.Riemann3.space_form(0.8, g), g,
            {"input_mode": "space_form", "kappa": 0.8, "g": g.components.tolist()})


def _chart_jet():
    from xcflow import curvature as cv

    jet = cv.space_form_chart_jet(-0.7, [0.2, -0.1, 0.3])
    return cv.riemann(jet), jet.g, {"input_mode": "chart_jet", "kappa": -0.7,
                                    "point": [0.2, -0.1, 0.3]}


def _richardson_jet():
    from xcflow import curvature as cv

    jet = cv.jet_from_function(cv.space_form_chart(-0.5), [0.3, -0.2, 0.1], richardson=True)
    return cv.riemann(jet), jet.g, {"input_mode": "jet_from_chart", "space_form": "hyperbolic",
                                    "kappa": -0.5, "point": [0.3, -0.2, 0.1],
                                    "fd_step": 0.001, "richardson": True}


# sha256 of `xcflow curvature ... --format json`, taken once the engine ran
# on Python floats (six bivector components expanded to R_ijkl, a Jacobi
# eigensolve): every value then moved from the numpy engine's by at most
# 1.2e-15 of its quantity's largest entry, and the eigenvectors of a repeated
# eigenvalue changed basis.  The command has no flag for a rotation, a metric
# other than the identity, a chart jet at a kappa and point of the library's
# choosing or a finite-difference jet, so those four cases feed their tensors
# to the command in place of its input parsing.  Only the richardson_jet
# input goes through numpy (jet_from_function's stencil); the other reports
# are Python float arithmetic, free of the rounding of numpy's BLAS and LAPACK.
# richardson_jet pins jet_from_function's seven-point mixed differences: its
# off-diagonal Ric, P and h, exactly 0 for the chart, read below 3e-10.
PINNED_CURVATURE_REPORTS = [
    ("rotated_frame", ["--frame", "-1.5,2,0.7"], _rotated_frame,
     "9823f21587e0df82379075fa4dca64b60085be75dcbb861323ae158e1b2ae259"),
    ("space_form_off_identity", ["--space-form", "sphere"], _space_form_off_identity,
     "14aea7f9023dc07ce6a0ea8f049239f9ab7d6ffc3c760eadf95ed7e649f37d4c"),
    ("chart_jet", ["--frame", "1,1,1"], _chart_jet,
     "70d033523661212c9a80f79fb7c611253cb53abd1d6001888f9a286dcb04391e"),
    ("richardson_jet", ["--frame", "1,1,1"], _richardson_jet,
     "6579ed855bc6ca655aa89176b8f4546736aa45c556d260bdb15e9955de4c9857"),
    ("exact_jet", ["--jet-from-chart", "hyperbolic", "--kappa", "-0.5", "--point",
                   "0.3,-0.2,0.1"], None,
     "1e895a3151e089e278438bbd013efe40b0d3f979a083bc8c571ce23a033567f3"),
]


@pytest.mark.parametrize("argv,inputs,digest", [case[1:] for case in PINNED_CURVATURE_REPORTS],
                         ids=[case[0] for case in PINNED_CURVATURE_REPORTS])
def test_curvature_json_report_is_pinned(argv, inputs, digest, tmp_path, monkeypatch, capsys):
    if inputs is not None:
        monkeypatch.setattr(cli, "_curvature_inputs", lambda options: inputs())
    path = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["curvature", *argv, "--format", "json",
                         "--output", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# sha256 of `xcflow symbol ... --format json`.  The parabolicity block is the
# same byte for byte as when parabolicity compared the spectra of its
# quotient blocks; the per-direction spectra were taken once they came from
# the checked closed form {q, q, q - 4 rho}, which repeats q exactly where an
# eigensolve of the block split it in the last bit.  Same numpy and platform
# caveat as above.
PINNED_SYMBOL_REPORTS = [
    ("threshold", ["--frame", "0.2,5,5", "--rho", "0.04"],
     "65d2e2be048739b0c44cc3aae951ce6467bf1a95ae770c038a724924cedaaadb"),
    ("threefold_weak", ["--frame", "2,2,2", "--rho", "0.5"],
     "53749049e91aeb082661d2b40439babd77fa38dda18baa0cd2172b0402d8bf03"),
    ("negative", ["--p", "-2,0,0,-2.5,-2.5,0.5", "--case", "negative", "--rho", "0.3"],
     "d6d3a5303eebe6466724b57a9506bd8f24ed7bc62569f88c7d9cfa7d654d8264"),
    ("wide_range", ["--frame", "1e-8,1,1e8"],
     "cbe60e3b70d3d23259e180d7dfed7904f5787fecfb85f7d18329e8bfb7e987f5"),
]


@pytest.mark.parametrize("argv,digest", [case[1:] for case in PINNED_SYMBOL_REPORTS],
                         ids=[case[0] for case in PINNED_SYMBOL_REPORTS])
def test_symbol_json_report_is_pinned(argv, digest, tmp_path, capsys):
    path = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["symbol", *argv, "--format", "json",
                         "--output", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# sha256 of the text stdout and of the `--format csv` report of every pinned
# case above: the JSON digests pin the values, these the text labels, the
# row order and the CSV keys.  The flow cases write their trace to a relative
# path, so the stdout line naming it is the same in every run.
PINNED_TEXT_AND_CSV = {
    ("curvature", "rotated_frame"): (
        "7a439ce4d24e731398e4714f01b1be92b6ae403be2ecb44331e23695fb75cdba",
        "ecdae970715ad7152f7c10ab265b79d0f4fb70ad990255527e05e8531a320da6"),
    ("curvature", "space_form_off_identity"): (
        "a25640395cc6ab56d3458cac325eadfdfe4f12e0c42255ae6e377250955be509",
        "cc4e66ee5c201c32751de95039cdeae6319c81eacbe04880776357e35bb893d0"),
    ("curvature", "chart_jet"): (
        "be72248e0a592cc137830556e3749cbf51e0379be08650678ed5a3b26656c4fd",
        "d37e726f50d5a749dd247959301dad49b0c066de0d26b0f1006643efffd290bb"),
    ("curvature", "richardson_jet"): (
        "721c5b67c643808079b4622e8f20773d47a932bb6c58c9583b904132c7503888",
        "cb8525daa6bf87d7c868632ec1a550bdb763a9ed605307bf3b5739d2aef7b176"),
    ("curvature", "exact_jet"): (
        "4fa0e15c9f8748091ec44dde4eebfa14e59a6170cbedb102ee790088a305a1b4",
        "7a08f9a46e6f7c742544645aa35d147bb35546ccf3a44d0ab9b54c3f52b84a9f"),
    ("symbol", "threshold"): (
        "002633896c7aee0b723bff4af71b78015501ee2336ca20ddc3f337af1eadf9a0",
        "fcfe634fe53adfe95cae2aa7d38b7019acb47c1f96c6d796f06b2dee35e16b0a"),
    ("symbol", "threefold_weak"): (
        "e2d330b5e4e5d90efdc3fb80a64aa3c4b8ba60b7fa3e438d4023b4979a2f1611",
        "5311cf24f35f008c7810b15c0a366dae83d2d23fdabce7fd0d4ad04150183ca0"),
    ("symbol", "negative"): (
        "0dbcd25ea98d16eb84e8e1377c6ff3c5dd578b944cff83a2d817d806b6901af6",
        "bdec8597d210ac2bc3d5b8722949d6636e07f975893e53f9ea20a06a9dd1f2a4"),
    ("symbol", "wide_range"): (
        "d652b0873d7384843c8948d9b55bc379927a5ddcda4ffb95eaf8069b2376d46b",
        "6c4e3d06940e216eb6fc6d9ca02e1834a1ba3b8b2229e64f164ca6ed068378cf"),
    ("flow", "extinct"): (
        "9e236aa37d596399bdd8d35cd0b36e48f468225656d0157f61afc96875bf002b",
        "5e78ac2bc2c879133c63f4135d9364a8973ae707599619aa78a5fe9634995c31"),
    ("flow", "completed"): (
        "1e3bbb1200804f90bf653444e3754de5b4612d9906708e5d1a21ce32db43cd42",
        "1aed035503b0b98a1889b348d7ea2a6d713dcfb2f16d9dff223a071575d7b792"),
    ("flow", "parabolicity_lost"): (
        "def1e60fd91290e89fd9e440cd5a8530e71b07ae5b9e7521e350ce20ce42cb66",
        "6db2770ad1edbf38c0d375d0410b90b6645eeca7439922d019e0aef4b11b7369"),
}
_PINNED_RUNS = {
    **{("curvature", case): (argv, inputs) for case, argv, inputs, _ in PINNED_CURVATURE_REPORTS},
    **{("symbol", case): (argv, None) for case, argv, _ in PINNED_SYMBOL_REPORTS},
    **{("flow", status): ([*argv, "--record-every", "1"], None)
       for argv, status, _ in PINNED_FLOW_TRACES},
}


@pytest.mark.parametrize("command,case", list(PINNED_TEXT_AND_CSV),
                         ids=["-".join(key) for key in PINNED_TEXT_AND_CSV])
def test_text_and_csv_reports_are_pinned(command, case, tmp_path, monkeypatch, capsys):
    argv, inputs = _PINNED_RUNS[command, case]
    if inputs is not None:
        monkeypatch.setattr(cli, "_curvature_inputs", lambda options: inputs())
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, *argv, "--format", "csv",
                         "--output", "report.csv"]) == cli.EXIT_OK
    out, _ = capsys.readouterr()
    digests = (hashlib.sha256(out.encode("utf-8")).hexdigest(),
               hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest())
    assert digests == PINNED_TEXT_AND_CSV[command, case]


def test_every_report_field_is_written_in_its_order(tmp_path, capsys):
    # the library's result decides a report's fields: a new field is written
    # without an edit to the CLI
    from dataclasses import fields

    from xcflow.curvature import CrossCurvatureForms, CurvatureFrame, CurvatureReport
    from xcflow.flow import FlowParams
    from xcflow.symbol import DirectionReport, ParabolicityReport

    def names(cls):
        return [f.name for f in fields(cls)]

    written = {}
    for command, argv in [("curvature", ["--frame", "1,2,3"]), ("symbol", ["--frame", "1,2,3"]),
                          ("flow", [*PINNED_FLOW_TRACES[0][0], "--format", "json"])]:
        path = tmp_path / f"{command}.json"
        assert cli.main([command, *argv, "--output", str(path)]) == cli.EXIT_OK
        written[command] = json.loads(path.read_text(encoding="utf-8"))
    capsys.readouterr()
    curvature, symbol, flow = written["curvature"], written["symbol"], written["flow"]
    assert list(curvature)[3:] == names(CurvatureReport)
    assert list(curvature["frame"]) == names(CurvatureFrame)
    assert list(curvature["cross_curvature"]) == names(CrossCurvatureForms)
    assert [*list(symbol)[3:6], *symbol["parabolicity"]] == names(ParabolicityReport)
    assert list(symbol["directions"][0]) == names(DirectionReport)
    assert [{"lambda": "lam"}.get(key, key) for key in flow["params"]] == names(FlowParams)


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
    (["--jet-from-chart=sphere", "--point=1e100,0,0"], True),
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


@pytest.mark.parametrize("argv", [["--frame", "1e200,1e200,1e200"],
                                  ["--space-form", "sphere", "--kappa", "1e200"]])
def test_curvature_overflow_exits_3_under_warnings_as_errors(argv):
    # the command quiets no numpy warning: the library names the overflow itself
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "xcflow", "curvature", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, check=False)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")


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


@pytest.mark.parametrize("argv, scalar", [
    (["--jet-from-chart", "sphere", "--point", "0.1,0.2,0.3"], 6.0),
    (["--jet-from-chart", "hyperbolic", "--kappa", "-0.5", "--point", "0.3,-0.2,0.1"], -3.0),
], ids=["sphere", "hyperbolic"])
def test_curvature_chart_jet_is_exact_to_rounding(argv, scalar, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["curvature", *argv]) == cli.EXIT_OK
    out, _ = capsys.readouterr()
    r = float(next(line for line in out.splitlines() if line.startswith("R: "))[3:])
    assert abs(r - scalar) < 1e-13


@pytest.mark.parametrize("argv, message", [
    # g = I / (1 + 1e120 / 4)^2 is positive definite; only det g underflows
    (["--jet-from-chart=sphere", "--point=1e60,0,0"],
     "metric determinant underflows: g is positive definite but of scale 1.6e-239"),
    # |x| < 2 is the chart's domain at kappa = -1
    (["--jet-from-chart=hyperbolic", "--point=2.5,0,0"], "point lies outside the chart domain"),
])
def test_curvature_chart_edge_cases_name_their_cause(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["curvature", *argv]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert message in err and "not positive definite" not in err


@pytest.mark.parametrize("mode, value, key, readers", [
    ("frame", "1,2,3", "kappa", "--space-form or --jet-from-chart"),
    ("frame", "1,2,3", "point", "--jet-from-chart"),
    ("space_form", "sphere", "point", "--jet-from-chart"),
])
@pytest.mark.parametrize("route", ["flags", "config"])
def test_curvature_refuses_an_option_its_mode_does_not_read(mode, value, key, readers, route,
                                                            tmp_path, capsys):
    options = {mode: value, key: "5" if key == "kappa" else "0.1,0,0"}
    if route == "flags":
        argv = [f"--{name.replace('_', '-')}={text}" for name, text in options.items()]
    else:
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"curvature.{name} = {text}\n"
                                  for name, text in options.items()), encoding="utf-8")
        argv = ["--config", str(config)]
    assert cli.main(["curvature", *argv]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"usage error: --{key} is read only with {readers}, "
                   f"not with --{mode.replace('_', '-')}\n")


def test_curvature_chart_point_defaults_to_the_origin(tmp_path, capsys):
    reports = []
    for point in ([], ["--point", "0,0,0"]):
        path = tmp_path / f"chart{len(reports)}.json"
        assert cli.main(["curvature", "--jet-from-chart", "sphere", *point,
                         "--output", str(path)]) == cli.EXIT_OK
        reports.append((capsys.readouterr().out, path.read_bytes()))
    assert reports[0] == reports[1]
    assert json.loads(reports[0][1])["input"]["point"] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("argv, message", [
    (["--frame", "1,2,nan"], "frame must be finite, got 1.0,2.0,nan"),
    (["--p", "1,0,0,2,inf,0"], "p must be finite, got 1.0,0.0,0.0,2.0,inf,0.0"),
])
def test_symbol_non_finite_p_names_its_option(argv, message, capsys):
    assert cli.main(["symbol", *argv]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_symbol_at_the_threshold_runs_under_warnings_as_errors():
    # at rho = q / 4 the structural zeros meet an eigenvalue of B; the
    # spectra come from B's checked closed form, so nothing is solved or warned
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "xcflow", "symbol", "--frame", "1,1,1",
         "--rho", "0.25", "--xi", "1,1,1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "raw: 0.0,0.0,0.0,0.0," in proc.stdout
    assert "deturck: 0.0,1.0,1.0,1.0," in proc.stdout


@pytest.mark.parametrize("argv, q", [
    (["--frame", "0.2,5,5", "--rho", "0.04"], "0.2"),
    (["--frame", "2,2,2", "--rho", "0.5"], "2.0"),
])
def test_symbol_prints_the_double_eigenvalue_q_exactly_twice(argv, q, capsys):
    # spec B = {q, q, q - 4 rho}: q prints as one float twice, and no value a bit off it
    for line in _spectrum_lines(argv, capsys):
        values = line.split(": ")[1].split(",")
        assert values.count(q) == 2, line
        assert all(float(v) != float(q) for v in values if v != q), line


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
    # the chart's jet is exact: the differencing keys are gone
    ("curvature", ["--jet-from-chart=sphere"], "richardson", "off", cli.EXIT_USAGE),
    ("curvature", ["--jet-from-chart=sphere"], "fd_step", "1e-3", cli.EXIT_USAGE),
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
    steps, a direction_samples of at most 400, or a value that is rejected."""
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


def test_verify_report_is_written_and_reads_back(tmp_path, capsys):
    # every suite, two cases per check: a check whose `passed` is a numpy
    # bool_ used to stop the JSON report at its first "passed" key
    from xcflow import verify as vf

    path = tmp_path / "v.json"
    assert cli.main(["verify", "--cases", "2", "--output", str(path)]) == cli.EXIT_OK
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["n_checks"] == len(report["checks"]) == len(vf.registered_checks())
    assert report["all_passed"] is True
    assert all(check["passed"] is True for check in report["checks"])
    # a check registered without a count runs its fixed cases and reports one
    fixed = [default_cases is None for *_, default_cases in vf._REGISTRY]
    assert sum(fixed) == 17
    assert [check["cases"] for check in report["checks"]] == [1 if f else 2 for f in fixed]
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" (", 1)[1].split(",")[0] for line in lines[:-1]] == [
        "1 cases" if f else "2 cases" for f in fixed]


@pytest.mark.parametrize("argv", [
    ["curvature", "--frame", "1,2,3"],
    ["symbol", "--frame", "1,2,3", "--rho", "0.1"],
    ["verify", "--suite", "cli"],
    ["flow", *FLOW_ARGS, "--paper-ode"],
])
def test_an_unwritable_output_is_refused_before_the_report_is_printed(argv, tmp_path,
                                                                       capsys):
    path = tmp_path / "missing" / "report.json"
    assert cli.main([*argv, "--output", str(path)]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: cannot write output file")


def test_a_report_that_cannot_be_serialised_leaves_no_file(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(TypeError):
        cli._write_report({"passed": object()}, str(path), "json")
    assert not path.exists()
