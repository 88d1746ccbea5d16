"""`cli` workload: one cold `python -m xcflow ...` child process per op.

The five commands cycle in a fixed order, one child at a time.  At this
size the import is most of each op, so this workload is where cold start,
argparse and report formatting show, and where a change that trades
per-call speed for import-time work shows.  Oracles: exit code 0, a report
with the expected keys and values, and a verify SUMMARY with every check
passed.  The symbol op keeps rho far from the threshold, because the
near-threshold verdict is the parabolicity workload's subject.

This module imports only the standard library, so the workload process
adds nothing to the children it measures.  `probes` holds the traced
run's cold-start and in-process measurements of the cli and verify layers.
"""

from __future__ import annotations

import io
import json
import math
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

from tracing import bind, durations_us
from stats import median

NAME = "cli"
COMMANDS = ("curvature_frame", "curvature_jet", "symbol", "flow", "verify_flow")
BATCH = len(COMMANDS)
POOL = 4 * BATCH
CENSUS = BATCH
TAIL_PCT = 50.0          # about ten ops a run: no higher percentile has ten beyond it
CHILD_RSS = True        # peak_rss_mb is the largest child, not this process
SPEED = "cold"          # ops are fresh processes: calibrate with one before each
OP_TIMEOUT_S = 60.0
PROBE_REPEATS = 3
FLOW_STEPS = 2000
EXACT_TOL = 1e-9
FD_SCALAR_TOL = 1e-5
CLOSED_FORM_TOL = 1e-7
VERIFY_SUITES = ("tensor_core", "symbol", "flow", "cli")

_IMPORT_TIMER = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S, check=False)


CALLS = {cmd: (f"cli.{cmd}", run_child) for cmd in COMMANDS}


@dataclass(frozen=True)
class Case:
    command: str
    argv: tuple[str, ...]
    values: tuple[float, ...]


def api(tracer=None):
    return bind(CALLS, tracer)


def _num(x: float) -> str:
    return repr(float(x))


def build(seed: int, ctx) -> list[Case]:
    rng = random.Random(f"{seed}/{NAME}")
    signed = lambda lo, hi: rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)
    flow_out = str(ctx.workdir / "flow.json")
    pool = []
    for i in range(POOL):
        command = COMMANDS[i % BATCH]
        if command == "curvature_frame":
            abc = tuple(signed(0.3, 2.0) for _ in range(3))
            argv, values = ["curvature", f"--frame={','.join(map(_num, abc))}"], abc
        elif command == "curvature_jet":
            kappa = signed(0.25, 1.0)
            point = tuple(rng.uniform(-0.4, 0.4) for _ in range(3))
            argv = ["curvature", "--jet-from-chart", "sphere" if kappa > 0 else "hyperbolic",
                    f"--kappa={_num(kappa)}", f"--point={','.join(map(_num, point))}"]
            values = (kappa,)
        elif command == "symbol":
            abc = tuple(rng.uniform(0.5, 3.0) for _ in range(3))
            offset = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.3)
            rho = min(abc) / 4.0 + offset
            argv = ["symbol", f"--frame={','.join(map(_num, abc))}", f"--rho={_num(rho)}",
                    "--direction-samples", "200"]
            values = (*abc, rho)
        elif command == "flow":
            lam, t_end = rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0)
            argv = ["flow", "--rho", "0", "--epsilon=-1", f"--lambda={_num(-lam)}",
                    "--dt", _num(t_end / FLOW_STEPS), "--t-end", _num(t_end),
                    "--record-every", "100", "--output", flow_out, "--format", "json"]
            values = (-lam,)
        else:
            argv, values = ["verify", "--suite", "flow"], ()
        pool.append(Case(command, tuple(argv), values))
    return pool


def run_op(x: Case, api):
    return getattr(api, x.command)(["-m", "xcflow", *x.argv])


def _report_lines(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _close(got, want, tol: float) -> bool:
    scale = max([1.0] + [abs(w) for w in want])
    return len(got) == len(want) and all(abs(g - w) <= tol * scale for g, w in zip(got, want))


def check(x: Case, proc, api, counts) -> tuple[str, str]:
    if proc.returncode != 0:
        return "failed", f"{x.command}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        return _check_output(x, proc.stdout)
    except (KeyError, ValueError, OSError) as exc:
        return "failed", f"{x.command}: unreadable report: {exc!r}"


def _check_output(x: Case, stdout: str) -> tuple[str, str]:
    report = _report_lines(stdout)
    if x.command == "curvature_frame":
        a, b, c = x.values
        ok = (_close([float(report["R"])], [2.0 * (a + b + c)], EXACT_TOL)
              and _close(_floats(report["frame a,b,c"]), sorted(x.values), EXACT_TOL)
              and _close(_floats(report["h eigenvalues"]),
                         sorted((b * c, a * c, a * b), reverse=True), EXACT_TOL))
    elif x.command == "curvature_jet":
        ok = abs(float(report["R"]) - 6.0 * x.values[0]) < FD_SCALAR_TOL
    elif x.command == "symbol":
        *abc, rho = x.values
        strict = min(abc) - 4.0 * rho > 0.0
        ok = ((report["verdict"] == "strictly_parabolic_deturck") == strict
              and _close([float(report["threshold"])], [min(abc) / 4.0], EXACT_TOL))
    elif x.command == "flow":
        with open(x.argv[x.argv.index("--output") + 1], encoding="utf-8") as fh:
            trace = json.load(fh)
        lam = x.values[0]
        ok = (report["status"] == "completed" and trace["status"] == "completed"
              and all(abs(r["c"] - math.sqrt(1.0 + lam * lam * r["t"])) < CLOSED_FORM_TOL
                      and abs(r["c"] - r["c_closed_form"]) < CLOSED_FORM_TOL
                      for r in trace["records"]))
    else:
        done, total = report["SUMMARY"].split(" ", 1)[0].split("/")
        ok = done == total and int(total) > 0
    return ("ok", "") if ok else ("failed", f"{x.command}: report disagrees with the oracle")


def _main_quietly(main, argv: list[str]) -> int:
    try:
        with redirect_stdout(io.StringIO()):
            return main(argv)
    except SystemExit as exc:  # argparse rejects a malformed argv
        return exc.code


def probes(ctx, tracer, pool, cold) -> tuple[dict[str, float], int, int]:
    """Cold-start floors, in-process `cli.main` and in-process verify suites.

    Returns (metrics, attempted, failed).  Every measurement runs inside a
    root span of the given tracer.  Child processes are scaled by the
    `cold` speed track, in-process calls by an in-process kernel track.
    """
    from calibrate import SpeedTrack

    warm = SpeedTrack("kernel")
    out: dict[str, float] = {}
    attempted = failed = 0

    def repeat(track, fn, *args):
        nonlocal attempted, failed
        times = []
        for _ in range(PROBE_REPEATS):
            code, seconds = track.timed(fn, *args)
            attempted += 1
            failed += code != 0
            times.append(seconds)
        return median(times) * 1e3

    def import_seconds(module: str):
        proc = run_child(["-c", _IMPORT_TIMER.format(module)])
        return proc.returncode, float(proc.stdout) if proc.returncode == 0 else 0.0

    with tracer.root("cli.probes"):
        out["cli.python_floor_ms"] = repeat(cold, lambda: run_child(["-c", "pass"]).returncode)
        for key, module in (("import_xcflow", "xcflow"), ("import_cli", "xcflow.cli")):
            times = []
            for _ in range(PROBE_REPEATS):
                cold.maybe_sample()
                start = time.perf_counter()
                code, seconds = import_seconds(module)
                cold.sample()
                attempted += 1
                failed += code != 0
                times.append(seconds * cold.factor(start))
            out[f"cli.{key}_ms"] = median(times) * 1e3

        import xcflow.cli as xcli  # warm import; only main() is timed below
        main = tracer.wrap("cli", "cli.main", xcli.main)
        for x in pool[:BATCH]:
            out[f"cli.main.{x.command}.in_process_ms"] = repeat(
                warm, _main_quietly, main, list(x.argv))

        from xcflow import verify as vf
        run_checks = tracer.wrap("verify", "verify.run_checks", vf.run_checks)
        checks_failed = 0
        for suite in VERIFY_SUITES:
            summary, seconds = warm.timed(run_checks, suites=[suite])
            out[f"verify.{suite}.s"] = seconds
            checks_failed += sum(not r.passed for r in summary.results)
            attempted += 1
        out["verify.checks_failed"] = checks_failed
        failed += checks_failed
    return out, attempted, failed


def layer_metrics(spans, counts, extra) -> dict[str, float]:
    out = {f"cli.{cmd}.wall_ms": median(durations_us(spans, f"cli.{cmd}")) / 1e3
           for cmd in COMMANDS}
    out.update(extra)
    return out
