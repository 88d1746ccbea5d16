"""xcflow benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload pointwise|parabolicity|flow|cli \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports xcflow from the
checkout's `src/` and fails with exit code 2 when that is missing.
With --trace 0 it starts several fresh workload processes to time set-up,
then measures one closed loop for S seconds and prints the end-to-end
metrics.  With --trace 1 it runs one traced workload process and prints
the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A fuller record
with an environment block goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from stats import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("pointwise", "parabolicity", "flow", "cli")
# fresh processes timed for setup_s; a cli set-up includes one cold child
SETUP_SAMPLES = {"pointwise": 5, "parabolicity": 5, "flow": 5, "cli": 3}
BUDGET_S = 170.0


class HarnessError(Exception):
    """The benchmark could not produce a result."""


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


class Worker:
    """A workload process; set-up time is taken from spawn to its READY line."""

    def __init__(self, args, mode: str, env: dict, deadline: float):
        self.deadline = deadline
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--mode", mode, "--out", str(OUT)]
        start = time.perf_counter()
        # own process group, so that close() also ends the worker's children
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(self.proc.stdout, selectors.EVENT_READ)
                ready = sel.select(timeout=max(1.0, deadline - time.monotonic()))
            line = self.proc.stdout.readline() if ready else ""
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            self.close()
            raise HarnessError(f"{mode} worker did not get ready (exit {self.proc.returncode})")

    def communicate(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise HarnessError("workload process ran past the time budget") from exc
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise HarnessError(f"workload process failed (exit {self.proc.returncode})")
        return out

    def result(self) -> dict:
        out = self.communicate().strip()
        if not out:
            raise HarnessError("workload process printed no result")
        return json.loads(out.splitlines()[-1])

    def close(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


def measure(args) -> tuple[dict, dict]:
    """Returns (metrics, raw worker result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        raw = Worker(args, "trace", env, deadline).result()
        return raw["per_layer"], raw

    # set-up is scaled like a cli op, by cold calibration processes
    # between the workload processes
    from calibrate import SpeedTrack
    track = SpeedTrack("cold")
    starts, raw_setups = [], []
    for _ in range(SETUP_SAMPLES[args.workload] - 1):
        starts.append(time.perf_counter())
        probe = Worker(args, "setup", env, deadline)
        probe.communicate()
        raw_setups.append(probe.setup_s)
        track.sample()
    starts.append(time.perf_counter())
    main = Worker(args, "run", env, deadline)
    raw_setups.append(main.setup_s)
    raw = main.result()
    raw["setup_samples_s"] = [s * track.factor(t) for s, t in zip(raw_setups, starts)]
    raw["raw_setup_samples_s"] = raw_setups
    ok = raw["attempted"] - raw["failed"] - raw["wrong"]
    metrics = {
        "setup_s": median(raw["setup_samples_s"]),
        "op_p50_ms": raw["op_p50_ms"],
        "op_tail_ms": raw["op_tail_ms"],
        "ops_per_s": raw["ops_per_s"],
        "oracle_pass_rate": ok / raw["attempted"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    return metrics, raw


def units(trace: int) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="xcflow benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, closing workers
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "xcflow" / "__init__.py").is_file():
        print(f"error: no xcflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        metrics, raw = measure(args)
        unit_of = units(args.trace)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    missing = set(unit_of) - set(metrics)
    if missing:
        print(f"error: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 3

    err = (raw["failed"] + raw["wrong"]) / raw["attempted"]
    print(f"xcflow benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  ops attempted {raw['attempted']}, failed {raw['failed']}, "
          f"wrong verdicts {raw['wrong']}, error_rate {err:.4f}")
    for failure in raw["failures"]:
        print(f"  ! {failure}")
    for name, unit in unit_of.items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{raw['tail_pct']:g}, {raw['tail_beyond']} of "
                    f"{raw['attempted']} ops beyond)")
        elif name == "setup_s":
            note = f"  (median of {len(raw['setup_samples_s'])} fresh processes)"
        print(f"  {name:<42} {metrics[name]:>14.6g} {unit}{note}")

    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in unit_of.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "error_rate": err,
              "raw": raw, **result}
    path = OUT / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
