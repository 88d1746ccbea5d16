"""One workload process: set up, print READY, then measure.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace --out DIR

`run.py` starts this process and times it from its start to the READY
line: import (xcflow for the in-process workloads), building the seeded
input pool, and one warm-up op.  In `setup` mode it exits there.  In
`run` mode it runs the closed loop untraced for S seconds, in whole
batches, and prints one JSON line of end-to-end figures.  In `trace`
mode it alternates untraced and traced batches for S seconds, then runs
the census: a fixed traced prefix of every workload's pool plus the cli
probes, and prints the per-layer figures.  Timings of the workload's own
layer come from its traced batches; every other per-layer figure, and
every count, comes from the census, so counts repeat exactly per seed.
All times are scaled to the reference speed of calibrate.py.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

from stats import beyond, median, percentile
from tracing import Tracer

WORKLOADS = ("pointwise", "parabolicity", "flow", "cli")
MAX_FAILURES_KEPT = 5


class Tally:
    """Outcome counts of the ops a loop or census attempted."""

    def __init__(self):
        self.counts = Counter()
        self.attempted = self.failed = self.wrong = 0
        self.failures: list[str] = []

    def record(self, status: str, message: str) -> None:
        self.attempted += 1
        if status == "failed":
            self.failed += 1
        elif status == "wrong":
            self.wrong += 1
        if status != "ok" and len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(message)

    def absorb(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.failures += other.failures[:MAX_FAILURES_KEPT - len(self.failures)]


def one_op(mod, x, api, tracer, tally: Tally) -> tuple[float, float]:
    """Run and time one op, then check it untimed.  Returns (start, seconds)."""
    with tracer.root(f"{mod.NAME}.op") if tracer else nullcontext():
        start = time.perf_counter()
        try:
            result = mod.run_op(x, api)
        except Exception as exc:  # a raising op is a failed op, not an abort
            elapsed = time.perf_counter() - start
            tally.counts[f"raised.{type(exc).__name__}"] += 1
            tally.record("failed", f"{mod.NAME}: raised {type(exc).__name__}: {exc}")
            return start, elapsed
        elapsed = time.perf_counter() - start
    with tracer.root(f"{mod.NAME}.check") if tracer else nullcontext():
        try:
            status, message = mod.check(x, result, api, tally.counts)
        except Exception as exc:
            status, message = "failed", f"{mod.NAME}: check raised {type(exc).__name__}: {exc}"
    tally.record(status, message)
    return start, elapsed


def loop(mod, pool, seconds: float, track, tracer: Tracer | None):
    """Closed loop over the pool in whole batches until `seconds` have passed.

    With a tracer, every other batch is traced, starting with the second.
    Returns the tally and the (start, seconds) of each op, per untraced and
    per traced batch.
    """
    plain, traced = mod.api(None), mod.api(tracer) if tracer else None
    tally = Tally()
    batches = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        on = tracer is not None and len(batches[False]) > len(batches[True])
        batch = []
        for _ in range(mod.BATCH):
            track.maybe_sample()
            batch.append(one_op(mod, pool[i % len(pool)], traced if on else plain,
                                tracer if on else None, tally))
            i += 1
        batches[on].append(batch)
        if time.perf_counter() >= deadline and (tracer is None or batches[True]):
            track.sample()
            return tally, batches[False], batches[True]


def scaled(track, batches) -> list[list[float]]:
    return [[elapsed * track.factor(start) for start, elapsed in batch] for batch in batches]


def scaled_spans(track, spans):
    return [(sid, parent, layer, name, start, start + (end - start) * track.factor(start / 1e9))
            for sid, parent, layer, name, start, end in spans]


def speed_track(mod):
    from calibrate import SpeedTrack  # numpy; the cli workload's set-up stays without it
    return SpeedTrack(getattr(mod, "SPEED", "kernel"))


def census(mod, pool, ctx, run_ops: bool):
    tracer, tally, extra = Tracer(), Tally(), {}
    track = speed_track(mod)
    if run_ops:
        api = mod.api(tracer)
        for x in pool[:mod.CENSUS]:
            track.maybe_sample()
            one_op(mod, x, api, tracer, tally)
        track.sample()
    if hasattr(mod, "probes"):
        extra, attempted, failed = mod.probes(ctx, tracer, pool, track)
        tally.attempted += attempted
        tally.failed += failed
    return tracer, tally, extra, track


def peak_rss_mb(mod) -> float:
    who = resource.RUSAGE_CHILDREN if getattr(mod, "CHILD_RSS", False) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def run_mode(mod, pool, seconds: float, track) -> dict:
    tally, raw_batches, _ = loop(mod, pool, seconds, track, None)
    batches = scaled(track, raw_batches)
    ms = [t * 1e3 for batch in batches for t in batch]
    raw_ms = [e * 1e3 for batch in raw_batches for _, e in batch]
    return {
        "attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
        "failures": tally.failures,
        "op_p50_ms": median(ms),
        "op_tail_ms": percentile(ms, mod.TAIL_PCT),
        "tail_pct": mod.TAIL_PCT,
        "tail_beyond": beyond(ms, mod.TAIL_PCT),
        "ops_per_s": median([len(batch) / sum(batch) for batch in batches]),
        "batches": len(batches),
        "peak_rss_mb": peak_rss_mb(mod),
        "raw_op_p50_ms": median(raw_ms),
        "raw_op_tail_ms": percentile(raw_ms, mod.TAIL_PCT),
        "calibration_median_s": median(track.samples),
    }


def trace_mode(mod, pool, seconds: float, seed: int, ctx, track) -> dict:
    loop_tracer = Tracer()
    tally, plain, traced = loop(mod, pool, seconds, track, loop_tracer)
    plain_ms = [t for batch in scaled(track, plain) for t in batch]
    traced_ms = [t for batch in scaled(track, traced) for t in batch]
    metrics = {"trace.overhead_frac": median(traced_ms) / median(plain_ms) - 1.0}
    spans = {"loop": loop_tracer.spans}
    for name in WORKLOADS:
        other = mod if name == mod.NAME else importlib.import_module(name)
        other_pool = pool if other is mod else other.build(seed, ctx)
        # the cli loop already ran every command cold; its census is the probes alone
        tracer, counted, extra, census_track = census(
            other, other_pool, ctx, run_ops=not (other is mod and name == "cli"))
        if other is mod:
            timing = scaled_spans(track, loop_tracer.spans)
        else:
            timing = scaled_spans(census_track, tracer.spans)
        metrics.update(other.layer_metrics(timing, counted.counts, extra))
        spans[f"census.{name}"] = tracer.spans
        tally.absorb(counted)
    with open(ctx.out / f"spans_{mod.NAME}_s{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return {"attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
            "failures": tally.failures, "traced_batches": len(traced),
            "untraced_batches": len(plain), "calibration_median_s": median(track.samples),
            "per_layer": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    mod = importlib.import_module(args.workload)
    ctx = SimpleNamespace(out=args.out, workdir=args.out / f"work_{args.workload}")
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    pool = mod.build(args.seed, ctx)
    one_op(mod, pool[0], mod.api(None), None, Tally())  # warm-up
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    track = speed_track(mod)
    if args.mode == "run":
        result = run_mode(mod, pool, args.seconds, track)
    else:
        result = trace_mode(mod, pool, args.seconds, args.seed, ctx, track)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
