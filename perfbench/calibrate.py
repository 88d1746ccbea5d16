"""Scaling measured times to a fixed machine speed.

On a shared host the CPU's speed drifts.  On the 2-vCPU Intel Xeon VM
this benchmark was built on, the same op mix took 1.3 ms in some
5-second stretches and 2.5 ms in others, in phases lasting tens of
seconds, with no steal time; a run's raw median depended on when it ran.

So the harness interleaves a fixed calibration with the ops and scales
each op's time by REFERENCE / (calibration time around that op): the
figures read as if the calibration took exactly its reference time.
The calibration never runs xcflow code, so a change to xcflow moves the
scaled figures exactly as it moves the raw ones.  Two calibrations:

- "kernel": small numpy and Python work timed in the workload process
  every CALIBRATE_EVERY_S, for ops that run in that process;
- "cold": a fresh `python -c "import numpy"` timed before every op, for
  ops that are fresh processes (cli commands, set-up), whose speed the
  in-process kernel does not track.  One cold start jitters more than
  the kernel, so an op takes the median of the two samples before it
  and the two after it.

Raw figures are kept in the result file next to the scaled ones.
"""

from __future__ import annotations

import bisect
import subprocess
import sys
import time

import numpy as np

from stats import median

REFERENCE_S = {"kernel": 1e-3, "cold": 0.2}
CALIBRATE_EVERY_S = {"kernel": 0.05, "cold": 0.0}
SAMPLES_EACH_SIDE = {"kernel": 1, "cold": 2}
_REPEATS = 3

_R = np.random.default_rng(0).standard_normal((3, 3, 3, 3))
_G = np.eye(3) + 0.1 * np.ones((3, 3))


def _kernel() -> float:
    acc = 0.0
    for k in range(20):
        r = _R * (1.0 + 0.01 * k)
        acc += float(np.einsum("ijkl,ik->jl", r, _G).trace())
        acc += float(np.einsum("ia,jb,abcd->ijcd", _G, _G, r)[0, 1, 0, 1])
        acc += float(np.linalg.eigvalsh(_G + 0.1 * k).sum())
        m = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                m[i, j] = r[i, j, 0, 0]
        acc += float(np.linalg.det(m)) + sum(x * 0.5 for x in range(30))
    return acc


def kernel_seconds() -> float:
    """Best of a few back-to-back kernel runs, in seconds."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def cold_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class SpeedTrack:
    """Calibration timings taken through a run, and the scale factor at any moment."""

    def __init__(self, kind: str):
        self._measure = kernel_seconds if kind == "kernel" else cold_seconds
        self._reference = REFERENCE_S[kind]
        self._every = CALIBRATE_EVERY_S[kind]
        self._side = SAMPLES_EACH_SIDE[kind]
        self.times: list[float] = []
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        now = time.perf_counter()
        self.samples.append(self._measure())
        self.times.append(now)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.times[-1] >= self._every:
            self.sample()

    def timed(self, fn, *args, **kwargs):
        """Call fn between two calibrations; returns (result, scaled seconds)."""
        self.maybe_sample()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.sample()
        return result, elapsed * self.factor(start)

    def factor(self, at: float) -> float:
        """Reference time over the median of the calibrations around `at`."""
        j = bisect.bisect_right(self.times, at)
        lo = min(max(j - self._side, 0), len(self.samples) - self._side)
        return self._reference / median(self.samples[max(lo, 0):j + self._side])
