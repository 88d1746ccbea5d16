"""`parabolicity` workload: one `parabolicity()` query per op, in process.

P is a rotated anisotropic tensor in a g-orthonormal frame, pulled back to
coordinates of a random SPD metric g, so `to_orthonormal_frame` does real
work.  The gauge-fixed symbol in a unit direction xi has the spectrum
{1, 1, 1, s q, s q, s q - 4 rho} with q = xi^T P xi in that frame, so the
exact verdict is strict iff min(s lam) >= floor and min(s lam) - 4 rho >=
floor, lam the generalized eigenvalues of P.  Half of the queries put rho
within 1e-3 of that spectral threshold (log-uniform offset, either side),
half far from it.  A verdict that disagrees with the exact one counts as
a wrong verdict: the sampled sweep misses the critical direction when rho
sits just above the threshold, and the benchmark reports that rate.

A 12-op cycle covers the four threshold positions against 200 or 50
directions and both modes; the case flips from one cycle to the next.
Two thirds of the queries use 200 directions, so the median op is always
a 200-direction query.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

import xcflow.curvature as cv
import xcflow.symbol as sb

from inputs import close, frame_of, from_frame, haar_rotation, random_spd, rng_for
from tracing import bind, durations_us
from stats import median

NAME = "parabolicity"
BATCH = 12
POOL = 20 * BATCH
CENSUS = 2 * BATCH           # both cases
TAIL_PCT = 90.0
DIRECTIONS = (200, 200, 50)
MODES = ("all_directions", "frame")
EXACT_TOL = 1e-9
PROBE_TOL = 1e-6  # eigvals of the non-normal symbol near a repeated eigenvalue

CALLS = {
    "parabolicity_200": ("symbol.parabolicity@200", sb.parabolicity),
    "parabolicity_50": ("symbol.parabolicity@50", sb.parabolicity),
    "to_orthonormal_frame": ("symbol.to_orthonormal_frame", sb.to_orthonormal_frame),
    "symbol_modified": ("symbol.symbol_modified", sb.symbol_modified),
    "spectrum": ("symbol.spectrum", sb.spectrum),
}


@dataclass(frozen=True)
class Case:
    p: cv.SymTensor3
    g: cv.SymTensor3
    rho: float
    case: int
    mode: str
    dirs: int
    near: bool


def api(tracer=None):
    return bind(CALLS, tracer)


def build(seed: int, ctx=None) -> list[Case]:
    rng = rng_for(seed, NAME)
    pool = []
    for i in range(POOL):
        k = i % BATCH
        near, above = k % 4 < 2, k % 2 == 0
        sign = 1 if (i // BATCH) % 2 == 0 else -1
        mags = np.array([rng.uniform(0.1, 0.5), *rng.uniform(2.0, 6.0, 2)])
        q = haar_rotation(rng)
        gm = random_spd(rng)
        p = cv.SymTensor3.from_matrix(from_frame(q @ np.diag(sign * mags) @ q.T, gm), "upper")
        threshold = mags.min() / 4.0
        if near:
            offset = 10.0 ** rng.uniform(-5.0, -3.0)
        else:
            offset = rng.uniform(0.1, 0.3) * (mags.max() - mags.min())
        rho = threshold + offset if above else threshold - offset
        pool.append(Case(p, cv.SymTensor3.from_matrix(gm), float(rho), sign,
                         MODES[(k // 4) % 2], DIRECTIONS[k % 3], near))
    return pool


def run_op(x: Case, api):
    query = api.parabolicity_200 if x.dirs == 200 else api.parabolicity_50
    return query(x.p, x.g, x.rho, case=x.case, mode=x.mode, direction_samples=x.dirs)


def check(x: Case, report, api, counts) -> tuple[str, str]:
    counts["directions_sampled"] += report.direction_samples
    if report.max_imag_residue > sb.IMAG_RESIDUE_TOL:
        counts["imag_residue_ops"] += 1
    pm, gm = x.p.matrix, x.g.matrix
    frame = frame_of(pm, gm)
    lam, vecs = np.linalg.eigh(frame)
    s_lam = x.case * lam
    crit = int(np.argmin(s_lam))

    if x.mode == "frame":
        threshold = pm[0, 0] / 4.0 if x.case > 0 else -pm[0, 0] / 2.0
    else:
        threshold = lam.min() / 4.0 if x.case > 0 else -lam.max() / 2.0
    if report.direction_samples != x.dirs or report.mode != x.mode:
        return "failed", "report does not echo the query"
    if not (close(report.threshold, threshold, EXACT_TOL)
            and close(report.margin, threshold - x.rho, EXACT_TOL)):
        return "failed", f"threshold {report.threshold!r} != {threshold!r}"

    # spectrum at the critical direction, through the library's own frame
    p_frame = api.to_orthonormal_frame(x.p, x.g)
    if not close(p_frame.matrix, frame, EXACT_TOL):
        return "failed", "to_orthonormal_frame disagrees with L^T P L"
    symbol = api.symbol_modified(p_frame, x.rho, vecs[:, crit], case=x.case)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sb.ComplexEigenvalueWarning)
        spec = api.spectrum(symbol)
    sq = s_lam[crit]
    if not close(spec, sorted([1.0, 1.0, 1.0, sq, sq, sq - 4.0 * x.rho]), PROBE_TOL):
        return "failed", f"critical-direction spectrum {spec!r}"

    lowest = min(s_lam.min(), s_lam.min() - 4.0 * x.rho)  # of the exact gauge-fixed spectrum
    if (report.verdict == "strictly_parabolic_deturck") != (lowest >= sb.STRICTNESS_FLOOR):
        counts["wrong_verdicts"] += 1
        counts["wrong_verdicts_near_threshold"] += x.near
        return "wrong", f"verdict {report.verdict}, exact lowest eigenvalue {lowest:.3e}"
    return "ok", ""


def layer_metrics(spans, counts, extra) -> dict[str, float]:
    per_op = {d: durations_us(spans, f"symbol.parabolicity@{d}") for d in (200, 50)}
    out = {
        "symbol.parabolicity.p50_ms": median(per_op[200] + per_op[50]) / 1e3,
        "symbol.parabolicity.us_per_direction": median(
            [t / d for d, times in per_op.items() for t in times]),
    }
    for name in ("to_orthonormal_frame", "symbol_modified", "spectrum"):
        out[f"symbol.{name}.p50_us"] = median(durations_us(spans, CALLS[name][0]))
    for name in ("directions_sampled", "wrong_verdicts", "wrong_verdicts_near_threshold",
                 "imag_residue_ops"):
        out[f"symbol.{name}"] = counts[name]
    return out
