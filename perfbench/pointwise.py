"""`pointwise` workload: the curvature command's pipeline, in process.

One op takes one seeded input spec through what `xcflow curvature` runs:
build the curvature (a frame, a space form, or `riemann` of a chart jet),
then `ricci`, `einstein_raised`, `cross_curvature_forms` and `eigen_frame`,
and read the cross curvature tensor back as a matrix (`unpack`).  The
symbol and flow layers stay idle, so this isolates the tensor code.

The five input kinds cycle in a fixed order.  Their costs differ enough
that the median op is always the middle kind (the analytic chart jet),
which keeps op_p50_ms off the boundary between two kinds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import xcflow.curvature as cv

from inputs import close, gen_eigs_lower, haar_rotation, random_spd, rng_for
from tracing import bind, child_share, durations_us
from stats import median

NAME = "pointwise"
KINDS = ("frame", "space_form", "chart_jet", "fd_jet", "fd_jet_richardson")
BATCH = 4 * len(KINDS)       # every fourth frame is singular, so a batch holds one
POOL = 50 * BATCH
CENSUS = BATCH
TAIL_PCT = 90.0
FD_STEP = 1e-3
FD_SCALAR_TOL = 1e-5         # |R - 6 kappa| at step 1e-3
EXACT_TOL = 1e-9

CALLS = {
    "from_frame": ("curvature.Riemann3.from_frame", cv.Riemann3.from_frame),
    "space_form": ("curvature.Riemann3.space_form", cv.Riemann3.space_form),
    "space_form_chart_jet": ("curvature.space_form_chart_jet", cv.space_form_chart_jet),
    "jet_from_function": ("curvature.jet_from_function", cv.jet_from_function),
    "riemann": ("curvature.riemann", cv.riemann),
    "ricci": ("curvature.ricci", cv.ricci),
    "einstein_raised": ("curvature.einstein_raised", cv.einstein_raised),
    "cross_curvature_forms": ("curvature.cross_curvature_forms", cv.cross_curvature_forms),
    "eigen_frame": ("curvature.eigen_frame", cv.eigen_frame),
    "pack": ("curvature.pack", cv.pack),
    "unpack": ("curvature.unpack", cv.unpack),
}
TIMED = ("jet_from_function", "space_form_chart_jet", "riemann", "ricci",
         "einstein_raised", "cross_curvature_forms", "eigen_frame", "pack", "unpack")

_IDENTITY = cv.SymTensor3.identity()


@dataclass(frozen=True)
class Case:
    kind: str
    abc: tuple = ()                 # frame: sectional curvatures
    rotation: np.ndarray | None = None
    kappa: float = 0.0              # space forms and charts
    g: cv.SymTensor3 = _IDENTITY    # space form metric
    point: np.ndarray | None = None
    chart: object = None            # metric callback for finite differences


def api(tracer=None):
    return bind(CALLS, tracer)


def _signed(rng, lo, hi):
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def build(seed: int, ctx=None) -> list[Case]:
    rng = rng_for(seed, NAME)
    pool = []
    for i in range(POOL):
        kind = KINDS[i % len(KINDS)]
        if kind == "frame":
            abc = [_signed(rng, 0.3, 2.0) for _ in range(3)]
            if (i // len(KINDS)) % 4 == 3:
                abc[int(rng.integers(3))] = 0.0  # determinant form is skipped
            pool.append(Case(kind, abc=tuple(abc), rotation=haar_rotation(rng)))
        elif kind == "space_form":
            g = cv.SymTensor3.from_matrix(random_spd(rng))
            pool.append(Case(kind, kappa=_signed(rng, 0.2, 2.0), g=g))
        elif kind == "chart_jet":
            pool.append(Case(kind, kappa=_signed(rng, 0.2, 1.5),
                             point=rng.uniform(-0.4, 0.4, 3)))
        else:
            kappa = _signed(rng, 0.25, 1.0)
            pool.append(Case(kind, kappa=kappa, point=rng.uniform(-0.4, 0.4, 3),
                             chart=cv.space_form_chart(kappa)))
    return pool


def run_op(x: Case, api):
    if x.kind == "frame":
        riem, g = api.from_frame(*x.abc, rotation=x.rotation), _IDENTITY
    elif x.kind == "space_form":
        riem, g = api.space_form(x.kappa, x.g), x.g
    else:
        if x.kind == "chart_jet":
            jet = api.space_form_chart_jet(x.kappa, x.point)
        else:
            jet = api.jet_from_function(x.chart, x.point, step=FD_STEP,
                                        richardson=x.kind == "fd_jet_richardson")
        riem, g = api.riemann(jet), jet.g
    _, scalar = api.ricci(riem, g)
    p = api.einstein_raised(riem, g)
    forms = api.cross_curvature_forms(riem, g)
    frame, vectors = api.eigen_frame(p, g)
    h = api.unpack(forms.contraction_form.components)
    return g, scalar, p, forms, frame, vectors, h


def check(x: Case, result, api, counts) -> tuple[str, str]:
    g, scalar, p, forms, frame, vectors, h = result
    if forms.determinant_singular:
        counts["determinant_singular"] += 1
    rebuilt = api.pack(vectors @ np.diag(frame.as_array()) @ vectors.T)
    if not close(rebuilt, p.components, EXACT_TOL):
        return "failed", "eigen_frame does not rebuild P"
    p_eigs = frame.as_array()
    h_eigs = gen_eigs_lower(h, g.matrix)
    if x.kind == "frame":
        a, b, c = x.abc
        expect = [
            (scalar, 2.0 * (a + b + c), "scalar curvature"),
            (p_eigs, sorted(x.abc), "P eigenvalues"),
            (h_eigs, sorted((b * c, a * c, a * b)), "h eigenvalues"),
            (forms.determinant_singular, 0.0 in x.abc, "determinant_singular"),
        ]
    elif x.kind in ("space_form", "chart_jet"):
        k = x.kappa
        expect = [
            (scalar, 6.0 * k, "scalar curvature"),
            (p_eigs, [k, k, k], "P eigenvalues"),
            (h_eigs, [k * k] * 3, "h eigenvalues"),
        ]
    else:
        if abs(scalar - 6.0 * x.kappa) >= FD_SCALAR_TOL:
            return "failed", f"fd jet: |R - 6 kappa| = {abs(scalar - 6.0 * x.kappa):.3e}"
        expect = []
    for got, want, what in expect:
        if not close(got, want, EXACT_TOL):
            return "failed", f"{x.kind}: {what} {got!r} != {want!r}"
    return "ok", ""


def layer_metrics(spans, counts, extra) -> dict[str, float]:
    out = {f"curvature.{name}.p50_us": median(durations_us(spans, CALLS[name][0]))
           for name in TIMED}
    out["curvature.self_share"] = child_share(spans, f"{NAME}.op", "curvature")
    out["curvature.determinant_singular"] = counts["determinant_singular"]
    out["curvature.consistency_errors"] = counts["raised.InternalConsistencyError"]
    return out
