"""Invariant verification suites.

Every numerical law the package promises is re-checked here against an
independent route: exact rational arithmetic (the pointwise pipeline from
the connection to h, in `fractions.Fraction`), closed forms, analytic
oracles, or a second formula for the same quantity.  Checks are
deterministic given the seed; each one reports its worst observed
deviation next to the tolerance it was held to.

A counted check gets its generator, keyed by the seed and the check's
name, when it starts; a fixed check gets none.  numpy, `xcflow.symbol` and
`fractions` load in the helpers and checks that use them, so the 'flow'
and 'cli' suites, fixed checks that build no array, load none of them.

The suites are grouped by subsystem ('tensor_core', 'symbol', 'flow',
'cli') and surfaced through the `xcflow verify` command, which exits
nonzero if anything fails.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import curvature as cv
from . import flow as fl
from .errors import DomainError, InternalConsistencyError

if TYPE_CHECKING:
    import numpy as np

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    cases: int
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.suite}/{self.name}: {self.detail} "
                f"({self.cases} cases, {self.elapsed:.2f}s)")


@dataclass
class VerifySummary:
    seed: int
    results: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "all_passed": self.all_passed,
            "n_checks": len(self.results),
            "n_failed": sum(not r.passed for r in self.results),
            "checks": [{"suite": r.suite, "name": r.name, "passed": r.passed, "cases": r.cases,
                        "detail": r.detail, "elapsed_s": round(r.elapsed, 4)}
                       for r in self.results],
        }


_REGISTRY: list[tuple[str, str, object, int | None]] = []


def _check(suite: str, name: str, default_cases: int | None = None):
    def wrap(fn):
        _REGISTRY.append((suite, name, fn, default_cases))
        return fn
    return wrap


def available_suites() -> list[str]:
    return list(dict.fromkeys(suite for suite, _, _, _ in _REGISTRY))


def registered_checks() -> list[tuple[str, str]]:
    """(suite, name) of every check, in run order; run_check takes the index."""
    return [(suite, name) for suite, name, _, _ in _REGISTRY]


def run_check(idx: int, cases: int | None = None,
              seed: int = DEFAULT_SEED) -> CheckResult:
    """Run one registered check: a counted check with its count and its
    generator, a fixed check with nothing."""
    suite, name, fn, default_cases = _REGISTRY[idx]
    # a check registered without a count runs its fixed cases, and counts as one
    n = 1 if default_cases is None else default_cases if cases is None else cases
    start = time.perf_counter()
    try:
        if default_cases is None:
            passed, detail = fn()
        else:
            import numpy as np
            # keyed by the check's name, so that adding or removing another
            # check leaves this one's data as it is
            seq = np.random.SeedSequence(seed, spawn_key=tuple(f"{suite}/{name}".encode()))
            passed, detail = fn(np.random.default_rng(seq), n)
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(suite, name, bool(passed), n, detail, time.perf_counter() - start)


def run_checks(suites=None, cases: int | None = None,
               seed: int = DEFAULT_SEED) -> VerifySummary:
    """Run the registered checks (optionally restricted to some suites)."""
    summary = VerifySummary(seed=seed)
    for idx, (suite, _name) in enumerate(registered_checks()):
        if not suites or suite in suites:
            summary.results.append(run_check(idx, cases, summary.seed))
    return summary


# ---------------------------------------------------------------------------
# helpers

def _random_rotation(rng) -> np.ndarray:
    """Haar-distributed rotation: QR of a Gaussian matrix with the signs of
    R's diagonal folded into Q, then one column flipped if det Q = -1
    (F. Mezzadri, Notices AMS 54, 2007)."""
    import numpy as np
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _random_spd(rng, scale: float = 1.0) -> cv.SymTensor3:
    import numpy as np
    m = rng.uniform(-1.0, 1.0, (3, 3))
    return cv.SymTensor3.from_matrix(scale * (m @ m.T + 0.5 * np.eye(3)))


def _random_frame(rng) -> np.ndarray:
    while True:
        abc = rng.uniform(-5.0, 5.0, 3)
        if abs(abc.prod()) > 1e-6:
            return abc


def _frame_data(rng, abc) -> tuple[cv.Riemann3, cv.SymTensor3]:
    q = _random_rotation(rng)
    return cv.Riemann3.from_frame(*abc, rotation=q), cv.SymTensor3.identity()


def _eigenvalue_dev(t: cv.SymTensor3, g: cv.SymTensor3, expected) -> float:
    """max |eigenvalue of t relative to g - expected| / max(1, max |expected|)."""
    import numpy as np
    expected = np.sort(expected)
    got = cv.generalized_eigh(t, g)[0]
    return float(np.abs(got - expected).max() / max(np.abs(expected).max(), 1.0))


def _verdict(max_dev: float, tol: float, label: str = "max dev") -> tuple[bool, str]:
    return max_dev <= tol, f"{label} {max_dev:.3e} (tol {tol:.1e})"


# The exact reference for the pointwise pipeline: every float is rational, so a jet's
# g^-1 = adj(g) / det g, connection and curvature are exact in `fractions.Fraction`.

def _rational(array) -> list:
    """A 3 x ... x 3 float array as nested lists of Fractions, each equal to its entry."""
    from fractions import Fraction
    return _nest(lambda *index: Fraction(array[index]), array.ndim)


def _nest(entry, rank: int) -> list:
    """[entry(i, j, ...)] as nested lists over each index in range(3)."""
    return [entry(i) if rank == 1 else _nest(functools.partial(entry, i), rank - 1)
            for i in range(3)]


def _exact_connection(jet: cv.MetricJet) -> tuple[list, ...]:
    """dg [k][i][j], g^-1 [k][m], Gamma_{m,ij} = 1/2 (d_i g_jm + d_j g_im - d_m g_ij)
    [m][i][j] and Gamma^k_ij = g^km Gamma_{m,ij} [k][i][j] of the jet."""
    g, dg = _rational(jet.g.matrix), _rational(jet.dg_full)
    # cyclic cofactors, which for a symmetric g are adj(g)
    adj = _nest(lambda i, j: g[(i + 1) % 3][(j + 1) % 3] * g[(i + 2) % 3][(j + 2) % 3]
                - g[(i + 1) % 3][(j + 2) % 3] * g[(i + 2) % 3][(j + 1) % 3], 2)
    det = g[0][0] * adj[0][0] + g[0][1] * adj[1][0] + g[0][2] * adj[2][0]
    ginv = _nest(lambda k, m: adj[k][m] / det, 2)
    low = _nest(lambda m, i, j: (dg[i][j][m] + dg[j][i][m] - dg[m][i][j]) / 2, 3)
    return dg, ginv, low, _nest(lambda k, i, j: sum(ginv[k][m] * low[m][i][j]
                                                    for m in range(3)), 3)


def _exact_pointwise(jet: cv.MetricJet) -> list:
    """[Gamma, R_ijkl, Ric, R, P, h] of the jet as nested lists.  R comes
    through the derivative of the connection, not the engine's Gamma^T g^-1
    Gamma: R_ijkl = g_im (d_k Gamma^m_lj - d_l Gamma^m_kj + Gamma^m_kp
    Gamma^p_lj - Gamma^m_lp Gamma^p_kj); Ric_ij = g^kl R_kilj, R = g^ij Ric_ij,
    P = (R/2) g^-1 - g^-1 Ric g^-1 and h_ij = 1/2 P^rs R_irjs."""
    dg, ginv, low, gamma = _exact_connection(jet)
    ddg, r3 = _rational(jet.ddg_full), range(3)
    # [a][i][k][l] = g_im d_a Gamma^m_kl = d_a Gamma_{i,kl} - d_a g_im Gamma^m_kl
    t = _nest(lambda a, i, k, l: (ddg[a][k][l][i] + ddg[a][l][k][i] - ddg[a][i][k][l]) / 2
              - sum(dg[a][i][m] * gamma[m][k][l] for m in r3), 4)
    r = _nest(lambda i, j, k, l: t[k][i][l][j] - t[l][i][k][j] + sum(
        low[i][k][p] * gamma[p][l][j] - low[i][l][p] * gamma[p][k][j] for p in r3), 4)
    ric = _nest(lambda i, j: sum(ginv[k][l] * r[k][i][l][j] for k in r3 for l in r3), 2)
    scalar = sum(ginv[i][j] * ric[i][j] for i in r3 for j in r3)
    p = _nest(lambda i, j: scalar / 2 * ginv[i][j]
              - sum(ginv[i][k] * ric[k][l] * ginv[l][j] for k in r3 for l in r3), 2)
    h = _nest(lambda i, j: sum(p[a][b] * r[i][a][j][b] for a in r3 for b in r3) / 2, 2)
    return [gamma, r, ric, scalar, p, h]


def _deviations_from_exact(jet: cv.MetricJet) -> list[float]:
    """max |engine - exact| / max |exact| (if not 0) of Gamma, R_ijkl, Ric, R, P
    and h at the jet; only the first two where the pair check refuses (riem, g)."""
    from fractions import Fraction
    import numpy as np
    riem = cv.riemann(jet)
    got = [cv.christoffel(jet), riem.lowered]
    try:
        ric, scalar = cv.ricci(riem, jet.g)
        got += [ric.matrix, scalar, cv.einstein_raised(riem, jet.g).matrix,
                cv.cross_curvature(riem, jet.g).matrix]
    except InternalConsistencyError:
        pass
    exact = [np.ravel(np.array(value, dtype=object)).tolist() for value in _exact_pointwise(jet)]
    return [float(max(abs(Fraction(x) - y) for x, y in zip(np.ravel(value).tolist(), want))
                  / (max(map(abs, want)) or 1)) for value, want in zip(got, exact)]


# The one reference for the symbol matrices: `engine_symbol` rebuilds them
# column by column from the curvature engine's linear response, not from a
# second copy of the formula that `symbol.symbol_stacks` assembles them from.

def matrix_of(op) -> np.ndarray:
    """6x6 matrix of a linear map on symmetric tensors, built column by column."""
    import numpy as np
    return np.column_stack([cv.pack(op(cv.unpack(row))) for row in np.eye(6)])


def engine_symbol(jet: cv.MetricJet, epsilon: float, rho: float,
                  xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw symbol and gauge term at covector xi (used as given) of the flow
    F = -2 eps h + 2 rho R g linearised at `jet`, whose metric must be the
    identity; `symbol.symbol_stacks(eps P, rho, xi)` must return both, with
    P = `einstein_raised` at the jet.  A variation m enters as
    d_k d_l g_ij += s xi_k xi_l m_ij, and F is at most quadratic in the
    second derivatives, so (F(+1) - F(-1)) / 2 is its exact linear response.
    The gauge term is minus the principal part of L_W g, W^k = g^ij
    Gamma^k_ij, which at g = I needs no g^-1: d_a Gamma^k_ij is half the
    bracket d_a (d_i g_jk + d_j g_ik - d_k g_ij) of the variation."""
    import numpy as np
    g = jet.g
    if g.components.tolist() != [1.0, 0.0, 0.0, 1.0, 1.0, 0.0]:
        raise DomainError("engine_symbol linearises at a jet whose metric is the identity")
    xixi = cv.pack(np.outer(xi, xi))

    def flow_rhs(ddg: np.ndarray) -> np.ndarray:
        riem = cv.riemann(cv.MetricJet(g, jet.dg, ddg))
        return (-2.0 * epsilon * cv.cross_curvature(riem, g).matrix
                + 2.0 * rho * cv.ricci(riem, g)[1] * g.matrix)

    def raw(m: np.ndarray) -> np.ndarray:
        step = np.outer(xixi, cv.pack(m))
        return 0.5 * (flow_rhs(jet.ddg + step) - flow_rhs(jet.ddg - step))

    def gauge(m: np.ndarray) -> np.ndarray:
        # [a, l, i, j] = d_a d_l g_ij of the variation alone, in which the
        # principal part of L_W g is linear
        s = cv.MetricJet(g, jet.dg, np.outer(xixi, cv.pack(m))).ddg_full
        # [a, k, i, j] = d_a Gamma^k_ij, and d_a W^k = d_a Gamma^k_ii, lowered by g = I
        dw = np.einsum("akii->ak", 0.5 * (np.einsum("aijk->akij", s)
                                          + np.einsum("ajik->akij", s) - s))
        return -(dw + dw.T)

    return matrix_of(raw), matrix_of(gauge)


# ---------------------------------------------------------------------------
# tensor_core suite

@_check("tensor_core", "mu_contraction_identity", default_cases=50)
def _mu_contraction(rng, cases):
    import numpy as np
    eye = np.eye(3)
    expected = np.einsum("il,jm->ijlm", eye, eye) - np.einsum("im,jl->ijlm", eye, eye)
    worst = 0.0
    for _ in range(cases):
        mu_lo, mu_up = cv.volume_form(_random_spd(rng, scale=float(rng.uniform(0.2, 3.0))))
        contracted = np.einsum("ijk,lmk->ijlm", mu_lo, mu_up)
        worst = max(worst, float(np.abs(contracted - expected).max()))
    return _verdict(worst, 1e-12)


@_check("tensor_core", "volume_form_raising", default_cases=50)
def _volume_raising(rng, cases):
    import numpy as np
    worst = 0.0
    for _ in range(cases):
        g = _random_spd(rng)
        mu_lo, mu_up = cv.volume_form(g)
        ginv = np.linalg.inv(g.matrix)
        raised = np.einsum("ip,jq,kr,pqr->ijk", ginv, ginv, ginv, mu_lo)
        worst = max(worst, float(np.abs(raised - mu_up).max()))
    return _verdict(worst, 1e-12)


@_check("tensor_core", "cross_curvature_triple_agreement", default_cases=1000)
def _triple_agreement(rng, cases):
    worst = 0.0
    for _ in range(cases):
        riem, g = _frame_data(rng, _random_frame(rng))
        worst = max(worst, cv.cross_curvature_forms(riem, g).max_pairwise_dev)
    return _verdict(worst, 1e-10, "max pairwise rel dev")


@_check("tensor_core", "cross_curvature_eigenvalue_law", default_cases=1000)
def _h_eigenvalue_law(rng, cases):
    worst = 0.0
    for _ in range(cases):
        a, b, c = abc = _random_frame(rng)
        riem, g = _frame_data(rng, abc)
        worst = max(worst, _eigenvalue_dev(cv.cross_curvature(riem, g), g, [b * c, a * c, a * b]))
    return _verdict(worst, 1e-10)


@_check("tensor_core", "ricci_eigenvalue_law", default_cases=1000)
def _ricci_eigenvalue_law(rng, cases):
    worst = 0.0
    for _ in range(cases):
        abc = _random_frame(rng)
        riem, g = _frame_data(rng, abc)
        ric, scalar = cv.ricci(riem, g)
        a, b, c = abc
        worst = max(worst, _eigenvalue_dev(ric, g, [b + c, a + c, a + b]))
        worst = max(worst, abs(scalar - 2.0 * (a + b + c)) / max(abs(scalar), 1.0))
    return _verdict(worst, 1e-10)


@_check("tensor_core", "cross_curvature_homogeneity", default_cases=200)
def _homogeneity(rng, cases):
    worst = 0.0
    for _ in range(cases):
        kappa = float(rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0]))
        g = _random_spd(rng)
        s = float(rng.uniform(0.1, 10.0))
        h1 = cv.cross_curvature(cv.Riemann3.space_form(kappa, g), g).matrix
        g2 = cv.SymTensor3(s * g.components)
        h2 = cv.cross_curvature(cv.Riemann3.space_form(kappa / s, g2), g2).matrix
        scale = max(abs(h1).max(), 1e-300)
        worst = max(worst, float(abs(h2 - h1 / s).max() / scale))
    return _verdict(worst, 1e-9, "max rel dev of h(s g) vs h(g)/s")


@_check("tensor_core", "positive_definite_propagation", default_cases=300)
def _positivity(rng, cases):
    worst = math.inf
    for _ in range(cases):
        abc = rng.uniform(0.01, 5.0, 3)
        riem, g = _frame_data(rng, abc)
        p = cv.einstein_raised(riem, g)
        h = cv.cross_curvature(riem, g)
        worst = min(worst, float(cv.generalized_eigh(p, g)[0][0]),
                    float(cv.generalized_eigh(h, g)[0][0]))
    return worst > 0.0, f"min generalized eigenvalue {worst:.3e} (must be > 0)"


@_check("tensor_core", "eigen_frame_reconstruction", default_cases=200)
def _eigen_frame_rebuild(rng, cases):
    import numpy as np
    worst = 0.0
    for _ in range(cases):
        p = cv.SymTensor3(_random_spd(rng).components, "upper")
        g = _random_spd(rng)
        frame, vecs = cv.eigen_frame(p, g)
        rebuilt = (vecs * frame.as_array()) @ vecs.T
        scale = max(np.abs(p.matrix).max(), 1.0)
        worst = max(worst, float(np.abs(rebuilt - p.matrix).max() / scale))
        gram = vecs.T @ g.matrix @ vecs
        worst = max(worst, float(np.abs(gram - np.eye(3)).max()))
    return _verdict(worst, 1e-10)


@_check("tensor_core", "chart_jet_scalar_curvature", default_cases=20)
def _chart_jet_fd(rng, cases):
    errs = {1e-3: [], 5e-4: []}
    points = [(float(rng.choice([1.0, -1.0])), rng.uniform(-0.9, 0.9, 3))
              for _ in range(cases)]
    for step in errs:
        for kappa, x in points:
            jet = cv.jet_from_function(cv.space_form_chart(kappa), x, step=step)
            _, scalar = cv.ricci(cv.riemann(jet), jet.g)
            errs[step].append(abs(scalar - 6.0 * kappa))
    coarse, fine = max(errs[1e-3]), max(errs[5e-4])
    ratio = coarse / fine
    ok = coarse < 1e-5 and 2.0 <= ratio <= 8.0
    return ok, (f"max |R - 6 kappa| {coarse:.3e} at step 1e-3 (tol 1e-5), "
                f"improvement x{ratio:.2f} at 5e-4 (need 2..8)")


def reference_chart_jet(kappa: float, x: np.ndarray) -> cv.MetricJet:
    """The conformal chart's jet from its hand-derived derivatives: with
    u = 1 + kappa |x|^2 / 4, g_ij = delta_ij / u^2,
    d_k g_ij = -delta_ij kappa x_k / u^3 and
    d_k d_l g_ij = -delta_ij kappa (delta_kl / u^3 - 3/2 kappa x_k x_l / u^4).
    `curvature.space_form_chart_jet` must match it to rounding."""
    import numpy as np
    # |x|^2 summed in the chart's order: the two share u, and the check sees
    # the rounding of the derivatives alone
    u = 1.0 + kappa * sum(v * v for v in x.tolist()) / 4.0
    eye = np.eye(3)
    dg = np.multiply.outer(-kappa * x / u**3, eye)
    ddg = np.multiply.outer(-kappa * (eye / u**3 - 1.5 * kappa * np.outer(x, x) / u**4), eye)
    return cv.MetricJet.from_full(eye / u**2, dg, ddg)


@_check("tensor_core", "chart_jet_matches_hand_formulas", default_cases=1000)
def _chart_jet_reference(rng, cases):
    worst = 0.0
    for n in range(cases):
        kappa = (-1.0) ** n * float(rng.uniform(0.05, 3.0))
        x = rng.uniform(-0.4, 0.4, 3)
        got, want = cv.space_form_chart_jet(kappa, x), reference_chart_jet(kappa, x)
        pairs = ((got.g.components, want.g.components), (got.dg, want.dg), (got.ddg, want.ddg))
        scale = max(float(abs(b).max()) for _, b in pairs)
        worst = max(worst, max(float(abs(a - b).max()) for a, b in pairs) / scale)
    return _verdict(worst, 1e-15, "max dev relative to the largest entry")


@_check("tensor_core", "pointwise_matches_exact", default_cases=20)
def _pointwise_exact(rng, cases):
    # gated at 1e-13: generic jets (independent uniform derivatives, so no
    # identity beyond the algebraic ones holds by construction) and chart
    # points |x| <= 1.  Reported until a rounding bound gates them (ROADMAP
    # item 13): generic jets on rotated diag(1, 10^(k/2), 10^k), where the
    # error grows like cond(g) u and the pair check refuses from cond 1e5-1e6
    # on (item 3), and sphere chart points, where R cancels by |x|^2
    generic = lambda g: cv.MetricJet(g, rng.uniform(-1, 1, (3, 6)), rng.uniform(-1, 1, (6, 6)))
    unit = lambda: _random_rotation(rng)[0]  # a random unit vector
    families = {
        f"on {cases} jets and {cases} chart points |x| <= 1":
            [generic(_random_spd(rng)) for _ in range(cases)]
            + [cv.space_form_chart_jet((-1.0) ** n * float(rng.uniform(0.05, 3.0)),
                                       rng.uniform(0.05, 1.0) * unit()) for n in range(cases)],
        "not gated, cond(g) 1..1e12": [generic(cv.SymTensor3(cv.pack(
            (q * [1.0, 10.0 ** (k / 2), 10.0 ** k]) @ q.T))) for k in range(13)
            for q in [_random_rotation(rng)]],
        "chart |x| 10..1e7": [cv.space_form_chart_jet(1.0, 10.0 ** k * unit())
                              for k in range(1, 8)],
    }
    parts = []
    for label, jets in families.items():
        devs = [_deviations_from_exact(jet) for jet in jets]
        worst = [max(d[n] for d in devs if len(d) > n) for n in range(max(map(len, devs)))]
        refused = sum(len(d) < 6 for d in devs)
        if not parts:  # the gated family
            passed = refused == 0 and max(worst) <= 1e-13
        parts.append(f"{label}: " + ", ".join(
            f"{name} {w:.1e}" for name, w in zip(("Gamma", "R_ijkl", "Ric", "R", "P", "h"), worst))
            + (f" ({refused} of {len(jets)} pairs refused)" if refused else ""))
    return passed, "max dev / scale (tol 1e-13) " + "; ".join(parts)


@_check("tensor_core", "jacobi_matches_eigh", default_cases=2000)
def _jacobi_reference(rng, cases):
    import numpy as np
    # the library's Jacobi eigensolve, through generalized_eigh at g = I,
    # against numpy's eigh on Q diag(lam) Q^T: lam random (case 0 mod 4),
    # repeated (1), split by 1e-9 (2), or random times 1e150 or 1e-150 (3).
    # Eigenvalues are held to the spectral scale max |lam|; where the gaps
    # are at least 1e-3 of it, each eigenvector too, the angle times the gap
    g = cv.SymTensor3.identity()
    worst = 0.0
    for n in range(cases):
        lam = rng.uniform(-1.0, 1.0, 3)
        if n % 4 == 1:
            lam[1] = lam[0]
        elif n % 4 == 2:
            lam[1] = lam[0] * (1.0 + 1e-9)
        elif n % 4 == 3:
            lam *= 1e150 if n % 8 == 3 else 1e-150
        q = _random_rotation(rng)
        m = (q * lam) @ q.T
        comps = [m[i, j] for i, j in cv.COMPONENT_ORDER]
        got, vecs = cv.generalized_eigh(cv.SymTensor3(comps, "upper"), g)
        want, ref = np.linalg.eigh(cv.unpack(comps))
        scale = float(np.abs(want).max())
        worst = max(worst, float(np.abs(got - want).max()) / scale)
        gap = float(np.diff(want).min()) / scale
        if gap >= 1e-3:
            turn = np.minimum(*(np.linalg.norm(vecs - s * ref, axis=0) for s in (1.0, -1.0)))
            worst = max(worst, float(turn.max()) * gap)
    return _verdict(worst, 1e-13, "max eigenvalue dev / max |lam| and eigenvector angle x gap")


# ---------------------------------------------------------------------------
# symbol suite

@_check("symbol", "spectrum_closed_form", default_cases=1000)
def _spectrum_closed_form(rng, cases):
    import numpy as np
    from . import symbol as sb
    # at a random unit xi the raw spectrum is {0, 0, 0, q, q, q - 4 rho} and
    # the gauge-fixed one {1, 1, 1, q, q, q - 4 rho}, q = xi^T P xi; every
    # fourth case sits at the threshold rho = q / 4, where an eigenvalue of
    # B meets the structural zeros
    worst = 0.0
    for i in range(cases):
        m = rng.uniform(-5.0, 5.0, (3, 3))
        pm = 0.5 * (m + m.T)
        p = cv.SymTensor3.from_matrix(pm, "upper")
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
        q = float(xi @ pm @ xi)
        rho = q / 4.0 if i % 4 == 3 else float(rng.uniform(-2.0, 2.0))
        raw = sb.spectrum(sb.symbol_raw(p, rho, xi))
        expect_raw = np.sort([0.0, 0.0, 0.0, q, q, q - 4.0 * rho])
        mod = sb.spectrum(sb.symbol_modified(p, rho, xi))
        expect_mod = np.sort([1.0, 1.0, 1.0, q, q, q - 4.0 * rho])
        dev = max(float(np.abs(raw - expect_raw).max()), float(np.abs(mod - expect_mod).max()))
        worst = max(worst, dev / max(1.0, abs(q), abs(rho)))
    return _verdict(worst, 1e-12, "max dev / max(1, |q|, |rho|)")


@_check("symbol", "linearisation_matches_engine", default_cases=30)
def _linearisation(rng, cases):
    import numpy as np
    from . import symbol as sb
    # case i: a random jet at g = I, eps = +1 for even i and -1 for odd i,
    # rho = 0 for i % 4 < 2 and random otherwise; xi = e1 and four random
    # unit directions, both stacks from one batched call
    g = cv.SymTensor3.identity()
    worst = [0.0, 0.0]
    for i in range(cases):
        epsilon = 1.0 if i % 2 == 0 else -1.0
        rho = 0.0 if i % 4 < 2 else float(rng.uniform(-2.0, 2.0))
        jet = cv.MetricJet(g, rng.uniform(-1.0, 1.0, (3, 6)), rng.uniform(-1.0, 1.0, (6, 6)))
        p = cv.einstein_raised(cv.riemann(jet), g)
        xis = np.vstack([[1.0, 0.0, 0.0], rng.normal(size=(4, 3))])
        xis[1:] /= np.linalg.norm(xis[1:], axis=1, keepdims=True)
        stacks = sb.symbol_stacks(cv.SymTensor3(epsilon * p.components, "upper"), rho, xis)
        for xi, raw, gauge in zip(xis, *stacks):
            scale = max(1.0, float(np.abs(raw).max()))
            raw_ref, gauge_ref = engine_symbol(jet, epsilon, rho, xi)
            worst[0] = max(worst[0], float(np.abs(raw - raw_ref).max()) / scale)
            worst[1] = max(worst[1], float(np.abs(gauge - gauge_ref).max()) / scale)
    return max(worst) <= 1e-12, (
        f"max dev / symbol scale: raw {worst[0]:.1e}, gauge {worst[1]:.1e} (tol 1e-12) "
        f"over {5 * cases} directions of {cases} jets, xi = e1 in each")


@_check("symbol", "rotation_equivariance", default_cases=100)
def _rotation_equivariance(rng, cases):
    import numpy as np
    from . import symbol as sb
    worst = 0.0
    for _ in range(cases):
        m = rng.uniform(-3.0, 3.0, (3, 3))
        pm = 0.5 * (m + m.T)
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
        rho = float(rng.uniform(-2.0, 2.0))
        q = _random_rotation(rng)
        base = sb.spectrum(sb.symbol_raw(cv.SymTensor3.from_matrix(pm, "upper"), rho, xi))
        moved = sb.spectrum(sb.symbol_raw(
            cv.SymTensor3.from_matrix(q @ pm @ q.T, "upper"), rho, q @ xi))
        worst = max(worst, float(np.abs(base - moved).max()))
    return _verdict(worst, 1e-9)


@_check("symbol", "xi_quadratic_homogeneity", default_cases=100)
def _xi_homogeneity(rng, cases):
    import numpy as np
    from . import symbol as sb
    exact_failures = 0
    for _ in range(cases):
        m = rng.uniform(-3.0, 3.0, (3, 3))
        p = cv.SymTensor3.from_matrix(0.5 * (m + m.T), "upper")
        xi = rng.normal(size=3)
        rho = float(rng.uniform(-2.0, 2.0))
        s = float(rng.choice([0.25, 0.5, 2.0, 4.0, 8.0]))  # powers of two scale exactly
        for base, scaled in zip(sb.symbol_stacks(p, rho, xi[None]),
                                sb.symbol_stacks(p, rho, s * xi[None])):
            exact_failures += not np.array_equal(scaled, s * s * base)
    return exact_failures == 0, f"{exact_failures} exact-scaling failures (need 0)"


@_check("symbol", "rho_term_linearity", default_cases=100)
def _rho_reduction(rng, cases):
    import numpy as np
    from . import symbol as sb
    e1 = np.array([1.0, 0.0, 0.0])
    zero_p = cv.SymTensor3(np.zeros(6), "upper")
    if np.abs(sb.symbol_raw(zero_p, 0.0, e1).entries).max() != 0.0:
        return False, "symbol of zero data at rho=0 is not identically zero"
    worst = 0.0
    for _ in range(cases):
        m = rng.uniform(-3.0, 3.0, (3, 3))
        p = cv.SymTensor3.from_matrix(0.5 * (m + m.T), "upper")
        xi = rng.normal(size=3)
        rho = float(rng.uniform(-2.0, 2.0))
        full = sb.symbol_raw(p, rho, xi).entries
        p_part = sb.symbol_raw(p, 0.0, xi).entries
        rho_part = sb.symbol_raw(zero_p, rho, xi).entries
        worst = max(worst, float(np.abs(full - p_part - rho_part).max()))
    return _verdict(worst, 1e-13, "max dev from rho-linearity split")


@_check("symbol", "parabolicity_threshold_bisection")
def _threshold_bisection():
    from . import symbol as sb
    g = cv.SymTensor3.identity()
    p = cv.SymTensor3.identity("upper")
    below = sb.parabolicity(p, g, 0.24)
    above = sb.parabolicity(p, g, 0.26)
    if below.verdict != "strictly_parabolic_deturck" or above.verdict == "strictly_parabolic_deturck":
        return False, (f"verdicts off bracket: rho=0.24 {below.verdict}, "
                       f"rho=0.26 {above.verdict}")
    lo, hi = 0.24, 0.26
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        rep = sb.parabolicity(p, g, mid)
        if rep.verdict == "strictly_parabolic_deturck":
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    err = abs(crossing - 0.25)
    return err < 1e-6, f"bisected crossing {crossing!r}, |err| {err:.2e} (tol 1e-6)"


@_check("symbol", "sphere_threshold_from_engine")
def _sphere_threshold():
    from . import symbol as sb
    g = cv.SymTensor3.identity()
    riem = cv.Riemann3.space_form(1.0, g)
    p = cv.einstein_raised(riem, g)
    rep = sb.parabolicity(p, g, 0.0)
    ok = (abs(rep.threshold - 0.25) < 1e-12 and abs(rep.margin - 0.25) < 1e-12
          and rep.verdict == "strictly_parabolic_deturck")
    return ok, f"threshold {rep.threshold!r}, margin {rep.margin!r}, {rep.verdict}"


@_check("symbol", "deflated_spectra_match_full_solve", default_cases=80)
def _deflated_spectra(rng, cases):
    import numpy as np
    from . import symbol as sb
    # {0,0,0} + spec B and {1,1,1} + spec B, B solved as the library solves it,
    # against the full 6x6 solve of the raw and gauge-fixed stacks.  The case
    # sign s enters the sweep only through the folded s P = Q diag(lam) Q^T,
    # drawn here with lam of either sign.  Case i draws lam and rho by kind
    # i % 4: random; random with rho = 0; rho within 1e-9 of the threshold
    # min(lam) / 4, where B has an eigenvalue near the three structural
    # zeros; lam near 1, where the gauge-fixed symbol has a five-fold
    # eigenvalue.  The tolerances bound the error of the reference: the
    # non-normal 6x6 solve splits an eigenvalue of B that meets a structural
    # one by about sqrt(machine eps), which random data approach in some
    # lattice directions.  The sweep is also the closed form's reference: no
    # block below min(lam, lam - 4 rho), {lam_i, lam_i, lam_i - 4 rho} at the
    # eigenvectors, and `parabolicity` on a random SPD g returns its minimum.
    # There the Householder frames are also the reference of the frames
    # (v_n, v_{n+1}, v_{n+2}) that `parabolicity` takes: equal spectra and skew norms
    labels = ("random", "rho = 0", "near threshold", "five-fold", "closed form",
              "eigenvector frames")
    tols = (1e-8, 1e-8, 1e-7, 1e-10, 1e-12, 1e-12)
    worst = [0.0] * 6
    lattice = sb.unit_directions(sb.DEFAULT_DIRECTION_SAMPLES)
    for i in range(cases):
        kind = i % 4
        q = _random_rotation(rng)
        if kind == 2:
            lam = rng.uniform(0.1, 5.0, 3)
            rho = lam.min() / 4.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15, -9)
        elif kind == 3:
            lam = 1.0 + rng.uniform(-1e-12, 1e-12, 3)
            rho = rng.uniform(-2.0, 2.0)
        else:
            lam = rng.uniform(-5.0, 5.0, 3)
            rho = rng.uniform(-2.0, 2.0) if kind == 0 else 0.0
        directions = np.vstack([lattice, q.T])
        raw, gauge = sb.symbol_stacks(cv.SymTensor3.from_matrix((q * lam) @ q.T, "upper"),
                                      float(rho), directions)
        blocks, raw_scale = sb.quotient_blocks(raw, gauge, directions)
        framed_blocks = sb._frame_blocks(raw[-3:], gauge[-3:], q.T[sb._CYCLIC])[0]
        # eigenvalues of each block's symmetric part, and its skew norm
        (quotient, skew), (framed, framed_skew) = (
            (np.linalg.eigvalsh(0.5 * b + 0.5 * b.swapaxes(1, 2)), sb._skew_norms(b))
            for b in (blocks, framed_blocks))
        worst[5] = max(worst[5], float(max(np.abs(framed - quotient[-3:]).max(),
                                           np.abs(framed_skew - skew[-3:]).max())) / raw_scale)
        for structural, full in ((0.0, raw), (1.0, raw - gauge)):
            deflated = np.sort(np.hstack([np.full((len(directions), 3), structural),
                                          quotient]), axis=1)
            reference = np.sort(np.linalg.eigvals(full).real, axis=1)
            worst[kind] = max(worst[kind],
                              float(np.abs(deflated - reference).max()) / raw_scale)
        g = _random_spd(rng)
        inv = np.linalg.inv(np.linalg.cholesky(g.matrix))
        p = cv.SymTensor3.from_matrix(inv.T @ (q * lam) @ q.T @ inv, "upper")
        swept = sb.parabolicity(p, g, float(rho)).min_modified_eig - min(1.0, quotient.min())
        closed = np.sort(np.column_stack([lam, lam, lam - 4.0 * rho]), axis=1)
        dev = max(closed.min() - quotient[:-3].min(), np.abs(quotient[-3:] - closed).max(), abs(swept))
        worst[4] = max(worst[4], float(dev) / raw_scale)
    passed = all(w <= tol for w, tol in zip(worst, tols))
    return passed, "max dev / symbol scale: " + ", ".join(
        f"{label} {w:.1e} (tol {tol:.0e})" for label, w, tol in zip(labels, worst, tols))


@_check("symbol", "parabolicity_rotated_anisotropic_threshold", default_cases=50)
def _rotated_anisotropic(rng, cases):
    import numpy as np
    from . import symbol as sb
    # P = s Q diag(0.2, 5, 5) Q^T puts the critical direction off any fixed
    # lattice; rho 1e-3 above the threshold 0.05 must not come back strict
    g = cv.SymTensor3.identity()
    lam = np.array([0.2, 5.0, 5.0])
    floor = sb.STRICTNESS_FLOOR
    wrong = 0
    for _ in range(cases):
        q = _random_rotation(rng)
        for sign in (1, -1):
            p = cv.SymTensor3.from_matrix(sign * (q * lam) @ q.T, "upper")
            for rho in (lam.min() / 4.0 - 1e-3, lam.min() / 4.0 + 1e-3):
                strict = lam.min() >= floor and lam.min() - 4.0 * rho >= floor
                rep = sb.parabolicity(p, g, rho, case=sign)
                wrong += (rep.verdict == "strictly_parabolic_deturck") != strict
    return wrong == 0, f"{wrong} of {4 * cases} verdicts disagree with the closed form (need 0)"


# ---------------------------------------------------------------------------
# flow suite

_RHS_GRID_C = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
_RHS_GRID_LAM = (0.5, 1.0, 2.0, -0.5, -1.0, -2.0)
_RHS_GRID_RHO = (-0.2, 0.0, 0.1, 1.0 / 6.0)


@_check("flow", "rhs_engine_agreement")
def _rhs_agreement():
    worst = 0.0
    for c, lam, rho in itertools.product(_RHS_GRID_C, _RHS_GRID_LAM, _RHS_GRID_RHO):
        params = fl.FlowParams(rho=rho, epsilon=1 if lam > 0 else -1, lam=lam, dt=1e-4,
                               t_end=1.0)
        a = fl.einstein_rhs(c, params)
        b = fl.engine_rhs(c, params)
        # relative to the larger of the two terms lam^2 / (2c) and
        # 6 rho lam, not to a and b: at an equilibrium both are 0
        terms = max(lam**2 / (2.0 * c), abs(6.0 * rho * lam))
        worst = max(worst, abs(a - b) / terms)
    return _verdict(worst, 1e-10, "max dev over grid, relative to the larger RHS term")


def _sphere_params(dt=1e-4, t_end=0.2):
    return fl.FlowParams(rho=0.0, epsilon=+1, lam=2.0, dt=dt, t_end=t_end)


def _hyperbolic_params(dt=1e-3, t_end=2.0):
    return fl.FlowParams(rho=0.0, epsilon=-1, lam=-2.0, dt=dt, t_end=t_end)


@_check("flow", "integration_sphere_accuracy")
def _sphere_accuracy():
    trace = fl.integrate(_sphere_params())
    err = abs(trace.records[-1].c - math.sqrt(0.2))
    return err < 1e-8, f"|c(0.2) - sqrt(0.2)| = {err:.3e} (tol 1e-8)"


@_check("flow", "integration_hyperbolic_accuracy")
def _hyperbolic_accuracy():
    trace = fl.integrate(_hyperbolic_params())
    err = abs(trace.records[-1].c - 3.0)
    return err < 1e-7, f"|c(2) - 3| = {err:.3e} (tol 1e-7)"


@_check("flow", "rk4_convergence_order")
def _convergence_order():
    exact = math.sqrt(0.2)
    errs = [abs(fl.integrate(_sphere_params(dt=dt)).records[-1].c - exact)
            for dt in (2e-3, 1e-3, 5e-4)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    ok = all(abs(o - 4.0) <= 0.2 for o in orders)
    return ok, "observed orders " + ", ".join(f"{o:.3f}" for o in orders) + " (need 4.0 +/- 0.2)"


@_check("flow", "einstein_preservation")
def _einstein_preservation():
    worst = 0.0
    for params in (_sphere_params(), _hyperbolic_params()):
        trace = fl.integrate(params)
        for record in trace.records:
            worst = max(worst, fl.einstein_residual(record, params))
    return _verdict(worst, 1e-10, "max ||Ric - (R/3) g||_g")


@_check("flow", "trace_scalar_curvature_identity")
def _trace_identity():
    worst = 0.0
    for params in (_sphere_params(), _hyperbolic_params()):
        trace = fl.integrate(params)
        for record in trace.records:
            worst = max(worst, abs(record.scalar_curvature * record.c - 3.0 * params.lam))
    return _verdict(worst, 1e-12, "max |R c - 3 lam|")


@_check("flow", "monotone_sign_behavior")
def _sign_behavior():
    shrink = [r.c for r in fl.integrate(_sphere_params()).records]
    grow = [r.c for r in fl.integrate(_hyperbolic_params()).records]
    ok = (all(b < a for a, b in zip(shrink, shrink[1:]))
          and all(b > a for a, b in zip(grow, grow[1:])))
    return ok, "shrinking run strictly decreasing, growing run strictly increasing"


@_check("flow", "parabolic_rescaling_covariance")
def _rescaling():
    s = 2.0
    base = fl.integrate(fl.FlowParams(rho=0.0, epsilon=+1, lam=1.0, dt=1e-3, t_end=0.4),
                        record_every=50)
    scaled = fl.integrate(fl.FlowParams(rho=0.0, epsilon=+1, lam=s * 1.0,
                                        dt=1e-3 / s**2, t_end=0.4 / s**2),
                          record_every=50)
    worst = 0.0
    for r1, r2 in zip(base.records, scaled.records):
        worst = max(worst, abs(r1.t - s**2 * r2.t), abs(r1.c - r2.c))
    return _verdict(worst, 1e-7, "max |c(t) - c_scaled(t/s^2)|")


@_check("flow", "extinction_detection")
def _extinction():
    trace = fl.integrate(fl.FlowParams(rho=0.0, epsilon=+1, lam=2.0, dt=1e-4, t_end=0.3))
    if trace.status != "extinct" or trace.extinction_time is None:
        return False, f"expected extinct status, got {trace.status}"
    err = abs(trace.extinction_time - 0.25)
    flagged = any("extinct" in r.events for r in trace.records)
    return err < 5e-3 and flagged, (
        f"extinction at t = {trace.extinction_time!r}, |err| {err:.2e} (tol 5e-3)")


@_check("flow", "equilibrium_steady_state")
def _equilibrium():
    params = fl.FlowParams(rho=1.0 / 6.0, epsilon=+1, lam=2.0, dt=1e-3, t_end=0.1)
    trace = fl.integrate(params)
    drift = max(abs(r.c - 1.0) for r in trace.records)
    flagged = any("steady_state" in r.events for r in trace.records)
    return drift < 1e-12 and flagged, f"max |c - 1| = {drift:.3e}, steady flag {flagged}"


@_check("flow", "scalar_coupling_slows_shrinking")
def _rho_comparison():
    fast = fl.integrate(_sphere_params(dt=1e-4, t_end=0.2), record_every=200)
    slow = fl.integrate(fl.FlowParams(rho=1.0 / 6.0 - 1e-3, epsilon=+1, lam=2.0,
                                      dt=1e-4, t_end=0.2), record_every=200)
    pairs = list(zip(fast.records[1:], slow.records[1:]))
    ok = all(s.c > f.c for f, s in pairs) and all(s.c < 1.0 for _, s in pairs)
    return ok, "coupled run shrinks monotonically but slower at every record"


@_check("flow", "integrate_matches_reference_replay")
def _replay():
    """`integrate` repeats `_rk4_step` and `_record` inline; replay a run that
    records every step against the named step and the record builder."""
    # at most a few hundred steps a run: each one is a record held until
    # the run is replayed, and `verify --suite flow` keeps its peak memory
    coupled = fl.FlowParams(rho=0.1, epsilon=+1, lam=1.0, dt=1e-2, t_end=2.0)
    runs = (  # (params, halt, expected status)
        (fl.FlowParams(rho=0.0, epsilon=+1, lam=1.0, dt=1e-2, t_end=2.0), False, "extinct"),
        (coupled, False, "completed"),
        (coupled, True, "parabolicity_lost"),
        (fl.FlowParams(rho=1.0 / 6.0, epsilon=+1, lam=2.0, dt=1e-3, t_end=0.1), False,
         "completed"),
        (_hyperbolic_params(dt=1e-2), False, "completed"),
        (_sphere_params(dt=1e-3, t_end=0.0105), False, "completed"),
    )
    steps = records = differ = 0
    crossing_rejected = statuses_ok = True
    for params, halt, status in runs:
        trace = fl.integrate(params, record_every=1, halt_on_parabolicity_loss=halt)
        statuses_ok &= trace.status == status
        recs = trace.records
        replayed = recs[1:-1] if trace.status == "extinct" else recs[1:]
        for prev, rec in zip(recs, replayed):
            ref = fl._rk4_step(prev.c, rec.t - prev.t, params)
            steps += 1
            differ += ref is None or ref.hex() != rec.c.hex()
        if trace.status == "extinct":
            # the final record is the bisected crossing; the full step that
            # crossed C_MIN must be rejected by the named step as well
            prev = recs[-2]
            dt = min((trace.steps + 1) * params.dt, params.t_end) - prev.t
            ref = fl._rk4_step(prev.c, dt, params)
            crossing_rejected &= ref is None or ref <= fl.C_MIN
        for rec in recs:
            expect = fl._record(rec.t, rec.c, params, rec.events)
            records += 1
            differ += any(x.hex() != y.hex() for x, y in zip(rec[2:5], expect[2:5]))
    ok = differ == 0 and crossing_rejected and statuses_ok
    return ok, (f"{differ} of {steps} steps and {records} records differ from _rk4_step "
                f"and _record at tolerance 0; crossing step rejected: {crossing_rejected}, "
                f"statuses as expected: {statuses_ok}")


# ---------------------------------------------------------------------------
# cli suite (round-trip and determinism of the emitters)

@_check("cli", "output_determinism")
def _determinism():
    from . import cli
    trace = fl.integrate(_sphere_params(dt=1e-3, t_end=0.1), record_every=20)
    blobs = set()
    for _ in range(2):
        buf, jbuf = io.StringIO(), io.StringIO()
        cli.write_trace_csv(buf, trace)
        cli.write_trace_json(jbuf, trace)
        blobs.add(buf.getvalue() + "\x00" + jbuf.getvalue())
    return len(blobs) == 1, "two emissions byte-identical" if len(blobs) == 1 else "emissions differ"


@_check("cli", "csv_float_roundtrip")
def _roundtrip():
    from . import cli
    trace = fl.integrate(_sphere_params(dt=1e-3, t_end=0.1), record_every=20)
    buf = io.StringIO()
    cli.write_trace_csv(buf, trace)
    header, *rows = [ln.split(",") for ln in buf.getvalue().splitlines()
                     if ln and not ln.startswith("#")]
    # the leading float columns t, c, R, h_eig and parab_margin, one row per record
    exact = header[:5] == ["t", "c", "R", "h_eig", "parab_margin"] and len(rows) == len(
        trace.records) and all(list(map(float, row[:5])) == list(record[:5])
                               for row, record in zip(rows, trace.records))
    return exact, "re-parsed floats bit-identical" if exact else "round-trip mismatch"


@_check("cli", "strict_config_parsing")
def _strict_config():
    from . import cli
    for options, key in (({"flow.rho": "0.0", "flow.bogus_key": "1"}, "flow.bogus_key"),
                         ({"flow.rho": "0.0", "flow.epsilon": "1"}, "lambda")):
        try:
            cli.collect_options("flow", options)
            return False, f"{options} accepted"
        except cli.UsageError as exc:
            if key not in str(exc):
                return False, f"the error for {options} does not name {key}"
    return True, "unknown and missing keys rejected by name"
