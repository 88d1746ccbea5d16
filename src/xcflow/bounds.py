"""The stated parabolicity bound and the lattice's size limits, without numpy.

`symbol` decides parabolicity with numpy; `flow`'s per-record margin and
the CLI's option table need only these, so they live here and `xcflow
flow` runs on the standard library alone.  `symbol` re-exports all three.
"""

DEFAULT_DIRECTION_SAMPLES = 200
# The first query at a lattice size peaks at about 90 B per direction
# (peak RSS grew by 4.4 MB at 50000 directions with numpy 2.4), of which
# 72 B stay in `symbol`'s caches: 24 B of unit directions and 48 B of
# their packed xi xi^T table, four sizes each, at most 14.4 MB.  The
# lattice only cross-checks the closed-form minimum, so more directions
# would buy nothing.
MAX_DIRECTION_SAMPLES = 50_000


def stated_threshold(lowest: float, highest: float, sign: int) -> float:
    """Stated bound on rho from the extreme eigenvalues of P: lowest / 4 in
    the positive case (sign +1), -highest / 2 in the negative case (sign -1).

    rho below it implies strict parabolicity only in the positive case with
    P positive definite, where it is the spectral bound.  In the negative
    case with P negative definite the spectral bound is -highest / 4, half
    of this one: P = -I with rho = 0.3 has margin +0.2 and is not parabolic.
    Unless sign * P is positive definite, no rho gives strict parabolicity.
    Whether
    -highest / 2 is the source paper's statement, a slip in transcribing it
    or a bound under another sign convention cannot be told from its
    abstract; `symbol.ParabolicityReport.spectral_margin` tracks the verdict.
    """
    return lowest / 4.0 if sign > 0 else -highest / 2.0
