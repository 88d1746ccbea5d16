"""The stated parabolicity bound and the sweep's size limits, without numpy.

`symbol` decides parabolicity with numpy; `flow`'s per-record margin and
the CLI's option table need only these, so they live here and `xcflow
flow` runs on the standard library alone.  `symbol` re-exports all three.
"""

DEFAULT_DIRECTION_SAMPLES = 200
# The sweep peaks at about 2.4 KB per direction (peak RSS grew by 115 MB
# at 50000 directions with numpy 2.4), so this bounds it near 120 MB; a
# larger request is refused before anything is built.  Of that, 456 B per
# direction (the directions, their K/T bases and T-duals, 23 MB at 50000)
# stays in `symbol`'s lattice cache after the query; the cache keeps at
# most four sizes, so at most 91 MB.  The verdict is exact at any lattice
# size, so more directions would buy nothing.
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
