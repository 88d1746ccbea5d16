"""The stated parabolicity bound and the sweep's size limits, without numpy.

`symbol` decides parabolicity with numpy; `flow`'s per-record margin and
the CLI's option table need only these, so they live here and `xcflow
flow` runs on the standard library alone.  `symbol` re-exports all three.
"""

DEFAULT_DIRECTION_SAMPLES = 200
# The sweep peaks at about 2.1 KB per direction (peak RSS grew by 106 MB
# at 50000 directions with numpy 2.4), so this bounds it near 110 MB; a
# larger request is refused before anything is built.  The verdict is exact
# at any lattice size, so more directions would buy nothing.
MAX_DIRECTION_SAMPLES = 50_000


def stated_threshold(lowest: float, highest: float, sign: int) -> float:
    """Stated sufficient bound on rho from the extreme eigenvalues of P:
    lowest / 4 in the positive case (sign +1), -highest / 2 in the
    negative case (sign -1)."""
    return lowest / 4.0 if sign > 0 else -highest / 2.0
