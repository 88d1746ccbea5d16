"""The stated parabolicity bound, direction_samples' range and the parser
of real-number parameters, without numpy.

`symbol` decides parabolicity with numpy; `flow`'s per-record margin and
the CLI's option table need only these, so they live here and `xcflow
flow` runs on the standard library alone.  `symbol` re-exports the bound
and the range.  `direction_samples` is range-checked and echoed in every
parabolicity report; it decides nothing.  `finite_real` reads rho in
`symbol`, every real parameter of `flow.FlowParams` and the curvature
scalars of `curvature`, `real_number` curvature's finite-difference step
and flow's scale factor, whose inf and nan their own tests name, `integer`
the counts of `symbol` and `flow`, and `flag` every library flag.
"""

import math
import operator

from .errors import DomainError

DEFAULT_DIRECTION_SAMPLES = 200
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


def is_bool(value) -> bool:
    """Whether `value` is a bool: Python's, numpy's or a bool array.  numpy's
    are told by their dtype's kind, so this module needs no numpy."""
    return (isinstance(value, bool)
            or getattr(getattr(value, "dtype", None), "kind", None) == "b")


def flag(value, name: str) -> bool:
    """`value` as a Python bool, or a DomainError "<name> must be a bool".
    Python's and numpy's bools pass; anything else is refused, since a truth
    test reads "no" as True and 0 as False."""
    if is_bool(value) and getattr(value, "size", 1) == 1:
        return bool(value)
    raise DomainError(f"{name} must be a bool, got {value!r}")


def real_number(value, name: str) -> float:
    """`value` as a float, inf and nan included, or a DomainError "<name>
    must be a real number within the float range".  A str, bytes or bool
    (numpy's too) is refused, though float() reads it ("0.1" as 0.1, True as
    1.0), as is what float() refuses (None, 1j) or overflows on (10**400)."""
    if not (isinstance(value, (str, bytes, bytearray)) or is_bool(value)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise DomainError(f"{name} must be a real number within the float range, got {value!r}")


def integer(value, name: str) -> int:
    """`value` as an int, or a DomainError "<name> must be an integer":
    operator.index refuses 2.5, nan and "3", and a bool (numpy's too) is
    refused, though operator.index reads Python's True as 1."""
    try:
        number = None if is_bool(value) else operator.index(value)
    except TypeError:
        number = None
    if number is None:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return number


def finite_real(value, name: str) -> float:
    """`value` as a finite float, or a DomainError "<name> must be a finite
    real number": what `real_number` refuses, and nan and +-inf."""
    try:
        number = real_number(value, name)
    except DomainError:
        number = math.nan
    if not math.isfinite(number):
        raise DomainError(f"{name} must be a finite real number, got {value!r}")
    return number
