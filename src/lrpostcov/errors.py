"""Exception types shared across the package, and the number-type checks."""

from numbers import Real

import numpy as np


class InvalidConfigError(ValueError):
    """A parameter violates a documented precondition (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """A solver or factorization failed (CLI exit code 3)."""


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int if it is a whole number >= least, else InvalidConfigError.

    31.0 and numpy integers qualify; a bool does not, although it compares
    equal to 0 or 1.
    """
    try:
        if not isinstance(value, (bool, np.bool_)) and value == int(value) and value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # not a number, NaN, ±inf
        pass
    raise InvalidConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def check_real(name: str, value) -> float:
    """``value`` as a float if it is a real number, else InvalidConfigError.

    Ints, floats and numpy reals qualify, NaN and ±inf too, since the owner
    checks the range; a bool, a string, None or an int beyond the float
    range (10**400) does not.
    """
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # its repr may be too long to print
            raise InvalidConfigError(f"{name} lies beyond the float range") from None
    raise InvalidConfigError(f"{name} must be a real number, got {value!r}")
