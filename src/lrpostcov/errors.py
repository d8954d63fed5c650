"""Exception types shared across the package, and the number-type checks."""

from numbers import Real

import numpy as np


class InvalidConfigError(ValueError):
    """A parameter violates a documented precondition (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """A solver or factorization failed (CLI exit code 3)."""


def shown(value) -> str:
    """repr(value) for a refusal message, cut to 80 characters.

    An int past Python's str conversion limit (4300 digits), alone or inside
    a container, has no repr; a stand-in takes its place, so the refusal
    still raises the error it means.
    """
    try:
        text = repr(value)
    except ValueError:
        return "a value too long to print"
    return text if len(text) <= 80 else text[:77] + "..."


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int if it is a whole number >= least, else InvalidConfigError.

    31.0 and numpy integers qualify; a bool does not, although it compares
    equal to 0 or 1, nor an int past Python's str conversion limit, which
    no manifest could record.
    """
    try:
        if not isinstance(value, (bool, np.bool_)) and value == int(value) and value >= least:
            count = int(value)
            str(count)  # raises ValueError past the limit
            return count
    except (TypeError, ValueError, OverflowError):  # not a number, NaN, ±inf
        pass
    raise InvalidConfigError(f"{name} must be an integer >= {least}, got {shown(value)}")


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
    raise InvalidConfigError(f"{name} must be a real number, got {shown(value)}")
