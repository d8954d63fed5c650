"""Exception types shared across the package."""


class InvalidConfigError(ValueError):
    """A parameter violates a documented precondition (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """A solver or factorization failed (CLI exit code 3)."""

