"""Exception types shared across the package.

Each class carries a short machine-readable ``kind`` used by the CLI when it
emits structured error objects. :func:`integer` is the one check of every
integer argument of the public API.
"""

import operator


class KzmonoError(Exception):
    kind = "error"


class ConfigurationError(KzmonoError):
    """Unsupported or inconsistent configuration (e.g. an unknown series)."""

    kind = "configuration"


class DomainError(KzmonoError):
    """Input outside the mathematical domain of an operation."""

    kind = "domain"


class ShapeError(KzmonoError):
    """Dimension mismatch between vectors, matrices or systems."""

    kind = "shape"


class SingularityError(KzmonoError):
    """A configuration hit (or got too close to) a diagonal z_i = z_j.

    ``line``, when set, is the index of the line of a multi-line transport
    on which it happened.
    """

    kind = "singularity"

    def __init__(self, *args, line=None):
        super().__init__(*args)
        self.line = line


class ConsistencyError(KzmonoError):
    """An internal cross-check failed; signals corrupted upstream data."""

    kind = "consistency"


class ViolationError(KzmonoError):
    """A structural inequality that must hold was observed to fail."""

    kind = "violation"


def integer(value, what, least=None, below=None):
    """``value`` as a Python int; numpy integers pass. A bool, anything
    without ``__index__``, a value below ``least`` and one not below
    ``below`` are a DomainError, ``what`` naming the argument."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if least is not None and value < least:
                kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
                    least, f"at least {least}")
                raise DomainError(f"{what} must be {kind}, got {value!r}")
            if below is not None and value >= below:
                raise DomainError(f"{what} must be below {below}, got {value!r}")
            return value
    raise DomainError(f"{what} must be an integer, got {value!r}")
