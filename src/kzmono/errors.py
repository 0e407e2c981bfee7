"""Exception types shared across the package.

Each class carries a short machine-readable ``kind`` used by the CLI when it
emits structured error objects.
"""


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
