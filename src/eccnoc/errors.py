"""Exception types shared across the package."""


class EccNocError(Exception):
    """Base class for all package-specific errors."""


class BadValue(EccNocError, ValueError):
    """A value passed in is invalid: out of range (a mesh size, a cost,
    a negative scalar), unknown (a preset or core name) or degenerate
    (a composite modulus, a singular curve)."""


class FieldMismatch(EccNocError):
    """Two operands (or a point and a curve) belong to different fields."""


class DivisionByZero(EccNocError):
    """Multiplicative inverse of the zero element was requested."""


class NotOnCurve(EccNocError):
    """A point failed the curve-equation membership check."""


class MalformedGraph(EccNocError):
    """A task graph violates a structural invariant (ids, refs, result)."""


class MissingCoreRole(EccNocError):
    """A placement lacks a core for a role the task graph needs."""


class TooManyCores(EccNocError):
    """More cores were requested than the mesh has tiles."""


class OutOfMesh(EccNocError):
    """A tile coordinate lies outside the mesh bounds."""


class OracleBoundExceeded(EccNocError):
    """A brute-force reference routine was asked to run beyond desk scale."""


class EmptyTrace(EccNocError):
    """An operation-count report was requested for a run with no point ops."""


class ResultAtInfinity(EccNocError):
    """A scalar multiple landed at infinity, which has no (x, y) task pair."""


class ConfigError(EccNocError):
    """A run-configuration file is malformed or contains unknown keys."""
