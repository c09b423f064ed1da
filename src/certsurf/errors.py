"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CertsurfError(Exception):
    """Base class for all package-specific failures."""


class IntervalDomainError(CertsurfError):
    """An interval operation left its mathematical domain.

    Raised for division by, or a negative power of, an interval containing
    zero and for square roots of intervals reaching below zero. Callers that run certification
    attempts treat this as a failed attempt, never as a pass.
    """


class ParseError(CertsurfError):
    """Malformed expression or system source text."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class ConfigError(CertsurfError):
    """Invalid run configuration (bad key, malformed value, missing input)."""


class LinearAlgebraError(CertsurfError):
    """Numerical linear algebra gate failed (rank, orthogonality, residual)."""


class RankDeficientError(LinearAlgebraError):
    """Jacobian is rank deficient to working precision; the point is not regular."""


class CertificationError(CertsurfError):
    """A certification loop exhausted its budget without a passing test."""


class RefinementStalledError(CertificationError):
    """A contraction iteration stopped making progress above the target accuracy."""


# The errors that mean "this certification attempt proved nothing": a caller
# that runs an attempt treats any of them as a failed attempt, never as a
# pass, and either tries something else or reports the failure.
ATTEMPT_ERRORS = (CertificationError, LinearAlgebraError, IntervalDomainError)
