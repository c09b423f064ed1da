"""Certified oriented-box enclosures of smooth implicit surfaces.

The public surface mirrors the pipeline: parse an equation system, pick a
starting point on the variety, grow interval-Krawczyk-certified oriented
boxes until the surface patch (or its intersection with a domain box) is
covered, then export or re-verify the certificates.
"""

from .errors import (
    CertificationError,
    CertsurfError,
    ConfigError,
    IntervalDomainError,
    LinearAlgebraError,
    ParseError,
    RankDeficientError,
    RefinementStalledError,
)
from .intervals import Interval, IntervalBox, IntervalMatrix

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "CertsurfError",
    "ConfigError",
    "Interval",
    "IntervalBox",
    "IntervalDomainError",
    "IntervalMatrix",
    "LinearAlgebraError",
    "ParseError",
    "RankDeficientError",
    "RefinementStalledError",
    "__version__",
]
