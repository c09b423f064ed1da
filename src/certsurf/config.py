"""Run configuration: flat key=value files with the equations inline.

The format is one ``key = value`` pair per line.  ``equation`` may repeat,
one line per equation, and a trailing ``= 0`` on an equation is accepted
and dropped.  Blank lines and lines starting with ``#`` are skipped.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConfigError
from .system import AnalyticSystem

__all__ = [
    "RunConfig",
    "load_config",
    "parse_config",
    "parse_ratio",
    "parse_ratio_down",
]


# A decimal literal's mantissa and exponent, when it has an exponent.
_EXPONENT = r"([^/\s]*)[eE]([-+]?\d+(?:_\d+)*)"


def _parse_fraction(text: str) -> tuple[Fraction, float]:
    """The literal's exact value and its nearest float.

    Building the exact value costs 10**exponent, so a decimal exponent is
    bounded first.  Past the literal's length + 400, a nonzero literal lies
    far outside the float range (decimal exponents -324 to 308): above it
    is an error, below it reads as 0, whose nearest float it shares.
    """
    text = text.strip()
    try:
        split = re.fullmatch(_EXPONENT, text)
        if split and abs(int(split[2])) > len(text) + 400:
            if Fraction(split[1]) and int(split[2]) > 0:
                raise OverflowError
            text = "0"
        frac = Fraction(text)
        return frac, frac.numerator / frac.denominator
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a number or ratio: {text!r}") from exc
    except OverflowError as exc:
        raise ConfigError(f"number beyond the float range: {text!r}") from exc


def parse_ratio(text: str) -> float:
    """Parse a decimal or p/q literal to the nearest float."""
    return _parse_fraction(text)[1]


def parse_ratio_down(text: str) -> float:
    """Parse a decimal or p/q literal; round toward zero when inexact.

    Contraction factors parsed this way land on or below the requested
    value, which is the sound side for a threshold of the form rho * r.
    """
    frac, value = _parse_fraction(text)
    if abs(Fraction(value)) > abs(frac):
        value = math.nextafter(value, 0.0)
    return value


def _strip_zero_rhs(text: str) -> str:
    head, sep, tail = text.rpartition("=")
    if sep and tail.strip() == "0":
        return head.strip()
    return text.strip()


@dataclass
class RunConfig:
    """Everything one approximation run needs, shared by file and flags."""

    variables: list[str] = field(default_factory=list)
    equations: list[str] = field(default_factory=list)
    start: list[float] | None = None
    r_initial: float = 0.1
    rho: float = 0.125
    domain: list[tuple[float, float]] | None = None
    max_boxes: int | None = None
    out_json: str | None = None
    out_obj: str | None = None
    mode: str = "surface"

    def validate(self) -> None:
        if self.mode not in ("surface", "graph"):
            raise ConfigError(f"mode must be surface or graph, got {self.mode!r}")
        if not self.variables:
            raise ConfigError("no variables declared")
        n = len(self.variables)
        if not self.equations:
            raise ConfigError("no equations given")
        if self.mode == "surface" and len(self.equations) != n - 2:
            raise ConfigError(
                f"surface mode needs {n - 2} equations for {n} variables,"
                f" got {len(self.equations)}"
            )
        if self.mode == "surface" and self.start is None:
            raise ConfigError("surface mode needs a start point")
        if self.start is not None and len(self.start) != n:
            raise ConfigError(
                f"start point has {len(self.start)} coordinates, expected {n}"
            )
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must lie strictly between 0 and 1, got {self.rho}")
        if not self.r_initial > 0.0:
            raise ConfigError(f"initial radius must be positive, got {self.r_initial}")
        if self.domain is not None:
            if len(self.domain) != n:
                raise ConfigError(
                    f"domain needs {n} ranges, got {len(self.domain)}"
                )
            for lo, hi in self.domain:
                if not lo < hi:
                    raise ConfigError(f"degenerate domain range [{lo}, {hi}]")
        if self.mode == "graph" and self.domain is None:
            raise ConfigError(
                "graph mode needs a domain: base ranges then the fiber bracket"
            )
        if self.max_boxes is not None and self.max_boxes < 1:
            raise ConfigError(f"max_boxes must be at least 1, got {self.max_boxes}")

    def system(self) -> AnalyticSystem:
        return AnalyticSystem.from_equations(self.variables, self.equations)


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"config line {lineno}: expected key = value")
        if key == "mode":
            cfg.mode = value
        elif key == "variables":
            cfg.variables = value.split()
        elif key == "equation":
            cfg.equations.append(_strip_zero_rhs(value))
        elif key == "start":
            cfg.start = _floats(value, lineno)
        elif key == "r":
            cfg.r_initial = parse_ratio(value)
        elif key == "rho":
            cfg.rho = parse_ratio_down(value)
        elif key == "domain":
            cfg.domain = _ranges(value, lineno)
        elif key == "max_boxes":
            try:
                cfg.max_boxes = int(value)
            except ValueError as exc:
                raise ConfigError(f"config line {lineno}: {exc}") from exc
        elif key == "out_json":
            cfg.out_json = value
        elif key == "out_obj":
            cfg.out_obj = value
        else:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
    return cfg


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _floats(value: str, lineno: int) -> list[float]:
    try:
        return [float(tok) for tok in value.split()]
    except ValueError as exc:
        raise ConfigError(f"config line {lineno}: {exc}") from exc


def _ranges(value: str, lineno: int) -> list[tuple[float, float]]:
    nums = _floats(value, lineno)
    if len(nums) % 2 != 0:
        raise ConfigError(
            f"config line {lineno}: domain needs an even count of numbers"
        )
    return [(nums[i], nums[i + 1]) for i in range(0, len(nums), 2)]
