"""Analytic map F: R^n -> R^m with interval and Jacobian evaluation.

The zero set of F is the object everything downstream certifies.  A system
knows how to evaluate itself and its Jacobian both at float points (fast,
approximate, used for Newton steps) and over interval boxes (outward
rounded, used for certificates).  Orthogonal changes of coordinates are
applied lazily through :class:`TransformedSystem` so the rounding story
stays a single matrix sandwich.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, LinearAlgebraError
from .expr import Expr
from .frames import image_box
from .intervals import IntervalBox, IntervalMatrix
from .parser import parse_system

__all__ = ["AnalyticSystem", "TransformedSystem"]


class _SystemBase:
    """Base/fiber split and change of frame, shared by both system kinds."""

    __slots__ = ()

    n: int
    m: int

    @property
    def d(self) -> int:
        return self.n - self.m

    def transform(self, u, v, shift=None) -> "TransformedSystem":
        return TransformedSystem(self, u, v, shift)


class AnalyticSystem(_SystemBase):
    """System given by explicit expression trees in world coordinates."""

    __slots__ = ("variables", "equations", "n", "m", "_jac")

    def __init__(self, variables: Sequence[str], equations: Sequence[Expr]):
        variables = list(variables)
        equations = list(equations)
        if not equations:
            raise ConfigError("system has no equations")
        if not 1 <= len(equations) < len(variables):
            raise ConfigError(
                f"{len(equations)} equations in {len(variables)} variables leaves no"
                " positive-dimensional zero set"
            )
        for e in equations:
            if e.max_var() >= len(variables):
                raise ConfigError("equation references a variable past the declared list")
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "equations", tuple(equations))
        object.__setattr__(self, "n", len(variables))
        object.__setattr__(self, "m", len(equations))
        object.__setattr__(self, "_jac", None)

    def __setattr__(self, name, value):
        raise AttributeError("AnalyticSystem is immutable")

    @classmethod
    def from_source(cls, text: str) -> "AnalyticSystem":
        names, exprs = parse_system(text)
        return cls(names, exprs)

    @classmethod
    def from_equations(cls, variables: Sequence[str], equations: Sequence[str]) -> "AnalyticSystem":
        """System from variable names and equation left-hand sides (``= 0`` implied)."""
        lines = ["variables = " + " ".join(variables)]
        lines.extend(f"{eq} = 0" for eq in equations)
        return cls.from_source("\n".join(lines) + "\n")

    def _jacobian_exprs(self):
        if self._jac is None:
            rows = tuple(
                tuple(e.derivative(j) for j in range(self.n)) for e in self.equations
            )
            object.__setattr__(self, "_jac", rows)
        return self._jac

    def eval_point(self, x: Sequence[float]) -> np.ndarray:
        xs = [float(v) for v in x]
        return np.array([e.eval_point(xs) for e in self.equations], dtype=float)

    def eval_box(self, box: IntervalBox) -> IntervalBox:
        return IntervalBox([e.eval_interval(box.parts) for e in self.equations])

    def jacobian_point(self, x: Sequence[float]) -> np.ndarray:
        xs = [float(v) for v in x]
        rows = self._jacobian_exprs()
        return np.array([[de.eval_point(xs) for de in row] for row in rows], dtype=float)

    def jacobian_box(self, box: IntervalBox) -> IntervalMatrix:
        rows = self._jacobian_exprs()
        return IntervalMatrix(
            [[de.eval_interval(box.parts) for de in row] for row in rows]
        )


# float orthogonality is only approximate; the gate keeps obviously broken
# frames out, the certificates themselves never assume exact orthogonality
_ORTHO_GATE = 1e-8


def _check_near_orthogonal(mat: np.ndarray, label: str) -> None:
    k = mat.shape[0]
    if mat.shape != (k, k):
        raise LinearAlgebraError(f"{label} must be square, got {mat.shape}")
    defect = float(np.max(np.abs(mat.T @ mat - np.eye(k))))
    if not defect < _ORTHO_GATE:
        raise LinearAlgebraError(
            f"{label} is not close to orthogonal (defect {defect:.3e})"
        )


class TransformedSystem(_SystemBase):
    """G(z) = U^T F(c + V z) for fixed near-orthogonal float U, V.

    Interval evaluation sandwiches the base system between rigorous
    interval matrix products, so every enclosure accounts for the rounding
    in the float frames themselves.  Transforms of transforms nest rather
    than flatten: multiplying the float matrices out would round them and
    silently change which exact function the certificates talk about.
    """

    __slots__ = ("base", "u", "v", "shift", "n", "m", "_iu_t", "iv")

    def __init__(self, base: _SystemBase, u, v, shift=None):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if v.shape != (base.n, base.n):
            raise LinearAlgebraError(f"V shape {v.shape} does not match n={base.n}")
        if u.shape != (base.m, base.m):
            raise LinearAlgebraError(f"U shape {u.shape} does not match m={base.m}")
        _check_near_orthogonal(u, "U")
        _check_near_orthogonal(v, "V")
        if shift is None:
            shift = np.zeros(base.n)
        shift = np.asarray(shift, dtype=float)
        if shift.shape != (base.n,) or not np.all(np.isfinite(shift)):
            raise LinearAlgebraError(f"bad shift {shift!r}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "n", base.n)
        object.__setattr__(self, "m", base.m)
        object.__setattr__(self, "_iu_t", IntervalMatrix.from_floats(u.T))
        object.__setattr__(self, "iv", IntervalMatrix.from_floats(v))

    def __setattr__(self, name, value):
        raise AttributeError("TransformedSystem is immutable")

    def eval_point(self, x: Sequence[float]) -> np.ndarray:
        w = self.shift + self.v @ np.asarray(x, dtype=float)
        return self.u.T @ self.base.eval_point(w)

    def eval_box(self, box: IntervalBox) -> IntervalBox:
        vals = self.base.eval_box(image_box(self.shift, self.iv, box))
        return self._iu_t.matvec(vals)

    def jacobian_point(self, x: Sequence[float]) -> np.ndarray:
        w = self.shift + self.v @ np.asarray(x, dtype=float)
        return self.u.T @ self.base.jacobian_point(w) @ self.v

    def jacobian_box(self, box: IntervalBox) -> IntervalMatrix:
        inner = self.base.jacobian_box(image_box(self.shift, self.iv, box))
        return self._iu_t.matmul(inner).matmul(self.iv)
