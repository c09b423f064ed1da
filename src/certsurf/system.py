"""Analytic map F: R^n -> R^m with interval and Jacobian evaluation.

The zero set of F is the object everything downstream certifies.  A system
knows how to evaluate itself and its Jacobian at float points (fast,
approximate, used for Newton steps and preconditioners), over one interval
box (outward rounded, used for certificates), and over a batch of boxes
on the endpoint-array kernel (``eval_ends``, ``jacobian_ends``).  An
:class:`AnalyticSystem` compiles two expression tapes on first use, one
for F and one for its Jacobian entries, and runs all six evaluations on
them.  Point evaluation takes one point of shape (n,) or a batch of lanes
of shape (N, n), one point per row.  Orthogonal changes of coordinates are
applied lazily through :class:`TransformedSystem` so the rounding story
stays a single matrix sandwich.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, LinearAlgebraError
from .expr import ENDS, INTERVAL, POINT, Expr, Tape
from .frames import image_box
from .intervals import IntervalBox, IntervalMatrix, array_add, array_matmul, array_matvec
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


def _point_values(tape: Tape, x, shape: tuple) -> np.ndarray:
    """Float values of the tape at a point (n,) or at lanes, an (N, n) ndarray.

    ``shape`` is the shape of the values at one point.
    """
    if isinstance(x, np.ndarray) and x.ndim == 2:
        with np.errstate(over="ignore", invalid="ignore"):  # a lane may overflow
            values = tape.run(POINT, list(x.T))
        out = np.empty((len(x), len(values)))
        for i, v in enumerate(values):
            out[:, i] = v
        return out.reshape((len(x),) + shape)
    return np.array(tape.run(POINT, [float(v) for v in x]), dtype=float).reshape(shape)


def _ends_values(tape: Tape, coords, shape: tuple):
    """Endpoint pair of the tape over a batch of boxes, ``shape`` per box.

    ``coords[i]`` is the (lo, hi) pair of variable i, one entry per box.
    """
    lanes = np.broadcast_shapes(*(np.shape(c[0]) for c in coords))
    values = tape.run(ENDS, coords)
    lo, hi = np.empty(lanes + (len(values),)), np.empty(lanes + (len(values),))
    for i, v in enumerate(values):
        lo[..., i], hi[..., i] = v
    return lo.reshape(lanes + shape), hi.reshape(lanes + shape)


class AnalyticSystem(_SystemBase):
    """System given by explicit expression trees in world coordinates."""

    __slots__ = ("variables", "equations", "n", "m", "_tapes")

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
        object.__setattr__(self, "_tapes", [None, None])

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

    def _tape(self, jacobian: bool) -> Tape:
        """Tape of F, or of the Jacobian entries in row-major order, compiled on first use."""
        if self._tapes[jacobian] is None:
            n, eqs = self.n, self.equations
            trees = [e.derivative(j) for e in eqs for j in range(n)] if jacobian else eqs
            self._tapes[jacobian] = Tape(trees, n)
        return self._tapes[jacobian]

    def eval_point(self, x) -> np.ndarray:
        return _point_values(self._tape(False), x, (self.m,))

    def eval_box(self, box: IntervalBox) -> IntervalBox:
        return IntervalBox(self._tape(False).run(INTERVAL, box.parts))

    def eval_ends(self, coords):
        return _ends_values(self._tape(False), coords, (self.m,))

    def jacobian_point(self, x) -> np.ndarray:
        return _point_values(self._tape(True), x, (self.m, self.n))

    def jacobian_box(self, box: IntervalBox) -> IntervalMatrix:
        entries, n = self._tape(True).run(INTERVAL, box.parts), self.n
        return IntervalMatrix([entries[i : i + n] for i in range(0, len(entries), n)])

    def jacobian_ends(self, coords):
        return _ends_values(self._tape(True), coords, (self.m, self.n))


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

    def _world_point(self, x) -> np.ndarray:
        # one matrix-vector product per lane, so lanes never mix
        return self.shift + (self.v @ np.asarray(x, dtype=float)[..., None])[..., 0]

    def _world_ends(self, coords) -> list:
        local = tuple(np.stack(np.broadcast_arrays(*side), axis=-1) for side in zip(*coords))
        lo, hi = array_add((self.shift, self.shift), array_matvec((self.v, self.v), local))
        return list(zip(np.moveaxis(lo, -1, 0), np.moveaxis(hi, -1, 0)))

    def eval_point(self, x) -> np.ndarray:
        return (self.u.T @ self.base.eval_point(self._world_point(x))[..., None])[..., 0]

    def eval_box(self, box: IntervalBox) -> IntervalBox:
        vals = self.base.eval_box(image_box(self.shift, self.iv, box))
        return self._iu_t.matvec(vals)

    def eval_ends(self, coords):
        ut = self.u.T
        return array_matvec((ut, ut), self.base.eval_ends(self._world_ends(coords)))

    def jacobian_point(self, x) -> np.ndarray:
        return self.u.T @ self.base.jacobian_point(self._world_point(x)) @ self.v

    def jacobian_box(self, box: IntervalBox) -> IntervalMatrix:
        inner = self.base.jacobian_box(image_box(self.shift, self.iv, box))
        return self._iu_t.matmul(inner).matmul(self.iv)

    def jacobian_ends(self, coords):
        ut = self.u.T
        inner = self.base.jacobian_ends(self._world_ends(coords))
        return array_matmul(array_matmul((ut, ut), inner), (self.v, self.v))
