"""Interval Krawczyk tests over box slices of an analytic system.

Every test evaluates the Krawczyk operator

    K = (Id - A Jfiber(I x X)) (X - c) - A F(I, c)

over a base box I and the fiber box X of radius r around the fiber
center c, and picks its own preconditioner A: the float inverse of the
fiber Jacobian at (midpoint of I, c), behind a residual gate.  F(I, c) is
the natural extension intersected with the mean-value form around the
midpoint of I.  When |K|_inf < rho * r, every base point in I has exactly
one fiber solution in X, and it lies within |K|_inf of c.

* ``krawczyk_test`` runs it on one box on the scalar interval kernel
  (``_krawczyk_terms``): the certificate every exported patch carries.
  Surface growth calls it one box at a time, where numpy's per-call
  overhead would lose.
* ``krawczyk_cells`` runs it on a batch of graph cells at once on the
  endpoint-array kernel: ``cover_graph`` tests every untested cell of one
  depth in one call, and ``verify`` every cell record of a file.  Its
  lanes are independent, so a cell's numbers do not depend on the batch.
* ``refine_fiber_root`` is the square test, the scalar kernel over a point
  base box: it shrinks a bracket around one fiber root and proves the
  root exists; its output enclosures feed the coverage bookkeeping, so
  they are rigorous rather than best-effort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CertificationError, IntervalDomainError, RefinementStalledError
from .intervals import (
    Interval,
    IntervalBox,
    IntervalMatrix,
    array_add,
    array_matmul,
    array_matvec,
    array_midpoint,
    array_sub,
    mul_down,
    sub_down,
)
from .linalg import approx_inverse, approx_inverses

__all__ = ["KrawczykResult", "krawczyk_cells", "krawczyk_test", "refine_fiber_root"]

_REFINE_MAX_ITER = 60


@dataclass(frozen=True, slots=True)
class KrawczykResult:
    """Outcome of one contraction test, all bounds outward rounded.

    ``krawczyk_cells`` returns one whose fields are arrays, one entry per cell.
    """

    passed: bool
    norm_k: float  # upper bound on |K|_inf
    threshold: float  # lower bound on rho * fiber_radius
    margin: float  # lower bound on threshold - |K|_inf; positive iff passed


def _krawczyk_terms(
    system, base_box: IntervalBox, fiber_center: list[float], fiber_box: IntervalBox
) -> tuple[IntervalBox, IntervalBox]:
    """The terms A F(I, c) and (Id - A Jfiber(I x X)) (X - c) of K.

    A is the float inverse of the fiber Jacobian at (midpoint of I, c); any
    A keeps K sound, and this one makes the second term small.
    """
    d = system.d
    a = approx_inverse(system.jacobian_point(base_box.midpoint() + fiber_center)[:, d:])
    ia = IntervalMatrix.from_floats(a)
    newton = ia.matvec(_slice_value_enclosure(system, base_box, fiber_center))
    jac = system.jacobian_box(base_box.concat(fiber_box))
    mid = IntervalMatrix.identity(system.m) - ia.matmul(
        IntervalMatrix([row[d:] for row in jac.rows])
    )
    return newton, mid.matvec(fiber_box.sub_point(fiber_center))


def krawczyk_test(
    system,
    base_box: IntervalBox,
    fiber_center: Sequence[float],
    fiber_radius: float,
    rho: float,
) -> KrawczykResult:
    """Contraction test for the fiber map over a full base box.

    K = -A F(I, c) + (Id - A Jsub(I, J)) (J - c) with J the fiber box of
    radius ``fiber_radius`` around ``fiber_center``.  When |K|_inf is
    strictly below rho * fiber_radius (comparison done on outward-rounded
    floats), every base point in I has exactly one fiber solution in J,
    and that solution lies within rho * fiber_radius of the center.
    """
    m = system.m
    fiber_center = [float(c) for c in fiber_center]
    if len(fiber_center) != m or len(base_box) != system.d:
        raise ValueError("base/fiber split does not match the system")
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    if not fiber_radius > 0.0:
        raise ValueError(f"fiber radius must be positive, got {fiber_radius}")
    fiber_box = IntervalBox.from_center_radii(fiber_center, [fiber_radius] * m)

    newton, spread = _krawczyk_terms(system, base_box, fiber_center, fiber_box)
    norm_k = IntervalBox([s - f for s, f in zip(spread.parts, newton.parts)]).norm_up()
    threshold = mul_down(rho, fiber_radius)
    margin = sub_down(threshold, norm_k)
    return KrawczykResult(
        passed=norm_k < threshold,
        norm_k=norm_k,
        threshold=threshold,
        margin=margin,
    )


def _slice_value_enclosure(
    system, base_box: IntervalBox, fiber_center: Sequence[float]
) -> IntervalBox:
    """Enclosure of {F(b, c) : b in base_box} at the fixed fiber center.

    Intersects the natural extension with a mean-value form around the
    base center.  The natural form is tight when the frame happens to be
    axis aligned; the mean-value form survives rotated frames, where the
    natural evaluation wraps the tilted slice in a far larger box.  Both
    enclose the true range, so the intersection does too.  Over a point
    base box the mean-value term is exactly zero, so the natural form is
    returned as it is.
    """
    fiber_point = IntervalBox.point(fiber_center)
    direct = system.eval_box(base_box.concat(fiber_point))
    if all(p.lo == p.hi for p in base_box.parts):
        return direct
    base_mid = base_box.midpoint()
    thin = system.eval_box(IntervalBox.point(base_mid).concat(fiber_point))
    jac = system.jacobian_box(base_box.concat(fiber_point))
    jb = IntervalMatrix([row[: system.d] for row in jac.rows])
    spread = jb.matvec(base_box.sub_point(base_mid))
    mean_value = IntervalBox([t + s for t, s in zip(thin.parts, spread.parts)])
    out = direct.intersect(mean_value)
    if out is None:
        # both are enclosures of one nonempty set; empty intersection can
        # only come from a contract violation upstream
        raise CertificationError("inconsistent slice enclosures")
    return out


def krawczyk_cells(system, base, fiber_center, fiber_radius, rho: float) -> KrawczykResult:
    """``krawczyk_test`` on a batch of cells, on the endpoint-array kernel.

    ``base`` is an endpoint pair (lo, hi) of shape (N, d): cell i is the box
    from lo[i] to hi[i], tested against the fiber box of radius
    ``fiber_radius[i]`` around ``fiber_center[i]`` (shape (N, m)).  Each
    array step rounds to nearest and then one ulp outward, so a cell's
    ``norm_k`` sits on or above the scalar test's in the last bits.  A cell
    whose preconditioner fails its gate, or whose evaluation leaves the
    domain of an operation, is NaN and fails.

    No step reduces across the batch axis and each preconditioner is
    inverted on its own, so a cell's result is bit-equal whatever else is
    in the batch: ``verify`` reproduces the cover's numbers exactly.
    """
    lo, hi = (np.asarray(side, dtype=float) for side in base)
    center = np.asarray(fiber_center, dtype=float)
    radius = np.asarray(fiber_radius, dtype=float)[:, None]
    d, m = system.d, system.m
    if lo.shape[1:] != (d,) or hi.shape != lo.shape or center.shape != (len(lo), m):
        raise ValueError("base/fiber split does not match the system")
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    mid = array_midpoint(lo, hi)
    a = approx_inverses(_lane_jacobians(system, np.concatenate([mid, center], axis=1))[..., d:])
    a = (a, a)
    base_coords = list(zip(lo.T, hi.T))
    fiber_point = [(y, y) for y in center.T]

    # F(I, c): the natural extension intersected with the mean-value form;
    # an empty intersection breaks a contract upstream and fails the cell
    direct = system.eval_ends(base_coords + fiber_point)
    thin = system.eval_ends([(x, x) for x in mid.T] + fiber_point)
    jac = system.jacobian_ends(base_coords + fiber_point)
    slope = (jac[0][..., :d], jac[1][..., :d])
    mean_value = array_add(thin, array_matvec(slope, array_sub((lo, hi), (mid, mid))))
    value_lo = np.maximum(direct[0], mean_value[0])
    value_hi = np.minimum(direct[1], mean_value[1])
    empty = value_lo > value_hi
    value_lo[empty] = value_hi[empty] = math.nan
    newton = array_matvec(a, (value_lo, value_hi))

    fiber = array_add((center, center), (-radius, radius))
    jac = system.jacobian_ends(base_coords + list(zip(fiber[0].T, fiber[1].T)))
    eye = np.eye(m)
    contraction = array_sub((eye, eye), array_matmul(a, (jac[0][..., d:], jac[1][..., d:])))
    spread = array_matvec(contraction, array_sub(fiber, (center, center)))
    k_lo, k_hi = array_sub(spread, newton)
    norm_k = np.max(np.maximum(np.abs(k_lo), np.abs(k_hi)), axis=-1)
    threshold = np.nextafter(rho * radius[:, 0], -math.inf)
    with np.errstate(invalid="ignore"):
        return KrawczykResult(
            passed=norm_k < threshold,
            norm_k=norm_k,
            threshold=threshold,
            margin=np.nextafter(threshold - norm_k, -math.inf),
        )


def _lane_jacobians(system, points: np.ndarray) -> np.ndarray:
    """Float Jacobians at each row of ``points``; NaN for a lane with a domain error."""
    try:
        return system.jacobian_point(points)
    except IntervalDomainError:
        out = np.full((len(points), system.m, system.n), math.nan)
        for i in range(len(points)):
            try:
                out[i] = system.jacobian_point(points[i : i + 1])[0]
            except IntervalDomainError:
                pass
        return out


# ---------------------------------------------------------------------------
# single-slice refinement


def refine_fiber_root(
    system,
    base_point: Sequence[float],
    fiber_box: IntervalBox,
    accuracy: float,
) -> tuple[list[float], IntervalBox]:
    """Shrink a bracket around the fiber root above one base point.

    Returns (center, enclosure) where the enclosure provably contains a
    root of the slice map y -> F(base_point, y) and that root is unique in
    the original bracket.  The enclosure only ever shrinks, so any root of
    the bracket survives into the result.  Raises RefinementStalledError
    when existence cannot be established or the bracket empties out.
    """
    base = IntervalBox.point(base_point)
    if len(base) != system.d or len(fiber_box) != system.m:
        raise ValueError("base/fiber split does not match the system")

    scale = max(1.0, fiber_box.norm_up())
    accuracy = max(float(accuracy), 1e-13 * scale)

    current = fiber_box
    proven = False
    prev_radius = None
    for _ in range(_REFINE_MAX_ITER):
        center = current.midpoint()
        newton, spread = _krawczyk_terms(system, base, center, current)
        k_parts = [
            Interval.point(c) - nw + sp
            for c, nw, sp in zip(center, newton.parts, spread.parts)
        ]
        k_box = IntervalBox(k_parts)

        if all(cur.strictly_contains(k) for cur, k in zip(current.parts, k_box.parts)):
            proven = True
        nxt = current.intersect(k_box)
        if nxt is None:
            raise RefinementStalledError(
                "fiber bracket emptied out; no zero on this slice"
            )
        current = nxt
        radius = max(current.radii_up())
        if proven and radius <= accuracy:
            return current.midpoint(), current
        if prev_radius is not None and radius > 0.97 * prev_radius:
            break
        prev_radius = radius

    if proven:
        # converged as far as float precision allows; the enclosure is valid
        if max(current.radii_up()) <= 64.0 * accuracy:
            return current.midpoint(), current
        raise RefinementStalledError(
            f"fiber enclosure stalled at radius {max(current.radii_up()):.3e}"
        )
    raise RefinementStalledError("could not establish a fiber root in the bracket")
