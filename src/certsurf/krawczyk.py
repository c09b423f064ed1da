"""Interval Krawczyk tests over box slices of an analytic system.

One kernel, ``_krawczyk_terms``, evaluates the Krawczyk operator and picks
its own preconditioner.  ``krawczyk_test`` proves that over a whole base
box the system has, for every base point, a unique fiber solution within
``rho * fiber_radius`` of the fiber center: that is the certificate every
exported patch carries.  ``refine_fiber_root`` is the square test, the same
kernel over a point base box: it shrinks a bracket around one fiber root
and proves the root exists; its output enclosures feed the coverage
bookkeeping, so they are rigorous rather than best-effort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CertificationError, RefinementStalledError
from .intervals import Interval, IntervalBox, IntervalMatrix, mul_down, sub_down
from .linalg import approx_inverse

__all__ = ["KrawczykResult", "krawczyk_test", "refine_fiber_root"]

_REFINE_MAX_ITER = 60


@dataclass(frozen=True, slots=True)
class KrawczykResult:
    """Outcome of one contraction test, all bounds outward rounded."""

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
