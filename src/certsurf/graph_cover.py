"""Certified dyadic covers of implicit graphs over a base rectangle.

The system is taken in graph position: the first d variables are the base,
the last m are the fiber.  The cover subdivides the base rectangle into
dyadic cells (exact tiling: children split their parent's float bounds at
a shared midpoint, so nothing is lost or double-counted) and certifies on
each cell that every base point has a unique fiber solution near a cell
root estimate.  Fiber box radii follow the half-rate schedule: a cell at
depth k uses fiber radius R * 2^{-ceil(k/2)}, which keeps the fiber box
comfortably wider than the graph's variation across the cell.

Multiple sheets inside the user's fiber bracket are isolated by bisection
at cell centers (interval exclusion or Krawczyk inclusion at every leaf)
and then tracked by continuation.  Per-cell certificates are rigorous;
the sheet labels tying cells together are bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ATTEMPT_ERRORS, CertificationError, LinearAlgebraError, RefinementStalledError
from .intervals import Interval, IntervalBox
from .krawczyk import KrawczykResult, krawczyk_test, refine_fiber_root

__all__ = [
    "GraphCell",
    "GraphCover",
    "cover_graph",
    "fiber_newton",
    "isolate_fiber_roots",
    "sheet_measures",
]

_ISOLATE_MAX_DEPTH = 60
_SLICE_NEWTON_MAX_ITER = 25


@dataclass(frozen=True, eq=False, slots=True)
class GraphCell:
    """One certified cell: unique fiber root near fiber_center per base point.

    The root above any base point in ``bounds`` lies within
    ``fiber_enclosure`` of ``fiber_center`` (tight bound) and is the only
    one within ``fiber_radius`` (uniqueness bound).
    """

    bounds: tuple  # ((lo, hi), ...) per base dimension
    depth: int
    sheet: int
    fiber_center: tuple
    fiber_radius: float
    fiber_enclosure: float
    cert: KrawczykResult

    @property
    def center(self) -> tuple:
        return tuple(
            Interval(lo, hi).midpoint() for lo, hi in self.bounds
        )

    @property
    def half_widths(self) -> tuple:
        c = self.center
        return tuple(max(hi - m, m - lo) for (lo, hi), m in zip(self.bounds, c))

    def base_box(self) -> IntervalBox:
        return IntervalBox([Interval(lo, hi) for lo, hi in self.bounds])


@dataclass(frozen=True, eq=False, slots=True)
class GraphCover:
    cells: tuple
    sheets: int
    base_bounds: tuple
    rho: float

    def sheet_cells(self, k: int) -> list:
        return [c for c in self.cells if c.sheet == k]

    def area_fraction(self) -> tuple[Fraction, ...]:
        """Measure of each sheet's cells; exactly 1 where they tile the base."""
        return sheet_measures(
            [(c.sheet, c.depth) for c in self.cells], self.sheets, len(self.base_bounds)
        )


def sheet_measures(labels, sheets: int, d: int) -> tuple[Fraction, ...]:
    """Exact share of the base rectangle held by each sheet's cells.

    ``labels`` lists (sheet, depth) per cell.  A depth-k cell of a dyadic
    d-dimensional tiling holds 2^(-d k) of the rectangle, so the sums are
    integers over the common denominator 2^(d * deepest).
    """
    top = max((depth for _, depth in labels), default=0)
    nums = [0] * sheets
    for sheet, depth in labels:
        nums[sheet] += 1 << (d * (top - depth))
    return tuple(Fraction(num, 1 << (d * top)) for num in nums)


def isolate_fiber_roots(
    system,
    base_point: Sequence[float],
    fiber_box: IntervalBox,
) -> list[tuple[list[float], IntervalBox]]:
    """All fiber roots above one base point, each in a certified enclosure.

    Bisects the bracket until every piece is either excluded (the interval
    evaluation misses zero) or holds exactly one proven root.  Raises when
    a piece stays undecided past _ISOLATE_MAX_DEPTH bisections or two
    enclosures overlap.
    """
    base_point = [float(x) for x in base_point]
    found: list[tuple[list[float], IntervalBox]] = []
    stack = [(fiber_box, 0)]
    while stack:
        box, depth = stack.pop()
        vals = system.eval_box(IntervalBox.point(base_point).concat(box))
        if any(not p.contains(0.0) for p in vals.parts):
            continue
        try:
            center, encl = refine_fiber_root(system, base_point, box, 0.0)
        except (RefinementStalledError, LinearAlgebraError):
            if depth >= _ISOLATE_MAX_DEPTH:
                raise CertificationError(
                    f"fiber bracket piece undecided after {_ISOLATE_MAX_DEPTH} bisections"
                )
            axis = max(range(len(box)), key=lambda i: box[i].hi - box[i].lo)
            lo, hi = box[axis].lo, box[axis].hi
            mid = box[axis].midpoint()
            if not (lo < mid < hi):
                raise CertificationError("fiber bracket piece too thin to bisect")
            left = IntervalBox(
                [Interval(lo, mid) if i == axis else p for i, p in enumerate(box.parts)]
            )
            right = IntervalBox(
                [Interval(mid, hi) if i == axis else p for i, p in enumerate(box.parts)]
            )
            stack.append((left, depth + 1))
            stack.append((right, depth + 1))
        else:
            found.append((center, encl))
    found.sort(key=lambda item: tuple(item[0]))
    for i in range(len(found) - 1):
        if found[i][1].overlaps(found[i + 1][1]):
            raise CertificationError(
                "two root enclosures overlap; bracket endpoints sit on a root"
            )
    return found


def fiber_newton(
    system, base_point: Sequence[float], y0: Sequence[float]
) -> list[float] | None:
    """Plain float Newton on the fiber slice from y0; None when it goes nowhere."""
    d = system.d
    y = np.asarray(y0, dtype=float)
    base = list(base_point)
    scale = max(1.0, float(np.max(np.abs(y))))
    for _ in range(_SLICE_NEWTON_MAX_ITER):
        pt = base + [float(v) for v in y]
        g = system.eval_point(pt)
        if not np.all(np.isfinite(g)):
            return None
        if float(np.max(np.abs(g))) <= 1e-13 * scale:
            return [float(v) for v in y]
        jac = system.jacobian_point(pt)[:, d:]
        try:
            step = np.linalg.solve(jac, g)
        except np.linalg.LinAlgError:
            return None
        y = y - step
        if not np.all(np.isfinite(y)):
            return None
    return None


def cover_graph(
    system,
    base_bounds: Sequence[tuple[float, float]],
    fiber_bracket: IntervalBox,
    rho: float,
    *,
    max_depth: int = 40,
    max_cells: int = 250_000,
    max_cell_radius: float | None = None,
) -> GraphCover:
    """Certify the zero set as one or more graphs over a base rectangle.

    ``max_cell_radius`` forces subdivision below the given half-width even
    where certification already succeeds; refinement passes use it to get
    uniformly small cells.
    """
    d, m = system.d, system.m
    base_bounds = tuple((float(lo), float(hi)) for lo, hi in base_bounds)
    if len(base_bounds) != d:
        raise ValueError(f"need {d} base ranges, got {len(base_bounds)}")
    for lo, hi in base_bounds:
        if not lo < hi:
            raise ValueError(f"degenerate base range [{lo}, {hi}]")
    if len(fiber_bracket) != m:
        raise ValueError(f"need {m} fiber ranges, got {len(fiber_bracket)}")
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must be in (0, 1], got {rho}")

    root_center = [Interval(lo, hi).midpoint() for lo, hi in base_bounds]
    scale = max(hi - m_ for (lo, hi), m_ in zip(base_bounds, root_center))

    sheets = isolate_fiber_roots(system, root_center, fiber_bracket)
    if not sheets:
        raise CertificationError("no fiber roots above the base center")

    def fiber_radius_at(depth: int, y: Sequence[float]) -> float:
        r2 = scale * 2.0 ** (-((depth + 1) // 2))
        # keep the fiber box symmetric and inside the user bracket
        for yc, br in zip(y, fiber_bracket.parts):
            r2 = min(r2, yc - br.lo, br.hi - yc)
        return r2

    cells: list[GraphCell] = []
    # queue entries: (bounds, depth, sheet index, fiber seed)
    queue: list[tuple[tuple, int, int, list[float]]] = []
    for k, (y, _encl) in enumerate(sheets):
        queue.append((base_bounds, 0, k, list(y)))

    processed = 0
    while queue:
        bounds, depth, sheet_idx, seed = queue.pop()
        processed += 1
        if processed > max_cells:
            raise CertificationError(f"graph cover exceeded {max_cells} cells")
        center = [Interval(lo, hi).midpoint() for lo, hi in bounds]

        y = fiber_newton(system, center, seed)
        if y is None or not all(
            br.lo <= v <= br.hi for v, br in zip(y, fiber_bracket.parts)
        ):
            # continuation lost the sheet: re-isolate from scratch
            local = isolate_fiber_roots(system, center, fiber_bracket)
            if len(local) != len(sheets):
                raise CertificationError(
                    f"root count changed across the domain: {len(sheets)} at the"
                    f" center, {len(local)} at {tuple(center)}"
                )
            y = list(local[sheet_idx][0])

        certified = False
        r2 = fiber_radius_at(depth, y)
        if r2 > 0.0 and (max_cell_radius is None or _max_halfwidth(bounds, center) <= max_cell_radius):
            try:
                res = krawczyk_test(
                    system,
                    IntervalBox([Interval(lo, hi) for lo, hi in bounds]),
                    y,
                    r2,
                    rho,
                )
            except ATTEMPT_ERRORS:
                res = None
            if res is not None and res.passed:
                cells.append(
                    GraphCell(
                        bounds=bounds,
                        depth=depth,
                        sheet=sheet_idx,
                        fiber_center=tuple(y),
                        fiber_radius=r2,
                        # every fiber root over the cell lies in y + K, so
                        # the K norm is a valid (and much tighter) enclosure
                        # radius than the rho * r2 pass threshold
                        fiber_enclosure=res.norm_k,
                        cert=res,
                    )
                )
                certified = True

        if not certified:
            if depth >= max_depth:
                raise CertificationError(
                    f"cell at {tuple(center)} failed to certify above depth {max_depth}"
                )
            for child in _split_bounds(bounds, center):
                queue.append((child, depth + 1, sheet_idx, list(y)))

    cells.sort(key=lambda c: (c.sheet, c.depth, c.bounds))
    return GraphCover(
        cells=tuple(cells),
        sheets=len(sheets),
        base_bounds=base_bounds,
        rho=float(rho),
    )


def _max_halfwidth(bounds, center) -> float:
    return max(max(hi - c, c - lo) for (lo, hi), c in zip(bounds, center))


def _split_bounds(bounds, center):
    """All 2^d children, splitting every axis at the shared midpoint."""
    pieces = [((lo, c), (c, hi)) for (lo, hi), c in zip(bounds, center)]
    out = [()]
    for lo_hi in pieces:
        out = [prefix + (half,) for prefix in out for half in lo_hi]
    return out
