"""Certified dyadic covers of implicit graphs over a base rectangle.

The system is taken in graph position: the first d variables are the base,
the last m are the fiber.  The cover subdivides the base rectangle into
dyadic cells (exact tiling: children split their parent's float bounds at
a shared midpoint, so nothing is lost or double-counted) and certifies on
each cell that every base point has a unique fiber solution near a cell
root estimate.  Fiber box radii follow the half-rate schedule: a cell at
depth k uses fiber radius R * 2^{-ceil(k/2)}, which keeps the fiber box
comfortably wider than the graph's variation across the cell.

The cover runs level by level.  All untested cells of one depth, across
every sheet, form the frontier: one lane-wise fiber Newton finds their
root estimates and one ``krawczyk_cells`` call tests them; each failing
cell hands its root estimate to its 2^d children at the next depth.

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

from .errors import CertificationError, LinearAlgebraError, RefinementStalledError
from .intervals import Interval, IntervalBox, array_midpoint
from .krawczyk import KrawczykResult, krawczyk_cells, refine_fiber_root

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


@dataclass(frozen=True, eq=False, slots=True)
class GraphCover:
    cells: tuple
    sheets: int
    base_bounds: tuple
    rho: float
    tests: int  # cell tests made, passed or not

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


def fiber_newton(system, base_points, y0) -> np.ndarray:
    """Plain float Newton on fiber slices, one lane per row of (N, d) base points.

    Lane i starts from y0[i] and stops once its residual is at most
    1e-13 * max(1, |y0[i]|).  Returns the (N, m) roots, with a NaN row
    where a lane goes nowhere: a non-finite value, a singular Jacobian or
    no convergence within _SLICE_NEWTON_MAX_ITER steps.
    """
    d = system.d
    base = np.asarray(base_points, dtype=float)
    y = np.array(y0, dtype=float)
    scale = np.maximum(1.0, np.max(np.abs(y), axis=1))
    out = np.full(y.shape, np.nan)
    live = np.arange(len(y))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_SLICE_NEWTON_MAX_ITER):
            pts = np.concatenate([base[live], y[live]], axis=1)
            g = system.eval_point(pts)
            finite = np.all(np.isfinite(g), axis=1)
            done = finite & (np.max(np.abs(g), axis=1) <= 1e-13 * scale[live])
            out[live[done]] = y[live[done]]
            going = finite & ~done
            live, pts, g = live[going], pts[going], g[going]
            if not len(live):
                break
            y[live] -= _solve_lanes(system.jacobian_point(pts)[..., d:], g)
            live = live[np.all(np.isfinite(y[live]), axis=1)]
    return out


def _solve_lanes(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each lane's system; NaN for a singular lane."""
    try:
        return np.linalg.solve(mats, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for i, (mat, b) in enumerate(zip(mats, rhs)):
            try:
                out[i] = np.linalg.solve(mat, b)
            except np.linalg.LinAlgError:
                pass
        return out


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
    uniformly small cells.  Raises once more than ``max_cells`` cells would
    be tested, or when a cell at ``max_depth`` fails.
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
    bracket_lo, bracket_hi = fiber_bracket.ends()

    # the frontier: every untested cell of one depth, one row per cell
    lo = np.array([[b[0] for b in base_bounds]] * len(sheets))
    hi = np.array([[b[1] for b in base_bounds]] * len(sheets))
    sheet = np.arange(len(sheets))
    seed = np.array([y for y, _ in sheets])

    cells: list[GraphCell] = []
    processed = tests = 0
    depth = 0
    while len(lo):
        processed += len(lo)
        if processed > max_cells:
            raise CertificationError(f"graph cover exceeded {max_cells} cells")
        center = array_midpoint(lo, hi)
        y = fiber_newton(system, center, seed)
        lost = ~np.all((bracket_lo <= y) & (y <= bracket_hi), axis=1)
        for i in np.flatnonzero(lost):
            # continuation lost the sheet: re-isolate from scratch
            local = isolate_fiber_roots(system, center[i].tolist(), fiber_bracket)
            if len(local) != len(sheets):
                raise CertificationError(
                    f"root count changed across the domain: {len(sheets)} at the"
                    f" center, {len(local)} at {tuple(center[i].tolist())}"
                )
            y[i] = local[sheet[i]][0]

        # keep the fiber box symmetric and inside the user bracket
        r2 = np.minimum(
            scale * 2.0 ** (-((depth + 1) // 2)),
            np.min(np.minimum(y - bracket_lo, bracket_hi - y), axis=1),
        )
        tested = r2 > 0.0
        if max_cell_radius is not None:
            tested &= np.max(np.maximum(hi - center, center - lo), axis=1) <= max_cell_radius
        batch = np.flatnonzero(tested)
        res = krawczyk_cells(system, (lo[batch], hi[batch]), y[batch], r2[batch], rho)
        tests += len(batch)
        passed = np.zeros(len(lo), dtype=bool)
        passed[batch] = res.passed
        ranges: dict = {}  # cells of one depth share axis ranges; keep one copy of each
        for cell_lo, cell_hi, k, yc, r, norm_k, threshold, margin in zip(
            *(a[passed].tolist() for a in (lo, hi, sheet, y, r2)),
            *(a[res.passed].tolist() for a in (res.norm_k, res.threshold, res.margin)),
        ):
            cells.append(
                GraphCell(
                    bounds=tuple(ranges.setdefault(ab, ab) for ab in zip(cell_lo, cell_hi)),
                    depth=depth,
                    sheet=k,
                    fiber_center=tuple(yc),
                    fiber_radius=r,
                    # every fiber root over the cell lies in y + K, so the K
                    # norm is a valid (and much tighter) enclosure radius
                    # than the rho * r2 pass threshold
                    fiber_enclosure=norm_k,
                    cert=KrawczykResult(True, norm_k, threshold, margin),
                )
            )

        failed = ~passed
        if depth >= max_depth and failed.any():
            where = tuple(center[np.argmax(failed)].tolist())
            raise CertificationError(f"cell at {where} failed to certify above depth {max_depth}")
        lo, hi = _split_cells(lo[failed], hi[failed], center[failed])
        sheet = np.repeat(sheet[failed], 1 << d)
        seed = np.repeat(y[failed], 1 << d, axis=0)
        depth += 1

    cells.sort(key=lambda c: (c.sheet, c.depth, c.bounds))
    return GraphCover(
        cells=tuple(cells),
        sheets=len(sheets),
        base_bounds=base_bounds,
        rho=float(rho),
        tests=tests,
    )


def _split_cells(lo: np.ndarray, hi: np.ndarray, center: np.ndarray):
    """All 2^d children of each cell, splitting every axis at the shared midpoint."""
    d = lo.shape[1]
    upper = (np.arange(1 << d)[:, None] >> np.arange(d) & 1).astype(bool)
    child_lo = np.where(upper, center[:, None, :], lo[:, None, :])
    child_hi = np.where(upper, hi[:, None, :], center[:, None, :])
    return child_lo.reshape(-1, d), child_hi.reshape(-1, d)
