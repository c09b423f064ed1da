"""Certified surface patches and the same-sheet / disjoint-sheet predicates.

A patch is a tangent-aligned box certificate: over the base square of
half-width r, the system has exactly one fiber solution per base point
within r (uniqueness, the patch's ``cube``) and that solution stays within
rho * r of the center plane (enclosure, the patch's ``slab``).  Both boxes
are built once, when the patch is.  ``inclusion_test`` proves two
overlapping patches describe the same sheet by walking a certified point
of one into the other's slab; ``component_test`` settles a touching pair
that no such probe welded, refining the slabs until the pieces either
provably meet or provably miss each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ATTEMPT_ERRORS, CertificationError
from .frames import CoordinateFrame, OrientedBox, obox_disjoint, tangent_align, within
from .graph_cover import cover_graph
from .intervals import Interval, IntervalBox, mul_up
from .krawczyk import KrawczykResult, krawczyk_test, refine_fiber_root

__all__ = [
    "CertifiedPatch",
    "SlabPiece",
    "newton_polish",
    "certify_box",
    "inclusion_test",
    "component_test",
]

_R_FLOOR_FACTOR = 2.0**-40
_POLISH_TOL = 1e-12
_POLISH_MAX_ITER = 50


@dataclass(frozen=True, eq=False, slots=True)
class CertifiedPatch:
    """Tangent-aligned certified box around one surface point.

    ``slab`` and ``cube`` are built once, with the patch: the slab is the
    base square times [-r_fiber, r_fiber]^m and provably holds the sheet
    over the base square; the cube has radius r on every axis, and in it
    the sheet is the only solution per base point.
    """

    frame: CoordinateFrame
    aligned: object  # the system rewritten in frame coordinates
    r: float
    r_fiber: float  # upper bound on rho * r
    rho: float
    cert: KrawczykResult
    slab: OrientedBox = field(init=False, repr=False)
    cube: OrientedBox = field(init=False, repr=False)

    def __post_init__(self):
        base = (self.r,) * self.d
        object.__setattr__(self, "slab", self.frame.box(base + (self.r_fiber,) * self.m))
        object.__setattr__(self, "cube", self.frame.box(base + (self.r,) * self.m))

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def d(self) -> int:
        return self.frame.d

    @property
    def m(self) -> int:
        return self.n - self.d

    def sheet_point(self, base_point, bracket: float, accuracy: float) -> IntervalBox:
        """World box enclosing the sheet point above a frame base point.

        Certifies the fiber root within [-bracket, bracket]^m to the given
        accuracy; raises what ``refine_fiber_root`` raises when it cannot.
        """
        _, encl = refine_fiber_root(
            self.aligned,
            base_point,
            IntervalBox([Interval(-bracket, bracket)] * self.m),
            accuracy,
        )
        return self.frame.to_world_box(IntervalBox.point(base_point).concat(encl))

    def slab_holds(self, world_box: IntervalBox) -> bool:
        """True only if the world box provably lies inside the slab."""
        return within(self.frame.world_to_local_box(world_box).ends(), self.slab.radii)


def newton_polish(system, start) -> list[float]:
    """Least-squares Newton onto the zero set; raises if it does not land."""
    x = np.asarray([float(v) for v in start], dtype=float)
    if x.shape != (system.n,):
        raise ValueError(f"start point has {x.shape[0]} coords, system has {system.n}")
    scale = max(1.0, float(np.max(np.abs(x))))
    best = None
    for _ in range(_POLISH_MAX_ITER):
        f = system.eval_point(list(x))
        resid = float(np.max(np.abs(f)))
        if not np.isfinite(resid):
            break
        if best is None or resid < best:
            best = resid
        if resid <= _POLISH_TOL * scale:
            return [float(v) for v in x]
        jac = system.jacobian_point(list(x))
        step, *_ = np.linalg.lstsq(jac, f, rcond=None)
        x = x - step
        if not np.all(np.isfinite(x)):
            break
    if best is None:
        raise CertificationError("residual at the start point is not finite")
    raise CertificationError(
        f"start point did not converge onto the zero set (residual {best})"
    )


def certify_box(system, start, r_initial: float, rho: float) -> CertifiedPatch:
    """Certify a tangent-aligned box at (near) the given surface point.

    Halves the base radius until the contraction test passes; gives up
    with CertificationError once the radius drops below 2^-40 of the
    starting value.
    """
    if not r_initial > 0.0:
        raise ValueError(f"r_initial must be positive, got {r_initial}")
    z = newton_polish(system, start)
    frame, gsys = tangent_align(system, z)
    d, m = system.d, system.m
    zero_fiber = [0.0] * m
    r = float(r_initial)
    floor = r_initial * _R_FLOOR_FACTOR
    last = None
    while r > floor:
        base = IntervalBox([Interval(-r, r) for _ in range(d)])
        res = krawczyk_test(gsys, base, zero_fiber, r, rho)
        if res.passed:
            return CertifiedPatch(
                frame=frame,
                aligned=gsys,
                r=r,
                r_fiber=mul_up(rho, r),
                rho=float(rho),
                cert=res,
            )
        last = res
        r = 0.5 * r
    raise CertificationError(
        f"no certifiable radius above {floor:.3e} at {tuple(z)}"
        + (f" (last |K| = {last.norm_k:.3e})" if last else "")
    )


# ---------------------------------------------------------------------------
# same-sheet and disjointness predicates


def _base_overlap_in(a: CertifiedPatch, b: CertifiedPatch) -> list[Interval] | None:
    """Overlap of b's slab with a's base square, in a's base coordinates."""
    image = a.frame.world_to_local_box(b.slab.world_hull())
    out = []
    for k in range(a.d):
        piece = image.parts[k].intersect(Interval(-a.r, a.r))
        if piece is None:
            return None
        out.append(piece)
    return out


def inclusion_test(a: CertifiedPatch, b: CertifiedPatch) -> bool:
    """True only if a's sheet provably passes through b's slab.

    Picks base points of a inside the overlap with b, encloses a's sheet
    point there, and checks the enclosure lands inside b's slab.  Inside
    the slab it must coincide with b's unique sheet, so True means the two
    patches carry the same sheet.  False is silence, not a disproof.

    The first probe is the projection of b's center (a point on b's sheet)
    clamped into the overlap: for genuinely overlapping slabs it sits deep
    inside b's footprint, where curvature has the least room to push a's
    sheet enclosure out of b's thin slab.
    """
    overlap = _base_overlap_in(a, b)
    if overlap is None:
        return False
    b_center_in_a = a.frame.world_to_local_box(IntervalBox.point(b.frame.center))
    projected = [
        min(max(part.midpoint(), piece.lo), piece.hi)
        for part, piece in zip(b_center_in_a.parts, overlap)
    ]
    midpoint = [piece.midpoint() for piece in overlap]
    probes = [projected] if projected == midpoint else [projected, midpoint]
    accuracy = max(b.r_fiber * b.r_fiber, 1e-14 * max(1.0, b.r))
    for x_hat in probes:
        try:
            world = a.sheet_point(x_hat, a.r_fiber, accuracy)
        except ATTEMPT_ERRORS:
            continue
        if b.slab_holds(world):
            return True
    return False


@dataclass(frozen=True, eq=False, slots=True)
class SlabPiece:
    """One piece of a patch's refined sheet cover.

    ``rect`` is the piece's base rectangle in the owning patch's frame;
    ``box`` is the world oriented slab certified to contain the sheet over
    that rectangle.
    """

    box: OrientedBox
    rect: tuple

    @property
    def half_width(self) -> float:
        return max((hi - lo) / 2.0 for lo, hi in self.rect)


def _split_piece(patch: CertifiedPatch, piece: SlabPiece) -> list[SlabPiece] | None:
    """Replace a piece by a finer certified cover of its own rectangle.

    Slab thickness scales with cell size through the K-norm enclosures, so
    halving the cell-radius cap tightens the pieces; rho stays at the patch
    value to keep per-cell certification shallow.  None when the local
    cover cannot be built (caller keeps the coarse piece).
    """
    cap = piece.half_width / 2.0
    try:
        cover = cover_graph(
            patch.aligned,
            list(piece.rect),
            IntervalBox([Interval(-patch.r, patch.r)] * patch.m),
            patch.rho,
            max_cell_radius=cap,
            max_cells=4096,
            max_depth=60,
        )
    except ATTEMPT_ERRORS:
        return None
    out = []
    for cell in cover.cells:
        local_center = list(cell.center) + list(cell.fiber_center)
        radii = list(cell.half_widths) + [cell.fiber_enclosure] * patch.m
        out.append(
            SlabPiece(box=patch.frame.box_at(local_center, radii), rect=cell.bounds)
        )
    return out


def _witness_shared_point(
    src: CertifiedPatch, dst: CertifiedPatch, piece: SlabPiece
) -> bool:
    """Certify a sheet point of src above a piece center inside dst's slab."""
    x_hat = [Interval(lo, hi).midpoint() for lo, hi in piece.rect]
    accuracy = max(dst.r_fiber * dst.r_fiber, 1e-14 * max(1.0, dst.r))
    try:
        world = src.sheet_point(x_hat, src.r, accuracy)
    except ATTEMPT_ERRORS:
        return False
    return dst.slab_holds(world)


_MAX_ROUNDS = 30
_MAX_PIECES = 20_000


def component_test(
    a: CertifiedPatch, b: CertifiedPatch
) -> tuple[bool, list[OrientedBox], list[OrientedBox]]:
    """Decide whether two patches carry the same sheet where they overlap.

    The pair is one whose slabs touch and that ``inclusion_test`` did not
    weld either way; the caller has run both checks, so neither is
    repeated here.

    Returns (verdict, refinement_a, refinement_b).  True: a certified
    point witnesses the sheets coinciding.  False: the two sheet pieces
    are provably disjoint, and each refinement list is a certified cover
    of its patch's sheet with every cross pair of pieces provably disjoint
    (so the caller may replace a patch by its refinement).  Raises
    CertificationError when neither can be shown within ``_MAX_ROUNDS``
    rounds and ``_MAX_PIECES`` pieces, or once no contested piece splits.

    Each round refines only contested pieces (those still touching a piece
    of the other patch), so the covers carry mixed resolutions and the
    work stays proportional to the contested area.
    """
    pieces_a = [SlabPiece(a.slab, ((-a.r, a.r),) * a.d)]
    pieces_b = [SlabPiece(b.slab, ((-b.r, b.r),) * b.d)]
    boxes = lambda pieces: [p.box for p in pieces]  # noqa: E731

    stop = f"the {_MAX_ROUNDS}-round limit"
    for round_no in range(1, _MAX_ROUNDS + 1):
        contested = [
            (pa, pb)
            for pa in pieces_a
            for pb in pieces_b
            if not obox_disjoint(pa.box, pb.box)
        ]
        if not contested:
            return False, boxes(pieces_a), boxes(pieces_b)
        # alternate sides when probing for a shared certified point
        for pa, pb in contested[:8]:
            if _witness_shared_point(a, b, pa) or _witness_shared_point(
                b, a, pb
            ):
                return True, boxes(pieces_a), boxes(pieces_b)
        marked_a = {id(pa) for pa, _ in contested}
        marked_b = {id(pb) for _, pb in contested}
        progressed = False
        for pieces, marked, patch in (
            (pieces_a, marked_a, a),
            (pieces_b, marked_b, b),
        ):
            replacement: list[SlabPiece] = []
            for piece in pieces:
                if id(piece) not in marked:
                    replacement.append(piece)
                    continue
                finer = _split_piece(patch, piece)
                if finer is None:
                    replacement.append(piece)
                else:
                    replacement.extend(finer)
                    progressed = True
            pieces[:] = replacement
        if not progressed:
            stop = "no contested piece could be split"
            break
        if len(pieces_a) + len(pieces_b) > _MAX_PIECES:
            stop = f"the {_MAX_PIECES}-piece limit"
            break
    raise CertificationError(
        f"component question between patches at {a.frame.center} and"
        f" {b.frame.center} undecided: stopped by {stop} in round {round_no}"
    )
