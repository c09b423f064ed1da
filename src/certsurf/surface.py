"""Breadth-first growth of a certified box cover over a surface component.

Each patch P certifies that, over its base square [-r, r]^2, the zero set
meets its uniqueness cube in exactly one sheet, and that the sheet lies
within r_fiber of the base plane.  Growth closes the patches' boundaries
by containment, the condition certified continuation uses to link
consecutive boxes:

* Each edge of P's base square is held as dyadic pieces.  P's slab over a
  piece is the piece times [-r_fiber, r_fiber]^m in P's frame.
* A piece is covered when that slab lies strictly inside a live
  neighbour Q's uniqueness cube.  Each sheet point of P over the piece is
  then a zero in Q's cube, hence Q's unique sheet point over an interior
  base point of Q: it lies in the relative interior of Q's sheet piece.
* When every piece of every patch is covered by a live patch, the union
  of the sheet pieces is compact and open in the zero set, so it is a
  union of whole components.  (A removed patch therefore reopens the
  pieces it covered.)  In a query domain, pieces whose slab provably
  misses the domain leave the ledger too, and the union is the
  components' part inside the domain.

The test costs one enclosure of the pair's affine map, then one
evaluation on the endpoint-array kernel per round of pieces, where a round
is every open piece of the four edges at once: no Newton step and no
Krawczyk test.  A piece that no neighbour contains is halved while some
neighbour's cube reaches it and it is longer than the floor.  What stays
open is closed by spawning a patch on the edge.

Every patch after the first, spawned or certified over a refinement box of
a patch it replaces, enters the run only once it is welded to the
component of each live patch whose slab it touches, so the cover never
joins two distinct sheets.  A replacement piece that does not weld is left
out; its stretch of sheet stays open until growth closes it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ATTEMPT_ERRORS, CertificationError
from .frames import OrientedBox, frame_map, obox_disjoint
from .graph_cover import fiber_newton
from .intervals import Interval, IntervalBox, array_matvec, array_mul
from .patching import CertifiedPatch, certify_box, component_test, inclusion_test
from .system import AnalyticSystem

__all__ = [
    "EdgeCoverage",
    "SurfaceRun",
    "certified_surface_approximation",
    "coverage_update",
    "post_process_trim",
]

# A piece no neighbour contains is halved only below this level, that is
# while it is longer than r/16 (an edge is 2r long at level 0).
_FLOOR_LEVEL = 5

# Piece states besides None (open) and a container's patch id (covered).
_CLIPPED = -1
# What a ``settle`` decision returns to halve a piece instead.
_SPLIT = -2


class EdgeCoverage:
    """Dyadic pieces of a patch's base-square boundary, each open or closed.

    The base square is [-r, r]^2.  Each of the four edges is keyed by
    (axis, side): the edge where base coordinate ``axis`` is pinned to
    ``side * r``.  Per edge we keep pieces (level, index, state) in order;
    piece (level, index) is the running-coordinate stretch
    r * [-1 + index * 2^(1-level), -1 + (index + 1) * 2^(1-level)].
    Pieces are made only by halving, so they tile the edge exactly.  The
    state is None while the piece is open, the id of the neighbour whose
    cube contains the slab over it once covered (the piece reopens if that
    neighbour is removed), or ``_CLIPPED`` once that slab provably misses
    the query domain.
    """

    __slots__ = ("r", "edges")

    def __init__(self, r: float):
        self.r = float(r)
        self.edges: dict[tuple[int, int], list[tuple[int, int, int | None]]] = {
            (axis, side): [(0, 0, None)] for axis in range(2) for side in (-1, 1)
        }

    def is_done(self) -> bool:
        return not any(
            state is None for pieces in self.edges.values() for _, _, state in pieces
        )

    def open_pieces(self, axis: int, side: int) -> list[tuple[int, int]]:
        return [(level, index) for level, index, state in self.edges[(axis, side)] if state is None]

    def open_length(self, axis: int, side: int) -> float:
        return sum(self.length(level) for level, _ in self.open_pieces(axis, side))

    def length(self, level: int) -> float:
        return self.r * 2.0 ** (1 - level)

    @staticmethod
    def bounds(level: int, index: int) -> tuple[float, float]:
        """The piece's ends in units of r (exact dyadic floats)."""
        step = 2.0 ** (1 - level)
        return -1.0 + index * step, -1.0 + (index + 1) * step

    def settle(self, decide) -> float:
        """Let ``decide`` rule on every open piece, one round at a time.

        A round is the list of open pieces of all four edges, as
        (axis, side, level, index) tuples.  ``decide(pieces)`` returns one
        state per piece: None to leave it open, ``_SPLIT`` to halve it, or
        its new closed state.  The halves of split pieces form the next
        round.  Returns the length closed.
        """
        closed = 0.0
        kept = {key: [p for p in edge if p[2] is not None] for key, edge in self.edges.items()}
        pieces = [
            (axis, side, level, index)
            for (axis, side), edge in self.edges.items()
            for level, index, state in edge
            if state is None
        ]
        while pieces:
            halves = []
            for (axis, side, level, index), state in zip(pieces, decide(pieces)):
                if state == _SPLIT:
                    halves += [
                        (axis, side, level + 1, 2 * index),
                        (axis, side, level + 1, 2 * index + 1),
                    ]
                    continue
                if state is not None:
                    closed += self.length(level)
                kept[(axis, side)].append((level, index, state))
            pieces = halves
        for key, edge in kept.items():
            self.edges[key] = sorted(edge, key=lambda p: self.bounds(p[0], p[1]))
        return closed

    def reopen(self, container: int) -> bool:
        """Open the pieces ``container`` covered again; True if there were any."""
        found = False
        for key, pieces in self.edges.items():
            if any(state == container for _, _, state in pieces):
                found = True
                self.edges[key] = [
                    (level, index, None if state == container else state)
                    for level, index, state in pieces
                ]
        return found

    def target(self) -> tuple[int, int, float] | None:
        """Where to spawn next, as (axis, side, running coordinate), or None.

        The edge is the one with the most open length (the first in key
        order on ties).  A spawned patch is centred on the edge, so the point
        is the middle of the edge's unclipped extent, where one patch covers
        the most of it.  When that point is covered already, it is the open
        point nearest the middle of the open pieces' hull instead.
        """
        best = None
        for (axis, side), pieces in self.edges.items():
            spans = [self.bounds(level, index) for level, index, state in pieces if state is None]
            length = sum(hi - lo for lo, hi in spans)
            if spans and (best is None or length > best[0]):
                best = (length, axis, side, pieces, spans)
        if best is None:
            return None
        _, axis, side, pieces, spans = best

        def nearest_open(u: float) -> float:
            return min((min(max(u, lo), hi) for lo, hi in spans), key=lambda t: abs(t - u))

        kept = [self.bounds(level, index) for level, index, state in pieces if state != _CLIPPED]
        middle = 0.5 * (kept[0][0] + kept[-1][1])
        if nearest_open(middle) != middle:
            middle = nearest_open(0.5 * (spans[0][0] + spans[-1][1]))
        return axis, side, middle * self.r


@dataclass(eq=False)
class SurfaceRun:
    """State and result of one surface approximation run.

    ``patches`` is indexed by patch id; replaced or dropped entries become
    None so ids stay stable.  Every patch after the first (id 0) enters
    welded by ``_reconcile`` to the component of each live patch whose
    slab it touches, so live patches in different components never have
    touching slabs.
    """

    system: AnalyticSystem
    rho: float
    r_initial: float
    domain: IntervalBox | None = None
    max_boxes: int | None = None
    patches: list[CertifiedPatch | None] = field(default_factory=list)
    coverage: list[EdgeCoverage | None] = field(default_factory=list)
    truncated: bool = False
    natural: bool = False
    _parent: list[int] = field(default_factory=list, repr=False)
    _neighbors: list[set | None] = field(default_factory=list, repr=False)

    def add(self, patch: CertifiedPatch) -> int:
        """Store a patch and settle its ledger and its neighbours' both ways."""
        pid = len(self.patches)
        links = {
            other
            for other, stored in self.live_patches()
            if not obox_disjoint(patch.cube, stored.cube)
        }
        self.patches.append(patch)
        self.coverage.append(EdgeCoverage(patch.r))
        self._parent.append(pid)
        self._neighbors.append(links)
        for other in sorted(links):
            other_links = self._neighbors[other]
            assert other_links is not None
            other_links.add(pid)
            coverage_update(self, pid, other)
            coverage_update(self, other, pid)
        return pid

    def remove(self, pid: int) -> None:
        """Drop a patch; the pieces it covered reopen in its neighbours."""
        links = self._neighbors[pid]
        self.patches[pid] = None
        self.coverage[pid] = None
        self._neighbors[pid] = None
        for other in sorted(links or ()):
            other_links = self._neighbors[other]
            cov = self.coverage[other]
            assert other_links is not None and cov is not None
            other_links.discard(pid)
            if cov.reopen(pid):
                for container in sorted(other_links):
                    coverage_update(self, other, container)

    def neighbors(self, pid: int) -> list[int]:
        """Live patches whose uniqueness cube touches this patch's cube."""
        links = self._neighbors[pid]
        assert links is not None
        return sorted(links)

    def live_patches(self) -> list[tuple[int, CertifiedPatch]]:
        return [(i, p) for i, p in enumerate(self.patches) if p is not None]

    def live_count(self) -> int:
        return sum(1 for p in self.patches if p is not None)

    def find(self, pid: int) -> int:
        """Root of the patch's proven same-sheet component."""
        root = pid
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[pid] != root:
            self._parent[pid], pid = root, self._parent[pid]
        return root

    def union(self, a: int, b: int) -> None:
        self._parent[self.find(a)] = self.find(b)


def _edge_exit_point(patch: CertifiedPatch, axis: int, side: int, t: float) -> np.ndarray | None:
    """World point where the sheet crosses the edge at running coordinate t.

    A float fiber Newton from the base plane, seed quality only; None when
    it fails or lands more than 4r off the plane.
    """
    base = [0.0, 0.0]
    base[axis] = side * patch.r
    base[1 - axis] = t
    y = fiber_newton(patch.aligned, [base], np.zeros((1, patch.m)))[0]
    if not np.max(np.abs(y)) <= 4.0 * patch.r:  # also a lost lane, which is NaN
        return None
    return patch.frame.to_world(base + y.tolist())


def _edge_slab_ends(patch: CertifiedPatch, pieces) -> tuple[np.ndarray, np.ndarray]:
    """Frame-local slabs over edge pieces, each with a leading 1, as an endpoint pair.

    Row p is (1, pinned edge, piece, fiber radius) for piece p: the argument
    of an affine map ``[c | M]`` applied by ``array_matvec``.
    """
    axis, side, level, index = np.array(pieces).T
    step = 2.0 ** (1 - level)
    start = -1.0 + index * step
    run_lo, run_hi = array_mul((start, start + step), (patch.r, patch.r))
    lo = np.empty((len(pieces), 1 + patch.n))
    lo[:, 0] = 1.0
    lo[:, 1:3] = (side * patch.r)[:, None]
    lo[:, 3:] = -patch.r_fiber
    hi = lo.copy()
    hi[:, 3:] = patch.r_fiber
    rows = np.arange(len(pieces))
    lo[rows, 2 - axis] = run_lo
    hi[rows, 2 - axis] = run_hi
    return lo, hi


def coverage_update(run: SurfaceRun, target_id: int, container_id: int) -> float:
    """Cover the target's open edge pieces whose slab lies in the container's cube.

    The slab over a piece is pinned edge coordinate x piece x
    [-r_fiber, r_fiber]^m in the target's frame.  One enclosure of the
    pair's affine map takes it into the container's frame, and the piece is
    covered when its image lies strictly inside the container's cube.  A
    piece whose image only reaches the cube is halved down to
    ``_FLOOR_LEVEL``.  Returns the length newly covered.
    """
    target = run.patches[target_id]
    container = run.patches[container_id]
    cov = run.coverage[target_id]
    if target is None or container is None or cov is None or cov.is_done():
        return 0.0
    chart = frame_map(container.frame, target.frame)
    r = container.r

    def decide(pieces):
        lo, hi = array_matvec(chart, _edge_slab_ends(target, pieces))
        covered = np.all((-r < lo) & (hi < r), axis=1)
        reaches = np.all((-r <= hi) & (lo <= r), axis=1)
        return [
            container_id if inside else _SPLIT if near and level < _FLOOR_LEVEL else None
            for inside, near, (_, _, level, _) in zip(covered, reaches, pieces)
        ]

    return cov.settle(decide)


# Level down to which a piece straddling the domain boundary is halved.
_CLIP_MAX_LEVEL = 12


def _clip_outside_domain(run: SurfaceRun, pid: int) -> None:
    """Clip open edge pieces that provably leave the query domain.

    Each open piece is enclosed as a world box (its slab); pieces disjoint
    from the domain are clipped, pieces inside it stay open, straddling
    pieces are halved down to ``_CLIP_MAX_LEVEL``.
    """
    domain = run.domain
    patch = run.patches[pid]
    cov = run.coverage[pid]
    if domain is None or patch is None or cov is None:
        return
    chart = np.column_stack([patch.frame.center, patch.frame.v])
    dom_lo, dom_hi = domain.ends()

    def decide(pieces):
        lo, hi = array_matvec((chart, chart), _edge_slab_ends(patch, pieces))
        clipped = np.any((hi < dom_lo) | (dom_hi < lo), axis=1)
        meets = np.all((lo <= dom_hi) & (dom_lo <= hi), axis=1)
        inside = np.all((dom_lo <= lo) & (hi <= dom_hi), axis=1)
        return [
            _CLIPPED if out else _SPLIT if near and not held and level < _CLIP_MAX_LEVEL else None
            for out, near, held, (_, _, level, _) in zip(clipped, meets, inside, pieces)
        ]

    cov.settle(decide)


def _reconcile(
    run: SurfaceRun, candidate: CertifiedPatch
) -> tuple[list[int], list[tuple[int, list[OrientedBox]]]]:
    """Decide the candidate's sheet against every live patch its slab touches.

    Slabs that never meet cannot weld sheets together, so only touching
    live patches are asked, grouped by component: a proven shared sheet
    chains through the component structure, so one weld per component
    suffices.  Each component is first probed with the cheap
    ``inclusion_test`` both ways against every member, nearest first, and
    welds on the first success.  Only a component with no such member goes
    through ``component_test``'s slab refinement, member by member until
    one welds; each of those pairs touches and failed both probes, which
    is what ``component_test`` assumes.

    Returns (welded, conflicts): one welded member per decided component,
    and (member, refinement of its boxes) per member proven to carry
    another sheet, up to the first component where no member welds.  The
    candidate may enter only without conflicts.  An undecided pair raises
    ``component_test``'s ``CertificationError``.
    """
    cand_center = np.asarray(candidate.frame.center)
    groups: dict[int, list[tuple[int, CertifiedPatch]]] = {}
    for other, stored in run.live_patches():
        if not obox_disjoint(candidate.slab, stored.slab):
            groups.setdefault(run.find(other), []).append((other, stored))
    welded: list[int] = []
    conflicts: list[tuple[int, list[OrientedBox]]] = []
    for members in groups.values():
        members.sort(key=lambda m: np.linalg.norm(np.subtract(m[1].frame.center, cand_center)))
        probed = next(
            (
                q
                for q, stored in members
                if inclusion_test(stored, candidate) or inclusion_test(candidate, stored)
            ),
            None,
        )
        if probed is not None:
            welded.append(probed)
            continue
        for q, stored in members:
            same, ref_stored, _ = component_test(stored, candidate)
            if same:
                welded.append(q)
                break
            conflicts.append((q, ref_stored))
        else:
            break
    return welded, conflicts


def _replace_with_refinements(
    run: SurfaceRun, pid: int, refinement: list[OrientedBox], queue: deque
) -> None:
    """Swap a stored patch for certified patches over its refinement boxes.

    Each piece enters as a spawned patch does, welded by ``_reconcile``.
    A piece that conflicts, or whose component question stays undecided,
    is left out with no nested replacement: its stretch of sheet stays
    open in the neighbours' ledgers, and growth closes it.  Replacement
    ledgers start fully open and settle by containment as the pieces
    enter.  The parent's former neighbours go back on the queue, since
    pieces the parent covered reopen in their ledgers.
    """
    parent = run.patches[pid]
    assert parent is not None
    queue.extend(run.neighbors(pid))
    run.remove(pid)
    for box in refinement:
        r_seed = max(box.radii[: parent.d])
        try:
            piece = certify_box(run.system, box.center, r_seed, run.rho)
        except ATTEMPT_ERRORS as exc:
            raise CertificationError(
                f"replacement piece near {tuple(round(c, 6) for c in box.center)} "
                f"failed to certify: {exc}"
            ) from exc
        try:
            welded, conflicts = _reconcile(run, piece)
        except CertificationError:
            continue
        if conflicts:
            continue
        new_pid = run.add(piece)
        for other in welded:
            run.union(new_pid, other)
        queue.append(new_pid)


def _spawn(
    run: SurfaceRun, pid: int, axis: int, side: int, t_hat: float, queue: deque
) -> int | None:
    """Certify a new patch just outside the edge and weld it into the run.

    The candidate enters only once ``_reconcile`` has welded it to every
    component its slab touches.  Otherwise it is retried at half the seed
    radius, after each stored patch proven to carry another sheet has
    been replaced by its refinement.
    """
    target = run.patches[pid]
    assert target is not None
    z_world = _edge_exit_point(target, axis, side, t_hat)
    if z_world is None:
        return None
    seed = 2.0 * target.r
    for _ in range(8):
        try:
            candidate = certify_box(run.system, z_world, seed, run.rho)
        except ATTEMPT_ERRORS:
            return None
        try:
            welded, conflicts = _reconcile(run, candidate)
        except CertificationError:
            seed = 0.5 * candidate.r
            if seed < target.r * 2.0**-12:
                raise CertificationError(
                    f"cannot separate or join sheets near {tuple(round(c, 6) for c in z_world)}"
                )
            continue
        if not conflicts:
            new_pid = run.add(candidate)
            for other in welded:
                run.union(new_pid, other)
            queue.append(new_pid)
            return new_pid
        for other, ref_stored in conflicts:
            _replace_with_refinements(run, other, ref_stored, queue)
        seed = 0.5 * candidate.r
        if seed < target.r * 2.0**-12:
            raise CertificationError(
                f"cannot reconcile sheets near {tuple(round(c, 6) for c in z_world)}"
            )
    return None


def certified_surface_approximation(
    system: AnalyticSystem,
    start,
    r_initial: float,
    rho: float,
    *,
    domain=None,
    max_boxes: int | None = None,
) -> SurfaceRun:
    """Grow a certified box cover of the surface component through ``start``.

    Returns a SurfaceRun whose live patches tile the component (or its part
    inside ``domain``).  The run is natural when every boundary was closed
    and truncated when ``max_boxes`` stopped the growth first.  Every patch
    carries its own certificate; no patch is emitted on faith.
    """
    if system.n - system.m != 2:
        raise ValueError("surface approximation requires a 2-dimensional variety")
    domain_box = None
    if domain is not None:
        domain_box = (
            domain
            if isinstance(domain, IntervalBox)
            else IntervalBox([Interval(lo, hi) for lo, hi in domain])
        )
        if len(domain_box.parts) != system.n:
            raise ValueError("domain must have one interval per ambient coordinate")
    run = SurfaceRun(
        system=system,
        rho=rho,
        r_initial=r_initial,
        domain=domain_box,
        max_boxes=max_boxes,
    )
    first = certify_box(system, start, r_initial, rho)
    run.add(first)
    queue: deque[int] = deque([0])
    stalls: dict[tuple, int] = {}
    pops_since_progress = 0

    while queue:
        pid = queue.popleft()
        patch = run.patches[pid]
        cov = run.coverage[pid]
        if patch is None or cov is None or cov.is_done():
            continue
        if domain_box is not None:
            _clip_outside_domain(run, pid)
            if cov.is_done():
                continue
        if max_boxes is not None and run.live_count() >= max_boxes:
            run.truncated = True
            break
        pick = cov.target()
        assert pick is not None
        axis, side, t_hat = pick
        before = cov.open_length(axis, side)
        new_pid = _spawn(run, pid, axis, side, t_hat, queue)
        if new_pid is not None and cov.open_length(axis, side) < before:
            pops_since_progress = 0
        else:
            key = (pid, *pick)
            stalls[key] = stalls.get(key, 0) + 1
            if stalls[key] >= 3:
                raise CertificationError(
                    f"cannot extend the surface at patch {pid}, edge axis {axis} "
                    f"side {side}, coordinate {t_hat:.6g}"
                )
            pops_since_progress += 1
            if pops_since_progress > 4 * run.live_count() + 64:
                raise CertificationError(
                    "surface growth stalled: no coverage progress across a full queue sweep"
                )
        if not cov.is_done():
            queue.append(pid)

    if not run.truncated:
        run.natural = all(
            cov is None or cov.is_done() for cov in run.coverage
        )
    return run


def post_process_trim(run: SurfaceRun) -> SurfaceRun:
    """Return the run unchanged: every patch was welded when it entered.

    This stays only because ``perfbench/workloads.py`` and
    ``perfbench/tracer.py`` call it by name; a benchmark change drops
    that call and this function.
    """
    return run
