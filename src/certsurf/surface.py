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
open is closed by spawning a patch on the edge, which is welded to every
stored patch whose slab it touches, so the cover never joins two distinct
sheets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ATTEMPT_ERRORS, CertificationError
from .frames import OrientedBox, frame_map, obox_disjoint
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
    None so ids stay stable.  ``verdicts`` records component-test outcomes
    by id pair.  ``exclusions`` maps a patch id to world-axis-aligned
    regions in which the patch is known to overlap a foreign sheet's slab.
    """

    system: AnalyticSystem
    rho: float
    r_initial: float
    domain: IntervalBox | None = None
    max_boxes: int | None = None
    patches: list[CertifiedPatch | None] = field(default_factory=list)
    coverage: list[EdgeCoverage | None] = field(default_factory=list)
    color_tags: list[str] = field(default_factory=list)
    exclusions: dict[int, list[tuple[tuple[float, float], ...]]] = field(default_factory=dict)
    verdicts: dict[frozenset, bool] = field(default_factory=dict)
    truncated: bool = False
    natural: bool = False
    _cubes: list[OrientedBox | None] = field(default_factory=list, repr=False)
    _slabs: list[OrientedBox | None] = field(default_factory=list, repr=False)
    _parent: list[int] = field(default_factory=list, repr=False)
    _neighbors: list[set | None] = field(default_factory=list, repr=False)

    def add(self, patch: CertifiedPatch, tag: str = "grown") -> int:
        """Store a patch and settle its ledger and its neighbours' both ways."""
        pid = len(self.patches)
        cube = patch.uniqueness_box()
        links = {
            other
            for other in self.live_ids()
            if not obox_disjoint(cube, self.cube(other))
        }
        self.patches.append(patch)
        self.coverage.append(EdgeCoverage(patch.r))
        self.color_tags.append(tag)
        self._cubes.append(cube)
        self._slabs.append(patch.enclosure_box())
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
        self._cubes[pid] = None
        self._slabs[pid] = None
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

    def live_ids(self) -> list[int]:
        return [i for i, p in enumerate(self.patches) if p is not None]

    def live_patches(self) -> list[tuple[int, CertifiedPatch]]:
        return [(i, p) for i, p in enumerate(self.patches) if p is not None]

    def live_count(self) -> int:
        return sum(1 for p in self.patches if p is not None)

    def cube(self, pid: int) -> OrientedBox:
        box = self._cubes[pid]
        assert box is not None
        return box

    def slab(self, pid: int) -> OrientedBox:
        box = self._slabs[pid]
        assert box is not None
        return box

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

    def same_component(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)


def _edge_exit_point(patch: CertifiedPatch, axis: int, side: int, t: float) -> np.ndarray | None:
    """World point where the sheet crosses the edge at running coordinate t.

    Plain float Newton on the fiber coordinates; whatever the caller builds
    from the point is certified afresh, so this is seed quality only.
    """
    base = [0.0, 0.0]
    base[axis] = side * patch.r
    base[1 - axis] = t
    g = patch.aligned
    d = patch.d
    y = np.zeros(patch.m)
    tol = 1e-12 * max(1.0, patch.r)
    for _ in range(30):
        pt = base + [float(v) for v in y]
        vals = np.asarray(g.eval_point(pt), dtype=float)
        if not np.all(np.isfinite(vals)):
            return None
        if float(np.max(np.abs(vals))) <= tol:
            return patch.frame.to_world(pt)
        jac = np.asarray(g.jacobian_point(pt), dtype=float)[:, d:]
        try:
            step = np.linalg.solve(jac, vals)
        except np.linalg.LinAlgError:
            return None
        y = y - step
        if not np.all(np.isfinite(y)) or float(np.max(np.abs(y))) > 4.0 * patch.r:
            return None
    return None


def _edge_slabs(patch: CertifiedPatch, pieces) -> tuple[np.ndarray, np.ndarray]:
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
        lo, hi = array_matvec(chart, _edge_slabs(target, pieces))
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
        lo, hi = array_matvec((chart, chart), _edge_slabs(patch, pieces))
        clipped = np.any((hi < dom_lo) | (dom_hi < lo), axis=1)
        meets = np.all((lo <= dom_hi) & (dom_lo <= hi), axis=1)
        inside = np.all((dom_lo <= lo) & (hi <= dom_hi), axis=1)
        return [
            _CLIPPED if out else _SPLIT if near and not held and level < _CLIP_MAX_LEVEL else None
            for out, near, held, (_, _, level, _) in zip(clipped, meets, inside, pieces)
        ]

    cov.settle(decide)


def _replace_with_refinements(
    run: SurfaceRun, pid: int, refinement: list[OrientedBox], queue: deque
) -> list[int]:
    """Swap a stored patch for certified patches over its refinement boxes.

    Replacement ledgers start fully open and settle by containment as the
    pieces enter the run.  The parent's former neighbours go back on the
    queue, since pieces the parent covered reopen in their ledgers.
    """
    parent = run.patches[pid]
    assert parent is not None
    queue.extend(run.neighbors(pid))
    run.remove(pid)
    new_ids = []
    for box in refinement:
        r_seed = max(box.radii[: parent.d])
        try:
            piece = certify_box(run.system, box.center, r_seed, run.rho)
        except ATTEMPT_ERRORS as exc:
            raise CertificationError(
                f"replacement piece near {tuple(round(c, 6) for c in box.center)} "
                f"failed to certify: {exc}"
            ) from exc
        new_pid = run.add(piece)
        # the pieces carry the parent's sheet, so they stay in its component
        run.union(new_pid, pid)
        queue.append(new_pid)
        new_ids.append(new_pid)
    return new_ids


def _spawn(
    run: SurfaceRun, pid: int, axis: int, side: int, t_hat: float, queue: deque
) -> int | None:
    """Certify a new patch just outside the edge and reconcile sheets.

    The candidate is reconciled with every stored patch whose enclosure
    slab its own slab touches; slabs that never meet cannot weld sheets
    together, so no verdict is needed there.  Same-sheet verdicts chain
    through the component structure, so one weld per touched component
    suffices.  Each component is first probed with the cheap
    ``inclusion_test`` both ways against every member, nearest first, and
    welds on the first success: that is the same condition on which
    ``component_test`` answers True, so the proof is unchanged.  Only a
    component with no such member goes through ``component_test``'s slab
    refinement.  A False verdict replaces that stored patch with its
    refinement and retries at half the seed radius; only when every
    touched component is provably same-sheet does the candidate enter the
    run.
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
        cand_slab = candidate.enclosure_box()
        cand_center = np.asarray(candidate.frame.center)
        groups: dict[int, list[int]] = {}
        for other in run.live_ids():
            if obox_disjoint(cand_slab, run.slab(other)):
                continue
            groups.setdefault(run.find(other), []).append(other)
        conflicts: list[tuple[int, list[OrientedBox]]] = []
        passed: list[int] = []
        aborted = False
        for members in groups.values():
            members.sort(
                key=lambda q: float(
                    np.linalg.norm(
                        np.asarray(run.patches[q].frame.center) - cand_center
                    )
                )
            )
            probed = next(
                (
                    other
                    for other in members
                    if inclusion_test(run.patches[other], candidate)
                    or inclusion_test(candidate, run.patches[other])
                ),
                None,
            )
            if probed is not None:
                passed.append(probed)
                continue
            welded = False
            for other in members:
                stored = run.patches[other]
                assert stored is not None
                try:
                    same, ref_stored, _ = component_test(stored, candidate)
                except CertificationError:
                    aborted = True
                    break
                if same:
                    passed.append(other)
                    welded = True
                    break
                conflicts.append((other, ref_stored))
            if aborted or (not welded and conflicts):
                break
        if aborted:
            seed = 0.5 * candidate.r
            if seed < target.r * 2.0**-12:
                raise CertificationError(
                    f"cannot separate or join sheets near {tuple(round(c, 6) for c in z_world)}"
                )
            continue
        if not conflicts:
            new_pid = run.add(candidate)
            for other in passed:
                run.verdicts[frozenset((new_pid, other))] = True
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
    run.add(first, tag="initial")
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


def _aabb_intersection(
    a: tuple[tuple[float, float], ...], b: tuple[tuple[float, float], ...]
) -> tuple[tuple[float, float], ...] | None:
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo = max(alo, blo)
        hi = min(ahi, bhi)
        if hi < lo:
            return None
        out.append((lo, hi))
    return tuple(out)


def post_process_trim(run: SurfaceRun) -> SurfaceRun:
    """Resolve remaining slab overlaps between live patches.

    Every touching live pair without a recorded same-sheet verdict is
    component-tested.  Pairs on distinct sheets are replaced by their
    refinements and the shared region is recorded as exclusion metadata on
    each replacement piece it touches; no box is dropped.
    """
    if run.truncated:
        return run
    queue: deque[int] = deque()
    pending = deque(
        (i, j)
        for idx, (i, _) in enumerate(run.live_patches())
        for j, _ in run.live_patches()[idx + 1 :]
    )
    while pending:
        i, j = pending.popleft()
        pi = run.patches[i]
        pj = run.patches[j]
        if pi is None or pj is None:
            continue
        key = frozenset((i, j))
        if run.verdicts.get(key) or run.same_component(i, j):
            continue
        if obox_disjoint(run.slab(i), run.slab(j)):
            continue
        same, ref_i, ref_j = component_test(pi, pj)
        run.verdicts[key] = same
        if same:
            run.union(i, j)
            continue
        region = _aabb_intersection(run.cube(i).aabb, run.cube(j).aabb)
        new_i = _replace_with_refinements(run, i, ref_i, queue)
        new_j = _replace_with_refinements(run, j, ref_j, queue)
        for pid in new_i + new_j:
            if region is None:
                continue
            if _aabb_intersection(run.cube(pid).aabb, region) is not None:
                run.exclusions.setdefault(pid, []).append(region)
        for pid in new_i:
            for qid in new_j:
                run.verdicts[frozenset((pid, qid))] = False
        for pid in new_i + new_j:
            for other in run.live_ids():
                if other != pid and frozenset((pid, other)) not in run.verdicts:
                    pending.append((pid, other))
    return run
