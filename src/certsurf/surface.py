"""Breadth-first growth of a certified box cover over a surface component.

The driver keeps a queue of patches whose base-square boundary is not yet
fully covered by neighbouring slabs.  Boundary coverage is established
through facet slabs: the surface is intersected with the plane carrying one
face of a patch cube, the resulting curve is certified as a slab of its own,
and the stretch of the face it provably crosses is marked covered.  New
patches are spawned at uncovered boundary points and component-tested
against every stored patch they touch, so the final cover never welds two
distinct sheets together.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ATTEMPT_ERRORS, CertificationError
from .frames import OrientedBox, obox_contains, obox_disjoint
from .intervals import Interval, IntervalBox
from .patching import CertifiedPatch, certify_box, component_test, inclusion_test
from .system import AnalyticSystem, linear_form

__all__ = [
    "EdgeCoverage",
    "SurfaceRun",
    "certified_surface_approximation",
    "coverage_update",
    "post_process_trim",
]

# Slivers narrower than this fraction of the half-width are dropped from
# the uncovered ledger; anything the marching loop could still act on is
# orders of magnitude wider.
_SLIVER_FACTOR = 2.0**-20


class EdgeCoverage:
    """Uncovered portions of a patch's base-square boundary.

    The base square is [-r, r]^2.  Each of the four edges is keyed by
    (axis, side): the edge where base coordinate ``axis`` is pinned to
    ``side * r``.  Per edge we keep a sorted list of disjoint closed
    intervals [lo, hi] of the running coordinate that are still uncovered.
    Covered portions and portions that provably leave the query domain are
    both struck from it.
    """

    __slots__ = ("r", "floor", "edges")

    def __init__(self, r: float):
        self.r = float(r)
        self.floor = self.r * _SLIVER_FACTOR
        self.edges: dict[tuple[int, int], list[tuple[float, float]]] = {
            (axis, side): [(-self.r, self.r)]
            for axis in range(2)
            for side in (-1, 1)
        }

    def is_done(self) -> bool:
        return all(not pieces for pieces in self.edges.values())

    def intervals(self, axis: int, side: int) -> list[tuple[float, float]]:
        return list(self.edges[(axis, side)])

    def longest(self) -> tuple[int, int, float, float] | None:
        """Widest uncovered interval as (axis, side, lo, hi), or None."""
        best = None
        best_w = 0.0
        for (axis, side), pieces in self.edges.items():
            for lo, hi in pieces:
                if hi - lo > best_w:
                    best_w = hi - lo
                    best = (axis, side, lo, hi)
        return best

    def subtract(self, axis: int, side: int, lo: float, hi: float) -> float:
        """Remove [lo, hi] from the edge's uncovered set; returns length removed."""
        if not hi > lo:
            return 0.0
        key = (axis, side)
        removed = 0.0
        kept: list[tuple[float, float]] = []
        for a, b in self.edges[key]:
            if hi <= a or b <= lo:
                kept.append((a, b))
                continue
            cut_lo = max(a, lo)
            cut_hi = min(b, hi)
            removed += cut_hi - cut_lo
            if cut_lo - a > self.floor:
                kept.append((a, cut_lo))
            if b - cut_hi > self.floor:
                kept.append((cut_hi, b))
        self.edges[key] = kept
        return removed


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
    _facet_systems: dict[tuple[int, int, int], AnalyticSystem] = field(
        default_factory=dict, repr=False
    )
    _cover_memo: set = field(default_factory=set, repr=False)

    def add(self, patch: CertifiedPatch, tag: str = "grown") -> int:
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
        for other in links:
            other_links = self._neighbors[other]
            assert other_links is not None
            other_links.add(pid)
        return pid

    def remove(self, pid: int) -> None:
        links = self._neighbors[pid]
        if links:
            for other in links:
                other_links = self._neighbors[other]
                if other_links is not None:
                    other_links.discard(pid)
        self.patches[pid] = None
        self.coverage[pid] = None
        self._cubes[pid] = None
        self._slabs[pid] = None
        self._neighbors[pid] = None
        for key in [k for k in self._facet_systems if k[0] == pid]:
            del self._facet_systems[key]

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

    def facet_system(self, pid: int, axis: int, side: int) -> AnalyticSystem:
        """System cut by the plane of one face of patch ``pid``'s cube."""
        key = (pid, axis, side)
        cached = self._facet_systems.get(key)
        if cached is not None:
            return cached
        patch = self.patches[pid]
        assert patch is not None
        normal = patch.frame.v[:, axis]
        offset = float(np.dot(normal, patch.frame.center) + side * patch.r)
        facet = self.system.augmented(linear_form(normal, offset))
        self._facet_systems[key] = facet
        return facet




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


def _covered_interval(
    target: CertifiedPatch, along: int, e_patch: CertifiedPatch
) -> tuple[float, float] | None:
    """Stretch of the target edge the facet curve provably crosses.

    The facet slab's curve runs from one end of its base interval to the
    other; enclosing the curve point at each end and projecting onto the
    target's running coordinate gives two intervals.  Every coordinate
    value strictly between them is hit by the curve (intermediate value
    theorem on the continuous projection), so the inner gap is covered.
    """
    accuracy = max(e_patch.r_fiber**2, 1e-14 * max(1.0, e_patch.r))
    ends = []
    for s in (-1.0, 1.0):
        try:
            world = e_patch.sheet_point([s * e_patch.r], e_patch.r_fiber, accuracy)
        except ATTEMPT_ERRORS:
            return None
        ends.append(target.frame.world_to_local_box(world).parts[along])
    ends.sort(key=lambda piece: piece.midpoint())
    lo = ends[0].hi
    hi = ends[1].lo
    if not lo < hi:
        return None
    return lo, hi


def _facet_slab(
    run: SurfaceRun,
    target_id: int,
    container_id: int,
    axis: int,
    side: int,
    t_hat: float,
    feasible: float,
) -> tuple[float, float] | None:
    """Certify a facet slab at the edge point and return the covered stretch.

    The slab must sit inside the container's uniqueness cube (so its curve
    is the container's sheet cut by the plane) and, on the fiber axes,
    inside the target's cube (so curve points at an edge coordinate inside
    the base square belong to the target's own sheet).  Both conditions
    together let the covered stretch be struck from the uncovered ledger.

    ``feasible`` is the caller's bound on how big a slab the container has
    room for around the probe; the first certification starts just inside
    it instead of burning attempts on sizes that cannot fit.
    """
    if feasible <= 0.0:
        return None
    target = run.patches[target_id]
    container = run.patches[container_id]
    assert target is not None and container is not None
    z_world = _edge_exit_point(target, axis, side, t_hat)
    if z_world is None:
        return None
    # every certification below starts from this probe, and halving only
    # helps a slab that hangs over an edge of the container: a probe outside
    # the container's cube stays outside at any radius.  Giving up here is
    # safe, since the stretch stays in the uncovered ledger.
    probe = container.frame.world_to_local_box(IntervalBox.point(z_world))
    if any(p.hi < -container.r or p.lo > container.r for p in probe.parts):
        return None
    facet_sys = run.facet_system(target_id, axis, side)
    target_cube = run.cube(target_id)
    container_cube = run.cube(container_id)
    fiber_axes = tuple(range(target.d, target.n))

    r_try = min(target.r, container.r, 0.9 * feasible)
    progress_floor = min(target.r, container.r) / 1024.0
    for _ in range(4):
        try:
            e_patch = certify_box(facet_sys, z_world, r_try, run.rho)
        except ATTEMPT_ERRORS:
            return None
        if e_patch.r < progress_floor:
            return None
        e_cube = e_patch.uniqueness_box()
        image = target.frame.world_to_local_box(e_cube.world_hull())
        pinned = image.parts[axis]
        slack = 4.0 * e_patch.r + target.r * _SLIVER_FACTOR
        on_plane = abs(pinned.midpoint() - side * target.r) <= slack
        if (
            on_plane
            and obox_contains(container_cube, e_cube)
            and obox_contains(target_cube, e_cube, axes=fiber_axes)
        ):
            covered = _covered_interval(target, 1 - axis, e_patch)
            if covered is not None:
                return covered
            return None
        r_try = 0.5 * e_patch.r
    return None


def _container_reach(
    image: IntervalBox, target: CertifiedPatch, axis: int, side: int
) -> tuple[Interval, Interval, float] | None:
    """Reach of the container cube along the target edge, or None if it misses.

    ``image`` is the container cube's hull in the target's frame.  The facet
    slab straddles the edge plane, so only a container reaching past both
    sides of the plane can hold one.  Returns (reach, span, depth): the edge
    stretch worth working on, the container's unclipped extent along the
    edge, and how far it reaches past the edge plane on the shallower side.
    Span and depth bound the radius of any slab that could fit.
    """
    pinned = image.parts[axis]
    edge_coord = side * target.r
    if not pinned.lo < edge_coord < pinned.hi:
        return None
    span = image.parts[1 - axis]
    reach = span.intersect(Interval(-target.r, target.r))
    if reach is None:
        return None
    depth = min(edge_coord - pinned.lo, pinned.hi - edge_coord)
    return reach, span, depth


def _attempt_cover(
    run: SurfaceRun,
    target_id: int,
    container_id: int,
    axis: int,
    side: int,
    t_hat: float,
) -> float:
    """One facet-slab attempt; returns uncovered length removed.

    Failed probe locations are memoised per container so later pops do not
    burn certification work on a spot that container already missed.
    """
    target = run.patches[target_id]
    assert target is not None
    bucket = int(t_hat / (target.r / 16.0))
    memo_key = (target_id, container_id, axis, side, bucket)
    if memo_key in run._cover_memo:
        return 0.0
    image = target.frame.world_to_local_box(run.cube(container_id).world_hull())
    hit = _container_reach(image, target, axis, side)
    if hit is None:
        return 0.0
    reach, span, depth = hit
    if not reach.lo <= t_hat <= reach.hi:
        return 0.0
    feasible = min(t_hat - span.lo, span.hi - t_hat, depth)
    covered = _facet_slab(run, target_id, container_id, axis, side, t_hat, feasible)
    if covered is None:
        run._cover_memo.add(memo_key)
        return 0.0
    cov = run.coverage[target_id]
    assert cov is not None
    return cov.subtract(axis, side, covered[0], covered[1])


def coverage_update(
    run: SurfaceRun, target_id: int, container_id: int, attempts: int = 6
) -> float:
    """March facet slabs along target edges that cross the container's cube.

    Only the stretch of each edge that the container cube can reach is
    worked on.  Failed probe neighbourhoods are dropped from the local work
    list but stay in the uncovered ledger, so failure never fakes coverage.
    Returns the total uncovered length removed.
    """
    target = run.patches[target_id]
    cov = run.coverage[target_id]
    if target is None or cov is None or cov.is_done():
        return 0.0
    if run.patches[container_id] is None:
        return 0.0
    image = target.frame.world_to_local_box(run.cube(container_id).world_hull())
    removed_total = 0.0
    for axis in range(2):
        for side in (-1, 1):
            hit = _container_reach(image, target, axis, side)
            if hit is None:
                continue
            reach = hit[0]
            work = [
                (max(lo, reach.lo), min(hi, reach.hi))
                for lo, hi in cov.intervals(axis, side)
                if min(hi, reach.hi) - max(lo, reach.lo) > cov.floor
            ]
            budget = attempts
            while work and budget > 0:
                budget -= 1
                work.sort(key=lambda piece: piece[1] - piece[0])
                lo, hi = work.pop()
                t_hat = 0.5 * (lo + hi)
                removed = _attempt_cover(run, target_id, container_id, axis, side, t_hat)
                if removed > cov.floor:
                    removed_total += removed
                    # the popped piece may be only partly covered; keep its
                    # remainder in play alongside the other pieces
                    work.append((lo, hi))
                    work = [
                        (max(a, piece_lo), min(b, piece_hi))
                        for a, b in work
                        for piece_lo, piece_hi in cov.intervals(axis, side)
                        if min(b, piece_hi) - max(a, piece_lo) > cov.floor
                    ]
                else:
                    # strike a neighbourhood of the failed probe from the
                    # work list only; the ledger still holds it
                    gap = 0.25 * (hi - lo)
                    if t_hat - lo > gap:
                        work.append((lo, t_hat - gap))
                    if hi - t_hat > gap:
                        work.append((t_hat + gap, hi))
    return removed_total


# Bisection depth at which a straddling edge stretch is kept uncovered.
_CLIP_MAX_DEPTH = 12


def _clip_outside_domain(run: SurfaceRun, pid: int) -> None:
    """Strike edge portions that provably leave the query domain.

    Each uncovered piece is enclosed as a world box (edge segment thickened
    by the fiber enclosure radius); pieces disjoint from the domain are
    clipped, pieces inside it are kept, straddling pieces are bisected.
    """
    domain = run.domain
    patch = run.patches[pid]
    cov = run.coverage[pid]
    if domain is None or patch is None or cov is None:
        return

    def world_slab(axis: int, side: int, lo: float, hi: float) -> IntervalBox:
        local = [None, None] + [Interval(-patch.r_fiber, patch.r_fiber)] * patch.m
        local[axis] = Interval.point(side * patch.r)
        local[1 - axis] = Interval(lo, hi)
        return patch.frame.to_world_box(IntervalBox(local))

    for axis in range(2):
        for side in (-1, 1):
            stack = [(lo, hi, 0) for lo, hi in cov.intervals(axis, side)]
            while stack:
                lo, hi, depth = stack.pop()
                box = world_slab(axis, side, lo, hi)
                if not box.overlaps(domain):
                    cov.subtract(axis, side, lo, hi)
                    continue
                if domain.contains_box(box) or depth >= _CLIP_MAX_DEPTH or hi - lo <= 2.0 * cov.floor:
                    continue
                mid = 0.5 * (lo + hi)
                stack.append((lo, mid, depth + 1))
                stack.append((mid, hi, depth + 1))


def _replace_with_refinements(
    run: SurfaceRun, pid: int, refinement: list[OrientedBox], queue: deque
) -> list[int]:
    """Swap a stored patch for certified patches over its refinement boxes.

    Replacement coverage starts fully uncovered; interfaces between the
    pieces are re-established by ordinary facet coverage, which costs a few
    extra slab certifications but keeps a single soundness story.
    """
    parent = run.patches[pid]
    assert parent is not None
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
            coverage_update(run, pid, new_pid)
            coverage_update(run, new_pid, pid, attempts=3)
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
        progressed = False
        for _ in range(4):
            pick = cov.longest()
            if pick is None:
                break
            axis, side, lo, hi = pick
            t_hat = 0.5 * (lo + hi)
            base = [0.0, 0.0]
            base[axis] = side * patch.r
            base[1 - axis] = t_hat
            probe = patch.frame.to_world(base + [0.0] * patch.m)
            order = sorted(
                run.neighbors(pid),
                key=lambda q: float(
                    np.linalg.norm(np.asarray(run.patches[q].frame.center) - probe)
                ),
            )
            covered = False
            for other in order:
                if _attempt_cover(run, pid, other, axis, side, t_hat) > cov.floor:
                    covered = True
                    break
            if covered:
                progressed = True
                continue
            if max_boxes is not None and run.live_count() >= max_boxes:
                run.truncated = True
                break
            new_pid = _spawn(run, pid, axis, side, t_hat, queue)
            if new_pid is None:
                key = (pid, axis, side, round(t_hat / max(cov.floor, 1e-300)))
                stalls[key] = stalls.get(key, 0) + 1
                if stalls[key] >= 3:
                    raise CertificationError(
                        f"cannot extend the surface at patch {pid}, edge axis {axis} "
                        f"side {side}, coordinate {t_hat:.6g}"
                    )
                break
            progressed = True
        if run.truncated:
            break
        if not cov.is_done():
            queue.append(pid)
        if progressed:
            pops_since_progress = 0
        else:
            pops_since_progress += 1
            if pops_since_progress > 4 * run.live_count() + 64:
                raise CertificationError(
                    "surface growth stalled: no coverage progress across a full queue sweep"
                )

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
