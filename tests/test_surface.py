"""Surface growth driver: boundary coverage, clipping, sheet reconciliation, full runs."""

import dataclasses
import math
from collections import deque

import numpy as np
import pytest

from certsurf import surface
from certsurf.errors import CertificationError
from certsurf.exports import read_jsonl, write_surface_jsonl
from certsurf.frames import obox_contains, obox_disjoint, tangent_align
from certsurf.intervals import Interval, IntervalBox
from certsurf.patching import certify_box
from certsurf.surface import (
    _CLIPPED,
    _SPLIT,
    EdgeCoverage,
    SurfaceRun,
    _clip_outside_domain,
    _edge_exit_point,
    _reconcile,
    _replace_with_refinements,
    certified_surface_approximation,
    coverage_update,
)
from certsurf.system import AnalyticSystem

PLANE = AnalyticSystem.from_source("variables = x y z\nz = 0\n")
LIFTED_PLANE = AnalyticSystem.from_source("variables = x y z\nz - 0.15 = 0\n")
SPHERE = AnalyticSystem.from_source("variables = x y z\nx^2 + y^2 + z^2 - 1 = 0\n")
FOLD = AnalyticSystem.from_source("variables = x y z\nz^2 - x = 0\n")


# ---------------------------------------------------------------------------
# EdgeCoverage bookkeeping


def test_edge_coverage_starts_full():
    cov = EdgeCoverage(0.5)
    assert not cov.is_done()
    assert all(pieces == [(0, 0, None)] for pieces in cov.edges.values())
    assert sum(cov.open_length(*edge) for edge in cov.edges) == 4.0
    assert cov.target() == (0, -1, 0.0)


def _tiles_edge(pieces) -> bool:
    ends = [EdgeCoverage.bounds(level, index) for level, index, _ in pieces]
    return ends[0][0] == -1.0 and ends[-1][1] == 1.0 and all(
        a[1] == b[0] for a, b in zip(ends, ends[1:])
    )


def test_edge_coverage_pieces_tile_each_edge():
    cov = EdgeCoverage(1.0)

    def middle_quarter(axis, side, level, index):
        if (axis, side) != (0, 1):
            return None
        if level < 2:
            return _SPLIT
        return 7 if index in (1, 2) else None

    rounds = []

    def middle_quarters(pieces):
        rounds.append(len(pieces))
        return [middle_quarter(*piece) for piece in pieces]

    assert cov.settle(middle_quarters) == 1.0
    # one call per round: the four whole edges, then the halves, then the quarters
    assert rounds == [4, 2, 4]
    assert cov.edges[(0, 1)] == [(2, 0, None), (2, 1, 7), (2, 2, 7), (2, 3, None)]
    assert all(_tiles_edge(pieces) for pieces in cov.edges.values())
    assert cov.open_pieces(0, 1) == [(2, 0), (2, 3)]
    assert cov.open_pieces(0, -1) == [(0, 0)]


def test_edge_coverage_reopens_a_removed_container():
    cov = EdgeCoverage(1.0)
    cov.settle(lambda pieces: [3 if axis == 1 else None for axis, _, _, _ in pieces])
    assert cov.open_pieces(1, -1) == [] and cov.open_pieces(0, 1) == [(0, 0)]
    assert cov.reopen(3)
    assert all(pieces == [(0, 0, None)] for pieces in cov.edges.values())
    assert not cov.reopen(3)


def test_edge_coverage_target_centres_on_the_unclipped_extent():
    cov = EdgeCoverage(1.0)

    def clip_left_cover_middle(axis, side, level, index):
        if (axis, side) != (0, -1):
            return 6
        if level < 3:
            return _SPLIT
        return {0: _CLIPPED, 3: 5, 4: 5}.get(index)

    cov.settle(lambda pieces: [clip_left_cover_middle(*piece) for piece in pieces])
    # the unclipped extent [-0.75, 1] has its middle 0.125 on a covered
    # piece; the open hull is [-0.75, 1] too, and 0.25 is the open point
    # nearest its middle
    assert cov.target() == (0, -1, 0.25)
    # once the middle is open again it is the target itself
    cov.reopen(5)
    assert cov.target() == (0, -1, 0.125)


def test_edge_coverage_done_after_all_edges():
    cov = EdgeCoverage(0.25)
    closed = cov.settle(lambda pieces: [_CLIPPED if side < 0 else 1 for _, side, _, _ in pieces])
    assert closed == 2.0
    assert cov.is_done()
    assert cov.target() is None


# ---------------------------------------------------------------------------
# edge exit points and pairwise coverage


def test_edge_exit_point_lands_on_sphere():
    patch = certify_box(SPHERE, (0.0, 0.0, 1.0), 0.05, 0.125)
    z = _edge_exit_point(patch, 0, 1, 0.0)
    assert z is not None
    assert np.dot(z, z) == pytest.approx(1.0, abs=1e-10)
    local = patch.frame.world_to_local_box(IntervalBox.point(list(z)))
    assert local.parts[0].midpoint() == pytest.approx(patch.r, abs=1e-12)


def _plane_pair(offset, r_b):
    """Run holding a plane patch at the origin and one shifted in its frame."""
    run = SurfaceRun(system=PLANE, rho=0.125, r_initial=0.1)
    a = certify_box(PLANE, (0.0, 0.0, 0.0), 0.1, 0.125)
    b = certify_box(PLANE, tuple(a.frame.to_world(offset)), r_b, 0.125)
    return run, a, b


def test_coverage_update_straddling_plane_patches():
    # b's square straddles a's right edge and overhangs both its corners:
    # adding b covers that whole edge, and a's far edge stays open
    run, a, b = _plane_pair([0.25, 0.0, 0.0], 0.2)
    ia = run.add(a)
    ib = run.add(b)
    cov = run.coverage[ia]
    assert all(state == ib for _, _, state in cov.edges[(0, 1)])
    assert cov.edges[(0, -1)] == [(0, 0, None)]
    # the side edges are covered exactly where they run inside b's cube
    for side in (-1, 1):
        for level, index, state in cov.edges[(1, side)]:
            lo, hi = EdgeCoverage.bounds(level, index)
            if state == ib:
                assert lo * a.r > 0.05
            else:
                assert state is None and hi * a.r <= 0.05 + a.r / 16
    # everything b can cover is covered already
    assert coverage_update(run, ia, ib) == 0.0


def test_coverage_update_ignores_far_patch():
    run, a, b = _plane_pair([5.0, 0.0, 0.0], 0.1)
    ia = run.add(a)
    ib = run.add(b)
    assert coverage_update(run, ia, ib) == 0.0
    assert all(pieces == [(0, 0, None)] for pieces in run.coverage[ia].edges.values())


def test_parallel_plane_beyond_the_fiber_radius_covers_nothing():
    # the two cubes overlap, but a's sheet lies 0.15 > r away from b's
    # along the fiber, so no slab of either fits in the other's cube
    run = SurfaceRun(system=PLANE, rho=0.125, r_initial=0.1)
    a = certify_box(PLANE, (0.0, 0.0, 0.0), 0.1, 0.125)
    b = certify_box(LIFTED_PLANE, (0.02, 0.0, 0.15), 0.1, 0.125)
    ia = run.add(a)
    ib = run.add(b)
    assert run.neighbors(ia) == [ib]
    assert coverage_update(run, ia, ib) == 0.0 and coverage_update(run, ib, ia) == 0.0
    for cov in run.coverage:
        assert all(state is None for pieces in cov.edges.values() for _, _, state in pieces)


def test_coverage_update_certifies_nothing(monkeypatch):
    # containment is one interval enclosure per piece: no patch, sheet
    # point or Krawczyk test is certified on the way
    def refuse(*args):
        raise AssertionError("certification reached")

    run, a, b = _plane_pair([0.25, 0.0, 0.0], 0.2)
    for name in ("certify_box", "inclusion_test", "component_test"):
        monkeypatch.setattr(surface, name, refuse)
    monkeypatch.setattr(surface.CertifiedPatch, "sheet_point", refuse)
    ia = run.add(a)
    run.add(b)
    assert not run.coverage[ia].open_pieces(0, 1)


def test_removed_container_reopens_what_it_covered():
    run, a, b = _plane_pair([0.25, 0.0, 0.0], 0.2)
    ia = run.add(a)
    ib = run.add(b)
    assert not run.coverage[ia].open_pieces(0, 1)
    run.remove(ib)
    cov = run.coverage[ia]
    assert all(state is None for pieces in cov.edges.values() for _, _, state in pieces)
    assert cov.open_length(0, 1) == pytest.approx(2.0 * a.r)


def test_domain_clip_strikes_outside_edge():
    run = SurfaceRun(
        system=PLANE,
        rho=0.125,
        r_initial=0.1,
        domain=IntervalBox(
            [Interval(-0.05, 1.0), Interval(-1.0, 1.0), Interval(-1.0, 1.0)]
        ),
    )
    patch = certify_box(PLANE, (0.0, 0.0, 0.0), 0.1, 0.125)
    pid = run.add(patch)
    _clip_outside_domain(run, pid)
    cov = run.coverage[pid]
    # the edge at world x = -0.1 is provably outside and has left the
    # ledger; every other edge keeps an uncovered stretch
    for axis, side in cov.edges:
        base = [0.0, 0.0, 0.0]
        base[axis] = side * patch.r
        outside = patch.frame.to_world(base)[0] < -0.09
        assert (cov.open_pieces(axis, side) == []) == outside


def _plane_patch_at(center):
    """A plane patch moved to a far centre (no certificate is re-run there)."""
    patch = certify_box(PLANE, (0.0, 0.0, 0.0), 0.1, 0.125)
    return dataclasses.replace(patch, frame=tangent_align(PLANE, center)[0])


def test_overflowing_edge_geometry_stays_conservative():
    # the centres differ by 2e308: the pair's frame map overflows, so no
    # piece is covered or halved, and nothing raises
    run = SurfaceRun(system=PLANE, rho=0.125, r_initial=0.1)
    ia = run.add(_plane_patch_at([1e308, 0.0, 0.0]))
    ib = run.add(_plane_patch_at([-1e308, 0.0, 0.0]))
    assert coverage_update(run, ia, ib) == 0.0 and coverage_update(run, ib, ia) == 0.0
    for cov in run.coverage:
        assert all(pieces == [(0, 0, None)] for pieces in cov.edges.values())
    # world boxes of edge slabs at the largest float reach +inf; the domain
    # below them clips every piece, the domain around them clips none
    edge = _plane_patch_at([1.7976931348623157e308, 0.0, 0.0])
    for x_range, clipped in (((-1.0, 1.0), True), ((0.0, math.inf), False)):
        domain = IntervalBox([Interval(*x_range), Interval(-1.0, 1.0), Interval(-1.0, 1.0)])
        run = SurfaceRun(system=PLANE, rho=0.125, r_initial=0.1, domain=domain)
        pid = run.add(edge)
        _clip_outside_domain(run, pid)
        states = [state for pieces in run.coverage[pid].edges.values() for _, _, state in pieces]
        assert states == [_CLIPPED if clipped else None] * 4


# ---------------------------------------------------------------------------
# full runs


def test_plane_run_tiles_domain(tmp_path):
    run = certified_surface_approximation(
        PLANE, (0.0, 0.0, 0.0), 0.1, 0.125, domain=[(-1.0, 1.0)] * 3
    )
    assert run.natural and not run.truncated
    write_surface_jsonl(run, tmp_path / "plane.jsonl")
    _, records = read_jsonl(tmp_path / "plane.jsonl")
    assert [(rec["id"], rec["color_tag"]) for rec in records[:2]] == [
        (0, "initial"),
        (1, "grown"),
    ]
    assert all(rec["color_tag"] == "grown" for rec in records[1:])
    assert all(abs(p.frame.center[2]) < 1e-12 for _, p in run.live_patches())
    rng = np.random.default_rng(5)
    for x, y in rng.uniform(-1.0, 1.0, size=(300, 2)):
        w = IntervalBox.point([x, y, 0.0])
        assert any(
            all(
                -b <= q.lo and q.hi <= b
                for q, b in zip(
                    p.frame.world_to_local_box(w).parts, (p.r, p.r, p.r_fiber)
                )
            )
            for _, p in run.live_patches()
        ), f"uncovered plane point ({x}, {y})"


def test_plane_run_respects_max_boxes():
    run = certified_surface_approximation(
        PLANE, (0.0, 0.0, 0.0), 0.05, 0.125, max_boxes=3
    )
    assert run.truncated and not run.natural
    assert run.live_count() <= 3


def test_sphere_run_truncated_patches_verify():
    run = certified_surface_approximation(
        SPHERE, (0.0, 0.0, 1.0), 0.1, 0.125, max_boxes=20
    )
    assert run.truncated
    for pid, p in run.live_patches():
        assert p.cert.passed and p.cert.margin > 0.0
        x = np.asarray(p.frame.center)
        assert abs(float(x @ x) - 1.0) < 1e-9
    # recorded verdicts all welded one component
    roots = {run.find(pid) for pid, _ in run.live_patches()}
    assert len(roots) == 1


def test_fold_tip_welds_without_component_refinement(monkeypatch):
    # The fold-tip benchmark input (seed 201): one candidate shares only a
    # base edge with a stored patch, where no inclusion probe can hold, so
    # it must weld through the patch it grew from before any refinement.
    def refuse(*args):
        raise AssertionError("component_test reached")

    monkeypatch.setattr(surface, "component_test", refuse)
    system = AnalyticSystem.from_source("variables = x y z\nx - z^2 = 0\n")
    start = (2.998407269939363e-06, -0.1744004456673226, -0.0017315909649623848)
    run = certified_surface_approximation(system, start, 0.1, 0.125, max_boxes=7)
    assert run.truncated and run.live_count() == 7
    assert len({run.find(pid) for pid, _ in run.live_patches()}) == 1


def test_saddle_clip_cover_rechecks_by_oriented_box_containment():
    # The saddle-clip benchmark input (seed 201) ends natural.  Every piece
    # of every edge is then clipped or covered; each covered piece is
    # re-checked through obox_contains on an oriented box over the piece.
    system = AnalyticSystem.from_source(
        "variables = x y z\n0.25*x^2 - 0.125*x*y^2 - z = 0\n"
    )
    start = (-0.01731590964962385, -0.006976017826692904, 7.506551621197627e-05)
    run = certified_surface_approximation(
        system, start, 0.125, 0.125, domain=[(-0.3, 0.3)] * 3
    )
    assert run.natural and run.live_count() == 11
    checked = 0
    for pid, patch in run.live_patches():
        # radii are 0.125 * 2^-k, so piece centres and half-lengths are exact
        assert math.frexp(patch.r)[0] == 0.5
        for (axis, side), pieces in run.coverage[pid].edges.items():
            assert _tiles_edge(pieces)
            for level, index, state in pieces:
                assert state is not None
                if state == _CLIPPED:
                    continue
                lo, hi = EdgeCoverage.bounds(level, index)
                center = [side * patch.r] * 2 + [0.0]
                center[1 - axis] = 0.5 * (lo + hi) * patch.r
                radii = [0.0, 0.0, patch.r_fiber]
                radii[1 - axis] = 0.5 * (hi - lo) * patch.r
                assert run.patches[state] is not None
                assert obox_contains(run.patches[state].cube, patch.frame.box_at(center, radii))
                checked += 1
    assert checked > 0
    assert _foreign_touching_pairs(run) == []


def test_surface_requires_two_dimensional_variety():
    curve = AnalyticSystem.from_source("variables = x y\nx^2 + y^2 - 1 = 0\n")
    with pytest.raises(ValueError):
        certified_surface_approximation(curve, (1.0, 0.0), 0.1, 0.125)


def test_domain_must_match_ambient_dimension():
    with pytest.raises(ValueError):
        certified_surface_approximation(
            PLANE, (0.0, 0.0, 0.0), 0.1, 0.125, domain=[(-1.0, 1.0)] * 2
        )


# ---------------------------------------------------------------------------
# sheet reconciliation


def _foreign_touching_pairs(run):
    """Live pairs in different components whose slabs touch."""
    live = run.live_patches()
    return [
        (a, b)
        for k, (a, pa) in enumerate(live)
        for b, pb in live[k + 1 :]
        if run.find(a) != run.find(b) and not obox_disjoint(pa.slab, pb.slab)
    ]


def test_reconcile_replaces_entangled_sheets():
    # up and down lie on the two sheets of the fold, and their slabs meet
    run = SurfaceRun(system=FOLD, rho=0.125, r_initial=0.1)
    up = certify_box(FOLD, (0.0025, 0.0, 0.05), 0.1, 0.125)
    down = certify_box(FOLD, (0.0025, 0.0, -0.05), 0.1, 0.125)
    run.add(up)
    assert not obox_disjoint(run.patches[0].slab, down.slab)
    welded, conflicts = _reconcile(run, down)
    assert welded == [] and [pid for pid, _ in conflicts] == [0]
    refinement = conflicts[0][1]
    queue = deque()
    _replace_with_refinements(run, 0, refinement, queue)
    assert run.patches[0] is None
    # each piece entered welded; the pieces that met another sheet stayed out
    assert 1 < run.live_count() < len(refinement)
    assert sorted(queue) == [pid for pid, _ in run.live_patches()]
    assert _foreign_touching_pairs(run) == []
