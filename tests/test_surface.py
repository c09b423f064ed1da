"""Surface growth driver: boundary coverage, clipping, trim, full runs."""

import numpy as np
import pytest

from certsurf import surface
from certsurf.errors import CertificationError
from certsurf.frames import obox_disjoint
from certsurf.intervals import Interval, IntervalBox
from certsurf.patching import certify_box
from certsurf.surface import (
    EdgeCoverage,
    SurfaceRun,
    _clip_outside_domain,
    _edge_exit_point,
    _facet_slab,
    certified_surface_approximation,
    coverage_update,
    post_process_trim,
)
from certsurf.system import AnalyticSystem

PLANE = AnalyticSystem.from_source("variables = x y z\nz = 0\n")
SPHERE = AnalyticSystem.from_source("variables = x y z\nx^2 + y^2 + z^2 - 1 = 0\n")
FOLD = AnalyticSystem.from_source("variables = x y z\nz^2 - x = 0\n")


# ---------------------------------------------------------------------------
# EdgeCoverage bookkeeping


def test_edge_coverage_starts_full():
    cov = EdgeCoverage(0.5)
    assert not cov.is_done()
    assert sum(hi - lo for pieces in cov.edges.values() for lo, hi in pieces) == 4.0
    axis, side, lo, hi = cov.longest()
    assert (lo, hi) == (-0.5, 0.5)


def test_edge_coverage_subtract_middle_splits():
    cov = EdgeCoverage(1.0)
    removed = cov.subtract(0, 1, -0.25, 0.25)
    assert removed == pytest.approx(0.5)
    assert cov.intervals(0, 1) == [(-1.0, -0.25), (0.25, 1.0)]
    # other edges untouched
    assert cov.intervals(0, -1) == [(-1.0, 1.0)]


def test_edge_coverage_subtract_is_idempotent():
    cov = EdgeCoverage(1.0)
    cov.subtract(1, -1, 0.0, 0.5)
    again = cov.subtract(1, -1, 0.0, 0.5)
    assert again == 0.0


def test_edge_coverage_drops_slivers():
    cov = EdgeCoverage(1.0)
    # leave a sliver narrower than the floor on the left
    cov.subtract(0, 1, -1.0 + 0.25 * cov.floor, 1.0)
    assert cov.intervals(0, 1) == []


def test_edge_coverage_done_after_all_edges():
    cov = EdgeCoverage(0.25)
    for axis in range(2):
        for side in (-1, 1):
            cov.subtract(axis, side, -0.25, 0.25)
    assert cov.is_done()
    assert cov.longest() is None


# ---------------------------------------------------------------------------
# edge exit points and pairwise coverage


def test_edge_exit_point_lands_on_sphere():
    patch = certify_box(SPHERE, (0.0, 0.0, 1.0), 0.05, 0.125)
    z = _edge_exit_point(patch, 0, 1, 0.0)
    assert z is not None
    assert np.dot(z, z) == pytest.approx(1.0, abs=1e-10)
    local = patch.frame.world_to_local_box(IntervalBox.point(list(z)))
    assert local.parts[0].midpoint() == pytest.approx(patch.r, abs=1e-12)


def test_coverage_update_straddling_plane_patches():
    run = SurfaceRun(system=PLANE, rho=0.125, r_initial=0.1)
    a = certify_box(PLANE, (0.0, 0.0, 0.0), 0.1, 0.125)
    # b's square straddles a's right edge and overhangs both its corners,
    # so facet slabs can sit strictly inside b along the whole edge
    shift = a.frame.to_world([0.25, 0.0, 0.0])
    b = certify_box(PLANE, tuple(shift), 0.2, 0.125)
    ia = run.add(a)
    ib = run.add(b)
    removed = coverage_update(run, ia, ib, attempts=12)
    assert removed > 0.0
    # exactly one edge of a faces b; it is now fully covered
    done_edges = [
        key for key, pieces in run.coverage[ia].edges.items() if not pieces
    ]
    assert len(done_edges) == 1


def test_coverage_update_ignores_far_patch():
    run = SurfaceRun(system=PLANE, rho=0.125, r_initial=0.1)
    a = certify_box(PLANE, (0.0, 0.0, 0.0), 0.1, 0.125)
    far = a.frame.to_world([5.0, 0.0, 0.0])
    b = certify_box(PLANE, tuple(far), 0.1, 0.125)
    ia = run.add(a)
    ib = run.add(b)
    assert coverage_update(run, ia, ib) == 0.0
    assert all(pieces == [(-0.1, 0.1)] for pieces in run.coverage[ia].edges.values())


def test_facet_slab_skips_container_that_misses_the_probe(monkeypatch):
    # the container's cube lies far from the edge probe, so no slab
    # certified from there can sit inside it; nothing is certified
    def refuse(*args):
        raise AssertionError("certify_box reached")

    run = SurfaceRun(system=PLANE, rho=0.125, r_initial=0.1)
    a = certify_box(PLANE, (0.0, 0.0, 0.0), 0.1, 0.125)
    far = certify_box(PLANE, tuple(a.frame.to_world([5.0, 0.0, 0.0])), 0.1, 0.125)
    ia = run.add(a)
    ifar = run.add(far)
    monkeypatch.setattr(surface, "certify_box", refuse)
    assert _facet_slab(run, ia, ifar, 0, 1, 0.0, 0.05) is None


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
        assert (cov.intervals(axis, side) == []) == outside


# ---------------------------------------------------------------------------
# full runs


def test_plane_run_tiles_domain():
    run = certified_surface_approximation(
        PLANE, (0.0, 0.0, 0.0), 0.1, 0.125, domain=[(-1.0, 1.0)] * 3
    )
    assert run.natural and not run.truncated
    assert run.color_tags[0] == "initial"
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
# trim pass


def _engaged_fold_run():
    run = SurfaceRun(system=FOLD, rho=0.125, r_initial=0.1)
    up = certify_box(FOLD, (0.0025, 0.0, 0.05), 0.1, 0.125)
    down = certify_box(FOLD, (0.0025, 0.0, -0.05), 0.1, 0.125)
    run.add(up)
    run.add(down)
    return run


def test_trim_replaces_entangled_sheets():
    run = _engaged_fold_run()
    assert not obox_disjoint(run.slab(0), run.slab(1))
    post_process_trim(run)
    assert run.verdicts[frozenset((0, 1))] is False
    assert run.patches[0] is None and run.patches[1] is None
    assert run.live_count() > 2
    assert run.exclusions, "shared region should be recorded on replacements"
    for pid, regions in run.exclusions.items():
        assert run.patches[pid] is not None
        assert all(hi > lo for region in regions for lo, hi in region)


def test_trim_skips_truncated_runs():
    run = _engaged_fold_run()
    run.truncated = True
    post_process_trim(run)
    assert run.patches[0] is not None and run.patches[1] is not None
    assert not run.verdicts


def test_trim_keeps_partially_excluded_box():
    # exclusions are metadata only: trim never drops a box because of them
    run = _engaged_fold_run()
    post_process_trim(run)
    survivor = run.live_ids()[0]
    aabb = run.cube(survivor).aabb
    half = tuple(
        (lo, 0.5 * (lo + hi)) if k == 0 else (lo, hi)
        for k, (lo, hi) in enumerate(aabb)
    )
    run.exclusions[survivor] = [half]
    post_process_trim(run)
    assert run.patches[survivor] is not None
