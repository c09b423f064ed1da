"""Patch certification and the same-sheet / disjoint-sheet predicates.

Frozen expectations come from hand analysis of the model systems:

* unit sphere at the pole: radius 0.1 fails the box test, 0.05 passes
  with K norm 0.005, so certify_box halves exactly once;
* off-axis sphere point: the rotated frame costs one more halving
  (r = 0.025, K norm 0.002475);
* flat pair z^2 = 0.01: the pass condition is 10 r^2 < rho r, so from
  r = 1.0 the first passing halving is r = 2^-7 = 0.0078125;
* fold z^2 = x: mirrored patches near the fold tip give every predicate
  regime (shared arc, engaged refinement, outright disjoint).
"""

import numpy as np
import pytest

from certsurf import patching
from certsurf.errors import CertificationError, RankDeficientError
from certsurf.frames import obox_disjoint
from certsurf.intervals import IntervalBox
from certsurf.patching import (
    CertifiedPatch,
    certify_box,
    component_test,
    inclusion_test,
    newton_polish,
)
from certsurf.system import AnalyticSystem

SPHERE = "variables = x y z\nx^2 + y^2 + z^2 - 1 = 0\n"
FLAT_PAIR = "variables = x y z\nz^2 - 0.01 = 0\n"
FOLD = "variables = x y z\nz^2 - x = 0\n"


@pytest.fixture(scope="module")
def sphere():
    return AnalyticSystem.from_source(SPHERE)


@pytest.fixture(scope="module")
def flat_pair():
    return AnalyticSystem.from_source(FLAT_PAIR)


@pytest.fixture(scope="module")
def fold():
    return AnalyticSystem.from_source(FOLD)


def test_newton_polish_reaches_the_sphere(sphere):
    point = newton_polish(sphere, [0.1, -0.2, 1.3])
    assert abs(float(np.dot(point, point)) - 1.0) <= 1e-12


def test_newton_polish_stuck_at_critical_point_raises(sphere):
    # gradient vanishes at the origin, so the step degenerates
    with pytest.raises(CertificationError):
        newton_polish(sphere, [0.0, 0.0, 0.0])


def test_certify_box_pole(sphere):
    patch = certify_box(sphere, [0.0, 0.0, 1.05], 0.1, 0.125)
    assert isinstance(patch, CertifiedPatch)
    # start off the surface: polish must land on the pole first
    assert np.allclose(patch.frame.center, [0.0, 0.0, 1.0], atol=1e-9)
    # 0.1 fails, one halving passes
    assert patch.r == 0.05
    assert patch.r_fiber == pytest.approx(0.00625, rel=1e-12)
    assert 0.00499 <= patch.cert.norm_k <= 0.00501
    assert patch.cert.margin > 0.0
    assert patch.rho == 0.125


def test_certify_box_off_axis_needs_two_halvings(sphere):
    patch = certify_box(sphere, [0.6, 0.0, 0.8], 0.1, 0.125)
    assert patch.r == 0.025
    assert 0.0024 <= patch.cert.norm_k <= 0.0025


def test_certify_box_flat_sheet_radius(flat_pair):
    # pass condition 10 r^2 < rho r forces r below 0.0125
    patch = certify_box(flat_pair, [0.0, 0.0, 0.1], 1.0, 0.125)
    assert patch.r == 2.0**-7
    assert patch.r_fiber == pytest.approx(0.125 * 2.0**-7, rel=1e-12)


def test_certify_box_singular_point_raises():
    cone = AnalyticSystem.from_source("variables = x y z\nx^2 + y^2 - z^2 = 0\n")
    with pytest.raises(RankDeficientError):
        certify_box(cone, [0.0, 0.0, 0.0], 0.1, 0.125)


def test_enclosure_and_uniqueness_geometry(sphere):
    patch = certify_box(sphere, [0.0, 0.0, 1.05], 0.1, 0.125)
    enc = patch.slab
    unq = patch.cube
    assert enc.radii == (patch.r, patch.r, patch.r_fiber)
    assert unq.radii == (patch.r, patch.r, patch.r)
    assert patch.slab_holds(IntervalBox.point(patch.frame.center))
    # slab is strictly thinner than the uniqueness cube
    assert patch.r_fiber < patch.r


def test_inclusion_mutual_for_overlapping_patches(sphere):
    a = certify_box(sphere, [0.0, 0.0, 1.0], 0.1, 0.125)
    b = certify_box(sphere, [0.03, 0.0, 1.0], 0.1, 0.125)
    assert inclusion_test(a, b)
    assert inclusion_test(b, a)


def test_inclusion_false_without_overlap(sphere):
    a = certify_box(sphere, [0.0, 0.0, 1.0], 0.1, 0.125)
    c = certify_box(sphere, [0.6, 0.0, 0.8], 0.1, 0.125)
    assert not inclusion_test(a, c)
    assert not inclusion_test(c, a)


def test_inclusion_of_patch_in_itself(sphere):
    a = certify_box(sphere, [0.0, 0.0, 1.0], 0.1, 0.125)
    assert inclusion_test(a, a)


def test_component_same_sheet(sphere):
    a = certify_box(sphere, [0.0, 0.0, 1.0], 0.1, 0.125)
    b = certify_box(sphere, [0.03, 0.0, 1.0], 0.1, 0.125)
    verdict, _, _ = component_test(a, b)
    assert verdict is True


def test_component_flat_sheets_separate_at_once(flat_pair):
    p = certify_box(flat_pair, [0.0, 0.0, 0.1], 1.0, 0.125)
    q = certify_box(flat_pair, [0.0, 0.0, -0.1], 1.0, 0.125)
    # slabs of thickness rho * r around z = +-0.1 never meet
    assert obox_disjoint(p.slab, q.slab)
    verdict, ref_p, ref_q = component_test(p, q)
    assert verdict is False
    assert ref_p and ref_q
    for sp in ref_p:
        for sq in ref_q:
            assert obox_disjoint(sp, sq)


def test_component_fold_shared_arc(fold):
    # close to the fold the mirrored patches both wrap around the tip and
    # genuinely carry the same connected piece
    a = certify_box(fold, [0.0016, 0.0, 0.04], 0.05, 0.125)
    b = certify_box(fold, [0.0016, 0.0, -0.04], 0.05, 0.125)
    assert not obox_disjoint(a.slab, b.slab)
    verdict, _, _ = component_test(a, b)
    assert verdict is True


def test_component_fold_engaged_refinement(fold):
    # slabs overlap near the tip but the sheet pieces stop short of the
    # fold on either side; only slab refinement can separate them
    a = certify_box(fold, [0.0025, 0.0, 0.05], 0.1, 0.125)
    b = certify_box(fold, [0.0025, 0.0, -0.05], 0.1, 0.125)
    assert not obox_disjoint(a.slab, b.slab)
    assert not inclusion_test(a, b)
    assert not inclusion_test(b, a)
    verdict, ref_a, ref_b = component_test(a, b)
    assert verdict is False
    # refinement engaged: the contested side was actually subdivided
    assert len(ref_a) > 1 and len(ref_b) > 1
    for sa in ref_a:
        for sb in ref_b:
            assert obox_disjoint(sa, sb)


def test_component_undecided_raises(fold, monkeypatch):
    a = certify_box(fold, [0.0025, 0.0, 0.05], 0.1, 0.125)
    b = certify_box(fold, [0.0025, 0.0, -0.05], 0.1, 0.125)
    # the engaged case needs several rounds, so a tiny budget must refuse
    # rather than guess, and say which limit stopped it
    monkeypatch.setattr(patching, "_MAX_ROUNDS", 1)
    with pytest.raises(CertificationError, match="stopped by the 1-round limit in round 1$"):
        component_test(a, b)


def test_component_undecided_names_piece_limit(fold, monkeypatch):
    a = certify_box(fold, [0.0025, 0.0, 0.05], 0.1, 0.125)
    b = certify_box(fold, [0.0025, 0.0, -0.05], 0.1, 0.125)
    monkeypatch.setattr(patching, "_MAX_PIECES", 2)
    with pytest.raises(CertificationError, match="stopped by the 2-piece limit in round 1$"):
        component_test(a, b)


def test_component_many_nearby_sphere_patches(sphere):
    base = certify_box(sphere, [0.0, 0.0, 1.0], 0.1, 0.125)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y = rng.uniform(-0.02, 0.02, size=2)
        other = certify_box(sphere, [x, y, 1.0], 0.1, 0.125)
        assert component_test(base, other)[0] is True
