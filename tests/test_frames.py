"""Tangent frames and oriented-box geometry predicates."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certsurf.frames import OrientedBox, obox_contains, obox_disjoint, tangent_align
from certsurf.intervals import Interval, IntervalBox, IntervalMatrix
from certsurf.krawczyk import krawczyk_test
from certsurf.system import AnalyticSystem

SPHERE_SRC = "variables = x y z\nx^2 + y^2 + z^2 - 1 = 0\n"


def sphere():
    return AnalyticSystem.from_source(SPHERE_SRC)


def test_tangent_align_at_pole():
    frame, g = tangent_align(sphere(), [0.0, 0.0, 1.0])
    assert frame.sigma == pytest.approx((2.0,))
    assert frame.d == 2
    # fiber column is the surface normal +-e3
    assert np.abs(frame.v[:, 2]) == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)
    np.testing.assert_allclose(g.jacobian_point([0.0, 0.0, 0.0]), [[0.0, 0.0, 2.0]], atol=1e-12)
    assert g.eval_point([0.0, 0.0, 0.0])[0] == pytest.approx(0.0, abs=1e-15)


def test_tangent_align_off_axis_certifies():
    s = sphere()
    frame, g = tangent_align(s, [0.6, 0.0, 0.8])
    assert np.abs(frame.v[:, 2]) == pytest.approx([0.6, 0.0, 0.8], abs=1e-14)
    # the rotated frame pays a wrapping penalty relative to the pole, so
    # certification kicks in one halving later
    base = IntervalBox([Interval(-0.025, 0.025), Interval(-0.025, 0.025)])
    res = krawczyk_test(g, base, [0.0], 0.025, 0.125)
    assert res.passed
    assert 0.0024 <= res.norm_k <= 0.0025


def test_frame_world_roundtrip():
    frame, _ = tangent_align(sphere(), [0.6, 0.0, 0.8])
    w = frame.to_world([0.01, -0.02, 0.003])
    local = frame.world_to_local_box(IntervalBox.point(list(w)))
    for got, want in zip(local.parts, (0.01, -0.02, 0.003)):
        assert got.lo <= want <= got.hi
        assert got.hi - got.lo < 1e-13


def _rot_z(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_world_hull_of_rotated_box():
    b = OrientedBox.make([0.0, 0.0, 0.0], _rot_z(np.pi / 4), [1.0, 1.0, 0.1])
    hull = b.world_hull()
    w = np.sqrt(2.0)
    assert hull[0].lo == pytest.approx(-w, abs=1e-12)
    assert hull[0].hi == pytest.approx(w, abs=1e-12)
    assert hull[0].lo <= -w <= w <= hull[0].hi or abs(hull[0].hi - w) < 1e-12
    assert hull[2].lo == pytest.approx(-0.1, abs=1e-15)


def test_contains_world_point():
    # a world point is a box of radius 0; containment goes through obox_contains
    b = OrientedBox.make([1.0, 2.0, 3.0], _rot_z(0.3), [0.5, 0.4, 0.3])

    def point(p):
        return OrientedBox.make(p, np.eye(3), [0.0, 0.0, 0.0])

    assert obox_contains(b, point([1.0, 2.0, 3.0]))
    inside = np.array([1.0, 2.0, 3.0]) + b.v @ np.array([0.49, -0.39, 0.29])
    outside = np.array([1.0, 2.0, 3.0]) + b.v @ np.array([0.51, 0.0, 0.0])
    assert obox_contains(b, point(inside))
    assert not obox_contains(b, point(outside))


def test_obox_contains_basic():
    outer = OrientedBox.make([0.0, 0.0, 0.0], _rot_z(0.7), [1.0, 1.0, 0.5])
    inner = OrientedBox.make(
        list(_rot_z(0.7) @ [0.2, 0.1, 0.0]), _rot_z(0.7), [0.3, 0.3, 0.2]
    )
    assert obox_contains(outer, inner)
    far = OrientedBox.make([2.0, 0.0, 0.0], _rot_z(0.7), [0.3, 0.3, 0.2])
    assert not obox_contains(outer, far)
    # rotated inner must fit through its diagonal
    diag = OrientedBox.make([0.0, 0.0, 0.0], _rot_z(0.7 + np.pi / 4), [0.6, 0.6, 0.2])
    assert obox_contains(outer, diag)
    too_big = OrientedBox.make([0.0, 0.0, 0.0], _rot_z(0.7 + np.pi / 4), [0.8, 0.8, 0.2])
    assert not obox_contains(outer, too_big)


def test_obox_disjoint_rotated_pair():
    # axis-aligned cube vs the same cube rotated 45 degrees about z, both
    # with half-width 0.5: contact happens at center distance (1+sqrt(2))/2
    a = OrientedBox.make([0.0, 0.0, 0.0], np.eye(3), [0.5, 0.5, 0.5])
    b = OrientedBox.make([1.42, 0.0, 0.0], _rot_z(np.pi / 4), [0.5, 0.5, 0.5])
    assert obox_disjoint(a, b)
    # the separation is certified down to a gap of a few ulps along e1
    contact = (1.0 + np.sqrt(2.0)) / 2.0
    near = OrientedBox.make([contact + 1e-12, 0.0, 0.0], _rot_z(np.pi / 4), [0.5, 0.5, 0.5])
    assert obox_disjoint(a, near)

    touching = OrientedBox.make([1.20, 0.0, 0.0], _rot_z(np.pi / 4), [0.5, 0.5, 0.5])
    assert not obox_disjoint(a, touching)


def test_obox_disjoint_needs_cross_axes():
    # face normals alone cannot separate this pair; a cross product can
    ra = np.array(
        [
            [np.cos(0.6), 0.0, np.sin(0.6)],
            [0.0, 1.0, 0.0],
            [-np.sin(0.6), 0.0, np.cos(0.6)],
        ]
    )
    a = OrientedBox.make([0.0, 0.0, 0.0], np.eye(3), [1.0, 0.05, 0.05])
    b = OrientedBox.make([0.0, 0.3, 0.3], ra @ _rot_z(np.pi / 3), [1.0, 0.05, 0.05])
    pa_sep = obox_disjoint(a, b)
    # sanity: the two segments really are far apart
    assert pa_sep


def test_obox_predicates_fuzz_consistency():
    rng = random.Random(2024)
    for _ in range(200):
        va = _random_rot(rng)
        vb = _random_rot(rng)
        ca = [rng.uniform(-1, 1) for _ in range(3)]
        cb = [rng.uniform(-1, 1) for _ in range(3)]
        a = OrientedBox.make(ca, va, [rng.uniform(0.05, 0.6) for _ in range(3)])
        b = OrientedBox.make(cb, vb, [rng.uniform(0.05, 0.6) for _ in range(3)])
        pts_b = _sample_points(rng, b, 12)
        if obox_disjoint(a, b):
            for p in pts_b:
                local = np.linalg.solve(a.v, np.array(p) - np.array(a.center))
                assert np.any(np.abs(local) > np.array(a.radii) - 1e-9)
        if obox_contains(a, b):
            for p in pts_b:
                local = np.linalg.solve(a.v, np.array(p) - np.array(a.center))
                assert np.all(np.abs(local) <= np.array(a.radii) + 1e-9)


def _random_rot(rng: random.Random) -> np.ndarray:
    g = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)])
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def _sample_points(rng: random.Random, box: OrientedBox, count: int):
    out = []
    for _ in range(count):
        z = [rng.uniform(-r, r) for r in box.radii]
        out.append(list(np.array(box.center) + box.v @ np.array(z)))
    # include the corners most likely to poke out
    for corner in ([box.radii[0], box.radii[1], box.radii[2]], [-box.radii[0], box.radii[1], -box.radii[2]]):
        out.append(list(np.array(box.center) + box.v @ np.array(corner)))
    return out


# ---------------------------------------------------------------------------
# array separating-axis test against a scalar oracle


def _scalar_disjoint(a: OrientedBox, b: OrientedBox) -> bool:
    """The separating-axis test on scalar intervals, over the same 15 axes."""
    for (alo, ahi), (blo, bhi) in zip(a.aabb, b.aabb):
        if ahi < blo or bhi < alo:
            return True
    cross = [np.cross(a.v[:, i], b.v[:, j]) for i in range(3) for j in range(3)]
    axes = IntervalMatrix.from_floats(np.vstack([a.v.T, b.v.T] + cross))

    def projections(box):
        centers = axes.matvec(IntervalBox.point(box.center)).parts
        coeffs = axes.matmul(IntervalMatrix.from_floats(box.v)).rows
        out = []
        for total, row in zip(centers, coeffs):
            for c, r in zip(row, box.radii):
                total = total + c * Interval(-r, r)
            out.append(total)
        return out

    return any(
        pa.hi < pb.lo or pb.hi < pa.lo for pa, pb in zip(projections(a), projections(b))
    )


def _rotation(q) -> np.ndarray:
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


unit = st.floats(min_value=-1.0, max_value=1.0)
quaternions = st.tuples(unit, unit, unit, unit).filter(lambda q: sum(t * t for t in q) > 0.01)
radii = st.tuples(*[st.floats(min_value=1e-3, max_value=1.0)] * 3)


@st.composite
def box_pairs(draw):
    va = _rotation(draw(quaternions))
    vb = _rotation(draw(quaternions))
    ra, rb = draw(radii), draw(radii)
    ca = np.array(draw(st.tuples(unit, unit, unit)))
    if draw(st.booleans()):
        # touching along a face normal of a, up to a relative 1e-12
        k = draw(st.integers(0, 2))
        normal = va[:, k]
        reach = ra[k] + sum(abs(normal @ vb[:, j]) * rb[j] for j in range(3))
        cb = ca + reach * (1.0 + draw(st.floats(-1e-12, 1e-12))) * normal
    else:
        cb = ca + 2.0 * np.array(draw(st.tuples(unit, unit, unit)))
    return OrientedBox.make(ca, va, ra), OrientedBox.make(cb, vb, rb)


@given(box_pairs())
@settings(max_examples=300, deadline=None)
def test_obox_disjoint_claims_only_what_the_scalar_oracle_proves(pair):
    a, b = pair
    if obox_disjoint(a, b):
        assert _scalar_disjoint(a, b)
    assert obox_disjoint(a, b) == obox_disjoint(b, a)


def test_overflowing_boxes_are_not_disjoint_and_do_not_raise():
    # projections of these centres onto the rotated axes overflow to inf
    c = [1.5e308, 1.5e308, 0.0]
    a = OrientedBox.make(c, _rot_z(0.3), [1.0, 1.0, 1.0])
    b = OrientedBox.make(c, _rot_z(1.1), [1.0, 1.0, 1.0])
    assert not obox_disjoint(a, b)
    assert not obox_contains(a, b)
