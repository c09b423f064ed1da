"""Tangent frames and oriented-box geometry predicates."""

from __future__ import annotations

import random

import numpy as np
import pytest

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


def test_obox_contains_restricted_axes():
    outer = OrientedBox.make([0.0, 0.0, 0.0], np.eye(3), [1e-12, 1.0, 1.0])
    inner = OrientedBox.make([0.0, 0.0, 0.0], np.eye(3), [0.5, 0.5, 0.5])
    assert not obox_contains(outer, inner)
    assert obox_contains(outer, inner, axes=(1, 2))
    assert not obox_contains(outer, inner, axes=(0,))


def test_obox_disjoint_rotated_pair():
    # axis-aligned cube vs the same cube rotated 45 degrees about z, both
    # with half-width 0.5: contact happens at center distance (1+sqrt(2))/2
    a = OrientedBox.make([0.0, 0.0, 0.0], np.eye(3), [0.5, 0.5, 0.5])
    b = OrientedBox.make([1.42, 0.0, 0.0], _rot_z(np.pi / 4), [0.5, 0.5, 0.5])
    assert obox_disjoint(a, b)
    # certified gap along e1 matches the closed form 1.42 - (1+sqrt(2))/2
    from certsurf.frames import _projections

    e1 = IntervalMatrix.from_floats([[1.0, 0.0, 0.0]])
    (pa,) = _projections(e1, a)
    (pb,) = _projections(e1, b)
    gap = pb.lo - pa.hi
    assert 0.2128 <= gap <= 0.2130

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
