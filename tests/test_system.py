"""AnalyticSystem evaluation, Jacobians, and frame transforms."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certsurf.errors import ConfigError, IntervalDomainError, LinearAlgebraError
from certsurf.intervals import Interval, IntervalBox
from certsurf.parser import parse_expression
from certsurf.system import AnalyticSystem

XYZ = ["x", "y", "z"]

SPHERE_SRC = "variables = x y z\nx^2 + y^2 + z^2 - 1 = 0\n"
TORUS_SRC = "variables = x y z\n(sqrt(x^2 + y^2) - 2)^2 + z^2 - 0.64 = 0\n"


def sphere():
    return AnalyticSystem.from_source(SPHERE_SRC)


def torus():
    return AnalyticSystem.from_source(TORUS_SRC)


def test_shapes():
    s = sphere()
    assert (s.n, s.m, s.d) == (3, 1, 2)
    assert s.variables == ("x", "y", "z")


def test_validation():
    e = parse_expression("x - 1", XYZ)
    with pytest.raises(ConfigError):
        AnalyticSystem(["x"], [e])  # no positive-dimensional zero set
    with pytest.raises(ConfigError):
        AnalyticSystem(["x", "y", "z"], [])
    with pytest.raises(ConfigError):
        AnalyticSystem(["x", "y"], [parse_expression("x + z", XYZ)])


def test_sphere_point_values():
    s = sphere()
    assert s.eval_point([0.6, 0.8, 0.0]) == pytest.approx([0.0], abs=1e-15)
    assert s.eval_point([0.0, 0.0, 1.0])[0] == 0.0
    np.testing.assert_allclose(
        s.jacobian_point([0.6, 0.8, 0.0]), [[1.2, 1.6, 0.0]], atol=1e-15
    )


def test_torus_residual_small_at_outer_equator():
    t = torus()
    assert abs(t.eval_point([2.8, 0.0, 0.0])[0]) < 1e-14
    assert abs(t.eval_point([0.0, 1.2, 0.0])[0]) < 1e-14


def test_sphere_box_enclosure_near_pole():
    s = sphere()
    box = IntervalBox(
        [Interval(-0.05, 0.05), Interval(-0.05, 0.05), Interval(1.0, 1.0)]
    )
    out = s.eval_box(box)
    assert out[0].lo == 0.0
    assert 0.005 <= out[0].hi <= 0.0051


def test_sphere_sub_jacobian_is_2z():
    s = sphere()
    base = IntervalBox([Interval(-0.05, 0.05), Interval(-0.05, 0.05)])
    fiber = IntervalBox([Interval(0.95, 1.05)])
    full = s.jacobian_box(base.concat(fiber))
    assert full.shape == (1, 3)
    sub = [row[2:] for row in full.rows]
    assert sub == [(Interval(1.9, 2.1),)]
    jb = [row[:2] for row in full.rows]
    assert jb[0][0] == Interval(-0.1, 0.1)


def _rotation_z90():
    return np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def test_transform_point_and_jacobian():
    s = sphere()
    g = s.transform(np.eye(1), _rotation_z90())
    assert g.eval_point([1.0, 0.0, 0.0])[0] == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(
        g.jacobian_point([0.6, 0.8, 0.0]), [[1.2, 1.6, 0.0]], atol=1e-14
    )


def test_transform_box_sandwich_encloses():
    s = torus()
    th = 0.3
    v = np.array(
        [
            [np.cos(th), -np.sin(th), 0.0],
            [np.sin(th), np.cos(th), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    g = s.transform(np.eye(1), v)
    rng = random.Random(7)
    for _ in range(25):
        c = [rng.uniform(1.5, 2.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4)]
        r = [abs(rng.gauss(0, 0.05)) for _ in range(3)]
        box = IntervalBox.from_center_radii(c, r)
        out = g.eval_box(box)
        jout = g.jacobian_box(box)
        for _ in range(4):
            p = [box[i].lo + rng.random() * (box[i].hi - box[i].lo) for i in range(3)]
            val = g.eval_point(p)[0]
            assert out[0].lo <= val <= out[0].hi
            jp = g.jacobian_point(p)
            for j in range(3):
                assert jout[0, j].lo <= jp[0, j] <= jout[0, j].hi


def test_transform_nests():
    s = sphere()
    v1 = _rotation_z90()
    g1 = s.transform(np.eye(1), v1)
    g2 = g1.transform(np.eye(1), v1.T)
    assert g2.base is g1
    assert g2.eval_point([0.0, 0.0, 1.0])[0] == pytest.approx(0.0, abs=1e-15)
    box = IntervalBox.from_center_radii([0.6, 0.8, 0.0], [0.01, 0.01, 0.01])
    out = g2.eval_box(box)
    assert out[0].lo <= 0.0 <= out[0].hi


def test_transform_shift():
    s = sphere()
    g = s.transform(np.eye(1), np.eye(3), shift=[0.0, 0.0, 1.0])
    # g(z) = F(z + e3): the pole moves to the origin
    assert g.eval_point([0.0, 0.0, 0.0])[0] == 0.0
    np.testing.assert_allclose(g.jacobian_point([0.0, 0.0, 0.0]), [[0.0, 0.0, 2.0]])
    out = g.eval_box(IntervalBox.from_center_radii([0.0, 0.0, 0.0], [0.05, 0.05, 0.0]))
    assert out[0].lo == 0.0
    assert 0.005 <= out[0].hi <= 0.0051


def test_transform_rejects_skewed_frame():
    s = sphere()
    bad = np.eye(3)
    bad[0, 1] = 0.1
    with pytest.raises(LinearAlgebraError):
        s.transform(np.eye(1), bad)
    with pytest.raises(LinearAlgebraError):
        s.transform(np.eye(2), _rotation_z90())


@given(
    st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
    st.lists(st.floats(0, 0.3), min_size=3, max_size=3),
)
@settings(max_examples=120, deadline=None)
def test_eval_box_encloses_center(center, radii):
    s = sphere()
    box = IntervalBox.from_center_radii(center, radii)
    out = s.eval_box(box)
    val = s.eval_point(center)[0]
    assert out[0].lo <= val <= out[0].hi
    jout = s.jacobian_box(box)
    jp = s.jacobian_point(center)
    for j in range(3):
        assert jout[0, j].lo <= jp[0, j] <= jout[0, j].hi


def _torus_frames():
    """The torus, its rotated and shifted transform, and a transform of that."""
    s = torus()
    th = 0.3
    v = np.array([[np.cos(th), -np.sin(th), 0.0], [np.sin(th), np.cos(th), 0.0], [0.0, 0.0, 1.0]])
    g = s.transform(np.eye(1), v, shift=[0.1, 0.0, 0.0])
    return [s, g, g.transform(np.eye(1), _rotation_z90())]


@pytest.mark.parametrize("which", [0, 1, 2], ids=["analytic", "transformed", "nested"])
def test_batched_evaluation_contains_the_scalar_one(which):
    system = _torus_frames()[which]
    rng = random.Random(3)
    boxes = [
        IntervalBox.from_center_radii(
            [rng.uniform(1.5, 2.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4)],
            [abs(rng.gauss(0, 0.05)) for _ in range(3)],
        )
        for _ in range(12)
    ]
    coords = [
        (np.array([b[i].lo for b in boxes]), np.array([b[i].hi for b in boxes])) for i in range(3)
    ]
    (v_lo, v_hi), (j_lo, j_hi) = system.eval_ends(coords), system.jacobian_ends(coords)
    assert v_lo.shape == (12, 1) and j_lo.shape == (12, 1, 3)
    for k, box in enumerate(boxes):
        value, jac = system.eval_box(box), system.jacobian_box(box)
        assert v_lo[k, 0] <= value[0].lo and value[0].hi <= v_hi[k, 0]
        for j in range(3):
            assert j_lo[k, 0, j] <= jac[0, j].lo and jac[0, j].hi <= j_hi[k, 0, j]


@pytest.mark.parametrize("which", [0, 1, 2], ids=["analytic", "transformed", "nested"])
def test_point_evaluation_takes_lanes(which):
    system = _torus_frames()[which]
    rng = np.random.default_rng(4)
    points = rng.uniform([1.5, -0.5, -0.4], [2.5, 0.5, 0.4], size=(9, 3))
    values, jacs = system.eval_point(points), system.jacobian_point(points)
    assert values.shape == (9, 1) and jacs.shape == (9, 1, 3)
    for k, p in enumerate(points):
        np.testing.assert_allclose(values[k], system.eval_point(p), rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(jacs[k], system.jacobian_point(p), rtol=1e-13, atol=1e-15)
        assert system.eval_point(points[k : k + 1]).tobytes() == values[k : k + 1].tobytes()
        assert system.jacobian_point(points[k : k + 1]).tobytes() == jacs[k : k + 1].tobytes()


def test_point_lanes_raise_on_any_domain_error():
    s = AnalyticSystem.from_source("variables = x y\ny - sqrt(x) = 0\n")
    assert s.eval_point(np.array([[1.0, 0.0], [4.0, 0.0]]))[:, 0].tolist() == [-1.0, -2.0]
    with pytest.raises(IntervalDomainError):
        s.eval_point(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    p = AnalyticSystem.from_source("variables = x y\ny - x^(-3) = 0\n")
    with pytest.raises(IntervalDomainError):
        p.eval_point(np.array([[1.0, 0.0], [0.0, 0.0]]))
