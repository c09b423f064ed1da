"""Dyadic graph covers and fiber root isolation."""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from certsurf.errors import CertificationError
from certsurf.graph_cover import cover_graph, fiber_newton, isolate_fiber_roots, sheet_measures
from certsurf.intervals import Interval, IntervalBox
from certsurf.system import AnalyticSystem

PLANE = AnalyticSystem.from_source("variables = x y z\nz = 0\n")
TILTED = AnalyticSystem.from_source("variables = x y z\n0.25*x - z = 0\n")
SPHERE = AnalyticSystem.from_source("variables = x y z\nx^2 + y^2 + z^2 - 1 = 0\n")
TWO_SHEETS = AnalyticSystem.from_source("variables = x y z\nz^2 - 1 = 0\n")
SADDLE = AnalyticSystem.from_source("variables = x y z\n0.25*x^2 - 0.125*x*y^2 - z = 0\n")


def test_isolate_two_roots():
    mpmath.mp.dps = 40
    roots = isolate_fiber_roots(SPHERE, [0.3, 0.4], IntervalBox([Interval(-1.2, 1.2)]))
    assert len(roots) == 2
    truth = mpmath.sqrt(mpmath.mpf("0.75"))
    for (center, encl), want in zip(roots, (-truth, truth)):
        assert mpmath.mpf(encl[0].lo) <= want <= mpmath.mpf(encl[0].hi)
        assert center[0] == pytest.approx(float(want), abs=1e-9)


def test_isolate_no_roots():
    roots = isolate_fiber_roots(SPHERE, [0.3, 0.4], IntervalBox([Interval(2.0, 3.0)]))
    assert roots == []


def test_plane_certifies_in_one_cell():
    cover = cover_graph(
        PLANE, [(-1.0, 1.0), (-1.0, 1.0)], IntervalBox([Interval(-0.5, 0.5)]), 0.125
    )
    assert cover.sheets == 1
    assert len(cover.cells) == 1
    cell = cover.cells[0]
    assert cell.depth == 0
    assert cell.fiber_center == (0.0,)
    # the array kernel steps every result one ulp out, 1 * 1 included
    assert cell.cert.passed and cell.cert.norm_k < 1e-15
    assert cover.area_fraction() == (Fraction(1),)
    assert cover.tests == 1


def test_tilted_plane_uniform_depth():
    cover = cover_graph(
        TILTED, [(-1.0, 1.0), (-1.0, 1.0)], IntervalBox([Interval(-0.6, 0.6)]), 0.125
    )
    assert cover.sheets == 1
    assert len(cover.cells) == 256
    assert all(c.depth == 4 for c in cover.cells)
    assert cover.area_fraction() == (Fraction(1),)
    rng = random.Random(11)
    for cell in cover.cells:
        cx = cell.center[0]
        assert cell.fiber_center[0] == pytest.approx(0.25 * cx, abs=1e-12)
        # the true graph stays within the advertised enclosure
        for _ in range(3):
            x = rng.uniform(cell.bounds[0][0], cell.bounds[0][1])
            assert abs(0.25 * x - cell.fiber_center[0]) <= cell.fiber_enclosure + 1e-15


def test_sphere_cap_cover():
    mpmath.mp.dps = 40
    cover = cover_graph(
        SPHERE, [(-0.3, 0.3), (-0.3, 0.3)], IntervalBox([Interval(0.5, 1.5)]), 0.125
    )
    assert cover.sheets == 1
    assert cover.area_fraction() == (Fraction(1),)
    assert len(cover.cells) >= 4
    rng = random.Random(99)
    for cell in cover.cells:
        for _ in range(3):
            x = rng.uniform(*cell.bounds[0])
            y = rng.uniform(*cell.bounds[1])
            truth = mpmath.sqrt(1 - mpmath.mpf(x) ** 2 - mpmath.mpf(y) ** 2)
            err = abs(float(truth) - cell.fiber_center[0])
            assert err <= cell.fiber_enclosure + 1e-14


def test_two_sheet_cover():
    cover = cover_graph(
        TWO_SHEETS, [(-1.0, 1.0), (-1.0, 1.0)], IntervalBox([Interval(-1.5, 1.5)]), 0.5
    )
    assert cover.sheets == 2
    lower = cover.sheet_cells(0)
    upper = cover.sheet_cells(1)
    assert lower and upper
    assert cover.area_fraction() == (Fraction(1), Fraction(1))
    assert all(c.fiber_center[0] == pytest.approx(-1.0, abs=1e-12) for c in lower)
    assert all(c.fiber_center[0] == pytest.approx(1.0, abs=1e-12) for c in upper)


def test_area_fraction_one_dimensional():
    cubic = AnalyticSystem.from_source("variables = x y\ny - x^3 = 0\n")
    cover = cover_graph(cubic, [(-1.0, 1.0)], IntervalBox([Interval(-2.0, 2.0)]), 0.125)
    assert len(cover.cells) == 268
    assert cover.area_fraction() == (Fraction(1),)


def test_area_fraction_saddle():
    cover = cover_graph(
        SADDLE, [(-0.5, 0.5), (-0.5, 0.5)], IntervalBox([Interval(-10.0, 10.0)]), 0.125
    )
    assert len({c.depth for c in cover.cells}) > 1
    assert cover.area_fraction() == (Fraction(1),)


def test_area_fraction_per_sheet():
    pair = AnalyticSystem.from_source("variables = x y\ny^2 - 1 - 0.1*x = 0\n")
    cover = cover_graph(pair, [(-1.0, 1.0)], IntervalBox([Interval(-3.0, 3.0)]), 0.125)
    assert cover.sheets == 2
    assert cover.area_fraction() == (Fraction(1), Fraction(1))
    lower = cover.sheet_cells(0)
    assert sheet_measures([(0, c.depth) for c in lower[1:]], 2, 1)[0] < 1


def test_exact_tiling_no_gaps():
    # leaf bounds tile the root rectangle exactly, endpoint for endpoint
    cover = cover_graph(
        TILTED, [(-1.0, 1.0), (-1.0, 1.0)], IntervalBox([Interval(-0.6, 0.6)]), 0.125
    )
    xs = sorted({c.bounds[0][0] for c in cover.cells} | {c.bounds[0][1] for c in cover.cells})
    ys = sorted({c.bounds[1][0] for c in cover.cells} | {c.bounds[1][1] for c in cover.cells})
    claimed = set()
    for c in cover.cells:
        i0, i1 = xs.index(c.bounds[0][0]), xs.index(c.bounds[0][1])
        j0, j1 = ys.index(c.bounds[1][0]), ys.index(c.bounds[1][1])
        for i in range(i0, i1):
            for j in range(j0, j1):
                key = (i, j)
                assert key not in claimed  # no overlaps
                claimed.add(key)
    assert len(claimed) == (len(xs) - 1) * (len(ys) - 1)  # no gaps


def test_forced_refinement():
    cover = cover_graph(
        PLANE,
        [(-1.0, 1.0), (-1.0, 1.0)],
        IntervalBox([Interval(-0.5, 0.5)]),
        0.125,
        max_cell_radius=0.3,
    )
    assert len(cover.cells) == 16
    assert all(c.depth == 2 for c in cover.cells)
    assert cover.area_fraction() == (Fraction(1),)
    # cells wider than the cap are split untested
    assert cover.tests == 16


def test_not_a_graph_raises():
    with pytest.raises(CertificationError):
        cover_graph(
            SPHERE, [(-0.8, 0.8), (-0.8, 0.8)], IntervalBox([Interval(0.0, 1.5)]), 0.125
        )


def test_empty_bracket_raises():
    with pytest.raises(CertificationError):
        cover_graph(
            SPHERE, [(-0.3, 0.3), (-0.3, 0.3)], IntervalBox([Interval(2.0, 3.0)]), 0.125
        )


def test_bad_parameters():
    with pytest.raises(ValueError):
        cover_graph(PLANE, [(-1.0, 1.0)], IntervalBox([Interval(-0.5, 0.5)]), 0.125)
    with pytest.raises(ValueError):
        cover_graph(
            PLANE, [(-1.0, 1.0), (1.0, -1.0)], IntervalBox([Interval(-0.5, 0.5)]), 0.125
        )
    with pytest.raises(ValueError):
        cover_graph(
            PLANE, [(-1.0, 1.0), (-1.0, 1.0)], IntervalBox([Interval(-0.5, 0.5)]), 0.0
        )


def test_cover_counts_its_cell_tests():
    cover = cover_graph(
        SADDLE, [(-0.5, 0.5), (-0.5, 0.5)], IntervalBox([Interval(-10.0, 10.0)]), 0.125
    )
    # the root cell and four children per failed test are tested
    failed = cover.tests - len(cover.cells)
    assert cover.tests == 1 + 4 * failed


def test_max_cells_bounds_the_cells_taken():
    with pytest.raises(CertificationError, match="exceeded 20 cells"):
        cover_graph(
            SADDLE, [(-0.5, 0.5), (-0.5, 0.5)], IntervalBox([Interval(-10.0, 10.0)]), 0.125, max_cells=20
        )


def test_fiber_newton_lanes_are_independent():
    base = np.array([[0.3, 0.4], [0.0, 0.0], [0.9, 0.9], [-0.5, 0.1]])
    seeds = np.array([[0.8], [1.0], [0.5], [0.9]])
    roots = fiber_newton(SPHERE, base, seeds)
    # (0.9, 0.9) lies outside the unit disk: no root, a NaN row
    assert np.isnan(roots[2]).all()
    for i in (0, 1, 3):
        assert roots[i, 0] == pytest.approx(np.sqrt(1 - base[i] @ base[i]), abs=1e-12)
    for i in range(len(base)):
        alone = fiber_newton(SPHERE, base[i : i + 1], seeds[i : i + 1])
        assert alone.tobytes() == roots[i : i + 1].tobytes()
