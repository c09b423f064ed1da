"""Contraction certificates and slice-root refinement."""

from __future__ import annotations

import math
import random

import mpmath
import numpy as np
import pytest

from certsurf.errors import ATTEMPT_ERRORS, RefinementStalledError
from certsurf.frames import tangent_align
from certsurf.graph_cover import fiber_newton, isolate_fiber_roots
from certsurf.intervals import Interval, IntervalBox, IntervalMatrix
from certsurf.krawczyk import (
    _krawczyk_terms,
    _slice_value_enclosure,
    krawczyk_cells,
    krawczyk_test,
    refine_fiber_root,
)
from certsurf.system import AnalyticSystem

SPHERE_SRC = "variables = x y z\nx^2 + y^2 + z^2 - 1 = 0\n"
TORUS_SRC = "variables = x y z\n(sqrt(x^2 + y^2) - 2)^2 + z^2 - 0.64 = 0\n"
PLANE_SRC = "variables = x y z\nz = 0\n"


def _base(r):
    return IntervalBox([Interval(-r, r), Interval(-r, r)])


def _k_box(system, base_box, center, radius):
    fiber_box = IntervalBox.from_center_radii(center, [radius] * len(center))
    newton, spread = _krawczyk_terms(system, base_box, center, fiber_box)
    return IntervalBox([s - f for s, f in zip(spread.parts, newton.parts)])


def test_sphere_pole_fails_at_radius_tenth():
    s = AnalyticSystem.from_source(SPHERE_SRC)
    res = krawczyk_test(s, _base(0.1), [1.0], 0.1, 0.125)
    assert not res.passed
    assert 0.0199 <= res.norm_k <= 0.0201
    assert res.threshold == pytest.approx(0.0125, abs=1e-17)
    assert res.margin < 0.0
    # worked example: K = [-0.02, 0.01] up to rounding
    k_box = _k_box(s, _base(0.1), [1.0], 0.1)
    assert k_box[0].lo == pytest.approx(-0.02, abs=1e-6)
    assert k_box[0].hi == pytest.approx(0.01, abs=1e-6)


def test_sphere_pole_passes_at_radius_twentieth():
    s = AnalyticSystem.from_source(SPHERE_SRC)
    res = krawczyk_test(s, _base(0.05), [1.0], 0.05, 0.125)
    assert res.passed
    assert 0.00499 <= res.norm_k <= 0.00501
    assert res.margin == pytest.approx(0.00125, rel=1e-2)
    k_box = _k_box(s, _base(0.05), [1.0], 0.05)
    assert k_box[0].lo == pytest.approx(-0.005, abs=1e-7)
    assert k_box[0].hi == pytest.approx(0.0025, abs=1e-7)


def test_plane_has_identically_zero_k():
    s = AnalyticSystem.from_source(PLANE_SRC)
    res = krawczyk_test(s, _base(100.0), [0.0], 5.0, 0.125)
    assert res.passed
    assert res.norm_k == 0.0
    assert res.margin == res.threshold == pytest.approx(0.625)


def test_rejects_bad_parameters():
    s = AnalyticSystem.from_source(SPHERE_SRC)
    with pytest.raises(ValueError):
        krawczyk_test(s, _base(0.1), [1.0], 0.1, 0.0)
    with pytest.raises(ValueError):
        krawczyk_test(s, _base(0.1), [1.0], -0.1, 0.125)
    with pytest.raises(ValueError):
        krawczyk_test(s, _base(0.1), [1.0, 2.0], 0.1, 0.125)


def test_certified_band_brackets_truth():
    # radii straddling the pass/fail frontier behave monotonically
    s = AnalyticSystem.from_source(SPHERE_SRC)
    outcomes = []
    for r in (0.2, 0.1, 0.05, 0.025, 0.0125):
        res = krawczyk_test(s, _base(r), [1.0], r, 0.125)
        outcomes.append(res.passed)
    assert outcomes == sorted(outcomes)  # once passing, stays passing
    assert outcomes[-1] and not outcomes[0]


def test_point_base_slice_value_is_natural_meet_mean_value():
    # over a point base box the mean-value term is zero, so returning the
    # natural enclosure must give exactly natural ∩ mean-value
    sphere = AnalyticSystem.from_source(SPHERE_SRC)
    systems = [
        sphere,
        AnalyticSystem.from_source(TORUS_SRC),
        tangent_align(sphere, [0.6, 0.0, 0.8])[1],
        AnalyticSystem.from_source(SPHERE_SRC + "x + 0.5*y - z^3 = 0\n"),
    ]
    rng = random.Random(2602)
    for s in systems:
        for _ in range(40):
            b = [rng.uniform(-2.0, 2.0) for _ in range(s.d)]
            c = [rng.uniform(-2.0, 2.0) for _ in range(s.m)]
            base = IntervalBox.point(b)
            fiber_point = IntervalBox.point(c)
            natural = s.eval_box(base.concat(fiber_point))
            thin = s.eval_box(IntervalBox.point(base.midpoint()).concat(fiber_point))
            jac = s.jacobian_box(base.concat(fiber_point))
            jb = IntervalMatrix([row[: s.d] for row in jac.rows])
            spread = jb.matvec(base.sub_point(base.midpoint()))
            mean_value = IntervalBox([t + sp for t, sp in zip(thin.parts, spread.parts)])
            assert _slice_value_enclosure(s, base, c) == natural.intersect(mean_value)


def test_refine_fiber_root_sphere():
    mpmath.mp.dps = 50
    s = AnalyticSystem.from_source(SPHERE_SRC)
    center, encl = refine_fiber_root(
        s, [0.3, 0.4], IntervalBox([Interval(0.5, 1.2)]), 1e-12
    )
    truth = mpmath.sqrt(mpmath.mpf("0.75"))
    assert mpmath.mpf(encl[0].lo) <= truth <= mpmath.mpf(encl[0].hi)
    assert encl[0].hi - encl[0].lo <= 1e-11
    assert center[0] == pytest.approx(float(truth), abs=1e-10)


def test_refine_fiber_root_other_sheet():
    mpmath.mp.dps = 50
    s = AnalyticSystem.from_source(SPHERE_SRC)
    center, encl = refine_fiber_root(
        s, [0.3, 0.4], IntervalBox([Interval(-1.2, -0.5)]), 1e-12
    )
    truth = -mpmath.sqrt(mpmath.mpf("0.75"))
    assert mpmath.mpf(encl[0].lo) <= truth <= mpmath.mpf(encl[0].hi)


def test_refine_fiber_root_empty_bracket_raises():
    s = AnalyticSystem.from_source(SPHERE_SRC)
    with pytest.raises(RefinementStalledError):
        refine_fiber_root(s, [0.3, 0.4], IntervalBox([Interval(0.1, 0.3)]), 1e-12)


def test_refine_fiber_root_torus():
    mpmath.mp.dps = 50
    t = AnalyticSystem.from_source(TORUS_SRC)
    center, encl = refine_fiber_root(
        t, [2.6, 0.0], IntervalBox([Interval(0.2, 0.9)]), 1e-12
    )
    truth = mpmath.sqrt(mpmath.mpf("0.64") - mpmath.mpf("0.36"))
    # float 0.64 - 0.6^2 is not exactly 0.28; bound the true root instead
    g = lambda z: (mpmath.sqrt(mpmath.mpf("6.76") ) - 2) ** 2 + z * z - mpmath.mpf(0.64)
    lo, hi = mpmath.mpf(encl[0].lo), mpmath.mpf(encl[0].hi)
    assert g(lo) * g(hi) <= 0  # sign change inside the reported enclosure
    assert center[0] == pytest.approx(float(truth), abs=1e-6)


def test_refine_respects_bracket_fuzz():
    # every refined enclosure stays inside its starting bracket
    s = AnalyticSystem.from_source(SPHERE_SRC)
    rng = random.Random(404)
    hits = 0
    for _ in range(60):
        bx, by = rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)
        lo = rng.uniform(0.05, 0.5)
        bracket = IntervalBox([Interval(lo, lo + rng.uniform(0.4, 1.0))])
        try:
            center, encl = refine_fiber_root(s, [bx, by], bracket, 1e-10)
        except (RefinementStalledError,) as _:
            continue
        hits += 1
        assert bracket[0].lo <= encl[0].lo and encl[0].hi <= bracket[0].hi
        resid = s.eval_point([bx, by, center[0]])[0]
        assert abs(resid) < 1e-9
    assert hits > 20


# ---------------------------------------------------------------------------
# the batched cell test against the scalar one

# graph-position systems: (source, base ranges, fiber bracket)
CELL_SYSTEMS = {
    "saddle": (
        "variables = x y z\n0.25*x^2 - 0.125*x*y^2 - z = 0\n",
        [(-1.5, 1.5), (-1.5, 1.5)],
        [(-10.0, 10.0)],
    ),
    "sphere_cap": (SPHERE_SRC, [(-0.6, 0.6), (-0.6, 0.6)], [(0.2, 1.5)]),
    # the root cell's Jacobian divides by an enclosure of sqrt(...) that holds 0
    "sqrt": ("variables = x y\ny - sqrt(x^2 - x + 1) = 0\n", [(0.0, 1.0)], [(-10.0, 10.0)]),
    "two_sheets": ("variables = x y z\nz^2 - 1 = 0\n", [(-1.0, 1.0), (-1.0, 1.0)], [(-1.5, 1.5)]),
    "curve": (
        "variables = x y z\nx^2 + y^2 + z^2 - 1 = 0\nx + y + z - 0.5 = 0\n",
        [(-0.5, 0.5)],
        [(-1.5, 1.5), (-1.5, 1.5)],
    ),
}


def _random_cells(name: str, count: int, rng: random.Random):
    """Dyadic cells of a system with Newton fiber centers, some nudged off the sheet.

    Cell 0 is the root cell; the rest have random depths up to 10.
    """
    source, base, bracket = CELL_SYSTEMS[name]
    system = AnalyticSystem.from_source(source)
    roots = isolate_fiber_roots(
        system, [Interval(lo, hi).midpoint() for lo, hi in base], IntervalBox([Interval(*b) for b in bracket])
    )
    lo, hi, centers, radii = [], [], [], []
    for k in range(count):
        depth = 0 if k == 0 else rng.randrange(11)
        cell = []
        for b_lo, b_hi in base:
            step = (b_hi - b_lo) / 2**depth
            j = rng.randrange(2**depth)
            cell.append((b_lo + j * step, b_lo + (j + 1) * step))
        mid = [Interval(a, b).midpoint() for a, b in cell]
        y = fiber_newton(system, [mid], [rng.choice(roots)[0]])[0]
        if rng.random() < 0.2:
            y = y + rng.uniform(-1e-3, 1e-3)
        lo.append([a for a, _ in cell])
        hi.append([b for _, b in cell])
        centers.append(y)
        # around the radius cover_graph gives a cell of this depth
        scale = (base[0][1] - base[0][0]) / 2 * 2.0 ** -((depth + 1) // 2)
        radii.append(scale * rng.choice([0.25, 0.5, 1.0, 2.0]))
    return system, np.array(lo), np.array(hi), np.array(centers), np.array(radii)


@pytest.mark.parametrize("name", sorted(CELL_SYSTEMS))
def test_krawczyk_cells_is_krawczyk_test_stepped_out(name):
    system, lo, hi, centers, radii = _random_cells(name, 40, random.Random(21))
    batch = krawczyk_cells(system, (lo, hi), centers, radii, 0.125)
    assert batch.passed.any() and not batch.passed.all()
    for i in range(len(lo)):
        box = IntervalBox([Interval(a, b) for a, b in zip(lo[i], hi[i])])
        try:
            scalar = krawczyk_test(system, box, centers[i].tolist(), float(radii[i]), 0.125)
        except ATTEMPT_ERRORS:
            # a domain error, a failed preconditioner gate or an empty slice
            # enclosure: the lane is NaN and fails
            assert math.isnan(batch.norm_k[i]) and not batch.passed[i]
        else:
            assert scalar.norm_k <= batch.norm_k[i]
            assert scalar.passed or not batch.passed[i]
        alone = krawczyk_cells(system, (lo[i : i + 1], hi[i : i + 1]), centers[i : i + 1], radii[i : i + 1], 0.125)
        for field in ("passed", "norm_k", "threshold", "margin"):
            assert getattr(alone, field).tobytes() == getattr(batch, field)[i : i + 1].tobytes()
    if name == "sqrt":
        assert math.isnan(batch.norm_k[0])


def test_krawczyk_cells_rejects_bad_parameters():
    s = AnalyticSystem.from_source(SPHERE_SRC)
    cell = (np.array([[-0.1, -0.1]]), np.array([[0.1, 0.1]]))
    with pytest.raises(ValueError):
        krawczyk_cells(s, cell, np.array([[1.0]]), np.array([0.1]), 0.0)
    with pytest.raises(ValueError):
        krawczyk_cells(s, cell, np.array([[1.0, 2.0]]), np.array([0.1]), 0.125)
