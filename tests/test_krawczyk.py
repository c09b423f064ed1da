"""Contraction certificates and slice-root refinement."""

from __future__ import annotations

import random

import mpmath
import pytest

from certsurf.errors import RefinementStalledError
from certsurf.frames import tangent_align
from certsurf.intervals import Interval, IntervalBox, IntervalMatrix
from certsurf.krawczyk import (
    _krawczyk_terms,
    _slice_value_enclosure,
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
        assert bracket[0].contains_interval(encl[0])
        resid = s.eval_point([bx, by, center[0]])[0]
        assert abs(resid) < 1e-9
    assert hits > 20
