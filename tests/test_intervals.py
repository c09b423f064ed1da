"""Interval core: frozen examples, exact-rational oracles, enclosure properties."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certsurf.errors import IntervalDomainError
from certsurf.intervals import (
    Interval,
    IntervalBox,
    IntervalMatrix,
    add_down,
    add_up,
    array_dot,
    array_matvec,
    array_mul,
    mul_down,
    mul_up,
)


def iv(lo, hi):
    return Interval(float(lo), float(hi))


# ---------------------------------------------------------------------------
# frozen examples


def test_add_exact_integers():
    assert iv(1, 2) + iv(3, 4) == iv(4, 6)


def test_mul_exact_integers():
    assert iv(1, 2) * iv(-3, 4) == iv(-6, 8)


def test_scalar_mul_power_of_two_exact():
    assert Interval.point(2.0) * iv(0.95, 1.05) == iv(1.9, 2.1)
    assert Interval.point(0.5) * iv(1.9, 2.1) == iv(0.95, 1.05)


def test_midpoint_is_one():
    assert iv(0.9, 1.1).midpoint() == 1.0


def test_midpoint_inside_always():
    a = iv(0.1, math.nextafter(0.1, 2.0))
    m = a.midpoint()
    assert a.lo <= m <= a.hi


def test_norm_examples():
    assert iv(-3, 2).mag() == 3.0
    assert IntervalBox([iv(-3, 2), iv(0, 1)]).norm_up() == 3.0


def test_pow_even_contains_zero():
    sq = iv(-0.05, 0.05).power(2)
    assert sq.lo == 0.0
    assert sq.hi >= 0.0025
    assert sq.hi <= 0.0025 * (1 + 1e-13)


def test_pow_even_away_from_zero():
    sq = iv(-3, -2).power(2)
    assert sq == iv(4, 9)


def test_pow_odd_monotone():
    cb = iv(-2, 3).power(3)
    assert cb == iv(-8, 27)


def test_pow_negative_exponent():
    inv = iv(2, 4).power(-1)
    assert inv.contains(0.25) and inv.contains(0.5)
    assert inv.lo <= 0.25 and inv.hi >= 0.5
    assert inv.hi - inv.lo < 0.25 * (1 + 1e-12)


def test_sqrt_exact_squares():
    assert iv(4, 9).sqrt() == iv(2, 3)


def test_sqrt_irrational_tight():
    s = Interval.point(2.0).sqrt()
    true = Fraction(2)
    assert Fraction(s.lo) ** 2 <= true <= Fraction(s.hi) ** 2
    assert s.hi == math.nextafter(s.lo, math.inf)


def test_sqrt_domain_error():
    with pytest.raises(IntervalDomainError):
        iv(-1, 4).sqrt()


def test_div_by_zero_interval_raises():
    with pytest.raises(IntervalDomainError):
        iv(1, 2) / iv(-1, 1)


def test_div_power_of_two_exact():
    assert iv(6, 6) / iv(2, 2) == iv(3, 3)


def test_div_one_third_tight():
    q = Interval.point(1.0) / Interval.point(3.0)
    assert Fraction(q.lo) <= Fraction(1, 3) <= Fraction(q.hi)
    assert q.hi - q.lo <= 2 * math.ulp(0.5)


def test_constructor_rejects_empty_and_nan():
    for lo, hi in ((1.0, 0.0), (math.nan, 1.0), (0.0, math.nan), (math.inf, -math.inf)):
        with pytest.raises(ValueError):
            Interval(lo, hi)


def test_float_operands_are_not_coerced():
    with pytest.raises(AttributeError):
        iv(1, 2) + 1.0
    with pytest.raises(TypeError):
        1.0 * iv(1, 2)


def test_intersect():
    assert iv(0, 2).intersect(iv(1, 3)) == iv(1, 2)
    assert iv(0, 1).intersect(iv(1, 2)) == iv(1, 1)
    assert iv(0, 1).intersect(iv(2, 3)) is None


def test_box_intersect_disjoint_is_none():
    b = IntervalBox([iv(0, 1), iv(0, 1)])
    c = IntervalBox([iv(2, 3), iv(0, 1)])
    assert b.intersect(c) is None
    assert b.intersect(b) == b


def test_box_basicops():
    b = IntervalBox.from_center_radii([1.0, 2.0], [0.5, 0.25])
    m = b.midpoint()
    assert abs(m[0] - 1.0) < 1e-15 and abs(m[1] - 2.0) < 1e-15
    assert b.norm_up() >= 2.25


def test_matrix_identity_exact():
    b = IntervalBox([iv(1, 2), iv(3, 4)])
    assert IntervalMatrix.identity(2).matvec(b) == b


def test_matrix_scalar_half_exact():
    m = IntervalMatrix.from_floats([[0.5]])
    out = m.matvec(IntervalBox([iv(0.0, 0.005)]))
    assert out == IntervalBox([iv(0.0, 0.0025)])


def test_matrix_sign_flip():
    m = IntervalMatrix.from_floats([[-1.0, 0.0], [0.0, 1.0]])
    out = m.matvec(IntervalBox([iv(1, 2), iv(3, 4)]))
    assert out == IntervalBox([iv(-2, -1), iv(3, 4)])


def test_matrix_rejects_non_interval_entries():
    # the product kernel reads endpoints directly, so floats must be wrapped
    with pytest.raises(TypeError):
        IntervalMatrix([[0.5]])


def test_matrix_norm_inf():
    m = IntervalMatrix([[iv(-2, 1), iv(0, 3)], [iv(1, 1), iv(-1, -1)]])
    assert m.norm_inf_up() == 5.0


def test_around_contains_true_ball():
    a = Interval.around(0.1, 0.3)
    assert Fraction(a.lo) <= Fraction(0.1) - Fraction(0.3)
    assert Fraction(a.hi) >= Fraction(0.1) + Fraction(0.3)
    assert a.contains(0.1)


# ---------------------------------------------------------------------------
# exact-rational sampling oracle


def _frac(x: float) -> Fraction:
    return Fraction(x)


def _sample(rng: random.Random, a: Interval) -> float:
    t = rng.random()
    x = a.lo + t * (a.hi - a.lo)
    return min(max(x, a.lo), a.hi)


def test_fuzz_binary_ops_against_rational_oracle():
    rng = random.Random(20260816)
    checks = 0
    for _ in range(4000):
        lo1 = rng.uniform(-50, 50)
        hi1 = lo1 + abs(rng.gauss(0, 10))
        lo2 = rng.uniform(-50, 50)
        hi2 = lo2 + abs(rng.gauss(0, 10))
        x = Interval(lo1, hi1)
        y = Interval(lo2, hi2)
        cases = [(x + y, lambda p, q: p + q), (x - y, lambda p, q: p - q), (x * y, lambda p, q: p * q)]
        if not (y.lo <= 0.0 <= y.hi):
            cases.append((x / y, lambda p, q: p / q))
        for res, op in cases:
            for _ in range(4):
                p = _sample(rng, x)
                q = _sample(rng, y)
                exact = op(_frac(p), _frac(q))
                assert _frac(res.lo) <= exact <= _frac(res.hi)
                checks += 1
    assert checks >= 48000


def test_fuzz_pow_against_rational_oracle():
    rng = random.Random(77)
    for _ in range(2000):
        lo = rng.uniform(-8, 8)
        hi = lo + abs(rng.gauss(0, 4))
        k = rng.randint(2, 7)
        a = Interval(lo, hi)
        res = a.power(k)
        for _ in range(5):
            p = _sample(rng, a)
            exact = _frac(p) ** k
            assert _frac(res.lo) <= exact <= _frac(res.hi)


def _random_entry(rng: random.Random) -> Interval:
    kind = rng.random()
    a = rng.uniform(-10.0, 10.0)
    if kind < 0.4:
        return Interval.point(a)
    if kind < 0.7:
        return Interval(-rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
    b = rng.uniform(-10.0, 10.0)
    return Interval(min(a, b), max(a, b))


def _random_matrix(rng: random.Random, m: int, n: int) -> list[list[Interval]]:
    return [[_random_entry(rng) for _ in range(n)] for _ in range(m)]


def _bits(x: Interval):
    return (x.lo.hex(), x.hi.hex())


def _check_dot(rng: random.Random, got: Interval, xs, ys) -> None:
    # bit-equal to the scalar reference, summed left to right from 0
    ref = sum((x * y for x, y in zip(xs, ys)), Interval(0.0, 0.0))
    assert _bits(got) == _bits(ref)
    for _ in range(4):
        exact = sum(
            (_frac(_sample(rng, x)) * _frac(_sample(rng, y)) for x, y in zip(xs, ys)),
            Fraction(0),
        )
        assert _frac(got.lo) <= exact <= _frac(got.hi)


def test_matvec_matmul_match_scalar_reference():
    rng = random.Random(4711)
    for _ in range(300):
        m, n, p = (rng.randint(1, 3) for _ in range(3))
        a = _random_matrix(rng, m, n)
        b = _random_matrix(rng, n, p)
        vec = [_random_entry(rng) for _ in range(n)]
        out = IntervalMatrix(a).matvec(IntervalBox(vec))
        for i in range(m):
            _check_dot(rng, out[i], a[i], vec)
        prod = IntervalMatrix(a).matmul(IntervalMatrix(b))
        assert prod.shape == (m, p)
        for i in range(m):
            for j in range(p):
                _check_dot(rng, prod[i, j], a[i], [b[k][j] for k in range(n)])


# ---------------------------------------------------------------------------
# hypothesis properties

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return Interval(min(a, b), max(a, b))


@given(intervals(), intervals(), st.floats(0, 1), st.floats(0, 1))
def test_add_encloses_samples(x, y, t1, t2):
    p = x.lo + t1 * (x.hi - x.lo)
    q = y.lo + t2 * (y.hi - y.lo)
    p = min(max(p, x.lo), x.hi)
    q = min(max(q, y.lo), y.hi)
    r = x + y
    assert Fraction(r.lo) <= Fraction(p) + Fraction(q) <= Fraction(r.hi)


@given(intervals(), intervals(), st.floats(0, 1), st.floats(0, 1))
def test_mul_encloses_samples(x, y, t1, t2):
    p = min(max(x.lo + t1 * (x.hi - x.lo), x.lo), x.hi)
    q = min(max(y.lo + t2 * (y.hi - y.lo), y.lo), y.hi)
    r = x * y
    assert Fraction(r.lo) <= Fraction(p) * Fraction(q) <= Fraction(r.hi)


@given(intervals(), intervals(), intervals(), intervals())
@settings(max_examples=150)
# products that underflow must not step across zero
@example(
    Interval(1.14891649751475e-66, 1.0),
    Interval(0.0, 1.0),
    Interval(2.2250738585072014e-308, 1.0),
    Interval(0.0, 1.0),
)
@example(
    Interval(-1.0, -1.14891649751475e-66),
    Interval(-1.0, 0.0),
    Interval(2.2250738585072014e-308, 1.0),
    Interval(0.0, 1.0),
)
def test_inclusion_isotonic(a, b, c, d):
    # x and y are the hulls of a with b and of c with d, so a is in x and c in y
    x = Interval(min(a.lo, b.lo), max(a.hi, b.hi))
    y = Interval(min(c.lo, d.lo), max(c.hi, d.hi))
    xs, ys = a, c
    for big, small in ((x * y, xs * ys), (x + y, xs + ys), (x - y, xs - ys)):
        assert big.lo <= small.lo and small.hi <= big.hi


extended = st.floats(allow_nan=False)


@st.composite
def extended_intervals(draw):
    a = draw(extended)
    b = draw(extended)
    return Interval(min(a, b), max(a, b))


def _finite_points(x: Interval, draws) -> list[float]:
    points = [min(max(u, x.lo), x.hi) for u in draws] + [x.lo, x.hi, x.midpoint()]
    return [p for p in points if math.isfinite(p)]


def _encloses(r: Interval, exact: Fraction) -> bool:
    lo_ok = r.lo == -math.inf or (math.isfinite(r.lo) and Fraction(r.lo) <= exact)
    hi_ok = r.hi == math.inf or (math.isfinite(r.hi) and exact <= Fraction(r.hi))
    return lo_ok and hi_ok


def _assert_valid(r) -> None:
    # the constructor accepts the result again, so it is nonempty and NaN-free
    assert isinstance(r, Interval)
    assert Interval(r.lo, r.hi) == r


@given(
    extended_intervals(),
    extended_intervals(),
    st.integers(-3, 5),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3),
)
@settings(max_examples=300)
@example(Interval(math.inf, math.inf), Interval(math.inf, math.inf), 2, [])
@example(Interval(-math.inf, math.inf), Interval(0.0, 0.0), 3, [1.0])
# x^k underflows to 0 here, but x excludes 0: the enclosures are
# [MAX, inf] and [-inf, -MAX]
@example(Interval(1e-200, 1e-200), Interval(1.0, 2.0), -2, [])
@example(Interval(-1e-200, -1e-200), Interval(1.0, 2.0), -3, [])
def test_operations_stay_nonempty_on_extended_reals(x, y, k, draws):
    xs = _finite_points(x, draws)
    ys = _finite_points(y, draws)
    cases = [(x + y, lambda p, q: p + q), (x - y, lambda p, q: p - q), (x * y, lambda p, q: p * q)]
    if not y.contains(0.0):
        cases.append((x / y, lambda p, q: p / q))
    for r, op in cases:
        _assert_valid(r)
        for p in xs:
            for q in ys:
                assert _encloses(r, op(Fraction(p), Fraction(q)))

    if k < 0 and x.contains(0.0):
        with pytest.raises(IntervalDomainError):
            x.power(k)
    else:
        r = x.power(k)
        _assert_valid(r)
        for p in xs:
            assert _encloses(r, Fraction(p) ** k)

    if x.lo >= 0.0:
        r = x.sqrt()
        _assert_valid(r)
        for p in xs:
            assert Fraction(r.lo) ** 2 <= Fraction(p)
            assert r.hi == math.inf or Fraction(p) <= Fraction(r.hi) ** 2

    common = x.intersect(y)
    if not x.overlaps(y):
        assert common is None
        return
    _assert_valid(common)
    both = Interval(max(x.lo, y.lo), min(x.hi, y.hi))
    assert common == both
    for p in _finite_points(both, draws):
        assert x.contains(p) and y.contains(p) and common.contains(p)


@given(st.floats(min_value=0, max_value=1e15), st.floats(min_value=0, max_value=1e15))
def test_directed_add_brackets(a, b):
    assert add_down(a, b) <= a + b <= add_up(a, b)
    assert Fraction(add_down(a, b)) <= Fraction(a) + Fraction(b) <= Fraction(add_up(a, b))


@given(finite, finite)
def test_directed_mul_brackets(a, b):
    lo = mul_down(a, b)
    hi = mul_up(a, b)
    assert Fraction(lo) <= Fraction(a) * Fraction(b) <= Fraction(hi)


@given(intervals())
def test_sqrt_enclosure(x):
    if x.lo < 0:
        x = Interval(0.0, max(0.0, x.hi))
    r = x.sqrt()
    for p in (x.lo, x.hi, x.midpoint()):
        s = math.sqrt(p)
        assert r.lo <= s <= r.hi or Fraction(r.lo) ** 2 <= Fraction(p) <= Fraction(r.hi) ** 2


@given(intervals())
def test_neg_involution(x):
    assert -(-x) == x


# ---------------------------------------------------------------------------
# endpoint-array kernel against the scalar kernel and exact rationals

# zero, subnormals, ordinary magnitudes, and magnitudes whose products
# and sums overflow
kernel_floats = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e-307, max_value=1e-307),
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=1e299, max_value=1.7e308),
    st.floats(min_value=-1.7e308, max_value=-1e299),
)


@st.composite
def kernel_intervals(draw):
    a = draw(kernel_floats)
    b = draw(kernel_floats)
    return Interval(min(a, b), max(a, b))


def _pair(xs):
    return np.array([x.lo for x in xs]), np.array([x.hi for x in xs])


def _contains(lo: float, hi: float, scalar: Interval, exact_lo: Fraction, exact_hi: Fraction):
    assert not (math.isnan(lo) or math.isnan(hi))
    assert lo <= scalar.lo and scalar.hi <= hi
    assert lo == -math.inf or Fraction(lo) <= exact_lo
    assert hi == math.inf or exact_hi <= Fraction(hi)


def _exact_product(x: Interval, y: Interval) -> tuple[Fraction, Fraction]:
    ends = [Fraction(a) * Fraction(b) for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    return min(ends), max(ends)


@given(kernel_intervals(), kernel_intervals())
@settings(max_examples=300)
@example(Interval(1e300, 1e300), Interval(1e300, 1e300))
@example(Interval(-5e-324, 5e-324), Interval(0.5, 0.5))
def test_array_mul_contains_scalar_and_exact(x, y):
    lo, hi = array_mul(_pair([x]), _pair([y]))
    _contains(lo[0], hi[0], x * y, *_exact_product(x, y))


@given(st.lists(st.tuples(kernel_intervals(), kernel_intervals()), min_size=1, max_size=4))
@settings(max_examples=300)
@example(
    [
        (Interval(1e300, 1e300), Interval(1e300, 1e300)),
        (Interval(-1e300, -1e300), Interval(1e300, 1e300)),
    ]
)
def test_array_dot_contains_scalar_and_exact(terms):
    xs = [x for x, _ in terms]
    ys = [y for _, y in terms]
    lo, hi = array_dot(_pair(xs), _pair(ys))
    scalar = IntervalMatrix([xs]).matvec(IntervalBox(ys))[0]
    products = [_exact_product(x, y) for x, y in terms]
    _contains(
        float(lo), float(hi), scalar, sum(p[0] for p in products), sum(p[1] for p in products)
    )


def test_array_matvec_batches_rows_and_vectors():
    rng = random.Random(99)
    m = IntervalMatrix(_random_matrix(rng, 2, 3))
    vecs = [IntervalBox([_random_entry(rng) for _ in range(3)]) for _ in range(4)]
    batch = tuple(np.array(side) for side in zip(*(vec.ends() for vec in vecs)))
    lo, hi = array_matvec(m.ends(), batch)
    assert lo.shape == hi.shape == (4, 2)
    for p, vec in enumerate(vecs):
        for i, got in enumerate(m.matvec(vec)):
            assert lo[p, i] <= got.lo and got.hi <= hi[p, i]
