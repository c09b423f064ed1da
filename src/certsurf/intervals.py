"""Outward-rounded interval arithmetic on binary64 endpoints.

Every operation returns an interval that contains the exact set image of
its operands (enclosure soundness). CPython has no access to the FPU
rounding mode, so directed rounding is emulated: each endpoint op is
computed in round-to-nearest and then nudged one ulp outward with
``math.nextafter`` unless the result is provably exact. Exactness is
detected cheaply (an error-free transformation for sums, a power-of-two
factor or a small integer product for products, a power-of-two divisor
for quotients), which keeps common cases like ``[1,2] + [3,4]`` or
``0.5 * [1.9, 2.1]`` tight to the last bit. ``mul_up`` and ``mul_down``
hold the one exactness table for products; ``exact_product`` asks them.

Every ``Interval`` is nonempty: its endpoints are extended reals (-inf
and +inf mark unbounded sides), never NaN, with ``lo <= hi``. The
constructor alone enforces this, and every operation returns an interval
built by it, so no operation has an empty or NaN case to handle. Set
intersection is the one operation that can come out empty; it returns
None then, and its callers stop there. Operands are intervals, never
floats: wrap a float with ``Interval.point``.

Interval products have two kernels, one per shape of work.

* The scalar kernel serves ``Interval`` arithmetic and ``IntervalMatrix``:
  expression evaluation, Krawczyk tests, frame images of single boxes.
  ``_mul_endpoints`` is its one sign-case table; ``Interval.__mul__`` uses
  it, and so does ``_dot``, the one outward dot product, which
  ``IntervalMatrix.matvec`` and ``IntervalMatrix.matmul`` share.  These
  callers make one small product at a time, where a Python loop over
  ``Interval`` objects costs a few microseconds and numpy's per-call
  overhead would cost tens.
* The endpoint-array kernel (``array_add``, ``array_mul``, ``array_dot``,
  ``array_matvec``, ``array_matmul``) serves batched work: the box
  geometry of surface growth (the separating-axis test and the edge-piece
  tests) and graph-cell certification, where one Krawczyk test runs over
  every cell of a graph depth at once.  For the expression trees of that
  test it also has ``array_sub``, ``array_neg``, ``array_power``,
  ``array_div`` and ``array_sqrt``, which mark a lane where the operation
  is undefined with NaN instead of raising.  Its operands are (lo, hi)
  pairs of float64 ndarrays; see ``array_dot`` for why it is sound and why
  it contains the scalar kernel's result.  Every step rounds to nearest
  and then moves one ulp out, with no exactness detection, so it never
  reads tighter than the scalar kernel.

Both kernels sum left to right in a fixed order.  Directed rounding is not
associative, so that fixed order is what keeps every enclosure, and every
certificate built from one, bit-stable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import IntervalDomainError

_INF = math.inf
_MAX = math.nextafter(_INF, 0.0)
_DBL_MIN = 2.2250738585072014e-308
_TWOSUM_GUARD = 8.9e307


def next_up(x: float) -> float:
    return math.nextafter(x, _INF)


def next_down(x: float) -> float:
    return math.nextafter(x, -_INF)


# ---------------------------------------------------------------------------
# directed endpoint arithmetic


def add_up(a: float, b: float) -> float:
    s = a + b
    if s != s:  # inf + -inf; unbounded either way, +inf is the sound upper bound
        return _INF
    if math.isinf(s):
        if s > 0.0 or math.isinf(a) or math.isinf(b):
            return s
        return -_MAX  # finite operands overflowed downward; true sum exceeds -inf
    if abs(s) > _TWOSUM_GUARD:
        return next_up(s)
    # TwoSum error term; exact in round-to-nearest binary64
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    if err > 0.0:
        return next_up(s)
    return s


def add_down(a: float, b: float) -> float:
    s = a + b
    if s != s:
        return -_INF
    if math.isinf(s):
        if s < 0.0 or math.isinf(a) or math.isinf(b):
            return s
        return _MAX
    if abs(s) > _TWOSUM_GUARD:
        return next_down(s)
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    if err < 0.0:
        return next_down(s)
    return s


def sub_up(a: float, b: float) -> float:
    return add_up(a, -b)


def sub_down(a: float, b: float) -> float:
    return add_down(a, -b)


def mul_up(a: float, b: float) -> float:
    p = a * b
    if _DBL_MIN <= abs(p) < _INF:
        m = math.frexp(a)[0]
        if m == 0.5 or m == -0.5:
            return p
        m = math.frexp(b)[0]
        if m == 0.5 or m == -0.5:
            return p
        if (
            abs(p) < 9.007199254740992e15
            and a.is_integer()
            and b.is_integer()
            and int(a) * int(b) == int(p)
        ):
            return p
        return math.nextafter(p, _INF)
    if p != p:  # 0 * inf: the zero factor wins for set images
        return 0.0
    if a == 0.0 or b == 0.0 or math.isinf(a) or math.isinf(b):
        return p
    # overflow or underflow with finite nonzero operands; a negative
    # product that underflows is bounded above by 0, never by +5e-324
    up = math.nextafter(p, _INF)
    return min(up, 0.0) if (a < 0.0) != (b < 0.0) else up


def mul_down(a: float, b: float) -> float:
    p = a * b
    if _DBL_MIN <= abs(p) < _INF:
        m = math.frexp(a)[0]
        if m == 0.5 or m == -0.5:
            return p
        m = math.frexp(b)[0]
        if m == 0.5 or m == -0.5:
            return p
        if (
            abs(p) < 9.007199254740992e15
            and a.is_integer()
            and b.is_integer()
            and int(a) * int(b) == int(p)
        ):
            return p
        return math.nextafter(p, -_INF)
    if p != p:
        return 0.0
    if a == 0.0 or b == 0.0 or math.isinf(a) or math.isinf(b):
        return p
    down = math.nextafter(p, -_INF)
    return max(down, 0.0) if (a < 0.0) == (b < 0.0) else down


def exact_product(a: float, b: float) -> float | None:
    """a * b when the float product is finite and exact, else None."""
    p = a * b
    if math.isfinite(p) and mul_down(a, b) == p == mul_up(a, b):
        return p
    return None


def _div_is_exact(a: float, b: float, q: float) -> bool:
    if a == 0.0:
        return True
    if math.isinf(b) or math.isinf(a):
        return True
    if math.isinf(q) or abs(q) < _DBL_MIN:
        return False
    m = math.frexp(b)[0]
    return m == 0.5 or m == -0.5


def div_up(a: float, b: float) -> float:
    q = a / b
    if q != q:
        return 0.0 if a == 0.0 else _INF
    if _div_is_exact(a, b, q):
        return q
    return next_up(q)


def div_down(a: float, b: float) -> float:
    q = a / b
    if q != q:
        return 0.0 if a == 0.0 else -_INF
    if _div_is_exact(a, b, q):
        return q
    return next_down(q)


def _sqrt_side(x: float, r: float) -> int:
    """Sign of r*r - x in exact arithmetic (0 when r is the exact root)."""
    if x == 0.0 or math.isinf(r):
        return 0
    d = Fraction(r) * Fraction(r) - Fraction(x)
    if d == 0:
        return 0
    return 1 if d > 0 else -1


def sqrt_up(x: float) -> float:
    r = math.sqrt(x)
    if _sqrt_side(x, r) >= 0:
        return r
    return next_up(r)


def sqrt_down(x: float) -> float:
    r = math.sqrt(x)
    if _sqrt_side(x, r) <= 0:
        return r
    return next_down(r)


def pow_up(x: float, k: int) -> float:
    """Upper bound on x**k for integer k >= 1 by rounded binary exponentiation.

    The chain of products is the one ``array_power`` makes, so its bound
    holds this one.
    """
    if x < 0.0:
        if k % 2 == 0:
            return pow_up(-x, k)
        return -pow_down(-x, k)
    acc = None
    base = x
    n = k
    while n:
        if n & 1:
            acc = base if acc is None else mul_up(acc, base)
        n >>= 1
        if n:
            base = mul_up(base, base)
    return acc


def pow_down(x: float, k: int) -> float:
    if x < 0.0:
        if k % 2 == 0:
            return pow_down(-x, k)
        return -pow_up(-x, k)
    acc = None
    base = x
    n = k
    while n:
        if n & 1:
            acc = base if acc is None else mul_down(acc, base)
        n >>= 1
        if n:
            base = mul_down(base, base)
    return acc


# ---------------------------------------------------------------------------
# intervals


class Interval:
    """Closed, nonempty interval [lo, hi] of extended reals."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = float(lo)
        hi = float(hi)
        if not lo <= hi:  # also rejects NaN endpoints
            raise ValueError(f"invalid interval endpoints [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @staticmethod
    def around(center: float, radius: float) -> "Interval":
        """Outward enclosure of [center - radius, center + radius]."""
        if radius < 0.0:
            raise ValueError("radius must be nonnegative")
        return Interval(sub_down(center, radius), add_up(center, radius))

    # -- queries ------------------------------------------------------------

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def strictly_contains(self, other: "Interval") -> bool:
        return self.lo < other.lo and other.hi < self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def midpoint(self) -> float:
        """A representable point inside the interval."""
        if self.lo == -_INF and self.hi == _INF:
            return 0.0
        if self.lo == -_INF:
            return min(self.hi, -_MAX) if self.hi < 0 else min(0.0, self.hi)
        if self.hi == _INF:
            return max(self.lo, _MAX) if self.lo > 0 else max(0.0, self.lo)
        m = 0.5 * self.lo + 0.5 * self.hi
        if not (self.lo <= m <= self.hi):
            m = self.lo + 0.5 * (self.hi - self.lo)
        return min(max(m, self.lo), self.hi)

    def radius_up(self) -> float:
        return mul_up(0.5, sub_up(self.hi, self.lo))

    def mag(self) -> float:
        """max |x| over the interval (exact; abs and max do not round)."""
        return max(abs(self.lo), abs(self.hi))

    def mig(self) -> float:
        """min |x| over the interval."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    # -- lattice ------------------------------------------------------------

    def intersect(self, other: "Interval") -> "Interval | None":
        """The common part of two intervals, or None when they are disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def inflate(self, r: float) -> "Interval":
        return Interval(sub_down(self.lo, r), add_up(self.hi, r))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(add_down(self.lo, other.lo), add_up(self.hi, other.hi))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(sub_down(self.lo, other.hi), sub_up(self.hi, other.lo))

    def __mul__(self, other: "Interval") -> "Interval":
        lo, hi = _mul_endpoints(self.lo, self.hi, other.lo, other.hi)
        return Interval(lo, hi)

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0.0 <= other.hi:
            raise IntervalDomainError(f"division by interval containing zero: {other}")
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        lo = min(div_down(a, c), div_down(a, d), div_down(b, c), div_down(b, d))
        hi = max(div_up(a, c), div_up(a, d), div_up(b, c), div_up(b, d))
        return Interval(lo, hi)

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise IntervalDomainError(f"sqrt of interval reaching below zero: {self}")
        return Interval(sqrt_down(self.lo), sqrt_up(self.hi))

    def power(self, k: int) -> "Interval":
        """Tight monomial x**k over the interval (even powers land in [0, inf))."""
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k == 0:
            return Interval(1.0, 1.0)
        if k < 0:
            # |x|^k = 1 / |x|^-k between the reciprocals of the extreme
            # magnitudes; a power that underflows to 0 leaves the upper end
            # unbounded, not undefined
            m = self.mig()
            if m == 0.0:
                raise IntervalDomainError(f"negative power of interval containing zero: {self}")
            least = pow_down(m, -k)
            lo = div_down(1.0, pow_up(self.mag(), -k))
            hi = div_up(1.0, least) if least > 0.0 else math.inf
            if k % 2 and self.hi < 0.0:
                lo, hi = -hi, -lo
            return Interval(lo, hi)
        if k % 2 == 0:
            hi = pow_up(self.mag(), k)
            m = self.mig()
            lo = 0.0 if m == 0.0 else pow_down(m, k)
            return Interval(lo, hi)
        return Interval(pow_down(self.lo, k), pow_up(self.hi, k))

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"


def _mul_endpoints(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """Outward (lo, hi) of the product [a, b] * [c, d]."""
    # sign-case analysis; directed rounding keeps each case an enclosure
    if a >= 0.0:
        if c >= 0.0:
            return mul_down(a, c), mul_up(b, d)
        if d <= 0.0:
            return mul_down(b, c), mul_up(a, d)
        return mul_down(b, c), mul_up(b, d)
    if b <= 0.0:
        if c >= 0.0:
            return mul_down(a, d), mul_up(b, c)
        if d <= 0.0:
            return mul_down(b, d), mul_up(a, c)
        return mul_down(a, d), mul_up(a, c)
    if c >= 0.0:
        return mul_down(a, d), mul_up(b, d)
    if d <= 0.0:
        return mul_down(b, c), mul_up(a, c)
    return min(mul_down(a, d), mul_down(b, c)), max(mul_up(a, c), mul_up(b, d))


def _dot(xs: Iterable[Interval], ys: Iterable[Interval]) -> Interval:
    """Outward enclosure of sum(x * y), summed left to right from 0."""
    lo = hi = 0.0
    for x, y in zip(xs, ys):
        t_lo, t_hi = _mul_endpoints(x.lo, x.hi, y.lo, y.hi)
        lo = add_down(lo, t_lo)
        hi = add_up(hi, t_hi)
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# endpoint arrays
#
# No ``@``, ``np.dot``, ``np.sum`` or ``matmul`` here: their summation order
# is not fixed, and the soundness argument below needs a known one.  Overflow
# and NaN are part of that argument, so numpy's warnings about them are off
# (one errstate per function: numpy before 2.0 cannot nest one instance).


@np.errstate(over="ignore", invalid="ignore")
def array_add(a, b):
    """Outward (lo, hi) of a + b for endpoint pairs, elementwise."""
    return np.nextafter(a[0] + b[0], -_INF), np.nextafter(a[1] + b[1], _INF)


@np.errstate(over="ignore", invalid="ignore")
def array_mul(a, b):
    """Outward (lo, hi) of a * b for endpoint pairs, elementwise.

    The product's extremes are among the four endpoint products; when both
    operands are points (each pair holds one array twice) there is one.
    """
    if a[0] is a[1] and b[0] is b[1]:
        p = a[0] * b[0]
        return np.nextafter(p, -_INF), np.nextafter(p, _INF)
    p, q, r, s = a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]
    lo = np.minimum(np.minimum(p, q), np.minimum(r, s))
    hi = np.maximum(np.maximum(p, q), np.maximum(r, s))
    return np.nextafter(lo, -_INF), np.nextafter(hi, _INF)


@np.errstate(over="ignore", invalid="ignore")
def array_dot(a, b):
    """Outward (lo, hi) of sum(a * b) over the last axis, summed left to right from 0.

    Soundness, for finite operands: each step is computed in round-to-nearest
    and moved one ulp outward with ``np.nextafter``.  The exact result of a
    step lies within half an ulp of its rounded value, so it lies between
    that value's two neighbours; this holds for subnormal results, and for
    overflow too (a result rounds to +inf only beyond the largest float, which
    is inf's lower neighbour).  Rounding is monotone, so the least of the four
    rounded endpoint products is the rounded least product.  Lower ends stay
    below +inf and upper ends above -inf, so a dot product of finite operands
    has no NaN.  Infinite operands can give NaN (inf * 0, inf - inf); NaN
    means no enclosure, so every claim made from these arrays is a comparison
    that is False on NaN.

    The result contains the scalar ``_dot`` of the same operands, which runs
    the same steps in the same order: each scalar step rounds to the nearest
    value, to one ulp outward of it, or to an exact value, so it lies on or
    inside the array step.  ``fl`` and ``nextafter`` are monotone, so by
    induction over the sum every array partial sum lies on or outside the
    scalar one.
    """
    lo, hi = array_mul(a, b)
    s_lo = s_hi = 0.0
    for k in range(lo.shape[-1]):
        s_lo = np.nextafter(s_lo + lo[..., k], -_INF)
        s_hi = np.nextafter(s_hi + hi[..., k], _INF)
    return s_lo, s_hi


def array_matvec(m, x):
    """Outward m . x for an (..., r, k) matrix pair and (..., k) vector pair.

    Both broadcast, so one call maps a batch of vectors.
    """
    return array_dot(m, (x[0][..., None, :], x[1][..., None, :]))


def array_matmul(a, b):
    """Outward a . b for an (..., r, k) and a (..., k, c) matrix pair; both broadcast."""
    rows = (a[0][..., :, None, :], a[1][..., :, None, :])
    cols = (np.swapaxes(b[0], -1, -2)[..., None, :, :], np.swapaxes(b[1], -1, -2)[..., None, :, :])
    return array_dot(rows, cols)


# The operations below complete the kernel for expression trees.  Where an
# operation is undefined on a lane (a divisor or a negative-power base that
# holds 0, a square root of a range reaching below 0) that lane is NaN, the
# array form of ``IntervalDomainError``: NaN spreads through every later
# step, and each claim is a comparison that is False on NaN.


def array_neg(a):
    """Exact (lo, hi) of -a."""
    return -a[1], -a[0]


@np.errstate(over="ignore", invalid="ignore")
def array_sub(a, b):
    """Outward (lo, hi) of a - b for endpoint pairs, elementwise."""
    return np.nextafter(a[0] - b[1], -_INF), np.nextafter(a[1] - b[0], _INF)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def array_div(a, b):
    """Outward (lo, hi) of a / b; NaN where b holds 0."""
    p, q, r, s = a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1]
    lo = np.minimum(np.minimum(p, q), np.minimum(r, s))
    hi = np.maximum(np.maximum(p, q), np.maximum(r, s))
    undefined = (b[0] <= 0.0) & (0.0 <= b[1])
    return (
        np.where(undefined, np.nan, np.nextafter(lo, -_INF)),
        np.where(undefined, np.nan, np.nextafter(hi, _INF)),
    )


@np.errstate(invalid="ignore")
def array_sqrt(a):
    """Outward (lo, hi) of sqrt(a); NaN where a reaches below 0."""
    undefined = a[0] < 0.0
    lo = np.maximum(np.nextafter(np.sqrt(np.maximum(a[0], 0.0)), -_INF), 0.0)
    hi = np.nextafter(np.sqrt(a[1]), _INF)
    return np.where(undefined, np.nan, lo), np.where(undefined, np.nan, hi)


def _array_pow_ends(x, k: int):
    """Lower and upper bounds on x**k for x >= 0 and k >= 1, by binary exponentiation.

    Every factor is nonnegative, so each lower bound is clamped at 0.
    """
    lo = hi = None
    base_lo = base_hi = x
    while True:
        if k & 1:
            lo = base_lo if lo is None else np.maximum(np.nextafter(lo * base_lo, -_INF), 0.0)
            hi = base_hi if hi is None else np.nextafter(hi * base_hi, _INF)
        k >>= 1
        if not k:
            return lo, hi
        base_lo = np.maximum(np.nextafter(base_lo * base_lo, -_INF), 0.0)
        base_hi = np.nextafter(base_hi * base_hi, _INF)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def array_power(a, k: int):
    """Outward (lo, hi) of a**k for an integer k, by ``Interval.power``'s rule.

    Even powers run from the power of the least magnitude (0 when a holds 0)
    to that of the greatest; odd powers are monotone; a negative power is
    the reciprocal of the positive one, NaN where a holds 0.
    """
    lo, hi = np.asarray(a[0], dtype=float), np.asarray(a[1], dtype=float)
    if k == 0:
        one = np.ones(np.broadcast(lo, hi).shape)
        return one, one
    mag = np.maximum(np.abs(lo), np.abs(hi))
    holds_zero = (lo <= 0.0) & (0.0 <= hi)
    mig = np.where(holds_zero, 0.0, np.minimum(np.abs(lo), np.abs(hi)))
    if k < 0:
        least = _array_pow_ends(mig, -k)[0]
        out_lo = np.maximum(np.nextafter(1.0 / _array_pow_ends(mag, -k)[1], -_INF), 0.0)
        out_hi = np.where(least == 0.0, _INF, np.nextafter(1.0 / least, _INF))
        if k % 2:
            negative = hi < 0.0
            out_lo, out_hi = np.where(negative, -out_hi, out_lo), np.where(negative, -out_lo, out_hi)
        return np.where(holds_zero, np.nan, out_lo), np.where(holds_zero, np.nan, out_hi)
    if k % 2 == 0:
        return _array_pow_ends(mig, k)[0], _array_pow_ends(mag, k)[1]
    lo_down, lo_up = _array_pow_ends(np.abs(lo), k)
    hi_down, hi_up = _array_pow_ends(np.abs(hi), k)
    return np.where(lo < 0.0, -lo_up, lo_down), np.where(hi < 0.0, -hi_down, hi_up)


def array_midpoint(lo, hi):
    """``Interval.midpoint`` of each [lo, hi], elementwise and bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = 0.5 * lo + 0.5 * hi
        m = np.where((lo <= m) & (m <= hi), m, lo + 0.5 * (hi - lo))
    m = np.minimum(np.maximum(m, lo), hi)
    low_open, high_open = lo == -_INF, hi == _INF
    m = np.where(low_open, np.where(hi < 0, np.minimum(hi, -_MAX), np.minimum(0.0, hi)), m)
    m = np.where(high_open, np.where(lo > 0, np.maximum(lo, _MAX), np.maximum(0.0, lo)), m)
    return np.where(low_open & high_open, 0.0, m)


# ---------------------------------------------------------------------------
# boxes


class IntervalBox:
    """A finite product of intervals."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Interval]):
        object.__setattr__(self, "parts", tuple(parts))
        for p in self.parts:
            if not isinstance(p, Interval):
                raise TypeError("IntervalBox components must be Interval")

    def __setattr__(self, name, value):
        raise AttributeError("IntervalBox is immutable")

    @staticmethod
    def from_center_radii(center: Sequence[float], radii: Sequence[float]) -> "IntervalBox":
        if len(center) != len(radii):
            raise ValueError("center/radii length mismatch")
        return IntervalBox(Interval.around(c, r) for c, r in zip(center, radii))

    @staticmethod
    def point(coords: Sequence[float]) -> "IntervalBox":
        return IntervalBox(Interval.point(c) for c in coords)

    @property
    def dim(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> Interval:
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def intersect(self, other: "IntervalBox") -> "IntervalBox | None":
        """The common part of two boxes, or None when they are disjoint."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        parts = []
        for a, b in zip(self.parts, other.parts):
            p = a.intersect(b)
            if p is None:
                return None
            parts.append(p)
        return IntervalBox(parts)

    def overlaps(self, other: "IntervalBox") -> bool:
        return all(a.overlaps(b) for a, b in zip(self.parts, other.parts))

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The box as an endpoint pair for the array kernel."""
        return (
            np.array([p.lo for p in self.parts]),
            np.array([p.hi for p in self.parts]),
        )

    def midpoint(self) -> list[float]:
        return [p.midpoint() for p in self.parts]

    def radii_up(self) -> list[float]:
        return [p.radius_up() for p in self.parts]

    def norm_up(self) -> float:
        """Upper bound on the sup norm over the box."""
        return max((p.mag() for p in self.parts), default=0.0)

    def sub_point(self, coords: Sequence[float]) -> "IntervalBox":
        return IntervalBox(p - Interval.point(c) for p, c in zip(self.parts, coords))

    def concat(self, other: "IntervalBox") -> "IntervalBox":
        return IntervalBox(self.parts + other.parts)

    def __eq__(self, other):
        if not isinstance(other, IntervalBox):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "IntervalBox(" + ", ".join(repr(p) for p in self.parts) + ")"


# ---------------------------------------------------------------------------
# interval matrices


class IntervalMatrix:
    """Dense rows-of-intervals matrix with outward-rounded products."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Interval]]):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
        if self.rows:
            w = len(self.rows[0])
            for r in self.rows:
                if len(r) != w:
                    raise ValueError("ragged interval matrix")
                if not all(isinstance(a, Interval) for a in r):
                    raise TypeError("IntervalMatrix entries must be Interval")

    def __setattr__(self, name, value):
        raise AttributeError("IntervalMatrix is immutable")

    @staticmethod
    def from_floats(mat) -> "IntervalMatrix":
        return IntervalMatrix([[Interval.point(float(x)) for x in row] for row in mat])

    @staticmethod
    def identity(n: int) -> "IntervalMatrix":
        return IntervalMatrix(
            [[Interval.point(1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def __sub__(self, other: "IntervalMatrix") -> "IntervalMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntervalMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def matvec(self, vec: IntervalBox) -> IntervalBox:
        if vec.dim != self.shape[1]:
            raise ValueError("shape mismatch")
        return IntervalBox([_dot(row, vec.parts) for row in self.rows])

    def matmul(self, other: "IntervalMatrix") -> "IntervalMatrix":
        if self.shape[1] != other.shape[0]:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        return IntervalMatrix([[_dot(row, col) for col in cols] for row in self.rows])

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The matrix as an endpoint pair for the array kernel."""
        return (
            np.array([[a.lo for a in row] for row in self.rows]),
            np.array([[a.hi for a in row] for row in self.rows]),
        )

    def norm_inf_up(self) -> float:
        """Upper bound on the max absolute row sum over all point matrices inside."""
        worst = 0.0
        for row in self.rows:
            s = 0.0
            for a in row:
                s = add_up(s, a.mag())
            worst = max(worst, s)
        return worst

    def __repr__(self):
        return "IntervalMatrix(%s)" % (self.rows,)
