"""Expression trees and the equation parser."""

from __future__ import annotations

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certsurf.errors import IntervalDomainError, ParseError
from certsurf.expr import (
    Add,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Sqrt,
    Sub,
    Var,
    add,
    div,
    mul,
    neg,
    power,
    sub,
    to_source,
)
from certsurf.intervals import Interval, IntervalBox
from certsurf.parser import parse_expression, parse_system

XYZ = ["x", "y", "z"]

SPHERE = "x^2 + y^2 + z^2 - 1"
TORUS = "(sqrt(x^2 + y^2) - 2)^2 + z^2 - 0.64"
SADDLE = "-0.125*x*y^2 + 0.25*x^2 - z"


def test_sphere_tree_structure():
    e = parse_expression(SPHERE, XYZ)
    expected = Sub(
        Add(Add(Pow(Var(0), 2), Pow(Var(1), 2)), Pow(Var(2), 2)),
        Const(1.0),
    )
    assert e == expected


def test_torus_tree_structure():
    e = parse_expression(TORUS, XYZ)
    expected = Sub(
        Add(
            Pow(Sub(Sqrt(Add(Pow(Var(0), 2), Pow(Var(1), 2))), Const(2.0)), 2),
            Pow(Var(2), 2),
        ),
        Const(0.64),
    )
    assert e == expected


def test_saddle_tree_and_value():
    e = parse_expression(SADDLE, XYZ)
    assert e.eval_point([2.0, 2.0, 0.0]) == 0.0
    assert e.eval_point([2.0, 2.0, 1.0]) == -1.0


def test_equals_zero_suffix():
    assert parse_expression("x^2 - 1 = 0", XYZ) == parse_expression("x^2 - 1", XYZ)
    with pytest.raises(ParseError):
        parse_expression("x^2 - 1 = 1", XYZ)
    with pytest.raises(ParseError):
        parse_expression("x = y", XYZ)


def test_pow_rules():
    assert parse_expression("x^1", XYZ) == Var(0)
    assert parse_expression("x^0", XYZ) == Const(1.0)
    assert parse_expression("x^2", XYZ) == Pow(Var(0), 2)
    assert parse_expression("3^2", XYZ) == Const(9.0)
    assert parse_expression("x^3", XYZ) == Pow(Var(0), 3)
    assert parse_expression("x^(-2)", XYZ) == Pow(Var(0), -2)
    for bad in ("x^0.5", "x^y", "x^(1/2)", "x^2^3", "x^-2"):
        with pytest.raises(ParseError):
            parse_expression(bad, XYZ)


def test_pow_point_eval_stays_in_the_error_hierarchy():
    # 0 to a negative power is a division by zero, as for Div
    with pytest.raises(IntervalDomainError):
        Pow(Var(0), -2).eval_point([0.0])
    # an overflowing power is inf with the power's sign, as repeated products are
    assert Pow(Var(0), 3).eval_point([1e110]) == math.inf
    assert Pow(Var(0), 3).eval_point([-1e110]) == -math.inf
    assert Pow(Var(0), 4).eval_point([-1e110]) == math.inf
    assert Pow(Var(0), -3).eval_point([-1e-110]) == -math.inf
    assert Pow(Var(0), 3).eval_point([-2.0]) == -8.0


def test_rejects_malformed():
    for bad in ("", "2x", "x +", "(x", "x)", "x & y", "sqrt x", "sqrt(x", "1..2", "*x"):
        with pytest.raises(ParseError):
            parse_expression(bad, XYZ)


def test_unknown_identifier():
    with pytest.raises(ParseError):
        parse_expression("x + w", XYZ)


def test_unary_chain():
    e = parse_expression("--x", XYZ)
    assert e == Var(0)
    assert parse_expression("-x", XYZ) == Neg(Var(0))
    assert parse_expression("+x", XYZ) == Var(0)
    assert parse_expression("2*-3", XYZ) == Const(-6.0)


def test_precedence():
    e = parse_expression("1 + 2*x", XYZ)
    assert e == Add(Const(1.0), Mul(Const(2.0), Var(0)))
    e = parse_expression("(1 + x)/(2 - x)", XYZ)
    assert e == Div(Add(Const(1.0), Var(0)), Sub(Const(2.0), Var(0)))


def test_rational_literal_is_division():
    e = parse_expression("7/8", XYZ)
    v = e.eval_interval(IntervalBox.point([0.0, 0.0, 0.0]).parts)
    assert v == Interval(0.875, 0.875)


def test_sphere_derivative_structure():
    e = parse_expression(SPHERE, XYZ)
    assert e.derivative(0) == Mul(Const(2.0), Var(0))
    assert e.derivative(2) == Mul(Const(2.0), Var(2))


def test_derivatives_match_finite_differences():
    rng = random.Random(5)
    for text in (SPHERE, TORUS, SADDLE, "sqrt(x^2 + y^2 + 4) - z", "x/(1 + y^2)"):
        e = parse_expression(text, XYZ)
        for _ in range(12):
            p = [rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5), rng.uniform(-1, 1)]
            for v in range(3):
                d = e.derivative(v).eval_point(p)
                h = 1e-6
                pp = list(p)
                pm = list(p)
                pp[v] += h
                pm[v] -= h
                approx = (e.eval_point(pp) - e.eval_point(pm)) / (2 * h)
                assert d == pytest.approx(approx, rel=2e-5, abs=2e-5)


def _mp_eval(e, coords):
    if isinstance(e, Const):
        return mpmath.mpf(e.value)
    if isinstance(e, Var):
        return coords[e.index]
    if isinstance(e, Neg):
        return -_mp_eval(e.arg, coords)
    if isinstance(e, Sqrt):
        return mpmath.sqrt(_mp_eval(e.arg, coords))
    if isinstance(e, Pow):
        return _mp_eval(e.base, coords) ** e.exponent
    if isinstance(e, Add):
        return _mp_eval(e.left, coords) + _mp_eval(e.right, coords)
    if isinstance(e, Sub):
        return _mp_eval(e.left, coords) - _mp_eval(e.right, coords)
    if isinstance(e, Mul):
        return _mp_eval(e.left, coords) * _mp_eval(e.right, coords)
    if isinstance(e, Div):
        return _mp_eval(e.left, coords) / _mp_eval(e.right, coords)
    raise TypeError


def test_interval_eval_encloses_high_precision_samples():
    mpmath.mp.dps = 60
    rng = random.Random(99)
    for text in (SPHERE, TORUS, SADDLE):
        e = parse_expression(text, XYZ)
        for _ in range(40):
            c = [rng.uniform(1.2, 2.8), rng.uniform(1.2, 2.8), rng.uniform(-0.5, 0.5)]
            r = [abs(rng.gauss(0, 0.1)) for _ in range(3)]
            box = IntervalBox.from_center_radii(c, r)
            out = e.eval_interval(box.parts)
            for _ in range(6):
                p = [box[i].lo + rng.random() * (box[i].hi - box[i].lo) for i in range(3)]
                p = [min(max(p[i], box[i].lo), box[i].hi) for i in range(3)]
                val = _mp_eval(e, [mpmath.mpf(x) for x in p])
                assert mpmath.mpf(out.lo) - mpmath.mpf("1e-40") <= val <= mpmath.mpf(out.hi) + mpmath.mpf("1e-40")


# ---------------------------------------------------------------------------
# round trip


# trees built through the smart constructors, so they are in the same
# folded normal form the parser produces
@st.composite
def expr_trees(draw, depth=0):
    if depth >= 4:
        leaf = draw(st.sampled_from(["var", "const"]))
    else:
        leaf = draw(
            st.sampled_from(["var", "const", "neg", "sqrt", "square", "pow", "add", "sub", "mul", "div"])
        )
    if leaf == "var":
        return Var(draw(st.integers(0, 2)))
    if leaf == "const":
        return Const(draw(st.sampled_from([0.5, 1.0, 2.0, 0.64, 3.5, 7.0])))
    if leaf == "neg":
        return neg(draw(expr_trees(depth=depth + 1)))
    if leaf == "sqrt":
        return Sqrt(draw(expr_trees(depth=depth + 1)))
    if leaf == "square":
        return power(draw(expr_trees(depth=depth + 1)), 2)
    if leaf == "pow":
        return power(draw(expr_trees(depth=depth + 1)), draw(st.sampled_from([3, 4, 5, -2])))
    a = draw(expr_trees(depth=depth + 1))
    b = draw(expr_trees(depth=depth + 1))
    return {"add": add, "sub": sub, "mul": mul, "div": div}[leaf](a, b)


@given(expr_trees())
@settings(max_examples=300)
def test_print_parse_round_trip(tree):
    src = to_source(tree, XYZ)
    back = parse_expression(src, XYZ)
    assert back == tree


# ---------------------------------------------------------------------------
# systems


def test_parse_system_block():
    names, eqs = parse_system(
        """
        # unit sphere
        variables = x y z
        x^2 + y^2 + z^2 - 1 = 0
        """
    )
    assert names == ["x", "y", "z"]
    assert len(eqs) == 1
    assert eqs[0] == parse_expression(SPHERE, XYZ)


def test_parse_system_equation_keys_and_multiple():
    names, eqs = parse_system(
        "variables = a b c\nequation = a^2 + b - 1\nequation = c - a\n"
    )
    assert names == ["a", "b", "c"]
    assert len(eqs) == 2


def test_parse_system_errors():
    with pytest.raises(ParseError):
        parse_system("x^2 - 1")  # variables line missing/after use
    with pytest.raises(ParseError):
        parse_system("variables = x y z")  # no equations
    with pytest.raises(ParseError):
        parse_system("variables = x x\nx - 1")
    with pytest.raises(ParseError):
        parse_system("variables = x sqrt\nx - 1")


def test_parser_fuzz_never_crashes():
    rng = random.Random(123456)
    alphabet = "xyz+-*/^()=. 0123456789abqrtsqrt\\&#@!~[]{},'\"\x00\xff"
    for _ in range(100_000):
        n = rng.randint(0, 24)
        s = "".join(rng.choice(alphabet) for _ in range(n))
        try:
            parse_expression(s, XYZ)
        except ParseError:
            pass
    big = "(" * 1000 + "x" + ")" * 999
    try:
        parse_expression(big, XYZ)
    except ParseError:
        pass
    junk = bytes(rng.getrandbits(8) for _ in range(1_000_000)).decode("latin1")
    try:
        parse_system(junk)
    except ParseError:
        pass
