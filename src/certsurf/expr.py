"""Expression trees for analytic equation systems.

Nodes: variable, numeric constant, unary negate/sqrt, binary
add/sub/mul/div, and integer powers; a square is ``Pow(x, 2)``. Interval
evaluation is the natural extension computed node by node with outward
rounding; integer powers use the tight monomial rule (even powers never
dip below zero). Nodes do not evaluate themselves: a :class:`Tape`
compiles a list of trees once into a straight-line program, and one loop
runs it on any of three kernels, one column each of the op table ``_OPS``:

* ``POINT``: plain float arithmetic for approximate Newton steps and
  preconditioners.  A coordinate is a float, or an ndarray holding one
  value per lane of a batch; lanes never mix, and a domain error on any
  lane raises.  On lanes an integer power is a fixed chain of products,
  so a lane's value does not depend on its place in the batch.
* ``INTERVAL``: the scalar interval kernel on ``Interval`` objects.
* ``ENDS``: the endpoint-array kernel on (lo, hi) pairs, a batch of
  boxes at once; a lane where an operation is undefined comes out NaN.
  The pair of a point coordinate may hold one array twice.

Derivatives are built symbolically once via smart constructors that fold
exact-constant subtrees and drop 0/1 identities.
"""

from __future__ import annotations

import math
import operator
from functools import partial
from typing import Sequence

import numpy as np

from .errors import IntervalDomainError
from .intervals import (
    Interval,
    array_add,
    array_div,
    array_mul,
    array_neg,
    array_power,
    array_sqrt,
    array_sub,
    exact_product,
)


class Expr:
    __slots__ = ()

    def derivative(self, var: int) -> "Expr":
        raise NotImplementedError

    def max_var(self) -> int:
        """Largest variable index used, or -1 when constant."""
        return max((e.index for e in _postorder([self]) if isinstance(e, Var)), default=-1)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def derivative(self, var):
        return Const(0.0)

    def __eq__(self, other):
        return isinstance(other, Const) and (
            self.value == other.value or (self.value != self.value and other.value != other.value)
        )

    def __hash__(self):
        return hash(("const", self.value))

    def __repr__(self):
        return f"Const({self.value!r})"


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ValueError("variable index must be nonnegative")
        self.index = index

    def derivative(self, var):
        return Const(1.0 if var == self.index else 0.0)

    def __eq__(self, other):
        return isinstance(other, Var) and self.index == other.index

    def __hash__(self):
        return hash(("var", self.index))

    def __repr__(self):
        return f"Var({self.index})"


class _Unary(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg

    def __eq__(self, other):
        return type(other) is type(self) and self.arg == other.arg

    def __hash__(self):
        return hash((self._tag, self.arg))

    def __repr__(self):
        return f"{type(self).__name__}({self.arg!r})"


class Neg(_Unary):
    __slots__ = ()
    _tag = "neg"

    def derivative(self, var):
        return neg(self.arg.derivative(var))


class Sqrt(_Unary):
    __slots__ = ()
    _tag = "sqrt"

    def derivative(self, var):
        # d sqrt(u) = u' / (2 sqrt(u))
        du = self.arg.derivative(var)
        return div(du, mul(Const(2.0), Sqrt(self.arg)))


class Pow(Expr):
    """Integer power with exponent outside {0, 1} (those fold away)."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        self.base = base
        self.exponent = exponent

    def derivative(self, var):
        du = self.base.derivative(var)
        return mul(mul(Const(float(self.exponent)), power(self.base, self.exponent - 1)), du)

    def __eq__(self, other):
        return isinstance(other, Pow) and self.exponent == other.exponent and self.base == other.base

    def __hash__(self):
        return hash(("pow", self.exponent, self.base))

    def __repr__(self):
        return f"Pow({self.base!r}, {self.exponent})"


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def __eq__(self, other):
        return type(other) is type(self) and self.left == other.left and self.right == other.right

    def __hash__(self):
        return hash((self._tag, self.left, self.right))

    def __repr__(self):
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"


class Add(_Binary):
    __slots__ = ()
    _tag = "add"

    def derivative(self, var):
        return add(self.left.derivative(var), self.right.derivative(var))


class Sub(_Binary):
    __slots__ = ()
    _tag = "sub"

    def derivative(self, var):
        return sub(self.left.derivative(var), self.right.derivative(var))


class Mul(_Binary):
    __slots__ = ()
    _tag = "mul"

    def derivative(self, var):
        dl = self.left.derivative(var)
        dr = self.right.derivative(var)
        return add(mul(dl, self.right), mul(self.left, dr))


class Div(_Binary):
    __slots__ = ()
    _tag = "div"

    def derivative(self, var):
        # (u/v)' = (u'v - uv') / v^2
        du = self.left.derivative(var)
        dv = self.right.derivative(var)
        num = sub(mul(du, self.right), mul(self.left, dv))
        return div(num, power(self.right, 2))


# ---------------------------------------------------------------------------
# evaluation: one op table, one tape


def _point_sqrt(v):
    if np.any(v < 0.0):
        raise IntervalDomainError(f"sqrt of negative value {np.min(v)}")
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def _point_power(v, k: int):
    if k < 0 and np.any(v == 0.0):
        raise IntervalDomainError("division by zero")
    if not isinstance(v, np.ndarray):
        try:
            return v ** k
        except OverflowError:
            # like the product v * v * ... it stands for: inf with the power's sign
            return -math.inf if v < 0.0 and k % 2 else math.inf
    # on lanes, binary exponentiation; overflow gives a signed inf
    acc, base, n = None, v, abs(k)
    with np.errstate(over="ignore", divide="ignore"):
        while True:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if not n:
                return acc if k > 0 else 1.0 / acc
            base = base * base


def _point_div(a, b):
    if np.any(b == 0.0):
        raise IntervalDomainError("division by zero")
    return a / b


POINT, INTERVAL, ENDS = 0, 1, 2

# One row per operation node, one column per kernel.  No cell writes into
# its operands: a slot the tape shares feeds every one of its consumers.
_OPS = {
    Neg: (operator.neg, operator.neg, array_neg),
    Sqrt: (_point_sqrt, Interval.sqrt, array_sqrt),
    Pow: (_point_power, Interval.power, array_power),
    Add: (operator.add, operator.add, array_add),
    Sub: (operator.sub, operator.sub, array_sub),
    Mul: (operator.mul, operator.mul, array_mul),
    Div: (_point_div, operator.truediv, array_div),
}

# how a constant enters each kernel
_LIFT = (float, Interval.point, lambda v: (v, v))


def children(e: Expr) -> tuple:
    """The operand trees of a node, left to right."""
    if isinstance(e, _Binary):
        return e.left, e.right
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, _Unary):
        return (e.arg,)
    return ()


def _postorder(exprs: Sequence[Expr]) -> list:
    """Each distinct node object of the trees once, after its operands.

    Nodes are told apart by identity: a subtree that derivative rules
    reuse is one object and is emitted once, while equal but separate
    nodes, such as ``Const(0.0)`` and ``Const(-0.0)``, stay apart.  The
    walk keeps its own stack, so tree depth is bounded by memory only.
    """
    seen, order = set(), []
    stack = [(e, False) for e in reversed(exprs)]
    while stack:
        e, expanded = stack.pop()
        if id(e) in seen:
            continue
        kids = children(e)
        if expanded or not kids:
            seen.add(id(e))
            order.append(e)
        else:
            stack.append((e, True))
            stack.extend((c, False) for c in reversed(kids))
    return order


class Tape:
    """Straight-line program evaluating a list of trees on any kernel.

    Slots hold the inputs (one per variable), then the constants, then one
    value per operation node in postorder.  ``code`` holds per node its
    ``_OPS`` row, with a power's exponent bound in, and its operand slots;
    a unary node's second slot is None.
    """

    __slots__ = ("n_inputs", "constants", "code", "outputs")

    def __init__(self, exprs: Sequence[Expr], n_inputs: int):
        nodes = _postorder(exprs)
        if any(isinstance(e, Var) and e.index >= n_inputs for e in nodes):
            raise ValueError(f"a tree uses a variable past the {n_inputs} inputs")
        consts = [e for e in nodes if isinstance(e, Const)]
        ops = [e for e in nodes if type(e) in _OPS]
        slot = {id(e): e.index for e in nodes if isinstance(e, Var)}
        slot.update((id(e), n_inputs + i) for i, e in enumerate(consts + ops))
        self.code = []
        for e in ops:
            row = _OPS[type(e)]
            if isinstance(e, Pow):
                row = tuple(partial(f, k=e.exponent) for f in row)
            a, *b = [slot[id(c)] for c in children(e)]
            self.code.append((row, a, b[0] if b else None))
        self.n_inputs = n_inputs
        self.constants = tuple([lift(e.value) for e in consts] for lift in _LIFT)
        self.outputs = [slot[id(e)] for e in exprs]

    def run(self, kernel: int, inputs: Sequence) -> list:
        """Values of the trees on ``kernel``, with variable i held as ``inputs[i]``."""
        if len(inputs) != self.n_inputs:
            raise ValueError(f"tape takes {self.n_inputs} inputs, got {len(inputs)}")
        vals = [*inputs, *self.constants[kernel]]
        for row, a, b in self.code:
            f = row[kernel]
            vals.append(f(vals[a]) if b is None else f(vals[a], vals[b]))
        return [vals[i] for i in self.outputs]


# ---------------------------------------------------------------------------
# smart constructors (used by differentiation and the parser)


def _const_val(e: Expr) -> float | None:
    return e.value if isinstance(e, Const) else None


def _exact_sum(a: float, b: float) -> float | None:
    s = a + b
    if not math.isfinite(s):
        return None
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s if err == 0.0 else None


def add(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_val(a), _const_val(b)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    if ca is not None and cb is not None:
        s = _exact_sum(ca, cb)
        if s is not None:
            return Const(s)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_val(a), _const_val(b)
    if cb == 0.0:
        return a
    if ca == 0.0:
        return neg(b)
    if ca is not None and cb is not None:
        s = _exact_sum(ca, -cb)
        if s is not None:
            return Const(s)
    return Sub(a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Neg):
        return a.arg
    c = _const_val(a)
    if c is not None:
        return Const(-c)
    return Neg(a)


def mul(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_val(a), _const_val(b)
    if ca == 0.0 or cb == 0.0:
        return Const(0.0)
    if ca == 1.0:
        return b
    if cb == 1.0:
        return a
    if ca == -1.0:
        return neg(b)
    if cb == -1.0:
        return neg(a)
    if ca is not None and cb is not None:
        p = exact_product(ca, cb)
        if p is not None:
            return Const(p)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    ca, cb = _const_val(a), _const_val(b)
    if cb == 1.0:
        return a
    if ca == 0.0 and cb is not None and cb != 0.0:
        return Const(0.0)
    return Div(a, b)


def power(a: Expr, k: int) -> Expr:
    if k == 0:
        return Const(1.0)
    if k == 1:
        return a
    c = _const_val(a)
    if k == 2 and c is not None:
        p = exact_product(c, c)
        if p is not None:
            return Const(p)
    return Pow(a, k)


# ---------------------------------------------------------------------------
# printing


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC["add"]
    if isinstance(e, (Mul, Div)):
        return _PREC["mul"]
    if isinstance(e, Neg):
        return _PREC["neg"]
    if isinstance(e, Pow):
        return _PREC["pow"]
    if isinstance(e, Const) and e.value < 0:
        return _PREC["neg"]
    return _PREC["atom"]


def _wrap(s: str, need: bool) -> str:
    return f"({s})" if need else s


def to_source(e: Expr, names: Sequence[str]) -> str:
    """Render the tree so that parsing it back yields a structurally equal tree."""
    if isinstance(e, Const):
        v = e.value
        if v == int(v) and abs(v) < 1e15:
            return repr(int(v)) if v >= 0 else f"-{int(-v)}"
        return repr(v)
    if isinstance(e, Var):
        return names[e.index]
    if isinstance(e, Neg):
        return "-" + _wrap(to_source(e.arg, names), _prec(e.arg) < _PREC["neg"])
    if isinstance(e, Sqrt):
        return f"sqrt({to_source(e.arg, names)})"
    if isinstance(e, Pow):
        base = _wrap(to_source(e.base, names), _prec(e.base) < _PREC["atom"])
        if e.exponent < 0:
            return f"{base}^({e.exponent})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Add):
        rs = _wrap(to_source(e.right, names), _prec(e.right) <= _PREC["add"])
        return f"{to_source(e.left, names)} + {rs}"
    if isinstance(e, Sub):
        rs = _wrap(to_source(e.right, names), _prec(e.right) <= _PREC["add"])
        return f"{to_source(e.left, names)} - {rs}"
    if isinstance(e, Mul):
        ls = _wrap(to_source(e.left, names), _prec(e.left) < _PREC["mul"])
        rs = _wrap(to_source(e.right, names), _prec(e.right) <= _PREC["mul"])
        return f"{ls}*{rs}"
    if isinstance(e, Div):
        ls = _wrap(to_source(e.left, names), _prec(e.left) < _PREC["mul"])
        rs = _wrap(to_source(e.right, names), _prec(e.right) <= _PREC["mul"])
        return f"{ls}/{rs}"
    raise TypeError(f"unknown node {type(e).__name__}")
