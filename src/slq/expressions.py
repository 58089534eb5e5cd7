"""Coefficient expressions: parsing, exact differentiation, fast evaluation.

Coefficient functions are given as infix strings over the variable ``x``,
numeric constants, the arithmetic operators (including ``^`` or ``**`` for
powers) and the functions ``exp``, ``log``, ``sin``, ``cos``.  They are parsed
into a small tree that supports exact symbolic differentiation, so quantities
like p'(x) are available without finite differencing.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionPole, SpecFileError

_ALLOWED_FUNCS = ("exp", "log", "sin", "cos", "sqrt")
_ALLOWED_NAMES = {"x", "pi", "e"}


class Node:
    def diff(self) -> "Node":
        raise NotImplementedError

    def emit(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Node):
    value: float

    def diff(self):
        return Const(0.0)

    def emit(self):
        # A negative constant is parenthesised: as the base of a power,
        # -2.0 ** x would read as -(2.0 ** x).
        v = float(self.value)
        return f"({v!r})" if math.copysign(1.0, v) < 0 else repr(v)


@dataclass(frozen=True)
class Var(Node):
    def diff(self):
        return Const(1.0)

    def emit(self):
        return "x"


def _is_const(n: Node, v=None) -> bool:
    return isinstance(n, Const) and (v is None or n.value == v)


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    def emit(self):
        if self.op == "**" and not (_is_const(self.right)
                                    and float(self.right.value).is_integer()):
            # On numbers `_pow` is math.pow, which raises ValueError for a
            # negative base where float ** returns a complex.  An integer
            # constant exponent cannot meet that case and keeps **.
            return f"_pow({self.left.emit()}, {self.right.emit()})"
        return f"({self.left.emit()} {self.op} {self.right.emit()})"

    def diff(self):
        ld, rd = self.left.diff(), self.right.diff()
        if self.op == "+":
            return add(ld, rd)
        if self.op == "-":
            return sub(ld, rd)
        if self.op == "*":
            return add(mul(ld, self.right), mul(self.left, rd))
        if self.op == "/":
            num = sub(mul(ld, self.right), mul(self.left, rd))
            return BinOp("/", num, mul(self.right, self.right))
        if self.op == "**":
            # General power; constant exponents use the monomial rule.
            if _is_const(self.right):
                k = self.right.value
                return mul(
                    mul(Const(k), BinOp("**", self.left, Const(k - 1.0))), ld
                )
            if _is_const(self.left):
                return mul(self, mul(Fun("log", self.left), rd))
            # f^g -> f^g * (g' log f + g f'/f)
            inner = add(
                mul(rd, Fun("log", self.left)),
                BinOp("/", mul(self.right, ld), self.left),
            )
            return mul(self, inner)
        raise AssertionError(self.op)


@dataclass(frozen=True)
class Fun(Node):
    name: str
    arg: Node

    def emit(self):
        return f"{self.name}({self.arg.emit()})"

    def diff(self):
        d = self.arg.diff()
        if self.name == "exp":
            return mul(self, d)
        if self.name == "log":
            return BinOp("/", d, self.arg)
        if self.name == "sin":
            return mul(Fun("cos", self.arg), d)
        if self.name == "cos":
            return mul(neg(Fun("sin", self.arg)), d)
        if self.name == "sqrt":
            return BinOp("/", d, mul(Const(2.0), self))
        raise AssertionError(self.name)


def add(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    return BinOp("+", a, b)


def sub(a: Node, b: Node) -> Node:
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    return BinOp("-", a, b)


def mul(a: Node, b: Node) -> Node:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    return BinOp("*", a, b)


def neg(a: Node) -> Node:
    if _is_const(a):
        return Const(-a.value)
    return mul(Const(-1.0), a)


# Constant folding at parse time, with the scalar evaluators' arithmetic.
_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv, "**": math.pow}


def _finite(const: Const, node: ast.AST) -> Const:
    """The constant, unless it is infinite or nan: the evaluators have no
    name for those."""
    if not math.isfinite(const.value):
        raise SpecFileError(
            f"constant {ast.unparse(node)!r} overflows to {const.value}")
    return const


def _convert(node: ast.AST) -> Node:
    if isinstance(node, ast.Expression):
        return _convert(node.body)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise SpecFileError(f"non-numeric constant {node.value!r}")
        return _finite(Const(float(node.value)), node)
    if isinstance(node, ast.Name):
        if node.id == "x":
            return Var()
        if node.id == "pi":
            return Const(math.pi)
        if node.id == "e":
            return Const(math.e)
        raise SpecFileError(f"unknown name {node.id!r} in expression")
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return neg(_convert(node.operand))
        if isinstance(node.op, ast.UAdd):
            return _convert(node.operand)
        raise SpecFileError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        ops = {
            ast.Add: "+",
            ast.Sub: "-",
            ast.Mult: "*",
            ast.Div: "/",
            ast.Pow: "**",
        }
        op = ops.get(type(node.op))
        if op is None:
            raise SpecFileError("unsupported binary operator")
        left, right = _convert(node.left), _convert(node.right)
        if _is_const(left) and _is_const(right):
            try:
                folded = Const(_FOLD[op](left.value, right.value))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise SpecFileError(
                    f"constant {ast.unparse(node)!r} undefined: {exc}")
            return _finite(folded, node)
        return BinOp(op, left, right)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise SpecFileError("unsupported function call form")
        name = node.func.id
        if name not in _ALLOWED_FUNCS:
            raise SpecFileError(f"unknown function {name!r}")
        if len(node.args) != 1:
            raise SpecFileError(f"{name} takes exactly one argument")
        return Fun(name, _convert(node.args[0]))
    raise SpecFileError(f"unsupported syntax: {ast.dump(node)}")


_SCALAR_NS = {f: getattr(math, f) for f in _ALLOWED_FUNCS}
_SCALAR_NS["_pow"] = math.pow
_ARRAY_NS = {f: getattr(np, f) for f in _ALLOWED_FUNCS}
_ARRAY_NS["_pow"] = operator.pow

# Longest expression text kept in the label of a compiled code object.
_LABEL_TEXT = 24


def _short(text):
    return text if len(text) <= _LABEL_TEXT \
        else text[:_LABEL_TEXT - 3] + "..."


def _label(kind, **exprs):
    """Code-object label `<kind name=text ...>`, so that profiles tell
    apart the code compiled for different expressions."""
    return "<" + " ".join(
        [kind, *(f"{k}={_short(e.text)}" for k, e in exprs.items())]) + ">"


# Code objects `_code` keeps before it starts over.
CODE_CACHE_SIZE = 512
_CODE_CACHE = {}


def _code(source, label, mode):
    """compile(source, label, mode), compiled once per process: specs that
    share a text share its code objects.  Executing one code object in
    each caller's own namespace still binds that caller's names.  The
    cache is cleared when it holds CODE_CACHE_SIZE entries."""
    key = (source, label, mode)
    code = _CODE_CACHE.get(key)
    if code is None:
        if len(_CODE_CACHE) >= CODE_CACHE_SIZE:
            _CODE_CACHE.clear()
        code = _CODE_CACHE[key] = compile(source, label, mode)
    return code


def _compiled(source, name, label, ns):
    """The function `name` that `source` defines in the namespace ns."""
    exec(_code(source, label, "exec"), ns)  # noqa: S102
    return ns[name]


_SCALAR_SOURCE = """\
def scalar(x):
    try:
        return {f}
    except (ValueError, ZeroDivisionError) as exc:
        raise _undefined(x, exc) from exc
"""


class Expr:
    """A compiled coefficient expression with exact derivatives.

    `scalar(x)` is the compiled evaluator at one number x, for callbacks
    that know their argument is a number; a domain error raises a
    SpecFileError naming the expression.  That includes a negative base
    under a power whose exponent is not an integer constant (`x**0.5` at
    x = -1, `(-2)**x` at x = 0.5), as for `sqrt(x)` at x = -1.  Calling the
    Expr takes a number or an ndarray; on an ndarray such points give
    numpy's nan, as `sqrt` does there.  A pole at a number (`1/x` at 0.0)
    raises the ExpressionPole, a SpecFileError that is also a
    ZeroDivisionError.  Calling it with a numpy float evaluates the float
    it holds, so a pole there raises too; `scalar` takes the number as
    given.
    """

    def __init__(self, root: Node, text: str | None = None):
        self.root = root
        self.text = text if text is not None else root.emit()
        src = root.emit()
        text = self.text
        label = f"<expr {_short(text)}>"

        def undefined(x, exc):
            error = ExpressionPole if isinstance(exc, ZeroDivisionError) \
                else SpecFileError
            return error(f"expression {text!r} undefined at x={x}: {exc}")

        self.scalar = _compiled(_SCALAR_SOURCE.format(f=src), "scalar",
                                label, dict(_SCALAR_NS, _undefined=undefined))
        self._array = eval(  # noqa: S307
            _code(f"lambda x: {src}", label, "eval"), dict(_ARRAY_NS))
        self._deriv: Expr | None = None

    @classmethod
    def parse(cls, text: str) -> "Expr":
        cleaned = text.replace("^", "**")
        try:
            tree = ast.parse(cleaned, mode="eval")
        except SyntaxError as exc:
            raise SpecFileError(f"cannot parse expression {text!r}: {exc}")
        return cls(_convert(tree), text=text)

    @classmethod
    def constant(cls, value: float) -> "Expr":
        return cls(Const(float(value)), text=repr(float(value)))

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            out = self._array(x)
            if np.isscalar(out) or getattr(out, "shape", None) == ():
                out = np.full_like(x, float(out), dtype=float)
            return out
        if isinstance(x, np.floating):
            # numpy division returns inf at a pole where float division
            # raises.
            x = float(x)
        return self.scalar(x)

    def deriv(self) -> "Expr":
        if self._deriv is None:
            self._deriv = Expr(self.root.diff())
        return self._deriv

    def __repr__(self):
        return f"Expr({self.text!r})"


def _fused(source, name, env=None, kind=None, **exprs):
    """Compile `source`, which defines `name` over the scalar namespace and
    `env`, with each keyword's expression in place of its field.  The
    source calls `_undefined(x)` on a domain error or a division by zero:
    that re-evaluates the expressions one by one, in keyword order, with
    their own scalar evaluators, so the SpecFileError names the expression
    at fault.  When none fails (a zero of p in y[1] / p), the source
    re-raises the original error.  The code is labelled with `kind`
    (default: `name`) and the expressions."""
    def undefined(x):
        for e in exprs.values():
            e.scalar(x)

    ns = dict(_SCALAR_NS, **(env or {}), _undefined=undefined)
    src = source.format(**{k: e.root.emit() for k, e in exprs.items()})
    return _compiled(src, name, _label(kind or name, **exprs), ns)


_RHS_SOURCE = """\
def factory(lam):
    def rhs(x, y):
        try:
            return [y[1] / ({p}), (({q}) - lam * ({r})) * y[0]]
        except (ValueError, ZeroDivisionError):
            _undefined(x)
            raise
    return rhs
"""


def quasi_rhs(p: Expr, q: Expr, r: Expr):
    """Factory lam -> f(x, y) for u' = u1 / p, u1' = (q - lam r) u.

    The three coefficients are compiled into one function, with the same
    arithmetic as ``[y[1] / p(x), (q(x) - lam * r(x)) * y[0]]``, so values
    are bit-identical while a call costs one Python frame instead of four.
    A domain error re-evaluates the coefficients one by one, so the
    SpecFileError names the expression at fault.
    """
    return _fused(_RHS_SOURCE, "factory", kind="rhs", p=p, q=q, r=r)


_PAIR_SOURCE = """\
def pair(x):
    try:
        return ({f}), ({p}) * ({d1})
    except (ValueError, ZeroDivisionError):
        _undefined(x)
        raise
"""


def quasi_pair(f: Expr, p: Expr):
    """x -> (f(x), p(x) * f'(x)) for scalar x, compiled into one function.

    The arithmetic is that of ``f(x), p(x) * f.deriv()(x)``, so values are
    bit-identical while a call costs one Python frame instead of several.  A
    domain error re-evaluates f, p and f' one by one, so the SpecFileError
    names the expression at fault.
    """
    return _fused(_PAIR_SOURCE, "pair", f=f, p=p, d1=f.deriv())
