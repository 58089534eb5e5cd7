"""Quasi-functions and test functions with exact derivatives.

Forms, boundary values and Green identities all consume a function g through
its pair (g, g^[1]), where g^[1] = p g' is the first quasi-derivative.
`QuasiFn` is that protocol: a subclass defines `pair(x)`, and the value
`g(x)` and the quasi-derivative `g.qd(x)` are read off it.  `x_min`/`x_max`
bound where g can be evaluated, and `breaks` lists the points where g is
not analytic, so that a quadrature can integrate between them.  Each
subclass also computes its own `tau(x)`, (tau g)(x), exactly: a solution
of tau u = lambda u returns lambda u, a blend or combination combines its
members' tau, and `AnalyticFn` differentiates with its exact first and
second derivatives d1/d2.  Nothing is finite-differenced.
"""

from __future__ import annotations

import math

from .expressions import Expr, quasi_pair


class QuasiFn:
    """A function g known through its quasi-pair (g(x), g^[1](x)).

    Subclasses define pair(x); x_min/x_max bound the evaluable range.
    `pair`, `__call__` and `qd` take a scalar x in every subclass.
    `breaks` is the tuple of points where g, as a function of x, is not
    analytic (the joint of a blend, the edge of a support); it is empty by
    default.  It is a fact of the function, not a setting: the forms
    integrate piecewise between the breaks instead of letting an adaptive
    panel bisect its way onto each one.  `tau(x)` is (tau g)(x), which
    every subclass computes exactly in its own way.
    """

    x_min = -math.inf
    x_max = math.inf
    breaks = ()

    def pair(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.pair(x)[0]

    def qd(self, x):
        return self.pair(x)[1]

    def tau(self, x):
        raise NotImplementedError(
            f"{type(self).__name__} does not define tau")


# Entries a MemoizedQuasiFn keeps before it starts over.
PAIR_MEMO_SIZE = 2 ** 14


class MemoizedQuasiFn(QuasiFn):
    """A QuasiFn whose pair is computed once per point.

    `pair(x)` keeps a dict, `_memo`, from x to the pair it returned, on the
    object itself; a subclass sets `_memo = {}` in __init__ and computes a
    missing pair in `_pair(float(x))`.  Computing at float(x) makes a hit
    return what a miss returns, bit for bit and in type, whether the first
    caller passed a float or a numpy float.  The dict is cleared when it
    holds PAIR_MEMO_SIZE entries; a subclass whose values can change must
    clear it when they do.
    """

    def pair(self, x):
        try:
            return self._memo[x]
        except KeyError:
            pass
        memo = self._memo
        if len(memo) >= PAIR_MEMO_SIZE:
            memo.clear()
        out = memo[x] = self._pair(float(x))
        return out

    def _pair(self, x):
        raise NotImplementedError


class AnalyticFn(QuasiFn):
    """A QuasiFn with exact derivatives: subclasses define __call__, d1 and
    d2, and carry the problem spec for g^[1] = p g'.  They take a scalar
    x."""

    def qd(self, x):
        return self.spec.p.scalar(x) * self.d1(x)

    def pair(self, x):
        return self(x), self.qd(x)

    def tau(self, x):
        """(-(p g')' + q g) / r with (p g')' = p' g' + p g'' exact."""
        spec = self.spec
        d_qd = spec.p.deriv().scalar(x) * self.d1(x) \
            + spec.p.scalar(x) * self.d2(x)
        return (-d_qd + spec.q.scalar(x) * self(x)) / spec.r.scalar(x)


class ExprFunction(AnalyticFn):
    """Function given by a coefficient-language expression.

    `pair` is compiled once per function (`expressions.quasi_pair`) into
    one scalar function of x with the arithmetic of `(f(x), p(x) f'(x))`;
    it takes scalars only.  It is bound per instance, so it takes
    precedence over `AnalyticFn.pair` and over any `pair` a subclass
    defines.  `__call__`, `d1` and `d2` take a number, through the
    expressions' compiled scalar evaluators.
    """

    def __init__(self, spec, expr):
        if isinstance(expr, str):
            expr = Expr.parse(expr)
        self.spec = spec
        self.expr = expr
        self._d1 = expr.deriv()
        self._d2 = self._d1.deriv()
        self.pair = quasi_pair(expr, spec.p)

    def __call__(self, x):
        return self.expr.scalar(x)

    def d1(self, x):
        return self._d1.scalar(x)

    def d2(self, x):
        return self._d2.scalar(x)

    def __repr__(self):
        return f"ExprFunction({self.expr.text!r})"


def polynomial(spec, coeffs):
    """Polynomial c0 + c1 x + c2 x^2 + ... as an ExprFunction."""
    terms = []
    for k, c in enumerate(coeffs):
        c = float(c)
        if c == 0.0:
            continue
        if k == 0:
            terms.append(repr(c))
        elif k == 1:
            terms.append(f"({c!r})*x")
        else:
            terms.append(f"({c!r})*x**{k}")
    text = " + ".join(terms) if terms else "0"
    return ExprFunction(spec, text)


class BumpFn(AnalyticFn):
    """Smooth compactly supported bump exp(-1/(1 - t^2)), t = (x-c)/w.

    Identically zero outside |x - center| < width, so all its generalized
    boundary values vanish and tau acts classically.  It is smooth but not
    analytic at the edges of its support, center +- width: its `breaks`.
    """

    def __init__(self, spec, center, width):
        self.spec = spec
        self.center = float(center)
        self.width = float(width)
        self.breaks = (self.center - self.width, self.center + self.width)

    def _t(self, x):
        return (x - self.center) / self.width

    def __call__(self, x):
        t = self._t(x)
        if abs(t) >= 1.0:
            return 0.0
        return math.exp(-1.0 / (1.0 - t * t))

    def d1(self, x):
        t = self._t(x)
        if abs(t) >= 1.0:
            return 0.0
        s = 1.0 - t * t
        return self(x) * (-2.0 * t / (s * s)) / self.width

    def d2(self, x):
        t = self._t(x)
        if abs(t) >= 1.0:
            return 0.0
        s = 1.0 - t * t
        sp = -2.0 * t / (s * s)
        spp = -(2.0 + 6.0 * t * t) / (s * s * s)
        return self(x) * (sp * sp + spp) / (self.width * self.width)

    def __repr__(self):
        return f"BumpFn(center={self.center}, width={self.width})"


class LinearCombination(QuasiFn):
    """sum_i c_i f_i over quasi-functions f_i; its breaks are the union of
    its members', and it covers where all its members do, which grows as
    they grow."""

    def __init__(self, coeffs, fns):
        assert len(coeffs) == len(fns)
        self.coeffs = [complex(c) if isinstance(c, complex) else float(c)
                       for c in coeffs]
        self.fns = list(fns)
        self.breaks = tuple(sorted({x for f in self.fns for x in f.breaks}))

    @property
    def x_min(self):
        return max(f.x_min for f in self.fns)

    @property
    def x_max(self):
        return min(f.x_max for f in self.fns)

    def pair(self, x):
        u = u1 = 0.0
        for c, f in zip(self.coeffs, self.fns):
            fu, fu1 = f.pair(x)
            u += c * fu
            u1 += c * fu1
        return u, u1

    def tau(self, x):
        return sum(c * f.tau(x) for c, f in zip(self.coeffs, self.fns))
