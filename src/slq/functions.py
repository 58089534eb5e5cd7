"""Quasi-functions and test functions with exact derivatives.

Forms, boundary values and Green identities all consume a function g through
its pair (g, g^[1]), where g^[1] = p g' is the first quasi-derivative.
`QuasiFn` is that protocol: a subclass defines `pair(x)`, and the value
`g(x)` and the quasi-derivative `g.qd(x)` are read off it.  `x_min`/`x_max`
bound where g can be evaluated.  Solution trajectories and their blends and
combinations are QuasiFns; `AnalyticFn` adds exact first and second
derivatives d1/d2, so the test functions here lose no accuracy to finite
differencing.
"""

from __future__ import annotations

import math

import numpy as np

from .expressions import Expr, quasi_pair


class QuasiFn:
    """A function g known through its quasi-pair (g(x), g^[1](x)).

    Subclasses define pair(x); x_min/x_max bound the evaluable range.
    `pair`, `__call__` and `qd` take a scalar x in every subclass.  Only
    an ExprFunction evaluates arrays, through `__call__`, `d1`, `d2` and
    `qd`, never through its compiled `pair`.
    """

    x_min = -math.inf
    x_max = math.inf

    def pair(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.pair(x)[0]

    def qd(self, x):
        return self.pair(x)[1]


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
    d2, and carry the problem spec for g^[1] = p g'.  They take a scalar x;
    an ExprFunction also takes an ndarray."""

    def qd(self, x):
        if isinstance(x, np.ndarray):
            return self.spec.p(x) * self.d1(x)
        return self.spec.p.scalar(x) * self.d1(x)

    def pair(self, x):
        return self(x), self.qd(x)


class ExprFunction(AnalyticFn):
    """Function given by a coefficient-language expression.

    `pair` is compiled once per function (`expressions.quasi_pair`) into
    one scalar function of x with the arithmetic of `(f(x), p(x) f'(x))`;
    it takes scalars only.  It is bound per instance, so it takes
    precedence over `AnalyticFn.pair` and over any `pair` a subclass
    defines.  `__call__`, `d1` and `d2` take a number, through the
    expressions' compiled scalar evaluators, or an ndarray.
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
        if isinstance(x, np.ndarray):
            return self.expr(x)
        return self.expr.scalar(x)

    def d1(self, x):
        if isinstance(x, np.ndarray):
            return self._d1(x)
        return self._d1.scalar(x)

    def d2(self, x):
        if isinstance(x, np.ndarray):
            return self._d2(x)
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
    boundary values vanish and tau acts classically.
    """

    def __init__(self, spec, center, width):
        self.spec = spec
        self.center = float(center)
        self.width = float(width)

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


def _descending(poly):
    """Coefficients of a numpy Polynomial, highest degree first, as Python
    floats."""
    return tuple(float(c) for c in reversed(poly.coef))


def _horner(coeffs, x):
    """The polynomial with `coeffs` (highest degree first) at a number x.

    Horner in numpy's order; starting from 0.0 repeats numpy's `c[-1] + x*0`,
    so the value is that of numpy.polynomial.Polynomial at x, in plain
    floats for a float x.
    """
    acc = 0.0
    for c in coeffs:
        acc = c + acc * x
    return acc


class GaussianPoly(AnalyticFn):
    """P(x) * exp(-x^2/2) with polynomial P; closed under differentiation.

    Hermite functions H_n(x) exp(-x^2/2) are the n-th instances; used as
    test functions for the oscillator-type whole-line problem.  `poly`
    holds the coefficients of P, lowest degree first.  P and the
    polynomials of the two derivatives are stored as Python floats and
    evaluated by `_horner`.
    """

    def __init__(self, spec, poly):
        self.spec = spec
        p0 = np.polynomial.Polynomial(poly)
        # (P e^{-x^2/2})' = (P' - x P) e^{-x^2/2}
        x = np.polynomial.Polynomial([0.0, 1.0])
        p1 = p0.deriv() - x * p0
        p2 = p1.deriv() - x * p1
        self._c0, self._c1, self._c2 = map(_descending, (p0, p1, p2))

    @classmethod
    def hermite(cls, spec, n):
        coeffs = [0.0] * n + [1.0]
        h = np.polynomial.hermite.herm2poly(coeffs)
        return cls(spec, h)

    def __call__(self, x):
        return _horner(self._c0, x) * math.exp(-0.5 * x * x)

    def d1(self, x):
        return _horner(self._c1, x) * math.exp(-0.5 * x * x)

    def d2(self, x):
        return _horner(self._c2, x) * math.exp(-0.5 * x * x)

    def __repr__(self):
        return f"GaussianPoly({list(self._c0[::-1])})"


class ExpDecay(AnalyticFn):
    """P(x) * exp(-k x): decaying test functions for half-line problems.

    Stored and evaluated like GaussianPoly."""

    def __init__(self, spec, poly, k=1.0):
        self.spec = spec
        p0 = np.polynomial.Polynomial(poly)
        self.k = float(k)
        p1 = p0.deriv() - self.k * p0
        p2 = p1.deriv() - self.k * p1
        self._c0, self._c1, self._c2 = map(_descending, (p0, p1, p2))

    def __call__(self, x):
        return _horner(self._c0, x) * math.exp(-self.k * x)

    def d1(self, x):
        return _horner(self._c1, x) * math.exp(-self.k * x)

    def d2(self, x):
        return _horner(self._c2, x) * math.exp(-self.k * x)

    def __repr__(self):
        return f"ExpDecay({list(self._c0[::-1])}, k={self.k!r})"


class LinearCombination(QuasiFn):
    """sum_i c_i f_i over quasi-functions f_i."""

    def __init__(self, coeffs, fns):
        assert len(coeffs) == len(fns)
        self.coeffs = [complex(c) if isinstance(c, complex) else float(c)
                       for c in coeffs]
        self.fns = list(fns)

    def pair(self, x):
        u = u1 = 0.0
        for c, f in zip(self.coeffs, self.fns):
            fu, fu1 = f.pair(x)
            u += c * fu
            u1 += c * fu1
        return u, u1
