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

from .expressions import Expr


class QuasiFn:
    """A function g known through its quasi-pair (g(x), g^[1](x)).

    Subclasses define pair(x); x_min/x_max bound the evaluable range.
    """

    x_min = -math.inf
    x_max = math.inf

    def pair(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.pair(x)[0]

    def qd(self, x):
        return self.pair(x)[1]


class AnalyticFn(QuasiFn):
    """A QuasiFn with exact derivatives: subclasses define __call__, d1 and
    d2, and carry the problem spec for g^[1] = p g'."""

    def qd(self, x):
        return self.spec.p(x) * self.d1(x)

    def pair(self, x):
        return self(x), self.qd(x)


class ExprFunction(AnalyticFn):
    """Function given by a coefficient-language expression."""

    def __init__(self, spec, expr):
        if isinstance(expr, str):
            expr = Expr.parse(expr)
        self.spec = spec
        self.expr = expr
        self._d1 = expr.deriv()
        self._d2 = self._d1.deriv()

    def __call__(self, x):
        return self.expr(x)

    def d1(self, x):
        return self._d1(x)

    def d2(self, x):
        return self._d2(x)

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


class GaussianPoly(AnalyticFn):
    """P(x) * exp(-x^2/2) with polynomial P; closed under differentiation.

    Hermite functions H_n(x) exp(-x^2/2) are the n-th instances; used as
    test functions for the oscillator-type whole-line problem.
    """

    def __init__(self, spec, poly):
        self.spec = spec
        self.poly = np.polynomial.Polynomial(poly) \
            if not isinstance(poly, np.polynomial.Polynomial) else poly
        # (P e^{-x^2/2})' = (P' - x P) e^{-x^2/2}
        x = np.polynomial.Polynomial([0.0, 1.0])
        self._p1 = self.poly.deriv() - x * self.poly
        self._p2 = self._p1.deriv() - x * self._p1

    @classmethod
    def hermite(cls, spec, n):
        coeffs = [0.0] * n + [1.0]
        h = np.polynomial.hermite.herm2poly(coeffs)
        return cls(spec, h)

    def __call__(self, x):
        return self.poly(x) * math.exp(-0.5 * x * x)

    def d1(self, x):
        return self._p1(x) * math.exp(-0.5 * x * x)

    def d2(self, x):
        return self._p2(x) * math.exp(-0.5 * x * x)

    def __repr__(self):
        return f"GaussianPoly({list(self.poly.coef)})"


class ExpDecay(AnalyticFn):
    """P(x) * exp(-k x): decaying test functions for half-line problems."""

    def __init__(self, spec, poly, k=1.0):
        self.spec = spec
        self.poly = np.polynomial.Polynomial(poly) \
            if not isinstance(poly, np.polynomial.Polynomial) else poly
        self.k = float(k)
        self._p1 = self.poly.deriv() - self.k * self.poly
        self._p2 = self._p1.deriv() - self.k * self._p1

    def __call__(self, x):
        return self.poly(x) * math.exp(-self.k * x)

    def d1(self, x):
        return self._p1(x) * math.exp(-self.k * x)

    def d2(self, x):
        return self._p2(x) * math.exp(-self.k * x)


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
