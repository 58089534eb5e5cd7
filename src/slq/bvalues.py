"""Generalized boundary values and patched reference functions.

For a function g in the maximal domain the generalized boundary values at a
nonoscillatory endpoint e are Wronskian limits against the principal /
nonprincipal basis,

    g~  = -lim W(u, g)(x),      g~' = lim W(u_hat, g)(x),

which reduce to g(e), g^[1](e) at a regular endpoint with the classical
basis and are evaluated there.  Elsewhere the Lagrange identity
d/dx W(w, g) = -r w (tau g - lambda0 g), for a solution w of
tau w = lambda0 w, turns each limit into the Wronskian at
c = nonvanish_bound, where the basis data are exact by construction, plus
an integral toward e:

    g~  = -W(u, g)(c) + int_c^e r u (tau g - lambda0 g),
    g~' = W(u_hat, g)(c) - int_c^e r u_hat (tau g - lambda0 g).

At a limit-circle end u, u_hat and tau g lie in L^2(r), so each integrand is
integrable; each integral is one `improper_integral` sweep toward e, stopped
at the edge of u's (u_hat's) support.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    EvaluationOutsideSupport,
    NoConvergence,
    WindowsOverlap,
)
from .functions import QuasiFn
from .odecore import EPS, wronskian
from .quadrature import _complex, accelerated_limit, improper_integral

# Nothing here calls accelerated_limit any more: perfbench/tracing.py rebinds
# it in this module by name, so it stays bound until the tracer reads
# counters from the library (ROADMAP item 10).
__all__ = ["accelerated_limit"]


@dataclass
class GeneralizedBoundaryValues:
    endpoint: str
    tilde: complex
    tilde_prime: complex
    route: str                  # "classical" or "lagrange"
    tilde_error: float = 0.0
    tilde_prime_error: float = 0.0


def gbv(spec, basis, g):
    """Generalized boundary values (g~, g~') of g at the basis endpoint.

    At a regular endpoint with the classical basis they are the Wronskians
    at the endpoint itself (route "classical"), the classical boundary data;
    elsewhere, and where g cannot be evaluated at the endpoint, the Lagrange
    identity's integrals from the nonvanishing bound (route "lagrange", see
    the module docstring).

    The values depend only on (basis, g), so they are memoized on the
    basis; a repeat request returns the same object.  The memo keeps g
    alive, so its id cannot be reused by another function while the basis
    lives.
    """
    hit = basis._gbv_memo.get(id(g))
    if hit is not None and hit[0] is g:
        return hit[1]
    values = _boundary_values(spec, basis, g)
    basis._gbv_memo[id(g)] = (g, values)
    return values


def _boundary_values(spec, basis, g):
    """Uncached gbv."""
    if basis.regular:
        end = basis.endpoint_value
        try:
            return GeneralizedBoundaryValues(
                endpoint=basis.endpoint,
                tilde=-wronskian(basis.u, g, end),
                tilde_prime=wronskian(basis.u_hat, g, end),
                route="classical")
        except EvaluationOutsideSupport:
            pass  # g not evaluable at the endpoint: integrate toward it
    w_u, u_err = _wronskian_limit(spec, basis, basis.u, g)
    w_hat, hat_err = _wronskian_limit(spec, basis, basis.u_hat, g)
    return GeneralizedBoundaryValues(
        endpoint=basis.endpoint, tilde=-w_u, tilde_prime=w_hat,
        route="lagrange", tilde_error=u_err, tilde_prime_error=hat_err)


def _wronskian_limit(spec, basis, w, g):
    """(lim W(w, g), error) toward the basis endpoint e for a solution w of
    tau w = lambda0 w: W(w, g)(c) - int_c^e r w (tau g - lambda0 g), with
    c = nonvanish_bound.

    The integral runs to the edge of w's support toward e, through
    `_complex`, so a complex g splits into real and imaginary parts.  Only
    a diverged integral raises NoConvergence; an uncertified one is used
    as it stands.  The error is the integral's estimate plus the rounding
    of the Wronskian at c.
    """
    c, end = basis.nonvanish_bound, basis.endpoint_value
    r, lam0 = spec.r.scalar, spec.lambda0
    wu, wu1 = w.pair(c)
    gu, gu1 = g.pair(c)

    def integrand(x):
        return r(x) * w(x) * (g.tau(x) - lam0 * g(x))

    cutoff = w.x_min if basis.endpoint == "a" else w.x_max
    val, err, _, diverged = _complex(improper_integral, integrand, c, end,
                                     cutoff=cutoff)
    if diverged:
        raise NoConvergence(
            f"Lagrange integral diverges toward endpoint {basis.endpoint}")
    rounding = EPS * (abs(wu * gu1) + abs(wu1 * gu))
    return wu * gu1 - wu1 * gu - val, err + rounding


def _smoothstep(t):
    """C^2 ramp: 0 at t<=0, 1 at t>=1."""
    if t <= 0.0:
        return 0.0, 0.0
    if t >= 1.0:
        return 1.0, 0.0
    phi = t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)
    dphi = 30.0 * t * t * (1.0 - t) * (1.0 - t)
    return phi, dphi


class BlendedFn(QuasiFn):
    """Left piece near a, right piece near b, C^1-blended in a window.

    The blend acts on values and classical derivatives; the quasi-derivative
    of the blend is (1-phi) l^[1] + phi r^[1] + p phi' (r - l), which keeps
    f^[1] continuous across the window edges.  The window edges are its
    `breaks`: the third derivative of `_smoothstep` jumps there, so the
    blend is C^2 but not analytic at them.  It covers from the left piece's
    x_min to the right piece's x_max, which grow as the pieces grow.
    """

    def __init__(self, spec, left, right, window, lam0):
        self.spec = spec
        self.left = left
        self.right = right
        self.window = (float(window[0]), float(window[1]))
        self.breaks = self.window
        self.lam0 = lam0
        self._p = spec.p.scalar
        self._dp = spec.p.deriv().scalar

    @property
    def x_min(self):
        return self.left.x_min

    @property
    def x_max(self):
        return self.right.x_max

    def _phi(self, x):
        a0, b0 = self.window
        return _smoothstep((x - a0) / (b0 - a0))

    def pair(self, x):
        a0, b0 = self.window
        if x <= a0:
            return self.left.pair(x)
        if x >= b0:
            return self.right.pair(x)
        phi, dphi = self._phi(x)
        lu, lu1 = self.left.pair(x)
        ru, ru1 = self.right.pair(x)
        u = (1.0 - phi) * lu + phi * ru
        u1 = (1.0 - phi) * lu1 + phi * ru1 \
            + self._p(x) * dphi / (b0 - a0) * (ru - lu)
        return u, u1

    def tau(self, x):
        """Exact tau of the blend; both pieces solve tau v = lam0 v.

        Outside the window tau acts as lam0; inside, the product rule on
        (p v')' picks up first- and second-derivative terms of the ramp.
        """
        a0, b0 = self.window
        lam0 = self.lam0
        if x <= a0:
            return lam0 * self.left(x)
        if x >= b0:
            return lam0 * self.right(x)
        h = b0 - a0
        t = (x - a0) / h
        phi, dphi = _smoothstep(t)
        dphi /= h
        d2phi = 60.0 * t * (1.0 - t) * (1.0 - 2.0 * t) / (h * h)
        lu, lu1 = self.left.pair(x)
        ru, ru1 = self.right.pair(x)
        p = self._p(x)
        q = self.spec.q.scalar(x)
        r = self.spec.r.scalar(x)
        v = (1.0 - phi) * lu + phi * ru
        d_pv = ((1.0 - phi) * (q - lam0 * r) * lu
                + phi * (q - lam0 * r) * ru
                + 2.0 * dphi * (ru1 - lu1)
                + self._dp(x) * dphi * (ru - lu)
                + p * d2phi * (ru - lu))
        return (-d_pv + q * v) / r


@dataclass
class PatchedPair:
    v1: object                  # u_hat near each endpoint
    v2: object                  # u near each endpoint


def patched_pair(spec, basis_a, basis_b):
    """Reference functions v1 (nonprincipal pieces) and v2 (principal).

    The pieces of the two bases are joined by a C^1 blend on the central
    third between the nonvanishing bounds.
    """
    n_a, n_b = basis_a.nonvanish_bound, basis_b.nonvanish_bound
    if not n_a < n_b:
        raise WindowsOverlap(
            f"nonvanishing windows overlap: bounds {n_a} >= {n_b}"
        )
    third = (n_b - n_a) / 3.0
    window = (n_a + third, n_b - third)
    v1 = BlendedFn(spec, basis_a.u_hat, basis_b.u_hat, window,
                   lam0=spec.lambda0)
    v2 = BlendedFn(spec, basis_a.u, basis_b.u, window, lam0=spec.lambda0)
    return PatchedPair(v1=v1, v2=v2)
