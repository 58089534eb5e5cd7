"""Generalized boundary values and patched reference functions.

For a function g in the maximal domain the generalized boundary values at a
nonoscillatory endpoint are Wronskian limits against the principal /
nonprincipal basis,

    g~  = -lim W(u, g)(x),      g~' = lim W(u_hat, g)(x),

which reduce to g(c), g^[1](c) at a regular endpoint with the classical
basis.  The limits are evaluated on a geometric approach sequence and
extrapolated; g~ is cross-checked through the ratio route g/u_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    EvaluationOutsideSupport,
    NoConvergence,
    WindowsOverlap,
)
from .functions import QuasiFn
from .odecore import wronskian
from .quadrature import accelerated_limit, geometric_points

ROUTE_WRONSKIAN = "wronskian_limit"

N_LEVELS = 26  # levels of the geometric approach sequence


@dataclass
class GeneralizedBoundaryValues:
    endpoint: str
    tilde: complex
    tilde_prime: complex
    route: str
    extrapolation_table: list = field(default_factory=list)
    tilde_error: float = 0.0
    tilde_prime_error: float = 0.0
    diagnostics: dict = field(default_factory=dict)


def _approach_points(basis):
    """Geometric sequence from the nonvanishing bound toward the endpoint,
    up to the edge of the trust interval toward an infinite endpoint."""
    end = basis.endpoint_value
    cutoff = None
    if not math.isfinite(end) and basis.trust_interval:
        cutoff = basis.trust_interval[1 if basis.endpoint == "b" else 0]
    return geometric_points(basis.nonvanish_bound, end,
                            n_windows=N_LEVELS - 1, cutoff=cutoff)


def _sequence_limit(vals, us, tol):
    """Limit of the approach-sequence values with an error estimate.

    Returns (value, err, certified).  Stabilized sequences short-circuit;
    otherwise the window-acceleration models are tried, and an uncertified
    result (accelerated_limit's Aitken fallback with a delta-based error)
    stands only while the deltas head to zero.
    """
    vals = [complex(v) if isinstance(v, complex) else float(v) for v in vals]
    if any(isinstance(v, complex) for v in vals):
        re = _sequence_limit([v.real for v in vals], us, tol)
        im = _sequence_limit([v.imag for v in vals], us, tol)
        return (complex(re[0], im[0]), re[1] + im[1], re[2] and im[2])
    scale = 1.0 + max(abs(v) for v in vals)
    deltas = [abs(b - a) for a, b in zip(vals, vals[1:])]
    if deltas[-1] <= 1e-13 * scale and deltas[-2] <= 1e-13 * scale:
        return vals[-1], deltas[-1] + 1e-15 * scale, True
    value, err, certified = accelerated_limit(vals, us)
    if certified:
        return value, err, True
    # Deltas must at least be heading to zero for a limit to exist.
    tail = deltas[-4:]
    if not all(d2 <= d1 + 1e-13 * scale for d1, d2 in zip(tail, tail[1:])) \
            and tail[-1] > tol * scale:
        return vals[-1], math.inf, False
    return value, err, False


def gbv(spec, basis, g, tol=1e-9):
    """Generalized boundary values (g~, g~') of g at the basis endpoint.

    g~ comes from the Wronskian route -W(u, g) with a ratio-route
    cross-check g/u_hat; g~' from W(u_hat, g).  At a regular endpoint with
    the classical basis the limits are evaluated at the endpoint itself,
    reproducing the classical boundary data.

    The values depend only on (basis, g, tol), so they are memoized on the
    basis; a repeat request returns the same object.  The memo keeps g
    alive, so its id cannot be reused by another function while the basis
    lives.
    """
    key = (id(g), tol)
    hit = basis._gbv_memo.get(key)
    if hit is not None and hit[0] is g:
        return hit[1]
    values = _boundary_values(basis, g, tol)
    basis._gbv_memo[key] = (g, values)
    return values


def _boundary_values(basis, g, tol):
    """Uncached gbv: Wronskian limits with the ratio-route cross-check."""
    endpoint = basis.endpoint
    end = basis.endpoint_value
    if basis.regular:
        try:
            tilde = -wronskian(basis.u, g, end)
            tilde_prime = wronskian(basis.u_hat, g, end)
            return GeneralizedBoundaryValues(
                endpoint=endpoint, tilde=tilde, tilde_prime=tilde_prime,
                route=ROUTE_WRONSKIAN,
                extrapolation_table=[(end, tilde)],
                diagnostics={"regular_direct": True},
            )
        except EvaluationOutsideSupport:
            pass  # g not evaluable at the endpoint: fall through to limits

    pts = _approach_points(basis)
    xs, w_tilde, w_prime, ratios = [], [], [], []
    for x in pts:
        try:
            gu, gu1 = g.pair(x)
            uu, uu1 = basis.u.pair(x)
            hu, hu1 = basis.u_hat.pair(x)
        except (EvaluationOutsideSupport, ZeroDivisionError, OverflowError):
            continue
        xs.append(x)
        w_tilde.append(-(uu * gu1 - uu1 * gu))
        w_prime.append(hu * gu1 - hu1 * gu)
        ratios.append(gu / hu if hu != 0.0 else None)
    if len(xs) < 4:
        raise NoConvergence(
            f"only {len(xs)} usable approach points toward endpoint {endpoint}"
        )
    us = [-math.log(abs(end - x)) for x in xs] if math.isfinite(end) \
        else [math.log(abs(x) + 1.0) for x in xs]
    tilde, t_err, _ = _sequence_limit(w_tilde, us, tol)
    tilde_prime, p_err, _ = _sequence_limit(w_prime, us, tol)

    if not math.isfinite(t_err) or not math.isfinite(p_err):
        raise NoConvergence(
            f"extrapolation deltas not decreasing at endpoint {endpoint}"
        )

    # Ratio route for g~: g(x)/u_hat(x) -> g~ since u_hat dominates u.  It
    # converges only like 1/log toward a singular endpoint, so it checks the
    # Wronskian value and never replaces it.
    diagnostics = {"wronskian_error": t_err, "prime_error": p_err}
    keep = [(u, r) for u, r in zip(us, ratios) if r is not None]
    if len(keep) >= 4:
        r_us = [u for u, _ in keep]
        r_vals = [r for _, r in keep]
        r_val, r_err, _ = _sequence_limit(r_vals, r_us, tol)
        diagnostics["ratio_value"] = r_val
        diagnostics["ratio_error"] = r_err
        if math.isfinite(r_err):
            agreement = abs(r_val - tilde)
            diagnostics["route_agreement"] = agreement
            budget = 10.0 * (t_err + r_err) + tol * (1.0 + abs(tilde))
            if agreement > budget:
                raise NoConvergence(
                    f"ratio and Wronskian routes disagree at endpoint "
                    f"{endpoint}: |{r_val} - {tilde}| > {budget}"
                )

    return GeneralizedBoundaryValues(
        endpoint=endpoint, tilde=tilde, tilde_prime=tilde_prime,
        route=ROUTE_WRONSKIAN,
        extrapolation_table=list(zip(xs, w_tilde)),
        tilde_error=t_err, tilde_prime_error=p_err,
        diagnostics=diagnostics,
    )


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
    blend is C^2 but not analytic at them.
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
    blend_window: tuple


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
    return PatchedPair(v1=v1, v2=v2, blend_window=window)
