"""Principal/nonprincipal solution bases at the reference energy.

At a nonoscillatory endpoint the solutions of tau u = lambda0 u split into
the principal direction u (unique up to scalars, with divergent integral of
1/(p u^2) toward the endpoint) and its dominant nonprincipal companions
u_hat.  This module marches solutions toward endpoints with overflow-safe
rescaling, decides principal vs nonprincipal by window convergence tests,
builds the companion by reduction of order, and normalizes so that
W(u_hat, u) = 1 holds exactly.

The march (`march_windows`) is odecore.rk_solve with RK45 and a cap: a
leg stops where max(|u|, |u^[1]|) reaches the cap, and the next one
starts from the state divided by that size, its logarithm added to the
segment's log scale.  It also serves the endpoint probes in `classify`.
The reduction tail T' = -1/(p w^2) (`_tail_ode`) runs on the same
integrator as the pair (T, 0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EvaluationOutsideSupport,
    IntegralClassificationInconclusive,
    NonFiniteState,
    OscillatoryAtLambda0,
)
from .functions import MemoizedQuasiFn, QuasiFn
from .odecore import RK45, ScaledSolution, _plain, rk_solve
from .problem import endpoint_regular
from .quadrature import geometric_points, improper_integral

SCALE_CAP = 1e8
LOGSCALE_MAX = 300.0


def march_windows(spec, lam, init, pts, tol, cap=SCALE_CAP):
    """March from pts[0] through the window points pts[1:].

    The state is renormalized whenever it reaches `cap` (see the module
    docstring), so a window can take several legs.  After each window it
    yields (trajectory, first, zeros, L): the ScaledSolution so far, the
    index in its `segments` of the window's first segment, the sign
    changes of u in the window, counted by rk_solve over the accepted
    steps of its legs (None for complex lam), and the log scale reached.
    It stops after the window where L passes LOGSCALE_MAX (the trajectory
    is then astronomically large and certainly nonprincipal).
    """
    steps = spec.coeffs.steps(RK45)(_plain(lam))
    count = not isinstance(lam, complex)
    scaled = ScaledSolution(lam)
    x, y, L = pts[0], init, 0.0
    for x1 in pts[1:]:
        first, zeros = len(scaled.segments), 0
        for _ in range(200):
            x, y, table, *n = rk_solve(RK45, steps, x, y, x1, tol,
                                       tol * 1e-3, dense=True, cap=cap,
                                       zeros=count)
            if not all(map(cmath.isfinite, y)):
                raise NonFiniteState("state overflowed despite rescaling cap")
            scaled.add_segment(table, L)
            zeros += sum(n)  # n is [count] for real lam, else empty
            if x == x1:
                break
            # Renormalize and continue from the event point.
            m = max(abs(y[0]), abs(y[1]))
            L += math.log(m)
            y = (y[0] / m, y[1] / m)
            if L > LOGSCALE_MAX:
                break
        yield scaled, first, zeros if count else None, L
        if L > LOGSCALE_MAX:
            return


def rescaled_march(spec, lam, anchor, init, target, tol=1e-11,
                   n_windows=48, ratio=0.5, cap=SCALE_CAP, cutoff=None):
    """March from anchor toward target (possibly a singular endpoint).

    The path is split into geometric windows approaching a singular
    endpoint (one window otherwise) and marched by `march_windows`; the
    returned ScaledSolution carries the cumulative log-scale ledger.
    """
    a, b = spec.interval.endpoints()
    if target in (a, b) and not endpoint_regular(
            spec, "a" if target == a else "b"):
        pts = geometric_points(anchor, target, n_windows=n_windows,
                               ratio=ratio, cutoff=cutoff)
    else:
        pts = [anchor, target]
    if max(abs(init[0]), abs(init[1])) == 0.0:
        raise ValueError("zero initial state")
    scaled = ScaledSolution(lam)  # what a march without windows returns
    for scaled, _, _, _ in march_windows(spec, lam, init, pts, tol, cap):
        pass
    return scaled


class ScalarMultiple(QuasiFn):
    """c times a quasi-function; it covers what its member covers, which
    grows as segments are added to the member."""

    def __init__(self, fn, c):
        self.fn = fn
        self.c = c

    @property
    def x_min(self):
        return self.fn.x_min

    @property
    def x_max(self):
        return self.fn.x_max

    def pair(self, x):
        u, u1 = self.fn.pair(x)
        return self.c * u, self.c * u1


class ReductionSolution(MemoizedQuasiFn):
    """Principal solution w(x) * T(x) built by reduction of order.

    w is the marched (nonprincipal) solution and T(x) the tail integral of
    1/(p w^2) from x toward the endpoint.  T is represented by a dense ODE
    solution of T' = -1/(p w^2) integrated away from the endpoint starting
    at the extrapolated tail value, so its tiny far-field values keep full
    relative accuracy (T decays like the square of the principal solution
    and any absolute error would be amplified by the w factor).  The
    quasi-derivative is exact: (wT)^[1] = w^[1] T - 1/w.  Neither it nor
    w changes after __init__ (`construct_basis` adds w's segments first),
    so `pair` computes each point once (see MemoizedQuasiFn).
    """

    def __init__(self, spec, w, c0, total, tail, scale=1.0, t_floor=0.0):
        self.spec = spec
        self.w = w
        self.c0 = c0
        self.total = total
        self._tail = tail  # StepTable of (T, 0)
        self.scale = scale
        self.t_floor = t_floor
        self.x_min = min(tail.t[0], tail.t[-1])
        self.x_max = max(tail.t[0], tail.t[-1])
        self._memo = {}  # x -> pair(x)

    def T(self, x):
        if not (self.x_min <= x <= self.x_max):
            raise EvaluationOutsideSupport(
                f"x={x} outside [{self.x_min}, {self.x_max}]"
            )
        t = float(self._tail.at(x)[0])
        # Below the integrator noise floor the interpolated tail is pure
        # noise; clamping to zero keeps the w-amplified products finite.
        if abs(t) < self.t_floor:
            return 0.0
        return t

    def _pair(self, x):
        wu, wu1, L = self.w.log_pair(x)
        T = self.T(x)
        s = math.exp(L) * self.scale
        u = wu * T * s
        u1 = (wu1 * T - 1.0 / (wu * math.exp(2.0 * L))) * s \
            if wu != 0.0 else wu1 * T * s
        # 1/w true = exp(-L)/wu; folded into the common factor s = e^L:
        # u1 = scale * (e^L wu1 T - e^{-L}/wu) = s*(wu1 T - 1/(wu e^{2L}))
        return u, u1


@dataclass
class SolutionBasis:
    endpoint: str                 # "a" or "b"
    u: object                     # principal
    u_hat: object                 # nonprincipal, W(u_hat, u) = 1
    lambda0: float
    nonvanish_bound: float
    anchor: float                 # reduction-of-order base point c0
    endpoint_value: float = 0.0
    regular: bool = False
    principal_integral: object = None
    trust_interval: tuple = None  # where W(u_hat, u) is well conditioned
    diagnostics: dict = field(default_factory=dict)
    # bvalues.gbv's memo: (id(g), tol) -> (g, values).
    _gbv_memo: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def toward(self):
        """Direction of travel from the interior toward the endpoint."""
        return -1.0 if self.endpoint == "a" else 1.0


def _find_last_zero(scaled, x_from, x_to, n_scan=400):
    """Zero of the (real) trajectory closest to x_to on [x_from, x_to]."""
    xs = np.linspace(x_from, x_to, n_scan)
    vals = [scaled.log_pair(x)[0] for x in xs]
    last = None
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            last = xs[i]
        elif vals[i] * vals[i + 1] < 0.0:
            lo, hi = xs[i], xs[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                vm = scaled.log_pair(mid)[0]
                if vm == 0.0:
                    break
                if vals[i] * vm < 0.0:
                    hi = mid
                else:
                    lo = mid
            last = 0.5 * (lo + hi)
    return last


def _trust_interval(u, u_hat, c0, lo, hi, cap=1e7, n=201):
    """Largest grid interval around c0 where the Wronskian products of the
    pair stay below `cap` (so W(u_hat, u) = 1 is verifiable to ~cap * eps).
    Both family members grow toward the interior, so far from the endpoint
    the products overwhelm the floating-point cancellation."""
    xs = np.linspace(lo, hi, n)

    def ok(x):
        try:
            uu, uu1 = u.pair(x)
            hu, hu1 = u_hat.pair(x)
        except EvaluationOutsideSupport:
            return False
        vals = (abs(hu * uu1), abs(hu1 * uu))
        return all(math.isfinite(v) and v <= cap for v in vals)

    i0 = int(np.argmin(np.abs(xs - c0)))
    if not ok(xs[i0]):
        return (float(xs[i0]), float(xs[i0]))
    i_lo = i0
    while i_lo > 0 and ok(xs[i_lo - 1]):
        i_lo -= 1
    i_hi = i0
    while i_hi < n - 1 and ok(xs[i_hi + 1]):
        i_hi += 1
    return (float(xs[i_lo]), float(xs[i_hi]))


def _principal_integrand(spec, w):
    p = spec.p.scalar

    def f(x):
        wu, _, L = w.log_pair(x)
        return math.exp(-2.0 * L) / (p(x) * wu * wu)
    return f


def _tail_ode(spec, w, x_far, tail0, x_to, scale_hint=1.0, tol=1e-12):
    """StepTable of T(x) with T' = -1/(p w^2), anchored at the far tail
    value.

    Integrating away from the endpoint keeps T accurate relative to its own
    (possibly astronomically small) local size; an absolute tail error would
    be amplified by the dominant w factor of the reduction product and
    destroy the Wronskian cancellation far out.  The table is of the pair
    (T, 0), whose second component stays zero.
    """
    f = _principal_integrand(spec, w)
    return rk_solve(RK45, lambda x, y: (-f(x), 0.0), x_far, (tail0, 0.0),
                    x_to, tol, 1e-40 * (1.0 + abs(scale_hint)),
                    dense=True)[2]


def construct_basis(spec, endpoint, tol=1e-11, anchor=None, back_to=None):
    """Principal/nonprincipal pair at lambda0 near one endpoint.

    Regular endpoints get the classical basis anchored at the endpoint
    itself (u vanishing there, u_hat = 1 there), which makes generalized
    boundary values coincide with classical ones.  Singular endpoints use a
    marched solution, a window convergence test on 1/(p w^2), and reduction
    of order for the missing family member; normalization W(u_hat, u) = 1
    holds exactly by construction.
    """
    from .classify import certify_endpoint

    a, b = spec.interval.endpoints()
    end = a if endpoint == "a" else b
    interior = spec.interval.interior_point()
    lam0 = spec.lambda0

    if certify_endpoint(spec, lam0, endpoint) == "refuted":
        raise OscillatoryAtLambda0(
            f"lambda0={lam0} is oscillatory at endpoint {endpoint}"
        )

    if anchor is None:
        if math.isfinite(end):
            anchor = interior + 0.5 * (end - interior)
        else:
            anchor = interior + (1.0 if endpoint == "b" else -1.0)
    if back_to is None:
        other = b if endpoint == "a" else a
        if math.isfinite(other):
            back_to = other + 0.1 * (interior - other)
        else:
            back_to = interior - 6.0 * (1.0 if endpoint == "b" else -1.0)

    if endpoint_regular(spec, endpoint):
        return _regular_basis(spec, endpoint, end, back_to, tol)

    # Singular endpoint: march a real solution toward it.
    w = rescaled_march(spec, lam0, anchor, (1.0, 0.0), end, tol=tol)
    cutoff = w.x_max if endpoint == "b" else w.x_min

    last_zero = _find_last_zero(
        w, anchor, cutoff - 1e-3 * abs(cutoff - anchor)
        if endpoint == "b" else cutoff + 1e-3 * abs(cutoff - anchor))
    if last_zero is None:
        c0 = anchor
    else:
        c0 = last_zero + 0.05 * (cutoff - last_zero)

    # Extend w back into the interior for patching and forms.
    w_back = rescaled_march(spec, lam0, anchor, w.log_pair(anchor)[:2],
                            back_to, tol=tol, n_windows=1)
    for table, L in w_back.segments:
        w.add_segment(table, L)

    # Principal test: does the reduction integral diverge toward the end?
    res = improper_integral(_principal_integrand(spec, w), c0, end,
                            cutoff=cutoff)
    if res.diverged:
        kind = "principal"
    elif res.converged:
        kind = "nonprincipal"
    else:
        raise IntegralClassificationInconclusive(
            f"1/(p w^2) window test unresolved at endpoint {endpoint}"
        )

    if kind == "principal":
        s0 = w.pair(c0)[0]
        u = ScalarMultiple(w, 1.0 / s0)
        # Companion with W(u_hat, u) = 1 exactly at c0: u_hat(c0) = 0,
        # u_hat^[1](c0) = -1.
        uh = rescaled_march(spec, lam0, c0, (0.0, -1.0), end, tol=tol)
        uh_back = rescaled_march(spec, lam0, c0, (0.0, -1.0), back_to,
                                 tol=tol, n_windows=1)
        for table, L in uh_back.segments:
            uh.add_segment(table, L)
        u_hat = uh
        principal_res = res
    else:
        # w is dominant; the principal companion is w(x) T(x) with T the
        # tail of the reduction integral.  u_hat = -w(c0) S w makes
        # W(u_hat, u) = 1 exact for u = w T / (w(c0) S).  T comes from a
        # backward ODE started at the far edge of the window sweep; at an
        # infinite endpoint the leftover beyond that edge is below the
        # decayed window contributions and is safely dropped (an
        # underestimate only shrinks the product, never inflates it).
        pts = geometric_points(c0, end, cutoff=cutoff)
        x_far = pts[len(res.partial_sums)]
        if math.isfinite(end):
            tail0 = res.value - res.partial_sums[-1]
            if tail0 * math.copysign(1.0, res.value) < 0.0:
                tail0 = 0.0
        else:
            tail0 = 0.0
        tail = _tail_ode(spec, w, x_far, tail0, back_to,
                         scale_hint=res.value)
        S = float(tail.at(c0)[0])
        w_c0 = w.pair(c0)[0]
        u = ReductionSolution(spec, w, c0, S, tail,
                              scale=1.0 / (w_c0 * S),
                              t_floor=1e-38 * (1.0 + abs(res.value)))
        u_hat = ScalarMultiple(w, -w_c0 * S)
        principal_res = res

    cov_lo = max(w.x_min, u.x_min)
    cov_hi = min(w.x_max, u.x_max)
    trust = _trust_interval(u, u_hat, c0, cov_lo, cov_hi)
    return SolutionBasis(
        endpoint=endpoint, u=u, u_hat=u_hat, lambda0=lam0,
        nonvanish_bound=c0, anchor=c0, endpoint_value=end, regular=False,
        principal_integral=principal_res, trust_interval=trust,
        diagnostics={"marched_kind": kind, "last_zero": last_zero,
                     "coverage": (cov_lo, cov_hi)},
    )


def _regular_basis(spec, endpoint, end, back_to, tol):
    """Classical basis at a regular endpoint.

    u has (u, u^[1]) = (0, 1) at the endpoint (principal: it vanishes
    there), u_hat has (1, 0).  Then W(u_hat, u) = 1 identically.
    """
    u = rescaled_march(spec, spec.lambda0, end, (0.0, 1.0), back_to,
                       tol=tol, n_windows=1)
    u_hat = rescaled_march(spec, spec.lambda0, end, (1.0, 0.0), back_to,
                           tol=tol, n_windows=1)
    interior = spec.interval.interior_point()
    bound_guess = interior + 0.5 * (end - interior)
    lz_u = _find_last_zero(u, back_to, bound_guess)
    lz_h = _find_last_zero(u_hat, back_to, bound_guess)
    zs = [z for z in (lz_u, lz_h) if z is not None]
    if zs:
        z = max(zs, key=lambda t: -abs(end - t))
        c0 = z + 0.05 * (end - z)
    else:
        c0 = bound_guess
    trust = _trust_interval(u, u_hat, c0, u.x_min, u.x_max)
    return SolutionBasis(
        endpoint=endpoint, u=u, u_hat=u_hat, lambda0=spec.lambda0,
        nonvanish_bound=c0, anchor=c0, endpoint_value=end, regular=True,
        principal_integral=None, trust_interval=trust,
        diagnostics={"marched_kind": "classical", "last_zero": zs or None,
                     "coverage": (min(u.x_min, end), max(u.x_max, end))},
    )
