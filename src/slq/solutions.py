"""Principal/nonprincipal solution bases at the reference energy.

At a nonoscillatory endpoint the solutions of tau u = lambda0 u split into
the principal direction u (unique up to scalars, with divergent integral of
1/(p u^2) toward the endpoint) and its dominant nonprincipal companions
u_hat.  This module marches solutions toward endpoints, decides principal
vs nonprincipal by window convergence tests, builds the companion by
reduction of order, and normalizes so that W(u_hat, u) = 1 holds exactly.

The march (`march_windows`) is one odecore.rk_solve with RK45 per window,
storing true values.  Every window after the first starts with the step
the controller proposed at the end of the window before, so only the
first runs scipy's initial-step rule.  The march stops at the first step
where max(|u|, |u^[1]|) reaches e^LOGSCALE_MAX, far inside floating-point
range.  It also serves the endpoint probes in `classify`.
The reduction tail T' = -1/(p w^2) (`_tail_ode`) runs on the same
integrator as the pair (T, 0).  A basis's trust interval, where
W(u_hat, u) is well conditioned, is computed on first read: only the
basis report and shooting from an LC end at infinity need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    EvaluationOutsideSupport,
    IntegralClassificationInconclusive,
    OscillatoryAtLambda0,
    SpecFileError,
)
from .functions import MemoizedQuasiFn, QuasiFn
from .odecore import RK45, ScaledSolution, _plain, rk_solve
from .problem import endpoint_regular, uniform_grid
from .quadrature import geometric_points, improper_integral

LOGSCALE_MAX = 300.0
TAIL_RTOL = 1e-12
TAIL_ATOL = 1e-40  # per unit of 1 + |reduction integral|
TRUST_CAP = 1e7
TRUST_POINTS = 201


def march_windows(spec, lam, init, pts, tol):
    """March from pts[0] through the window points pts[1:].

    Each window is one rk_solve, whose first step is the one the controller
    proposed at the end of the window before (`StepTable.h_next`): a
    window edge does not restart the controller.  After each window it
    yields (trajectory, table, zeros, stopped): the ScaledSolution so far,
    the window's StepTable, the sign changes of u in the window, counted
    by rk_solve over its accepted steps (None for complex lam), and
    whether the march stopped in it.  It stops at the first accepted step
    where max(|u|, |u^[1]|) reaches e^LOGSCALE_MAX (the trajectory is then
    astronomically large and certainly nonprincipal).
    """
    steps = spec.coeffs.steps(RK45)(_plain(lam))
    count = not isinstance(lam, complex)
    cap = math.exp(LOGSCALE_MAX)
    scaled = ScaledSolution(lam)
    x, y, h = pts[0], init, None
    for x1 in pts[1:]:
        x, y, table, *n = rk_solve(RK45, steps, x, y, x1, tol, tol * 1e-3,
                                   cap=cap, zeros=count, first_step=h)
        h = table.h_next
        scaled.add_segment(table)
        stopped = max(abs(y[0]), abs(y[1])) >= cap
        yield scaled, table, n[0] if count else None, stopped
        if stopped:
            return


def oscillation_refuted(zeros):
    """Whether u changed sign in each of the last 4 windows marched, from
    the windows' zero counts in march order: oscillation at the end."""
    return len(zeros) >= 4 and all(c > 0 for c in zeros[-4:])


def _classical_start(spec, endpoint):
    """Whether a march can start at the endpoint itself: it is regular, p > 0
    and q, r are finite there.  Not so for p = sqrt(x) or q = x**-0.5 at 0,
    where no stage can be evaluated: there the march approaches the end."""
    if not endpoint_regular(spec, endpoint):
        return False
    end = spec.interval.end(endpoint)
    try:
        p, q, r = (e.scalar(end) for e in (spec.p, spec.q, spec.r))
    except SpecFileError:
        return False
    return p > 0.0 and math.isfinite(q) and math.isfinite(r)


def rescaled_march(spec, lam, anchor, init, target, tol=1e-11):
    """March from anchor toward target (possibly a singular endpoint).

    The path is split into geometric windows approaching an endpoint where
    a march cannot start (`_classical_start`; one window otherwise) and
    marched by `march_windows`, which returns the ScaledSolution.
    """
    a, b = spec.interval.endpoints()
    if target in (a, b) and not _classical_start(
            spec, "a" if target == a else "b"):
        pts = geometric_points(anchor, target)
    else:
        pts = [anchor, target]
    if max(abs(init[0]), abs(init[1])) == 0.0:
        raise ValueError("zero initial state")
    scaled = ScaledSolution(lam)  # what a march without windows returns
    for scaled, _, _, _ in march_windows(spec, lam, init, pts, tol):
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

    def tau(self, x):
        return self.c * self.fn.tau(x)


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
    so `pair` computes each point once (see MemoizedQuasiFn).  It reads w
    through w's own memoized `pair`, which u_hat = c w shares, so u and
    u_hat at one point look w up once.

    The support ends, toward the endpoint, where |T| falls below `t_floor`,
    the tail solve's absolute tolerance over its relative one: beyond that
    edge the absolute tolerance dominates and T has lost its relative
    accuracy, so it is outside the support rather than read as a value.
    """

    def __init__(self, spec, w, c0, tail, scale, t_floor):
        self.spec = spec
        self.w = w
        self._tail = tail  # StepTable of (T, 0), from the far edge back
        self.scale = scale
        self.t_floor = t_floor
        self.x_min = min(tail.t[0], tail.t[-1])
        self.x_max = max(tail.t[0], tail.t[-1])
        self._memo = {}  # x -> pair(x)
        # Far edge: 80 bisection steps from c0 keep where |T| >= t_floor.
        x_in, x_out = c0, tail.t[0]
        if abs(self.T(x_out)) < t_floor:
            for _ in range(80):
                mid = 0.5 * (x_in + x_out)
                if abs(self.T(mid)) >= t_floor:
                    x_in = mid
                else:
                    x_out = mid
            if tail.t[0] > c0:
                self.x_max = x_in
            else:
                self.x_min = x_in

    def T(self, x):
        if not (self.x_min <= x <= self.x_max):
            raise EvaluationOutsideSupport(
                f"x={x} outside [{self.x_min}, {self.x_max}]"
            )
        return float(self._tail.at(x)[0])

    def _pair(self, x):
        wu, wu1 = self.w.pair(x)
        T = self.T(x)
        u1 = wu1 * T - 1.0 / wu if wu != 0.0 else wu1 * T
        return wu * T * self.scale, u1 * self.scale

    def tau(self, x):
        """(tau u)(x) = lambda0 u(x): w T solves tau u = lambda0 u."""
        return self.spec.lambda0 * self(x)


@dataclass
class SolutionBasis:
    endpoint: str                 # "a" or "b"
    u: object                     # principal
    u_hat: object                 # nonprincipal, W(u_hat, u) = 1
    lambda0: float
    nonvanish_bound: float        # c0, past the last zero found
    endpoint_value: float = 0.0
    regular: bool = False
    principal_integral: object = None
    diagnostics: dict = field(default_factory=dict)
    # bvalues.gbv's memo: id(g) -> (g, values).
    _gbv_memo: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    # forms' s-maps of the limit-circle sides: cut -> SMap.
    _s_maps: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @property
    def coverage(self):
        """(lo, hi) where u and u_hat are both defined: between their
        support edges."""
        u, u_hat = self.u, self.u_hat
        return max(u.x_min, u_hat.x_min), min(u.x_max, u_hat.x_max)

    @cached_property
    def trust_interval(self):
        """Where W(u_hat, u) is well conditioned (`_trust_interval` over
        the coverage, around nonvanish_bound); computed on first read.
        It bounds only the Wronskian products (TRUST_CAP), not the error of
        the values: on Legendre at its outer edge, 3.6e-12 from the end,
        u_hat errs by 2.2e-8 relative, though the basis is built at tol
        1e-11."""
        return _trust_interval(self.u, self.u_hat, self.nonvanish_bound,
                               *self.coverage)


def _find_last_zero(w, segments, x_from, x_to):
    """Zero of the real trajectory w closest to x_to on [x_from, x_to], or
    None.  `segments` are w's tables of the march windows that counted
    zeros.  The first sign change of w at their step points, walking from
    x_to back toward x_from, brackets it; 80 bisection steps locate it."""
    d = x_to - x_from
    xs = sorted({t for table in segments for t in table.t
                 if (t - x_from) * d >= 0.0 and (t - x_to) * d < 0.0},
                reverse=d > 0.0)
    if not xs:
        return None
    hi, v_hi = x_to, w.log_pair(x_to)[0]
    for lo in xs:
        v_lo = w.log_pair(lo)[0]
        if v_lo == 0.0:
            return lo
        if v_lo * v_hi < 0.0:
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                vm = w.log_pair(mid)[0]
                if vm == 0.0:
                    break
                if v_lo * vm < 0.0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
        hi, v_hi = lo, v_lo
    return None


def _trust_interval(u, u_hat, c0, lo, hi):
    """Largest interval of a TRUST_POINTS grid on [lo, hi] around c0 where
    the Wronskian products of the pair stay below TRUST_CAP (so
    W(u_hat, u) = 1 is verifiable to ~TRUST_CAP * eps).  Both family members
    grow toward the interior, so far from the endpoint the products
    overwhelm the floating-point cancellation."""
    xs = uniform_grid(lo, hi, TRUST_POINTS)

    def ok(x):
        try:
            uu, uu1 = u.pair(x)
            hu, hu1 = u_hat.pair(x)
        except EvaluationOutsideSupport:
            return False
        vals = (abs(hu * uu1), abs(hu1 * uu))
        return all(math.isfinite(v) and v <= TRUST_CAP for v in vals)

    i0 = min(range(TRUST_POINTS), key=lambda i: abs(xs[i] - c0))
    if not ok(xs[i0]):
        return (float(xs[i0]), float(xs[i0]))
    i_lo = i0
    while i_lo > 0 and ok(xs[i_lo - 1]):
        i_lo -= 1
    i_hi = i0
    while i_hi < TRUST_POINTS - 1 and ok(xs[i_hi + 1]):
        i_hi += 1
    return (float(xs[i_lo]), float(xs[i_hi]))


def _principal_integrand(spec, w):
    p = spec.p.scalar

    def f(x):
        wu = w.log_pair(x)[0]
        return 1.0 / (p(x) * wu * wu)
    return f


def _tail_ode(spec, w, x_far, tail0, x_to, atol):
    """StepTable of T(x) with T' = -1/(p w^2), anchored at the far tail
    value, solved at rtol TAIL_RTOL and absolute tolerance `atol`.

    Integrating away from the endpoint keeps T accurate relative to its own
    (possibly astronomically small) local size; an absolute tail error would
    be amplified by the dominant w factor of the reduction product and
    destroy the Wronskian cancellation far out.  The table is of the pair
    (T, 0), whose second component stays zero.  The integrand's x is
    clamped into w's support: a stage at t + h can round one ulp past
    x_to, the edge of w's march.
    """
    f = _principal_integrand(spec, w)
    lo, hi = w.x_min, w.x_max
    return rk_solve(RK45, lambda x, y: (-f(min(max(x, lo), hi)), 0.0),
                    x_far, (tail0, 0.0), x_to, TAIL_RTOL, atol)[2]


def construct_basis(spec, endpoint, tol=1e-11):
    """Principal/nonprincipal pair at lambda0 near one endpoint.

    Regular endpoints where a march can start (`_classical_start`) get the
    classical basis anchored at the endpoint itself (u vanishing there,
    u_hat = 1 there), which makes generalized boundary values coincide
    with classical ones.  Other endpoints use a marched solution w, whose
    window zero counts refute nonoscillation (`oscillation_refuted`) and
    lead the search for its last zero, a window convergence test on
    1/(p w^2), and reduction of order for the missing family member;
    normalization W(u_hat, u) = 1 holds exactly.
    """
    a, b = spec.interval.endpoints()
    end = a if endpoint == "a" else b
    interior = spec.interval.interior_point()
    lam0 = spec.lambda0

    if math.isfinite(end):
        anchor = interior + 0.5 * (end - interior)
    else:
        anchor = interior + (1.0 if endpoint == "b" else -1.0)
    other = b if endpoint == "a" else a
    if math.isfinite(other):
        back_to = other + 0.1 * (interior - other)
    else:
        back_to = interior - 6.0 * (1.0 if endpoint == "b" else -1.0)

    if _classical_start(spec, endpoint):
        return _regular_basis(spec, endpoint, end, back_to, tol)

    # Any other endpoint: march a real solution toward it.
    counts, zeroed = [], []  # zeros per window; tables of windows with any
    pts = geometric_points(anchor, end)
    for w, table, zeros, _ in march_windows(spec, lam0, (1.0, 0.0), pts,
                                            tol):
        counts.append(zeros)
        if oscillation_refuted(counts):
            raise OscillatoryAtLambda0(
                f"lambda0={lam0} is oscillatory at endpoint {endpoint}"
            )
        if zeros:
            zeroed.append(table)
    cutoff = w.x_max if endpoint == "b" else w.x_min

    last_zero = _find_last_zero(w, zeroed, anchor,
                                cutoff - 1e-3 * (cutoff - anchor))
    if last_zero is None:
        c0 = anchor
    else:
        c0 = last_zero + 0.05 * (cutoff - last_zero)

    # Extend w back into the interior for patching and forms.
    w_back = rescaled_march(spec, lam0, anchor, w.log_pair(anchor), back_to,
                            tol=tol)
    for table in w_back.segments:
        w.add_segment(table)

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
        u_hat = rescaled_march(spec, lam0, c0, (0.0, -1.0), end, tol=tol)
        uh_back = rescaled_march(spec, lam0, c0, (0.0, -1.0), back_to,
                                 tol=tol)
        for table in uh_back.segments:
            u_hat.add_segment(table)
    else:
        # w is dominant; the principal companion is w(x) T(x) with T the
        # tail of the reduction integral.  u_hat = -w(c0) S w makes
        # W(u_hat, u) = 1 exact for u = w T / (w(c0) S).  T comes from a
        # backward ODE started at the far edge of the window sweep
        # (`res.reach`); at an infinite endpoint the leftover beyond that
        # edge is below the decayed window contributions and is safely
        # dropped (an underestimate only shrinks the product, never
        # inflates it).
        if math.isfinite(end):
            tail0 = res.value - res.partial_sums[-1]
            if tail0 * math.copysign(1.0, res.value) < 0.0:
                tail0 = 0.0
        else:
            tail0 = 0.0
        atol = TAIL_ATOL * (1.0 + abs(res.value))
        tail = _tail_ode(spec, w, res.reach, tail0, back_to, atol)
        S = float(tail.at(c0)[0])
        w_c0 = w.pair(c0)[0]
        u = ReductionSolution(spec, w, c0, tail, scale=1.0 / (w_c0 * S),
                              t_floor=atol / TAIL_RTOL)
        u_hat = ScalarMultiple(w, -w_c0 * S)

    return SolutionBasis(
        endpoint=endpoint, u=u, u_hat=u_hat, lambda0=lam0,
        nonvanish_bound=c0, endpoint_value=end, regular=False,
        principal_integral=res,
        diagnostics={"marched_kind": kind, "last_zero": last_zero},
    )


def _regular_basis(spec, endpoint, end, back_to, tol):
    """Classical basis at a regular endpoint.

    u has (u, u^[1]) = (0, 1) at the endpoint (principal: it vanishes
    there), u_hat has (1, 0).  Then W(u_hat, u) = 1 identically.
    """
    [(u, _, n_u, _)] = march_windows(spec, spec.lambda0, (0.0, 1.0),
                                     [end, back_to], tol)
    [(u_hat, _, n_h, _)] = march_windows(spec, spec.lambda0, (1.0, 0.0),
                                         [end, back_to], tol)
    interior = spec.interval.interior_point()
    bound_guess = interior + 0.5 * (end - interior)
    lz_u = _find_last_zero(u, u.segments if n_u else [], back_to,
                           bound_guess)
    lz_h = _find_last_zero(u_hat, u_hat.segments if n_h else [], back_to,
                           bound_guess)
    zs = [z for z in (lz_u, lz_h) if z is not None]
    if zs:
        z = max(zs, key=lambda t: -abs(end - t))
        c0 = z + 0.05 * (end - z)
    else:
        c0 = bound_guess
    return SolutionBasis(
        endpoint=endpoint, u=u, u_hat=u_hat, lambda0=spec.lambda0,
        nonvanish_bound=c0, endpoint_value=end, regular=True,
        principal_integral=None,
        diagnostics={"marched_kind": "classical", "last_zero": zs or None},
    )
