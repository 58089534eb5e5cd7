"""ODE core: trajectories of the quasi-derivative system, Wronskians, tau.

The second-order expression tau u = (1/r)[-(p u')' + q u] = lambda u is
integrated as the first-order system

    u'  = u1 / p
    u1' = (q - lambda r) u

in the variables (u, u^[1]) with u^[1] = p u' the first quasi-derivative.
Working in u^[1] instead of u' keeps the system well behaved where p
degenerates.  `integrate_tau` and `end_state` use scipy's DOP853
(Dormand-Prince 8(5,3)), whose eighth order suits the tolerances of 1e-10
to 1e-11 that shooting asks for.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    EvaluationOutsideSupport,
    GridTooCoarse,
    NonFiniteState,
    StepSizeUnderflow,
)
from .functions import AnalyticFn, QuasiFn


class ScaledSolution(QuasiFn):
    """Dense-output trajectory of the quasi-derivative system with a
    log-scale ledger.

    A trajectory is one or more integrator segments, each carrying a log
    scale L: the true solution on the segment is exp(L) times the stored
    unit-size values.  Marching toward a singular endpoint renormalizes
    whenever the working state leaves [1/cap, cap], so the stored numbers
    stay well conditioned while the ledger tracks growth that can exceed
    floating-point range.

    Segments may meet only at their edges.  Their edges are kept sorted by
    left edge, so a lookup is a bisection; where x lies on a shared edge
    the segment inserted first is used.  A trajectory without segments
    covers nothing: every evaluation raises EvaluationOutsideSupport.
    """

    x_min = math.inf
    x_max = -math.inf

    def __init__(self, lam):
        self.lam = lam
        self._segments = []  # (sol, logscale), in insertion order
        # Edges in (lo, hi) order with the insertion index of each segment.
        # Disjoint interiors make the right edges nondecreasing too.
        self._los = []
        self._his = []
        self._order = []

    def add_segment(self, sol, logscale):
        """Append a dense-output segment; its interior must not overlap
        another segment's."""
        t0, t1 = float(sol.t[0]), float(sol.t[-1])
        lo, hi = min(t0, t1), max(t0, t1)
        los, his = self._los, self._his
        # Entries from bisect_right(his, lo) on end past lo; entries before
        # bisect_left(los, hi) start before hi.  Any entry in both overlaps.
        if bisect_right(his, lo) < bisect_left(los, hi):
            raise ValueError(
                f"segment [{lo}, {hi}] overlaps the interior of another"
            )
        k = bisect_right(his, hi, bisect_left(los, lo), bisect_right(los, lo))
        los.insert(k, lo)
        his.insert(k, hi)
        self._order.insert(k, len(self._segments))
        self._segments.append((sol, logscale))
        self.x_min, self.x_max = los[0], his[-1]

    def _locate(self, x):
        if not (self.x_min <= x <= self.x_max):
            raise EvaluationOutsideSupport(
                f"x={x} outside [{self.x_min}, {self.x_max}]"
            )
        # Entries j..i-1 are the segments whose closed range holds x.
        i = bisect_right(self._los, x)
        j = bisect_left(self._his, x, 0, i)
        if i - j == 1:
            return self._segments[self._order[j]]
        if j < i:
            return self._segments[min(self._order[j:i])]
        # x in a floating-point gap between segments (marched legs always
        # meet exactly): the nearest segment, the first inserted on a tie.
        _, k = min((min(abs(x - lo), abs(x - hi)), k)
                   for lo, hi, k in zip(self._los, self._his, self._order))
        return self._segments[k]

    def log_pair(self, x):
        """(u_unit, u1_unit, L): true values are unit * exp(L)."""
        sol, L = self._locate(x)
        u, u1 = sol.sol(x)
        return u, u1, L

    def pair(self, x):
        """(u(x), u^[1](x))."""
        u, u1, L = self.log_pair(x)
        s = math.exp(L)
        return u * s, u1 * s

    @property
    def segments(self):
        """(sol, logscale) pairs in insertion order."""
        return list(self._segments)

    @property
    def breakpoints(self):
        """Integrator step points of all segments, ascending."""
        pts = []
        for k in self._order:
            t = self._segments[k][0].t
            for x in (t if t[0] <= t[-1] else t[::-1]):
                if not pts or x > pts[-1]:
                    pts.append(float(x))
        return pts


def _solve(spec, lam, anchor, init, target, tol, dense):
    """One DOP853 solve of the quasi-derivative system, checked."""
    if target == anchor:
        raise ValueError("target must differ from anchor")
    is_complex = any(isinstance(v, complex) for v in (lam, *init))
    y0 = np.array(init, dtype=complex if is_complex else float)
    sol = solve_ivp(
        spec.coeffs.rhs(lam), (anchor, target), y0, method="DOP853",
        rtol=tol, atol=tol * 1e-3, dense_output=dense,
    )
    if not sol.success:
        raise StepSizeUnderflow(
            f"integrator stalled at x={sol.t[-1]}: {sol.message}"
        )
    if not np.all(np.isfinite(np.ascontiguousarray(sol.y).view(float))):
        raise NonFiniteState("trajectory overflowed; rescale and retry")
    return sol


def integrate_tau(spec, lam, anchor, init, target, tol=1e-10):
    """Solve tau u = lambda u from `anchor` to `target`.

    init is the pair (u, u^[1]) at the anchor.  Direction follows
    sign(target - anchor).  Returns a one-segment ScaledSolution with log
    scale 0.
    """
    traj = ScaledSolution(lam)
    traj.add_segment(_solve(spec, lam, anchor, init, target, tol, True), 0.0)
    return traj


def end_state(spec, lam, anchor, init, target, tol=1e-10):
    """(u, u^[1]) at `target` of the solution integrate_tau would return.

    The same steps, without the dense interpolant that only a trajectory
    needs (DOP853 spends three extra RHS calls per step on it).
    """
    sol = _solve(spec, lam, anchor, init, target, tol, False)
    return sol.y[0, -1], sol.y[1, -1]


def wronskian(f, g, x):
    """Modified Wronskian W(f, g)(x) = f g^[1] - f^[1] g at x."""
    fu, fu1 = f.pair(x)
    gu, gu1 = g.pair(x)
    return fu * gu1 - fu1 * gu


def tau_apply(spec, g, x_grid, tol=1e-7):
    """Apply tau to g on a grid.

    A g with its own `tau` method (a blend of lambda0 solutions) supplies
    tau exactly.  An AnalyticFn takes the exact path (p u')' = p' u' + p u''
    with the exact coefficient derivative.  Otherwise (g^[1])' comes from
    4th-order central differences on g.qd with a Richardson cross-check.
    """
    xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if hasattr(g, "tau"):
        return np.array([g.tau(x) for x in xs])
    p, q, r = spec.p, spec.q, spec.r
    out = np.empty(len(xs), dtype=complex)
    exact = isinstance(g, AnalyticFn)
    dp = p.deriv() if exact else None
    for i, x in enumerate(xs):
        gv = g(x)
        if exact:
            d_qd = dp(x) * g.d1(x) + p(x) * g.d2(x)
        else:
            d_qd = _qd_derivative(g, x, xs, tol)
        out[i] = (-d_qd + q(x) * gv) / r(x)
    if np.all(np.abs(out.imag) == 0.0):
        out = out.real
    return out


def _qd_derivative(g, x, xs, tol):
    qd = g.qd
    span = xs[-1] - xs[0] if len(xs) > 1 else 1.0
    h = max(1e-4 * max(abs(x), 1.0), 1e-3 * span / max(len(xs), 1))

    def stencil(h):
        return (-qd(x + 2 * h) + 8 * qd(x + h)
                - 8 * qd(x - h) + qd(x - 2 * h)) / (12 * h)

    coarse = stencil(h)
    fine = stencil(0.5 * h)
    # 4th-order stencil: Richardson combination cancels the h^4 term.
    best = (16.0 * fine - coarse) / 15.0
    if abs(fine - coarse) > tol * (1.0 + abs(best)) * 100.0:
        raise GridTooCoarse(
            f"(g^[1])' stencil mismatch at x={x}: {abs(fine - coarse)}"
        )
    return best
