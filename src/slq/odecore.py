"""ODE core: trajectories of the quasi-derivative system, Wronskians, tau.

The second-order expression tau u = (1/r)[-(p u')' + q u] = lambda u is
integrated as the first-order system

    u'  = u1 / p
    u1' = (q - lambda r) u

in the variables (u, u^[1]) with u^[1] = p u' the first quasi-derivative.
Working in u^[1] instead of u' keeps the system well behaved where p
degenerates.  `integrate_tau` and `end_state` use scipy's DOP853
(Dormand-Prince 8(5,3)), whose eighth order suits the tolerances of 1e-10
to 1e-11 that shooting asks for.  A trajectory keeps each integrator
segment as a StepTable, evaluated without calling scipy.
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


def _rk45_1(rows, i, x):
    t_old, h, y, q0, q1, q2, q3 = rows[i:i + 7]
    s = (x - t_old) / h
    s2 = s * s
    s3 = s2 * s
    return (h * ((q0 * s + q2 * s3) + (q1 * s2 + q3 * (s3 * s))) + y,)


def _rk45_2(rows, i, x):
    t_old, h, y, a0, a1, a2, a3, z, b0, b1, b2, b3 = rows[i:i + 12]
    s = (x - t_old) / h
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    return (h * ((a0 * s + a2 * s3) + (a1 * s2 + a3 * s4)) + y,
            h * ((b0 * s + b2 * s3) + (b1 * s2 + b3 * s4)) + z)


def _rk45_2_complex(rows, i, x):
    # The complex gemv kernel behind scipy's np.dot(Q, p) may fuse
    # multiply-adds (OpenBLAS's does on AVX-512), which Python arithmetic
    # cannot repeat: evaluate through the same call.
    t_old, h, y, a0, a1, a2, a3, z, b0, b1, b2, b3 = rows[i:i + 12]
    s = (x - t_old) / h
    s2 = s * s
    s3 = s2 * s
    v = h * np.dot(np.array(((a0, a1, a2, a3), (b0, b1, b2, b3))),
                   np.array((s, s2, s3, s3 * s)))
    v += (y, z)
    return tuple(v.tolist())


def _dop853_2(rows, i, x):
    t_old, h, y, a0, a1, a2, a3, a4, a5, a6, \
        z, b0, b1, b2, b3, b4, b5, b6 = rows[i:i + 18]
    s = (x - t_old) / h
    c = 1 - s
    return (
        ((((((a6 * s + a5) * c + a4) * s + a3) * c + a2) * s + a1) * c + a0)
        * s + y,
        ((((((b6 * s + b5) * c + b4) * s + b3) * c + b2) * s + b1) * c + b0)
        * s + z)


# Step kernels by (coefficients per component, components, complex): the
# systems here are the quasi-derivative pair and the real one-component
# reduction tail.
_KERNELS = {(4, 1, False): _rk45_1, (4, 2, False): _rk45_2,
            (4, 2, True): _rk45_2_complex, (7, 2, False): _dop853_2,
            (7, 2, True): _dop853_2}


class StepTable:
    """One integrator segment, read into a flat table of its steps.

    scipy evaluates the continuous extension of a step through numpy on
    every call.  A table keeps the same numbers in one flat list: per step
    t_old and h, then for each component its value at t_old and the
    interpolant's coefficients (RK45: the row of Q; DOP853: the column of
    F).  A lookup bisects the step points and evaluates the step in Python
    floats, or complex numbers for complex lambda, with the operations of
    scipy's RkDenseOutput and Dop853DenseOutput in the same order (Hairer,
    Norsett & Wanner, Solving ODEs I, II.6); complex RK45 steps make
    scipy's own np.dot call instead.  At a step point it takes the
    step scipy's OdeSolution takes, the earlier one in integration order;
    beyond the ends it extends the end step.
    """

    __slots__ = ("_ts", "_right", "_rows", "_width", "_last", "_kernel")

    def __init__(self, sol):
        dense = sol.sol
        steps = list(dense.interpolants)
        ts = dense.ts.tolist()
        # Rows run in ascending x, so a bisection index is a row index.
        self._right = not dense.ascending
        if self._right:
            steps.reverse()
            ts.reverse()
        # RK45 steps carry Q, DOP853 steps F; a zero-length solve has one
        # constant step with neither.
        n_coef = 7 if any(hasattr(s, "F") for s in steps) else 4
        rows = []
        for s in steps:
            if not hasattr(s, "h"):
                # Zero coefficients keep the constant value.
                rows += (float(s.t_old), 1.0)
                for y in s.value.tolist():
                    rows.append(y)
                    rows += (0.0,) * n_coef
                continue
            rows += (float(s.t_old), float(s.h))
            coef = s.Q if n_coef == 4 else s.F.T
            for y, c in zip(s.y_old.tolist(), coef.tolist()):
                rows.append(y)
                rows += c
        self._ts = ts
        self._rows = rows
        self._width = 2 + len(sol.y) * (1 + n_coef)
        self._last = len(steps) - 1
        self._kernel = _KERNELS[n_coef, len(sol.y), np.iscomplexobj(sol.y)]

    @property
    def t(self):
        """Step points in integration order, as in the solve_ivp result."""
        return self._ts[::-1] if self._right else list(self._ts)

    def at(self, x):
        """The state at x, one entry per component."""
        if self._right:
            j = bisect_right(self._ts, x) - 1
        else:
            j = bisect_left(self._ts, x) - 1
        if j < 0:
            j = 0
        elif j > self._last:
            j = self._last
        return self._kernel(self._rows, j * self._width, x)

    # A table answers `t` and `sol(x)` as the solve_ivp result it replaces.
    sol = at


class ScaledSolution(QuasiFn):
    """Dense-output trajectory of the quasi-derivative system with a
    log-scale ledger.

    A trajectory is one or more integrator segments, each carrying a log
    scale L: the true solution on the segment is exp(L) times the stored
    unit-size values.  Marching toward a singular endpoint renormalizes
    whenever the working state leaves [1/cap, cap], so the stored numbers
    stay well conditioned while the ledger tracks growth that can exceed
    floating-point range.

    Segments are StepTables and may meet only at their edges.  Their edges
    are kept sorted by left edge, so a lookup is a bisection; where x lies
    on a shared edge the segment inserted first is used.  A trajectory
    without segments covers nothing: every evaluation raises
    EvaluationOutsideSupport.
    """

    x_min = math.inf
    x_max = -math.inf

    def __init__(self, lam):
        self.lam = lam
        self._segments = []  # (table, logscale), in insertion order
        # Edges in (lo, hi) order with the insertion index of each segment.
        # Disjoint interiors make the right edges nondecreasing too.
        self._los = []
        self._his = []
        self._order = []

    def add_segment(self, sol, logscale):
        """Append a segment, a solve_ivp result with dense output or a
        StepTable; its interior must not overlap another segment's."""
        table = sol if isinstance(sol, StepTable) else StepTable(sol)
        lo, hi = table._ts[0], table._ts[-1]
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
        self._segments.append((table, logscale))
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
        table, L = self._locate(x)
        u, u1 = table.at(x)
        return u, u1, L

    def pair(self, x):
        """(u(x), u^[1](x))."""
        u, u1, L = self.log_pair(x)
        s = math.exp(L)
        return u * s, u1 * s

    @property
    def segments(self):
        """(table, logscale) pairs in insertion order."""
        return list(self._segments)

    @property
    def breakpoints(self):
        """Integrator step points of all segments, ascending."""
        pts = []
        for k in self._order:
            for x in self._segments[k][0]._ts:
                if not pts or x > pts[-1]:
                    pts.append(x)
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
