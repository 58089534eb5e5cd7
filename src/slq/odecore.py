"""ODE core: trajectories of the quasi-derivative system, Wronskians, tau.

The second-order expression tau u = (1/r)[-(p u')' + q u] = lambda u is
integrated as the first-order system

    u'  = u1 / p
    u1' = (q - lambda r) u

in the variables (u, u^[1]) with u^[1] = p u' the first quasi-derivative.
Working in u^[1] instead of u' keeps the system well behaved where p
degenerates.

`rk_solve` is the one ODE integrator of the package.  It integrates a pair
with an explicit Runge-Kutta pair in Python floats (complex numbers for
complex lambda), calling the compiled CoefficientSet.rhs directly.  Its
tableaux are read from scipy.integrate's RK45 and DOP853 classes and its
step-size controller is theirs (Hairer, Norsett & Wanner, Solving ODEs I,
II.4-II.6), so it takes scipy's steps without scipy's per-step array
overhead.  `integrate_tau` and `end_state` use DOP853 (Dormand-Prince
8(5,3)), whose eighth order suits the tolerances of 1e-10 to 1e-11 that
shooting asks for; the renormalizing march in `solutions` and its
reduction-of-order tail, the pair (T, 0), use RK45.  Each integrator
segment is a StepTable, one kernel per method, evaluated without calling
scipy.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left, bisect_right

import numpy as np
import scipy.integrate
from scipy.optimize import brentq

from .errors import (
    EvaluationOutsideSupport,
    GridTooCoarse,
    NonFiniteState,
    StepSizeUnderflow,
)
from .functions import AnalyticFn, QuasiFn


def _rk45_2(rows, i, x):
    t_old, h, y, a0, a1, a2, a3, z, b0, b1, b2, b3 = rows[i:i + 12]
    s = (x - t_old) / h
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    return (h * ((a0 * s + a2 * s3) + (a1 * s2 + a3 * s4)) + y,
            h * ((b0 * s + b2 * s3) + (b1 * s2 + b3 * s4)) + z)


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


# Step kernels of the pair by coefficients per component.
_KERNELS = {4: _rk45_2, 7: _dop853_2}


def _constant_step(t, ys, n_coef):
    """Row of a zero-length solve: zero coefficients keep the value."""
    row = [t, 1.0]
    for y in ys:
        row.append(y)
        row += (0.0,) * n_coef
    return row


# scipy's step-size controller (Hairer, Norsett & Wanner, Solving ODEs I,
# II.4): the factors of scipy.integrate's RungeKutta solvers.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
EPS = sys.float_info.epsilon
_SQRT2 = 2 ** 0.5


def _terms(weights):
    """(index, weight) of the nonzero weights.  A zero term adds nothing to
    a sum, so skipping it leaves every value unchanged."""
    return [(j, float(w)) for j, w in enumerate(weights) if w]


def _dot(terms, k):
    acc = 0.0
    for j, w in terms:
        acc += k[j] * w
    return acc


def _norm(a, b):
    """numpy's 2-norm of the pair; for complex entries it sums the squared
    real parts, then the squared imaginary parts."""
    if isinstance(a, complex) or isinstance(b, complex):
        return math.sqrt((a.real * a.real + b.real * b.real)
                         + (a.imag * a.imag + b.imag * b.imag))
    return math.sqrt(a * a + b * b)


def _stages(a_rows, c_values, first):
    return [(float(c), _terms(a[:s]))
            for s, (a, c) in enumerate(zip(a_rows, c_values), start=first)]


class _RungeKutta:
    """An explicit Runge-Kutta pair for the state (u, u^[1]), with the
    tableau of scipy's solver class of the same name."""

    def __init__(self, cls):
        self.n_stages = cls.n_stages
        self.stages = _stages(cls.A[1:], cls.C[1:], 1)
        self.b = _terms(cls.B)
        self.order = cls.error_estimator_order
        self.exponent = -1 / (cls.error_estimator_order + 1)

    def step(self, rhs, t, h, u, v, fu, fv):
        """scipy's rk_step: the new state and the stages, the derivative at
        the new state last."""
        ku, kv = [fu], [fv]
        for c, a in self.stages:
            du = dv = 0.0
            for j, w in a:
                du += ku[j] * w
                dv += kv[j] * w
            fu, fv = rhs(t + c * h, (u + du * h, v + dv * h))
            ku.append(fu)
            kv.append(fv)
        un = u + h * _dot(self.b, ku)
        vn = v + h * _dot(self.b, kv)
        fu, fv = rhs(t + h, (un, vn))
        ku.append(fu)
        kv.append(fv)
        return un, vn, ku, kv


class _RK45(_RungeKutta):
    n_coef = 4

    def __init__(self, cls):
        super().__init__(cls)
        self.e = _terms(cls.E)
        self.p = [_terms(col) for col in cls.P.T]

    def error_norm(self, ku, kv, h, su, sv):
        return _norm(_dot(self.e, ku) * h / su,
                     _dot(self.e, kv) * h / sv) / _SQRT2

    def row(self, rhs, t, h, u, v, un, vn, ku, kv):
        """The step's table row, with Q = K^T P."""
        return [t, h, u, *[_dot(p, ku) for p in self.p],
                v, *[_dot(p, kv) for p in self.p]]


class _DOP853(_RungeKutta):
    n_coef = 7

    def __init__(self, cls):
        super().__init__(cls)
        self.e5 = _terms(cls.E5)
        self.e3 = _terms(cls.E3)
        self.extra = _stages(cls.A_EXTRA, cls.C_EXTRA, cls.n_stages + 1)
        self.d = [_terms(row) for row in cls.D]

    def error_norm(self, ku, kv, h, su, sv):
        n5 = _norm(_dot(self.e5, ku) / su, _dot(self.e5, kv) / sv)
        n3 = _norm(_dot(self.e3, ku) / su, _dot(self.e3, kv) / sv)
        e5, e3 = n5 * n5, n3 * n3
        if e5 == 0 and e3 == 0:
            return 0.0
        return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 2)

    def row(self, rhs, t, h, u, v, un, vn, ku, kv):
        """The step's table row: F from the three extra stages of the
        interpolant."""
        for c, a in self.extra:
            fu, fv = rhs(t + c * h,
                         (u + _dot(a, ku) * h, v + _dot(a, kv) * h))
            ku.append(fu)
            kv.append(fv)
        out = [t, h]
        for y, yn, k in ((u, un, ku), (v, vn, kv)):
            dy = yn - y
            out += (y, dy, h * k[0] - dy,
                    2 * dy - h * (k[self.n_stages] + k[0]),
                    *[h * _dot(d, k) for d in self.d])
        return out


RK45 = _RK45(scipy.integrate.RK45)
DOP853 = _DOP853(scipy.integrate.DOP853)


def _plain(c):
    return complex(c) if isinstance(c, complex) else float(c)


def rk_solve(method, rhs, anchor, init, target, rtol, atol, dense=False,
             cap=None):
    """Integrate the pair (u, u^[1]) = init from anchor toward target.

    method is RK45 or DOP853; rhs(x, (u, u1)) returns the derivative pair,
    a CoefficientSet.rhs(lam) for the quasi-derivative system.
    The arithmetic is that of scipy.integrate's solver of that name with
    the same rtol and atol, in Python numbers: the initial-step rule,
    min_step, the SAFETY, MIN and MAX factors, the error norms, and a
    factor capped at 1 after a rejection.  The sums run in a fixed order
    where numpy's BLAS may fuse or reorder, so states agree with scipy's
    to rounding, not bit for bit.  With `cap`, integration stops where
    max(|u|, |u^[1]|) first reaches cap, located as scipy locates a
    terminal event: brentq on the step's interpolant, xtol = rtol = 4 eps.

    Returns (x, (u, u^[1]), table): where integration stopped, the state
    there, and the StepTable of the steps when `dense` (else None).  A
    step cut by the cap keeps its whole row, and the table ends at the
    event point.  Each state adds to the one before it, so a non-finite
    state stays non-finite: checking the returned state checks them all.
    """
    t, t_bound = float(anchor), float(target)
    u, v = (_plain(c) for c in init)
    rtol = max(rtol, 100 * EPS)
    if t == t_bound:
        # scipy's zero-length solve: one constant step.
        table = StepTable([t, t], [_constant_step(t, (u, v), method.n_coef)],
                          method.n_coef)
        return t, (u, v), table if dense else None
    direction = 1.0 if t_bound > t else -1.0
    fu, fv = rhs(t, (u, v))

    # Initial step (select_initial_step).
    length = abs(t_bound - t)
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0 = _norm(u / su, v / sv) / _SQRT2
    d1 = _norm(fu / su, fv / sv) / _SQRT2
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    gu, gv = rhs(t + h0 * direction, (u + h0 * direction * fu,
                                      v + h0 * direction * fv))
    d2 = _norm((gu - fu) / su, (gv - fv) / sv) / _SQRT2 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (method.order + 1))
    h_abs = min(100 * h0, h1, length)

    if cap is not None:
        log_cap = math.log(cap)

        def level(u, v):
            m = max(abs(u), abs(v))
            return (math.log(m) if m > 0 else -math.inf) - log_cap

        g = level(u, v)
    ts, rows = [t], []
    while True:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(
                    f"integrator stalled at x={t}: required step size is "
                    "less than spacing between numbers"
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            un, vn, ku, kv = method.step(rhs, t, h, u, v, fu, fv)
            err = method.error_norm(
                ku, kv, h, atol + max(abs(u), abs(un)) * rtol,
                atol + max(abs(v), abs(vn)) * rtol)
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(
                    MAX_FACTOR, SAFETY * err ** method.exponent)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** method.exponent)
            rejected = True
        if dense or cap is not None:
            row = method.row(rhs, t, h, u, v, un, vn, ku, kv)
        stop = direction * (t_new - t_bound) >= 0
        if cap is not None:
            g_old, g = g, level(un, vn)
            if g_old <= 0 <= g or g <= 0 <= g_old:
                at = _KERNELS[method.n_coef]
                t_new = brentq(lambda x: level(*at(row, 0, x)), t, t_new,
                               xtol=4 * EPS, rtol=4 * EPS)
                un, vn = at(row, 0, t_new)
                stop = True
        if dense:
            rows.append(row)
        ts.append(t_new)
        t, u, v = t_new, un, vn
        if stop:
            break
        fu, fv = ku[method.n_stages], kv[method.n_stages]
    table = StepTable(ts, rows, method.n_coef) if dense else None
    return t, (u, v), table


class StepTable:
    """One integrator segment of a pair, as a flat table of its steps.

    StepTable(ts, rows, n_coef) takes the step points in integration order
    and one row per step: t_old and h, then for each of the two components
    its value at t_old and the interpolant's n_coef coefficients (RK45, 4:
    the row of Q = K^T P; DOP853, 7: the column of F).  `rk_solve` writes
    the rows.  A lookup bisects the step points and evaluates the step in
    Python floats, or complex numbers for complex lambda, with the
    operations of scipy's RkDenseOutput and Dop853DenseOutput (Hairer,
    Norsett & Wanner, Solving ODEs I, II.6).  At a step point it takes the
    step scipy's OdeSolution takes, the earlier one in integration order;
    beyond the ends it extends the end step.
    """

    __slots__ = ("_ts", "_right", "_rows", "_width", "_last", "_kernel")

    def __init__(self, ts, rows, n_coef):
        # Rows run in ascending x, so a bisection index is a row index.
        self._right = ts[-1] < ts[0]
        if self._right:
            ts = ts[::-1]
            rows = rows[::-1]
        self._ts = ts
        self._rows = [v for row in rows for v in row]
        self._width = len(rows[0])
        self._last = len(rows) - 1
        self._kernel = _KERNELS[n_coef]

    @property
    def t(self):
        """Step points in integration order."""
        return self._ts[::-1] if self._right else list(self._ts)

    def at(self, x):
        """The pair at x."""
        if self._right:
            j = bisect_right(self._ts, x) - 1
        else:
            j = bisect_left(self._ts, x) - 1
        if j < 0:
            j = 0
        elif j > self._last:
            j = self._last
        return self._kernel(self._rows, j * self._width, x)


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

    def add_segment(self, table, logscale):
        """Append a segment, a StepTable; its interior must not overlap
        another segment's."""
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
    """One DOP853 solve of the quasi-derivative system, checked: the state
    at target and, when dense, the StepTable."""
    if target == anchor:
        raise ValueError("target must differ from anchor")
    _, y, table = rk_solve(DOP853, spec.coeffs.rhs(_plain(lam)), anchor,
                           init, target, tol, tol * 1e-3, dense)
    if not all(map(cmath.isfinite, y)):
        raise NonFiniteState("trajectory overflowed; rescale and retry")
    return y, table


def integrate_tau(spec, lam, anchor, init, target, tol=1e-10):
    """Solve tau u = lambda u from `anchor` to `target`.

    init is the pair (u, u^[1]) at the anchor.  Direction follows
    sign(target - anchor).  Returns a one-segment ScaledSolution with log
    scale 0.
    """
    traj = ScaledSolution(lam)
    traj.add_segment(_solve(spec, lam, anchor, init, target, tol, True)[1],
                     0.0)
    return traj


def end_state(spec, lam, anchor, init, target, tol=1e-10):
    """(u, u^[1]) at `target` of the solution integrate_tau would return.

    The same steps, without the table that only a trajectory needs (DOP853
    spends three extra RHS calls per step on its interpolant).
    """
    return _solve(spec, lam, anchor, init, target, tol, False)[0]


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
