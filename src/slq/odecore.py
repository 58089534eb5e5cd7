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
complex lambda).  Its tableaux are read from scipy.integrate's RK45 and
DOP853 classes and its step-size controller is theirs (Hairer, Norsett &
Wanner, Solving ODEs I, II.4-II.6), so it takes scipy's steps without
scipy's per-step array overhead.  Each method's step, with its error norm
and its table row, is straight-line Python that one generator writes from
the tableau, compiled on first use in one of two forms: for a
CoefficientSet, once per method, with the emitted p, q and r inlined in
every stage (`CoefficientSet.steps`); for any other right-hand side, such
as the reduction tail, with a call to rhs(x, (u, v)) in each stage.  The
weighted sums keep the tableau's order, so the arithmetic is that of a
loop over the tableau, bit for bit.

`integrate_tau` and `end_state` use DOP853 (Dormand-Prince 8(5,3)), whose
eighth order suits the tolerances of 1e-10 to 1e-11 that shooting asks
for; the renormalizing march in `solutions` and its reduction-of-order
tail, the pair (T, 0), use RK45.  Each integrator segment is a StepTable,
one kernel per method, evaluated without calling scipy.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left, bisect_right
from typing import NamedTuple

import numpy as np
import scipy.integrate
from scipy.optimize import brentq

from .errors import (
    EvaluationOutsideSupport,
    GridTooCoarse,
    NonFiniteState,
    StepSizeUnderflow,
)
from .expressions import _fused
from .functions import AnalyticFn, MemoizedQuasiFn


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


def _norm(a, b):
    """numpy's 2-norm of the pair; for complex entries it sums the squared
    real parts, then the squared imaginary parts."""
    if isinstance(a, complex) or isinstance(b, complex):
        return math.sqrt((a.real * a.real + b.real * b.real)
                         + (a.imag * a.imag + b.imag * b.imag))
    return math.sqrt(a * a + b * b)


def _sum(weights, k):
    """Source of the weighted sum of the stages k0, k1, ... in tableau
    order, (0.0 + k0*w0) + k1*w1 + ..., with each weight as its exact repr.
    A zero weight adds nothing, so its term is left out."""
    return "0.0" + "".join(f" + {k}{j} * {float(w)!r}"
                           for j, w in enumerate(weights) if w)


def _stage(s, c, a, evaluate):
    """Source lines of stage s at t + c*h, its state weighted by row a."""
    return [f"x = t + {float(c)!r} * h",
            f"yu = u + ({_sum(a[:s], 'ku')}) * h",
            f"yv = v + ({_sum(a[:s], 'kv')}) * h",
            *evaluate.format(s=s).splitlines()]


def _guarded(lines):
    """The stage lines inside a try whose domain error or division by zero
    goes through `_undefined(x)`, x the stage point of the failing stage.
    In the call form no expression is compiled in, so the error propagates
    as raised."""
    return ["try:", *["    " + line for line in lines],
            "except (ValueError, ZeroDivisionError):", "    _undefined(x)",
            "    raise"]


def _function(head, body):
    return [head, *["    " + line for line in body]]


def _names(k, n):
    return ", ".join(f"{k}{j}" for j in range(n))


# The two forms of a step: the factory's argument, and how a stage
# evaluates the system at (x, (yu, yv)) into (ku{s}, kv{s}), by calling rhs
# or with a CoefficientSet's p, q and r inlined, in the arithmetic of
# expressions.quasi_rhs.
_CALL = ("rhs", "ku{s}, kv{s} = rhs(x, (yu, yv))")
_INLINE = ("lam",
           "ku{s} = yv / ({{p}})\nkv{s} = (({{q}}) - lam * ({{r}})) * yu")


class Steps(NamedTuple):
    """A right-hand side rhs(x, (u, u1)) with a method's compiled step and
    table row for it (see `_RungeKutta`)."""
    rhs: object
    step: object
    row: object


class _RungeKutta:
    """An explicit Runge-Kutta pair for the state (u, u^[1]), with the
    tableau of scipy's solver class of the same name.

    Its step and table row are straight-line Python source generated from
    the tableau and compiled on first use, in one of two forms: `steps(rhs)`
    calls rhs at each stage, `inline(coeffs)` writes a CoefficientSet's p,
    q and r into each stage.  The step,

        step(t, h, u, v, ku0, kv0, rtol, atol) -> (un, vn, err, ku, kv),

    is scipy's rk_step and error norm: the new state, the error norm, and
    the stages, the derivative at the new state last.  The row,
    row(t, h, u, v, un, vn, ku, kv), is the step's StepTable row.
    """

    def __init__(self, cls):
        self.n_stages = cls.n_stages
        self.order = cls.error_estimator_order
        self.exponent = -1 / (cls.error_estimator_order + 1)
        self._tableau = cls
        self._call = None

    def _source(self, form):
        """Source of `factory(arg)`, which returns the step and the row."""
        arg, evaluate = form
        cls, n = self._tableau, self.n_stages
        stages = [line for s in range(1, n)
                  for line in _stage(s, cls.C[s], cls.A[s], evaluate)]
        stages += ["x = t + h",
                   f"yu = un = u + h * ({_sum(cls.B, 'ku')})",
                   f"yv = vn = v + h * ({_sum(cls.B, 'kv')})",
                   *evaluate.format(s=n).splitlines()]
        step = _function("def step(t, h, u, v, ku0, kv0, rtol, atol):", [
            *_guarded(stages),
            "su = atol + max(abs(u), abs(un)) * rtol",
            "sv = atol + max(abs(v), abs(vn)) * rtol",
            *self._error(),
            f"return un, vn, err, ({_names('ku', n + 1)}), "
            f"({_names('kv', n + 1)})"])
        row = _function("def row(t, h, u, v, un, vn, ku, kv):", [
            f"{_names('ku', n + 1)} = ku",
            f"{_names('kv', n + 1)} = kv",
            *self._row(evaluate)])
        return "\n".join(_function(f"def factory({arg}):",
                                   [*step, *row, "return step, row"])) + "\n"

    def _compile(self, source, **coeffs):
        return _fused(source, "factory", dict(_norm=_norm, _SQRT2=_SQRT2),
                      kind=self._tableau.__name__, **coeffs)

    def steps(self, rhs):
        """Steps of a plain rhs: each stage calls rhs(x, (u, v))."""
        if self._call is None:
            self._call = self._compile(self._source(_CALL))
        return Steps(rhs, *self._call(rhs))

    def inline(self, coeffs):
        """lam -> Steps of a CoefficientSet's quasi-derivative system, with
        p, q and r inlined in every stage.  A domain error in a stage
        raises the SpecFileError naming the coefficient at fault."""
        factory = self._compile(self._source(_INLINE),
                                p=coeffs.p, q=coeffs.q, r=coeffs.r)
        rhs = coeffs.rhs
        return lambda lam: Steps(rhs(lam), *factory(lam))


class _RK45(_RungeKutta):
    n_coef = 4

    def _error(self):
        e = self._tableau.E
        return [f"err = _norm(({_sum(e, 'ku')}) * h / su, "
                f"({_sum(e, 'kv')}) * h / sv) / _SQRT2"]

    def _row(self, evaluate):
        """The row, with Q = K^T P."""
        p = self._tableau.P.T
        return [f"return [t, h, u, {', '.join(_sum(c, 'ku') for c in p)}, "
                f"v, {', '.join(_sum(c, 'kv') for c in p)}]"]


class _DOP853(_RungeKutta):
    n_coef = 7

    def _error(self):
        cls = self._tableau
        return [f"n5 = _norm(({_sum(cls.E5, 'ku')}) / su, "
                f"({_sum(cls.E5, 'kv')}) / sv)",
                f"n3 = _norm(({_sum(cls.E3, 'ku')}) / su, "
                f"({_sum(cls.E3, 'kv')}) / sv)",
                "e5, e3 = n5 * n5, n3 * n3",
                "if e5 == 0 and e3 == 0:",
                "    err = 0.0",
                "else:",
                "    err = abs(h) * e5 / sqrt((e5 + 0.01 * e3) * 2)"]

    def _row(self, evaluate):
        """The row: F from the three extra stages of the interpolant."""
        cls, n = self._tableau, self.n_stages
        extra = [line for s, (c, a) in enumerate(
                     zip(cls.C_EXTRA, cls.A_EXTRA), start=n + 1)
                 for line in _stage(s, c, a, evaluate)]
        out = ["t", "h"]
        for y, k in (("u", "ku"), ("v", "kv")):
            out += [y, f"d{y}", f"h * {k}0 - d{y}",
                    f"2 * d{y} - h * ({k}{n} + {k}0)",
                    *[f"h * ({_sum(d, k)})" for d in cls.D]]
        return [*_guarded(extra),
                "du = un - u",
                "dv = vn - v",
                f"return [{', '.join(out)}]"]


RK45 = _RK45(scipy.integrate.RK45)
DOP853 = _DOP853(scipy.integrate.DOP853)


def _plain(c):
    return complex(c) if isinstance(c, complex) else float(c)


def rk_solve(method, rhs, anchor, init, target, rtol, atol, dense=False,
             cap=None, zeros=False):
    """Integrate the pair (u, u^[1]) = init from anchor toward target.

    method is RK45 or DOP853.  rhs(x, (u, u1)) returns the derivative pair,
    and every stage of the method's generated step calls it; or rhs is the
    method's Steps for a CoefficientSet at one lambda,
    `coeffs.steps(method)(lam)`, whose stages have p, q and r inlined.
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
    With `zeros`, for a real state, a fourth item counts the sign changes
    of u over the accepted steps: the zeros of u passed, a zero at the
    anchor not among them.  Counting reads the accepted states only, so
    every step, state and row is the same without it.
    """
    steps = rhs if isinstance(rhs, Steps) else method.steps(rhs)
    rhs, step = steps.rhs, steps.step
    t, t_bound = float(anchor), float(target)
    u, v = (_plain(c) for c in init)
    rtol = max(rtol, 100 * EPS)
    # With `zeros`: the sign of the last nonzero u, 0.0 before one.
    count, sign = 0, 0.0
    if zeros and u:
        sign = math.copysign(1.0, u)
    if t == t_bound:
        # scipy's zero-length solve: one constant step.
        table = StepTable([t, t], [_constant_step(t, (u, v), method.n_coef)],
                          method.n_coef)
        out = t, (u, v), table if dense else None
        return out + (count,) if zeros else out
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
            un, vn, err, ku, kv = step(t, h, u, v, fu, fv, rtol, atol)
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
            row = steps.row(t, h, u, v, un, vn, ku, kv)
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
        if zeros and un * sign <= 0.0:
            # u changed sign, reached zero, or leaves a zero start.
            if un * sign < 0.0:
                count += 1
            if un:
                sign = math.copysign(1.0, un)
        ts.append(t_new)
        t, u, v = t_new, un, vn
        if stop:
            break
        fu, fv = ku[method.n_stages], kv[method.n_stages]
    table = StepTable(ts, rows, method.n_coef) if dense else None
    out = t, (u, v), table
    return out + (count,) if zeros else out


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


class ScaledSolution(MemoizedQuasiFn):
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

    `pair` computes each point once (see MemoizedQuasiFn): a miss goes
    through `log_pair`, and `add_segment` clears the memo, since a new
    segment can answer a point that no segment or a farther one answered.
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
        self._memo = {}  # x -> pair(x)

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
        self._memo.clear()

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

    def _pair(self, x):
        """(u(x), u^[1](x))."""
        u, u1, L = self.log_pair(x)
        s = math.exp(L)
        return u * s, u1 * s

    @property
    def segments(self):
        """(table, logscale) pairs in insertion order."""
        return list(self._segments)


def _solve(spec, lam, anchor, init, target, tol, dense=False, zeros=False):
    """One DOP853 solve of the quasi-derivative system, checked: the state
    at target, the StepTable when dense (else None), and with `zeros` the
    count of sign changes of u (see rk_solve)."""
    if target == anchor:
        raise ValueError("target must differ from anchor")
    out = rk_solve(DOP853, spec.coeffs.steps(DOP853)(_plain(lam)), anchor,
                   init, target, tol, tol * 1e-3, dense, zeros=zeros)
    if not all(map(cmath.isfinite, out[1])):
        raise NonFiniteState("trajectory overflowed; rescale and retry")
    return out[1:]


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
    return _solve(spec, lam, anchor, init, target, tol)[0]


def end_state_zeros(spec, lam, anchor, init, target, tol=1e-10):
    """(end_state, zeros) for real lam and init: zeros counts the sign
    changes of u over the accepted steps of the same solve, the zeros of u
    in (anchor, target] it passed.  The shooting determinant reads its
    eigenvalue index from them."""
    y, _, zeros = _solve(spec, lam, anchor, init, target, tol, zeros=True)
    return y, zeros


def wronskian(f, g, x):
    """Modified Wronskian W(f, g)(x) = f g^[1] - f^[1] g at x."""
    fu, fu1 = f.pair(x)
    gu, gu1 = g.pair(x)
    return fu * gu1 - fu1 * gu


def tau_apply(spec, g, x_grid, tol=1e-7):
    """Apply tau to g on a grid: `tau_at` at each grid point.

    The result is real unless some value has a nonzero imaginary part.
    """
    return np.array([tau_at(spec, g, x, tol)
                     for x in np.atleast_1d(np.asarray(x_grid, dtype=float))])


def tau_at(spec, g, x, tol=1e-7):
    """(tau g)(x) at one point.

    A g with its own `tau` method (a blend of lambda0 solutions) supplies
    tau exactly.  An AnalyticFn takes the exact path (p u')' = p' u' + p u''
    with the exact coefficient derivative.  Otherwise (g^[1])' comes from
    4th-order central differences on g.qd with a Richardson cross-check.
    A complex value with zero imaginary part is returned as a real number.
    """
    if hasattr(g, "tau"):
        return g.tau(x)
    p = spec.p
    gv = g(x)
    if isinstance(g, AnalyticFn):
        d_qd = p.deriv().scalar(x) * g.d1(x) + p.scalar(x) * g.d2(x)
    else:
        d_qd = _qd_derivative(g, x, tol)
    v = (-d_qd + spec.q.scalar(x) * gv) / spec.r.scalar(x)
    if isinstance(v, complex) and v.imag == 0.0:
        return v.real
    return v


def _qd_derivative(g, x, tol):
    qd = g.qd
    h = max(1e-4 * max(abs(x), 1.0), 1e-3)

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
