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
complex lambda).  Its tableaux (`tableaux`) and its step-size controller
are those of scipy.integrate's RK45 and DOP853 (Hairer, Norsett & Wanner,
Solving ODEs I, II.4-II.6), so it takes scipy's steps without scipy's
per-step array overhead; scipy itself is not imported.  Each method's
whole solve, from the initial-step rule through the controller, the
stages, the error norm and the table rows to the cap and the zero count,
is one straight-line Python function in locals that one generator writes
from the tableau.  It is compiled on first use in one of three forms: for
a CoefficientSet, once per method, with the emitted p, q and r inlined in
every stage (`CoefficientSet.steps`); for any other right-hand side, such
as the reduction tail, with a call to rhs(x, (u, v)) in each stage; and,
for the Weyl probe of `classify`, the inline RK45 solve that also sums the
integral of r |u|^2 with the method's weights and stops where the sum
reaches a bound (`l2_solve`).  That sum is an appended component
I' = r |u|^2 (Hairer, Norsett & Wanner, Solving ODEs I, II.1) kept out of
the error norm, so its steps and states are those of the plain solve.
`rk_solve` checks its arguments and runs it: no Python loop per step
runs outside the generated code.  The weighted sums keep the tableau's
order, so the arithmetic is that of a loop over the tableau, bit for bit.
`brentq`, a port of scipy's Brent loop that the tests pin against it, is
the root finder of shooting.

Shooting (`end_state`) uses DOP853 (Dormand-Prince
8(5,3)), whose eighth order suits the tolerances of 1e-10 to 1e-11 it asks
for; it reads only end states and zero counts, so a DOP853 solve writes no
table.  The march in `solutions`, its reduction-of-order tail, the pair
(T, 0), and `integrate_tau` use RK45, whose plain and call forms write a
StepTable of every step: RK45's quartic interpolant, evaluated without
calling scipy, is the one dense output of the package.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from . import tableaux
from .errors import (
    EvaluationOutsideSupport,
    NonFiniteState,
    StepSizeUnderflow,
)
from .expressions import _fused
from .functions import MemoizedQuasiFn


def _rk45_2(rows, i, x):
    t_old, h, y, a0, a1, a2, a3, z, b0, b1, b2, b3 = rows[i:i + 12]
    s = (x - t_old) / h
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    return (h * ((a0 * s + a2 * s3) + (a1 * s2 + a3 * s4)) + y,
            h * ((b0 * s + b2 * s3) + (b1 * s2 + b3 * s4)) + z)


# scipy's step-size controller (Hairer, Norsett & Wanner, Solving ODEs I,
# II.4): the factors of scipy.integrate's RungeKutta solvers.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
EPS = sys.float_info.epsilon
_SQRT2 = 2 ** 0.5


def _stalled(t, h_abs, u, v, err, un, vn):
    """The error of a solve that can take no step from x = t: an overflow
    (NonFiniteState) when the state (u, v) there, or the last attempt's
    error norm `err` or state (un, vn), is not finite, else a step-size
    stall (StepSizeUnderflow)."""
    if not all(map(cmath.isfinite, (u, v, err, un, vn))):
        return NonFiniteState(
            f"state overflowed past x={t}, where |u| = {abs(u)}: the last "
            f"step attempted gave error norm {err} and u = {un}")
    return StepSizeUnderflow(
        f"integrator stalled at x={t}: required step size {h_abs} is NaN "
        f"or less than spacing between numbers")


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


def _block(head, body):
    return [head, *["    " + line for line in body]]


def _norm(name, a, b):
    """Source lines of `name` = numpy's 2-norm of the pair (a, b).  For
    complex entries (`cplx`) it sums the squared real parts, then the
    squared imaginary parts, which on real entries gives the bits of the
    real sum of squares."""
    return [f"na = {a}", f"nb = {b}",
            "if cplx:",
            f"    {name} = sqrt((na.real * na.real + nb.real * nb.real)",
            f"        + (na.imag * na.imag + nb.imag * nb.imag))",
            "else:",
            f"    {name} = sqrt(na * na + nb * nb)"]


def _larger(a, b):
    """Source of max(a, b) for numbers a and b: b only when b > a."""
    return f"({b} if {b} > {a} else {a})"


# The forms of a solve: the factory's argument, how a stage evaluates the
# system at (x, (yu, yv)) into (ku{s}, kv{s}), by calling rhs or with a
# CoefficientSet's p, q and r inlined, in the arithmetic of
# [u1 / p, (q - lam r) u], and whether the solve sums r |u|^2.  The L^2
# form's stages also weigh w{s} = r(x) |yu|^2, re^2 + im^2 of a complex yu
# (a float's imaginary part is 0.0, so a real yu gives yu * yu).
_CALL = ("rhs", "ku{s}, kv{s} = rhs(x, (yu, yv))", False)
_INLINE = ("lam",
           "ku{s} = yv / ({{p}})\nkv{s} = (({{q}}) - lam * ({{r}})) * yu",
           False)
_L2 = ("lam",
       "rs = ({{r}})\nku{s} = yv / ({{p}})\n"
       "kv{s} = (({{q}}) - lam * rs) * yu\n"
       "w{s} = rs * (yu.real * yu.real + yu.imag * yu.imag)",
       True)


class Steps(NamedTuple):
    """A method's compiled solve for one right-hand side (see
    `_RungeKutta`)."""
    solve: object


class _RungeKutta:
    """An explicit Runge-Kutta pair for the state (u, u^[1]), with the
    tableau of the `tableaux` class of the same name.

    Its whole solve is straight-line Python source generated from the
    tableau and compiled on first use, in one of three forms: `steps(rhs)`
    calls rhs at each stage, `inline(coeffs)` writes a CoefficientSet's p,
    q and r into each stage, and `inline(coeffs, l2=True)` does that and
    sums the integral of r |u|^2.  The solve,

        solve(t, t_bound, u, v, rtol, atol, cap, zeros, h_abs)
            -> (t, u, v, h_next, count, ts, rows),

    is `rk_solve` from its checked arguments on: the initial-step rule
    when h_abs is None, the controller, the stages, the error norm, the
    table rows, the cap and the zero count, all in locals.  Only RK45's
    plain and call forms write a table (step points `ts` and `rows`); the
    L^2 form and every DOP853 form return (t, u, v, h_next, count).
    Whether the numbers are complex is read once, from the start state
    and its derivative.  The L^2 form's solve takes a `bound` after h_abs
    and returns the sum last (see `l2_solve`).
    """

    def __init__(self, cls):
        self.n_stages = cls.n_stages
        self.order = cls.error_estimator_order
        self.exponent = -1 / (cls.error_estimator_order + 1)
        self._tableau = cls
        self._call = None

    def _source(self, form):
        """Source of `factory(arg)`, which returns the solve."""
        arg, evaluate, l2 = form
        solve = _block("def solve(t, t_bound, u, v, rtol, atol, cap, zeros, "
                       f"h_abs{', bound' if l2 else ''}):",
                       self._solve(evaluate, l2))
        return "\n".join(_block(f"def factory({arg}):",
                                [*solve, "return solve"])) + "\n"

    def _solve(self, evaluate, l2):
        """The body of the solve: scipy's solver loop with its stages,
        error norm and, unless `l2`, the method's table row in line.  The
        stall's report reads the last attempt, so `err`, `un` and `vn` start
        finite.  With `l2`, each accepted step adds |h| times the B-weighted
        sum of its stages' w to `total`, and the solve stops at the first
        accepted step where `total` reaches `bound`, as at the cap.  Nothing
        else reads `total`, so steps and states are those of the plain
        form."""
        cls, n = self._tableau, self.n_stages
        row = [] if l2 else self._row()
        start = [
            "x, yu, yv = t, u, v",
            *_guarded(evaluate.format(s=0).splitlines()),
            "cplx = (isinstance(u, complex) or isinstance(v, complex)",
            "        or isinstance(ku0, complex) or isinstance(kv0, complex))",
            # With `zeros`: the sign of the last nonzero u, 0.0 before one.
            "count = 0",
            "sign = 0.0",
            "if zeros and u:",
            "    sign = copysign(1.0, u)",
            "direction = 1.0 if t_bound > t else -1.0",
            *_block("if h_abs is None:", self._initial_step(evaluate)),
            "toward = direction * inf",
            "err = un = vn = 0.0",
            *(["ts = [t]", "rows = []"] if row else []),
            *(["total = 0.0"] if l2 else [])]
        stages = [line for s in range(1, n)
                  for line in _stage(s, cls.C[s], cls.A[s], evaluate)]
        stages += ["x = t + h",
                   f"yu = un = u + h * ({_sum(cls.B, 'ku')})",
                   f"yv = vn = v + h * ({_sum(cls.B, 'kv')})",
                   *evaluate.format(s=n).splitlines()]
        factor = f"{SAFETY!r} * err ** {self.exponent!r}"
        attempt = [
            # A NaN step (from a NaN state or derivative) fails this too.
            "if not h_abs >= min_step:",
            "    raise _stalled(t, h_abs, u, v, err, un, vn)",
            "t_new = t + h_abs * direction",
            "if direction * (t_new - t_bound) > 0:",
            "    t_new = t_bound",
            "h = t_new - t",
            "h_abs = abs(h)",
            *_guarded(stages),
            "a = abs(u)",
            "b = abs(un)",
            f"su = atol + {_larger('a', 'b')} * rtol",
            "a = abs(v)",
            "b = abs(vn)",
            f"sv = atol + {_larger('a', 'b')} * rtol",
            *self._error(),
            *_block("if err < 1:", [
                "if err == 0:",
                f"    factor = {MAX_FACTOR!r}",
                "else:",
                f"    factor = {factor}",
                f"    if not factor < {MAX_FACTOR!r}:",
                f"        factor = {MAX_FACTOR!r}",
                "if rejected and not factor < 1.0:",
                "    factor = 1.0",
                "h_abs *= factor",
                "break"]),
            f"factor = {factor}",
            f"h_abs *= {_larger(repr(MIN_FACTOR), 'factor')}",
            "rejected = True"]
        accepted = [
            "min_step = 10 * abs(nextafter(t, toward) - t)",
            "if min_step > h_abs:",
            "    h_abs = min_step",
            "rejected = False",
            *_block("while True:", attempt),
            *([f"total += abs(h) * ({_sum(cls.B, 'w')})"] if l2 else []),
            *row,
            *_block("if zeros and un * sign <= 0.0:", [
                # u changed sign, reached zero, or leaves a zero start.
                "if un * sign < 0.0:",
                "    count += 1",
                "if un:",
                "    sign = copysign(1.0, un)"]),
            "t = t_new",
            "u = un",
            "v = vn",
            "if direction * (t - t_bound) >= 0:",
            "    break",
            "if cap is not None:",
            "    a = abs(u)",
            "    b = abs(v)",
            f"    if {_larger('a', 'b')} >= cap:",
            "        break",
            *(["if total >= bound:", "    break"] if l2 else []),
            f"ku0 = ku{n}",
            f"kv0 = kv{n}",
            *([f"w0 = w{n}"] if l2 else [])]
        return [*start, *_block("while True:", accepted),
                "return t, u, v, h_abs, count"
                + (", ts, rows" if row else "") + (", total" if l2 else "")]

    def _initial_step(self, evaluate):
        """scipy's select_initial_step, its probe a stage at t + h0."""
        return [
            "length = abs(t_bound - t)",
            "su = atol + abs(u) * rtol",
            "sv = atol + abs(v) * rtol",
            *_norm("d0", "u / su", "v / sv"),
            f"d0 = d0 / {_SQRT2!r}",
            *_norm("d1", "ku0 / su", "kv0 / sv"),
            f"d1 = d1 / {_SQRT2!r}",
            "h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1",
            "h0 = min(h0, length)",
            "x = t + h0 * direction",
            "yu = u + h0 * direction * ku0",
            "yv = v + h0 * direction * kv0",
            *_guarded(evaluate.format(s=1).splitlines()),
            *_norm("d2", "(ku1 - ku0) / su", "(kv1 - kv0) / sv"),
            f"d2 = d2 / {_SQRT2!r} / h0",
            "if d1 <= 1e-15 and d2 <= 1e-15:",
            "    h1 = max(1e-6, h0 * 1e-3)",
            "else:",
            f"    h1 = (0.01 / max(d1, d2)) ** {1 / (self.order + 1)!r}",
            "h_abs = min(100 * h0, h1, length)"]

    def _compile(self, source, kind="", **coeffs):
        return _fused(source, "factory",
                      dict(_stalled=_stalled, copysign=math.copysign,
                           nextafter=math.nextafter, inf=math.inf),
                      kind=self._tableau.__name__ + kind, **coeffs)

    def steps(self, rhs):
        """Steps of a plain rhs: each stage calls rhs(x, (u, v))."""
        if self._call is None:
            self._call = self._compile(self._source(_CALL))
        return Steps(self._call(rhs))

    def inline(self, coeffs, l2=False):
        """lam -> Steps of a CoefficientSet's quasi-derivative system, with
        p, q and r inlined in every stage, and with `l2` the solve that
        also sums r |u|^2.  A domain error in a stage raises the
        SpecFileError naming the coefficient at fault."""
        factory = self._compile(self._source(_L2 if l2 else _INLINE),
                                " l2" if l2 else "",
                                p=coeffs.p, q=coeffs.q, r=coeffs.r)
        return lambda lam: Steps(factory(lam))


class _RK45(_RungeKutta):
    def _error(self):
        e = self._tableau.E
        return [*_norm("err", f"({_sum(e, 'ku')}) * h / su",
                       f"({_sum(e, 'kv')}) * h / sv"),
                f"err = err / {_SQRT2!r}"]

    def _row(self):
        """The step point and the row, with Q = K^T P."""
        p = list(zip(*self._tableau.P))
        return ["ts.append(t_new)",
                f"rows.append([t, h, u, "
                f"{', '.join(_sum(c, 'ku') for c in p)}, "
                f"v, {', '.join(_sum(c, 'kv') for c in p)}])"]


class _DOP853(_RungeKutta):
    def _error(self):
        cls = self._tableau
        return [*_norm("n5", f"({_sum(cls.E5, 'ku')}) / su",
                       f"({_sum(cls.E5, 'kv')}) / sv"),
                *_norm("n3", f"({_sum(cls.E3, 'ku')}) / su",
                       f"({_sum(cls.E3, 'kv')}) / sv"),
                "e5, e3 = n5 * n5, n3 * n3",
                "if e5 == 0 and e3 == 0:",
                "    err = 0.0",
                "else:",
                "    err = h_abs * e5 / sqrt((e5 + 0.01 * e3) * 2)"]

    def _row(self):
        """No table: shooting reads end states and zero counts only."""
        return []


RK45 = _RK45(tableaux.RK45)
DOP853 = _DOP853(tableaux.DOP853)

BRENTQ_MAXITER = 100
BRENTQ_RTOL = 4 * EPS


def _root_value(f, x):
    """f(x) as a float; a NaN raises scipy.optimize.brentq's ValueError."""
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return fx


def brentq(f, a, b, xtol):
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by
    Brent's method (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4).

    This is scipy.optimize.brentq's C loop step for step, so roots agree
    bit for bit, and it raises scipy's errors: ValueError when xtol <= 0,
    when f(a) and f(b) have the same sign or when f returns NaN,
    RuntimeError when BRENTQ_MAXITER iterations do not converge to
    xtol + BRENTQ_RTOL |x|.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _root_value(f, xpre), _root_value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENTQ_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        # Bisect unless interpolation (secant, or inverse quadratic through
        # the third point) takes a short enough step.
        stry = math.nan
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass  # C's inf or nan: never a short step
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _root_value(f, xcur)
    raise RuntimeError(
        f"Failed to converge after {BRENTQ_MAXITER} iterations.")


def _plain(c):
    return complex(c) if isinstance(c, complex) else float(c)


def _finite(t, u, v):
    """Refuse the state (u, v) at x = t, where a solve ended, unless it is
    finite."""
    if not (cmath.isfinite(u) and cmath.isfinite(v)):
        raise NonFiniteState(
            f"state overflowed: not finite at x={t}, where the solve ended")


def rk_solve(method, rhs, anchor, init, target, rtol, atol, cap=None,
             zeros=False, first_step=None):
    """Integrate the pair (u, u^[1]) = init from anchor toward target.

    method is RK45 or DOP853.  rhs(x, (u, u1)) returns the derivative pair,
    and every stage of the method's generated solve calls it; or rhs is the
    method's Steps for a CoefficientSet at one lambda,
    `coeffs.steps(method)(lam)`, whose stages have p, q and r inlined.
    rk_solve checks the arguments and runs the Steps' solve (see
    `_RungeKutta`), which holds the whole integration.  The arithmetic is
    that of scipy.integrate's solver of that name with the same rtol and
    atol, in Python numbers: the initial-step rule, min_step, the SAFETY,
    MIN and MAX factors, the error norms, and a factor capped at 1 after a
    rejection.  A given `first_step` replaces the initial-step rule and its
    RHS call, as scipy's first_step does; a first step past target is cut
    there, as every step is.  The sums run in a fixed order where numpy's
    BLAS may fuse or reorder, so states agree with scipy's to rounding, not
    bit for bit.  A solve of zero length raises ValueError.  With `cap`,
    integration stops at the first accepted step whose state has
    max(|u|, |u^[1]|) >= cap.  The start state and its derivative decide
    whether the solve runs in real or complex numbers: an rhs whose values
    turn complex later fails with TypeError.  A state that overflows
    raises NonFiniteState: each state adds to the one before it, so a
    non-finite state stays non-finite, and checking the end state checks
    them all; a solve that can take no step past a non-finite attempt
    raises it too, and one that stalls otherwise raises StepSizeUnderflow.

    Returns (x, (u, u^[1]), table): where integration stopped, target or
    the step point where the cap stopped it, the state there, and for RK45
    the StepTable of the steps (None for DOP853, which writes no table).
    The table's `h_next` is the step the controller proposed after the
    last step, the `first_step` of a solve that goes on from where this
    one stopped.  With `zeros`, for a real state, a fourth item counts the
    sign changes of u over the accepted steps: the zeros of u passed, a
    zero at the anchor not among them.  Counting reads the accepted states
    only, so every step, state and row is the same without it.
    """
    steps = rhs if isinstance(rhs, Steps) else method.steps(rhs)
    t, t_bound = float(anchor), float(target)
    if t == t_bound:
        raise ValueError("target must differ from anchor")
    u, v = (_plain(c) for c in init)
    t, u, v, h_next, count, *table = steps.solve(
        t, t_bound, u, v, max(rtol, 100 * EPS), atol, cap, zeros, first_step)
    _finite(t, u, v)
    out = t, (u, v), StepTable(*table, h_next) if table else None
    return out + (count,) if zeros else out


def l2_solve(spec, lam, anchor, init, target, tol, cap, bound,
             first_step=None):
    """One RK45 solve of the quasi-derivative system that also sums the
    integral of r |u|^2 over its accepted steps.

    The steps, states and h_next are those of rk_solve with RK45 on
    `spec.coeffs.steps(RK45)(lam)`, rtol tol, atol tol * 1e-3, `cap` and
    `first_step`: each stage s also weighs w_s = r(x_s) |u_s|^2, and each
    accepted step adds |h| sum_s b_s w_s, the method's own quadrature of
    the appended component I' = r |u|^2, which the error norm leaves out.
    The solve also stops at the first accepted step where the sum reaches
    `bound`, which must be finite: a sum that overflows to inf would meet
    an infinite bound and stop the solve.  A non-finite state raises
    NonFiniteState, as in rk_solve.  Returns (x, (u, u^[1]), h_next, sum):
    where it stopped, the state there, the step the controller proposed
    next, and the sum.
    """
    t, t_bound = float(anchor), float(target)
    if t == t_bound:
        raise ValueError("target must differ from anchor")
    if not math.isfinite(bound):
        raise ValueError(f"bound must be finite, got {bound}")
    u, v = (_plain(c) for c in init)
    steps = spec.coeffs.steps(RK45, l2=True)(_plain(lam))
    t, u, v, h_next, _, total = steps.solve(
        t, t_bound, u, v, max(tol, 100 * EPS), tol * 1e-3, cap, False,
        first_step, bound)
    _finite(t, u, v)
    return t, (u, v), h_next, total


class StepTable:
    """One integrator segment of a pair, as a flat table of its steps.

    StepTable(ts, rows) takes the step points in integration order and
    one row per RK45 step, 12 numbers: t_old and h, then for each of the
    two components its value at t_old and the 4 coefficients of its
    quartic interpolant, the row of Q = K^T P.  `rk_solve` writes the
    rows.  A lookup bisects the step points and evaluates the step in
    Python floats, or complex numbers for complex lambda, with the
    operations of scipy's RkDenseOutput (Hairer, Norsett & Wanner, Solving
    ODEs I, II.6).  At a step point it takes the step scipy's OdeSolution
    takes, the earlier one in integration order; beyond the ends it
    extends the end step.  `h_next`, None unless given, is the step the
    controller proposed after the last one.
    """

    __slots__ = ("_ts", "_right", "_rows", "_last", "h_next")

    def __init__(self, ts, rows, h_next=None):
        # Rows run in ascending x, so a bisection index is a row index.
        self._right = ts[-1] < ts[0]
        if self._right:
            ts = ts[::-1]
            rows = rows[::-1]
        self._ts = ts
        self._rows = [v for row in rows for v in row]
        self._last = len(rows) - 1
        self.h_next = h_next

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
        return _rk45_2(self._rows, 12 * j, x)


class ScaledSolution(MemoizedQuasiFn):
    """Dense-output trajectory of the quasi-derivative system.

    A trajectory is one or more integrator segments, each a StepTable of
    the solution's true values.  The march toward a singular endpoint
    stops before they can leave floating-point range (see
    `solutions.march_windows`).

    A trajectory grows only at its ends: each segment after the first
    starts or ends where the trajectory ends and lies outside it, as a
    march window or a back-march from the anchor does.  The segments are
    kept sorted by left edge, so a lookup is a bisection; where x lies on
    a shared edge the segment inserted first is used.  A trajectory
    without segments covers nothing: every evaluation raises
    EvaluationOutsideSupport.

    `pair` computes each point once (see MemoizedQuasiFn): a miss goes
    through `log_pair`, the uncached lookup.  A segment added at an end
    answers no point that was answered before, so the memo stays valid.
    """

    x_min = math.inf
    x_max = -math.inf

    def __init__(self, lam):
        self.lam = lam
        self._segments = []  # tables, in insertion order
        # Left edges in ascending order, with the insertion index of each
        # segment.
        self._los = []
        self._order = []
        self._memo = {}  # x -> pair(x)

    def add_segment(self, table):
        """Add a segment, a StepTable, at an end of the trajectory; any
        other segment raises ValueError."""
        lo, hi = table._ts[0], table._ts[-1]
        if not self._segments or lo == self.x_max:
            k = len(self._los)
            self.x_max = hi
        elif hi == self.x_min:
            k = 0
        else:
            raise ValueError(
                f"segment [{lo}, {hi}] does not extend the trajectory "
                f"[{self.x_min}, {self.x_max}] at an end")
        if k == 0:
            self.x_min = lo
        self._los.insert(k, lo)
        self._order.insert(k, len(self._segments))
        self._segments.append(table)

    def _locate(self, x):
        if not (self.x_min <= x <= self.x_max):
            raise EvaluationOutsideSupport(
                f"x={x} outside [{self.x_min}, {self.x_max}]"
            )
        # Segment i is the last to start at or before x; on a shared edge
        # x also ends segment i - 1.
        i = bisect_right(self._los, x) - 1
        if i and x == self._los[i] and self._order[i - 1] < self._order[i]:
            i -= 1
        return self._segments[self._order[i]]

    def log_pair(self, x):
        """(u(x), u^[1](x)), looked up without the memo."""
        return self._locate(x).at(x)

    def _pair(self, x):
        return self.log_pair(x)

    def tau(self, x):
        """(tau u)(x) = lam u(x): the trajectory solves tau u = lam u."""
        return self.lam * self(x)

    @property
    def segments(self):
        """The StepTables in insertion order."""
        return list(self._segments)


def integrate_tau(spec, lam, anchor, init, target, tol=1e-10):
    """Solve tau u = lambda u from `anchor` to `target`.

    init is the pair (u, u^[1]) at the anchor.  Direction follows
    sign(target - anchor).  Returns a ScaledSolution of one RK45 window,
    the StepTable a window of `solutions.march_windows` stores, with rtol
    tol and atol tol * 1e-3 and no growth cap.
    """
    traj = ScaledSolution(lam)
    traj.add_segment(rk_solve(RK45, spec.coeffs.steps(RK45)(_plain(lam)),
                              anchor, init, target, tol, tol * 1e-3)[2])
    return traj


def end_state(spec, lam, anchor, init, target, tol=1e-10):
    """((u, u^[1]) at `target`, zeros) of the solution of tau u = lambda u
    with (u, u^[1]) = init at `anchor`: one DOP853 solve with rtol tol and
    atol tol * 1e-3, which writes no table.  zeros counts the sign changes
    of u over the accepted steps, the zeros of u in (anchor, target] it
    passed; it is None when lam or init is complex.  Shooting and
    `classify.count_zeros` use it.  An overflow raises NonFiniteState."""
    lam, init = _plain(lam), tuple(map(_plain, init))
    count = not any(isinstance(c, complex) for c in (lam, *init))
    _, y, _, *zeros = rk_solve(DOP853, spec.coeffs.steps(DOP853)(lam),
                               anchor, init, target, tol, tol * 1e-3,
                               zeros=count)
    return y, (zeros[0] if count else None)


def wronskian(f, g, x):
    """Modified Wronskian W(f, g)(x) = f g^[1] - f^[1] g at x."""
    fu, fu1 = f.pair(x)
    gu, gu1 = g.pair(x)
    return fu * gu1 - fu1 * gu


def tau_apply(g, x_grid):
    """Apply tau to g on a grid: the list of g.tau at each grid point, a
    single point being a grid of one."""
    try:
        xs = [float(x) for x in x_grid]
    except TypeError:
        xs = [float(x_grid)]
    return [g.tau(x) for x in xs]
