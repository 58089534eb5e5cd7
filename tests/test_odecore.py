"""ODE core: quasi-derivative marching, Wronskians, tau application."""

import math
import re

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from scipy.integrate import solve_ivp

from slq import tableaux

from slq.errors import NonFiniteState, SpecFileError, StepSizeUnderflow
from slq.functions import QuasiFn, polynomial
from slq.odecore import (
    BRENTQ_RTOL,
    DOP853,
    EPS,
    MAX_FACTOR,
    MIN_FACTOR,
    RK45,
    SAFETY,
    brentq,
    end_state,
    integrate_tau,
    l2_solve,
    rk_solve,
    tau_apply,
    wronskian,
)
from slq.problem import (
    CoefficientSet,
    Interval,
    ProblemSpec,
    catalog,
    problem_from_dict,
    validate,
)
from slq.solutions import construct_basis, march_windows, rescaled_march


def _formula(coeffs, lam):
    """The quasi-derivative system rhs(x, (u, u1)) = [u1 / p, (q - lam r) u]
    with the coefficients' own evaluators: the reference for the stages
    that have p, q and r inlined."""
    p, q, r = coeffs.p, coeffs.q, coeffs.r
    return lambda x, y: [y[1] / p(x), (q(x) - lam * r(x)) * y[0]]


def test_integrate_tau_matches_sine(dirichlet):
    sol = integrate_tau(dirichlet, 1.0, 0.0, (0.0, 1.0), math.pi)
    for x in (0.5, 1.0, 2.0, 3.0):
        u, u1 = sol.pair(x)
        assert u == pytest.approx(math.sin(x), abs=1e-10)
        assert u1 == pytest.approx(math.cos(x), abs=1e-10)


def test_integrate_tau_complex_energy(dirichlet):
    z = 1j
    sol = integrate_tau(dirichlet, z, 0.0, (1.0, 0.0), 1.0)
    k = np.sqrt(complex(z))
    u, _ = sol.pair(1.0)
    assert u == pytest.approx(np.cos(k * 1.0), abs=1e-9)


@pytest.mark.parametrize("problem, xs", [
    ("legendre", (-0.9, -0.3, 0.2, 0.7)),
    ("bessel(0.3)", (1e-6, 0.05, 0.4, 0.9)),
    ("free_halfline", (0.3, 2.0, 10.0)),
    ("oscillator", (-3.0, 0.5, 2.5)),
])
def test_fused_rhs_equals_coefficient_evaluation(problem, xs, request):
    # Every stage of the inline solve computes the formula: the whole solve
    # through the points xs, its steps, states and table rows, is that of
    # the call form on the formula, bit for bit.
    spec = (catalog(problem) if problem == "bessel(0.3)"
            else request.getfixturevalue(problem))
    for lam, y in ((2.5, (0.7, -1.3)),
                   (2.5 + 1.0j, (0.7 - 0.2j, -1.3 + 0.4j))):
        inline = spec.coeffs.steps(RK45)(lam).solve
        call = RK45.steps(_formula(spec.coeffs, lam)).solve
        for t, t_bound in zip(xs, xs[1:]):
            args = (t, t_bound, *y, 1e-10, 1e-13, None, False, None)
            assert inline(*args) == call(*args)


@pytest.mark.parametrize("coeffs, bad", [
    (("sqrt(x)", "0", "1"), "sqrt(x)"),
    (("1", "log(x)", "1"), "log(x)"),
    (("1", "0", "sqrt(x)"), "sqrt(x)"),
])
def test_fused_rhs_domain_error_names_the_coefficient(coeffs, bad):
    # The solve's first stage, at its start -1, is outside the domain.
    solve = CoefficientSet.from_strings(*coeffs).steps(RK45)(1.0).solve
    with pytest.raises(SpecFileError, match=re.escape(repr(bad))):
        solve(-1.0, -0.5, 1.0, 1.0, 1e-8, 1e-11, None, False, 0.1)


@pytest.mark.parametrize("problem, lam, anchor, init, target", [
    ("oscillator", 3.0, -6.0, (1.0, 5.0), 0.0),
    ("oscillator", 5.5, 6.0, (1.0, -5.0), 0.0),
    ("oscillator", 1.0 + 0.5j, -4.0, (1.0, 2.0), 1.0),
    ("dirichlet", 4.0, 0.0, (0.0, 1.0), math.pi / 2),
    ("dirichlet", 9.3, math.pi, (0.0, 1.0), 1.0),
])
def test_end_state_equals_trajectory_at_target(problem, lam, anchor, init,
                                               target, request):
    # end_state is the last accepted state and the zero count of the
    # reference controller's DOP853 trajectory (`_TableauLoop`), bit for
    # bit, at the target and at two points before it; a complex lam counts
    # no zeros.
    spec = request.getfixturevalue(problem)
    rhs = _formula(spec.coeffs, lam)
    loop = _LOOPS["DOP853"][1]
    real = not isinstance(lam, complex)
    for x in (anchor + 0.3 * (target - anchor),
              anchor + 0.7 * (target - anchor), target):
        states, _, _, count = loop.solve(rhs, anchor, x, *init, 1e-10, 1e-13,
                                         None, real, None)
        assert states[-1][0] == x
        assert end_state(spec, lam, anchor, init, x) \
            == (states[-1][1:], count if real else None)


# (span, real lambda) per problem, inside the interval; the tolerances are
# those of the march (RK45) and of shooting (DOP853).
_KERNEL_CASES = {"oscillator": ((-3.0, 2.0), 2.5),
                 "dirichlet": ((0.2, 3.0), 4.0),
                 "legendre": ((-0.9, 0.95), 2.0)}
_KERNEL_METHODS = {"RK45": (RK45, 1e-11), "DOP853": (DOP853, 1e-10)}


def _close(got, want, rel=1e-12):
    """States agree within rel, relative to the size of the state."""
    size = max(abs(w) for w in want)
    return all(abs(g - w) <= rel * size for g, w in zip(got, want))


@pytest.mark.parametrize("method", ["RK45", "DOP853"])
@pytest.mark.parametrize("problem", ["oscillator", "dirichlet", "legendre"])
@pytest.mark.parametrize("complex_lam", [False, True])
@pytest.mark.parametrize("backward", [False, True])
def test_kernel_follows_solve_ivp(method, problem, complex_lam, backward,
                                  request):
    spec = request.getfixturevalue(problem)
    span, lam = _KERNEL_CASES[problem]
    if complex_lam:
        lam += 1.0j
    if backward:
        span = span[::-1]
    stepper, tol = _KERNEL_METHODS[method]
    rhs = _formula(spec.coeffs, lam)
    init = (1.0, -0.5)
    # The end state at several targets is scipy's to rounding.
    for target in (span[0] + 0.3 * (span[1] - span[0]),
                   span[0] + 0.7 * (span[1] - span[0]), span[1]):
        sol = solve_ivp(rhs, (span[0], target),
                        np.array(init, dtype=type(lam)), method=method,
                        rtol=tol, atol=tol * 1e-3, dense_output=True)
        x, y, table = rk_solve(stepper, rhs, span[0], init, target, tol,
                               tol * 1e-3)
        assert x == target
        assert _close(y, sol.y[:, -1])
    if stepper is DOP853:
        # Shooting reads end states only: DOP853 writes no table.
        assert table is None
        return
    # scipy's controller, so scipy's number of steps.
    assert len(table.t) == len(sol.t)
    ts = sol.t.tolist()
    for k, t in enumerate(ts):
        assert _close(table.at(t), sol.y[:, k]), t
    # Interior points of every step, and points a tenth of the end step
    # past both ends, where the end steps extend.  Farther out the
    # extrapolated polynomial magnifies the rounding of its coefficients.
    xs = [lo + f * (hi - lo) for lo, hi in zip(ts, ts[1:])
          for f in (0.1, 0.37, 0.5, 0.81, 0.99)]
    xs += [ts[0] - 0.1 * (ts[1] - ts[0]), ts[-1] + 0.1 * (ts[-1] - ts[-2])]
    for t in xs:
        assert _close(table.at(t), sol.sol(t)), t


# The Runge-Kutta step, error norm, table row and controller as loops over
# scipy's tableau: the reference the generated solves must match bit for
# bit.
def _terms(weights):
    return [(j, float(w)) for j, w in enumerate(weights) if w]


def _dot(terms, k):
    acc = 0.0
    for j, w in terms:
        acc += k[j] * w
    return acc


def _stages(a_rows, c_values, first):
    return [(float(c), _terms(a[:s]))
            for s, (a, c) in enumerate(zip(a_rows, c_values), start=first)]


def _norm(a, b):
    """numpy's 2-norm of the pair; for complex entries it sums the squared
    real parts, then the squared imaginary parts."""
    if isinstance(a, complex) or isinstance(b, complex):
        return math.sqrt((a.real * a.real + b.real * b.real)
                         + (a.imag * a.imag + b.imag * b.imag))
    return math.sqrt(a * a + b * b)


class _TableauLoop:
    def __init__(self, cls):
        self.cls = cls
        self.stages = _stages(cls.A[1:], cls.C[1:], 1)
        self.b = _terms(cls.B)
        self.exponent = -1 / (cls.error_estimator_order + 1)

    def step(self, rhs, t, h, u, v, fu, fv):
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

    def error_norm(self, ku, kv, h, su, sv):
        if self.cls is scipy.integrate.RK45:
            e = _terms(self.cls.E)
            return _norm(_dot(e, ku) * h / su,
                         _dot(e, kv) * h / sv) / 2 ** 0.5
        e5, e3 = _terms(self.cls.E5), _terms(self.cls.E3)
        n5 = _norm(_dot(e5, ku) / su, _dot(e5, kv) / sv)
        n3 = _norm(_dot(e3, ku) / su, _dot(e3, kv) / sv)
        e5, e3 = n5 * n5, n3 * n3
        if e5 == 0 and e3 == 0:
            return 0.0
        return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 2)

    def row(self, t, h, u, v, ku, kv):
        """RK45's table row, with Q = K^T P."""
        p = [_terms(col) for col in self.cls.P.T]
        return [t, h, u, *[_dot(c, ku) for c in p],
                v, *[_dot(c, kv) for c in p]]

    def initial_step(self, rhs, t, t_bound, u, v, fu, fv, rtol, atol):
        """scipy's select_initial_step."""
        direction = 1.0 if t_bound > t else -1.0
        length = abs(t_bound - t)
        su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
        d0 = _norm(u / su, v / sv) / 2 ** 0.5
        d1 = _norm(fu / su, fv / sv) / 2 ** 0.5
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, length)
        gu, gv = rhs(t + h0 * direction, (u + h0 * direction * fu,
                                          v + h0 * direction * fv))
        d2 = _norm((gu - fu) / su, (gv - fv) / sv) / 2 ** 0.5 / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (
                1 / (self.cls.error_estimator_order + 1))
        return min(100 * h0, h1, length)

    def solve(self, rhs, t, t_bound, u, v, rtol, atol, cap, zeros, h_abs):
        """scipy's solver loop: the accepted states, the table rows (RK45
        only), the proposed next step and the sign changes of u."""
        direction = 1.0 if t_bound > t else -1.0
        fu, fv = rhs(t, (u, v))
        if h_abs is None:
            h_abs = self.initial_step(rhs, t, t_bound, u, v, fu, fv, rtol,
                                      atol)
        states, rows, count = [(t, u, v)], [], 0
        sign = math.copysign(1.0, u) if zeros and u else 0.0
        while True:
            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                assert h_abs >= min_step
                t_new = t + h_abs * direction
                if direction * (t_new - t_bound) > 0:
                    t_new = t_bound
                h = t_new - t
                h_abs = abs(h)
                un, vn, ku, kv = self.step(rhs, t, h, u, v, fu, fv)
                err = self.error_norm(
                    ku, kv, h, atol + max(abs(u), abs(un)) * rtol,
                    atol + max(abs(v), abs(vn)) * rtol)
                if err < 1:
                    factor = MAX_FACTOR if err == 0 else min(
                        MAX_FACTOR, SAFETY * err ** self.exponent)
                    if rejected:
                        factor = min(1.0, factor)
                    h_abs *= factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * err ** self.exponent)
                rejected = True
            if self.cls is scipy.integrate.RK45:
                rows.append(self.row(t, h, u, v, ku, kv))
            if zeros and un * sign <= 0.0:
                if un * sign < 0.0:
                    count += 1
                if un:
                    sign = math.copysign(1.0, un)
            t, u, v = t_new, un, vn
            states.append((t, u, v))
            if direction * (t - t_bound) >= 0 or (
                    cap is not None and max(abs(u), abs(v)) >= cap):
                return states, rows, h_abs, count
            fu, fv = ku[-1], kv[-1]


_LOOPS = {"RK45": (RK45, _TableauLoop(scipy.integrate.RK45)),
          "DOP853": (DOP853, _TableauLoop(scipy.integrate.DOP853))}


@pytest.mark.parametrize("method", ["RK45", "DOP853"])
@pytest.mark.parametrize("form", ["inline", "call"])
@pytest.mark.parametrize("problem", ["oscillator", "legendre"])
@pytest.mark.parametrize("complex_lam", [False, True])
@pytest.mark.parametrize("backward", [False, True])
def test_generated_step_equals_tableau_loop(method, form, problem,
                                            complex_lam, backward, request):
    # Whole solves: the initial-step rule, then a second leg from the first
    # one's end with its proposed step, then the first again under a cap.
    # Every end state, proposed step and zero count, and RK45's step points
    # and table rows, are the reference controller's, bit for bit.
    spec = request.getfixturevalue(problem)
    stepper, loop = _LOOPS[method]
    span, _ = _KERNEL_CASES[problem]
    if backward:
        span = span[::-1]
    lam = 2.5 + 1.0j if complex_lam else 2.5
    rhs = _formula(spec.coeffs, lam)
    steps = (spec.coeffs.steps(stepper)(lam) if form == "inline"
             else stepper.steps(rhs))
    rtol, atol = 1e-10, 1e-13
    start = (1.0 + 0.3j, -0.5 - 0.8j) if complex_lam else (1.0, -0.5)
    zeros = not complex_lam

    def solve(t, t_bound, y, h_abs, cap):
        states, rows, h_next, count = loop.solve(
            rhs, t, t_bound, *y, rtol, atol, cap, zeros, h_abs)
        got = steps.solve(t, t_bound, *y, rtol, atol, cap, zeros, h_abs)
        want = (*states[-1], h_next, count)
        if stepper is RK45:
            want += ([s[0] for s in states], rows)
            # Each row holds the accepted state its step starts from.
            assert [(row[2], row[7]) for row in rows] \
                == [s[1:] for s in states[:-1]]
        assert got == want
        return got, [max(abs(u), abs(v)) for _, u, v in states[1:]]

    mid = 0.5 * (span[0] + span[1])
    first, sizes = solve(span[0], mid, start, None, None)
    solve(mid, span[1], first[1:3], first[3], None)
    # A cap below the largest state of the first leg stops the solve
    # before its end.
    capped, _ = solve(span[0], span[1], start, None, 0.9 * max(sizes))
    assert capped[0] != span[1]


def test_coefficient_steps_compile_once_per_method(legendre):
    coeffs = legendre.coeffs
    assert coeffs.steps(RK45) is coeffs.steps(RK45)
    assert coeffs.steps(DOP853) is not coeffs.steps(RK45)
    assert coeffs.steps(RK45, l2=True) is coeffs.steps(RK45, l2=True)
    assert coeffs.steps(RK45, l2=True) is not coeffs.steps(RK45)


def _hexes(v):
    if isinstance(v, (list, tuple)):
        return [_hexes(c) for c in v]
    if isinstance(v, complex):
        return v.real.hex(), v.imag.hex()
    return v.hex() if isinstance(v, float) else v


@pytest.mark.parametrize("lam", [2.5, 2.5 + 1.0j])
@pytest.mark.parametrize("t_bound", [-0.999999, 0.999999])
def test_l2_sum_leaves_the_solve_as_it_is(legendre, lam, t_bound):
    # The L^2 form sums r |u|^2 beside the solve, out of its error norm:
    # the end state, proposed step and zero count are the plain inline
    # solve's, as float hex, though it writes no table.  A bound stops it
    # at one of the plain solve's step points, once the sum has reached the
    # bound.
    plain = legendre.coeffs.steps(RK45)(lam).solve
    summed = legendre.coeffs.steps(RK45, l2=True)(lam).solve
    zeros = not isinstance(lam, complex)
    args = (0.0, t_bound, 1.0, -0.5, 1e-9, 1e-12, None, zeros, None)
    want = plain(*args)
    *got, total = summed(*args, math.inf)
    assert _hexes(got) == _hexes(want[:5])
    assert total > 0
    *stopped, part = summed(*args, 0.5 * total)
    ts, rows = want[5:]
    k = ts.index(stopped[0])
    assert 0 < k < len(ts) - 1 and part >= 0.5 * total
    # Row k starts from the state at ts[k]: u and u^[1] are its entries 2
    # and 7.
    assert _hexes(stopped[1:3]) == _hexes([rows[k][2], rows[k][7]])


def test_l2_solve_integrates_r_u_squared(dirichlet):
    # u = sin x on (0, pi) at lambda = 1: the integral of sin^2 over
    # (0, pi/2) is pi/4.  Backward, from pi/2 to 0, the sum is the same.
    # The bound 1 lies above the sum, so neither solve stops at it.
    x, y, _, total = l2_solve(dirichlet, 1.0, 0.0, (0.0, 1.0), math.pi / 2,
                              1e-9, None, 1.0)
    assert x == math.pi / 2 and abs(y[0] - 1.0) <= 1e-8
    assert abs(total - math.pi / 4) <= 1e-9
    _, _, _, back = l2_solve(dirichlet, 1.0, math.pi / 2, (1.0, 0.0), 0.0,
                             1e-9, None, 1.0)
    assert abs(back - math.pi / 4) <= 1e-9


@pytest.mark.parametrize("bound", [math.inf, math.nan])
def test_l2_solve_refuses_a_non_finite_bound(bound):
    # q = 1e6: u grows like e^(1000 x) and r u^2 overflows near x = 0.355,
    # before u does.  The sum is then inf, which an infinite bound would
    # meet, stopping the solve there with a finite state; a NaN bound is
    # never met.  Neither is a bound, so both are refused before any step.
    spec = ProblemSpec(Interval(0.0, 2.0),
                       CoefficientSet.from_strings("1", "1e6", "1"))
    with pytest.raises(ValueError, match="bound must be finite"):
        l2_solve(spec, 0.0, 0.0, (1.0, 0.0), 2.0, 1e-9, None, bound)


@pytest.mark.parametrize("coeffs, bad", [
    (("sqrt(x)", "0", "1"), "sqrt(x)"),
    (("1", "log(x)", "1"), "log(x)"),
    (("1", "0", "sqrt(x)"), "sqrt(x)"),
])
@pytest.mark.parametrize("solve", [end_state, rescaled_march])
def test_compiled_step_domain_error_names_the_coefficient(coeffs, bad, solve):
    # Defined at the anchor, undefined past 0: a stage of some step lands
    # there.  end_state steps with DOP853, rescaled_march with RK45.
    spec = ProblemSpec(Interval(-2.0, 3.0),
                       CoefficientSet.from_strings(*coeffs))
    with pytest.raises(SpecFileError, match=re.escape(repr(bad))) as info:
        solve(spec, 1.0, 2.0, (1.0, 0.0), -1.0)
    assert "solve" in [entry.name for entry in info.traceback]


def _sine_zeros(lam, anchor, init, target):
    """Zeros of u in (anchor, target] for -u'' = lam u, lam > 0: u is
    R sin(theta) with theta = k (x - anchor) + phi."""
    k = math.sqrt(lam)
    phi = math.atan2(init[0], init[1] / k)
    span = k * abs(target - anchor)
    if target > anchor:
        return math.floor((phi + span) / math.pi) - math.floor(phi / math.pi)
    return math.ceil(phi / math.pi) - math.ceil((phi - span) / math.pi)


@pytest.mark.parametrize("method", [RK45, DOP853], ids=["RK45", "DOP853"])
@pytest.mark.parametrize("anchor, init, target", [
    (0.0, (0.0, 1.0), 20.0),
    (20.0, (0.0, 1.0), 0.0),
    (0.0, (1.0, 0.3), 20.0),
    (3.0, (-0.5, 1.0), -17.0),
])
def test_zero_count_reads_the_solve(dirichlet, method, anchor, init, target):
    # The count is the closed form's, a zero at the anchor not among them,
    # and the end state, and RK45's steps and rows, are those of the solve
    # without it.
    lam = 4.0
    steps = dirichlet.coeffs.steps(method)(lam)
    x, y, table = rk_solve(method, steps, anchor, init, target, 1e-10,
                           1e-13)
    x2, y2, table2, zeros = rk_solve(method, steps, anchor, init, target,
                                     1e-10, 1e-13, zeros=True)
    assert (x2, y2) == (x, y)
    assert zeros == _sine_zeros(lam, anchor, init, target) > 10
    if method is RK45:
        assert (table2._ts, table2._rows) == (table._ts, table._rows)
    else:
        assert table is table2 is None
        assert end_state(dirichlet, lam, anchor, init, target) == (y, zeros)


def test_zero_count_adds_up_over_renormalized_legs():
    # u = e^{ax} s solves -(e^{-2ax} u')' = (a^2 + k^2) e^{-2ax} u exactly
    # when -s'' = k^2 s: u has the zeros of a sine while it grows by e^28,
    # and each window's count is the sine's.
    a, k = 2.0, 10.0
    spec = ProblemSpec(Interval(0.0, 20.0), CoefficientSet.from_strings(
        "exp(-4*x)", "0", "exp(-4*x)"))
    init = (0.3, -1.0)
    # At the anchor 0, p = 1: s = u and s' = u^[1] - a u.
    sine_init = (init[0], init[1] - a * init[0])
    pts = [2.0 * i for i in range(8)]
    counts = []
    for _, _, zeros, _ in march_windows(spec, a * a + k * k, init, pts,
                                        1e-10):
        counts.append(zeros)
    assert counts == [_sine_zeros(k * k, 0.0, sine_init, x1)
                      - _sine_zeros(k * k, 0.0, sine_init, x0)
                      for x0, x1 in zip(pts, pts[1:])]
    assert min(counts) >= 6


def test_kernel_refuses_a_zero_length_solve(dirichlet):
    # Every solve goes through rk_solve, shooting's DOP853 end_state too.
    steps = dirichlet.coeffs.steps(RK45)(1.0)
    with pytest.raises(ValueError, match="differ"):
        rk_solve(RK45, steps, 0.5, (0.3, -0.2), 0.5, 1e-9, 1e-12)
    with pytest.raises(ValueError, match="differ"):
        end_state(dirichlet, 1.0, 0.5, (0.3, -0.2), np.float64(0.5))


def test_nan_step_raises_at_once():
    # A NaN derivative makes the initial-step rule return NaN, and
    # max(NaN, min_step) keeps it: the step check must still fail.  The
    # RHS gives up after 10,000 calls, so a solve that keeps stepping ends
    # in RuntimeError instead of running on.
    calls = []

    def rhs(x, y):
        calls.append(x)
        if len(calls) > 10_000:
            raise RuntimeError("the solve did not stop")
        return math.nan, math.nan

    with pytest.raises(StepSizeUnderflow, match="NaN"):
        rk_solve(RK45, rhs, 0.0, (1.0, 0.0), 1.0, 1e-9, 1e-12)
    assert len(calls) < 10


def test_an_overflow_is_reported_as_non_finite():
    # q = 1e6 at lambda = 0: u grows like e^(1000 x) and overflows near
    # x = 0.6929, where the last attempted step's error norm and state are
    # NaN.  That is an overflow, not a step-size stall.
    spec = ProblemSpec(Interval(0.0, 2.0),
                       CoefficientSet.from_strings("1", "1e6", "1"))
    with pytest.raises(NonFiniteState, match=r"x=0\.6928.*\|u\| = 4\.1"):
        end_state(spec, 0.0, 0.0, (1.0, 0.0), 2.0)


def test_a_non_finite_end_state_is_refused():
    # u' = 1e308: once u overflows to inf, the scale atol + |u| rtol is inf,
    # the error norm 0 and every step accepted.  The solve reaches its
    # target with u = inf, which rk_solve refuses.
    with pytest.raises(NonFiniteState, match="x=4.0"):
        rk_solve(RK45, lambda x, y: (1e308, 0.0), 0.0, (0.0, 0.0), 4.0,
                 1e-9, 1e-12)


def test_wronskian_constant_along_solutions(dirichlet):
    s1 = integrate_tau(dirichlet, 4.0, 0.0, (1.0, 0.0), math.pi, tol=1e-12)
    s2 = integrate_tau(dirichlet, 4.0, 0.0, (0.0, 1.0), math.pi, tol=1e-12)
    values = [wronskian(s1, s2, x) for x in np.linspace(0.2, 3.0, 9)]
    assert max(abs(v - values[0]) for v in values) < 1e-10


def test_wronskian_bilinear(dirichlet):
    s1 = integrate_tau(dirichlet, 2.0, 0.0, (1.0, 0.5), 3.0)
    s2 = integrate_tau(dirichlet, 2.0, 0.0, (0.0, 1.0), 3.0)
    x = 1.2
    w12 = wronskian(s1, s2, x)
    w21 = wronskian(s2, s1, x)
    assert w12 == pytest.approx(-w21, abs=1e-12)


def test_tau_apply_exact_on_polynomials(dirichlet):
    # tau f = -f'' for p = 1, q = 0, r = 1; exact derivatives available.
    f = polynomial(dirichlet, [0.0, 0.0, 1.0])   # x^2
    vals = tau_apply(f, [0.5, 1.5])
    assert np.allclose(vals, [-2.0, -2.0], atol=1e-12)


def test_tau_apply_legendre_eigenfunction(legendre):
    # Legendre P2 = (3x^2 - 1)/2 satisfies tau P2 = 6 P2.
    p2 = polynomial(legendre, [-0.5, 0.0, 1.5])
    xs = [-0.7, -0.2, 0.1, 0.6]
    vals = tau_apply(p2, xs)
    want = [6 * p2(x) for x in xs]
    assert np.allclose(vals, want, atol=1e-10)


def test_tau_of_a_quasi_function_without_its_own_is_refused():
    # tau is part of the protocol: a subclass that defines only pair has no
    # fallback (no finite differences), and the error names the class.
    class PairOnly(QuasiFn):
        def pair(self, x):
            return math.sin(x), math.cos(x)

    with pytest.raises(NotImplementedError, match="PairOnly"):
        tau_apply(PairOnly(), [0.25])


def _exact_tau_cases():
    bessel = catalog("bessel(0.3)")
    validate(bessel)
    halfline, _ = problem_from_dict({"coefficients": {"catalog":
                                                      "free_halfline"},
                                     "lambda0": -1})
    validate(halfline)
    return [(bessel, construct_basis(bessel, "a")),
            (halfline, construct_basis(halfline, "a")),
            (halfline, construct_basis(halfline, "b"))]


def test_tau_of_basis_solutions_is_lambda0_times_the_solution():
    # u and u_hat solve tau y = lambda0 y, so tau_apply is lambda0 y bit
    # for bit, whether y is a trajectory, a multiple of one or a reduction
    # solution.  A stencil on y^[1] erred here by up to 1e-7 (bessel(0.3)
    # near 0, where lambda0 = 0).
    kinds = set()
    for spec, basis in _exact_tau_cases():
        for fn in (basis.u, basis.u_hat):
            kinds.add(type(fn).__name__)
            lo = max(fn.x_min, spec.interval.a)
            hi = min(fn.x_max, lo + 20.0)
            xs = list(np.linspace(lo, hi, 9)[1:-1])
            want = [spec.lambda0 * fn(x) for x in xs]
            assert tau_apply(fn, xs) == want, fn
    assert kinds == {"ScaledSolution", "ScalarMultiple", "ReductionSolution"}


# -- the tableau literals and Brent's method against scipy -----------------

@pytest.mark.parametrize("name, attr", [
    *[("RK45", a) for a in ("n_stages", "error_estimator_order", "C", "A",
                            "B", "E", "P")],
    *[("DOP853", a) for a in ("n_stages", "error_estimator_order", "C", "A",
                              "B", "E3", "E5")]])
def test_tableau_literals_equal_scipy(name, attr):
    want = getattr(getattr(scipy.integrate, name), attr)
    got = getattr(getattr(tableaux, name), attr)
    assert np.array_equal(np.asarray(got), want)
    assert np.asarray(got).shape == np.shape(want)


def _brent_problem(rng, i):
    """A bracketing problem: smooth, flat, steep, or a step (bisection
    only), with ends in either order and sometimes np.float64."""
    c, p = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 20.0)
    f = [lambda x: math.tanh(p * (x - c)),
         lambda x: (x - c) ** 3 + p * (x - c),
         lambda x: math.exp(p * x) - math.exp(p * c),
         lambda x: math.atan(x - c) ** 3,
         lambda x: -1.0 if x < c else 1.0,
         lambda x: math.sin(p * x + c)][i % 6]
    a, b = rng.uniform(-5.0, c), rng.uniform(c, 5.0)
    if i % 2:
        a, b = b, a
    if i % 3 == 0:
        return f, np.float64(a), np.float64(b)
    return f, float(a), float(b)


def _root_or_error(solver, f, a, b, xtol, **kw):
    try:
        return float(solver(f, a, b, xtol=xtol, **kw)).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@pytest.mark.parametrize("xtol", [1e-8, 4 * EPS])
def test_brentq_reproduces_scipy(xtol):
    rng = np.random.default_rng(11)
    for i in range(600):
        f, a, b = _brent_problem(rng, i)
        want = _root_or_error(scipy.optimize.brentq, f, a, b, xtol,
                              rtol=BRENTQ_RTOL)
        assert _root_or_error(brentq, f, a, b, xtol) == want, (i, a, b)


@pytest.mark.parametrize("f, a, b, error", [
    (lambda x: x * x + 1.0, -1.0, 1.0, ValueError),
    (lambda x: x - 0.5 if x < 0.9 else math.nan, 0.0, 1.0, ValueError),
    # A step far from the middle of a huge bracket: only bisection, which
    # needs about 1,700 halvings.
    (lambda x: -1.0 if x < 1e-200 else 1.0, -1e300, 1e300, RuntimeError)])
def test_brentq_raises_scipys_errors(f, a, b, error):
    with pytest.raises(error):
        scipy.optimize.brentq(f, a, b, xtol=4 * EPS, rtol=BRENTQ_RTOL)
    with pytest.raises(error):
        brentq(f, a, b, xtol=4 * EPS)


@pytest.mark.parametrize("xtol", [0.0, -1.0])
def test_brentq_refuses_scipys_bad_xtol(xtol):
    def f(x):
        return x - 0.25

    with pytest.raises(ValueError) as want:
        scipy.optimize.brentq(f, 0.0, 1.0, xtol=xtol, rtol=BRENTQ_RTOL)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        brentq(f, 0.0, 1.0, xtol=xtol)
