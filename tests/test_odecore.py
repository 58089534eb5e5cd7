"""ODE core: quasi-derivative marching, Wronskians, tau application."""

import math
import re

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import solve_ivp

from slq.errors import SpecFileError
from slq.functions import polynomial
from slq.odecore import (
    DOP853,
    RK45,
    _norm,
    end_state,
    end_state_zeros,
    integrate_tau,
    rk_solve,
    tau_apply,
    wronskian,
)
from slq.problem import CoefficientSet, Interval, ProblemSpec, catalog
from slq.solutions import march_windows, rescaled_march


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
    spec = (catalog(problem) if problem == "bessel(0.3)"
            else request.getfixturevalue(problem))
    p, q, r = spec.p, spec.q, spec.r
    for lam, y in ((2.5, np.array([0.7, -1.3])),
                   (2.5 + 1.0j, np.array([0.7 - 0.2j, -1.3 + 0.4j]))):
        rhs = spec.coeffs.rhs(lam)
        for x in xs:
            assert rhs(x, y) == [y[1] / p(x), (q(x) - lam * r(x)) * y[0]]


@pytest.mark.parametrize("coeffs, bad", [
    (("sqrt(x)", "0", "1"), "sqrt(x)"),
    (("1", "log(x)", "1"), "log(x)"),
    (("1", "0", "sqrt(x)"), "sqrt(x)"),
])
def test_fused_rhs_domain_error_names_the_coefficient(coeffs, bad):
    rhs = CoefficientSet.from_strings(*coeffs).rhs(1.0)
    with pytest.raises(SpecFileError, match=re.escape(repr(bad))):
        rhs(-1.0, np.array([1.0, 1.0]))


@pytest.mark.parametrize("problem, lam, anchor, init, target", [
    ("oscillator", 3.0, -6.0, (1.0, 5.0), 0.0),
    ("oscillator", 5.5, 6.0, (1.0, -5.0), 0.0),
    ("oscillator", 1.0 + 0.5j, -4.0, (1.0, 2.0), 1.0),
    ("dirichlet", 4.0, 0.0, (0.0, 1.0), math.pi / 2),
    ("dirichlet", 9.3, math.pi, (0.0, 1.0), 1.0),
])
def test_end_state_equals_trajectory_at_target(problem, lam, anchor, init,
                                               target, request):
    spec = request.getfixturevalue(problem)
    want = integrate_tau(spec, lam, anchor, init, target).pair(target)
    assert end_state(spec, lam, anchor, init, target) == want


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
    rhs = spec.coeffs.rhs(lam)
    init = (1.0, -0.5)
    sol = solve_ivp(rhs, span, np.array(init, dtype=type(lam)),
                    method=method, rtol=tol, atol=tol * 1e-3,
                    dense_output=True)
    x, y, table = rk_solve(stepper, rhs, span[0], init, span[1], tol,
                           tol * 1e-3, dense=True)
    assert x == span[1]
    # scipy's controller, so scipy's number of steps.
    assert len(table.t) == len(sol.t)
    assert _close(y, sol.y[:, -1])
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


# The Runge-Kutta step, error norm and table row as loops over scipy's
# tableau: the reference the generated steps must match bit for bit.
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


class _TableauLoop:
    def __init__(self, cls):
        self.cls = cls
        self.n_stages = cls.n_stages
        self.stages = _stages(cls.A[1:], cls.C[1:], 1)
        self.b = _terms(cls.B)

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

    def row(self, rhs, t, h, u, v, un, vn, ku, kv):
        if self.cls is scipy.integrate.RK45:
            p = [_terms(col) for col in self.cls.P.T]
            return [t, h, u, *[_dot(c, ku) for c in p],
                    v, *[_dot(c, kv) for c in p]]
        ku, kv = list(ku), list(kv)
        for c, a in _stages(self.cls.A_EXTRA, self.cls.C_EXTRA,
                            self.n_stages + 1):
            fu, fv = rhs(t + c * h,
                         (u + _dot(a, ku) * h, v + _dot(a, kv) * h))
            ku.append(fu)
            kv.append(fv)
        out = [t, h]
        for y, yn, k in ((u, un, ku), (v, vn, kv)):
            dy = yn - y
            out += (y, dy, h * k[0] - dy,
                    2 * dy - h * (k[self.n_stages] + k[0]),
                    *[h * _dot(_terms(d), k) for d in self.cls.D])
        return out


_LOOPS = {"RK45": (RK45, _TableauLoop(scipy.integrate.RK45)),
          "DOP853": (DOP853, _TableauLoop(scipy.integrate.DOP853))}


@pytest.mark.parametrize("method", ["RK45", "DOP853"])
@pytest.mark.parametrize("form", ["inline", "call"])
@pytest.mark.parametrize("problem", ["oscillator", "legendre"])
@pytest.mark.parametrize("complex_lam", [False, True])
@pytest.mark.parametrize("backward", [False, True])
def test_generated_step_equals_tableau_loop(method, form, problem,
                                            complex_lam, backward, request):
    spec = request.getfixturevalue(problem)
    stepper, loop = _LOOPS[method]
    lam = 2.5 + 1.0j if complex_lam else 2.5
    rhs = spec.coeffs.rhs(lam)
    steps = (spec.coeffs.steps(stepper)(lam) if form == "inline"
             else stepper.steps(rhs))
    rtol, atol = 1e-10, 1e-13
    for t, h, (u, v) in ((0.3, 0.05, (1.0, -0.5)), (-0.6, 0.21, (0.0, 1.0)),
                         (0.1, 0.7, (-2.3, 0.4)), (0.5, 1e-6, (1e-3, 7.0))):
        if backward:
            h = -h
        if complex_lam:
            u, v = complex(u, 0.3), complex(v, -0.8)
        fu, fv = rhs(t, (u, v))
        un, vn, ku, kv = loop.step(rhs, t, h, u, v, fu, fv)
        got = steps.step(t, h, u, v, fu, fv, rtol, atol)
        assert got == (un, vn, got[2], tuple(ku), tuple(kv))
        assert got[2] == loop.error_norm(
            ku, kv, h, atol + max(abs(u), abs(un)) * rtol,
            atol + max(abs(v), abs(vn)) * rtol)
        assert steps.row(t, h, u, v, un, vn, got[3], got[4]) \
            == loop.row(rhs, t, h, u, v, un, vn, ku, kv)


def test_coefficient_steps_compile_once_per_method(legendre):
    coeffs = legendre.coeffs
    assert coeffs.steps(RK45) is coeffs.steps(RK45)
    assert coeffs.steps(DOP853) is not coeffs.steps(RK45)


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
    assert "step" in [entry.name for entry in info.traceback]


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
    # and every step, state and row is that of the solve without it.
    lam = 4.0
    steps = dirichlet.coeffs.steps(method)(lam)
    x, y, table = rk_solve(method, steps, anchor, init, target, 1e-10,
                           1e-13, dense=True)
    x2, y2, table2, zeros = rk_solve(method, steps, anchor, init, target,
                                     1e-10, 1e-13, dense=True, zeros=True)
    assert (x2, y2) == (x, y)
    assert (table2._ts, table2._rows) == (table._ts, table._rows)
    assert zeros == _sine_zeros(lam, anchor, init, target) > 10
    if method is DOP853:
        assert end_state_zeros(dirichlet, lam, anchor, init, target) \
            == (end_state(dirichlet, lam, anchor, init, target), zeros)


def test_zero_count_adds_up_over_renormalized_legs():
    # u = e^{ax} s solves -(e^{-2ax} u')' = (a^2 + k^2) e^{-2ax} u exactly
    # when -s'' = k^2 s: u has the zeros of a sine, and its growth makes
    # the cap split every window into legs.  (A bounded sine is
    # renormalized only until its scale settles, within the first window.)
    a, k = 2.0, 10.0
    spec = ProblemSpec(Interval(0.0, 20.0), CoefficientSet.from_strings(
        "exp(-4*x)", "0", "exp(-4*x)"))
    init = (0.3, -1.0)
    # At the anchor 0, p = 1: s = u and s' = u^[1] - a u.
    sine_init = (init[0], init[1] - a * init[0])
    pts = [2.0 * i for i in range(8)]
    counts = []
    for scaled, first, zeros, _ in march_windows(spec, a * a + k * k, init,
                                                 pts, 1e-10, cap=4.0):
        assert len(scaled.segments) - first >= 2
        counts.append(zeros)
    assert counts == [_sine_zeros(k * k, 0.0, sine_init, x1)
                      - _sine_zeros(k * k, 0.0, sine_init, x0)
                      for x0, x1 in zip(pts, pts[1:])]
    assert min(counts) >= 6


def test_kernel_zero_length_solve_is_one_constant_step(dirichlet):
    rhs = dirichlet.coeffs.rhs(1.0)
    x, y, table = rk_solve(RK45, rhs, 0.5, (0.3, -0.2), 0.5, 1e-9, 1e-12,
                           dense=True)
    assert (x, y) == (0.5, (0.3, -0.2))
    assert table.t == [0.5, 0.5]
    assert table.at(0.7) == (0.3, -0.2)


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
    vals = tau_apply(dirichlet, f, [0.5, 1.5])
    assert np.allclose(vals, [-2.0, -2.0], atol=1e-12)


def test_tau_apply_legendre_eigenfunction(legendre):
    # Legendre P2 = (3x^2 - 1)/2 satisfies tau P2 = 6 P2.
    p2 = polynomial(legendre, [-0.5, 0.0, 1.5])
    xs = [-0.7, -0.2, 0.1, 0.6]
    vals = tau_apply(legendre, p2, xs)
    want = [6 * p2(x) for x in xs]
    assert np.allclose(vals, want, atol=1e-10)


def test_tau_apply_finite_difference_path(legendre):
    # An object without analytic second derivatives exercises the stencil.
    class Plain:
        def __init__(self, spec):
            self.spec = spec

        def __call__(self, x):
            return math.sin(x)

        def qd(self, x):
            return self.spec.p(x) * math.cos(x)

    vals = tau_apply(legendre, Plain(legendre), [0.25])
    # tau sin = -((1-x^2) cos)' = 2x cos + (1-x^2) sin at x.
    x = 0.25
    want = 2 * x * math.cos(x) + (1 - x * x) * math.sin(x)
    assert vals[0] == pytest.approx(want, rel=1e-7)
