"""ODE core: quasi-derivative marching, Wronskians, tau application."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from slq.errors import SpecFileError
from slq.functions import polynomial
from slq.odecore import (
    StepTable,
    end_state,
    integrate_tau,
    tau_apply,
    wronskian,
)
from slq.problem import CoefficientSet, catalog


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


@pytest.mark.parametrize("method", ["RK45", "DOP853"])
@pytest.mark.parametrize("lam", [2.5, 2.5 + 1.0j])
@pytest.mark.parametrize("span", [(-3.0, 2.0), (2.0, -3.0)])
def test_step_table_equals_scipy_dense_output(oscillator, method, lam,
                                              span):
    y0 = np.array([1.0, -0.5], dtype=type(lam))
    sol = solve_ivp(oscillator.coeffs.rhs(lam), span, y0, method=method,
                    rtol=1e-9, atol=1e-12, dense_output=True)
    table = StepTable(sol)
    ts = sol.t.tolist()
    assert table.t == ts
    # Every step point, interior points of every step, and points past
    # both ends, where the end steps extend.
    xs = ts + [lo + f * (hi - lo) for lo, hi in zip(ts, ts[1:])
               for f in (0.1, 0.37, 0.5, 0.81, 0.99)]
    xs += [min(span) - 0.1, max(span) + 0.1]
    # scipy evaluates a real RK45 step with BLAS dgemv.  The table sums in
    # the order of an unfused dgemv kernel; a kernel with fused
    # multiply-adds rounds differently, hence 2 ulp.  DOP853 steps are
    # elementwise numpy, and complex RK45 steps make scipy's own np.dot
    # call: exact with any BLAS.
    ulps = 2 if method == "RK45" and isinstance(lam, float) else 0
    for x in xs:
        want = sol.sol(x).tolist()
        got = table.at(x)
        assert len(got) == 2
        for g, w in zip(got, want):
            for gp, wp in ((g.real, w.real), (g.imag, w.imag)):
                assert abs(gp - wp) <= ulps * np.spacing(abs(wp)), (x, g, w)


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
