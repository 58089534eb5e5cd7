"""ODE core: quasi-derivative marching, Wronskians, tau application."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from slq.errors import SpecFileError
from slq.functions import polynomial
from slq.odecore import (
    DOP853,
    RK45,
    end_state,
    integrate_tau,
    rk_solve,
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
