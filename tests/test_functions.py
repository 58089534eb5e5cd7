"""The quasi-function protocol: one `pair`, with value, qd and range."""

import math
import re

import numpy as np
import pytest

from slq.bvalues import BlendedFn, patched_pair
from slq.errors import EvaluationOutsideSupport, SpecFileError
from slq.expressions import Expr
from slq.functions import (
    AnalyticFn,
    BumpFn,
    ExprFunction,
    LinearCombination,
    QuasiFn,
    polynomial,
)
from slq.odecore import ScaledSolution, tau_apply
from slq.problem import catalog, validate
from slq.solutions import ReductionSolution, ScalarMultiple, construct_basis


@pytest.fixture(scope="module")
def bessel_a_basis():
    spec = catalog("bessel(0.3)")
    validate(spec)
    return construct_basis(spec, "a")


def _edges(sol):
    return min(sol.t[0], sol.t[-1]), max(sol.t[0], sol.t[-1])


def _coverage(fn):
    """Evaluable range, read off the stored integrator data: a trajectory
    spans its segments, a reduction solution its tail solution, a multiple
    its member, a blend from its left piece's lower edge to its right
    piece's upper one, a combination where all its members reach;
    everything else is unrestricted."""
    if isinstance(fn, ScaledSolution):
        edges = [_edges(sol) for sol in fn.segments]
        return min(lo for lo, _ in edges), max(hi for _, hi in edges)
    if isinstance(fn, ReductionSolution):
        return _edges(fn._tail)
    if isinstance(fn, ScalarMultiple):
        return _coverage(fn.fn)
    if isinstance(fn, BlendedFn):
        return _coverage(fn.left)[0], _coverage(fn.right)[1]
    if isinstance(fn, LinearCombination):
        edges = [_coverage(f) for f in fn.fns]
        return max(lo for lo, _ in edges), min(hi for _, hi in edges)
    return -math.inf, math.inf


def _instances(legendre, legendre_bases, bessel_a_basis):
    spec = legendre
    pp = patched_pair(spec, *legendre_bases)
    fns = {
        ReductionSolution: bessel_a_basis.u,
        ScalarMultiple: bessel_a_basis.u_hat,
        ScaledSolution: legendre_bases[0].u_hat,
        BlendedFn: pp.v1,
        ExprFunction: ExprFunction(spec, "sin(x) + x**2"),
        BumpFn: BumpFn(spec, 0.1, 0.5),
        LinearCombination: LinearCombination(
            [2.0, -0.5], [polynomial(spec, [1.0, 2.0]),
                          legendre_bases[1].u]),
    }
    for cls, fn in fns.items():
        assert type(fn) is cls
    return fns


def _points(fn):
    lo, hi = _coverage(fn)
    lo, hi = max(lo, -0.9), min(hi, 0.9)
    xs = list(np.linspace(lo, hi, 7)[1:-1])
    if isinstance(fn, BlendedFn):
        a0, b0 = fn.window
        xs += [a0 - 0.05, 0.5 * (a0 + b0), b0 + 0.05]
    return xs


def test_every_function_class_is_one_quasi_function(
        legendre, legendre_bases, bessel_a_basis):
    fns = _instances(legendre, legendre_bases, bessel_a_basis)
    assert len(fns) == 7
    for cls, fn in fns.items():
        assert isinstance(fn, QuasiFn), cls
        assert (fn.x_min, fn.x_max) == _coverage(fn), cls
        for x in _points(fn):
            u, u1 = fn.pair(x)
            assert fn(x) == u, (cls, x)
            assert fn.qd(x) == u1, (cls, x)


def test_only_the_two_base_classes_define_qd(
        legendre, legendre_bases, bessel_a_basis):
    fns = _instances(legendre, legendre_bases, bessel_a_basis)
    for cls in fns:
        owner = next(c for c in cls.__mro__ if "qd" in vars(c))
        assert owner in (QuasiFn, AnalyticFn), cls


def test_empty_trajectory_covers_nothing():
    traj = ScaledSolution(0.0)
    assert traj.x_min > traj.x_max
    for evaluate in (traj, traj.qd, traj.pair, traj.log_pair):
        with pytest.raises(EvaluationOutsideSupport):
            evaluate(0.5)


def test_scalar_multiple_follows_its_member_as_it_grows(legendre_bases):
    traj = ScaledSolution(0.0)
    multiple = ScalarMultiple(traj, 2.0)
    for sol in legendre_bases[0].u_hat.segments:
        traj.add_segment(sol)
        assert (multiple.x_min, multiple.x_max) == (traj.x_min, traj.x_max)


def test_tau_of_a_combination_without_derivatives(dirichlet,
                                                  dirichlet_bases):
    # x and u_hat both solve tau v = 0 here; u_hat has no d1/d2, and the
    # combination sums its members' exact tau, so the value is 0 exactly.
    combo = LinearCombination(
        [1.0, 0.5], [polynomial(dirichlet, [0, 1]), dirichlet_bases[0].u_hat])
    vals = tau_apply(combo, [1.0])
    assert len(vals) == 1
    assert vals[0] == 0.0


@pytest.mark.parametrize("problem, texts", [
    ("legendre", ("1", "x", "1.5*x**2 - 0.5", "2.5*x**3 - 1.5*x")),
    ("dirichlet", ("sin(2*x)*exp(-0.3*x) + x",)),
])
def test_compiled_pair_equals_term_by_term(problem, texts, request):
    # The compiled pair has the arithmetic of (f(x), p(x) f'(x)): equal
    # bit for bit, not just close.
    spec = request.getfixturevalue(problem)
    a, b = spec.interval.endpoints()
    xs = [float(x) for x in np.linspace(a, b, 41)[1:-1]]
    for text in texts:
        f = ExprFunction(spec, text)
        for x in xs:
            assert f.pair(x) == (f(x), spec.p(x) * f.d1(x))


def test_compiled_pair_domain_error_names_the_expression(dirichlet):
    # The pair evaluates f first, so its error names f as f(x) does.
    f = ExprFunction(dirichlet, "sqrt(x)")
    for evaluate in (f, f.pair):
        with pytest.raises(SpecFileError, match=re.escape("'sqrt(x)'")):
            evaluate(-1.0)


def test_expressions_refuse_arrays():
    # An Expr is evaluated at one number; an array is refused for every
    # text, also where the compiled scalar evaluator would broadcast it.
    for text in ("x*x", "sin(x)", "x**0.5"):
        with pytest.raises(TypeError):
            Expr.parse(text)(np.array([1.0, 2.0]))


def _numpy_reference(coeffs, shift):
    """numpy Polynomials P, P1 = P' - shift P and P2 = P1' - shift P1,
    where shift is x (Gaussian) or k (exp decay): (P w)' = P1 w and
    (P w)'' = P2 w for w = exp(-x^2/2) or exp(-k x)."""
    p0 = np.polynomial.Polynomial(coeffs)
    p1 = p0.deriv() - shift * p0
    p2 = p1.deriv() - shift * p1
    return p0, p1, p2


@pytest.mark.parametrize("kind", ["hermite0", "hermite1", "hermite2",
                                  "hermite3", "hermite4", "linear",
                                  "exp_decay", "exp_decay_const"])
def test_plain_float_polynomials_equal_numpy(free_halfline, kind):
    # P(x) exp(-x^2/2) and P(x) exp(-1.5 x) as formulas: the expression
    # tree's exact derivatives agree with the hand-derived P' - x P and
    # P' - k P to rounding, measured against the polynomial of |coeffs|
    # at |x|, which bounds the cancellation at a zero of P, P1 or P2.
    x_poly = np.polynomial.Polynomial([0.0, 1.0])
    if kind.startswith("hermite"):
        coeffs = np.polynomial.hermite.herm2poly([0.0] * int(kind[-1]) + [1.0])
    elif kind == "linear":
        coeffs = [1.0, 0.25]
    else:
        coeffs = [0.5, -1.0, 0.25] if kind == "exp_decay" else [2.0]
    gaussian = not kind.startswith("exp_decay")
    weight_text = "exp(-x**2/2)" if gaussian else "exp(-1.5*x)"
    fn = ExprFunction(free_halfline,
                      f"({polynomial(free_halfline, coeffs).expr.text})"
                      f"*{weight_text}")
    polys = _numpy_reference(coeffs, x_poly if gaussian else 1.5)

    def weight(x):
        return math.exp(-0.5 * x * x) if gaussian else math.exp(-1.5 * x)

    grid = [-30.0, -17.25, -3.0, -1.0, -0.3, -0.0, 0.0, 1e-3, 0.7, 2.5,
            11.0, 30.0] + [float(x) for x in np.linspace(-29.5, 29.5, 37)]
    for x in grid:
        for method, poly in zip((fn.__call__, fn.d1, fn.d2), polys):
            got = method(x)
            scale = np.polynomial.Polynomial(np.abs(poly.coef))(abs(x))
            assert abs(got - poly(x) * weight(x)) \
                <= 1e-13 * scale * weight(x), (kind, method.__name__, x)
            assert type(got) is float
