"""Expression language: parsing, evaluation, exact differentiation."""

import math
import operator
import random
import re

import numpy as np
import pytest

from slq import expressions, tableaux
from slq.errors import SpecFileError
from slq.expressions import (
    BinOp,
    Const,
    Expr,
    Fun,
    Var,
    quasi_pair,
)
from slq.odecore import DOP853, RK45, rk_solve
from slq.problem import CoefficientSet, catalog


def test_polynomial_evaluation():
    e = Expr.parse("1 + 2*x + 3*x**2")
    assert e(2.0) == 1 + 4 + 12


def test_functions_and_constants():
    e = Expr.parse("sin(x)*exp(-x)")
    x = 0.7
    assert e(x) == pytest.approx(math.sin(x) * math.exp(-x), rel=1e-15)


def test_derivative_power_rule():
    e = Expr.parse("x**3")
    d = e.deriv()
    assert d(2.0) == pytest.approx(12.0, rel=1e-15)


def test_derivative_chain_rule():
    e = Expr.parse("cos(x**2)")
    d = e.deriv()
    x = 1.3
    assert d(x) == pytest.approx(-2 * x * math.sin(x * x), rel=1e-13)


def test_second_derivative():
    e = Expr.parse("exp(2*x)")
    d2 = e.deriv().deriv()
    assert d2(0.5) == pytest.approx(4 * math.exp(1.0), rel=1e-13)


def test_factored_product():
    e = Expr.parse("(1-x)*(1+x)")
    assert e(0.999999999) == pytest.approx(1 - 0.999999999 ** 2, rel=1e-6)
    assert e(1.0) == 0.0


def test_division_by_zero_raises():
    e = Expr.parse("1/x")
    with pytest.raises(SpecFileError, match=re.escape("'1/x'")):
        e(0.0)


@pytest.mark.parametrize("text, pole", [
    ("1/x", 0.0), ("x**(-1)", 0.0), ("x**(-2) + 3", 0.0),
    ("sin(x)/(x - 1.5)", 1.5),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pole_names_the_expression(text, pole):
    # A pole is a SpecFileError naming the expression on both scalar paths,
    # and calling the Expr at a numpy float raises it too (numpy division
    # alone returns inf); it is still a ZeroDivisionError to callers that
    # skip such points.
    e = Expr.parse(text)
    for evaluate, x in ((e, pole), (e.scalar, pole), (e, np.float64(pole))):
        with pytest.raises(SpecFileError, match=re.escape(repr(text))) as info:
            evaluate(x)
        assert isinstance(info.value, ZeroDivisionError)


def _first_stage_at(coeffs, x):
    """Run a solve whose first stage evaluates the system at x."""
    CoefficientSet(*coeffs).steps(RK45)(2.0).solve(
        x, x + 1.0, 1.0, 0.5, 1e-8, 1e-11, None, False, 0.1)


def test_compiled_pole_names_the_expression():
    coeffs = [Expr.parse(t) for t in ("1", "1/x", "1")]
    with pytest.raises(SpecFileError, match=re.escape("'1/x'")):
        _first_stage_at(coeffs, 0.0)
    with pytest.raises(SpecFileError, match=re.escape("'1/x'")):
        quasi_pair(Expr.parse("1/x"), Expr.parse("1"))(0.0)
    # A zero of p in y[1] / p is no expression's pole: the original error.
    coeffs = [Expr.parse(t) for t in ("x", "0", "1")]
    with pytest.raises(ZeroDivisionError) as info:
        _first_stage_at(coeffs, 0.0)
    assert not isinstance(info.value, SpecFileError)


@pytest.mark.parametrize("method", [RK45, DOP853], ids=["RK45", "DOP853"])
def test_compiled_step_pole_names_the_coefficient(method):
    # q vanishes but at its pole 0, where the last step toward 0 ends
    # exactly (t + (0 - t) == 0): its final stage evaluates q there.
    coeffs = CoefficientSet.from_strings("1", "0*(1/x)", "1")
    steps = coeffs.steps(method)(1.0)
    with pytest.raises(SpecFileError, match=re.escape("'0*(1/x)'")) as info:
        rk_solve(method, steps, 1.0, (1.0, 0.0), 0.0, 1e-8, 1e-11)
    assert "solve" in [entry.name for entry in info.traceback]


@pytest.mark.parametrize("text", [
    "1e999 + x", "1e308*10 + x", "-1e999", "x * (1e200 * 1e200)",
    "1e308 + 1e308 - x",
])
def test_non_finite_constant_rejected_at_parse(text):
    with pytest.raises(SpecFileError, match="overflows"):
        Expr.parse(text)


def test_unknown_name_rejected():
    with pytest.raises(SpecFileError):
        Expr.parse("y + 1")


def test_unknown_function_rejected():
    with pytest.raises(SpecFileError):
        Expr.parse("tan(x)")


def test_malformed_expression_rejected():
    with pytest.raises(SpecFileError):
        Expr.parse("1 +* 2")


def test_negative_constant_base_binds_as_the_base():
    e = Expr.parse("(-2)**x")
    assert e(2.0) == 4.0
    assert e(3.0) == -8.0


@pytest.mark.parametrize("text, x", [("x**0.5", -1.0), ("(-2)**x", 0.5),
                                     ("(1 + x)**(x/4)", -3.0),
                                     ("x**(-0.5)", 0.0)])
def test_negative_base_power_is_a_domain_error(text, x):
    # Float ** would return a complex number (or raise ZeroDivisionError);
    # the scalar path raises the SpecFileError that names the expression,
    # as sqrt(x) does at x = -1.
    e = Expr.parse(text)
    for evaluate in (e, e.scalar):
        for point in (x, np.float64(x)):
            with pytest.raises(SpecFileError, match=re.escape(repr(text))):
                evaluate(point)


def test_powers_keep_their_values_where_defined():
    assert Expr.parse("x**0.5")(4.0) == 2.0
    assert Expr.parse("(-2)**x")(2.0) == 4.0
    assert Expr.parse("x**2")(-3.0) == 9.0
    assert Expr.parse("x**(-3)")(-2.0) == -0.125
    assert Expr.parse("(-2)**2")(0.0) == 4.0
    assert Expr.parse("(-2)**(-1)")(0.0) == -0.5


def test_integer_constant_exponents_keep_the_operator():
    # The catalog's powers, x**2 and (c)/x**2, and polynomial's x**k stay
    # plain ** in the emitted source; other exponents go through _pow.
    for text in ("x**2", "(-0.16)/x**2", "(0.5)*x**3", "x**(-1)"):
        assert "_pow" not in Expr.parse(text).root.emit(), text
    for text in ("x**0.5", "(-2)**x", "x**x"):
        assert Expr.parse(text).root.emit().startswith("_pow("), text
    assert "_pow" not in Expr.parse("(-0.16)/x**2").deriv().root.emit()


def test_constant_power_with_negative_base_is_folded_as_written():
    assert Expr.parse("(-2)**2 + x")(1.0) == 5.0
    with pytest.raises(SpecFileError, match="undefined"):
        Expr.parse("(-8)**(1/3) + x")


def _formula(coeffs, lam):
    """rhs(x, (u, u1)) = [u1 / p, (q - lam r) u] with the coefficients' own
    evaluators: the reference for the stages with p, q and r inlined."""
    p, q, r = coeffs.p, coeffs.q, coeffs.r
    return lambda x, y: [y[1] / p(x), (q(x) - lam * r(x)) * y[0]]


def test_compiled_rhs_power_error_names_the_coefficient():
    coeffs = CoefficientSet.from_strings("1", "x**0.5", "1")
    with pytest.raises(SpecFileError, match=re.escape("'x**0.5'")):
        _first_stage_at([coeffs.p, coeffs.q, coeffs.r], -1.0)
    # Where q is defined the solve is the formula's, bit for bit.
    args = (4.0, 5.0, 1.0, 0.0, 1e-10, 1e-13, None, True, None)
    assert coeffs.steps(RK45)(2.0).solve(*args) \
        == RK45.steps(_formula(coeffs, 2.0)).solve(*args)


def test_emitter_fix_reaches_the_compiled_steps():
    # (-2)**(0*x + 2) is 4 exactly, so both systems take the same steps.
    lam, t, u, v = 1.5, 0.2, 1.0, -0.5
    for method in (RK45, DOP853):
        got, want = (CoefficientSet.from_strings("1", q, "1").steps(method)(
            lam) for q in ("(-2)**(0*x + 2)", "4"))
        assert got.solve(t, 3.0, u, v, 1e-10, 1e-13, None, True, None) \
            == want.solve(t, 3.0, u, v, 1e-10, 1e-13, None, True, None)


# Differential check of the emitted source against a tree-walking
# evaluator that follows the tree, not the text.
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "**": operator.pow}
_FUNCS = ("exp", "log", "sin", "cos", "sqrt")
_MATH = {f: getattr(math, f) for f in _FUNCS}
_CONSTANTS = (-3.0, -2.0, -1.5, -1.0, -0.5, -0.0, 0.5, 1.0, 2.0, 2.5, 3.0)
_POINTS = (-2.5, -2.0, -1.0, -0.5, -0.25, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0)


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return Var() if rng.random() < 0.5 else Const(rng.choice(_CONSTANTS))
    if rng.random() < 0.2:
        return Fun(rng.choice(_FUNCS), _random_tree(rng, depth - 1))
    return BinOp(rng.choice(list(_OPS)), _random_tree(rng, depth - 1),
                 _random_tree(rng, depth - 1))


def _walk(node, x, ns):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Fun):
        return ns[node.name](_walk(node.arg, x, ns))
    return _OPS[node.op](_walk(node.left, x, ns), _walk(node.right, x, ns))


def _inside(root, x):
    """The tree is defined at x: a finite real value, no domain error."""
    try:
        v = _walk(root, x, _MATH)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError):
        return False
    return isinstance(v, float) and math.isfinite(v)


def _trees(seed, n, depth=4):
    rng = random.Random(seed)
    return [_random_tree(rng, depth) for _ in range(n)]


def test_emitted_source_follows_the_tree():
    checked = 0
    for root in _trees(11, 400):
        e = Expr(root)
        xs = [x for x in _POINTS if _inside(root, x)]
        for x in xs:
            assert e(x).hex() == _walk(root, x, _MATH).hex(), \
                (root.emit(), x)
        checked += len(xs)
    assert checked > 1000


_H = 1e-3  # the step of the compiled solves checked against the trees


def test_fused_rhs_follows_the_trees():
    # One step of H from each point x where the trees are defined, with the
    # stages inlined and with a call to the formula over the walked trees:
    # every stage value enters the table row, so the rows agree bit for bit.
    trees = _trees(12, 300)
    checked = 0
    for p, q, r in zip(trees[0::3], trees[1::3], trees[2::3]):
        factory = CoefficientSet(Expr(p), Expr(q), Expr(r)).steps(RK45)
        for x in _POINTS:
            h = (x + _H) - x  # the step the solve takes
            stage_points = [x + float(c) * h for c in tableaux.RK45.C] \
                + [x + h]
            if not all(_inside(root, t) for root in (p, q, r)
                       for t in stage_points) \
                    or any(_walk(p, t, _MATH) == 0.0 for t in stage_points):
                continue
            for lam, y in ((2.5, (0.7, -1.3)), (2.5 + 1j, (0.7 - 0.2j, 1j))):
                def formula(t, y):
                    pv, qv, rv = (_walk(root, t, _MATH) for root in (p, q, r))
                    return [y[1] / pv, (qv - lam * rv) * y[0]]
                args = (x, x + _H, *y, 1.0, 1.0, None, False, _H)
                assert repr(factory(lam).solve(*args)) \
                    == repr(RK45.steps(formula).solve(*args))
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("text, x", [("sqrt(x)", -1.0), ("log(x - 1)", 0.5),
                                     ("(1 + x**2)*log(x)", 0.0)])
def test_scalar_evaluator_names_the_expression(text, x):
    e = Expr.parse(text)
    for evaluate in (e, e.scalar):
        with pytest.raises(SpecFileError, match=re.escape(repr(text))):
            evaluate(x)
        with pytest.raises(SpecFileError, match=re.escape(repr(text))):
            evaluate(np.float64(x))


def test_compiled_step_error_goes_through_the_scalar_evaluators():
    # The solve's `_undefined` re-evaluates each coefficient with its scalar
    # evaluator, which raises itself: a SpecFileError naming q, with no
    # recursion back into the solve.
    coeffs = CoefficientSet.from_strings("1 + x**2", "log(x)", "1")
    solve = coeffs.steps(RK45)(1.0).solve
    with pytest.raises(SpecFileError, match=re.escape("'log(x)'")) as info:
        solve(-0.5, -0.4, 1.0, 0.0, 1e-8, 1e-10, None, False, 0.1)
    assert info.type is SpecFileError
    assert [entry.name for entry in info.traceback].count("solve") == 1


def _filename(fn):
    return fn.__code__.co_filename


def test_compiled_code_is_labelled_by_its_expressions():
    legendre = CoefficientSet.from_strings("(1-x)*(1+x)", "0", "1")
    oscillator = CoefficientSet.from_strings("1", "x**2", "1")
    labels = {}
    for name, coeffs in (("legendre", legendre), ("oscillator", oscillator)):
        for method in (RK45, DOP853):
            steps = coeffs.steps(method)(2.0)
            labels[name, method] = _filename(steps.solve)
    assert len(set(labels.values())) == len(labels)
    assert labels["legendre", RK45] == "<RK45 p=(1-x)*(1+x) q=0 r=1>"
    assert labels["oscillator", DOP853] == "<DOP853 p=1 q=x**2 r=1>"
    assert _filename(oscillator.q.scalar) == "<expr x**2>"
    assert _filename(quasi_pair(Expr.parse("sin(x)"), legendre.p)) == \
        "<pair f=sin(x) p=(1-x)*(1+x) d1=cos(x)>"
    long = Expr.parse("1 + x + x**2 + x**3 + x**4 + x**5")
    assert _filename(long.scalar) == "<expr 1 + x + x**2 + x**3 +...>"
    # Labels name code objects only: values are those of the coefficients.
    args = (-0.5, 0.75, 0.3, -1.1, 1e-10, 1e-13, None, True, None)
    for coeffs in (legendre, oscillator):
        assert coeffs.steps(RK45)(2.0).solve(*args) \
            == RK45.steps(_formula(coeffs, 2.0)).solve(*args)


def test_specs_with_one_text_share_code_objects():
    one = CoefficientSet.from_strings("1 + x**2", "log(x)", "1")
    two = CoefficientSet.from_strings("1 + x**2", "log(x)", "1")
    for a, b in ((one.q.scalar, two.q.scalar),
                 (one.steps(RK45)(2.0).solve, two.steps(RK45)(2.0).solve),
                 (one.steps(DOP853)(2.0).solve, two.steps(DOP853)(2.0).solve)):
        assert a is not b
        assert a.__code__ is b.__code__


def test_shared_code_names_its_own_expression():
    # Two texts of one tree whose labels agree up to the cut: one source,
    # one label, so one code object, run in each expression's namespace.
    texts = ("1 + x + x**2 + x**3 + x**4 + sqrt(x)",
             "1 + x + x**2 + x**3 + x**4 + sqrt( x )")
    exprs = [Expr.parse(text) for text in texts]
    p = Expr.parse("1")
    pairs = [quasi_pair(e, p) for e in exprs]
    assert exprs[0].scalar.__code__ is exprs[1].scalar.__code__
    assert pairs[0].__code__ is pairs[1].__code__
    for text, e, pair in zip(texts, exprs, pairs):
        for evaluate in (e.scalar, pair):
            with pytest.raises(SpecFileError,
                               match=re.escape(repr(text))):
                evaluate(-1.0)


def test_code_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(expressions, "CODE_CACHE_SIZE", 16)
    monkeypatch.setattr(expressions, "_CODE_CACHE", {})
    for k in range(40):
        coeffs = catalog(f"bessel({0.3 + k / 1000!r})").coeffs
        coeffs.steps(RK45)(0.0)
        coeffs.q.deriv()
        assert len(expressions._CODE_CACHE) <= 16
