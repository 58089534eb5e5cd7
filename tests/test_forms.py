"""Sesquilinear forms: base form, decorations, Green identities."""

import math
import warnings

import numpy as np
import pytest
from numpy.exceptions import ComplexWarning

from slq import forms, quadrature
from slq.bvalues import patched_pair
from slq.errors import (
    DomainConstraintViolated,
    EvaluationOutsideSupport,
    WindowInvalid,
)
from slq.expressions import Expr
from slq.extensions import Coupled, OneLC, Separated
from slq.forms import (
    REGIME_LC_LC,
    REGIME_LC_LP,
    REGIME_LP_LP,
    SIGMA,
    FormWindow,
    _complex,
    _pointwise_tau,
    green_identity_residual,
    q_base,
    q_decorated,
)
from slq.functions import (
    BumpFn,
    ExprFunction,
    ExpDecay,
    GaussianPoly,
    LinearCombination,
    polynomial,
)
from slq.odecore import ScaledSolution, tau_apply
from slq.problem import catalog, validate
from slq.quadrature import improper_integral, panel
from slq.solutions import construct_basis
from slq.triplets import triplet_green_residual


def test_q_base_sine_dirichlet(dirichlet, dirichlet_bases):
    # Q(sin, sin) = int_0^pi cos^2 = pi/2.
    f = ExprFunction(dirichlet, "sin(x)")
    fv = q_base(dirichlet, dirichlet_bases, None, REGIME_LC_LC, f, f)
    assert fv.value == pytest.approx(math.pi / 2, abs=1e-10)


def test_q_base_legendre_p1(legendre, legendre_bases):
    # Q(P1, P1) = int (1-x^2) dx = 4/3.
    f = polynomial(legendre, [0.0, 1.0])
    fv = q_base(legendre, legendre_bases, None, REGIME_LC_LC, f, f)
    assert fv.value == pytest.approx(4.0 / 3.0, abs=1e-8)


def test_q_base_hermitian_symmetry(dirichlet, dirichlet_bases):
    f = polynomial(dirichlet, [1.0, 0.3, -0.1])
    g = polynomial(dirichlet, [0.2, -0.7])
    qfg = q_base(dirichlet, dirichlet_bases, None, REGIME_LC_LC, f, g).value
    qgf = q_base(dirichlet, dirichlet_bases, None, REGIME_LC_LC, g, f).value
    assert qfg == pytest.approx(np.conj(qgf), abs=1e-10)


def test_q_base_cut_point_independence(dirichlet, dirichlet_bases):
    f = ExprFunction(dirichlet, "sin(x)")
    g = polynomial(dirichlet, [0.5, 0.5])
    vals = []
    for c, d in ((0.3, 2.8), (0.5, 2.4), (0.7, 3.0), (0.6, 2.6), (0.2, 2.9)):
        fv = q_base(dirichlet, dirichlet_bases, FormWindow(c, d),
                    REGIME_LC_LC, f, g)
        vals.append(fv.value)
    spread = max(vals) - min(vals)
    assert spread <= 1e-10 * (1 + abs(vals[0]))


def test_window_validation(dirichlet, dirichlet_bases):
    with pytest.raises(WindowInvalid):
        q_base(dirichlet, dirichlet_bases, FormWindow(2.0, 1.0),
               REGIME_LC_LC, polynomial(dirichlet, [1.0]),
               polynomial(dirichlet, [1.0]))


def test_q_decorated_separated_matches_manual(dirichlet, dirichlet_bases):
    alpha, beta = 0.4, 2.0
    f = polynomial(dirichlet, [1.0, 0.5])
    g = polynomial(dirichlet, [0.3, -0.2, 0.1])
    base = q_base(dirichlet, dirichlet_bases, None, REGIME_LC_LC, f, g).value
    fv = q_decorated(dirichlet, dirichlet_bases, None,
                     Separated(alpha, beta), f, g)
    fa, ga = f(0.0), g(0.0)
    fb, gb = f(math.pi), g(math.pi)
    want = base + fb * gb / math.tan(beta) - fa * ga / math.tan(alpha)
    assert fv.value == pytest.approx(want, abs=1e-10)


def test_q_decorated_friedrichs_requires_vanishing_tilde(dirichlet,
                                                         dirichlet_bases):
    f = polynomial(dirichlet, [1.0])
    with pytest.raises(DomainConstraintViolated):
        q_decorated(dirichlet, dirichlet_bases, None, Separated(0.0, 0.0),
                    f, f)


def test_q_decorated_friedrichs_on_vanishing_function(dirichlet,
                                                      dirichlet_bases):
    f = ExprFunction(dirichlet, "sin(x)")
    fv = q_decorated(dirichlet, dirichlet_bases, None, Separated(0.0, 0.0),
                     f, f)
    base = q_base(dirichlet, dirichlet_bases, None, REGIME_LC_LC, f, f).value
    assert fv.value == pytest.approx(base, abs=1e-12)


def test_q_decorated_coupled_hermitian(dirichlet, dirichlet_bases):
    ext = Coupled(0.7, ((2.0, 1.0), (1.0, 1.0)))
    f = polynomial(dirichlet, [1.0, 1.0, -0.3])
    g = polynomial(dirichlet, [0.5, -1.0, 0.2])
    qfg = q_decorated(dirichlet, dirichlet_bases, None, ext, f, g).value
    qgf = q_decorated(dirichlet, dirichlet_bases, None, ext, g, f).value
    assert qfg == pytest.approx(np.conj(qgf), abs=1e-10)
    qff = q_decorated(dirichlet, dirichlet_bases, None, ext, f, f).value
    assert abs(np.imag(complex(qff))) < 1e-12


def test_q_decorated_coupled_constraint(dirichlet, dirichlet_bases):
    # R12 = 0 restricts the domain: g~(b) = e^{i phi} R11 g~(a).
    ext = Coupled(math.pi / 2, ((1.0, 0.0), (0.0, 1.0)))
    f = polynomial(dirichlet, [1.0])
    with pytest.raises(DomainConstraintViolated):
        q_decorated(dirichlet, dirichlet_bases, None, ext, f, f)


def test_green_identity_two_lc(dirichlet, dirichlet_bases):
    f = ExprFunction(dirichlet, "sin(x)")
    g = polynomial(dirichlet, [0.3, 1.0, -0.2])
    res = green_identity_residual(dirichlet, dirichlet_bases, None, f, g)
    assert abs(res) < 1e-9


def test_green_identity_legendre(legendre, legendre_bases):
    f = polynomial(legendre, [0.0, 1.0])
    res = green_identity_residual(legendre, legendre_bases, None, f, f)
    assert abs(res) < 1e-8


def test_one_lc_form_and_green(free_halfline, free_halfline_bases):
    f = ExpDecay(free_halfline, [1.0], k=1.0)
    g = ExpDecay(free_halfline, [0.0, 1.0], k=1.5)
    # Q(f, g) = int_0^inf f' g' = -0.16 for these decaying pairs.
    fv = q_base(free_halfline, free_halfline_bases, None, REGIME_LC_LP, f, g)
    assert fv.value == pytest.approx(-0.16, abs=1e-9)
    res = green_identity_residual(free_halfline, free_halfline_bases, None,
                                  f, g, regime=REGIME_LC_LP)
    assert abs(res) < 1e-9


def test_one_lc_decoration(free_halfline, free_halfline_bases):
    alpha = 0.3
    f = ExpDecay(free_halfline, [1.0], k=1.0)
    g = ExpDecay(free_halfline, [2.0, 1.0], k=1.5)
    base = q_base(free_halfline, free_halfline_bases, None,
                  REGIME_LC_LP, f, g).value
    fv = q_decorated(free_halfline, free_halfline_bases, None,
                     OneLC(alpha=alpha, lc_endpoint="a"), f, g)
    want = base - f(0.0) * g(0.0) / math.tan(alpha)
    assert fv.value == pytest.approx(want, abs=1e-10)


def test_lp_lp_oscillator_identity(oscillator, oscillator_bases):
    # tau h_n = (2n + 1) h_n for Hermite functions; Q is the Rayleigh form.
    h0 = GaussianPoly.hermite(oscillator, 0)
    h1 = GaussianPoly.hermite(oscillator, 1)
    fv = q_base(oscillator, oscillator_bases, None, REGIME_LP_LP, h0, h0)
    assert fv.value == pytest.approx(math.sqrt(math.pi), abs=1e-9)
    cross = q_base(oscillator, oscillator_bases, None, REGIME_LP_LP, h0, h1)
    assert abs(cross.value) < 1e-9
    res = green_identity_residual(oscillator, oscillator_bases, None,
                                  h0, h1, regime=REGIME_LP_LP)
    assert abs(res) < 1e-9


def test_complex_improper_probes_inside_the_range():
    # The integrand is defined only on the integration range; deciding
    # between the real and the complex path must evaluate it nowhere else,
    # toward either infinite endpoint.
    def left(x):
        if x > -1.0:
            raise EvaluationOutsideSupport(f"outside support at {x}")
        return math.exp(x)

    def right(x):
        if x < 1.0:
            raise EvaluationOutsideSupport(f"outside support at {x}")
        return math.exp(-x)

    val, _, ok, div = _complex(improper_integral, left, -1.0, -math.inf)
    assert ok and not div
    assert val == pytest.approx(-math.exp(-1.0), rel=1e-12)
    val, _, ok, div = _complex(improper_integral, right, 1.0, math.inf)
    assert ok and not div
    assert val == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_complex_keeps_a_numpy_imaginary_part():
    # A numpy complex converts to float with only a ComplexWarning, so quad
    # would integrate its real part alone.
    def fn(x):
        return np.complex128(complex(x, x * x))

    val, _, ok, div = _complex(panel, fn, 0.0, 1.0)
    assert ok and not div
    assert val == pytest.approx(complex(0.5, 1.0 / 3.0), rel=1e-12)

    def decaying(x):
        return np.complex128(complex(math.exp(-x), 2.0 * math.exp(-x)))

    val, _, ok, div = _complex(improper_integral, decaying, 0.0, math.inf)
    assert ok and not div
    assert val == pytest.approx(complex(1.0, 2.0), rel=1e-10)


def test_panel_refuses_a_numpy_complex_integrand():
    with pytest.raises(ComplexWarning):
        panel(lambda x: np.complex128(complex(x, 1.0)), 0.0, 1.0)


def test_panel_leaves_the_warning_filters_as_it_found_them():
    # panel refuses a numpy complex by its type: the process-wide filters
    # are neither swapped during the call nor changed after it.
    filters, contents = warnings.filters, list(warnings.filters)
    seen = []

    def fn(x):
        seen.append(warnings.filters is filters
                    and warnings.filters == contents)
        return x * x

    panel(fn, 0.0, 1.0)
    with pytest.raises(ComplexWarning):
        panel(lambda x: np.complex128(complex(x, 1.0)), 0.0, 1.0)
    assert seen and all(seen)
    assert warnings.filters is filters and warnings.filters == contents


def test_green_keeps_an_imaginary_part_that_vanishes_at_a_node(
        legendre, legendre_bases):
    # tau(x^3) = 12x^3 - 6x on Legendre vanishes at x = 0, the midpoint of
    # the middle panel, so there g = x^2 + i x^3 gives a real tau g.  The
    # pairing must still integrate the imaginary part, whose middle panel
    # alone contributes int x tau(x^3) = -0.5484375 over (-3/4, 3/4).
    f = polynomial(legendre, [0.0, 1.0])
    g = LinearCombination([1.0, 1j], [polynomial(legendre, [0.0, 0.0, 1.0]),
                                      polynomial(legendre,
                                                 [0.0, 0.0, 0.0, 1.0])])
    res = green_identity_residual(legendre, legendre_bases, None, f, g)
    assert abs(res) <= 1e-9
    assert abs(triplet_green_residual(legendre, legendre_bases, f, g)) <= 1e-9


@pytest.mark.parametrize("kind", ["v1", "polynomial", "combination"])
def test_pointwise_tau_equals_tau_apply(legendre, legendre_bases, kind):
    # One tau: the Green pairing's pointwise tau is tau_apply at a
    # one-point grid, bit for bit.  v1 supplies its own exact tau, the
    # polynomial takes the exact path and the combination the stencil.
    g = {
        "v1": lambda: patched_pair(legendre, *legendre_bases).v1,
        "polynomial": lambda: polynomial(legendre, [0.3, -1.0, 0.0, 2.5]),
        "combination": lambda: LinearCombination(
            [1.0, -0.5], [polynomial(legendre, [0.0, 1.0, 1.0]),
                          ExprFunction(legendre, "sin(x)")]),
    }[kind]()
    tau = _pointwise_tau(legendre, g)
    for x in (-0.95, -0.6, -0.1, 0.0, 0.35, 0.8, 0.97):
        assert tau(x) == tau_apply(legendre, g, [x])[0]


def _fresh_bases(spec):
    """Bases of their own, so that no trajectory memo is warm."""
    return (construct_basis(spec, "a"), construct_basis(spec, "b"))


def _count_lookups(monkeypatch, counts, points=None):
    """Count ScaledSolution.log_pair calls into counts["lookups"]; with
    `points`, also collect the (trajectory, x) pairs looked up."""
    real_log_pair = ScaledSolution.log_pair

    def counting_log_pair(self, x):
        counts["lookups"] += 1
        if points is not None:
            points.add((id(self), float(x)))
        return real_log_pair(self, x)

    monkeypatch.setattr(ScaledSolution, "log_pair", counting_log_pair)


def _count_quad_evals(monkeypatch, counts):
    real_quad = quadrature.quad

    def counting_quad(f, a, b, **kw):
        out = real_quad(f, a, b, full_output=1, **kw)
        counts["evals"] += out[2]["neval"]
        return out[0], out[1]

    monkeypatch.setattr(quadrature, "quad", counting_quad)


def test_q_base_looks_up_the_reference_once_per_node(legendre, monkeypatch):
    # Each node of a side integral looks the reference solution up once,
    # so trajectory lookups cannot outnumber QUADPACK's integrand calls.
    bases = _fresh_bases(legendre)
    counts = {"lookups": 0, "evals": 0}
    _count_quad_evals(monkeypatch, counts)
    _count_lookups(monkeypatch, counts)
    f = polynomial(legendre, [0.0, 1.0])
    g = polynomial(legendre, [0.0, 0.0, 1.0])
    q_base(legendre, bases, None, REGIME_LC_LC, f, g)
    assert 0 < counts["lookups"] <= counts["evals"]


def test_gram_computes_each_trajectory_point_once(legendre, monkeypatch):
    # A Friedrichs Gram reuses the bases and the window, so QUADPACK asks
    # for the same nodes again and again; each (trajectory, x) is computed
    # once.
    bases = _fresh_bases(legendre)
    counts = {"lookups": 0}
    points = set()
    _count_lookups(monkeypatch, counts, points)
    monomials = [polynomial(legendre, [0.0] * k + [1.0]) for k in range(4)]
    gram = [[q_decorated(legendre, bases, None, Separated(0.0, 0.0),
                         f, g).value for g in monomials] for f in monomials]
    assert counts["lookups"] == len(points) > 0
    # int_{-1}^{1} (1 - x^2) (x^i)' (x^j)' dx.
    for i in range(4):
        for j in range(4):
            n = i + j - 2
            want = 0.0 if i * j == 0 or n % 2 else \
                i * j * (2.0 / (n + 1) - 2.0 / (n + 3))
            assert gram[i][j] == pytest.approx(want, abs=1e-8)


def test_q_decorated_on_warm_bases_equals_fresh_bases(legendre,
                                                      legendre_bases):
    # The trajectory memos return what a computation returns, so a form
    # does not depend on what was evaluated on the bases before it.
    f = polynomial(legendre, [0.3, 0.2, 1.0, 0.7])

    def forms(bases):
        v1 = patched_pair(legendre, *bases).v1
        return [q_decorated(legendre, bases, None, Separated(0.7, 1.9),
                            a, b) for a, b in ((f, f), (v1, f))]

    forms(legendre_bases)
    warm = forms(legendre_bases)
    fresh = forms(_fresh_bases(legendre))
    for w, c in zip(warm, fresh):
        assert w.value == c.value
        assert w.pieces == c.pieces
        assert w.error == c.error


def test_q_base_coefficient_calls_do_not_grow_with_nodes(legendre,
                                                         legendre_bases,
                                                         monkeypatch):
    # Per-node callbacks evaluate p, q and r through their compiled scalar
    # evaluators, not through Expr.__call__'s array-or-scalar dispatch.
    counts = {"calls": 0, "evals": 0}
    real_call = Expr.__call__

    def counting_call(self, x):
        counts["calls"] += 1
        return real_call(self, x)

    _count_quad_evals(monkeypatch, counts)
    monkeypatch.setattr(Expr, "__call__", counting_call)
    seen = []
    for coeffs in ([0.0, 1.0], [1.0, 0.5, -0.8, 0.3]):
        counts.update(calls=0, evals=0)
        f = polynomial(legendre, coeffs)
        q_base(legendre, legendre_bases, None, REGIME_LC_LC, f, f)
        seen.append(dict(counts))
    assert seen[0]["evals"] != seen[1]["evals"]
    assert seen[0]["calls"] == seen[1]["calls"]


def test_q_base_is_sesquilinear_in_complex_multiples(legendre,
                                                     legendre_bases):
    # Antilinear in f, linear in g: q(i f, g) = -i q(f, g) and
    # q(f, i g) = i q(f, g), through the complex path of every integral.
    f = polynomial(legendre, [0.0, 1.0])
    g = polynomial(legendre, [0.5, 1.0, 0.3])

    def q(u, v):
        return q_base(legendre, legendre_bases, None, REGIME_LC_LC,
                      u, v).value

    base = q(f, g)
    assert base == pytest.approx(4.0 / 3.0, abs=1e-8)
    i_f = LinearCombination([1j], [f])
    i_g = LinearCombination([1j], [g])
    assert abs(q(i_f, g) - (-1j) * base) <= 1e-12
    assert abs(q(f, i_g) - 1j * base) <= 1e-12


def _windowed(side, fn):
    """A side integral by improper_integral's windows toward every end, the
    route a singular end takes."""
    val, e, ok, div = _complex(improper_integral, fn, side.cut,
                               side.endpoint, cutoff=side.cutoff)
    return -SIGMA[side.end] * val, e, ok, div


def test_a_regular_side_makes_no_improper_integral_call(
        monkeypatch, free_halfline, free_halfline_bases, dirichlet,
        dirichlet_bases):
    endpoints = []

    def counted(f, start, endpoint, **kw):
        endpoints.append(endpoint)
        return improper_integral(f, start, endpoint, **kw)

    monkeypatch.setattr(forms, "improper_integral", counted)
    f, g = BumpFn(free_halfline, 0.1, 0.75), BumpFn(free_halfline, -0.1, 0.72)
    q_base(free_halfline, free_halfline_bases, None, REGIME_LC_LP, f, g)
    green_identity_residual(free_halfline, free_halfline_bases, None, f, g,
                            regime=REGIME_LC_LP)
    # Only the limit-point side at infinity is improper.
    assert endpoints and set(endpoints) == {math.inf}
    endpoints.clear()
    f = polynomial(dirichlet, [1.0, 0.3, -0.1])
    g = ExprFunction(dirichlet, "sin(x) + 0.5")
    q_base(dirichlet, dirichlet_bases, None, REGIME_LC_LC, f, g)
    green_identity_residual(dirichlet, dirichlet_bases, None, f, g)
    triplet_green_residual(dirichlet, dirichlet_bases, f, g)
    assert endpoints == []


@pytest.fixture(scope="module")
def bessel_03():
    spec = catalog("bessel(0.3)")
    validate(spec)
    return spec, (construct_basis(spec, "a"), construct_basis(spec, "b"))


def _regular_end_cases(problem, request):
    if problem == "free_halfline":
        spec = request.getfixturevalue("free_halfline")
        bases = request.getfixturevalue("free_halfline_bases")
        return spec, bases, REGIME_LC_LP, [
            (BumpFn(spec, 0.1, 0.75), BumpFn(spec, -0.1, 0.72)),
            (GaussianPoly(spec, [1.0, 0.25]), GaussianPoly(spec, [0.5, -0.5])),
            (ExpDecay(spec, [1.0], k=1.0), ExpDecay(spec, [0.0, 1.0], k=1.5))]
    if problem == "bessel(0.3)":
        # Regular at b = 1; the functions vanish fast enough at the
        # singular end a = 0 to lie in the form domain.
        spec, bases = request.getfixturevalue("bessel_03")
        return spec, bases, REGIME_LC_LC, [
            (BumpFn(spec, 0.9, 0.5), BumpFn(spec, 0.85, 0.45)),
            (ExprFunction(spec, "x**3"), ExprFunction(spec, "x**2*(2-x)")),
            (BumpFn(spec, 0.9, 0.5), ExprFunction(spec, "x**2"))]
    spec = request.getfixturevalue("dirichlet")
    bases = request.getfixturevalue("dirichlet_bases")
    return spec, bases, REGIME_LC_LC, [
        (polynomial(spec, [1.0, 0.3, -0.1]), polynomial(spec, [0.2, -0.7])),
        (ExprFunction(spec, "sin(x) + 0.5"), ExprFunction(spec, "cos(x)"))]


@pytest.mark.parametrize("problem",
                         ["free_halfline", "bessel(0.3)", "dirichlet"])
def test_regular_side_panel_agrees_with_the_windowed_route(problem, request,
                                                           monkeypatch):
    spec, bases, regime, pairs = _regular_end_cases(problem, request)
    assert any(basis.regular for basis in bases)
    for f, g in pairs:
        one = q_base(spec, bases, None, regime, f, g)
        with monkeypatch.context() as m:
            m.setattr(forms.Side, "integral", _windowed)
            windowed = q_base(spec, bases, None, regime, f, g)
        assert abs(one.value - windowed.value) \
            <= one.error + windowed.error, (f, g, one.value, windowed.value)


def test_halfline_green_residual_of_two_bumps(free_halfline,
                                              free_halfline_bases):
    f, g = BumpFn(free_halfline, 0.1, 0.75), BumpFn(free_halfline, -0.1, 0.72)
    res = green_identity_residual(free_halfline, free_halfline_bases, None,
                                  f, g, regime=REGIME_LC_LP)
    assert abs(res) <= 1e-12
