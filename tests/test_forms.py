"""Sesquilinear forms: base form, decorations, Green identities."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from slq import forms, quadrature
from slq.bvalues import patched_pair
from slq.errors import (
    DomainConstraintViolated,
    EvaluationOutsideSupport,
    FormIntegralDiverges,
    VariantMismatch,
    WindowInvalid,
)
from slq.expressions import Expr
from slq.extensions import Coupled, OneLC, Separated
from slq.forms import (
    REGIME_LC_LC,
    REGIME_LC_LP,
    REGIME_LP_LC,
    REGIME_LP_LP,
    SIGMA,
    FormWindow,
    green_identity_residual,
    q_base,
    q_decorated,
)
from slq.functions import (
    BumpFn,
    ExprFunction,
    LinearCombination,
    polynomial,
)
from slq.odecore import ScaledSolution, integrate_tau, tau_apply
from slq.problem import catalog, validate
from slq.quadrature import improper_integral, panel
from slq.solutions import ReductionSolution, construct_basis
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
    f = ExprFunction(free_halfline, "exp(-x)")
    g = ExprFunction(free_halfline, "x*exp(-1.5*x)")
    # Q(f, g) = int_0^inf f' g' = -0.16 for these decaying pairs.
    fv = q_base(free_halfline, free_halfline_bases, None, REGIME_LC_LP, f, g)
    assert fv.value == pytest.approx(-0.16, abs=1e-9)
    res = green_identity_residual(free_halfline, free_halfline_bases, None,
                                  f, g, regime=REGIME_LC_LP)
    assert abs(res) < 1e-9


def test_one_lc_decoration(free_halfline, free_halfline_bases):
    alpha = 0.3
    f = ExprFunction(free_halfline, "exp(-x)")
    g = ExprFunction(free_halfline, "(2 + x)*exp(-1.5*x)")
    base = q_base(free_halfline, free_halfline_bases, None,
                  REGIME_LC_LP, f, g).value
    fv = q_decorated(free_halfline, free_halfline_bases, None,
                     OneLC(alpha=alpha, lc_endpoint="a"), f, g)
    want = base - f(0.0) * g(0.0) / math.tan(alpha)
    assert fv.value == pytest.approx(want, abs=1e-10)


def test_lp_lp_oscillator_identity(oscillator, oscillator_bases):
    # tau h_n = (2n + 1) h_n for Hermite functions; Q is the Rayleigh form.
    h0 = ExprFunction(oscillator, "exp(-x**2/2)")
    h1 = ExprFunction(oscillator, "2*x*exp(-x**2/2)")
    fv = q_base(oscillator, oscillator_bases, None, REGIME_LP_LP, h0, h0)
    assert fv.value == pytest.approx(math.sqrt(math.pi), abs=1e-9)
    cross = q_base(oscillator, oscillator_bases, None, REGIME_LP_LP, h0, h1)
    assert abs(cross.value) < 1e-9
    res = green_identity_residual(oscillator, oscillator_bases, None,
                                  h0, h1, regime=REGIME_LP_LP)
    assert abs(res) < 1e-9


def test_l2_check_runs_to_the_edge_of_the_functions_own_support():
    # bessel(1.5) is limit point at 0, where u's support ends at 1.9e-6.
    # r |f|^2 is integrated toward 0 up to the edge of f's support: the
    # bounded 1 + x/4 was once refused as outside L^2(r) because the sweep
    # stopped at u's edge.  u and v2 are principal at 0, u_hat and v1 are
    # not; x^-0.4 is square integrable there and 1/x is not.
    spec = catalog("bessel(1.5)")
    validate(spec)
    bases = (construct_basis(spec, "a"), construct_basis(spec, "b"))
    sides = [side for side in forms._sides(
        spec, bases, forms.default_window(spec, *bases), REGIME_LP_LC)
        if side is not None]
    assert [side.end for side in sides] == ["a"]
    assert sides[0].cutoff > 1e-6
    pp = patched_pair(spec, *bases)
    accepted = [ExprFunction(spec, "1 + 0.25*x"),
                ExprFunction(spec, "x**(-0.4)"), bases[0].u, pp.v2]
    refused = [ExprFunction(spec, "1/x"), bases[0].u_hat, pp.v1]
    for fn in accepted:
        forms._check_square_integrable(spec, sides, (fn,))
    for fn in refused:
        with pytest.raises(FormIntegralDiverges, match="endpoint a"):
            forms._check_square_integrable(spec, sides, (fn,))


@pytest.mark.parametrize("regime", [REGIME_LP_LP, REGIME_LC_LP])
def test_a_regime_that_calls_a_regular_end_limit_point_is_refused(
        dirichlet, dirichlet_bases, regime):
    # Both ends of (0, pi) are regular, hence limit circle: a regime that
    # takes either as limit point does not fit the bases.  It once gave
    # q_base(f, f) = 0.1257 and a Green residual of -0.1257 under LP-LP.
    f = polynomial(dirichlet, [1.0, 0.2])
    with pytest.raises(VariantMismatch):
        q_base(dirichlet, dirichlet_bases, None, regime, f, f)
    with pytest.raises(VariantMismatch):
        green_identity_residual(dirichlet, dirichlet_bases, None, f, f,
                                regime=regime)


def test_complex_improper_probes_inside_the_range():
    # The integrand is defined only on the integration range: the sweep
    # evaluates it nowhere else, toward either infinite endpoint.
    def left(x):
        if x > -1.0:
            raise EvaluationOutsideSupport(f"outside support at {x}")
        return math.exp(x)

    def right(x):
        if x < 1.0:
            raise EvaluationOutsideSupport(f"outside support at {x}")
        return math.exp(-x)

    res = improper_integral(left, -1.0, -math.inf)
    assert res.converged and not res.diverged
    assert res.value == pytest.approx(-math.exp(-1.0), rel=1e-12)
    res = improper_integral(right, 1.0, math.inf)
    assert res.converged and not res.diverged
    assert res.value == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_complex_keeps_a_numpy_imaginary_part():
    # float() cuts a numpy complex to its real part with only a warning;
    # quad takes it as a Python complex instead, imaginary part and all.
    def fn(x):
        return np.complex128(complex(x, x * x))

    val, _ = panel(fn, 0.0, 1.0)
    assert val == pytest.approx(complex(0.5, 1.0 / 3.0), rel=1e-12)

    def decaying(x):
        return np.complex128(complex(math.exp(-x), 2.0 * math.exp(-x)))

    res = improper_integral(decaying, 0.0, math.inf)
    assert res.converged and not res.diverged
    assert res.value == pytest.approx(complex(1.0, 2.0), rel=1e-10)


def test_panel_takes_a_numpy_complex_integrand():
    # A numpy complex128 node is a complex already: panel gives the value
    # and error of the same integrand in Python complex numbers, bit for
    # bit, and warns nothing on the way.
    def fn(x):
        return complex(x, 1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = panel(lambda x: np.complex128(fn(x)), 0.0, 1.0)
    assert type(got[0]) is complex and got[0].imag == 1.0
    assert got == panel(fn, 0.0, 1.0)


# Every kind of complex node value: Python's, numpy's three complex
# scalars, and a 0-d complex array.
_COMPLEX_NODES = {
    "complex": complex,
    "complex64": np.complex64,
    "complex128": np.complex128,
    "clongdouble": np.clongdouble,
    "0d_array": lambda z: np.array(z),
}


@pytest.mark.parametrize("make", _COMPLEX_NODES.values(),
                         ids=_COMPLEX_NODES.keys())
def test_complex_integrates_every_complex_node_type(make):
    # Each node type integrates to the value of the same integrand as
    # Python complex numbers.  complex64 rounds its nodes to single
    # precision, so its values are that close.
    def fn(x):
        return complex(math.cos(x), x * x)

    want = panel(fn, 0.0, 1.0)
    got = panel(lambda x: make(fn(x)), 0.0, 1.0)
    assert type(got[0]) is complex
    rel = 1e-6 if make is np.complex64 else 1e-15
    assert got[0] == pytest.approx(want[0], rel=rel)


@pytest.mark.parametrize("make", _COMPLEX_NODES.values(),
                         ids=_COMPLEX_NODES.keys())
def test_panel_takes_every_complex_node_type(make):
    # Each node is taken as complex(node), with no warning (no float()
    # cutting off the imaginary part): value and error are bit for bit
    # those of an integrand that converts its nodes itself.
    def fn(x):
        return make(complex(x, 1.0))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = panel(fn, 0.0, 1.0)
    assert type(got[0]) is complex and got[0].imag != 0.0
    assert got == panel(lambda x: complex(fn(x)), 0.0, 1.0)


def test_panel_leaves_the_warning_filters_as_it_found_them():
    # panel takes a numpy complex by its type, not through float(): the
    # process-wide filters are neither swapped during the call nor changed
    # after it.
    filters, contents = warnings.filters, list(warnings.filters)
    seen = []

    def fn(x):
        seen.append(warnings.filters is filters
                    and warnings.filters == contents)
        return x * x

    panel(fn, 0.0, 1.0)
    panel(lambda x: np.complex128(fn(x) + 1j), 0.0, 1.0)
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
    # One tau: the Green pairing's pointwise tau, g.tau, is tau_apply at a
    # one-point grid, bit for bit.  v1 is a blend, the polynomial an
    # AnalyticFn and the combination sums its members' tau.
    g = {
        "v1": lambda: patched_pair(legendre, *legendre_bases).v1,
        "polynomial": lambda: polynomial(legendre, [0.3, -1.0, 0.0, 2.5]),
        "combination": lambda: LinearCombination(
            [1.0, -0.5], [polynomial(legendre, [0.0, 1.0, 1.0]),
                          ExprFunction(legendre, "sin(x)")]),
    }[kind]()
    for x in (-0.95, -0.6, -0.1, 0.0, 0.35, 0.8, 0.97):
        assert g.tau(x) == tau_apply(g, [x])[0]


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
    # A node of an x-panel looks each trajectory up at most once, so the
    # lookups made outside the s-maps' root-finding cannot outnumber
    # QUADPACK's integrand calls.  A node of an LC side's s-panel reads
    # u_hat from its root-finding, which takes each new node once, in a
    # few Newton steps of one lookup of u and one of u_hat each.
    bases = _fresh_bases(legendre)
    counts = {"lookups": 0, "evals": 0}
    _count_quad_evals(monkeypatch, counts)
    _count_lookups(monkeypatch, counts)
    finding = {"lookups": 0, "nodes": 0}
    real_node = forms.SMap.node

    def counting_node(self, s):
        if s in self._nodes:
            return real_node(self, s)
        before = counts["lookups"]
        out = real_node(self, s)
        finding["lookups"] += counts["lookups"] - before
        finding["nodes"] += 1
        return out

    monkeypatch.setattr(forms.SMap, "node", counting_node)
    f = polynomial(legendre, [0.0, 1.0])
    g = polynomial(legendre, [0.0, 0.0, 1.0])
    q_base(legendre, bases, None, REGIME_LC_LC, f, g)
    assert 0 < counts["lookups"] - finding["lookups"] <= counts["evals"]
    assert 0 < finding["lookups"] <= 2 * 6 * finding["nodes"]


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


def test_a_second_gram_on_warm_bases_builds_no_s_map(legendre, monkeypatch):
    # Each LC side's s-map is built on first use, once per (basis, cut):
    # two on fresh Legendre bases at the default window, none for a second
    # Gram on the same bases.
    bases = _fresh_bases(legendre)
    assert all(basis._s_maps == {} for basis in bases)
    built = []
    real_init = forms.SMap.__init__

    def counting_init(self, spec, side):
        built.append(side.end)
        real_init(self, spec, side)

    monkeypatch.setattr(forms.SMap, "__init__", counting_init)
    monomials = [polynomial(legendre, [0.0] * k + [1.0]) for k in range(4)]

    def gram():
        return [[q_decorated(legendre, bases, None, Separated(0.0, 0.0),
                             f, g).value for g in monomials]
                for f in monomials]

    first = gram()
    assert sorted(built) == ["a", "b"]
    built.clear()
    assert gram() == first
    assert built == []


def test_a_reduction_basis_form_computes_each_trajectory_point_once(
        monkeypatch):
    # At bessel(0.3)'s 0, u is w T by reduction of order and u_hat = c w,
    # and both read w through its memoized pair: the s-map's root-finding
    # and the form's nodes compute each point of w once.  Each node is a
    # root of s(x) = s to the resolution of x or of s.
    spec = catalog("bessel(0.3)")
    validate(spec)
    bases = _fresh_bases(spec)
    basis = bases[0]
    assert isinstance(basis.u, ReductionSolution)
    counts = {"lookups": 0}
    points = set()
    _count_lookups(monkeypatch, counts, points)
    f = ExprFunction(spec, "x**0.8*(1 - x)")
    fv = q_base(spec, bases, None, REGIME_LC_LC, f, f)
    assert counts["lookups"] == len(points) > 0
    assert abs(fv.value - 5 / 13) <= fv.error
    [smap] = basis._s_maps.values()
    assert len(smap._nodes) > len(smap.xs)
    for s, (x, hu, hu1) in smap._nodes.items():
        assert smap.edge <= x <= smap.xs[-1]
        assert (hu, hu1) == basis.u_hat.pair(x)
        sx, ds, _, _ = smap._s(x)
        assert abs(sx - s) <= 4 * math.ulp(s) + 4 * ds * math.ulp(x)


@pytest.mark.parametrize("c", [0.55, 0.75, 0.9, 0.95])
def test_legendre_form_is_cut_point_independent(legendre, legendre_bases, c):
    # int (1 - x^2) f'^2 over (-1, 1): 4/3 for f = x, 64/63 for f = x^4,
    # whatever the window (-c, c); the form's error covers its error.
    for k, want in ((1, 4 / 3), (4, 64 / 63)):
        f = polynomial(legendre, [0.0] * k + [1.0])
        fv = q_base(legendre, legendre_bases, FormWindow(-c, c),
                    REGIME_LC_LC, f, f)
        assert abs(fv.value - want) <= 1e-9, (k, fv.value)
        assert abs(fv.value - want) <= fv.error, (k, fv.value, fv.error)


@pytest.mark.parametrize("gamma, want", [(0.0, 5 / 16), (0.3, 5 / 13),
                                         (0.7, 55 / 78)])
def test_bessel_form_of_a_power_matches_its_closed_form(gamma, want):
    # f = x^0.8 (1 - x) has f~ = 0 at 0, so q_base(f, f) is
    # int f'^2 + (gamma^2 - 1/4) f^2 / x^2.  At gamma = 0.7, W(u_hat, f)
    # grows like x^-0.4 and f~' does not exist: the form must then be
    # refused, or come back within its error.
    spec = catalog(f"bessel({gamma})")
    validate(spec)
    bases = (construct_basis(spec, "a"), construct_basis(spec, "b"))
    f = ExprFunction(spec, "x**0.8*(1 - x)")
    if gamma == 0.7:
        try:
            fv = q_base(spec, bases, None, REGIME_LC_LC, f, f)
        except FormIntegralDiverges:
            return
        assert abs(fv.value - want) <= fv.error
    else:
        fv = q_base(spec, bases, None, REGIME_LC_LC, f, f)
        assert abs(fv.value - want) <= 1e-9


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


def test_a_complex_q_base_takes_one_quadrature_pass(monkeypatch, legendre,
                                                   legendre_bases):
    # f = x + i x^3 and g = (1 + x^2)/2 - 2i x on Legendre: q(f, g) =
    # int (1 - x^2) conj(f') g' = -1.6 - 8i/3.  Each integral takes its
    # complex integrand in one pass; integrating the real and imaginary
    # parts in turn took 13,692 integrand calls.
    calls = [0]
    quad = quadrature.quad

    def counted(f, a, b, **kw):
        val, err, info = quad(f, a, b, full_output=1, **kw)
        calls[0] += info["neval"]
        return val, err

    monkeypatch.setattr(quadrature, "quad", counted)
    f = LinearCombination([1.0, 1j], [polynomial(legendre, [0.0, 1.0]),
                                      polynomial(legendre,
                                                 [0.0, 0.0, 0.0, 1.0])])
    g = LinearCombination([1.0, -2j], [polynomial(legendre, [0.5, 0.0, 0.5]),
                                       polynomial(legendre, [0.0, 1.0])])
    res = q_base(legendre, legendre_bases, None, REGIME_LC_LC, f, g)
    assert abs(res.value - complex(-1.6, -8.0 / 3.0)) <= res.error < 1e-8
    assert calls[0] <= 0.55 * 13_692


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
            (ExprFunction(spec, "(1 + 0.25*x)*exp(-x**2/2)"),
             ExprFunction(spec, "(0.5 - 0.5*x)*exp(-x**2/2)")),
            (ExprFunction(spec, "exp(-x)"),
             ExprFunction(spec, "x*exp(-1.5*x)"))]
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


def _cut_and_regularized(spec, bases, regime, f, g):
    """(value, error) of the base form with every regular end cut at the
    default window and regularized as a singular limit-circle end is: over
    the side, the N-integral of w = u_hat and the lambda0 mass, plus the
    boundary correction SIGMA[end] (u_hat^[1]/u_hat)(cut) f(cut) g(cut),
    each side integral proper and split at the breaks (`_piecewise`).  The
    middle Dirichlet integral runs between the cuts; the pieces of the
    singular ends are q_base's own.  f and g are real.

    u_hat is the classical basis's, (1, 0) at the endpoint, marched at
    rtol 1e-13: the basis's own march at 1e-11 leaves 1.4e-12 in
    u_hat^[1] at d on bessel(0.3), and the route adds no allowance for
    it."""
    window = forms.default_window(spec, *bases)
    p, q, r = spec.p.scalar, spec.q.scalar, spec.r.scalar
    breaks = f.breaks + g.breaks

    def middle(x):
        fu, fu1 = f.pair(x)
        gu, gu1 = g.pair(x)
        return fu1 * gu1 / p(x) + q(x) * fu * gu

    value, err = forms._piecewise(middle, window.c, window.d, breaks)
    pieces = q_base(spec, bases, window, regime, f, g).pieces
    value += sum(v for name, v in pieces.items()
                 if name != "middle_dirichlet_integral")
    for end, endpoint, basis, cut in zip("ab", spec.interval.endpoints(),
                                         bases, (window.c, window.d)):
        if not basis.regular:
            continue
        w = integrate_tau(spec, spec.lambda0, endpoint, (1.0, 0.0), cut,
                          tol=1e-13)

        def side(x, w=w):
            wu, wu1 = w.pair(x)
            fu, fu1 = f.pair(x)
            gu, gu1 = g.pair(x)
            root_p = math.sqrt(p(x))
            nf = (fu1 * wu - fu * wu1) / (root_p * wu)
            ng = (gu1 * wu - gu * wu1) / (root_p * wu)
            return nf * ng + spec.lambda0 * r(x) * fu * gu

        val, e = forms._piecewise(side, cut, endpoint, breaks)
        wu, wu1 = w.pair(cut)
        value += -SIGMA[end] * val + SIGMA[end] * (wu1 / wu) * f(cut) * g(cut)
        err += e
    return value, err


@pytest.mark.parametrize("problem",
                         ["free_halfline", "bessel(0.3)", "dirichlet"])
def test_regular_side_panel_agrees_with_the_windowed_route(problem, request):
    # At a regular end u_hat^[1] = 0, so the side's N-integral, its mass and
    # the cut correction add up to the classical integral over the side:
    # the form without a cut there equals the cut-and-regularize route.
    spec, bases, regime, pairs = _regular_end_cases(problem, request)
    regular = [end for end, basis in zip("ab", bases) if basis.regular]
    assert regular
    for f, g in pairs:
        one = q_base(spec, bases, None, regime, f, g)
        for end in regular:
            side, cut = forms._PIECE_NAMES[end]
            assert not any(name.startswith(side) or name.endswith(f"_{cut}")
                           for name in one.pieces), one.pieces
        value, err = _cut_and_regularized(spec, bases, regime, f, g)
        assert abs(one.value - value) <= one.error + err, \
            (f, g, one.value, value)


def test_a_regular_end_adds_no_piece_and_no_allowance(dirichlet,
                                                     dirichlet_bases):
    # Both ends of (0, pi) are regular: the form is the classical
    # integral of cos^2, one middle piece, with no lead-term allowance.
    f = ExprFunction(dirichlet, "sin(x)")
    fv = q_base(dirichlet, dirichlet_bases, None, REGIME_LC_LC, f, f)
    assert set(fv.pieces) == {"decoration_terms",
                              "middle_dirichlet_integral"}
    assert abs(fv.value - math.pi / 2) <= 1e-13
    assert fv.error <= 1e-13


def test_halfline_green_residual_of_two_bumps(free_halfline,
                                              free_halfline_bases):
    f, g = BumpFn(free_halfline, 0.1, 0.75), BumpFn(free_halfline, -0.1, 0.72)
    res = green_identity_residual(free_halfline, free_halfline_bases, None,
                                  f, g, regime=REGIME_LC_LP)
    assert abs(res) <= 1e-12


def _middle_reference(spec, window, f, g, points):
    """The middle Dirichlet integral of (f, g) by scipy's quad, told the
    points where f and g are not analytic (QUADPACK's dqagp)."""
    p, q = spec.p.scalar, spec.q.scalar

    def middle(x):
        fu, fu1 = f.pair(x)
        gu, gu1 = g.pair(x)
        return fu1 * gu1 / p(x) + q(x) * fu * gu

    return scipy_quad(middle, window.c, window.d, points=points,
                      epsabs=0.0, epsrel=1e-13, limit=500)[0]


def _recording_panels(monkeypatch):
    """Patch forms.panel to record each span (a, b) and count the
    integrand calls made over it; returns the list of [a, b, calls]."""
    spans = []

    def recording(f, a, b, **kw):
        row = [a, b, 0]
        spans.append(row)

        def counted(x):
            row[2] += 1
            return f(x)

        return panel(counted, a, b, **kw)

    monkeypatch.setattr(forms, "panel", recording)
    return spans


def _middle_spans(spans, *ends):
    """The recorded spans whose two ends are both among `ends` (cuts and
    breaks, in x): the middle's panels, not an LC side's panel in s."""
    return [row for row in spans if {row[0], row[1]} <= set(ends)]


def test_middle_of_v1_v1_is_within_its_error(legendre, legendre_bases):
    # v1 is C^2 across its blend window's edges.  A single panel over
    # (c, d) bisects onto them and leaves the middle 1.2e-10 off, 40 times
    # the form's error; panels between the edges meet the reference.
    v1 = patched_pair(legendre, *legendre_bases).v1
    fv = q_base(legendre, legendre_bases, None, REGIME_LC_LC, v1, v1)
    ref = _middle_reference(legendre, fv.window, v1, v1, v1.window)
    assert abs(fv.pieces["middle_dirichlet_integral"] - ref) <= fv.error


def test_middle_of_v1_v1_is_one_panel_per_piece(legendre, legendre_bases,
                                                monkeypatch):
    # Three pieces between c, the window's edges and d; each converges in
    # at most two 21-point rules (a single panel over (c, d) makes 1,071
    # calls).
    v1 = patched_pair(legendre, *legendre_bases).v1
    spans = _recording_panels(monkeypatch)
    fv = q_base(legendre, legendre_bases, None, REGIME_LC_LC, v1, v1)
    # The middle's panels are the spans between the cuts and the window's
    # edges; the LC sides' panels run in s.
    spans = _middle_spans(spans, fv.window.c, fv.window.d, *v1.window)
    assert sum(calls for _, _, calls in spans) <= 3 * 21 * 2
    assert v1.breaks == v1.window
    assert [(a, b) for a, b, _ in spans] == [
        (fv.window.c, v1.window[0]), v1.window, (v1.window[1], fv.window.d)]


def test_pairings_split_at_the_breaks_of_both_functions(
        legendre, legendre_bases, monkeypatch):
    # The Green pairing (f, tau g) and the triplet's weighted pairings split
    # their middle panels at the breaks of f and of g, which tau g
    # inherits: v1's window edges and the bump's support edges.
    v1 = patched_pair(legendre, *legendre_bases).v1
    bump = BumpFn(legendre, 0.05, 0.4)
    spans = _recording_panels(monkeypatch)
    window = forms.default_window(legendre, *legendre_bases)
    knots = sorted({window.c, window.d, *v1.window, 0.05 - 0.4, 0.05 + 0.4})
    pieces = list(zip(knots, knots[1:]))
    for f, g in ((v1, bump), (bump, v1)):
        spans.clear()
        res = green_identity_residual(legendre, legendre_bases, None, f, g)
        assert abs(res) <= 1e-10
        # One split for q_base's middle and one for the pairing's.
        assert [(a, b) for a, b, _ in _middle_spans(spans, *knots)] \
            == pieces * 2
    spans.clear()
    triplet_green_residual(legendre, legendre_bases, v1, bump)
    assert [(a, b) for a, b, _ in _middle_spans(spans, *knots)] \
        == pieces * 2


def test_a_combination_splits_at_its_members_breaks(legendre,
                                                    legendre_bases):
    # LinearCombination([1.0], [v1]) has v1's pair bit for bit and inherits
    # its breaks, so every piece of q_base, the middle Dirichlet integral
    # split at the blend window included, is v1's own.
    v1 = patched_pair(legendre, *legendre_bases).v1
    combo = LinearCombination([1.0], [v1])
    assert combo.breaks == v1.window
    want = q_base(legendre, legendre_bases, None, REGIME_LC_LC, v1, v1)
    got = q_base(legendre, legendre_bases, None, REGIME_LC_LC, combo, combo)
    assert got.pieces == want.pieces
    assert got.value == want.value
