"""Solution bases: classical at regular endpoints, reduction of order at
singular ones, Wronskian normalization, principal/nonprincipal ordering;
segment lookup of marched trajectories."""

import math

import numpy as np
import pytest

from slq import quadrature, solutions
from slq.classify import LIMIT_POINT, classify_endpoint
from slq.errors import (
    EvaluationOutsideSupport,
    IntegralClassificationInconclusive,
    OscillatoryAtLambda0,
)
from slq.extensions import OneLC, Separated, eigenvalues_shoot
from slq.forms import q_decorated
from slq.functions import PAIR_MEMO_SIZE, BumpFn
from slq.odecore import StepTable, integrate_tau, wronskian
from slq.problem import catalog, endpoint_regular, problem_from_dict, validate
from slq.quadrature import geometric_points
from slq.solutions import (
    LOGSCALE_MAX,
    ReductionSolution,
    ScaledSolution,
    construct_basis,
    march_windows,
)


def _wronskian_samples(basis, n=50):
    lo, hi = basis.trust_interval
    xs = np.linspace(lo, hi, n)
    return [wronskian(basis.u_hat, basis.u, x) for x in xs]


@pytest.mark.parametrize("which", ["a", "b"])
def test_regular_basis_classical_values(dirichlet_bases, dirichlet, which):
    basis = dirichlet_bases[0 if which == "a" else 1]
    end = basis.endpoint_value
    assert basis.regular
    uu, uu1 = basis.u.pair(end)
    hu, hu1 = basis.u_hat.pair(end)
    assert uu == pytest.approx(0.0, abs=1e-12)
    assert uu1 == pytest.approx(1.0, abs=1e-12)
    assert hu == pytest.approx(1.0, abs=1e-12)
    assert hu1 == pytest.approx(0.0, abs=1e-12)


def test_wronskian_normalized_regular(dirichlet_bases):
    for basis in dirichlet_bases:
        ws = _wronskian_samples(basis)
        assert max(abs(w - 1.0) for w in ws) < 1e-8


def test_wronskian_normalized_legendre(legendre_bases):
    for basis in legendre_bases:
        ws = _wronskian_samples(basis)
        assert max(abs(w - 1.0) for w in ws) < 1e-8


def test_wronskian_normalized_free_halfline(free_halfline_bases):
    for basis in free_halfline_bases:
        ws = _wronskian_samples(basis)
        assert max(abs(w - 1.0) for w in ws) < 1e-8


def test_wronskian_normalized_oscillator(oscillator_bases):
    for basis in oscillator_bases:
        ws = _wronskian_samples(basis)
        assert max(abs(w - 1.0) for w in ws) < 1e-8


def test_principal_dominated_by_nonprincipal(legendre_bases):
    # |u / u_hat| -> 0 toward the endpoint: the principal solution is the
    # small one.
    for basis in legendre_bases:
        end = basis.endpoint_value
        toward = -1.0 if basis.endpoint == "a" else 1.0
        x_near = end - toward * 1e-9
        x_far = basis.nonvanish_bound
        r_near = abs(basis.u(x_near) / basis.u_hat(x_near))
        # Compare via cross products: u_hat may vanish at interior points.
        dominated = abs(basis.u(x_near) * basis.u_hat(x_far)) \
            < 1e-3 * abs(basis.u(x_far) * basis.u_hat(x_near))
        assert dominated or r_near < 1e-12


def test_free_halfline_principal_is_bounded(free_halfline_bases):
    # At infinity the constant solution is principal, x is nonprincipal.
    basis = free_halfline_bases[1]
    x1, x2 = 10.0, 100.0
    ratio1 = abs(basis.u(x1) / basis.u_hat(x1))
    ratio2 = abs(basis.u(x2) / basis.u_hat(x2))
    assert ratio2 < ratio1


def test_march_carries_its_step_across_windows(free_halfline, monkeypatch):
    # RK45 is exact on u = 1 and u_hat = c0 - x, so the controller grows
    # its step tenfold while the windows double: a window that starts from
    # the step proposed at the end of the one before takes one or two.
    windows = []
    march = solutions.march_windows

    def counted(*args, **kw):
        for item in march(*args, **kw):
            windows.append(item)
            yield item

    monkeypatch.setattr(solutions, "march_windows", counted)
    basis = construct_basis(free_halfline, "b")
    assert isinstance(basis.u, solutions.ScalarMultiple)
    steps = sum(len(table.t) - 1 for table in
                basis.u.fn.segments + basis.u_hat.segments)
    assert len(windows) > 90
    assert steps <= 3 * len(windows)


def test_march_stops_at_the_growth_cap_with_true_values():
    # -u'' + 132 u / x^2 = 0 on (0, 1) from u(x0) = 1, u'(x0) = 0 is
    # u = (11 t^12 + 12 t^-11) / 23 with t = x / x0, which passes
    # e^LOGSCALE_MAX near x = 1e-11.  With the weight x^21, r u^2 ~ 1/x is
    # not integrable at 0, so the end is limit point; the Weyl probe's L^2
    # tail grows only by a constant per window, and the verdict reads the
    # stop.
    spec, _ = problem_from_dict({"interval": {"a": 0, "b": 1},
                                 "coefficients": {"p": "1", "q": "132/x**2",
                                                  "r": "x**21"}})
    validate(spec)
    x0, cap = 0.5, math.exp(LOGSCALE_MAX)
    windows = list(march_windows(spec, 0.0, (1.0, 0.0),
                                 geometric_points(x0, 0.0), 1e-11))
    stops = [stopped for *_, stopped in windows]
    assert stops[-1] and not any(stops[:-1])
    traj = windows[-1][0]
    xs = [x for table in traj.segments for x in table.t]
    assert traj.x_min == xs[-1] > 0.0
    sizes = []
    for x in xs:
        u, u1 = traj.pair(x)
        t = x / x0
        assert u == pytest.approx((11 * t**12 + 12 / t**11) / 23, rel=1e-8)
        assert u1 == pytest.approx(132 * (t**11 - 1 / t**12) / (23 * x0),
                                   rel=1e-8, abs=1e-12)
        sizes.append(max(abs(u), abs(u1)))
    assert all(map(math.isfinite, sizes))
    # The first step point at or past the cap ends the march.
    assert sizes[-1] >= cap > max(sizes[:-1])
    c = classify_endpoint(spec, "a")
    assert c.kind == LIMIT_POINT
    assert c.evidence[0]["total"] == math.inf


def test_free_halfline_basis_is_exact(free_halfline_bases):
    # u = 1 and u_hat = c0 - x solve -u'' = 0 with W(u_hat, u) = 1, and
    # RK45 reproduces polynomials of degree one exactly.
    basis = free_halfline_bases[1]
    c0 = basis.nonvanish_bound
    for x in np.linspace(*basis.trust_interval, 201):
        u, u1 = basis.u.pair(x)
        h, h1 = basis.u_hat.pair(x)
        assert u == pytest.approx(1.0, rel=1e-12)
        assert abs(u1) <= 1e-12
        assert h == pytest.approx(c0 - x, rel=1e-12)
        assert h1 == pytest.approx(-1.0, rel=1e-12)


def test_trust_interval_brackets_anchor(oscillator_bases):
    for basis in oscillator_bases:
        lo, hi = basis.trust_interval
        assert lo <= basis.nonvanish_bound <= hi


@pytest.mark.parametrize("problem", ["legendre", "free_halfline"])
def test_trust_interval_is_computed_on_first_read(problem, request,
                                                  monkeypatch):
    # A singular end and a regular one: construction leaves the search to
    # the first read, which runs it once over the basis's coverage.
    search, calls = solutions._trust_interval, []

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(solutions, "_trust_interval", counted)
    basis = construct_basis(request.getfixturevalue(problem), "a")
    assert calls == []
    trust = basis.trust_interval
    assert basis.trust_interval is trust
    args = (basis.u, basis.u_hat, basis.nonvanish_bound, *basis.coverage)
    assert calls == [args]
    assert trust == search(*args)


def test_oscillatory_lambda0_is_refused():
    # -u'' = 4u oscillates toward b = inf: the zero count in each window
    # refutes nonoscillation and no basis is built there.
    spec, _ = problem_from_dict({"coefficients": {"catalog": "free_halfline"},
                                 "lambda0": 4})
    with pytest.raises(OscillatoryAtLambda0, match="endpoint b"):
        construct_basis(spec, "b")


@pytest.mark.parametrize("lam", [0.5, 4.0, 30.0])
def test_oscillation_is_refuted_toward_infinity_only(lam):
    # -u'' = lam u oscillates toward b = inf for every lam > 0: the basis
    # march's own window zero counts refute it.  At the regular end a, and
    # at lam = 0 toward b, the basis builds.
    spec, _ = problem_from_dict({"coefficients": {"catalog": "free_halfline"},
                                 "lambda0": lam})
    with pytest.raises(OscillatoryAtLambda0, match="endpoint b"):
        construct_basis(spec, "b")
    assert construct_basis(spec, "a").regular
    spec, _ = problem_from_dict({"coefficients": {"catalog": "free_halfline"},
                                 "lambda0": 0.0})
    assert not construct_basis(spec, "b").regular


@pytest.mark.parametrize("name, lam, end, multiples", [
    # u's first zero, pi / sqrt(0.5) = 4.44, lies beyond back_to = 0.95 pi.
    ("regular_dirichlet_pi", 0.5, "a", [0.5]),
    ("regular_dirichlet_pi", 0.5, "b", [0.5]),
    ("regular_dirichlet_pi", 2.0, "a", [1.0, 0.5]),
    ("regular_dirichlet_pi", 2.0, "b", [1.0, 0.5]),
    # u_hat's zero at pi/4 sits on the near edge of the search, the point
    # pi/4 halfway to the end, and is not among those found.
    ("regular_dirichlet_pi", 4.0, "a", [1.0, 1.5]),
    ("regular_dirichlet_pi", 4.0, "b", [1.0, 1.5]),
    ("free_halfline", 0.5, "a", [1.0, 0.5]),
    ("free_halfline", 2.0, "a", [1.0, 0.5]),
    ("free_halfline", 4.0, "a", [1.0, 0.5]),
])
def test_last_zeros_are_the_closed_form_zeros(name, lam, end, multiples):
    # -u'' = lam u from a regular end e: u = sin(k (x - e)) / k and u_hat =
    # cos(k (x - e)), k = sqrt(lam), vanish at distances n pi / k and
    # (n + 1/2) pi / k from e.  The last zeros found lie between the point
    # halfway from the interior point to e and back_to, u's first, then
    # u_hat's.
    spec, _ = problem_from_dict({"coefficients": {"catalog": name},
                                 "lambda0": lam})
    basis = construct_basis(spec, end)
    found = basis.diagnostics["last_zero"]
    assert [type(z) for z in found] == [float] * len(multiples)
    k = math.sqrt(lam)
    for z, m in zip(found, multiples):
        assert abs(abs(z - basis.endpoint_value) - m * math.pi / k) <= 1e-12


def test_reduction_tail_gives_the_principal_power():
    # bessel(0.3) at lambda0 = 0 has the solutions x^0.8 (principal at 0)
    # and x^0.2.  The march gives the nonprincipal one, so u is w T with T
    # from the reduction tail: u x^-0.8 and u^[1] x^0.2 / 0.8 are constant.
    basis = construct_basis(catalog("bessel(0.3)"), "a")
    assert isinstance(basis.u, ReductionSolution)
    xs = np.geomspace(1e-9, 0.9 * basis.nonvanish_bound, 200)
    for scaled in ([basis.u.pair(x)[0] * x ** -0.8 for x in xs],
                   [basis.u.pair(x)[1] * x ** 0.2 / 0.8 for x in xs]):
        assert max(abs(v / scaled[-1] - 1.0) for v in scaled) < 1e-9


def test_harmonic_tail_certifies_the_bessel0_principal_test(monkeypatch):
    # bessel(0) at lambda0 = 0 has the solutions x^1/2 (principal at 0) and
    # x^1/2 log x.  The march gives the nonprincipal one, so 1/(p w^2) tails
    # off like 1/(x log^2 x): only the harmonic model in the log-distance
    # certifies the principal test, and without it the test is unresolved.
    spec = catalog("bessel(0)")
    validate(spec)
    bases = construct_basis(spec, "a"), construct_basis(spec, "b")
    basis = bases[0]
    assert isinstance(basis.u, ReductionSolution)
    assert basis.principal_integral.converged
    xs = np.geomspace(1e-8, 0.3, 50)
    assert max(abs(wronskian(basis.u_hat, basis.u, x) - 1.0)
               for x in xs) <= 1e-13
    scaled = [basis.u.pair(x)[0] / math.sqrt(x) for x in xs]
    assert max(abs(v / scaled[-1] - 1.0) for v in scaled) <= 1e-8
    # Friedrichs at 0 (and Dirichlet at the regular end 1): j_{0,n}^2.
    import mpmath
    eigs = eigenvalues_shoot(spec, Separated(0.0, 0.0), (1.0, 80.0),
                             bases=bases)
    want = [float(mpmath.besseljzero(0, n) ** 2) for n in (1, 2, 3)]
    assert len(eigs) == 3
    assert all(abs(e.lam - w) <= 1e-9 for e, w in zip(eigs, want))
    monkeypatch.setattr(quadrature, "_harmonic_fit", lambda *args: None)
    with pytest.raises(IntegralClassificationInconclusive):
        construct_basis(spec, "a")


def _t_system(p, lam):
    """The system of (u, u^[1]) in t = sqrt(x) for p = sqrt(x), q = 0 or
    p = 1, q = x^-1/2 (r = 1): both are regular at t = 0."""
    if p == "sqrt(x)":
        return lambda t, y: [2.0 * y[1], -2.0 * lam * t * y[0]]
    return lambda t, y: [2.0 * t * y[1], (2.0 - 2.0 * lam * t) * y[0]]


def _t_dirichlet_eigenvalues(p, lams):
    """Dirichlet eigenvalues on (0, 1) in the grid `lams`, by an
    independent scipy shooting in t = sqrt(x) from u = 0 at 0."""
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    def end(lam):
        return solve_ivp(_t_system(p, lam), (0.0, 1.0), [0.0, 1.0],
                         method="DOP853", rtol=1e-13, atol=1e-15).y[0, -1]
    values = [end(lam) for lam in lams]
    return [brentq(end, lo, hi, xtol=1e-14)
            for lo, hi, f_lo, f_hi in zip(lams, lams[1:], values, values[1:])
            if f_lo * f_hi < 0.0]


@pytest.mark.parametrize("p, q, n_eigs", [("sqrt(x)", "0", 2),
                                          ("1", "x**(-0.5)", 1)])
def test_regular_end_where_a_march_cannot_start(p, q, n_eigs):
    # 1/p, q and r are integrable at 0, so 0 is regular, but p(0) = 0 or
    # q(0) = inf: no stage can be evaluated there.  The basis at 0 is built
    # by the march toward it, as at a singular end; the end stays regular.
    spec, _ = problem_from_dict({"interval": {"a": 0, "b": 1},
                                 "coefficients": {"p": p, "q": q, "r": "1"}})
    validate(spec)
    assert endpoint_regular(spec, "a")
    assert classify_endpoint(spec, "a").evidence[0]["verdict"] \
        == "regular endpoint"
    bases = construct_basis(spec, "a"), construct_basis(spec, "b")
    basis = bases[0]
    assert not basis.regular and bases[1].regular
    xs = np.geomspace(1e-8, 0.3, 30)
    assert max(abs(wronskian(basis.u_hat, basis.u, x) - 1.0)
               for x in xs) <= 1e-12
    # u is the principal solution: it vanishes at 0 relative to u_hat.
    ratio = [abs(basis.u(x) / basis.u_hat(x)) for x in (1e-8, 0.1)]
    assert ratio[0] < 1e-3 * ratio[1]
    eigs = eigenvalues_shoot(spec, Separated(0.0, 0.0), (0.5, 40.0),
                             bases=bases)
    want = _t_dirichlet_eigenvalues(p, np.linspace(0.5, 40.0, 80))
    assert len(eigs) == len(want) == n_eigs
    assert all(abs(e.lam - w) <= 1e-8 for e, w in zip(eigs, want))


@pytest.mark.parametrize("end", ["a", "b"])
def test_legendre_principal_test_stays_above_node_resolution(end,
                                                              monkeypatch):
    # The principal test on 1/(p w^2), w = 1, diverges logarithmically at
    # both ends.  Near x = +-1 no window refines below the resolution of
    # its nodes, so the test takes about one Gauss-Kronrod pass per window
    # (27,279 integrand calls when the windows chased rounding noise).
    calls = [0]
    real = solutions._principal_integrand

    def counted(spec, w):
        f = real(spec, w)

        def g(x):
            calls[0] += 1
            return f(x)
        return g
    monkeypatch.setattr(solutions, "_principal_integrand", counted)
    basis = construct_basis(catalog("legendre"), end)
    assert basis.diagnostics["marched_kind"] == "principal"
    assert basis.principal_integral.diverged
    assert calls[0] <= 1500


HALFLINE_NEGATIVE = [-1.0, -1e-2, -1e-4, -1e-6, -1e-8, -1e-10]


def _halfline_at(lam):
    spec, _ = problem_from_dict({"coefficients": {"catalog": "free_halfline"},
                                 "lambda0": lam})
    return spec


@pytest.mark.parametrize("lam", HALFLINE_NEGATIVE)
def test_halfline_basis_below_zero_decays(lam):
    # -u'' = lam u with lam < 0: the principal solution toward inf is
    # exp(-k x), k = sqrt(-lam), so u^[1] / u = -k.  The reduction tail
    # runs back to the edge of w's march, where its last stage used to
    # round outside w's support.
    basis = construct_basis(_halfline_at(lam), "b")
    assert not basis.regular
    k = math.sqrt(-lam)
    for x in np.linspace(basis.u.x_min, 5.0, 50):
        u, u1 = basis.u.pair(x)
        assert abs(u1 / u + k) <= 1e-10 * k
    ws = _wronskian_samples(basis)
    assert max(abs(w - 1.0) for w in ws) <= 1e-14


@pytest.mark.parametrize("lam", HALFLINE_NEGATIVE)
def test_halfline_principal_support_ends_at_the_tail_floor(lam):
    # Where the reduction tail T falls to its noise floor, u = w T would
    # read 0 while u^[1] keeps its size.  The support of u ends there, so
    # no point of the trust interval reads u = 0, and beyond the edge u
    # is not evaluable.
    basis = construct_basis(_halfline_at(lam), "b")
    u, (lo, hi) = basis.u, basis.trust_interval
    assert all(u.pair(x)[0] != 0.0 for x in np.linspace(lo, hi, 2001))
    with pytest.raises(EvaluationOutsideSupport):
        u.pair(u.x_max + 1e-9 * (1.0 + abs(u.x_max)))


@pytest.mark.parametrize("lam", HALFLINE_NEGATIVE)
def test_halfline_principal_ratio_holds_on_the_trust_interval(lam):
    # u = exp(-k x) up to a constant, so u^[1] / u = -k wherever u is
    # trusted.  Below |T| = atol / rtol of the tail solve its absolute
    # tolerance dominates and T loses relative accuracy, so the support of
    # u, and with it the trust interval, must end there.
    basis = construct_basis(_halfline_at(lam), "b")
    k = math.sqrt(-lam)
    lo, hi = basis.trust_interval
    for x in np.linspace(lo, hi, 2001):
        u, u1 = basis.u.pair(x)
        assert abs(u1 / u + k) <= 1e-9 * k


@pytest.mark.parametrize("lam", HALFLINE_NEGATIVE)
def test_halfline_one_lc_form_does_not_depend_on_lambda0(lam):
    # OneLC at the regular end a: the decorated form is that of one
    # self-adjoint extension, whichever lambda0 the bases are built at.
    def form(spec):
        bases = (construct_basis(spec, "a"), construct_basis(spec, "b"))
        f, g = BumpFn(spec, 0.0, 0.5), BumpFn(spec, 0.2, 0.8)
        return q_decorated(spec, bases, None, OneLC(0.8, "a"), f, g)
    ref, got = form(_halfline_at(0.0)), form(_halfline_at(lam))
    assert abs(got.value - ref.value) <= got.error + ref.error


@pytest.mark.xfail(strict=True, raises=IntegralClassificationInconclusive,
                   reason=(
    "q = -4/x^2 oscillates at 0, but the window zero counts never run four "
    "zero-free windows in a row nor refute nonoscillation, and the "
    "principal test on 1/(p w^2) is left unresolved"))
def test_inverse_square_below_critical_is_oscillatory():
    # -4 < -1/4: every solution of -u'' - 4 u / x^2 = 0 oscillates at 0.
    spec, _ = problem_from_dict({"interval": {"a": 0, "b": 1},
                                 "coefficients": {"p": "1", "q": "-4/x**2",
                                                  "r": "1"}})
    with pytest.raises(OscillatoryAtLambda0, match="endpoint a"):
        construct_basis(spec, "a")


@pytest.mark.xfail(strict=True, raises=IntegralClassificationInconclusive,
                   reason=(
    "at lambda0 = 0.5 the last zero of Legendre's marched w lies closer to "
    "the end than _find_last_zero searches, so the principal test on "
    "1/(p w^2) runs across its pole and is left unresolved (it once read "
    "divergent and listed 0.2273, 2.7319 and 7.3223)"))
def test_legendre_friedrichs_eigenvalues_at_lambda0_one_half():
    # The Friedrichs extension and its eigenvalues n(n + 1) do not depend
    # on the lambda0 of the basis.
    spec, _ = problem_from_dict({"coefficients": {"catalog": "legendre"},
                                 "lambda0": 0.5})
    validate(spec)
    for end in "ab":
        construct_basis(spec, end)
    eigs = eigenvalues_shoot(spec, Separated(0.0, 0.0), (-0.5, 13.0))
    assert [e.lam for e in eigs] == pytest.approx([0.0, 2.0, 6.0, 12.0],
                                                  abs=1e-6)


# -- segment lookup -----------------------------------------------------------


def _segment(t0, t1, k=0):
    """A one-step RK45 table from t0 to t1 of u = x + k, u^[1] = 1: the
    RK45 interpolant of u' = u^[1], u^[1]' = 0 from u(t0) = t0 + k."""
    h = t1 - t0
    return StepTable([t0, t1], [[t0, h, t0 + k, 1.0, 0.0, 0.0, 0.0,
                                 1.0, 0.0, 0.0, 0.0, 0.0]])


def _trajectory(*edges):
    """Segments in the order given; segment k is u = x + k, so the value
    log_pair returns names the segment that answered."""
    traj = ScaledSolution(0.0)
    for k, (t0, t1) in enumerate(edges):
        traj.add_segment(_segment(t0, t1, k))
    return traj


def _which(traj, x):
    return round(traj.log_pair(x)[0] - x)


def test_lookup_shared_edge_takes_first_inserted():
    assert _which(_trajectory((0.0, 1.0), (1.0, 2.0)), 1.0) == 0
    assert _which(_trajectory((1.0, 2.0), (0.0, 1.0)), 1.0) == 0
    traj = _trajectory((0.0, 1.0), (1.0, 2.0))
    assert [_which(traj, x) for x in (0.0, 0.5, 1.5, 2.0)] == [0, 0, 1, 1]


def test_lookup_back_march_after_forward_march():
    # Forward legs from the anchor 0.5 toward 1, then a back-march from
    # the anchor toward 0 whose segments run right to left.
    traj = _trajectory((0.5, 0.7), (0.7, 0.9), (0.9, 1.0),
                       (0.5, 0.2), (0.2, 0.0))
    xs = [0.0, 0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.95, 1.0]
    assert [_which(traj, x) for x in xs] == [4, 4, 3, 3, 0, 0, 0, 2, 2]
    # u(x) = x + 3 up to the rounding of one RK45 step.
    want = _segment(0.5, 0.2, 3).at(0.3)
    assert want[0] == pytest.approx(3.3, rel=1e-15)
    assert traj.log_pair(0.3) == want
    assert (traj.x_min, traj.x_max) == (0.0, 1.0)


def test_add_segment_refuses_a_gap():
    # A trajectory grows only at its ends: a segment that leaves a gap, even
    # of one ulp, is refused, so no point of the support lies between
    # segments.
    traj = _trajectory((0.0, 1.0))
    for edges in ((1.0 + np.spacing(1.0), 2.0), (-1.0, -np.spacing(0.0)),
                  (2.0, 3.0)):
        with pytest.raises(ValueError, match="at an end"):
            traj.add_segment(_segment(*edges, 9))
    assert len(traj.segments) == 1
    assert (traj.x_min, traj.x_max) == (0.0, 1.0)


def test_lookup_outside_support_raises():
    traj = _trajectory((0.0, 1.0), (1.0, 2.0))
    for x in (-1e-12, 2.0 + 1e-12, math.nan):
        with pytest.raises(EvaluationOutsideSupport):
            traj.log_pair(x)


@pytest.mark.parametrize("edges", [(0.5, 1.5), (1.5, 0.5), (0.2, 0.8),
                                   (-1.0, 3.0), (0.0, 1.0), (0.5, 0.5)])
def test_add_segment_rejects_interior_overlap(edges):
    traj = _trajectory((0.0, 1.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        traj.add_segment(_segment(*edges, 9))
    assert len(traj.segments) == 2


def _marched(fn):
    """The marched trajectories inside a basis function."""
    if isinstance(fn, ScaledSolution):
        return [fn]
    inner = getattr(fn, "fn", None) or getattr(fn, "w", None)
    return _marched(inner) if inner is not None else []


def _scan(traj, x):
    """Reference lookup: the first segment, in insertion order, whose range
    holds x."""
    return next(table for table in traj.segments
                if min(table.t[0], table.t[-1]) <= x
                <= max(table.t[0], table.t[-1]))


def test_lookup_matches_insertion_order_scan(legendre_bases):
    trajs = [t for basis in legendre_bases
             for fn in (basis.u, basis.u_hat) for t in _marched(fn)]
    assert trajs
    for traj in trajs:
        edges = {table.t[k] for table in traj.segments for k in (0, -1)}
        xs = sorted(set(np.linspace(traj.x_min, traj.x_max, 300)) | edges)
        for x in xs:
            assert traj.log_pair(x) == _scan(traj, x).at(x)


# -- the pair memo ---------------------------------------------------------


def _count_log_pair(monkeypatch):
    """The x of every ScaledSolution.log_pair call, appended as it comes."""
    calls = []
    real_log_pair = ScaledSolution.log_pair

    def counting_log_pair(self, x):
        calls.append(x)
        return real_log_pair(self, x)

    monkeypatch.setattr(ScaledSolution, "log_pair", counting_log_pair)
    return calls


def _bits(pair):
    """Type and exact repr of each component."""
    return [(type(v), repr(v)) for v in pair]


def _memo_cases(lam):
    """Fresh functions with a pair memo, and points they cover."""
    xs = [0.1, 0.35, 0.6, 0.85]
    yield integrate_tau(catalog("legendre"), lam, 0.0, (1.0, 0.5), 0.95), xs
    if isinstance(lam, float):
        bessel = catalog("bessel(0.3)")
        validate(bessel)
        u = construct_basis(bessel, "a").u
        assert isinstance(u, ReductionSolution)
        yield u, [x for x in xs if u.x_min < x < u.x_max]


@pytest.mark.parametrize("lam", [2.5, 2.5 + 1.0j])
def test_pair_memo_hit_equals_miss(lam, monkeypatch):
    calls = _count_log_pair(monkeypatch)
    # The same functions built twice: one memo first filled from floats,
    # the other from numpy floats.
    for (fn, xs), (other, _) in zip(_memo_cases(lam), _memo_cases(lam)):
        del calls[:]
        misses = [_bits(fn.pair(x)) for x in xs]
        misses_np = [_bits(other.pair(np.float64(x))) for x in xs]
        assert len(calls) == 2 * len(xs)
        assert misses_np == misses
        for memo in (fn, other):
            for convert in (float, np.float64):
                assert [_bits(memo.pair(convert(x))) for x in xs] == misses
        assert len(calls) == 2 * len(xs)


def test_add_segment_keeps_the_pair_memo():
    # Segment k is u = x + k, so a pair says which segment answered.  A
    # segment added at an end answers no point answered before: the shared
    # edge stays with the first segment, and a point outside was never
    # stored.  So the memo holds, and every pair is the uncached lookup's.
    traj = _trajectory((0.0, 1.0))
    xs = [0.0, 0.5, 1.0]
    assert [_which(traj, x) for x in xs] == [0, 0, 0]
    for x in xs:
        traj.pair(x)
    with pytest.raises(EvaluationOutsideSupport):
        traj.pair(1.5)
    memo = dict(traj._memo)
    traj.add_segment(_segment(1.0, 2.0, 1))
    traj.add_segment(_segment(-1.0, 0.0, 2))
    assert traj._memo == memo
    for x, k in ((-0.5, 2), (0.0, 0), (0.5, 0), (1.0, 0), (1.5, 1)):
        assert traj.pair(x) == traj.log_pair(x)
        assert _which(traj, x) == k


def test_log_pair_is_pair_bit_for_bit(legendre_bases):
    # log_pair is the lookup a pair miss makes; a hit returns the same.
    trajs = [t for basis in legendre_bases
             for fn in (basis.u, basis.u_hat) for t in _marched(fn)]
    assert trajs
    for traj in trajs:
        for x in np.linspace(traj.x_min, traj.x_max, 7).tolist():
            want = _bits(traj.log_pair(x))
            assert _bits(traj.pair(x)) == want
            assert _bits(traj.pair(x)) == want


def test_pair_memo_is_bounded():
    traj = _trajectory((0.0, 1.0))
    xs = np.linspace(0.0, 1.0, PAIR_MEMO_SIZE + 1)
    first = traj.pair(xs[0])
    sizes = [len(traj._memo)]
    for x in xs[1:]:
        traj.pair(x)
        sizes.append(len(traj._memo))
    assert max(sizes) == PAIR_MEMO_SIZE
    assert sizes[-1] == 1
    assert traj.pair(xs[0]) == first
