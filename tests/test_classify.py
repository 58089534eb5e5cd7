"""Endpoint classification: Weyl alternative and oscillation counting."""

import math

import pytest

from slq.classify import (
    CLASSIFY_WINDOWS,
    LIMIT_CIRCLE,
    LIMIT_POINT,
    certify_endpoint,
    certify_nonoscillatory,
    classify_both,
    classify_endpoint,
    count_zeros,
)
from slq import classify, solutions
from slq.errors import StepSizeUnderflow
from slq.odecore import l2_solve
from slq.problem import (
    catalog,
    end_scale,
    endpoint_regular,
    problem_from_dict,
    validate,
)
from slq.quadrature import DIVERGE_THRESHOLD, geometric_points, panel
from slq.solutions import construct_basis, march_windows


def test_legendre_both_limit_circle(legendre):
    c = classify_both(legendre)
    assert c["a"].kind == LIMIT_CIRCLE
    assert c["b"].kind == LIMIT_CIRCLE


def test_bessel_two_limit_point_at_origin():
    spec = catalog("bessel(2)")
    validate(spec)
    assert classify_endpoint(spec, "a").kind == LIMIT_POINT
    assert classify_endpoint(spec, "b").kind == LIMIT_CIRCLE


def test_free_halfline_limit_point_at_infinity(free_halfline):
    assert classify_endpoint(free_halfline, "b").kind == LIMIT_POINT
    assert classify_endpoint(free_halfline, "a").kind == LIMIT_CIRCLE


def test_bessel_half_limit_circle_at_origin(bessel_half):
    assert classify_endpoint(bessel_half, "a").kind == LIMIT_CIRCLE


def _problem(doc):
    spec, _ = problem_from_dict(doc)
    validate(spec)
    return spec


def _verdicts(spec):
    return {e: (endpoint_regular(spec, e), classify_endpoint(spec, e).kind)
            for e in "ab"}


def _stretched_legendre(length):
    # Legendre under x = length * t with r = 1: the same equation at
    # lambda * length^2, so the same kinds at both ends.
    return {"interval": {"a": -length, "b": length}, "coefficients": {
        "p": f"(1-x/{length!r})*(1+x/{length!r})", "q": "0", "r": "1"}}


def _rescaled(name, coefficient, factor):
    spec = catalog(name)
    coeffs = {"p": spec.p.text, "q": spec.q.text, "r": spec.r.text}
    coeffs[coefficient] = f"{factor}*({coeffs[coefficient]})"
    return {"interval": {"a": spec.interval.a, "b": spec.interval.b},
            "coefficients": coeffs}


# A change of scale moves no verdict: a stretch of the interval, a constant
# factor on p or on r, q + c r with lambda0 + c.  Each case names the
# catalog problem it rescales; verdicts read against absolute floors fail
# most of them.
COVARIANCE_CASES = [
    *(pytest.param("legendre", _stretched_legendre(length),
                   id=f"legendre-stretched-{length:g}")
      for length in (1e-3, 0.1, 10.0, 100.0, 1000.0)),
    *(pytest.param(name, _rescaled(name, c, factor),
                   id=f"{name}-{c}-times-{factor}")
      for name in ("legendre", "regular_dirichlet_pi") for c in "pr"
      for factor in ("1e-30", "1e30")),
    pytest.param("regular_dirichlet_pi", {
        "interval": {"a": 0, "b": 1e13},
        "coefficients": {"p": "1", "q": "0", "r": "1"}},
        id="regular_dirichlet_pi-on-0-1e13"),
    pytest.param("legendre", {
        "interval": {"a": -1, "b": 1}, "lambda0": 1e4,
        "coefficients": {"p": "(1-x)*(1+x)", "q": "1e4", "r": "1"}},
        id="legendre-q-plus-1e4"),
]


@pytest.mark.parametrize("unscaled, doc", COVARIANCE_CASES)
def test_a_change_of_scale_keeps_the_classification(unscaled, doc):
    assert _verdicts(_problem(doc)) == _verdicts(catalog(unscaled))


@pytest.mark.xfail(strict=True, raises=StepSizeUnderflow, reason=(
    "the basis march on Legendre stretched to (-10, 10) stalls about 4e-11 "
    "from -10 with StepSizeUnderflow"))
def test_the_stretched_legendre_basis_builds():
    construct_basis(_problem(_stretched_legendre(10.0)), "a")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "called limit_point: at q = 1e6 both probe solutions grow to "
    "e^LOGSCALE_MAX before the march nears the end, whatever the probe z"))
def test_a_large_potential_keeps_legendre_limit_circle():
    spec = _problem({"interval": {"a": -1, "b": 1}, "coefficients": {
        "p": "(1-x)*(1+x)", "q": "1e6", "r": "1"}})
    assert classify_endpoint(spec, "b").kind == LIMIT_CIRCLE


@pytest.mark.parametrize("b, q", [(4e6, "1"), (1e13, "1"), (1e6, "100")])
def test_a_long_interval_with_a_potential_is_regular(b, q):
    # A bounded q is integrable at a finite end however large q l^2 / p(c)
    # is: the regularity test reads each coefficient in its own units.
    spec = _problem({"interval": {"a": 0, "b": b},
                     "coefficients": {"p": "1", "q": q, "r": "1"}})
    assert _verdicts(spec) == {e: (True, LIMIT_CIRCLE) for e in "ab"}


@pytest.mark.parametrize("q, regular", [("1e-30/x", False),
                                        ("1e30/sqrt(x)", True)])
def test_a_factor_on_q_keeps_the_regularity_verdict(q, regular):
    # 1/x is not integrable at 0 and 1/sqrt(x) is, whatever the factor.
    spec = _problem({"interval": {"a": 0, "b": 1},
                     "coefficients": {"p": "1", "q": q, "r": "1"}})
    assert endpoint_regular(spec, "a") == regular


@pytest.mark.parametrize("weight", ["1", "1e-30", "1e-100", "1e-250", "1e30"])
def test_a_weight_scale_keeps_the_weyl_verdict(weight):
    # e^{10x} is not square integrable on (0, inf) for any constant r > 0,
    # so b is limit point whatever the weight's scale.  A convergence test
    # floored at an absolute 1e-10 read the small weights' tails as
    # converged.
    spec, _ = problem_from_dict({
        "interval": {"a": 0, "b": "inf"},
        "coefficients": {"p": "1", "q": "100", "r": weight}})
    validate(spec)
    assert classify_endpoint(spec, "b").kind == LIMIT_POINT


# n_windows of each marched evidence entry, from (1, 0) then from
# (0, p(c)/l): a diverging probe ends the classification after its first.
PROBE_CASES = [
    ("legendre", "a", [38, 38]),
    ("legendre", "b", [38, 38]),
    ("bessel(0.3)", "a", [26, 28]),
    ("free_halfline", "b", [5]),
    ("oscillator", "a", [3]),
    ("oscillator", "b", [3]),
]


def _spec(problem, request):
    if problem in ("legendre", "free_halfline", "oscillator"):
        return request.getfixturevalue(problem)
    spec = catalog(problem)
    validate(spec)
    return spec


@pytest.mark.parametrize("problem, end, n_windows", PROBE_CASES)
def test_probe_window_counts(problem, end, n_windows, request):
    evidence = classify_endpoint(_spec(problem, request), end).evidence
    assert [entry["n_windows"] for entry in evidence] == n_windows


def _panel_window_sums(spec, z, init, pts, mass, n):
    """The first n window integrals of r |u|^2 in units of mass by
    quadrature after the march: march_windows at z, then one panel over
    each window's table.  The panel has no absolute floor: a floor of
    1e-14 allows 3e-8 of Legendre's last windows (5.7e-10)."""
    r = spec.r.scalar
    sums = []
    for _, table, _, _ in march_windows(spec, z, init, pts, 1e-9):
        lo, hi = sorted((table.t[0], table.t[-1]))
        sums.append(panel(lambda x: r(x) * abs(table.at(x)[0]) ** 2, lo, hi,
                          epsabs=0.0, epsrel=1e-12)[0] / mass)
        if len(sums) == n:
            return sums
    return sums


@pytest.mark.parametrize("problem, end, _", PROBE_CASES)
def test_probe_window_sums_match_quadrature_of_the_march(problem, end, _,
                                                          request):
    # Each window's sum in the solve, against a panel over the same
    # window's table, from both starts; a diverging probe's last window
    # stops at the threshold and is left out.  Toward a the steps are
    # negative: the sum weighs them by |h|, so every window is positive.
    spec = _spec(problem, request)
    anchor, ell, pc, rc = end_scale(spec, end)
    z = spec.lambda0 + 1j * pc / (rc * ell * ell)
    pts = geometric_points(anchor, spec.interval.end(end),
                           n_windows=CLASSIFY_WINDOWS)
    for init in ((1.0, 0.0), (0.0, pc / ell)):
        verdict, _, sums = classify._tail_integral_verdict(
            spec, end, z, init, anchor, rc * ell)
        assert all(s > 0 for s in sums)
        n = len(sums) - (verdict == "diverges")
        want = _panel_window_sums(spec, z, init, pts, rc * ell, n)
        assert len(want) == n >= 2
        assert all(abs(s - w) <= 1e-8 * w for s, w in zip(sums, want))


def test_a_diverging_probe_stops_at_the_threshold(free_halfline,
                                                  monkeypatch):
    # |u| grows like e^x toward inf, so the total passes DIVERGE_THRESHOLD
    # (1e12, in units of r(c) l = 1) near x = 22, in the window (16, 32):
    # the solve stops there, not at 32.
    stops = []

    def recorded(*args):
        out = l2_solve(*args)
        stops.append(out[0])
        return out

    monkeypatch.setattr(classify, "l2_solve", recorded)
    c = classify_endpoint(free_halfline, "b")
    entry, = c.evidence
    assert c.kind == LIMIT_POINT
    assert (entry["verdict"], entry["n_windows"]) == ("diverges", 5)
    assert DIVERGE_THRESHOLD < entry["total"] < 2 * DIVERGE_THRESHOLD
    assert stops[:-1] == [2.0, 4.0, 8.0, 16.0]
    assert 16.0 < stops[-1] < 32.0


def test_count_zeros_sine(dirichlet):
    # sin(3x) has zeros at pi/3, 2pi/3 inside (0.1, pi - 0.1).
    n = count_zeros(dirichlet, 9.0, (0.1, math.pi - 0.1), init=(0.0, 1.0))
    assert n == 2


def test_count_zeros_resolves_every_zero_per_step(dirichlet):
    # u = sin(20(x - 0.1))/20 has zeros at 0.1 + k pi/20, k = 1, 2, ...;
    # the count over the accepted DOP853 steps must see each of them.
    x1, x2 = 0.1, math.pi - 0.1
    want = math.floor((x2 - x1) * 20.0 / math.pi)
    assert want == 18
    assert count_zeros(dirichlet, 400.0, (x1, x2), init=(0.0, 1.0)) == want


def test_certify_nonoscillatory_at_lambda0(legendre, dirichlet):
    assert certify_nonoscillatory(legendre, 0.0)["a"] != "refuted"
    assert certify_nonoscillatory(dirichlet, 0.0)["b"] != "refuted"


# Legendre's ends are limit circle, so nonoscillatory at every real lambda;
# its last zero lies about log2(lambda) windows into the march.
@pytest.mark.parametrize("problem, lam, want", [
    ("legendre", 0.0, ("certified", "certified")),
    ("legendre", 30.0, ("certified", "certified")),
    ("free_halfline", 4.0, ("certified", "refuted")),
    ("bessel(0.3)", 0.0, ("certified", "certified")),
    ("regular_dirichlet_pi", 0.0, ("certified", "certified")),
    ("legendre", 12.0, ("certified", "certified")),
    ("legendre", 56.0, ("certified", "certified")),
    ("legendre", 100.0, ("certified", "certified")),
])
def test_certify_endpoint_gives_the_per_endpoint_verdicts(problem, lam,
                                                          want):
    spec = catalog(problem)
    assert tuple(certify_endpoint(spec, lam, e) for e in "ab") == want
    assert certify_nonoscillatory(spec, lam) == dict(zip("ab", want))


def test_construct_basis_certifies_only_its_endpoint(legendre, monkeypatch):
    # Nonoscillation is judged on the basis march's own window zero counts.
    # Every march with windows heads for b, and no march comes nearer a
    # than back_to = -0.9, where the basis is patched into the interior.
    given = []
    real = solutions.march_windows

    def recorded(spec, lam, init, pts, *args, **kw):
        given.append(list(pts))
        return real(spec, lam, init, pts, *args, **kw)

    for module in (solutions, classify):
        monkeypatch.setattr(module, "march_windows", recorded)
    construct_basis(legendre, "b")
    windowed = [pts for pts in given if len(pts) > 2]
    assert windowed
    for pts in windowed:
        assert pts == sorted(pts) and pts[-1] > 1.0 - 1e-6
    assert min(x for pts in given for x in pts) >= -0.9 - 1e-12
