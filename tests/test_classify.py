"""Endpoint classification: Weyl alternative and oscillation counting."""

import math

import pytest

from slq.classify import (
    LIMIT_CIRCLE,
    LIMIT_POINT,
    certify_endpoint,
    certify_nonoscillatory,
    classify_both,
    classify_endpoint,
    count_zeros,
)
from slq import classify, solutions
from slq.errors import Inconclusive, StepSizeUnderflow
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
    "called limit_point: at q = 1e6 the probe solution grows to "
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


# n_windows of the one marched evidence entry, from (1, 0): its verdict
# alone decides the end.
PROBE_CASES = [
    ("legendre", "a", [38]),
    ("legendre", "b", [38]),
    ("bessel(0.3)", "a", [26]),
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


def _probe(spec, end):
    """z, the two real starts (1, 0) and (0, p(c)/l), and the arguments
    after them that classify_endpoint passes _tail_integral_verdict."""
    anchor, ell, pc, rc = end_scale(spec, end)
    z = spec.lambda0 + 1j * pc / (rc * ell * ell)
    return z, ((1.0, 0.0), (0.0, pc / ell)), (anchor, rc * ell)


# Singular ends of both kinds: every problem of PROBE_CASES, the Legendre
# cases of COVARIANCE_CASES (the others' ends are regular), bessel(2) (limit
# point at 0), q = 100 at each weight scale of the test above, and the
# limit-circle end at inf of p = x^2, r = x^-2.
WEYL_CASES = [
    *dict.fromkeys(problem for problem, _, _ in PROBE_CASES),
    *(pytest.param(case.values[1], id=case.id) for case in COVARIANCE_CASES
      if case.values[0] == "legendre"),
    "bessel(2)",
    *(pytest.param({"interval": {"a": 0, "b": "inf"},
                    "coefficients": {"p": "1", "q": "100", "r": weight}},
                   id=f"q-100-r-{weight}")
      for weight in ("1", "1e-30", "1e-100", "1e-250", "1e30")),
    pytest.param({"interval": {"a": 1.0, "b": "inf"},
                  "coefficients": {"p": "x**2", "q": "0", "r": "x**-2"}},
                 id="lc-at-inf"),
]


@pytest.mark.parametrize("problem", WEYL_CASES)
def test_either_real_start_decides(problem, request):
    # At nonreal z, Im m(z) != 0: near a limit-point end no solution with
    # real data is square integrable, near a limit-circle end every one
    # is.  So the second start classify_endpoint does not march reads the
    # verdict of the one it does.
    spec = _problem(problem) if isinstance(problem, dict) \
        else _spec(problem, request)
    ends = [e for e in "ab" if not endpoint_regular(spec, e)]
    assert ends
    for end in ends:
        z, starts, args = _probe(spec, end)
        verdicts = {classify._tail_integral_verdict(spec, end, z, init,
                                                    *args)[0]
                    for init in starts}
        kind = classify_endpoint(spec, end).kind
        assert verdicts == {
            "converges" if kind == LIMIT_CIRCLE else "diverges"}


@pytest.mark.parametrize("problem, probes", [
    ("legendre", 2), ("bessel(0.3)", 1), ("free_halfline", 1),
    ("regular_dirichlet_pi", 0)])
def test_one_probe_per_singular_end(problem, probes, monkeypatch):
    calls = []
    verdict = classify._tail_integral_verdict

    def counted(*args):
        calls.append(args[1])
        return verdict(*args)

    monkeypatch.setattr(classify, "_tail_integral_verdict", counted)
    spec = catalog(problem)
    validate(spec)
    classify_both(spec)
    assert len(calls) == probes == len(set(calls))


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
    z, starts, (anchor, mass) = _probe(spec, end)
    pts = geometric_points(anchor, spec.interval.end(end))
    for init in starts:
        verdict, _, sums = classify._tail_integral_verdict(
            spec, end, z, init, anchor, mass)
        assert all(s > 0 for s in sums)
        n = len(sums) - (verdict == "diverges")
        want = _panel_window_sums(spec, z, init, pts, mass, n)
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


def test_a_tail_that_shrinks_slower_than_the_rule_is_inconclusive():
    # p = 1, q = 0, r = x^-3.1 on (1, inf) is limit circle at inf: its
    # solutions at lambda0 = 0 are 1 and x, and int x^2 r < inf.  The
    # windows double their distance, so the probe's contributions shrink
    # only by 2^-0.1 (about 0.933) per window: slower than the 0.9 that
    # reads as converged, faster than the 0.97 that reads as diverging.
    spec, _ = problem_from_dict({
        "interval": {"a": 1, "b": "inf"},
        "coefficients": {"p": "1", "q": "0", "r": "x**(-3.1)"}})
    validate(spec)
    z, starts, args = _probe(spec, "b")
    for init in starts:
        verdict, total, contribs = classify._tail_integral_verdict(
            spec, "b", z, init, *args)
        assert verdict == "inconclusive"
        assert math.isfinite(total)
        assert all(c2 / c1 == pytest.approx(2.0 ** -0.1, rel=1e-4)
                   for c1, c2 in zip(contribs[-8:], contribs[-7:]))
    with pytest.raises(Inconclusive,
                       match=r"endpoint b not certified: inconclusive$"):
        classify_endpoint(spec, "b")
    assert classify_endpoint(spec, "a").kind == LIMIT_CIRCLE


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
