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
from slq import classify
from slq.problem import catalog, validate
from slq.solutions import construct_basis


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


def test_probe_independence(legendre, free_halfline):
    for probe in (1j, 2j, 1 + 1j):
        assert classify_endpoint(legendre, "b", probe_z=probe).kind \
            == LIMIT_CIRCLE
        assert classify_endpoint(free_halfline, "b", probe_z=probe).kind \
            == LIMIT_POINT


def test_anchor_independence():
    spec = catalog("bessel(2)")
    validate(spec)
    for anchor in (0.3, 0.5, 0.7):
        assert classify_endpoint(spec, "a", anchor=anchor).kind == LIMIT_POINT


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


@pytest.mark.parametrize("problem, lam, want", [
    ("legendre", 0.0, ("certified", "certified")),
    ("legendre", 30.0, ("inconclusive", "inconclusive")),
    ("free_halfline", 4.0, ("certified", "refuted")),
    ("bessel(0.3)", 0.0, ("certified", "certified")),
    ("regular_dirichlet_pi", 0.0, ("certified", "certified")),
])
def test_certify_endpoint_gives_the_per_endpoint_verdicts(problem, lam,
                                                          want):
    spec = catalog(problem)
    assert tuple(certify_endpoint(spec, lam, e) for e in "ab") == want
    assert certify_nonoscillatory(spec, lam) == dict(zip("ab", want))


def test_construct_basis_certifies_only_its_endpoint(legendre, monkeypatch):
    asked = []
    real = classify.certify_endpoint

    def recorded(spec, lam, endpoint, **kw):
        asked.append(endpoint)
        return real(spec, lam, endpoint, **kw)

    monkeypatch.setattr(classify, "certify_endpoint", recorded)
    construct_basis(legendre, "b")
    assert asked == ["b"]
