"""Endpoint classification: Weyl alternative and oscillation counting."""

import math

import pytest

from slq.classify import (
    LIMIT_CIRCLE,
    LIMIT_POINT,
    certify_nonoscillatory,
    classify_both,
    classify_endpoint,
    count_zeros,
)
from slq.problem import catalog, validate


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
    # 8 samples per DOP853 step must see each of them.
    x1, x2 = 0.1, math.pi - 0.1
    want = math.floor((x2 - x1) * 20.0 / math.pi)
    assert want == 18
    assert count_zeros(dirichlet, 400.0, (x1, x2), init=(0.0, 1.0)) == want


def test_certify_nonoscillatory_at_lambda0(legendre, dirichlet):
    assert certify_nonoscillatory(legendre, 0.0)["a"] != "refuted"
    assert certify_nonoscillatory(dirichlet, 0.0)["b"] != "refuted"
