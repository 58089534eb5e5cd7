"""Quadrature: panels, improper integrals, sequence acceleration."""

import math

import numpy as np
import pytest
import scipy.integrate

from slq.problem import catalog
from slq.quadrature import (
    MAX_WINDOWS,
    accelerated_limit,
    geometric_points,
    improper_integral,
    interval_integral,
    panel,
    quad,
)


def test_panel_polynomial():
    val, err = panel(lambda x: 3 * x * x, 0.0, 2.0)
    assert val == pytest.approx(8.0, abs=1e-12)


def test_improper_inverse_sqrt_converges():
    # int_0^1 x^{-1/2} dx = 2 with an endpoint singularity at 0.
    res = improper_integral(lambda x: 1 / math.sqrt(x), 1.0, 0.0)
    assert res.converged and not res.diverged
    assert res.value == pytest.approx(-2.0, abs=1e-9)


def test_improper_log_singularity():
    # int_0^1 log(x) dx = -1; window contributions decay like k 2^{-k},
    # which the certifier treats conservatively, so check value and error.
    res = improper_integral(lambda x: math.log(x), 1.0, 0.0)
    assert not res.diverged
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.error < 1e-9


def test_improper_divergent_detected():
    res = improper_integral(lambda x: 1 / x, 1.0, 0.0)
    assert res.diverged


# One 21-point Gauss-Kronrod pass per window: toward a finite nonzero
# endpoint no window refines below the resolution of its nodes.
ONE_PASS_PER_WINDOW = 21 * MAX_WINDOWS


def _counted(f):
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)
    return g, calls


def test_improper_inverse_sqrt_at_endpoint_one():
    # int_0^1 (1 - x)^{-1/2} dx = 2; near 1 a node fixes 1 - x only to
    # ulp(1) / (1 - x) relative, so the value is good to rounding level.
    f, calls = _counted(lambda x: 1 / math.sqrt(1 - x))
    res = improper_integral(f, 0.0, 1.0)
    assert res.converged and not res.diverged
    assert abs(res.value - 2.0) <= res.error
    assert calls[0] <= ONE_PASS_PER_WINDOW


def test_improper_log_singularity_at_endpoint_one():
    # int_0^1 log(1 - x) dx = -1.
    f, calls = _counted(lambda x: math.log(1 - x))
    res = improper_integral(f, 0.0, 1.0)
    assert not res.diverged
    assert abs(res.value + 1.0) <= res.error
    assert calls[0] <= ONE_PASS_PER_WINDOW


def test_improper_divergent_detected_at_endpoint_one():
    f, calls = _counted(lambda x: 1 / (1 - x))
    res = improper_integral(f, 0.0, 1.0)
    assert res.diverged
    assert calls[0] <= ONE_PASS_PER_WINDOW


@pytest.mark.parametrize("end", [-1.0, 1.0])
def test_legendre_inverse_p_diverges_in_one_pass_per_window(end):
    # Legendre's ends are singular: int |1/p| = int 1/(1 - x^2) diverges
    # logarithmically toward both.
    p = catalog("legendre").p.scalar
    f, calls = _counted(lambda x: abs(1.0 / p(x)))
    res = improper_integral(f, 0.0, end)
    assert res.diverged
    assert calls[0] <= ONE_PASS_PER_WINDOW


def test_improper_infinite_endpoint():
    res = improper_integral(lambda x: math.exp(-x), 0.0, math.inf)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_improper_infinite_power_tail():
    res = improper_integral(lambda x: 1 / (1 + x) ** 2, 0.0, math.inf)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-8)


def test_interval_integral_matches_panel():
    v1, err = interval_integral(lambda x: math.cos(x), 0.0, 1.0)
    assert v1 == pytest.approx(math.sin(1.0), abs=1e-12)


@pytest.mark.parametrize("f, a, b, ends, want", [
    (lambda x: 1 / math.sqrt(x), 0.0, 1.0, {"singular_a": True}, 2.0),
    (lambda x: math.exp(-x), 0.0, math.inf, {"singular_b": True}, 1.0),
    (lambda x: 1 / math.sqrt(x * (1 - x)), 0.0, 1.0,
     {"singular_a": True, "singular_b": True, "split": (0.25, 0.75)},
     math.pi),
])
def test_interval_integral_improper_ends(f, a, b, ends, want):
    # Each singular side goes to improper_integral, the rest to panels.
    v, err = interval_integral(f, a, b, **ends)
    assert v == pytest.approx(want, abs=1e-8)


def test_geometric_points_monotone_toward_finite_endpoint():
    pts = geometric_points(0.5, 1.0)
    assert pts[0] == 0.5
    assert all(b > a for a, b in zip(pts, pts[1:]))
    assert pts[-1] <= 1.0


def test_geometric_points_infinite_endpoint_doubles():
    pts = geometric_points(1.0, math.inf, n_windows=8)
    assert all(b > a for a, b in zip(pts, pts[1:]))
    assert pts[-1] > 50.0


def test_accelerated_limit_geometric_decay():
    # S_k = 1 - 2^{-k}: geometric approach to 1.
    sums = [1.0 - 0.5 ** k for k in range(1, 14)]
    us = list(range(1, 14))
    value, err, certified = accelerated_limit(sums, us)
    assert value == pytest.approx(1.0, abs=1e-10)
    assert certified


def test_accelerated_limit_harmonic_decay():
    # S_k = 1 - 1/(3 + k): the slow model that motivates the second fit.
    sums = [1.0 - 1.0 / (3.0 + k) for k in range(1, 20)]
    us = list(range(1, 20))
    value, err, certified = accelerated_limit(sums, us)
    assert value == pytest.approx(1.0, abs=1e-8)


# -- quad: the QUADPACK port against scipy.integrate.quad ------------------

def _pin_integrand(kind, c, p):
    """Integrands that exercise every exit of dqagse: one Gauss-Kronrod
    pass, bisection, Wynn's epsilon algorithm (cusp, 1/sqrt and log
    singularities) and the roundoff and subdivision-limit exits."""
    return {
        "smooth": lambda x: math.sin(p * x) * math.exp(-c * x),
        "cusp": lambda x: abs(x - c) ** p,
        "inverse_sqrt": lambda x: 1.0 / math.sqrt(abs(x - c) + 1e-300),
        "log": lambda x: math.log(abs(x - c) + 1e-300),
        "peak": lambda x: 1.0 / (1e-6 + (x - c) ** 2),
        "oscillating": lambda x: math.sin(1.0 / (abs(x - c) + 0.02)),
        "noisy": lambda x: math.exp(x) + 10.0 ** (-4 * p) * math.sin(1e10 * x),
    }[kind]


def test_quad_reproduces_scipy_quad():
    rng = np.random.default_rng(2024)
    kinds = ["smooth", "cusp", "inverse_sqrt", "log", "peak", "oscillating",
             "noisy"]
    subdivided = at_limit = extrapolated = roundoff = 0
    for i in range(2000):
        kind = kinds[i % len(kinds)]
        a = rng.uniform(-2.0, 2.0)
        b = a + rng.choice([1.0, -1.0]) * rng.uniform(1e-6, 4.0)
        c = rng.uniform(min(a, b), max(a, b))
        f = _pin_integrand(kind, c, rng.uniform(0.1, 3.0))
        epsabs = float(rng.choice([1e-14, 1e-13, 1e-10]))
        epsrel = float(rng.choice([1e-12, 1e-10, 1e-6]))
        limit = int(rng.choice([100, 30, 10, 3]))
        if i % 3 == 0:
            a, b = np.float64(a), np.float64(b)
        else:
            a, b = float(a), float(b)
        want = scipy.integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel,
                                    limit=limit, full_output=1)
        got = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                   full_output=1)
        case = (kind, a, b, c, epsabs, epsrel, limit)
        assert float(got[0]).hex() == float(want[0]).hex(), case
        assert got[1].hex() == want[1].hex(), case
        assert got[2]["neval"] == want[2]["neval"], case
        subdivided += want[2]["neval"] > 21
        at_limit += want[2]["last"] == limit
        # A value other than the sum over the subintervals is extrapolated.
        parts = want[2]["rlist"][:want[2]["last"]]
        extrapolated += not math.isclose(abs(want[0]), abs(parts.sum()),
                                         rel_tol=1e-14)
        roundoff += len(want) > 3 and "roundoff" in want[3]
    assert subdivided >= 1000 and at_limit >= 100
    assert extrapolated >= 100 and roundoff >= 10


def test_quad_empty_interval_is_zero_evaluations():
    assert quad(math.exp, 1.5, 1.5, epsabs=1e-13, epsrel=1e-12, limit=200,
                full_output=1) == (0.0, 0.0, {"neval": 0})


def test_quad_refuses_infinite_limits():
    with pytest.raises(ValueError):
        quad(math.exp, -math.inf, 0.0, epsabs=1e-13, epsrel=1e-12, limit=200)
