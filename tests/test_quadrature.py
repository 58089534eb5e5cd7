"""Quadrature: panels, improper integrals, sequence acceleration."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from slq.problem import catalog
from slq.quadrature import (
    MAX_WINDOWS,
    _complex,
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


def test_improper_unresolved_window_is_undecided():
    # The third window, [0.125, 0.25], holds the double pole at 0.2: its
    # panel misses its tolerance, and the sweep is undecided rather than
    # reading the window's huge value as divergence.
    res = improper_integral(lambda x: 1 / (x - 0.2) ** 2, 1.0, 0.0)
    assert not res.converged and not res.diverged
    assert abs(res.contributions[2]) > 1e12
    assert res.error > abs(res.contributions[2])


def test_improper_unresolved_window_keeps_the_later_windows():
    # The third window holds |x - 0.2|^(-1/2), which its panel does not
    # resolve to 1e-14.  The sweep is undecided but runs on: its value
    # counts every window, the ones past the unresolved one included, and
    # its error covers the unresolved window's.
    exact = 2.0 + 2.0 * (math.sqrt(0.2) + math.sqrt(0.8))

    def f(x):
        return 1 / math.sqrt(x) + 1 / math.sqrt(abs(x - 0.2) + 1e-300)

    res = improper_integral(f, 1.0, 0.0)
    assert not res.converged and not res.diverged
    assert len(res.contributions) > 3
    assert abs(res.value + exact) <= res.error < 1e-6
    # Through _complex, as the forms and the Lagrange values call it.
    val, err, ok, div = _complex(improper_integral, lambda x: 1j * f(x),
                                 1.0, 0.0)
    assert not ok and not div
    assert abs(val.imag + exact) <= err and val.real == 0.0


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


# -- quad: dqk21 and bisection against scipy.integrate.quad ----------------

def _pin_integrand(kind, c, p):
    """Integrands that exercise every exit of the subdivision: one
    Gauss-Kronrod pass, bisection, singularities inside the panel (cusp,
    1/sqrt and log) and the roundoff and subdivision-limit exits."""
    return {
        "smooth": lambda x: math.sin(p * x) * math.exp(-c * x),
        "cusp": lambda x: abs(x - c) ** p,
        "inverse_sqrt": lambda x: 1.0 / math.sqrt(abs(x - c) + 1e-300),
        "log": lambda x: math.log(abs(x - c) + 1e-300),
        "peak": lambda x: 1.0 / (1e-6 + (x - c) ** 2),
        "oscillating": lambda x: math.sin(1.0 / (abs(x - c) + 0.02)),
        "noisy": lambda x: math.exp(x) + 10.0 ** (-4 * p) * math.sin(1e10 * x),
    }[kind]


def _pin_exact(kind, a, b, c, p):
    """The closed form of _pin_integrand(kind, c, p) from a to b, c between
    them; None for "noisy", whose 1e10 frequency no panel resolves."""
    lo, hi = min(a, b), max(a, b)
    sign = 1.0 if b > a else -1.0

    def sides(g):
        # g(u): the integral over a distance u from c on one side.
        return sign * (g(c - lo) + g(hi - c))

    if kind == "smooth":
        def prim(x):
            return math.exp(-c * x) * (-c * math.sin(p * x)
                                       - p * math.cos(p * x)) / (c * c + p * p)
        return sign * (prim(hi) - prim(lo))
    if kind == "cusp":
        return sides(lambda u: u ** (p + 1) / (p + 1))
    if kind == "inverse_sqrt":
        return sides(lambda u: 2.0 * math.sqrt(u))
    if kind == "log":
        return sides(lambda u: u * math.log(u) - u if u > 0 else 0.0)
    if kind == "peak":
        return sides(lambda u: 1e3 * math.atan(u / 1e-3))
    if kind == "oscillating":
        # The integral of sin(1/t) is t sin(1/t) - Ci(1/t).
        def prim(t):
            return t * math.sin(1.0 / t) - scipy.special.sici(1.0 / t)[1]
        return sides(lambda u: prim(u + 0.02) - prim(0.02))
    return None


def test_quad_matches_scipy_quad_and_closed_forms():
    # scipy's quad is dqagse: it adds Wynn's epsilon extrapolation toward
    # singularities inside the panel, which slq's panels never hold.  So
    # quad must match it bit for bit wherever dqagse does not extrapolate
    # (every smooth integrand and every one-pass panel), and elsewhere
    # miss the closed form beyond its own error bar on no more cases of a
    # kind than scipy does.
    rng = np.random.default_rng(2024)
    kinds = ["smooth", "cusp", "inverse_sqrt", "log", "peak", "oscillating",
             "noisy"]
    misses = {kind: [0, 0] for kind in kinds[:-1]}  # [quad, scipy]
    one_pass = smooth_subdivided = subdivided = 0
    for i in range(2000):
        kind = kinds[i % len(kinds)]
        a = rng.uniform(-2.0, 2.0)
        b = a + rng.choice([1.0, -1.0]) * rng.uniform(1e-6, 4.0)
        c = rng.uniform(min(a, b), max(a, b))
        p = rng.uniform(0.1, 3.0)
        f = _pin_integrand(kind, c, p)
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
        subdivided += got[2]["neval"] > 21
        if kind == "smooth" or want[2]["neval"] == 21:
            assert float(got[0]).hex() == float(want[0]).hex(), case
            assert got[1].hex() == want[1].hex(), case
            assert got[2]["neval"] == want[2]["neval"], case
            one_pass += want[2]["neval"] == 21
            smooth_subdivided += kind == "smooth" and want[2]["neval"] > 21
        exact = _pin_exact(kind, a, b, c, p)
        if exact is None:
            continue
        for k, (val, err) in enumerate((got[:2], want[:2])):
            misses[kind][k] += abs(val - exact) > err + 4e-15 * (1 + abs(exact))
    for kind, (ours, theirs) in misses.items():
        assert ours <= theirs, (kind, ours, theirs)
    assert one_pass >= 300 and smooth_subdivided >= 10 and subdivided >= 1000


def test_quad_roundoff_and_bad_point_exits_stop_the_bisection():
    # Noise at 1e-8 that no panel resolves: the roundoff exit stops after
    # 20 subintervals, where the bisection would go on to a bad point.
    noisy = quad(lambda x: math.exp(x) + 1e-8 * math.sin(1e10 * x),
                 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200,
                 full_output=1)
    assert noisy[2]["neval"] == 42 * 20 - 21
    # A 1/sqrt singularity at 0.3: the bisection stops where the interval
    # around it cannot be halved in floating point, and the error bar
    # still holds; without the bad-point exit it runs to the limit and
    # reports an error of 3e118.
    c = 0.3
    val, err, info = quad(lambda x: 1.0 / math.sqrt(abs(x - c) + 1e-300),
                          0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200,
                          full_output=1)
    assert info["neval"] < 42 * 200 - 21
    assert abs(val - 2.0 * (math.sqrt(c) + math.sqrt(1.0 - c))) <= err < 1e-6


def test_quad_sums_the_subintervals_in_slot_order():
    # QUADPACK keeps the half with the larger error in the bisected
    # interval's slot and sums the slots in order; that order fixes the
    # last bit of the value.
    val, err, info = quad(lambda x: 1.0 / (1e-6 + (x - 0.3) ** 2), 0.0, 1.0,
                          epsabs=1e-14, epsrel=1e-10, limit=100,
                          full_output=1)
    assert (val.hex(), err.hex(), info["neval"]) == (
        "0x1.881a959a7e9acp+11", "0x1.d8778a4cb6c00p-26", 567)


def test_quad_error_covers_a_node_next_to_a_pole():
    # A node lands within 1e-300 of the pole at c: its subinterval's error
    # is about 1e16 times the others', and the running error sum cancels
    # them all to 0.0 once it is bisected.  A fresh sum of the
    # subintervals' errors keeps the bisection going and the error bar
    # true.
    a, b, c = -1.5497232313550802, -3.434901588062557, -2.138868142655335
    val, err = quad(lambda x: 1.0 / math.sqrt(abs(x - c) + 1e-300), a, b,
                    epsabs=1e-10, epsrel=1e-12, limit=100)
    exact = -2.0 * (math.sqrt(a - c) + math.sqrt(c - b))
    assert 0.0 < abs(val - exact) <= err


def test_quad_empty_interval_is_zero_evaluations():
    assert quad(math.exp, 1.5, 1.5, epsabs=1e-13, epsrel=1e-12, limit=200,
                full_output=1) == (0.0, 0.0, {"neval": 0})


def test_quad_refuses_infinite_limits():
    with pytest.raises(ValueError):
        quad(math.exp, -math.inf, 0.0, epsabs=1e-13, epsrel=1e-12, limit=200)
