"""Generalized boundary values and patched reference functions."""

import pytest

from slq.bvalues import gbv, patched_pair
from slq.errors import WindowsOverlap
from slq.functions import LinearCombination, polynomial


def test_gbv_regular_classical_values(dirichlet, dirichlet_bases):
    g = polynomial(dirichlet, [2.0, 3.0])
    v = gbv(dirichlet, dirichlet_bases[0], g)
    assert v.tilde == pytest.approx(2.0, abs=1e-12)
    assert v.tilde_prime == pytest.approx(3.0, abs=1e-12)
    assert v.route == "classical"


def test_gbv_basis_patterns_singular(legendre, legendre_bases):
    # u_hat has boundary data (1, 0); u has (0, 1), at both endpoints.
    for basis in legendre_bases:
        vh = gbv(legendre, basis, basis.u_hat)
        vu = gbv(legendre, basis, basis.u)
        assert vh.tilde == pytest.approx(1.0, abs=1e-8)
        assert abs(vh.tilde_prime) < 1e-8
        assert abs(vu.tilde) < 1e-8
        assert vu.tilde_prime == pytest.approx(1.0, abs=1e-8)


def test_gbv_linearity(legendre, legendre_bases):
    basis = legendre_bases[1]
    f = basis.u_hat
    g = basis.u
    combo = LinearCombination([2.0, -0.5], [f, g])
    v = gbv(legendre, basis, combo)
    assert v.tilde == pytest.approx(2.0, abs=1e-7)
    assert v.tilde_prime == pytest.approx(-0.5, abs=1e-7)
    # A complex g: its tau is complex at every node, so both Lagrange
    # integrals split into real and imaginary parts.  g = c x^4 has
    # g~' = c (+-1)^4 = c at both ends.
    c = 0.5 + 2j
    combo = LinearCombination([c], [polynomial(legendre, [0.0] * 4 + [1.1])])
    for basis in legendre_bases:
        v = gbv(legendre, basis, combo)
        assert abs(v.tilde_prime - c * 1.1) <= 1e-10 * abs(c), basis.endpoint


def test_gbv_polynomial_at_singular_endpoint(legendre, legendre_bases):
    # P1 = x has generalized boundary values (0, 1) at x = 1: it is a
    # multiple of the principal solution there up to higher order.
    g = polynomial(legendre, [0.0, 1.0])
    v = gbv(legendre, legendre_bases[1], g)
    assert abs(v.tilde) < 1e-7
    assert v.tilde_prime == pytest.approx(1.0, abs=1e-6)


def test_gbv_memo_returns_the_same_object(legendre, legendre_bases):
    basis = legendre_bases[1]
    g = polynomial(legendre, [0.0, 1.0])
    first = gbv(legendre, basis, g)
    assert gbv(legendre, basis, g) is first


def test_gbv_memo_never_shares_between_functions(dirichlet, dirichlet_bases):
    basis = dirichlet_bases[1]
    g1 = polynomial(dirichlet, [2.0, 3.0])
    g2 = polynomial(dirichlet, [2.0, 3.0])
    v1 = gbv(dirichlet, basis, g1)
    v2 = gbv(dirichlet, basis, g2)
    assert v2 is not v1
    assert (v2.tilde, v2.tilde_prime) == (v1.tilde, v1.tilde_prime)


def test_gbv_memo_entry_for_another_object_is_a_miss(dirichlet,
                                                     dirichlet_bases):
    # An entry under g's id that holds a different function is not g's.
    basis = dirichlet_bases[0]
    g = polynomial(dirichlet, [2.0, 3.0])
    stale = object()
    basis._gbv_memo[id(g)] = (polynomial(dirichlet, [0.0]), stale)
    v = gbv(dirichlet, basis, g)
    assert v is not stale
    assert v.tilde == pytest.approx(2.0, abs=1e-12)
    assert gbv(dirichlet, basis, g) is v


def test_patched_pair_boundary_data(dirichlet, dirichlet_bases):
    pp = patched_pair(dirichlet, dirichlet_bases[0], dirichlet_bases[1])
    for basis in dirichlet_bases:
        v1 = gbv(dirichlet, basis, pp.v1)
        v2 = gbv(dirichlet, basis, pp.v2)
        assert v1.tilde == pytest.approx(1.0, abs=1e-9)
        assert abs(v1.tilde_prime) < 1e-9
        assert abs(v2.tilde) < 1e-9
        assert v2.tilde_prime == pytest.approx(1.0, abs=1e-9)


def test_patched_pair_requires_disjoint_windows(dirichlet, dirichlet_bases):
    with pytest.raises(WindowsOverlap):
        patched_pair(dirichlet, dirichlet_bases[1], dirichlet_bases[0])


def test_blend_continuity(dirichlet, dirichlet_bases):
    pp = patched_pair(dirichlet, dirichlet_bases[0], dirichlet_bases[1])
    a0, b0 = pp.v2.window
    for x0 in (a0, b0):
        left = pp.v2.pair(x0 - 1e-9)
        right = pp.v2.pair(x0 + 1e-9)
        assert left[0] == pytest.approx(right[0], abs=1e-7)
        assert left[1] == pytest.approx(right[1], abs=1e-6)


def test_blend_tau_matches_finite_differences(dirichlet, dirichlet_bases):
    pp = patched_pair(dirichlet, dirichlet_bases[0], dirichlet_bases[1])
    a0, b0 = pp.v2.window
    x = 0.5 * (a0 + b0) + 0.1 * (b0 - a0)
    h = 1e-5
    # tau v = -v'' for this problem; central difference on values.
    vm, v0, vp = pp.v2(x - h), pp.v2(x), pp.v2(x + h)
    fd = -(vm - 2 * v0 + vp) / (h * h)
    assert pp.v2.tau(x) == pytest.approx(fd, rel=1e-4, abs=1e-4)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("s", [0.85, -0.85, 1.1, -0.9013])
def test_gbv_tilde_prime_of_monomials_on_legendre(legendre, legendre_bases,
                                                  k, s):
    # At lambda0 = 0 the principal solution is u = 1 at both ends, so
    # W(u_hat, u) = 1 makes u_hat^[1] = -1, and W(u_hat, g) = u_hat g^[1] + g.
    # g^[1] = p g' vanishes like 1 - x^2 while u_hat grows like a log, so
    # g~ = -g^[1](+-1) = 0 and g~' = g(+-1) = s (+-1)^k exactly.  The
    # Lagrange integral of u_hat tau g leaves about 5e-12 in g~', and its
    # error estimate covers that within a factor 10^3.
    g = polynomial(legendre, [0.0] * k + [s])
    for basis, end in zip(legendre_bases, (-1.0, 1.0)):
        want = s * end ** k
        v = gbv(legendre, basis, g)
        err = abs(v.tilde_prime - want)
        assert err <= 1e-10 * (1 + abs(want)), (end, v.tilde_prime, want)
        assert abs(v.tilde) <= 1e-14, (end, v.tilde)
        assert err <= v.tilde_prime_error <= 1e3 * max(err, 1e-15), \
            (end, err, v.tilde_prime_error)


def test_gbv_tilde_of_a_cubic_keeps_the_wronskian_route(legendre,
                                                       legendre_bases):
    # A ratio route g/u_hat converges like 1/log and once gave
    # g~(1) = -2.47e-5 for this cubic.  The Lagrange route is the Wronskian
    # at the nonvanishing bound plus an integral, and its value is the
    # exact 0 of a polynomial at a Legendre end.
    g = polynomial(legendre, [-0.3288239, -0.7921468, 0.4549581, -0.0991981])
    v = gbv(legendre, legendre_bases[1], g)
    assert v.route == "lagrange"
    assert abs(v.tilde) <= 1e-9
