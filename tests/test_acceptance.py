"""Acceptance gate: end-to-end checks at pinned tolerances.

Each test freezes one top-level correctness claim of the toolkit: Green-type
identities in all three endpoint regimes, spectral regression against
classical oracles, cut-point independence of the regularized form, Wronskian
normalization, the boundary-triplet algebra, and the cross-path equality
between the forms of the relation route and hand-written decorations.
"""

import cmath
import math

import numpy as np
import pytest

from slq.bvalues import gbv, patched_pair
from slq.classify import LIMIT_CIRCLE, LIMIT_POINT, classify_endpoint
from slq.errors import DomainConstraintViolated
from slq.extensions import Coupled, LpLp, OneLC, Separated, eigenvalues_shoot
from slq.forms import (
    REGIME_LC_LC,
    REGIME_LC_LP,
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
from slq.odecore import wronskian
from slq.problem import catalog, validate
from slq.triplets import (
    _weighted_pairing,
    decompose,
    pair_from_extension,
    triplet_green_residual,
)


def _two_lc_pool(spec, bases):
    """Assembled dom(T_max) members: polynomials, bumps, patched pair."""
    a, b = spec.interval.endpoints()
    mid = spec.interval.interior_point()
    pp = patched_pair(spec, bases[0], bases[1])
    return [
        pp.v1,
        pp.v2,
        polynomial(spec, [1.0, 0.5]),
        polynomial(spec, [0.2, -1.0, 0.4]),
        BumpFn(spec, center=mid, width=0.35 * (b - a)),
    ]


# -------------------------------------------------------------------------
# 1. Green identity, two limit-circle endpoints
# -------------------------------------------------------------------------


@pytest.mark.parametrize("problem", ["dirichlet", "legendre"])
def test_green_identity_two_lc(problem, request):
    spec = request.getfixturevalue(problem)
    bases = request.getfixturevalue(f"{problem}_bases")
    pool = _two_lc_pool(spec, bases)
    n_pairs = 0
    for f in pool:
        for g in pool:
            pairing = _weighted_pairing(spec, bases, f, g.tau, g.breaks)
            res = green_identity_residual(spec, bases, None, f, g)
            assert abs(res) <= 1e-6 * (1 + abs(pairing)), (f, g, res)
            n_pairs += 1
    assert n_pairs >= 20


# -------------------------------------------------------------------------
# 2. Green identity, one limit-circle endpoint (free half-line)
# -------------------------------------------------------------------------


def test_green_identity_one_lc(free_halfline, free_halfline_bases):
    spec, bases = free_halfline, free_halfline_bases
    pool = [
        ExprFunction(spec, "exp(-x)"),
        ExprFunction(spec, "x*exp(-1.5*x)"),
        ExprFunction(spec, "(2 - x)*exp(-x)"),
        ExprFunction(spec, "(1 + x**2)*exp(-2*x)"),
    ]
    n_pairs = 0
    for f in pool:
        for g in pool:
            pairing = _weighted_pairing(spec, bases, f, g.tau, g.breaks)
            res = green_identity_residual(spec, bases, None, f, g,
                                          regime=REGIME_LC_LP)
            assert abs(res) <= 1e-6 * (1 + abs(pairing)), (f, g, res)
            n_pairs += 1
    assert n_pairs >= 10


def test_limit_point_wronskian_vanishes(free_halfline):
    # The Wronskian of two maximal-domain members tends to zero at the
    # limit-point endpoint.
    spec = free_halfline
    f = ExprFunction(spec, "(1 + 2*x)*exp(-x)")
    g = ExprFunction(spec, "(0.5 - x)*exp(-1.5*x)")
    tail = [abs(wronskian(f, g, x)) for x in (5.0, 10.0, 15.0, 20.0)]
    assert all(b <= a for a, b in zip(tail, tail[1:]))
    assert tail[-1] < 1e-6


# -------------------------------------------------------------------------
# 3. Identity and spectrum in the limit-point/limit-point regime
# -------------------------------------------------------------------------


def _hermite_function(spec, n):
    """H_n(x) exp(-x^2/2), which solves tau h = (2n + 1) h for q = x^2."""
    h = np.polynomial.hermite.herm2poly([0.0] * n + [1.0])
    return ExprFunction(
        spec, f"({polynomial(spec, h).expr.text})*exp(-x**2/2)")


def test_lp_lp_identity_hermite(oscillator, oscillator_bases):
    spec, bases = oscillator, oscillator_bases
    pool = [_hermite_function(spec, n) for n in range(4)]
    for f in pool:
        for g in pool:
            pairing = _weighted_pairing(spec, bases, f, g.tau, g.breaks)
            res = green_identity_residual(spec, bases, None, f, g,
                                          regime=REGIME_LP_LP)
            assert abs(res) <= 1e-6 * (1 + abs(pairing)), (f, g, res)


def test_lp_lp_oscillator_spectrum(oscillator):
    eigs = eigenvalues_shoot(oscillator, LpLp(), (0.5, 7.5))
    lams = [e.lam for e in eigs]
    assert lams == pytest.approx([1.0, 3.0, 5.0, 7.0], abs=1e-5)


# -------------------------------------------------------------------------
# 4. Spectral regression against classical oracles
# -------------------------------------------------------------------------


def test_spectrum_dirichlet(dirichlet, dirichlet_bases):
    eigs = eigenvalues_shoot(dirichlet, Separated(0.0, 0.0), (0.5, 17.0),
                             bases=dirichlet_bases)
    lams = [e.lam for e in eigs]
    assert lams == pytest.approx([1.0, 4.0, 9.0, 16.0], abs=1e-6)


def test_spectrum_neumann(dirichlet, dirichlet_bases):
    eigs = eigenvalues_shoot(dirichlet,
                             Separated(math.pi / 2, math.pi / 2),
                             (0.5, 10.0), bases=dirichlet_bases)
    lams = [e.lam for e in eigs]
    assert lams == pytest.approx([1.0, 4.0, 9.0], abs=1e-6)


def test_spectrum_legendre(legendre, legendre_bases):
    eigs = eigenvalues_shoot(legendre, Separated(0.0, 0.0), (-0.5, 12.5),
                             bases=legendre_bases)
    lams = [e.lam for e in eigs]
    assert lams == pytest.approx([0.0, 2.0, 6.0, 12.0], abs=1e-6)


# -------------------------------------------------------------------------
# 5. Cut-point independence of the regularized form
# -------------------------------------------------------------------------


def _windows(spec, bases, n=5):
    a, b = spec.interval.endpoints()
    a0 = bases[0].nonvanish_bound
    b0 = bases[1].nonvanish_bound
    out = []
    for t in np.linspace(0.15, 0.85, n):
        c = a + t * (a0 - a) if math.isfinite(a) else a0 - 1.0 - 4.0 * t
        d = b - t * (b - b0) if math.isfinite(b) else b0 + 1.0 + 4.0 * t
        out.append(FormWindow(c, d))
    return out


def _cut_pool(spec, bases, regime):
    if regime == REGIME_LC_LP:
        return [
            ExprFunction(spec, "exp(-x)"),
            ExprFunction(spec, "x*exp(-1.5*x)"),
            ExprFunction(spec, "(2 - x)*exp(-x)"),
            ExprFunction(spec, "(1 + x**2)*exp(-2*x)"),
            BumpFn(spec, center=2.0, width=1.0),
        ]
    return _two_lc_pool(spec, bases)


@pytest.mark.parametrize("problem,regime", [
    ("dirichlet", REGIME_LC_LC),
    ("legendre", REGIME_LC_LC),
    ("bessel_half", REGIME_LC_LC),
    ("free_halfline", REGIME_LC_LP),
], ids=["dirichlet-lc_lc", "legendre-lc_lc", "bessel_half-lc_lc",
        "free_halfline-lc_lp"])
def test_cut_point_independence(problem, regime, request):
    spec = request.getfixturevalue(problem)
    bases = request.getfixturevalue(f"{problem}_bases")
    pool = _cut_pool(spec, bases, regime)
    windows = _windows(spec, bases)
    n_pairs = 0
    for f in pool:
        for g in pool:
            vals = [q_base(spec, bases, w, regime, f, g).value
                    for w in windows]
            spread = max(abs(v - vals[0]) for v in vals)
            assert spread <= 1e-8 * (1 + abs(vals[0])), (f, g, spread)
            n_pairs += 1
    assert n_pairs >= 20


# -------------------------------------------------------------------------
# 6. Wronskian constancy and normalization
# -------------------------------------------------------------------------


@pytest.mark.parametrize("problem", [
    "dirichlet", "legendre", "free_halfline", "bessel_half", "oscillator",
])
def test_wronskian_normalization(problem, request):
    bases = request.getfixturevalue(f"{problem}_bases")
    for basis in bases:
        lo, hi = basis.trust_interval
        for x in np.linspace(lo, hi, 50):
            w = wronskian(basis.u_hat, basis.u, x)
            assert abs(w - 1.0) <= 1e-8, (problem, basis.endpoint, x, w)


# -------------------------------------------------------------------------
# 7. Triplet algebra on random parameter draws
# -------------------------------------------------------------------------


def test_triplet_algebra_random_draws():
    rng = np.random.default_rng(42)
    for trial in range(200):
        kind = trial % 2
        if kind == 0:
            alpha, beta = rng.uniform(0.0, math.pi, 2)
            ext = Separated(alpha, beta)
        else:
            phi = rng.uniform(0.0, math.pi)
            if trial % 4 == 1:
                # R12 = 0 subcase with the closed-form c_theta oracle.
                r11 = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
                r21 = rng.uniform(-2.0, 2.0)
                R = ((r11, 0.0), (r21, 1.0 / r11))
            else:
                r11 = rng.uniform(0.3, 2.0)
                r12 = rng.uniform(0.2, 2.0)
                r21 = rng.uniform(-2.0, 2.0)
                R = ((r11, r12), (r21, (1.0 + r12 * r21) / r11))
            ext = Coupled(phi, R)
        pair = pair_from_extension(ext)     # runs validate_pair
        A = pair.A
        Ap = np.linalg.pinv(A)
        for defect in (
            np.linalg.norm(A @ Ap @ A - A),
            np.linalg.norm(Ap @ A @ Ap - Ap),
            np.linalg.norm((A @ Ap).conj().T - A @ Ap),
            np.linalg.norm((Ap @ A).conj().T - Ap @ A),
        ):
            assert defect <= 1e-12
        rel = decompose(pair)
        if kind == 0 and math.sin(alpha) > 1e-3 \
                and math.sin(beta) > 1e-3:
            theta = rel.dom_basis @ rel.theta_op @ rel.dom_basis.conj().T
            want = np.diag([-1 / math.tan(alpha),
                            1 / math.tan(beta)])
            assert np.max(np.abs(theta - want)) \
                <= 1e-12 * (1 + np.max(np.abs(want)))
        if kind == 1 and R[0][1] == 0.0:
            R11, R21 = R[0][0], R[1][0]
            R22 = R[1][1]
            want = -R21 / (R11 + R22) if abs(R11 + R22) > 1e-12 else None
            if want is not None and rel.c_theta is not None:
                assert rel.c_theta == pytest.approx(want, abs=1e-10)


# -------------------------------------------------------------------------
# 8. Cross-path equality: the relation's decoration vs hand-written ones
# -------------------------------------------------------------------------


def _oracle_decoration(spec, bases, drawn, f, g):
    """The boundary term of the condition drawn as `drawn` written out per
    variant, as the reference for the decoration the form takes from its
    boundary relation.  `drawn` is the drawn parameters, never read back
    from the pair: {end: t} for a separated condition, (phi, R) for a
    coupled one.

    Separated: angle 0 at an end demands g~ = 0 there, any other angle t
    adds -SIGMA[end] cot t conj(f~) g~.  Coupled with R12 != 0:
    -(R11 conj(f~a) g~a - e^{-i phi} conj(f~a) g~b - e^{i phi} conj(f~b) g~a
    + R22 conj(f~b) g~b) / R12.  Coupled with R12 = 0: the domain is
    g~(b) = e^{i phi} R11 g~(a), and the term is -R11 R21 conj(f~a) g~a.
    """
    ends = tuple(drawn) if isinstance(drawn, dict) else ("a", "b")
    vf = {end: gbv(spec, bases["ab".index(end)], f).tilde for end in ends}
    vg = {end: gbv(spec, bases["ab".index(end)], g).tilde for end in ends}
    # The form's default domain tolerance, relative to 1 + max |g~|.
    tol = 1e-6 * (1.0 + max(map(abs, (*vf.values(), *vg.values())),
                            default=0.0))
    if isinstance(drawn, dict):
        deco = 0.0
        for end, t in drawn.items():
            fe, ge = vf[end], vg[end]
            if t == 0.0:
                if max(abs(fe), abs(ge)) > tol:
                    raise DomainConstraintViolated(f"g~({end}) != 0")
            else:
                deco += -SIGMA[end] * math.cos(t) / math.sin(t) \
                    * np.conj(fe) * ge
        return deco
    fa, fb, ga, gb = vf["a"], vf["b"], vg["a"], vg["b"]
    phi, R = drawn
    R = np.asarray(R, dtype=float)
    eip = cmath.exp(1j * phi)
    if R[0, 1] != 0.0:
        return -(R[0, 0] * np.conj(fa) * ga
                 - np.conj(eip) * np.conj(fa) * gb
                 - eip * np.conj(fb) * ga
                 + R[1, 1] * np.conj(fb) * gb) / R[0, 1]
    for va, vb in ((fa, fb), (ga, gb)):
        if abs(vb - eip * R[0, 0] * va) > tol:
            raise DomainConstraintViolated("g~(b) != e^{i phi} R11 g~(a)")
    return -R[0, 0] * R[1, 0] * np.conj(fa) * ga


def _check_against_oracle(spec, bases, regime, ext, drawn, f, g):
    """q_decorated against q_base + the oracle on the drawn parameters, at
    1e-6 (1 + |q|)."""
    want = q_base(spec, bases, None, regime, f, g).value \
        + _oracle_decoration(spec, bases, drawn, f, g)
    q = q_decorated(spec, bases, None, ext, f, g).value
    assert abs(q - want) <= 1e-6 * (1 + abs(want)), (ext, q, want)


# Each draw returns (extension, drawn parameters) for the oracle.
def _random_separated(rng):
    angles = dict(zip("ab", rng.uniform(0.05, math.pi - 0.05, 2)))
    return Separated(angles["a"], angles["b"]), angles


def _random_coupled(rng):
    r11 = rng.uniform(0.3, 1.8)
    r12 = rng.uniform(0.2, 1.8)
    r21 = rng.uniform(-1.5, 1.5)
    drawn = (rng.uniform(0.05, math.pi - 0.05),
             ((r11, r12), (r21, (1.0 + r12 * r21) / r11)))
    return Coupled(*drawn), drawn


def _random_coupled_r12_zero(rng):
    r11, r21 = rng.uniform(0.3, 1.8, 2) * rng.choice([-1.0, 1.0], 2)
    drawn = (rng.uniform(0.05, math.pi - 0.05),
             ((r11, 0.0), (r21, 1.0 / r11)))
    return Coupled(*drawn), drawn


def _admissible_r12_zero(spec, drawn, rng):
    """A complex combination with g~(a) = c and g~(b) = e^{i phi} R11 c on
    (0, pi), where g~ is the value at the regular end: c (1 - x/pi) +
    e^{i phi} R11 c x/pi plus a polynomial vanishing at both ends."""
    c = complex(*rng.uniform(-1, 1, 2))
    d = complex(*rng.uniform(-1, 1, 2))
    phi, R = drawn
    cb = cmath.exp(1j * phi) * R[0][0] * c
    return LinearCombination(
        [c, cb, d],
        [polynomial(spec, [1.0, -1.0 / math.pi]),
         polynomial(spec, [0.0, 1.0 / math.pi]),
         polynomial(spec, [0.0, math.pi, -1.0])])


@pytest.mark.parametrize("regime", ["separated", "coupled"])
def test_cross_path_two_lc(regime, dirichlet, dirichlet_bases):
    spec, bases = dirichlet, dirichlet_bases
    rng = np.random.default_rng(3 if regime == "separated" else 4)
    pool = [polynomial(spec, rng.uniform(-1, 1, 3)) for _ in range(6)]
    for trial in range(50):
        ext, drawn = _random_separated(rng) if regime == "separated" \
            else _random_coupled(rng)
        f = pool[rng.integers(len(pool))]
        g = pool[rng.integers(len(pool))]
        _check_against_oracle(spec, bases, REGIME_LC_LC, ext, drawn, f, g)


def test_cross_path_coupled_r12_zero(dirichlet, dirichlet_bases):
    # R12 = 0: the domain constraint holds and g~ != 0, so the term
    # -R11 R21 conj(f~(a)) g~(a) enters the form.
    spec, bases = dirichlet, dirichlet_bases
    rng = np.random.default_rng(8)
    for trial in range(20):
        ext, drawn = _random_coupled_r12_zero(rng)
        f = _admissible_r12_zero(spec, drawn, rng)
        g = _admissible_r12_zero(spec, drawn, rng)
        _check_against_oracle(spec, bases, REGIME_LC_LC, ext, drawn, f, g)
        # Moving g~(b) alone leaves the domain.
        off = LinearCombination([1.0, 1.0],
                                [g, polynomial(spec, [0.0, 1.0 / math.pi])])
        with pytest.raises(DomainConstraintViolated, match=r"g~\(b\)"):
            q_decorated(spec, bases, None, ext, f, off)


def test_cross_path_one_lc(free_halfline, free_halfline_bases):
    spec, bases = free_halfline, free_halfline_bases
    rng = np.random.default_rng(5)
    pool = []
    for k in (1.0, 1.5, 2.0, 2.5):
        c0, c1 = map(float, rng.uniform(-1, 1, 2))
        pool.append(ExprFunction(spec, f"({c0!r} + ({c1!r})*x)*exp(-{k}*x)"))
    for trial in range(50):
        alpha = rng.uniform(0.05, math.pi - 0.05)
        ext = OneLC(alpha=alpha, lc_endpoint="a")
        f = pool[rng.integers(len(pool))]
        g = pool[rng.integers(len(pool))]
        _check_against_oracle(spec, bases, REGIME_LC_LP, ext, {"a": alpha},
                              f, g)


def test_cross_path_lp_lp(oscillator, oscillator_bases):
    spec, bases = oscillator, oscillator_bases
    rng = np.random.default_rng(6)
    pool = [_hermite_function(spec, n) for n in range(3)]
    for trial in range(50):
        f = pool[rng.integers(len(pool))]
        g = pool[rng.integers(len(pool))]
        _check_against_oracle(spec, bases, REGIME_LP_LP, LpLp(), {}, f, g)


def test_krein_form_closed_form(dirichlet, dirichlet_bases):
    # Coupled(0, [[1, pi], [0, 1]]) carries ker T_max = span{1, x} on
    # (0, pi) from a to b, so it is the Krein-von Neumann extension of
    # T_min >= 1, and q_K[f + h] = q_F[f] for h in ker T_max (Alonso &
    # Simon, J. Operator Theory 4, 1980).  With f = x (pi - x) and
    # h = 1 + x / 2 both values are q_F[f] = int (pi - 2x)^2 = pi^3 / 3.
    spec, bases = dirichlet, dirichlet_bases
    ext = Coupled(0.0, ((1.0, math.pi), (0.0, 1.0)))
    f = polynomial(spec, [0.0, math.pi, -1.0])
    F = polynomial(spec, [1.0, math.pi + 0.5, -1.0])
    for fn in (F, f):
        value = q_decorated(spec, bases, None, ext, fn, fn).value
        assert abs(value - math.pi ** 3 / 3) <= 1e-12, value


# -------------------------------------------------------------------------
# 9. Abstract Green identity for the boundary triplet
# -------------------------------------------------------------------------


@pytest.mark.parametrize("problem", ["dirichlet", "legendre", "bessel_half"])
def test_triplet_green_identity(problem, request):
    spec = request.getfixturevalue(problem)
    bases = request.getfixturevalue(f"{problem}_bases")
    pool = _two_lc_pool(spec, bases)
    n_pairs = 0
    for f in pool:
        for g in pool:
            res = triplet_green_residual(spec, bases, f, g)
            assert abs(res) <= 1e-6, (f, g, res)
            n_pairs += 1
    assert n_pairs >= 20


# -------------------------------------------------------------------------
# 10. Generalized boundary values at a regular endpoint
# -------------------------------------------------------------------------


def test_gbv_regular_polynomials(dirichlet, dirichlet_bases):
    rng = np.random.default_rng(11)
    for _ in range(10):
        coeffs = rng.uniform(-2, 2, 4)
        g = polynomial(dirichlet, coeffs)
        v = gbv(dirichlet, dirichlet_bases[0], g)
        assert abs(v.tilde - g(0.0)) <= 1e-8
        assert abs(v.tilde_prime - coeffs[1]) <= 1e-8


# -------------------------------------------------------------------------
# 11. Endpoint classification
# -------------------------------------------------------------------------


def test_classification_catalog(legendre, free_halfline, bessel_half):
    bessel_two = catalog("bessel(2)")
    validate(bessel_two)
    assert classify_endpoint(legendre, "a").kind == LIMIT_CIRCLE
    assert classify_endpoint(legendre, "b").kind == LIMIT_CIRCLE
    assert classify_endpoint(bessel_two, "a").kind == LIMIT_POINT
    assert classify_endpoint(free_halfline, "b").kind == LIMIT_POINT
    assert classify_endpoint(bessel_half, "a").kind == LIMIT_CIRCLE
