"""Extension catalog, boundary residuals, eigenvalue shooting."""

import cmath
import math

import numpy as np
import pytest

from slq.bvalues import gbv
from slq.errors import (
    RangeContainsNoBracket,
    SpecFileError,
    VariantMismatch,
)
from slq.extensions import (
    Coupled,
    LpLp,
    OneLC,
    Separated,
    boundary_residual,
    check_variant,
    eigenvalues_shoot,
    extension_from_dict,
    friedrichs_spec,
)
from slq import extensions
from slq.classify import classify_both
from slq.functions import ExprFunction
from slq.triplets import pair_from_extension


def test_angle_range_enforced():
    with pytest.raises(SpecFileError):
        Separated(-0.1, 0.0)
    with pytest.raises(SpecFileError):
        Separated(0.0, math.pi)
    with pytest.raises(SpecFileError):
        OneLC(alpha=3.5, lc_endpoint="a")


def test_coupled_determinant_enforced():
    with pytest.raises(SpecFileError):
        Coupled(0.0, ((1.0, 1.0), (1.0, 1.0)))
    ext = Coupled(0.5, ((2.0, 3.0), (1.0, 2.0)))
    # R's columns are e^{i phi} times the first columns of B and -A.
    e = cmath.exp(0.5j)
    assert np.allclose(ext.pair.B[:, 0] / e, [2, 1])
    assert np.allclose(-ext.pair.A[:, 0] / e, [3, 2])


def test_extension_from_dict_variants():
    assert extension_from_dict(
        {"kind": "separated", "alpha": 0.1, "beta": 0.2}).variant \
        == "separated"
    assert extension_from_dict(
        {"kind": "coupled", "R": [[1, 0], [0, 1]]}).variant == "coupled"
    assert extension_from_dict(
        {"kind": "one_lc", "alpha": 0.3, "endpoint": "b"}).lc_ends == ("b",)
    assert extension_from_dict({"kind": "lp_lp"}).variant == "lp_lp"
    with pytest.raises(SpecFileError):
        extension_from_dict({"kind": "separated", "gamma": 1.0})
    with pytest.raises(SpecFileError):
        extension_from_dict({"kind": "unknown"})


def test_check_variant_mismatch(legendre, free_halfline):
    c_leg = classify_both(legendre)
    c_half = classify_both(free_halfline)
    check_variant(Separated(0.0, 0.0), c_leg)
    with pytest.raises(VariantMismatch):
        check_variant(Separated(0.0, 0.0), c_half)
    check_variant(OneLC(alpha=0.0, lc_endpoint="a"), c_half)
    with pytest.raises(VariantMismatch):
        check_variant(OneLC(alpha=0.0, lc_endpoint="b"), c_half)


def test_friedrichs_spec(legendre, free_halfline, oscillator):
    assert friedrichs_spec(classify_both(legendre)) == Separated(0.0, 0.0)
    assert friedrichs_spec(classify_both(free_halfline)) \
        == OneLC(alpha=0.0, lc_endpoint="a")
    assert friedrichs_spec(classify_both(oscillator)) == LpLp()


def test_boundary_residual_sine(dirichlet, dirichlet_bases):
    # sin satisfies the Dirichlet condition at both endpoints.
    g = ExprFunction(dirichlet, "sin(x)")
    va = gbv(dirichlet, dirichlet_bases[0], g)
    vb = gbv(dirichlet, dirichlet_bases[1], g)
    res = boundary_residual(Separated(0.0, 0.0), va, vb)
    assert np.max(np.abs(res)) < 1e-12
    # But not the Neumann condition.
    res = boundary_residual(Separated(math.pi / 2, math.pi / 2), va, vb)
    assert np.max(np.abs(res)) > 0.5


_PERIODIC = Coupled(0.0, ((1.0, 0.0), (0.0, 1.0)))


@pytest.mark.parametrize("ext, expr, want", [
    # cos 2x is periodic on (0, pi) with its derivative; sin x is not.
    (_PERIODIC, "cos(2*x)", 0.0),
    (_PERIODIC, "sin(x)", 2.0),
    # exp(-x) has g~(0) = 1, g~'(0) = -1 and exp(x - pi) has
    # g~(pi) = g~'(pi) = 1, so sin(alpha) g~' + cos(alpha) g~ vanishes at
    # alpha = pi/4 on a and at alpha = 3 pi/4 on b.
    (OneLC(math.pi / 4, "a"), "exp(-x)", 0.0),
    (OneLC(3 * math.pi / 4, "a"), "exp(-x)", math.sqrt(2.0)),
    (OneLC(3 * math.pi / 4, "b"), "exp(x - pi)", 0.0),
    (OneLC(math.pi / 4, "b"), "exp(x - pi)", math.sqrt(2.0)),
])
def test_boundary_residual_of_the_pair(dirichlet, dirichlet_bases, ext, expr,
                                       want):
    g = ExprFunction(dirichlet, expr)
    va = gbv(dirichlet, dirichlet_bases[0], g)
    vb = gbv(dirichlet, dirichlet_bases[1], g)
    res = boundary_residual(ext, va, vb)
    assert res.shape == (len(ext.lc_ends),)
    assert np.max(np.abs(res)) == pytest.approx(want, abs=1e-12)


def test_eigenvalues_dirichlet(dirichlet, dirichlet_bases):
    eigs = eigenvalues_shoot(dirichlet, Separated(0.0, 0.0), (0.5, 10.0),
                             bases=dirichlet_bases)
    lams = [e.lam for e in eigs]
    assert np.allclose(lams, [1.0, 4.0, 9.0], atol=1e-7)


def test_eigenvalues_coupled_quasi_periodic(dirichlet, dirichlet_bases):
    # phi = pi/2 with R = I gives lambda = (k + 1/2)^2.
    ext = Coupled(math.pi / 2, ((1.0, 0.0), (0.0, 1.0)))
    eigs = eigenvalues_shoot(dirichlet, ext, (0.0, 7.0),
                             bases=dirichlet_bases)
    lams = [e.lam for e in eigs]
    assert np.allclose(lams, [0.25, 2.25, 6.25], atol=1e-7)


_PERIODIC_RANGE = (0.5, 17.5)


@pytest.mark.xfail(strict=True, raises=RangeContainsNoBracket, reason=(
    "periodic conditions: 4 and 16 are double eigenvalues, so "
    "tr(R^-1 M) - 2 cos(phi) touches zero without a sign change and the "
    "sign scan finds no bracket"))
def test_eigenvalues_periodic_double(dirichlet, dirichlet_bases):
    ext = Coupled(0.0, ((1.0, 0.0), (0.0, 1.0)))
    eigs = eigenvalues_shoot(dirichlet, ext, _PERIODIC_RANGE,
                             bases=dirichlet_bases)
    # Periodic on (0, pi): lambda = 4 n^2, double for n >= 1.
    for want in (4.0, 16.0):
        assert any(abs(e.lam - want) <= 1e-6 for e in eigs)


def test_eigenvalues_coupled_phi_one(dirichlet, dirichlet_bases):
    # R = I and phi = 1 on (0, pi): lambda = (2n +- 1/pi)^2, simple.
    ext = Coupled(1.0, ((1.0, 0.0), (0.0, 1.0)))
    eigs = eigenvalues_shoot(dirichlet, ext, _PERIODIC_RANGE,
                             bases=dirichlet_bases)
    want = [(2 * n + s / math.pi) ** 2 for n, s in ((1, -1), (1, 1), (2, -1))]
    assert np.allclose([e.lam for e in eigs], want, rtol=0, atol=1e-6)
    assert want == pytest.approx([2.828, 5.375, 13.555], abs=1e-3)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(extensions, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(extensions, name, counted)
    return calls


@pytest.mark.parametrize("name, ext, lam_range, want", [
    ("_shoot_det", Separated(0.0, 0.0), (0.5, 5.0), [1.0, 4.0]),
    ("_coupled_det", Coupled(math.pi / 2, ((1.0, 0.0), (0.0, 1.0))),
     (0.0, 3.0), [0.25, 2.25]),
], ids=["_shoot_det", "_coupled_det"])
def test_one_determinant_per_lambda(dirichlet, dirichlet_bases, monkeypatch,
                                    name, ext, lam_range, want):
    # A diagonal pair shoots from both ends; a coupled one takes the GBV
    # transfer.  Either way each distinct lambda costs one determinant.
    calls = _count_calls(monkeypatch, name)
    eigs = eigenvalues_shoot(dirichlet, ext, lam_range, bases=dirichlet_bases)
    assert np.allclose([e.lam for e in eigs], want, atol=1e-7)
    lams = [float(args[3]) for args, _ in calls]
    assert lams and len(lams) == len(set(lams))


@pytest.mark.parametrize("phi", [0.0, 1.0, math.pi / 2])
def test_coupled_det_is_the_trace_condition(legendre, legendre_bases, phi):
    # On two singular LC ends the pair's determinant, made real by its
    # constant phase, is tr(R^-1 M) - 2 cos(phi) up to one sign per pair.
    # Exactly it is tr(R^-1 M) - (1 + det M) cos(phi), and det M = 1 (the
    # transfer keeps the Wronskian) holds to the shooting tolerance.
    R = ((2.0, 3.0), (1.0, 2.0))
    ext = Coupled(phi, R)
    pair = pair_from_extension(ext)
    bases = legendre_bases
    Rinv = np.array([[2.0, -3.0], [-1.0, 2.0]])
    signs = set()
    for lam in (0.5, 3.0, 7.0):
        M = extensions._coupled_transfer(legendre, *bases, lam, tol=1e-10)
        want = float(np.trace(Rinv @ M)) - 2.0 * math.cos(phi)
        drift = abs(np.linalg.det(M) - 1.0)
        assert drift < 1e-6
        got = extensions._coupled_det(legendre, pair, bases, lam, tol=1e-10)
        assert abs(abs(got) - abs(want)) \
            <= drift * abs(math.cos(phi)) + 1e-12 * (1.0 + abs(want))
        assert abs(want) > 1e-3
        signs.add(got * want > 0.0)
    assert len(signs) == 1


@pytest.mark.parametrize("lam", [0.8964735516372796, 4.597732997481108,
                                 10.376070528967254])
def test_coupled_det_leaves_the_singular_ends(legendre, legendre_bases, lam):
    # Marching toward a singular LC end, the step size underflows next to
    # it at these lambda; the transfer only marches away from the ends.
    ext = Coupled(1.0, ((2.0, 3.0), (1.0, 2.0)))
    got = extensions._coupled_det(legendre, pair_from_extension(ext),
                                  legendre_bases, lam, tol=1e-10)
    assert math.isfinite(got) and got != 0.0


def test_eigenvalues_coupled_legendre(legendre, legendre_bases):
    # Even P_n have g~ = 0 and g~' = P_n(+-1) = 1 at both ends, so they meet
    # the coupled condition with phi = 0 and R = I.
    ext = Coupled(0.0, ((1.0, 0.0), (0.0, 1.0)))
    eigs = eigenvalues_shoot(legendre, ext, (0.5, 21.0), grid_per_unit=4,
                             bases=legendre_bases)
    for want in (6.0, 20.0):
        assert any(abs(e.lam - want) <= 1e-7 for e in eigs)


def test_eigenvalues_empty_range_raises(dirichlet, dirichlet_bases):
    with pytest.raises(RangeContainsNoBracket):
        eigenvalues_shoot(dirichlet, Separated(0.0, 0.0), (1.5, 3.5),
                          bases=dirichlet_bases)


# ---------------------------------------------------------------------------
# Eigenvalue index N(lam) of a separated condition
# ---------------------------------------------------------------------------

def _index(spec, ext, bases, lam):
    """N(lam) as the shooting determinant of ext's diagonal pair gives it."""
    assert ext.variant != "coupled"
    _, n = extensions._shoot_det(spec, ext, bases or (None, None), lam,
                                 spec.interval.interior_point(), 1e-10)
    return n


def _probes(eigenvalues, below):
    """Points between consecutive eigenvalues, one below the first, and
    1e-4 either side of each eigenvalue."""
    points = [below]
    for lo, hi in zip(eigenvalues, eigenvalues[1:]):
        points.append(0.5 * (lo + hi))
    for lam in eigenvalues:
        points += [lam - 1e-4, lam + 1e-4]
    return points


def _assert_index(spec, ext, bases, eigenvalues, points):
    for lam in points:
        want = sum(e < lam for e in eigenvalues)
        assert _index(spec, ext, bases, lam) == want, lam


@pytest.fixture(scope="module", params=[0.3, 0.7])
def bessel_problem(request):
    from slq.problem import catalog, validate
    from slq.solutions import construct_basis
    spec = catalog(f"bessel({request.param})")
    validate(spec)
    return request.param, spec, (construct_basis(spec, "a"),
                                 construct_basis(spec, "b"))


def test_index_oscillator(oscillator):
    # LP-LP: eigenvalues 2n + 1.
    eigs = [2.0 * n + 1.0 for n in range(6)]
    _assert_index(oscillator, LpLp(), None, eigs, _probes(eigs, 0.3))


def test_index_bessel(bessel_problem):
    # Friedrichs conditions at the singular LC end 0: j_{gamma,n}^2.
    import mpmath
    gamma, spec, bases = bessel_problem
    eigs = [float(mpmath.besseljzero(mpmath.mpf(gamma), n)) ** 2
            for n in range(1, 5)]
    _assert_index(spec, Separated(0.0, 0.0), bases, eigs,
                  _probes(eigs, 1.0))


def test_index_legendre(legendre, legendre_bases):
    # Friedrichs conditions at two singular LC ends: n (n + 1).
    eigs = [float(n * (n + 1)) for n in range(6)]
    _assert_index(legendre, Separated(0.0, 0.0), legendre_bases, eigs,
                  _probes(eigs, -0.5))


def test_index_dirichlet_up_to_ten_thousand(dirichlet, dirichlet_bases):
    # Dirichlet on (0, pi): n^2, counted up to lambda = 10^4.
    eigs = [float(n * n) for n in range(1, 102)]
    points = _probes(eigs[:5], 0.5) + [
        p for n in (10, 31, 70, 99, 100) for p in _probes([n * n], n * n - n)]
    _assert_index(dirichlet, Separated(0.0, 0.0), dirichlet_bases, eigs,
                  points)


@pytest.mark.parametrize("alpha", [0.6, 0.8, 1.2])
def test_index_halfline(free_halfline, free_halfline_bases, alpha):
    # One regular LC end and LP at infinity: the only eigenvalue is
    # -cot(alpha)^2, below the essential spectrum [0, inf).
    lam = -1.0 / math.tan(alpha) ** 2
    _assert_index(free_halfline, OneLC(alpha, "a"), free_halfline_bases,
                  [lam], _probes([lam], lam - 1.0) + [0.5 * lam])


def test_eigenvalues_two_roots_in_one_cell(dirichlet, dirichlet_bases):
    # 8 cells of width 4.94: 1 and 4 share the first, which the
    # determinant crosses twice; the index sees both.
    eigs = eigenvalues_shoot(dirichlet, Separated(0.0, 0.0), (0.5, 40.0),
                             grid_per_unit=0.2, bases=dirichlet_bases)
    lams = [e.lam for e in eigs]
    assert np.allclose(lams, [1.0, 4.0, 9.0, 16.0, 25.0, 36.0], rtol=0,
                       atol=1e-7)
    for e in eigs:
        assert e.bracket[0] <= e.lam <= e.bracket[1]
    assert eigs[1].bracket[0] >= eigs[0].bracket[1]
    assert eigs[1].bracket[1] <= 0.5 + 39.5 / 8


def test_index_bisection_evaluates_few_grid_points(dirichlet,
                                                   dirichlet_bases,
                                                   monkeypatch):
    # The default grid over (0.5, 10) has 609 points; a scan evaluated all
    # of them.  Bisection on N evaluates the ends and about log2(608)
    # points per root, plus Brent's.
    calls = _count_calls(monkeypatch, "_shoot_det")
    eigs = eigenvalues_shoot(dirichlet, Separated(0.0, 0.0), (0.5, 10.0),
                             bases=dirichlet_bases)
    assert np.allclose([e.lam for e in eigs], [1.0, 4.0, 9.0], atol=1e-7)
    assert len(calls) < 60


# ---------------------------------------------------------------------------
# One condition type: every constructor makes an ExtensionSpec with its pair
# ---------------------------------------------------------------------------

_SIGMA = {"a": 1.0, "b": -1.0}


def _angle_pair(angles):
    """The separated pair, written out: A = diag(-sigma sin t),
    B = diag(cos t) over {end: t}."""
    return (np.diag([-_SIGMA[e] * math.sin(t) for e, t in angles.items()]),
            np.diag([math.cos(t) for t in angles.values()]))


def _coupled_pair(phi, R):
    """The coupled pair, written out from phi and R."""
    e = cmath.exp(1j * phi)
    A = -np.array([[e * R[0][1], 0.0], [e * R[1][1], 1.0]], dtype=complex)
    B = np.array([[e * R[0][0], -1.0], [e * R[1][0], 0.0]], dtype=complex)
    return A, B


_RNG_ANGLES = np.random.default_rng(17).uniform(0.0, math.pi, 3).tolist()


@pytest.mark.parametrize("ext, want, ends, variant", [
    (Separated(0.7, 1.9), _angle_pair({"a": 0.7, "b": 1.9}), ("a", "b"),
     "separated"),
    (Separated(0.0, 0.0), _angle_pair({"a": 0.0, "b": 0.0}), ("a", "b"),
     "separated"),
    (OneLC(0.8, "a"), _angle_pair({"a": 0.8}), ("a",), "one_lc"),
    (OneLC(2.3, "b"), _angle_pair({"b": 2.3}), ("b",), "one_lc"),
    (LpLp(), (np.zeros((0, 0)), np.zeros((0, 0))), (), "lp_lp"),
    (Coupled(0.5, ((2.0, 3.0), (1.0, 2.0))),
     _coupled_pair(0.5, ((2.0, 3.0), (1.0, 2.0))), ("a", "b"), "coupled"),
    (Coupled(0.0, ((1.0, 0.0), (0.8, 1.0))),
     _coupled_pair(0.0, ((1.0, 0.0), (0.8, 1.0))), ("a", "b"), "coupled"),
])
def test_constructor_pair_is_the_written_out_pair(ext, want, ends, variant):
    A, B = (np.asarray(m, dtype=complex) for m in want)
    assert ext.lc_ends == ends and ext.variant == variant
    assert pair_from_extension(ext) is ext.pair
    for got, ref in ((ext.pair.A, A), (ext.pair.B, B)):
        assert got.shape == ref.shape
        assert [z.hex() for x in got.ravel() for z in (x.real, x.imag)] \
            == [z.hex() for x in ref.ravel() for z in (x.real, x.imag)]


@pytest.mark.parametrize("end", ["a", "b"])
@pytest.mark.parametrize("t", [0.0, math.pi / 2] + _RNG_ANGLES)
def test_shooting_starts_from_minus_cos_and_sin(monkeypatch, end, t):
    # The pair's row at an LC end starts shooting from the GBV data
    # (sin t, -cos t): coefficients -cos t on u and sin t on u_hat, bit
    # for bit.
    monkeypatch.setattr(extensions, "_lc_init",
                        lambda basis, coef_u, coef_uhat: (None,
                                                          (coef_u, coef_uhat)))
    for ext in (OneLC(t, end),
                Separated(t, 1.0) if end == "a" else Separated(1.0, t)):
        _, (coef_u, coef_uhat) = extensions._side_start(None, ext, None,
                                                        end, 0.0)
        assert (coef_u.hex(), coef_uhat.hex()) \
            == ((-math.cos(t)).hex(), math.sin(t).hex())


def test_conditions_compare_and_hash_by_value(legendre, free_halfline,
                                              oscillator):
    assert friedrichs_spec(classify_both(legendre)) == Separated(0.0, 0.0)
    assert friedrichs_spec(classify_both(free_halfline)) == OneLC(0.0, "a")
    assert friedrichs_spec(classify_both(oscillator)) == LpLp()
    assert Separated(-0.0, 0.5) == Separated(0.0, 0.5)
    same = {Separated(0.3, 0.4), Separated(0.3, 0.4), OneLC(0.3, "a"),
            OneLC(0.3, "b"), LpLp(), LpLp(),
            Coupled(0.2, ((1.0, 0.0), (0.0, 1.0))),
            Coupled(0.2, ((1.0, 0.0), (0.0, 1.0)))}
    assert len(same) == 5
    assert Separated(0.3, 0.4) != Separated(0.3, 0.5)
    assert OneLC(0.3, "a") != OneLC(0.3, "b")
    assert Coupled(0.2, ((1.0, 0.0), (0.0, 1.0))) \
        != Coupled(0.3, ((1.0, 0.0), (0.0, 1.0)))


def test_the_pair_is_validated_once_and_read_only(monkeypatch, dirichlet,
                                                  dirichlet_bases):
    calls = _count_calls(monkeypatch, "validate_pair")
    ext = Coupled(math.pi / 2, ((1.0, 0.0), (0.0, 1.0)))
    assert len(calls) == 1
    g = ExprFunction(dirichlet, "sin(x)")
    va, vb = (gbv(dirichlet, basis, g) for basis in dirichlet_bases)
    boundary_residual(ext, va, vb)
    pair_from_extension(ext)
    ext.relation
    eigenvalues_shoot(dirichlet, ext, (0.0, 1.0), bases=dirichlet_bases)
    assert len(calls) == 1
    with pytest.raises(ValueError):
        ext.pair.A[0, 0] = 0.0


@pytest.mark.parametrize("doc", [
    {"kind": "separated", "alpha": "0.5", "beta": 0.2},
    {"kind": "separated", "alpha": 0.5, "beta": True},
    {"kind": "separated", "alpha": math.nan, "beta": 0.2},
    {"kind": "one_lc", "alpha": math.inf, "endpoint": "a"},
    {"kind": "coupled", "phi": math.nan, "R": [[1, 0], [0, 1]]},
    {"kind": "coupled", "phi": 0.0, "R": [[math.nan, 0], [0, 1]]},
    {"kind": "coupled", "phi": 0.0, "R": [["1", 0], [0, 1]]},
    {"kind": "coupled", "phi": 0.0, "R": [[1, 0], [0, True]]},
    {"kind": "coupled", "phi": 0.0, "R": [[1, 0], [0]]},
    {"kind": "coupled", "phi": 0.0, "R": 1.0},
])
def test_extension_numbers_must_be_finite_numbers(doc):
    with pytest.raises(SpecFileError):
        extension_from_dict(doc)


@pytest.mark.parametrize("lam_range", [
    (0.5, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.5, math.nan),
    (1.0, 0.5), (1.0, 1.0)])
def test_eigenvalues_shoot_refuses_a_range_that_is_not_finite(
        dirichlet, dirichlet_bases, lam_range):
    with pytest.raises(ValueError, match="finite and increasing"):
        eigenvalues_shoot(dirichlet, Separated(0.0, 0.0), lam_range,
                          bases=dirichlet_bases)
