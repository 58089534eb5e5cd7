"""Extension catalog, boundary residuals, eigenvalue shooting."""

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
    assert np.allclose(ext.matrix(), [[2, 3], [1, 2]])


def test_extension_from_dict_variants():
    assert extension_from_dict(
        {"kind": "separated", "alpha": 0.1, "beta": 0.2}).variant \
        == "separated"
    assert extension_from_dict(
        {"kind": "coupled", "R": [[1, 0], [0, 1]]}).variant == "coupled"
    assert extension_from_dict(
        {"kind": "one_lc", "alpha": 0.3, "endpoint": "b"}).lc_endpoint == "b"
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


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(extensions, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(extensions, name, counted)
    return calls


def test_shooting_one_determinant_per_lambda(dirichlet, dirichlet_bases,
                                             monkeypatch):
    calls = _count_calls(monkeypatch, "_shoot_det")
    eigs = eigenvalues_shoot(dirichlet, Separated(0.0, 0.0), (0.5, 5.0),
                             bases=dirichlet_bases)
    assert np.allclose([e.lam for e in eigs], [1.0, 4.0], atol=1e-7)
    lams = [args[3] for args, kw in calls if not kw.get("dense")]
    dense = [args[3] for args, kw in calls if kw.get("dense")]
    assert len(lams) == len(set(map(float, lams)))
    assert dense == [e.lam for e in eigs]
    assert all(e.left is not None and e.right is not None for e in eigs)


def test_coupled_one_determinant_per_lambda(dirichlet, dirichlet_bases,
                                            monkeypatch):
    calls = _count_calls(monkeypatch, "_coupled_det")
    ext = Coupled(math.pi / 2, ((1.0, 0.0), (0.0, 1.0)))
    eigs = eigenvalues_shoot(dirichlet, ext, (0.0, 3.0),
                             bases=dirichlet_bases)
    assert np.allclose([e.lam for e in eigs], [0.25, 2.25], atol=1e-7)
    lams = [float(args[3]) for args, _ in calls]
    assert len(lams) == len(set(lams))


def test_eigenvalues_empty_range_raises(dirichlet, dirichlet_bases):
    with pytest.raises(RangeContainsNoBracket):
        eigenvalues_shoot(dirichlet, Separated(0.0, 0.0), (1.5, 3.5),
                          bases=dirichlet_bases)
