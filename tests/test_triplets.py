"""Boundary-triplet algebra: pairs, decompositions, relation membership."""

import math

import numpy as np
import pytest

from slq.errors import (
    DomainConstraintViolated,
    NotSelfAdjointPair,
    RankDeficient,
)
from slq import extensions
from slq.extensions import Coupled, LpLp, OneLC, Separated
from slq.triplets import (
    boundary_maps,
    boundary_pair_check,
    decompose,
    form_from_relation,
    pair_from_extension,
    relation_membership,
    triplet_green_residual,
    validate_pair,
)
from slq.bvalues import patched_pair
from slq.forms import q_decorated
from slq.functions import BumpFn, ExprFunction, polynomial


def _theta_full(rel):
    """Operator part in the standard coordinates of C^n."""
    return rel.dom_basis @ rel.theta_op @ rel.dom_basis.conj().T


def test_validate_pair_rejects_zero():
    with pytest.raises(RankDeficient):
        validate_pair(np.zeros((2, 2)), np.zeros((2, 2)))


def test_validate_pair_rejects_non_hermitian():
    A = np.eye(2)
    B = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotSelfAdjointPair):
        validate_pair(A, B)


@pytest.mark.filterwarnings("error")
def test_validate_pair_rejects_a_non_hermitian_pair_near_overflow():
    # Row norms of 1e200 square to inf: the defect is measured on rows
    # scaled to their largest entry.
    A = 1e200 * np.eye(2)
    B = 1e200 * np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotSelfAdjointPair):
        validate_pair(A, B)
    pair = validate_pair(A, 1e200 * np.diag([0.5, -2.0]))
    assert pair.diagnostics["hermiticity_defect"] == 0.0


def test_separated_theta_matrix():
    alpha, beta = 0.7, 1.9
    rel = decompose(pair_from_extension(Separated(alpha, beta)))
    want = np.diag([-1 / math.tan(alpha), 1 / math.tan(beta)])
    assert np.allclose(_theta_full(rel), want, atol=1e-12)
    assert rel.multivalued_dim == 0


def test_neumann_theta_zero():
    rel = decompose(pair_from_extension(Separated(math.pi / 2, math.pi / 2)))
    assert np.allclose(_theta_full(rel), 0.0, atol=1e-12)


def test_dirichlet_purely_multivalued():
    rel = decompose(pair_from_extension(Separated(0.0, 0.0)))
    assert rel.multivalued_dim == 2
    assert rel.theta_op.shape == (0, 0)


def test_relation_is_decomposed_once_per_extension(monkeypatch):
    calls = []
    real = extensions.decompose

    def counting(pair):
        calls.append(pair)
        return real(pair)

    monkeypatch.setattr(extensions, "decompose", counting)
    ext = Coupled(0.3, ((2.0, 1.0), (1.0, 1.0)))
    rel = ext.relation
    assert ext.relation is rel and len(calls) == 1
    assert np.array_equal(_theta_full(rel),
                          _theta_full(decompose(pair_from_extension(ext))))


def test_coupled_c_theta_closed_form():
    r = 0.8
    rel = decompose(pair_from_extension(Coupled(0.0, ((1.0, 0.0), (r, 1.0)))))
    assert rel.multivalued_dim == 1
    assert rel.c_theta == pytest.approx(-r / 2, abs=1e-12)


def test_one_dimensional_relation():
    # (cos g, sin g) convention: Theta = -cot(gamma) at endpoint a.
    gamma = 1.1
    rel = decompose(pair_from_extension(OneLC(alpha=gamma, lc_endpoint="a")))
    assert rel.theta_op[0, 0] == pytest.approx(-1 / math.tan(gamma),
                                               abs=1e-12)
    rel0 = decompose(pair_from_extension(OneLC(alpha=0.0, lc_endpoint="a")))
    assert rel0.multivalued_dim == 1


@pytest.mark.parametrize("end", ["a", "b"])
@pytest.mark.parametrize("t", [0.0, 0.8, 2.0])
def test_one_lc_pair_is_the_separated_pair_at_its_end(t, end):
    k = "ab".index(end)
    angles = {"a": 1.1, "b": 1.1, end: t}
    sep = pair_from_extension(Separated(angles["a"], angles["b"]))
    one = pair_from_extension(OneLC(t, end))
    assert np.array_equal(one.A, sep.A[k:k + 1, k:k + 1])
    assert np.array_equal(one.B, sep.B[k:k + 1, k:k + 1])


def test_lp_lp_pair_is_empty():
    pair = pair_from_extension(LpLp())
    assert pair.n == 0 and pair.B.shape == (0, 0)


def test_relation_membership_examples():
    p00 = pair_from_extension(Separated(0.0, 0.0))
    assert relation_membership(p00, [0, 0], [3.7, -1.2])
    assert not relation_membership(p00, [1, 0], [0, 0])
    alpha, beta = 0.7, 1.9
    pd = pair_from_extension(Separated(alpha, beta))
    theta = np.diag([-1 / math.tan(alpha), 1 / math.tan(beta)])
    u = np.array([1.3, -0.4])
    assert relation_membership(pd, u, theta @ u)
    assert not relation_membership(pd, u, theta @ u + 1.0)


def test_moore_penrose_identities_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(60):
        if rng.uniform() < 0.5:
            pair = pair_from_extension(
                Separated(*rng.uniform(0, math.pi, 2)))
        else:
            r11 = rng.uniform(0.3, 2.0)
            r12, r21 = rng.uniform(-1.5, 1.5, 2)
            r22 = (1 + r12 * r21) / r11
            pair = pair_from_extension(
                Coupled(rng.uniform(0, math.pi),
                        ((r11, r12), (r21, r22))))
        A = pair.A
        Ap = np.linalg.pinv(A)
        assert np.linalg.norm(A @ Ap @ A - A) < 1e-12
        assert np.linalg.norm(Ap @ A @ Ap - Ap) < 1e-12
        assert np.linalg.norm((A @ Ap).conj().T - A @ Ap) < 1e-12
        assert np.linalg.norm((Ap @ A).conj().T - Ap @ A) < 1e-12


def test_decompose_deterministic():
    pair = pair_from_extension(Separated(0.9, 2.2))
    t1 = _theta_full(decompose(pair))
    t2 = _theta_full(decompose(pair))
    assert np.array_equal(t1, t2)


def test_boundary_maps_patterns(dirichlet, dirichlet_bases):
    pp = patched_pair(dirichlet, dirichlet_bases[0], dirichlet_bases[1])
    g0, g1 = boundary_maps(dirichlet, dirichlet_bases, pp.v1)
    assert np.allclose(g0, [1.0, 1.0], atol=1e-9)
    assert np.allclose(g1, [0.0, 0.0], atol=1e-9)
    g0, g1 = boundary_maps(dirichlet, dirichlet_bases, pp.v2)
    assert np.allclose(g0, [0.0, 0.0], atol=1e-9)
    assert np.allclose(g1, [1.0, -1.0], atol=1e-9)


def test_triplet_green_identity(dirichlet, dirichlet_bases):
    f = polynomial(dirichlet, [1.0, 0.5, -0.2])
    g = BumpFn(dirichlet, center=1.5, width=0.8)
    res = triplet_green_residual(dirichlet, dirichlet_bases, f, g)
    assert abs(res) < 1e-9
    # f = g gives zero by antisymmetry of both sides.
    res = triplet_green_residual(dirichlet, dirichlet_bases, f, f)
    assert abs(res) < 1e-9


def test_cross_path_equality_separated(dirichlet, dirichlet_bases):
    ext = Separated(0.9, 2.1)
    f = polynomial(dirichlet, [1.0, -0.3])
    g = polynomial(dirichlet, [0.4, 0.4, -0.1])
    q1 = q_decorated(dirichlet, dirichlet_bases, None, ext, f, g).value
    q2 = form_from_relation(dirichlet, dirichlet_bases, None, ext, f, g)
    assert q1 == pytest.approx(q2, abs=1e-12)


def test_form_from_relation_domain_constraint(dirichlet, dirichlet_bases):
    ext = Separated(0.0, 0.0)
    f = polynomial(dirichlet, [1.0])
    with pytest.raises(DomainConstraintViolated):
        form_from_relation(dirichlet, dirichlet_bases, None, ext, f, f)


def test_boundary_pair_check_report(dirichlet, dirichlet_bases):
    fns = [ExprFunction(dirichlet, "sin(x)"),
           polynomial(dirichlet, [1.0, 0.2]),
           BumpFn(dirichlet, center=1.5, width=0.9)]
    rep = boundary_pair_check(dirichlet, dirichlet_bases, None, samples=fns)
    assert rep["all_finite"]
    assert all(math.isfinite(c) for c in rep["constants"].values())
    # sin vanishes at both ends: it contributes nothing to Lambda.
    assert rep["samples"][0]["lambda_sq"] < 1e-16
