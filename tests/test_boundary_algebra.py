"""The closed-form boundary algebra against numpy's SVD route.

`triplets.validate_pair`, `triplets.decompose` and `extensions._coupled_det`
work on tuples of Python complex numbers of size n <= 2.  Here numpy and its
SVD, pseudo-inverse, solve, det and eigvalsh are the oracle: on seeded
self-adjoint pairs with n in {0, 1, 2}, A of every rank, rows scaled by
1e+-150 and second singular values near KERNEL_TOL, the two routes must
reach the same rank verdicts, the same singular values, bases spanning the
same subspaces and the same Theta, and on two coupled problems the same
determinant and eigenvalue index.
"""

import cmath
import math

import numpy as np
import pytest

from slq import extensions
from slq.errors import NotSelfAdjointPair, RankDeficient
from slq.extensions import Coupled
from slq.odecore import end_state
from slq.triplets import KERNEL_TOL, PAIR_TOL, decompose, validate_pair


def _np_validate(A, B):
    """(A B* - B A* on row-scaled rows, singular values of (B A)): the
    SVD route of validate_pair."""
    stacked = np.hstack([B, A])
    rows = np.abs(stacked).max(axis=1, initial=0.0)
    rows[rows == 0.0] = 1.0
    A_s, B_s = A / rows[:, None], B / rows[:, None]
    herm = float(np.linalg.norm(A_s @ B_s.conj().T - B_s @ A_s.conj().T))
    return herm, np.linalg.svd(stacked, compute_uv=False)


def _np_decompose(A, B):
    """(rank, singular values, P, K, Theta): ker A by numpy's SVD at
    KERNEL_TOL relative to max(|A|, 1), P and K the orthonormal bases of
    (ker A)^perp and ker A, Theta = P* pinv(A) B P."""
    n = A.shape[0]
    if n == 0:
        empty = np.zeros((0, 0), dtype=complex)
        return 0, np.zeros(0), empty, empty, empty
    scale = max(np.linalg.norm(A), 1.0)
    _, sv, Vh = np.linalg.svd(A)
    rank = int(np.sum(sv > KERNEL_TOL * scale))
    V = Vh.conj().T
    P, K = V[:, :rank], V[:, rank:]
    theta = P.conj().T @ np.linalg.pinv(A, rcond=KERNEL_TOL) @ B @ P
    return rank, sv, P, K, theta


def _unitary(rng, n):
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _pair(rng, n, rank, rows=(1.0, 1.0), small=None, exact_v=False):
    """A = G D V*, B = G E V* with V unitary, G = diag(rows) U, U unitary,
    and D, E real diagonal with d_k^2 + e_k^2 = 1: a self-adjoint pair
    whose A has rank `rank`.  With `small`, d = (sin t, small) and
    e = (cos t, 1), so A's second singular value is `small` up to
    rounding and Theta is cot t on the first direction.  A random V
    rounds A by eps against its largest singular value, which the inverse
    of a nearly singular A amplifies past the Hermitian test; with
    `exact_v`, V = I and each column of A is rounded on its own scale."""
    V, U = _unitary(rng, n), _unitary(rng, n)
    if exact_v:
        V = np.eye(n)
    t = rng.uniform(0.2, math.pi - 0.2, n)
    d, e = np.sin(t), np.cos(t)
    d[rank:], e[rank:] = 0.0, 1.0
    if small is not None:
        d, e = np.array([d[0], small]), np.array([e[0], 1.0])
    G = np.diag(rows[:n]) @ U
    return G @ np.diag(d) @ V.conj().T, G @ np.diag(e) @ V.conj().T


def _cases():
    rng = np.random.default_rng(2043)
    cases = []
    for n in (0, 1, 2):
        for rank in range(n + 1):
            for rows in ((1.0, 1.0), (1e150, 1e150), (1e-150, 1e-150),
                         (1e150, 1.0), (1.0, 1e-150), (1e150, 1e-150)):
                for _ in range(4):
                    cases.append(_pair(rng, n, rank, rows))
    for factor in (0.1, 10.0):
        for exact_v in (False, True):
            for _ in range(4):
                cases.append(_pair(rng, 2, 2, small=factor * KERNEL_TOL,
                                   exact_v=exact_v))
    # At exactly KERNEL_TOL rounding decides; for this A, a scaled
    # permutation, both routes find the second singular value KERNEL_TOL
    # exactly, so the verdict is rank 1.
    cases.append(_permuted(KERNEL_TOL))
    return cases


def _permuted(s):
    """A = D V*, B = E V* with D = diag(1, s), E = diag(0, 1) and V* the
    exact unitary [[0, 1], [-i, 0]]."""
    return (np.array([[0.0, 1.0], [-1j * s, 0.0]]),
            np.array([[0.0, 0.0], [-1j, 0.0]]))


_CASES = _cases()


@pytest.mark.parametrize("A, B", _CASES)
def test_closed_form_matches_the_svd_route(A, B):
    herm, sv = _np_validate(A, B)
    try:
        pair = validate_pair(A, B)
    except RankDeficient:
        assert sv.min(initial=math.inf) <= PAIR_TOL * sv.max(initial=1.0)
        return
    assert herm <= PAIR_TOL
    smallest = pair.diagnostics["smallest_singular_value"]
    if sv.size:
        assert abs(smallest - sv.min()) <= 1e-14 * sv.max()
    else:
        assert smallest == math.inf
    rank, sv_a, P, K, theta = _np_decompose(np.asarray(A, dtype=complex),
                                            np.asarray(B, dtype=complex))
    try:
        rel = decompose(pair)
    except NotSelfAdjointPair:
        defect = np.linalg.norm(theta - theta.conj().T)
        assert defect > 1e-10 * max(np.linalg.norm(theta), 1.0)
        return
    n = len(A)
    assert rel.diagnostics["rank"] == rank
    assert np.allclose(rel.diagnostics["singular_values"], sv_a,
                       rtol=0.0, atol=1e-14 * max(sv_a, default=0.0))
    assert rel.multivalued_dim == n - rank
    # Orthonormal bases of the same two subspaces.
    for mine, ref in ((rel.dom_basis, P), (rel.mul_basis, K)):
        Q = np.asarray(mine, dtype=complex).reshape(n, ref.shape[1])
        assert np.allclose(Q.conj().T @ Q, np.eye(ref.shape[1]),
                           rtol=0.0, atol=1e-14)
        assert np.allclose(Q @ Q.conj().T, ref @ ref.conj().T,
                           rtol=0.0, atol=1e-14)
    # Theta in the coordinates of C^n, P Theta P*.
    Q = np.asarray(rel.dom_basis, dtype=complex).reshape(n, rank)
    want = P @ (0.5 * (theta + theta.conj().T)) @ P.conj().T
    got = Q @ np.asarray(rel.theta_op, dtype=complex).reshape(rank, rank) \
        @ Q.conj().T
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    if rank == 1:
        assert rel.c_theta == pytest.approx(float(want.trace().real),
                                            rel=1e-14)


def test_the_cases_cover_every_rank_and_verdict():
    ranks = set()
    for A, B in _CASES:
        try:
            ranks.add((len(A), decompose(validate_pair(A, B)).diagnostics[
                "rank"]))
        except RankDeficient:
            ranks.add((len(A), "rank deficient"))
        except NotSelfAdjointPair:
            ranks.add((len(A), "not Hermitian"))
    assert ranks >= {(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}


@pytest.mark.parametrize("factor, rank", [(0.1, 1), (1.0, 1), (10.0, 2)])
def test_the_rank_verdict_at_the_kernel_threshold(factor, rank):
    # A = diag(1, s) up to an exact permutation: s above KERNEL_TOL keeps
    # rank 2, s at or below it is the kernel.
    s = factor * KERNEL_TOL
    rel = decompose(validate_pair(*_permuted(s)))
    assert rel.diagnostics["rank"] == rank
    assert rel.diagnostics["singular_values"] == [1.0, s]


def test_a_pair_larger_than_2x2_is_refused():
    with pytest.raises(ValueError):
        validate_pair(np.eye(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        validate_pair(np.eye(2), np.eye(1))
    with pytest.raises(ValueError):
        validate_pair([1.0, 0.0], [0.0, 1.0])


def _np_coupled_det(spec, ext, bases, lam, tol):
    """(det, N) of `_coupled_det` on numpy: the transfer by LU solve, the
    determinants by det, the relation by the SVD route and n_- by
    eigvalsh."""
    mid = spec.interval.interior_point()
    phis, m, o = [], 0, 1.0
    for side, basis in zip("ab", bases):
        x0, u_hat = extensions._lc_init(basis, 0.0, 1.0)
        _, u = extensions._lc_init(basis, 1.0, 0.0)
        y, zeros = end_state(spec, lam, x0, u, mid, tol=tol)
        y_hat, _ = end_state(spec, lam, x0, u_hat, mid, tol=tol)
        phis.append(np.array([y_hat, y], dtype=float).T)
        m += zeros
        o *= extensions._orientation(side, u)
    phi_a, phi_b = phis
    w = phi_a[0, 1] * phi_b[1, 1] - phi_a[1, 1] * phi_b[0, 1]
    M = np.linalg.solve(phi_b, phi_a)
    n_f = extensions._index(m, o, float(w))
    A = np.asarray(ext.pair.A, dtype=complex)
    B = np.asarray(ext.pair.B, dtype=complex)
    gamma0 = np.array([[1.0, 0.0], M[0]])
    gamma1 = np.array([[0.0, 1.0], -M[1]])
    theta = 0.5 * cmath.phase(np.linalg.det(B + 1j * A)
                              * np.linalg.det(B - 1j * A))
    det = np.linalg.det(B @ gamma0 - A @ gamma1)
    _, _, P, _, theta_op = _np_decompose(A, B)
    weyl = np.array([[-M[0, 0], 1.0], [1.0, -M[1, 1]]]) / M[0, 1]
    h = 0.5 * (theta_op + theta_op.conj().T) - P.conj().T @ weyl @ P
    below = np.linalg.eigvalsh(h) < 0.0
    return float((cmath.exp(-1j * theta) * det).real), n_f + int(below.sum())


@pytest.mark.parametrize("problem, poles", [
    ("legendre", (0.0, 2.0, 6.0, 12.0, 20.0)),
    ("dirichlet", (1.0, 4.0, 9.0, 16.0)),
])
def test_coupled_det_matches_the_numpy_route(request, problem, poles):
    # Coupled(0, I): on Legendre the even P_n meet it, on (0, pi) it is the
    # periodic condition.  The poles are the Friedrichs eigenvalues, where
    # the Weyl matrix W = [[-M00, 1], [1, -M11]] / M01 blows up and the
    # index is noisy.
    spec = request.getfixturevalue(problem)
    bases = request.getfixturevalue(f"{problem}_bases")
    ext = Coupled(0.0, ((1.0, 0.0), (0.0, 1.0)))
    checked = 0
    for lam in np.linspace(-0.9, 20.9, 41).tolist():
        det, n = extensions._coupled_det(spec, ext, bases, lam, 1e-10)
        want, n_want = _np_coupled_det(spec, ext, bases, lam, 1e-10)
        assert det == pytest.approx(want, rel=1e-13, abs=0.0), lam
        if min(abs(lam - p) for p in poles) > 0.05:
            assert n == n_want, lam
            checked += 1
    assert checked >= 30
