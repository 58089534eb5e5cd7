"""Finite-dimensional boundary-triplet algebra for the extension catalog.

Each self-adjoint extension corresponds to a self-adjoint linear relation in
C^n x C^n written as {(u, v) : B u = A v} for an (A, B) pair satisfying
A B* = B A* and rank (B A) = n.  For the Sturm-Liouville catalog n is the
number of limit-circle endpoints and the boundary maps are built from the
generalized boundary values,

    Gamma0 g = (g~(a), g~(b)),    Gamma1 g = (g~'(a), -g~'(b)),

restricted to the limit-circle components.  The relation decomposes into a
purely multivalued part (the kernel of A) and a self-adjoint operator part
Theta on its orthogonal complement, which supplies the boundary decoration
of the sesquilinear form as (Lambda f, Theta Lambda g).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .bvalues import gbv
from .errors import (
    DomainConstraintViolated,
    NotSelfAdjointPair,
    RankDeficient,
)
from .forms import LC_ENDS, REGIME_LC_LC, REGIME_LP_LP, _regime_of, q_base

KERNEL_TOL = 1e-10  # relative SVD threshold for ker A detection


@dataclass
class SAPair:
    """Parameter pair (A, B) of a self-adjoint boundary relation."""

    A: np.ndarray
    B: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.A.shape[0]


@dataclass
class SelfAdjointRelation:
    """Operator-part / multivalued-part decomposition of an (A, B) pair."""

    pair: SAPair
    mul_basis: np.ndarray           # orthonormal basis of ker A (columns)
    dom_basis: np.ndarray           # orthonormal basis of (ker A)^perp
    theta_op: np.ndarray            # Hermitian operator part on dom_basis
    c_theta: float | None = None    # scalar Theta when dom is 1-dimensional
    diagnostics: dict = field(default_factory=dict)

    @property
    def multivalued_dim(self):
        return self.mul_basis.shape[1]

    def project(self, x):
        """Coordinates of x in dom_basis (component in (ker A)^perp)."""
        return self.dom_basis.conj().T @ np.asarray(x, dtype=complex)

    def in_domain(self, x, tol=1e-10):
        """True when x has no component along the multivalued part."""
        x = np.asarray(x, dtype=complex)
        if self.multivalued_dim == 0:
            return True
        resid = np.linalg.norm(self.mul_basis.conj().T @ x)
        return resid <= tol * (1.0 + np.linalg.norm(x))


def validate_pair(A, B, tol=1e-12):
    """Check the self-adjointness conditions of an (A, B) pair.

    A B* must equal B A* and the stacked block (B A) must have full row
    rank n.  Returns an SAPair on success.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise ValueError("A and B must be square matrices of the same size")
    scale = max(np.linalg.norm(A), np.linalg.norm(B), 1.0)
    herm = float(np.linalg.norm(A @ B.conj().T - B @ A.conj().T))
    if herm > tol * scale * scale:
        raise NotSelfAdjointPair(
            f"A B* - B A* has norm {herm:.3e} "
            f"(tolerance {tol * scale * scale:.3e})"
        )
    stacked = np.hstack([B, A])
    sv = np.linalg.svd(stacked, compute_uv=False)
    if sv.size == 0 or sv[-1] <= tol * max(sv[0], 1.0):
        raise RankDeficient(f"(B A) is rank deficient: singular values {sv}")
    return SAPair(A=A, B=B,
                  diagnostics={"hermiticity_defect": herm,
                               "smallest_singular_value": float(sv[-1])})


def decompose(pair, tol=KERNEL_TOL):
    """Split the relation {(u, v) : B u = A v} into Theta plus kernel.

    The multivalued part is ker A, detected by SVD with a relative
    threshold; on its orthogonal complement the relation acts as the
    Hermitian operator theta_op = pinv(A) B expressed in an orthonormal
    basis of (ker A)^perp.  When that domain is one-dimensional the scalar
    c_theta is recovered by least squares from B u = c A u.
    """
    if not isinstance(pair, SAPair):
        pair = validate_pair(pair[0], pair[1])
    A, B = pair.A, pair.B
    n = pair.n
    scale = max(np.linalg.norm(A), 1.0)
    U, sv, Vh = np.linalg.svd(A) if n else (None, np.array([]), None)
    rank = int(np.sum(sv > tol * scale))
    V = Vh.conj().T if n else np.zeros((0, 0), dtype=complex)
    dom_basis = V[:, :rank]
    mul_basis = V[:, rank:]
    if rank == 0:
        theta_op = np.zeros((0, 0), dtype=complex)
    else:
        theta_full = np.linalg.pinv(A, rcond=tol) @ B
        theta_op = dom_basis.conj().T @ theta_full @ dom_basis
        defect = np.linalg.norm(theta_op - theta_op.conj().T)
        if defect > 1e-10 * max(np.linalg.norm(theta_op), 1.0):
            raise NotSelfAdjointPair(
                f"operator part is not Hermitian: defect {defect:.3e}"
            )
        theta_op = 0.5 * (theta_op + theta_op.conj().T)
    c_theta = None
    if rank == 1:
        # Least squares for c in B u = c A u on the one-dimensional domain.
        u = dom_basis[:, 0]
        au, bu = A @ u, B @ u
        denom = np.vdot(au, au)
        if denom.real > 0.0:
            c_theta = float(np.real(np.vdot(au, bu) / denom))
    return SelfAdjointRelation(
        pair=pair, mul_basis=mul_basis, dom_basis=dom_basis,
        theta_op=theta_op, c_theta=c_theta,
        diagnostics={"singular_values": sv.tolist(), "rank": rank},
    )


def relation_membership(pair, u, v, tol=1e-10):
    """True when (u, v) belongs to the relation, i.e. B u = A v."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    resid = np.linalg.norm(pair.B @ u - pair.A @ v)
    bound = tol * (np.linalg.norm(pair.B) * np.linalg.norm(u)
                   + np.linalg.norm(pair.A) * np.linalg.norm(v) + 1.0)
    return bool(resid <= bound)


# ---------------------------------------------------------------------------
# Extension catalog -> (A, B) pairs and boundary maps
# ---------------------------------------------------------------------------


def pair_from_extension(ext):
    """Boundary-relation pair (A, B) of a catalog extension.

    Coordinates are Gamma0 g = (g~(a), g~(b)), Gamma1 g = (g~'(a), -g~'(b))
    in the two-limit-circle case; with a single limit-circle endpoint the
    scalar pair encodes sin(alpha) g~' + cos(alpha) g~ = 0 in the local
    Gamma coordinates; the limit-point/limit-point case has n = 0.
    """
    if ext.variant == "separated":
        A = np.diag([-math.sin(ext.alpha), math.sin(ext.beta)]).astype(complex)
        B = np.diag([math.cos(ext.alpha), math.cos(ext.beta)]).astype(complex)
        return validate_pair(A, B)
    if ext.variant == "coupled":
        R = ext.matrix()
        e = cmath.exp(1j * ext.phi)
        A = -np.array([[e * R[0, 1], 0.0],
                       [e * R[1, 1], 1.0]], dtype=complex)
        B = np.array([[e * R[0, 0], -1.0],
                      [e * R[1, 0], 0.0]], dtype=complex)
        return validate_pair(A, B)
    if ext.variant == "one_lc":
        # Gamma1 flips sign at b, so the graph slope Theta = -cot(alpha)
        # at a becomes +cot(alpha) at b.
        sign = 1.0 if ext.lc_endpoint == "b" else -1.0
        A = np.array([[sign * math.sin(ext.alpha)]], dtype=complex)
        B = np.array([[math.cos(ext.alpha)]], dtype=complex)
        return validate_pair(A, B)
    if ext.variant == "lp_lp":
        Z = np.zeros((0, 0), dtype=complex)
        return SAPair(A=Z, B=Z)
    raise ValueError(f"unknown extension variant {ext.variant!r}")


# Gamma1 g = SIGMA[end] g~'(end): the boundary maps flip its sign at b.
SIGMA = {"a": 1.0, "b": -1.0}


def boundary_vectors(values, ends):
    """(Gamma0, Gamma1) over `ends` from the GBVs of one function per end."""
    g0 = [values[end].tilde for end in ends]
    g1 = [SIGMA[end] * values[end].tilde_prime for end in ends]
    return (np.asarray(g0, dtype=complex), np.asarray(g1, dtype=complex))


def boundary_maps(spec, bases, g, ends=("a", "b")):
    """(Gamma0 g, Gamma1 g) restricted to the limit-circle components."""
    values = {end: gbv(spec, bases[0 if end == "a" else 1], g)
              for end in ends}
    return boundary_vectors(values, ends)


def triplet_green_residual(spec, bases, f, g, f_tau=None, g_tau=None):
    """Residual of the abstract Green identity in boundary coordinates.

    (f, T_max g) - (T_max f, g) - [(Gamma0 f, Gamma1 g) - (Gamma1 f, Gamma0 g)]
    with the weighted pairing on the left and the C^n inner product
    (antilinear in the first slot) on the right.
    """
    fg = _weighted_pairing(spec, bases, f, g, g_tau)
    gf = _weighted_pairing(spec, bases, g, f, f_tau)
    lhs = fg - np.conj(gf)
    f0, f1 = boundary_maps(spec, bases, f)
    g0, g1 = boundary_maps(spec, bases, g)
    rhs = np.vdot(f0, g1) - np.vdot(f1, g0)
    return lhs - rhs


def _weighted_pairing(spec, bases, f, g, g_tau):
    """(f, T_max g) over the whole interval with endpoint-aware cutoffs."""
    from .forms import (_pairing, _pointwise_tau, _side_cutoff,
                        default_window)

    basis_a, basis_b = bases
    window = default_window(spec, basis_a, basis_b)
    g_tau_fn = g_tau or _pointwise_tau(spec, g)
    cut_a = _side_cutoff(basis_a, basis_a.u_hat)
    cut_b = _side_cutoff(basis_b, basis_b.u_hat)
    value, _err = _pairing(spec, f, g_tau_fn, window, cut_a, cut_b)
    return value


# Relation dimension -> regime, where the dimension alone fixes it.
_REGIME_OF_DIM = {0: REGIME_LP_LP, 2: REGIME_LC_LC}


def form_from_relation(spec, bases, window, pair, f, g, tol=1e-10,
                       base=None):
    """Sesquilinear form of an extension through its boundary relation.

    q(f, g) = q_base(f, g) + (Lambda f, theta_op Lambda g) where Lambda g
    is the Gamma0 vector of g restricted to the limit-circle components.
    Both arguments must have Lambda vectors inside the operator domain of
    the relation (no component along the multivalued part).  `pair` may be
    an ExtensionSpec, which is converted first and names the regime, or an
    SAPair of dimension 0 or 2.  A one-dimensional SAPair does not say
    which endpoint is limit circle, so it is refused.  `base`, if given, is
    the FormValue of `q_base(spec, bases, window, regime, f, g)`; only its
    value is read.
    """
    if isinstance(pair, SAPair):
        if pair.n not in _REGIME_OF_DIM:
            raise ValueError(
                f"a {pair.n}-dimensional relation does not name its "
                f"limit-circle endpoint; pass the OneLC extension instead"
            )
        regime = _REGIME_OF_DIM[pair.n]
    else:
        regime = _regime_of(pair)
        pair = pair_from_extension(pair)
    ends = LC_ENDS[regime]
    if base is None:
        base = q_base(spec, bases, window, regime, f, g)
    if pair.n == 0:
        return base.value
    rel = decompose(pair)
    f0, _ = boundary_maps(spec, bases, f, ends=ends)
    g0, _ = boundary_maps(spec, bases, g, ends=ends)
    for label, vec in (("f", f0), ("g", g0)):
        if not rel.in_domain(vec, tol=max(tol, 1e-6)):
            raise DomainConstraintViolated(
                f"Lambda {label} = {vec} has a component along the "
                f"multivalued part of the boundary relation"
            )
    deco = np.vdot(rel.project(f0), rel.theta_op @ rel.project(g0))
    value = base.value + deco
    if getattr(value, "imag", None) == 0.0:
        value = float(np.real(value))
    return value


def boundary_pair_check(spec, bases, window, eps_values=(1.0, 0.1),
                        samples=(), regime=REGIME_LC_LC):
    """Diagnostics of the boundary pair (Lambda, q_base) on sample functions.

    Checks that (i) Lambda agrees with the Gamma0 route used throughout,
    (ii) members with vanishing boundary values stay in the kernel of
    Lambda, and (iii) each epsilon in eps_values admits a finite fitted
    constant C with |Lambda f|^2 <= eps q_base(f, f) + C |f|^2 over the
    samples.  Lambda takes the limit-circle components of the regime.
    Returns a report dict; counterexamples are listed, not raised.
    """
    ends = LC_ENDS[regime]
    rows, counterexamples = [], []
    for i, f in enumerate(samples):
        f0, _ = boundary_maps(spec, bases, f, ends=ends)
        qv = float(np.real(q_base(spec, bases, window, regime, f, f).value))
        # (f, f) in the weighted space, reusing the pairing quadrature.
        nrm = float(np.real(
            _weighted_pairing(spec, bases, f, f, g_tau=lambda x: f(x))
        ))
        if not all(math.isfinite(x) for x in
                   (np.linalg.norm(f0), qv, nrm)):
            counterexamples.append(i)
            continue
        rows.append({"index": i,
                     "lambda_sq": float(np.linalg.norm(f0) ** 2),
                     "form": qv, "norm_sq": nrm})
    fitted = {}
    for eps in eps_values:
        c_needed = 0.0
        for row in rows:
            if row["norm_sq"] <= 0.0:
                continue
            c_needed = max(
                c_needed,
                (row["lambda_sq"] - eps * row["form"]) / row["norm_sq"],
            )
        fitted[float(eps)] = c_needed
    return {"constants": fitted, "samples": rows,
            "counterexamples": counterexamples,
            "all_finite": not counterexamples}
