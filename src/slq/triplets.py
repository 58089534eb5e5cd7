"""Finite-dimensional boundary-triplet algebra for the extension catalog.

Each self-adjoint extension corresponds to a self-adjoint linear relation in
C^n x C^n written as {(u, v) : B u = A v} for an (A, B) pair satisfying
A B* = B A* and rank (B A) = n.  For the Sturm-Liouville catalog n is the
number of limit-circle endpoints and the boundary maps are built from the
generalized boundary values,

    Gamma0 g = (g~(a), g~(b)),    Gamma1 g = (g~'(a), -g~'(b)),

restricted to the limit-circle components.  Every extension is such a pair
over its limit-circle ends (`extensions.ExtensionSpec`), which
`validate_pair` checks once, when the extension is made;
`pair_from_extension` returns it.  The relation decomposes into a purely
multivalued part (the kernel of A) and a self-adjoint operator part Theta
on its orthogonal complement, which supplies the boundary decoration of
the sesquilinear form as (Lambda f, Theta Lambda g).  The form takes the
extension, never a bare pair: only the extension names its limit-circle
ends, and `form_from_relation` returns the value of `forms.q_decorated`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bvalues import gbv
from .errors import NotSelfAdjointPair, RankDeficient
from .forms import (
    REGIME_LC_LC,
    SIGMA,
    _pairing,
    _sides,
    default_window,
    q_base,
    q_decorated,
)

KERNEL_TOL = 1e-10  # relative SVD threshold for ker A detection
PAIR_TOL = 1e-12  # relative defect of A B* = B A* and rank (B A) = n
MEMBERSHIP_TOL = 1e-10  # relative residual of B u = A v
EPS_VALUES = (1.0, 0.1)  # boundary_pair_check's epsilons


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
    c_theta: float | None = None    # Theta itself when dom is 1-dimensional
    diagnostics: dict = field(default_factory=dict)

    @property
    def multivalued_dim(self):
        return self.mul_basis.shape[1]

    def project(self, x):
        """Coordinates of x in dom_basis (component in (ker A)^perp)."""
        return self.dom_basis.conj().T @ np.asarray(x, dtype=complex)


def validate_pair(A, B):
    """Check the self-adjointness conditions of an (A, B) pair.

    A B* must equal B A* and the stacked block (B A) must have full row
    rank n, both up to PAIR_TOL relative.  The hermiticity defect is that
    of the pair with each row of (B A) divided by its largest entry: the
    relation is the same, D (A B* - B A*) D is the defect, and no entry of
    the scaled pair exceeds 1, so nothing overflows.  Returns an SAPair on
    success.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
        raise ValueError("A and B must be square matrices of the same size")
    stacked = np.hstack([B, A])
    rows = np.abs(stacked).max(axis=1, initial=0.0)
    rows[rows == 0.0] = 1.0
    A_s, B_s = A / rows[:, None], B / rows[:, None]
    herm = float(np.linalg.norm(A_s @ B_s.conj().T - B_s @ A_s.conj().T))
    if herm > PAIR_TOL:
        raise NotSelfAdjointPair(
            f"A B* - B A* has norm {herm:.3e} relative to the row scales "
            f"(tolerance {PAIR_TOL:.3e})"
        )
    sv = np.linalg.svd(stacked, compute_uv=False)
    # n = 0 (no limit-circle end) leaves no singular value: full rank.
    smallest = sv.min(initial=math.inf)
    if smallest <= PAIR_TOL * sv.max(initial=1.0):
        raise RankDeficient(f"(B A) is rank deficient: singular values {sv}")
    return SAPair(A=A, B=B,
                  diagnostics={"hermiticity_defect": herm,
                               "smallest_singular_value": float(smallest)})


def decompose(pair):
    """Split the relation {(u, v) : B u = A v} of the SAPair `pair` into
    Theta plus kernel.

    The multivalued part is ker A, detected by SVD with a relative
    threshold; on its orthogonal complement the relation acts as the
    Hermitian operator theta_op = pinv(A) B expressed in an orthonormal
    basis of (ker A)^perp.  When that domain is one-dimensional, c_theta is
    that 1x1 operator as a real number.
    """
    A, B = pair.A, pair.B
    n = pair.n
    scale = max(np.linalg.norm(A), 1.0)
    U, sv, Vh = np.linalg.svd(A) if n else (None, np.array([]), None)
    rank = int(np.sum(sv > KERNEL_TOL * scale))
    V = Vh.conj().T if n else np.zeros((0, 0), dtype=complex)
    dom_basis = V[:, :rank]
    mul_basis = V[:, rank:]
    if rank == 0:
        theta_op = np.zeros((0, 0), dtype=complex)
    else:
        theta_full = np.linalg.pinv(A, rcond=KERNEL_TOL) @ B
        theta_op = dom_basis.conj().T @ theta_full @ dom_basis
        defect = np.linalg.norm(theta_op - theta_op.conj().T)
        if defect > 1e-10 * max(np.linalg.norm(theta_op), 1.0):
            raise NotSelfAdjointPair(
                f"operator part is not Hermitian: defect {defect:.3e}"
            )
        theta_op = 0.5 * (theta_op + theta_op.conj().T)
    return SelfAdjointRelation(
        pair=pair, mul_basis=mul_basis, dom_basis=dom_basis,
        theta_op=theta_op,
        c_theta=float(theta_op[0, 0].real) if rank == 1 else None,
        diagnostics={"singular_values": sv.tolist(), "rank": rank},
    )


def relation_membership(pair, u, v):
    """True when (u, v) belongs to the relation, i.e. B u = A v up to
    MEMBERSHIP_TOL relative."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    resid = np.linalg.norm(pair.B @ u - pair.A @ v)
    bound = MEMBERSHIP_TOL * (np.linalg.norm(pair.B) * np.linalg.norm(u)
                   + np.linalg.norm(pair.A) * np.linalg.norm(v) + 1.0)
    return bool(resid <= bound)


# ---------------------------------------------------------------------------
# Extension catalog -> (A, B) pairs and boundary maps
# ---------------------------------------------------------------------------


def pair_from_extension(ext):
    """Boundary-relation pair (A, B) of an extension: its `pair`, validated
    once when the extension was made (see `extensions.ExtensionSpec`)."""
    return ext.pair


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


def triplet_green_residual(spec, bases, f, g):
    """Residual of the abstract Green identity in boundary coordinates.

    (f, T_max g) - (T_max f, g) - [(Gamma0 f, Gamma1 g) - (Gamma1 f, Gamma0 g)]
    with the weighted pairing on the left and the C^n inner product
    (antilinear in the first slot) on the right.
    """
    fg = _weighted_pairing(spec, bases, f, g.tau, g.breaks)
    gf = _weighted_pairing(spec, bases, g, f.tau, f.breaks)
    lhs = fg - np.conj(gf)
    f0, f1 = boundary_maps(spec, bases, f)
    g0, g1 = boundary_maps(spec, bases, g)
    rhs = np.vdot(f0, g1) - np.vdot(f1, g0)
    return lhs - rhs


def _weighted_pairing(spec, bases, f, g_tau, g_breaks):
    """int r conj(f) g_tau over the whole interval, cut off toward each
    singular end where u_hat stops being trustworthy (the two-LC sides)
    and run to each regular end; with g_tau = tau g it is (f, T_max g).
    g_breaks are the points where g_tau stops being analytic (g's breaks,
    which tau g inherits); the middle is split there and at f's
    (`forms._pairing`)."""
    sides = _sides(spec, bases, default_window(spec, *bases), REGIME_LC_LC)
    return _pairing(spec, sides, f, g_tau, g_breaks)


def form_from_relation(spec, bases, window, ext, f, g):
    """Sesquilinear form of the extension `ext` through its boundary
    relation: the value of `forms.q_decorated`.

    q(f, g) = q_base(f, g) + (Lambda f, theta_op Lambda g) where Lambda g
    is the Gamma0 vector of g restricted to the limit-circle ends
    `ext.lc_ends`.  Both arguments must have Lambda vectors inside the
    operator domain of the relation (no component along the multivalued
    part).
    """
    return q_decorated(spec, bases, window, ext, f, g).value


def boundary_pair_check(spec, bases, window, samples=(), regime=REGIME_LC_LC):
    """Diagnostics of the boundary pair (Lambda, q_base) on sample functions.

    Checks that (i) Lambda agrees with the Gamma0 route used throughout,
    (ii) members with vanishing boundary values stay in the kernel of
    Lambda, and (iii) each epsilon in EPS_VALUES admits a finite fitted
    constant C with |Lambda f|^2 <= eps q_base(f, f) + C |f|^2 over the
    samples.  Lambda takes the limit-circle components of the regime, the
    tuple of its limit-circle ends.  Returns a report dict; counterexamples
    are listed, not raised.
    """
    rows, counterexamples = [], []
    for i, f in enumerate(samples):
        f0, _ = boundary_maps(spec, bases, f, ends=regime)
        qv = float(np.real(q_base(spec, bases, window, regime, f, f).value))
        # (f, f) in the weighted space, reusing the pairing quadrature.
        nrm = float(np.real(
            _weighted_pairing(spec, bases, f, f, f.breaks)
        ))
        if not all(math.isfinite(x) for x in
                   (np.linalg.norm(f0), qv, nrm)):
            counterexamples.append(i)
            continue
        rows.append({"index": i,
                     "lambda_sq": float(np.linalg.norm(f0) ** 2),
                     "form": qv, "norm_sq": nrm})
    fitted = {}
    for eps in EPS_VALUES:
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
