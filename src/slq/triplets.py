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

Since n <= 2, the algebra is written out in closed form on tuples of
Python complex numbers: a matrix is a tuple of rows, a vector a tuple.
Singular values come from the 2 x 2 Gram matrix of the rows (the largest
from its trace and eigenvalue gap, the product of both from the 2 x 2
minors), and the right singular vectors from the Jacobi rotation that
diagonalizes A* A (Golub & Van Loan, Matrix Computations, 4th ed., 2013,
sec. 8.5.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

KERNEL_TOL = 1e-10  # relative singular-value threshold for ker A detection
PAIR_TOL = 1e-12  # relative defect of A B* = B A* and rank (B A) = n
MEMBERSHIP_TOL = 1e-10  # relative residual of B u = A v
EPS_VALUES = (1.0, 0.1)  # boundary_pair_check's epsilons
MAX_N = 2  # the largest pair: one row per limit-circle end


@dataclass
class SAPair:
    """Parameter pair (A, B) of a self-adjoint boundary relation, each an
    n x n tuple of rows of complex numbers."""

    A: tuple
    B: tuple
    diagnostics: dict = field(default_factory=dict)

    @property
    def n(self):
        return len(self.A)


@dataclass
class SelfAdjointRelation:
    """Operator-part / multivalued-part decomposition of an (A, B) pair.

    The bases are n x k tuples of rows whose columns are orthonormal;
    theta_op is k x k with k the operator part's dimension."""

    pair: SAPair
    mul_basis: tuple                # orthonormal basis of ker A (columns)
    dom_basis: tuple                # orthonormal basis of (ker A)^perp
    theta_op: tuple                 # Hermitian operator part on dom_basis
    c_theta: float | None = None    # Theta itself when dom is 1-dimensional
    diagnostics: dict = field(default_factory=dict)

    @property
    def multivalued_dim(self):
        return len(self.mul_basis[0]) if self.mul_basis else 0

    def project(self, x):
        """Coordinates of x in dom_basis (component in (ker A)^perp)."""
        return _adjoint_apply(self.dom_basis, x)

    def mul_component(self, x):
        """Coordinates of x in mul_basis (component in ker A)."""
        return _adjoint_apply(self.mul_basis, x)

    def theta_form(self, x, y):
        """(P* x, theta_op P* y), the operator part's form on the
        projections of x and y."""
        return _vdot(self.project(x), _apply(self.theta_op, self.project(y)))


# ---------------------------------------------------------------------------
# Closed-form algebra on matrices of size n <= 2
# ---------------------------------------------------------------------------


def _matrix(M):
    """M (nested sequences, an array included) as a tuple of rows of
    complex numbers; ValueError unless square and at most MAX_N x MAX_N."""
    try:
        rows = tuple(tuple(complex(x) for x in row) for row in M)
    except TypeError:
        rows = None
    if rows is None or len(rows) > MAX_N \
            or any(len(row) != len(rows) for row in rows):
        raise ValueError(f"A and B must be square matrices of the same "
                         f"size, at most {MAX_N}x{MAX_N}")
    return rows


def _norm(values):
    """2-norm of a sequence of complex numbers (Frobenius norm of a
    matrix's entries), without overflow."""
    return math.hypot(*(p for z in values for p in (z.real, z.imag)))


def _entries(M):
    return [z for row in M for z in row]


def _vdot(x, y):
    """sum conj(x_i) y_i."""
    return sum((a.conjugate() * b for a, b in zip(x, y)), 0j)


def _apply(M, x):
    """The matrix-vector product M x."""
    return tuple(sum((m * v for m, v in zip(row, x)), 0j) for row in M)


def _adjoint_apply(basis, x):
    """basis* x: the coordinates of x along an n x k basis's columns."""
    k = len(basis[0]) if basis else 0
    return tuple(sum((row[j].conjugate() * v for row, v in zip(basis, x)), 0j)
                 for j in range(k))


def _pow2_exponent(M):
    """e with the real and imaginary part of every entry of M below 2**e:
    scaling by 2**-e is exact and keeps the Gram entries from
    overflowing."""
    top = max((max(abs(z.real), abs(z.imag)) for z in _entries(M)),
              default=0.0)
    return math.frexp(top)[1] if top else 0


def _scaled(M, e):
    """M times 2**-e, entry by entry (exact)."""
    return tuple(tuple(complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e))
                       for z in row) for row in M)


def _singular_values(rows):
    """Singular values, descending, of a matrix of n <= 2 rows.

    With one row it is the row's norm.  With two, the largest is the root
    of the largest eigenvalue of the rows' Gram matrix G, and the smallest
    is sqrt(det G) over it; det G is the sum of the squared 2 x 2 minors
    (Cauchy-Binet), each good to a rounding of its two products, so a
    nearly dependent pair of rows keeps a small singular value as an SVD
    would."""
    if len(rows) < 2:
        return [_norm(row) for row in rows]
    e = _pow2_exponent(rows)
    r1, r2 = _scaled(rows, e)
    g11, g22 = _norm(r1) ** 2, _norm(r2) ** 2
    g12 = abs(_vdot(r2, r1))
    big = math.sqrt(0.5 * (g11 + g22) + math.hypot(0.5 * (g11 - g22), g12))
    volume = _norm([r1[i] * r2[j] - r1[j] * r2[i]
                    for i in range(len(r1)) for j in range(i + 1, len(r1))])
    small = min(volume / big, big) if big else 0.0
    return [math.ldexp(big, e), math.ldexp(small, e)]


def _right_vectors(A):
    """Orthonormal eigenvectors of A* A for a matrix of size n <= 2, by
    descending eigenvalue, ties in coordinate order: the right singular
    vectors of A.

    For A* A = [[p, c], [conj c, q]] one Jacobi rotation of the real
    matrix [[p, |c|], [|c|, q]], with the phase of c on the first
    coordinate, diagonalizes it."""
    n = len(A)
    if n < 2:
        return [(1.0 + 0j,)] if n else []
    (a, b), (d, f) = A
    p = abs(a) ** 2 + abs(d) ** 2
    q = abs(b) ** 2 + abs(f) ** 2
    c = a.conjugate() * b + d.conjugate() * f
    if c == 0:
        pairs = [(p, (1.0 + 0j, 0j)), (q, (0j, 1.0 + 0j))]
    else:
        s = abs(c)
        phase = c / s
        tau = (q - p) / (2.0 * s)
        t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
        cs = 1.0 / math.hypot(1.0, t)
        sn = t * cs
        pairs = [(p - t * s, (phase * cs, complex(-sn))),
                 (q + t * s, (phase * sn, complex(cs)))]
    pairs.sort(key=lambda pair: -pair[0])
    return [v for _, v in pairs]


def _columns(vectors, n):
    """The n x k matrix whose columns are the given vectors, as rows."""
    return tuple(tuple(v[i] for v in vectors) for i in range(n))


def validate_pair(A, B):
    """Check the self-adjointness conditions of an (A, B) pair.

    A B* must equal B A* and the stacked block (B A) must have full row
    rank n, both up to PAIR_TOL relative.  The hermiticity defect is that
    of the pair with each row of (B A) divided by its largest entry: the
    relation is the same, D (A B* - B A*) D is the defect, and no entry of
    the scaled pair exceeds 1, so nothing overflows.  The singular values
    of (B A) come from its 2 x 2 Gram matrix (`_singular_values`).  A and B
    may be any n x n nested sequences with n <= MAX_N; a larger pair, or
    one of other shapes, is refused with ValueError.  Returns an SAPair,
    whose A and B are tuples of rows of complex numbers, on success.
    """
    A, B = _matrix(A), _matrix(B)
    if len(A) != len(B):
        raise ValueError(f"A and B must be square matrices of the same "
                         f"size, at most {MAX_N}x{MAX_N}")
    stacked = tuple(b + a for b, a in zip(B, A))
    rows = [max(map(abs, row)) or 1.0 for row in stacked]
    A_s = [[z / s for z in row] for row, s in zip(A, rows)]
    B_s = [[z / s for z in row] for row, s in zip(B, rows)]
    herm = _norm([_vdot(bj, ai) - _vdot(aj, bi)
                  for ai, bi in zip(A_s, B_s) for aj, bj in zip(A_s, B_s)])
    if herm > PAIR_TOL:
        raise NotSelfAdjointPair(
            f"A B* - B A* has norm {herm:.3e} relative to the row scales "
            f"(tolerance {PAIR_TOL:.3e})"
        )
    sv = _singular_values(stacked)
    # n = 0 (no limit-circle end) leaves no singular value: full rank.
    smallest = min(sv, default=math.inf)
    if smallest <= PAIR_TOL * max(sv, default=1.0):
        raise RankDeficient(f"(B A) is rank deficient: singular values {sv}")
    return SAPair(A=A, B=B,
                  diagnostics={"hermiticity_defect": herm,
                               "smallest_singular_value": smallest})


def decompose(pair):
    """Split the relation {(u, v) : B u = A v} of the SAPair `pair` into
    Theta plus kernel.

    The multivalued part is ker A: the right singular vectors of A
    (`_right_vectors`) whose singular values are at most KERNEL_TOL times
    max(|A|_F, 1).  The others span (ker A)^perp, and on it the relation
    acts as the Hermitian operator theta_op = P* A^+ B P, with P that
    basis and A^+ = P Sigma^-1 U* the pseudo-inverse cut at the same
    threshold, U = A P Sigma^-1 (for rank 1 that is A*/|A|_F^2 up to
    (s2/s1)^2).  A and B are first scaled by one power of 2, which changes
    neither the relation nor any rounding.  When the domain is
    one-dimensional, c_theta is that 1x1 operator as a real number.
    """
    A, B = pair.A, pair.B
    n = pair.n
    scale = max(_norm(_entries(A)), 1.0)
    e = _pow2_exponent(A)
    A_s, B_s = _scaled(A, e), _scaled(B, e)
    sv_s = _singular_values(A_s)
    sv = [math.ldexp(s, e) for s in sv_s]
    rank = sum(s > KERNEL_TOL * scale for s in sv)
    vectors = _right_vectors(A_s)
    dom, mul = vectors[:rank], vectors[rank:]
    # Row k of Sigma^-1 U*: 1/s_k times conj(u_k), u_k = A v_k / s_k.
    inv = [[(1.0 / s) * (z / s).conjugate() for z in _apply(A_s, v)]
           for s, v in zip(sv_s, dom)]
    b_dom = [_apply(B_s, v) for v in dom]
    theta_op = [[sum((w * z for w, z in zip(row, bv)), 0j) for bv in b_dom]
                for row in inv]
    if rank:
        defect = _norm([theta_op[k][l] - theta_op[l][k].conjugate()
                        for k in range(rank) for l in range(rank)])
        if defect > 1e-10 * max(_norm(_entries(theta_op)), 1.0):
            raise NotSelfAdjointPair(
                f"operator part is not Hermitian: defect {defect:.3e}"
            )
    theta_op = tuple(tuple(0.5 * (theta_op[k][l] + theta_op[l][k].conjugate())
                           for l in range(rank)) for k in range(rank))
    return SelfAdjointRelation(
        pair=pair, mul_basis=_columns(mul, n), dom_basis=_columns(dom, n),
        theta_op=theta_op,
        c_theta=float(theta_op[0][0].real) if rank == 1 else None,
        diagnostics={"singular_values": sv, "rank": rank},
    )


def relation_membership(pair, u, v):
    """True when (u, v) belongs to the relation, i.e. B u = A v up to
    MEMBERSHIP_TOL relative."""
    u = [complex(x) for x in u]
    v = [complex(x) for x in v]
    resid = _norm([x - y for x, y in zip(_apply(pair.B, u),
                                         _apply(pair.A, v))])
    bound = MEMBERSHIP_TOL * (_norm(_entries(pair.B)) * _norm(u)
                              + _norm(_entries(pair.A)) * _norm(v) + 1.0)
    return resid <= bound


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
    return (tuple(complex(x) for x in g0), tuple(complex(x) for x in g1))


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
    lhs = fg - gf.conjugate()
    f0, f1 = boundary_maps(spec, bases, f)
    g0, g1 = boundary_maps(spec, bases, g)
    rhs = _vdot(f0, g1) - _vdot(f1, g0)
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
        qv = float(q_base(spec, bases, window, regime, f, f).value.real)
        # (f, f) in the weighted space, reusing the pairing quadrature.
        nrm = float(_weighted_pairing(spec, bases, f, f, f.breaks).real)
        if not all(math.isfinite(x) for x in (_norm(f0), qv, nrm)):
            counterexamples.append(i)
            continue
        rows.append({"index": i,
                     "lambda_sq": _norm(f0) ** 2,
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
