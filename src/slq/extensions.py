"""Self-adjoint extensions: one boundary-condition type, residuals, shooting.

Every self-adjoint extension is one `ExtensionSpec`: the self-adjoint
boundary relation B Gamma0 g = A Gamma1 g over its limit-circle ends, in
generalized boundary value coordinates Gamma0 g = (g~(e))_e and
Gamma1 g = (SIGMA[e] g~'(e))_e (Behrndt, Hassi & de Snoo, Boundary Value
Problems, Weyl Functions, and Differential Operators, 2020, ch. 6).  Its
pair (A, B) is validated once, when the condition is made, and its
decomposition `relation` once, on first use; residuals, shooting and
`forms.q_decorated` read them.

The catalog's conditions are constructors of that type.  `Separated`
imposes one angle t at each of two LC ends, sin(t) g~' + cos(t) g~ = 0
there, `OneLC` one angle at one end, `LpLp` nothing (no LC end); `Coupled`
imposes (g~(b), g~'(b)) = exp(i phi) R (g~(a), g~'(a)) with R in SL(2, R).
`ExtensionSpec.variant` names the kind back from the number of ends and
whether the pair is diagonal.  Shooting starts a diagonal pair from each
end's row; any other pair goes through the GBV transfer and the Weyl
matrix.  Either way it counts the eigenvalue index and bisects on it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .classify import LIMIT_CIRCLE
from .errors import ShootingOverflow, SpecFileError, VariantMismatch
from .forms import SIGMA
from .odecore import brentq, end_state
from .problem import _check_keys, finite_number, grid_point
from .solutions import construct_basis
from .triplets import (
    SAPair,
    _adjoint_apply,
    _apply,
    boundary_vectors,
    decompose,
    validate_pair,
)


@dataclass(frozen=True, eq=False)
class ExtensionSpec:
    """The self-adjoint boundary condition B Gamma0 g = A Gamma1 g over the
    limit-circle ends `lc_ends`, a subset of ("a", "b") in order.

    Made from `lc_ends` and the matrices (A, B), n x n with n the number of
    ends; `pair` is then the validated SAPair, whose A and B are tuples of
    rows.  Two conditions are equal when their ends and pairs are.
    """

    lc_ends: tuple
    pair: SAPair

    def __post_init__(self):
        pair = validate_pair(*self.pair)
        if pair.n != len(self.lc_ends):
            raise ValueError(f"a {pair.n}x{pair.n} pair over the ends "
                             f"{self.lc_ends}")
        object.__setattr__(self, "pair", pair)

    def _key(self):
        return self.lc_ends, self.pair.A, self.pair.B

    def __eq__(self, other):
        if not isinstance(other, ExtensionSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def variant(self):
        """The kind of condition: "lp_lp", "one_lc" or "separated" for a
        diagonal pair over 0, 1 or 2 LC ends, and "coupled" otherwise."""
        if not _diagonal(self.pair):
            return "coupled"
        return ("lp_lp", "one_lc", "separated")[len(self.lc_ends)]

    @cached_property
    def relation(self):
        """The condition's boundary relation, decomposed into its operator
        part Theta and multivalued part; computed once per extension."""
        return decompose(self.pair)


def _diagonal(pair):
    """True when each row of the pair constrains one end alone."""
    return all(z == 0 for m in (pair.A, pair.B)
               for i, row in enumerate(m) for j, z in enumerate(row) if i != j)


def _check_angle(name, value):
    v = finite_number(name, value)
    if not (0.0 <= v < math.pi):
        raise SpecFileError(f"{name} must lie in [0, pi), got {v}")
    return v


def _diag(values):
    """The diagonal matrix of `values`, as a tuple of rows."""
    return tuple(tuple(v if i == j else 0.0 for j in range(len(values)))
                 for i, v in enumerate(values))


def _separated(angles):
    """The diagonal condition of one angle t per LC end, {end: t}: the row
    sin(t) g~' + cos(t) g~ = 0 is B = cos t, A = -SIGMA[end] sin t."""
    return ExtensionSpec(tuple(angles), (
        _diag([-SIGMA[end] * math.sin(t) for end, t in angles.items()]),
        _diag([math.cos(t) for t in angles.values()])))


def Separated(alpha, beta):
    """Angle alpha at a and beta at b, both limit circle."""
    return _separated({"a": _check_angle("alpha", alpha),
                       "b": _check_angle("beta", beta)})


def OneLC(alpha, lc_endpoint):
    """Angle alpha at the one limit-circle end `lc_endpoint`."""
    if lc_endpoint not in ("a", "b"):
        raise SpecFileError("lc_endpoint must be 'a' or 'b'")
    return _separated({lc_endpoint: _check_angle("alpha", alpha)})


def LpLp():
    """No limit-circle end: the empty condition."""
    return _separated({})


def Coupled(phi, R):
    """(g~(b), g~'(b)) = exp(i phi) R (g~(a), g~'(a)), R in SL(2, R)."""
    phi = _check_angle("phi", phi)
    try:
        rows = [[finite_number("R", x) for x in row] for row in R]
    except TypeError:
        rows = []
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise SpecFileError("R must be a 2x2 real matrix")
    (r00, r01), (r10, r11) = rows
    # det R is good to a few roundings of its two products.
    det = r00 * r11 - r01 * r10
    scale = abs(r00 * r11) + abs(r01 * r10)
    if not abs(det - 1.0) <= 1e-12 * max(1.0, scale):
        raise SpecFileError(f"R must have determinant 1, got {det}")
    e = cmath.exp(1j * phi)
    return ExtensionSpec(("a", "b"), (
        tuple(tuple(-complex(z) for z in row)
              for row in ((e * r01, 0.0), (e * r11, 1.0))),
        ((e * r00, -1.0), (e * r10, 0.0))))


def extension_from_dict(doc):
    """Extension block of a problem-spec file -> ExtensionSpec."""
    if not isinstance(doc, dict):
        raise SpecFileError("extension block must be an object")
    kind = doc.get("kind")
    if kind == "separated":
        _check_keys(doc, ("kind", "alpha", "beta"), "extension")
        return Separated(doc.get("alpha", 0.0), doc.get("beta", 0.0))
    if kind == "coupled":
        _check_keys(doc, ("kind", "phi", "R"), "extension")
        if "R" not in doc:
            raise SpecFileError("coupled extension needs 'R'")
        return Coupled(doc.get("phi", 0.0), doc["R"])
    if kind == "one_lc":
        _check_keys(doc, ("kind", "alpha", "endpoint"), "extension")
        return OneLC(doc.get("alpha", 0.0), doc.get("endpoint", "a"))
    if kind == "lp_lp":
        _check_keys(doc, ("kind",), "extension")
        return LpLp()
    raise SpecFileError(f"unknown extension kind {kind!r}")


def lc_ends(classification):
    """The limit-circle endpoints of a classification, in order: a subset
    of ("a", "b")."""
    return tuple(e for e in ("a", "b")
                 if classification[e].kind == LIMIT_CIRCLE)


def check_variant(ext, classification):
    """Raise VariantMismatch unless the extension's limit-circle ends are
    the classification's."""
    ends = lc_ends(classification)
    if ext.lc_ends != ends:
        raise VariantMismatch(
            f"{ext.variant} needs limit-circle ends {ext.lc_ends}, "
            f"the classification's are {ends}"
        )


def friedrichs_spec(classification):
    """The Friedrichs extension: angle 0 at every limit-circle end of the
    classification."""
    return _separated({end: 0.0 for end in lc_ends(classification)})


def boundary_residual(ext, gbv_a, gbv_b):
    """Residual B Gamma0 g - A Gamma1 g of the extension's boundary relation
    for the given GBV data, a tuple with one entry per LC end."""
    pair = ext.pair
    g0, g1 = boundary_vectors({"a": gbv_a, "b": gbv_b}, ext.lc_ends)
    return tuple(x - y for x, y in zip(_apply(pair.B, g0),
                                       _apply(pair.A, g1)))


# ---------------------------------------------------------------------------
# Eigenvalue shooting
# ---------------------------------------------------------------------------

BOUNDARY_DELTA = 1e-10  # offset from a singular LC endpoint for initial data
WKB_ACTION = 25.0  # decay action of the shooting start at an LP end


@dataclass
class Eigenvalue:
    lam: float
    bracket: tuple
    condition_residual: float


def _lc_point(basis):
    """Where shooting meets a limit-circle endpoint.

    A regular endpoint itself (exact); a tiny offset inside a singular LC
    endpoint, which contaminates the boundary condition only at
    O(offset^2 (lam - lam0)); at an infinite LC endpoint, the far edge of
    the region where the basis is trustworthy.
    """
    end = basis.endpoint_value
    if basis.regular:
        return end
    if math.isfinite(end):
        return end - BOUNDARY_DELTA if basis.endpoint == "b" \
            else end + BOUNDARY_DELTA
    return basis.trust_interval[1] if basis.endpoint == "b" \
        else basis.trust_interval[0]


def _lc_init(basis, coef_u, coef_uhat):
    """(x0, (value, qd)) for coef_u * u + coef_uhat * u_hat at _lc_point."""
    x0 = _lc_point(basis)
    uu, uu1 = basis.u.pair(x0)
    hu, hu1 = basis.u_hat.pair(x0)
    return x0, (coef_u * uu + coef_uhat * hu,
                coef_u * uu1 + coef_uhat * hu1)


def _wkb_far_point(spec, endpoint, lam):
    """Point beyond the turning region with a decay action of WKB_ACTION,
    walking from the interior toward an infinite limit-point endpoint.

    At a finite limit-point end (bessel(gamma >= 1) at 0, Coulomb with
    l >= 1 at 0) the walk would leave the interval, and there is no other
    start yet: ShootingOverflow is raised at once, naming the end.
    """
    end = spec.interval.end(endpoint)
    if math.isfinite(end):
        raise ShootingOverflow(
            f"endpoint {endpoint} is a finite limit-point end: shooting has "
            f"no start there yet"
        )
    sign = 1.0 if endpoint == "b" else -1.0
    interior = spec.interval.interior_point()
    x = interior + sign * 1.0
    p, q, r = spec.p.scalar, spec.q.scalar, spec.r.scalar
    # Step outward until the accumulated decay integral is large enough.
    action = 0.0
    step = 0.25
    for _ in range(100000):
        k2p = (q(x) - lam * r(x)) / p(x)
        if k2p > 0.0:
            action += math.sqrt(k2p) * step
            if action >= WKB_ACTION:
                return x
        x += sign * step
    raise ShootingOverflow(
        f"no WKB far point found toward endpoint {endpoint}"
    )


def _lp_init(spec, endpoint, lam):
    """Decaying-branch initial data at a WKB far point near an LP endpoint."""
    x0 = _wkb_far_point(spec, endpoint, lam)
    p, q, r = spec.p.scalar, spec.q.scalar, spec.r.scalar
    kappa = math.sqrt(p(x0) * (q(x0) - lam * r(x0)))
    sign = 1.0 if endpoint == "b" else -1.0
    # Decaying toward the endpoint: u' = -sign * kappa / p * u.
    return x0, (1.0, -sign * kappa)


def _side_start(spec, ext, basis, side, lam):
    """Initial data of the solution that meets a diagonal condition at one
    side.

    u_hat has GBV data (1, 0) and u has (0, 1), so y = -SIGMA A u_hat - B u
    meets the end's row B g~ = A SIGMA g~' at a limit-circle end; for an
    angle t that is y = sin(t) u_hat - cos(t) u.  At a limit-point end the
    solution is the decaying branch.
    """
    if side not in ext.lc_ends:
        return _lp_init(spec, side, lam)
    k = ext.lc_ends.index(side)
    a, b = (float(m[k][k].real) for m in (ext.pair.A, ext.pair.B))
    return _lc_init(basis, -b, -SIGMA[side] * a)


def _orientation(side, init):
    """o = +-1 of a one-sided solution's initial data (u0, u0^[1]), so that
    o u > 0 just inside the interval: the sign of u0, or where u0 = 0 that
    of u0^[1], negated at b."""
    u0, u1 = init
    if u0:
        return math.copysign(1.0, u0)
    return math.copysign(1.0, u1 if side == "a" else -u1)


def _shoot_det(spec, ext, bases, lam, mid, tol):
    """(det, N): the normalized Wronskian at `mid` of the two one-sided
    solutions of the extension's diagonal condition, and the eigenvalue
    index N(lam), the number of eigenvalues below lam (`_index`).  N is odd
    exactly where o_a o_b det > 0, so a jump of N by one across a cell is a
    sign change of det.
    """
    states, m, o = [], 0, 1.0
    for side, basis in zip("ab", bases):
        x0, init = _side_start(spec, ext, basis, side, lam)
        y, zeros = end_state(spec, lam, x0, init, mid, tol=tol)
        states.append(y)
        m += zeros
        o *= _orientation(side, init)
    (lu, lu1), (ru, ru1) = states
    wr = lu * ru1 - lu1 * ru
    norm = math.sqrt((abs(lu) ** 2 + abs(lu1) ** 2)
                     * (abs(ru) ** 2 + abs(ru1) ** 2))
    if norm == 0.0 or not math.isfinite(norm):
        raise ShootingOverflow(f"shooting state degenerate at lambda={lam}")
    w = float(wr.real)
    return w / norm, _index(m, o, w)


def _index(m, o, w):
    """N = m + [(-1)^m o w > 0] for one-sided solutions with m zeros before
    the interior point, Wronskian w there and orientations of product o
    (Pryce, Numerical Solution of Sturm-Liouville Problems, 1993, ch. 5)."""
    return m + ((-1) ** m * o * w > 0.0)


def _coupled_transfer(spec, basis_a, basis_b, lam, tol):
    """(M, N_F): the 2x2 matrix M(lam) sending GBV data at a to GBV data at
    b, and the Friedrichs extension's eigenvalue index N_F(lam).

    From each LC end the solutions with GBV data (1, 0) (started as u_hat)
    and (0, 1) (started as u) are marched to the interior point, where
    their states are the columns of Phi_a and Phi_b.  A solution with data
    v_a at a and v_b at b has the state Phi_a v_a = Phi_b v_b there, so
    M = Phi_b^-1 Phi_a.  No march approaches a singular end, next to which
    the step size can underflow.  The two u are the Friedrichs one-sided
    solutions, so their zeros and Wronskian give N_F with no other solve.
    M is a tuple of rows, solved by the 2x2 inverse (Cramer's rule).
    """
    mid = spec.interval.interior_point()
    phis, m, o = [], 0, 1.0
    for side, basis in zip("ab", (basis_a, basis_b)):
        x0, u_hat = _lc_init(basis, 0.0, 1.0)
        _, u = _lc_init(basis, 1.0, 0.0)
        y, zeros = end_state(spec, lam, x0, u, mid, tol=tol)
        y_hat, _ = end_state(spec, lam, x0, u_hat, mid, tol=tol)
        phis.append(((float(y_hat[0]), float(y[0])),
                     (float(y_hat[1]), float(y[1]))))
        m += zeros
        o *= _orientation(side, u)
    ((a00, a01), (a10, a11)), ((b00, b01), (b10, b11)) = phis
    w = a01 * b11 - a11 * b01
    det = b00 * b11 - b01 * b10
    M = (((b11 * a00 - b01 * a10) / det, (b11 * a01 - b01 * a11) / det),
         ((b00 * a10 - b10 * a00) / det, (b00 * a11 - b10 * a01) / det))
    return M, _index(m, o, w)


def _det2(M):
    """det of a 2x2 matrix given as rows."""
    (a, b), (c, d) = M
    return a * d - b * c


def _negative_count(H):
    """n_-(H), the number of negative eigenvalues of a Hermitian matrix
    of size <= 2, from its trace and determinant: det < 0 has one, det > 0
    none or two by the sign of the trace, det = 0 one where the trace is
    negative."""
    if len(H) < 2:
        return sum(row[0].real < 0.0 for row in H)
    trace = H[0][0].real + H[1][1].real
    det = (H[0][0] * H[1][1] - H[0][1] * H[1][0]).real
    if det < 0.0:
        return 1
    return (2 if det > 0.0 else 1) if trace < 0.0 else 0


def _coupled_det(spec, ext, bases, lam, tol):
    """(det, N) of any pair through the GBV transfer M = M(lam).

    det is det(B Gamma0 Phi - A Gamma1 Phi), made real.  Phi's columns are
    the solutions with GBV data (1, 0) and (0, 1) at a, so
    Gamma0 Phi = [[1, 0], M[0]] and Gamma1 Phi = [[0, 1], -M[1]].  On the
    real axis the determinant has the constant phase
    theta = arg(det(B + iA) det(B - iA)) / 2; for the catalog's coupled pair
    it is e^{i phi} (2 cos phi - tr(R^-1 M)) with theta = phi mod pi.  It is
    entire in lam, where det(B - A W) has poles.

    N = N_F + n_-(Theta - P* W P), the number of eigenvalues below lam:
    W = [[-M00, 1], [1, -M11]] / M01 is the Weyl matrix (Gamma1 psi =
    W Gamma0 psi for tau psi = lam psi), and Theta the relation's operator
    part on the range of P, its domain (Derkach & Malamud, J. Funct. Anal.
    95 (1991); Behrndt, Hassi & de Snoo, 2020, ch. 6).
    """
    M, n_f = _coupled_transfer(spec, *bases, lam, tol)
    (m00, m01), (m10, m11) = M
    A, B = ext.pair.A, ext.pair.B
    theta = 0.5 * cmath.phase(
        _det2([[b + 1j * a for a, b in zip(ra, rb)] for ra, rb in zip(A, B)])
        * _det2([[b - 1j * a for a, b in zip(ra, rb)]
                 for ra, rb in zip(A, B)]))
    # B Gamma0 Phi - A Gamma1 Phi, column by column.
    det = _det2([[b0 + m00 * b1 + m10 * a1, m01 * b1 - a0 + m11 * a1]
                 for (a0, a1), (b0, b1) in zip(A, B)])
    rel = ext.relation
    P = rel.dom_basis
    weyl = ((-m00 / m01, 1.0 / m01), (1.0 / m01, -m11 / m01))
    # Theta - P* W P; pwp[l] is column l of P* W P.
    pwp = [_adjoint_apply(P, _apply(weyl, col)) for col in zip(*P)]
    h = [[t - pwp[l][k] for l, t in enumerate(row)]
         for k, row in enumerate(rel.theta_op)]
    return (float((cmath.exp(-1j * theta) * det).real),
            n_f + _negative_count(h))


def _brackets(lam_min, lam_max, n, point, tol):
    """The pieces (lo, hi, k) of the n-cell uniform grid on
    [lam_min, lam_max], ascending, that hold k >= 1 eigenvalues, k the jump
    of the eigenvalue index across the piece.

    point(lam) is (det, N).  A piece across which N does not jump is
    dropped; the rest are bisected on grid indices down to single cells.
    Each grid point is computed from its index (`problem.grid_point`) when
    a bisection reaches it, so no grid is held.
    A cell or piece stops there when k = 1 and det changes sign or is zero
    at an edge; otherwise it is bisected on N until it is narrower than
    tol.  Near a pole of the Weyl matrix N is noisy: where a half would
    jump by a negative count, the piece stops as one cluster of k.
    """
    def jump(lo, hi):
        return point(hi)[1] - point(lo)[1]

    def split(lo, hi, i, j, k):
        # i, j: the grid indices of lo and hi, None inside a cell.
        if i is not None and j - i > 1:
            c = (i + j) // 2
            mid = grid_point(lam_min, lam_max, n, c)
            halves = ((lo, mid, i, c), (mid, hi, c, j))
        else:
            mid = 0.5 * (lo + hi)
            if (k == 1 and point(lo)[0] * point(hi)[0] <= 0.0
                    or hi - lo < tol or not lo < mid < hi):
                yield lo, hi, k
                return
            halves = ((lo, mid, None, None), (mid, hi, None, None))
        steps = [jump(a, b) for a, b, _, _ in halves]
        if min(steps) < 0:
            yield lo, hi, k
            return
        for (a, b, i, j), step in zip(halves, steps):
            if step:
                yield from split(a, b, i, j, step)

    step = jump(lam_min, lam_max)
    if step > 0:
        yield from split(lam_min, lam_max, 0, n, step)


MAX_CELLS = 2 ** 53  # grid indices exact in a float; <= 53 bisection levels


def grid_cells(lam_min, lam_max, grid_per_unit):
    """The number of cells of eigenvalues_shoot's uniform lambda grid:
    about grid_per_unit per unit of the range, and at least 8.  ValueError
    unless the range is finite and increasing, with a finite width, and the
    count at most MAX_CELLS."""
    if not 0.0 < lam_max - lam_min < math.inf:
        raise ValueError("lambda range must be finite and increasing, "
                         "with a finite width")
    try:
        cells = (lam_max - lam_min) * grid_per_unit
    except OverflowError:
        cells = math.inf
    if not cells <= MAX_CELLS:
        raise ValueError(f"the lambda grid would have {cells:.3g} cells, "
                         f"above 2**53: narrow the range or the grid")
    return max(8, math.ceil(cells))


def eigenvalues_shoot(spec, ext, lam_range, tol=1e-8, grid_per_unit=64,
                      classification=None, bases=None):
    """Eigenvalues of the extension in [lam_min, lam_max] by shooting, each
    listed as often as its multiplicity.

    lam is an eigenvalue iff some solution meets the extension's
    conditions at both ends.  For a diagonal pair (a separated, one-LC or
    LP-LP condition), the one-sided solutions meeting each end's row (the
    decaying branch at a limit-point end) are marched to the interior
    midpoint, and their Wronskian is the determinant.  For any other pair
    it is det(B Gamma0 Phi(lam) - A Gamma1 Phi(lam)) with (A, B) the
    extension's boundary pair, through the GBV transfer matrix M(lam).
    Either way it also gives the eigenvalue index N(lam), the number of
    eigenvalues below lam.

    A uniform lam grid of about grid_per_unit cells per unit (`grid_cells`,
    at most MAX_CELLS) is bisected on N into the pieces where it jumps
    (`_brackets`).  A piece with one root
    across which the determinant changes sign is refined by Brent's method;
    a determinant of exactly zero at an edge makes that edge the root, and
    any other piece gives its midpoint.  A piece across which N jumps by k
    gives k entries, so the list has N(lam_max) - N(lam_min) of them, none
    for a range with no eigenvalue.  The solves run at the ODE tolerance
    min(1e-10, tol / 100).
    """
    lam_min, lam_max = float(lam_range[0]), float(lam_range[1])
    n = grid_cells(lam_min, lam_max, grid_per_unit)
    if classification is None:
        from .classify import classify_both
        classification = classify_both(spec)
    check_variant(ext, classification)
    if bases is None:
        bases = tuple(construct_basis(spec, e) if e in ext.lc_ends else None
                      for e in ("a", "b"))

    mid = spec.interval.interior_point()
    diagonal = _diagonal(ext.pair)
    ode_tol = min(1e-10, tol / 100)
    # One determinant per distinct lam: Brent starts from the values at its
    # bracket ends, and the residual at a root is Brent's last value.
    memo = {}

    def point(lam):
        key = float(lam)
        if key not in memo:
            memo[key] = (_shoot_det(spec, ext, bases, key, mid, tol=ode_tol)
                         if diagonal else
                         _coupled_det(spec, ext, bases, key, tol=ode_tol))
        return memo[key]

    def det_fn(lam):
        return point(lam)[0]

    results = []
    for lo, hi, k in _brackets(lam_min, lam_max, n, point, tol):
        v1, v2 = det_fn(lo), det_fn(hi)
        if v1 == 0.0:
            root = float(lo)
        elif v2 == 0.0:
            root = float(hi)
        elif k == 1 and v1 * v2 < 0.0:
            root = brentq(det_fn, lo, hi, xtol=tol)
        else:
            root = 0.5 * (lo + hi)
        results += [Eigenvalue(lam=float(root),
                               bracket=(float(lo), float(hi)),
                               condition_residual=abs(det_fn(root)))
                    for _ in range(k)]
    return results
