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
end's row and counts the eigenvalue index; any other pair goes through the
GBV transfer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classify import LIMIT_CIRCLE
from .errors import (
    RangeContainsNoBracket,
    ShootingOverflow,
    SpecFileError,
    VariantMismatch,
)
from .forms import SIGMA
from .odecore import brentq, end_state, end_state_zeros
from .problem import finite_number
from .solutions import construct_basis
from .triplets import SAPair, boundary_vectors, decompose, validate_pair


@dataclass(frozen=True, eq=False)
class ExtensionSpec:
    """The self-adjoint boundary condition B Gamma0 g = A Gamma1 g over the
    limit-circle ends `lc_ends`, a subset of ("a", "b") in order.

    Made from `lc_ends` and the matrices (A, B), n x n with n the number of
    ends; `pair` is then the validated SAPair, whose arrays are read-only.
    Two conditions are equal when their ends and pairs are.
    """

    lc_ends: tuple
    pair: SAPair

    def __post_init__(self):
        pair = validate_pair(*self.pair)
        if pair.n != len(self.lc_ends):
            raise ValueError(f"a {pair.n}x{pair.n} pair over the ends "
                             f"{self.lc_ends}")
        for m in (pair.A, pair.B):
            m.setflags(write=False)
        object.__setattr__(self, "pair", pair)

    def _key(self):
        return (self.lc_ends,
                *(tuple(m.ravel().tolist()) for m in (self.pair.A,
                                                      self.pair.B)))

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
    return all(np.array_equal(m, np.diag(np.diag(m)))
               for m in (pair.A, pair.B))


def _check_angle(name, value):
    v = finite_number(name, value)
    if not (0.0 <= v < math.pi):
        raise SpecFileError(f"{name} must lie in [0, pi), got {v}")
    return v


def _separated(angles):
    """The diagonal condition of one angle t per LC end, {end: t}: the row
    sin(t) g~' + cos(t) g~ = 0 is B = cos t, A = -SIGMA[end] sin t."""
    return ExtensionSpec(tuple(angles), (
        np.diag([-SIGMA[end] * math.sin(t) for end, t in angles.items()]),
        np.diag([math.cos(t) for t in angles.values()])))


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
    R = np.array(rows)
    # det R is good to a few roundings of its two products.
    det = R[0, 0] * R[1, 1] - R[0, 1] * R[1, 0]
    scale = abs(R[0, 0] * R[1, 1]) + abs(R[0, 1] * R[1, 0])
    if not abs(det - 1.0) <= 1e-12 * max(1.0, scale):
        raise SpecFileError(f"R must have determinant 1, got {det}")
    e = cmath.exp(1j * phi)
    return ExtensionSpec(("a", "b"), (
        -np.array([[e * R[0, 1], 0.0], [e * R[1, 1], 1.0]], dtype=complex),
        np.array([[e * R[0, 0], -1.0], [e * R[1, 0], 0.0]], dtype=complex)))


def extension_from_dict(doc):
    """Extension block of a problem-spec file -> ExtensionSpec."""
    if not isinstance(doc, dict):
        raise SpecFileError("extension block must be an object")
    kind = doc.get("kind")
    if kind == "separated":
        extra = set(doc) - {"kind", "alpha", "beta"}
        if extra:
            raise SpecFileError(f"unknown field(s) in extension: {extra}")
        return Separated(doc.get("alpha", 0.0), doc.get("beta", 0.0))
    if kind == "coupled":
        extra = set(doc) - {"kind", "phi", "R"}
        if extra:
            raise SpecFileError(f"unknown field(s) in extension: {extra}")
        if "R" not in doc:
            raise SpecFileError("coupled extension needs 'R'")
        return Coupled(doc.get("phi", 0.0), doc["R"])
    if kind == "one_lc":
        extra = set(doc) - {"kind", "alpha", "endpoint"}
        if extra:
            raise SpecFileError(f"unknown field(s) in extension: {extra}")
        return OneLC(doc.get("alpha", 0.0), doc.get("endpoint", "a"))
    if kind == "lp_lp":
        if set(doc) - {"kind"}:
            raise SpecFileError("lp_lp extension takes no parameters")
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
    for the given GBV data."""
    pair = ext.pair
    g0, g1 = boundary_vectors({"a": gbv_a, "b": gbv_b}, ext.lc_ends)
    return pair.B @ g0 - pair.A @ g1


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
    """Point beyond the turning region with a decay action of WKB_ACTION."""
    sign = 1.0 if endpoint == "b" else -1.0
    interior = spec.interval.interior_point()
    x = interior + sign * 1.0
    # Step outward until the accumulated decay integral is large enough.
    action = 0.0
    step = 0.25
    for _ in range(100000):
        k2p = (spec.q(x) - lam * spec.r(x)) / spec.p(x)
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
    kappa = math.sqrt(spec.p(x0) * (spec.q(x0) - lam * spec.r(x0)))
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
    a, b = (float(m[k, k].real) for m in (ext.pair.A, ext.pair.B))
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
    index N(lam), the number of eigenvalues below lam.

    With m the zeros the two solutions pass on the way to `mid` and o_a,
    o_b their orientations, N = m + [(-1)^m o_a o_b W > 0] (Pryce,
    Numerical Solution of Sturm-Liouville Problems, 1993, ch. 5).  So N
    is odd exactly where o_a o_b det > 0, and a jump of N by one across a
    cell is a sign change of det.
    """
    states, m, o = [], 0, 1.0
    for side, basis in zip("ab", bases):
        x0, init = _side_start(spec, ext, basis, side, lam)
        y, zeros = end_state_zeros(spec, lam, x0, init, mid, tol=tol)
        states.append(y)
        m += zeros
        o *= _orientation(side, init)
    (lu, lu1), (ru, ru1) = states
    wr = lu * ru1 - lu1 * ru
    norm = math.sqrt((abs(lu) ** 2 + abs(lu1) ** 2)
                     * (abs(ru) ** 2 + abs(ru1) ** 2))
    if norm == 0.0 or not math.isfinite(norm):
        raise ShootingOverflow(f"shooting state degenerate at lambda={lam}")
    w = float(np.real(wr))
    return w / norm, m + ((-1) ** m * o * w > 0.0)


def _coupled_transfer(spec, basis_a, basis_b, lam, tol):
    """2x2 matrix M(lam) sending GBV data at a to GBV data at b.

    From each LC end the solutions with GBV data (1, 0) (started as u_hat)
    and (0, 1) (started as u) are marched to the interior point, where
    their states are the columns of Phi_a and Phi_b.  A solution with data
    v_a at a and v_b at b has the state Phi_a v_a = Phi_b v_b there, so
    M = Phi_b^-1 Phi_a.  No march approaches a singular end, next to which
    the step size can underflow.
    """
    mid = spec.interval.interior_point()
    phi_a, phi_b = (
        np.array([end_state(spec, lam, *_lc_init(basis, coef_u, coef_uhat),
                            mid, tol=tol)
                  for coef_u, coef_uhat in ((0.0, 1.0), (1.0, 0.0))],
                 dtype=float).T
        for basis in (basis_a, basis_b))
    return np.linalg.solve(phi_b, phi_a)


def _coupled_det(spec, pair, bases, lam, tol):
    """det(B Gamma0 Phi - A Gamma1 Phi) through the GBV transfer, made real.

    Phi's columns are the solutions with GBV data (1, 0) and (0, 1) at a, so
    Gamma0 Phi = [[1, 0], M[0]] and Gamma1 Phi = [[0, 1], -M[1]].  On the
    real axis the determinant has the constant phase
    theta = arg(det(B + iA) det(B - iA)) / 2; for the catalog's coupled pair
    it is e^{i phi} (2 cos phi - tr(R^-1 M)) with theta = phi mod pi.
    """
    M = _coupled_transfer(spec, *bases, lam, tol)
    A, B = pair.A, pair.B
    gamma0 = np.array([[1.0, 0.0], M[0]])
    gamma1 = np.array([[0.0, 1.0], -M[1]])
    theta = 0.5 * cmath.phase(np.linalg.det(B + 1j * A)
                              * np.linalg.det(B - 1j * A))
    det = np.linalg.det(B @ gamma0 - A @ gamma1)
    return float((cmath.exp(-1j * theta) * det).real)


def _brackets(grid, point):
    """The pieces of the grid, ascending, that may hold a root.

    point(lam) is (det, N) with N the eigenvalue index, or None where
    there is none.  With an index, a piece across which N does not jump is
    dropped; the rest are bisected, on grid indices down to single cells,
    then inside a cell where N jumps by two or more until each piece holds
    one root.  Without one, nothing is dropped: every cell is a piece, and
    every grid point is evaluated.
    """
    def jump(lo, hi):
        n_lo = point(lo)[1]
        return None if n_lo is None else point(hi)[1] - n_lo

    def split(lo, hi, i, j, step):
        # i, j: the grid indices of lo and hi, None inside a cell.
        if i is not None and j - i > 1:
            k = (i + j) // 2
            halves = ((lo, grid[k], i, k), (grid[k], hi, k, j))
        else:
            mid = 0.5 * (lo + hi)
            if step is None or step < 2 or not lo < mid < hi:
                yield lo, hi
                return
            halves = ((lo, mid, None, None), (mid, hi, None, None))
        for a, b, i, j in halves:
            step = jump(a, b)
            if step != 0:
                yield from split(a, b, i, j, step)

    n = len(grid) - 1
    step = jump(grid[0], grid[n])
    if step != 0:
        yield from split(grid[0], grid[n], 0, n, step)


def eigenvalues_shoot(spec, ext, lam_range, tol=1e-8, grid_per_unit=64,
                      classification=None, bases=None):
    """Eigenvalues of the extension in [lam_min, lam_max] by shooting.

    lam is an eigenvalue iff some solution meets the extension's
    conditions at both ends.  For a diagonal pair (a separated, one-LC or
    LP-LP condition), the one-sided solutions meeting each end's row (the
    decaying branch at a limit-point end) are marched to the interior
    midpoint, and their Wronskian is the determinant.  For a coupled one
    it is det(B Gamma0 Phi(lam) - A Gamma1 Phi(lam)) with (A, B) the
    extension's boundary pair, through the GBV transfer matrix M(lam).

    Roots are bracketed on a uniform lam grid of about grid_per_unit cells
    per unit.  For a diagonal pair each determinant also gives the
    eigenvalue index N(lam), the number of eigenvalues below lam, from the
    zeros of the one-sided solutions: the grid is bisected on N into the
    cells where it jumps, a cell holding several roots is bisected on N
    inside it, and only those points are evaluated.  A coupled condition
    has no index yet: every grid point is evaluated and a cell brackets a
    root where the determinant changes sign, so two roots in one cell
    escape it.  Each bracket is refined by Brent's method; a determinant
    of exactly zero at a bracket's left end is a root itself.
    """
    lam_min, lam_max = float(lam_range[0]), float(lam_range[1])
    if not (math.isfinite(lam_min) and math.isfinite(lam_max)
            and lam_min < lam_max):
        raise ValueError("lambda range must be finite and increasing")
    if classification is None:
        from .classify import classify_both
        classification = classify_both(spec)
    check_variant(ext, classification)
    if bases is None:
        bases = tuple(construct_basis(spec, e) if e in ext.lc_ends else None
                      for e in ("a", "b"))

    mid = spec.interval.interior_point()
    # One determinant per distinct lam: Brent starts from the values at its
    # bracket ends, and the residual at a root is Brent's last value.
    memo = {}
    if _diagonal(ext.pair):
        def point_value(lam):
            return _shoot_det(spec, ext, bases, lam, mid, tol=1e-10)
    else:
        def point_value(lam):
            return _coupled_det(spec, ext.pair, bases, lam, tol=1e-10), None

    def point(lam):
        key = float(lam)
        if key not in memo:
            memo[key] = point_value(key)
        return memo[key]

    def det_fn(lam):
        return point(lam)[0]

    n = max(8, int(math.ceil((lam_max - lam_min) * grid_per_unit)))
    grid = np.linspace(lam_min, lam_max, n + 1)
    results = []
    for lo, hi in _brackets(grid, point):
        v1, v2 = det_fn(lo), det_fn(hi)
        if v1 == 0.0:
            root = float(lo)
        elif v1 * v2 < 0.0:
            root = brentq(det_fn, lo, hi, xtol=tol)
        else:
            continue
        results.append(Eigenvalue(
            lam=float(root),
            bracket=(float(lo), float(hi)),
            condition_residual=abs(det_fn(root)),
        ))
    if not results:
        raise RangeContainsNoBracket(
            f"no eigenvalue bracket for the shooting determinant in "
            f"[{lam_min}, {lam_max}]"
        )
    return results
