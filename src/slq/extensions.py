"""Self-adjoint extensions: catalog, boundary residuals, eigenvalue shooting.

Extensions are parametrized by boundary conditions in generalized boundary
value coordinates: separated conditions sin(angle) g~' + cos(angle) g~ = 0
at each limit-circle endpoint, coupled conditions (g~(b), g~'(b)) =
exp(i phi) R (g~(a), g~'(a)) with R in SL(2, R), a single condition when
only one endpoint is limit circle, and no condition at all in the
limit-point/limit-point case.  `triplets.pair_from_extension` writes each
condition as one boundary relation B Gamma0 g = A Gamma1 g; residuals and
shooting read that pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .classify import LIMIT_CIRCLE
from .errors import (
    RangeContainsNoBracket,
    ShootingOverflow,
    SpecFileError,
    VariantMismatch,
)
from .odecore import end_state
from .solutions import construct_basis
from .triplets import SIGMA, boundary_vectors, pair_from_extension


class ExtensionSpec:
    """Base class for extension descriptions.

    `lc_ends` names the limit-circle endpoints whose generalized boundary
    values the condition constrains; `triplets.pair_from_extension` writes
    the condition itself as a boundary relation over them.
    """

    variant = None
    lc_ends = ()


def _check_angle(name, value):
    v = float(value)
    if not (0.0 <= v < math.pi):
        raise SpecFileError(f"{name} must lie in [0, pi), got {v}")
    return v


@dataclass(frozen=True)
class Separated(ExtensionSpec):
    alpha: float
    beta: float
    variant = "separated"
    lc_ends = ("a", "b")

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_angle("alpha", self.alpha))
        object.__setattr__(self, "beta", _check_angle("beta", self.beta))


@dataclass(frozen=True)
class Coupled(ExtensionSpec):
    phi: float
    R: tuple
    variant = "coupled"
    lc_ends = ("a", "b")

    def __post_init__(self):
        object.__setattr__(self, "phi", _check_angle("phi", self.phi))
        R = np.asarray(self.R, dtype=float)
        if R.shape != (2, 2):
            raise SpecFileError("R must be a 2x2 real matrix")
        det = R[0, 0] * R[1, 1] - R[0, 1] * R[1, 0]
        if abs(det - 1.0) > 1e-12 * max(1.0, float(np.max(np.abs(R))) ** 2):
            raise SpecFileError(f"R must have determinant 1, got {det}")
        object.__setattr__(self, "R", tuple(map(tuple, R.tolist())))

    def matrix(self):
        return np.asarray(self.R, dtype=float)


@dataclass(frozen=True)
class OneLC(ExtensionSpec):
    alpha: float
    lc_endpoint: str
    variant = "one_lc"

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_angle("alpha", self.alpha))
        if self.lc_endpoint not in ("a", "b"):
            raise SpecFileError("lc_endpoint must be 'a' or 'b'")

    @property
    def lc_ends(self):
        return (self.lc_endpoint,)


@dataclass(frozen=True)
class LpLp(ExtensionSpec):
    variant = "lp_lp"


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


def _kinds(classification):
    out = {}
    for e in ("a", "b"):
        c = classification[e]
        out[e] = c.kind if hasattr(c, "kind") else c
    return out


def lc_ends(classification):
    """The limit-circle endpoints of a classification, in order: a subset
    of ("a", "b")."""
    kinds = _kinds(classification)
    return tuple(e for e in ("a", "b") if kinds[e] == LIMIT_CIRCLE)


def check_variant(ext, classification):
    """Raise VariantMismatch unless the extension's limit-circle ends are
    the classification's."""
    kinds = _kinds(classification)
    if ext.lc_ends != lc_ends(kinds):
        raise VariantMismatch(
            f"{ext.variant} needs limit-circle ends {ext.lc_ends}, "
            f"classification is {kinds}"
        )
    return kinds


def friedrichs_spec(classification):
    """The Friedrichs extension for the given classification pair."""
    ends = lc_ends(classification)
    if len(ends) == 2:
        return Separated(0.0, 0.0)
    if len(ends) == 1:
        return OneLC(0.0, ends[0])
    return LpLp()


def boundary_residual(ext, gbv_a, gbv_b):
    """Residual B Gamma0 g - A Gamma1 g of the extension's boundary relation
    for the given GBV data."""
    pair = pair_from_extension(ext)
    g0, g1 = boundary_vectors({"a": gbv_a, "b": gbv_b}, ext.lc_ends)
    return pair.B @ g0 - pair.A @ g1


# ---------------------------------------------------------------------------
# Eigenvalue shooting
# ---------------------------------------------------------------------------

BOUNDARY_DELTA = 1e-10  # offset from a singular LC endpoint for initial data


@dataclass
class Eigenvalue:
    lam: float
    bracket: tuple
    condition_residual: float
    diagnostics: dict = field(default_factory=dict)


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


def _wkb_far_point(spec, endpoint, lam, target_action=25.0):
    """Point beyond the turning region with enough decay action."""
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
            if action >= target_action:
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


def _local_rows(pair, ends):
    """{end: (B_kk, A_kk)} when every row of the pair touches its own end
    only (A and B diagonal), else None.  The catalog's diagonal pairs are
    real."""
    if any(np.any(m - np.diag(np.diag(m))) for m in (pair.A, pair.B)):
        return None
    return {e: (pair.B[k, k].real, pair.A[k, k].real)
            for k, e in enumerate(ends)}


def _side_start(spec, rows, bases, side, lam):
    """Initial data of the solution that meets the condition at one side.

    u_hat has GBV data (1, 0) and u has (0, 1), so y = -B_kk u - sigma A_kk
    u_hat meets the row B_kk g~ = A_kk Gamma1 g at a limit-circle end.  At a
    limit-point end the solution is the decaying branch.
    """
    if side not in rows:
        return _lp_init(spec, side, lam)
    b, a = rows[side]
    return _lc_init(bases[side], -b, -SIGMA[side] * a)


def _shoot_det(spec, rows, bases, lam, mid, tol):
    """Normalized Wronskian at `mid` of the two one-sided solutions, for a
    pair whose rows each touch one end (see _local_rows)."""
    (lu, lu1), (ru, ru1) = (
        end_state(spec, lam, *_side_start(spec, rows, bases, side, lam), mid,
                  tol=tol)
        for side in ("a", "b")
    )
    wr = lu * ru1 - lu1 * ru
    norm = math.sqrt((abs(lu) ** 2 + abs(lu1) ** 2)
                     * (abs(ru) ** 2 + abs(ru1) ** 2))
    if norm == 0.0 or not math.isfinite(norm):
        raise ShootingOverflow(f"shooting state degenerate at lambda={lam}")
    return float(np.real(wr)) / norm


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
    M = _coupled_transfer(spec, bases["a"], bases["b"], lam, tol)
    A, B = pair.A, pair.B
    gamma0 = np.array([[1.0, 0.0], M[0]])
    gamma1 = np.array([[0.0, 1.0], -M[1]])
    theta = 0.5 * cmath.phase(np.linalg.det(B + 1j * A)
                              * np.linalg.det(B - 1j * A))
    det = np.linalg.det(B @ gamma0 - A @ gamma1)
    return float((cmath.exp(-1j * theta) * det).real)


def eigenvalues_shoot(spec, ext, lam_range, tol=1e-8, grid_per_unit=64,
                      classification=None, bases=None):
    """Eigenvalues of the extension in [lam_min, lam_max] by shooting.

    lam is an eigenvalue iff det(B Gamma0 Phi(lam) - A Gamma1 Phi(lam))
    vanishes, where (A, B) is the extension's boundary pair and Phi spans
    the solutions that meet the limit-point conditions.  When every row of
    the pair touches one end, one-sided solutions meeting each row are
    marched to the interior midpoint and their Wronskian is the
    determinant; otherwise it comes from the GBV transfer matrix M(lam).
    Brackets come from a sign scan on a uniform lam grid and are refined by
    Brent's method.
    """
    lam_min, lam_max = float(lam_range[0]), float(lam_range[1])
    if not lam_min < lam_max:
        raise ValueError("lambda range must be increasing")
    if classification is None:
        from .classify import classify_both
        classification = classify_both(spec)
    ends = lc_ends(check_variant(ext, classification))
    if isinstance(bases, (tuple, list)):
        bases = {"a": bases[0], "b": bases[1]}
    if bases is None:
        bases = {e: construct_basis(spec, e) if e in ends else None
                 for e in ("a", "b")}

    mid = spec.interval.interior_point()
    pair = pair_from_extension(ext)
    rows = _local_rows(pair, ends)
    # One determinant per distinct lam: Brent starts from the grid values at
    # its bracket ends, and the residual at a root is Brent's last value.
    memo = {}
    if rows is None:
        def det_value(lam):
            return _coupled_det(spec, pair, bases, lam, tol=1e-10)
    else:
        def det_value(lam):
            return _shoot_det(spec, rows, bases, lam, mid, tol=1e-10)

    def det_fn(lam):
        key = float(lam)
        if key not in memo:
            memo[key] = det_value(key)
        return memo[key]

    n = max(8, int(math.ceil((lam_max - lam_min) * grid_per_unit)))
    grid = np.linspace(lam_min, lam_max, n + 1)
    vals = [det_fn(lam) for lam in grid]
    results = []
    for i in range(n):
        v1, v2 = vals[i], vals[i + 1]
        if v1 == 0.0:
            root = float(grid[i])
        elif v1 * v2 < 0.0:
            root = brentq(det_fn, grid[i], grid[i + 1],
                          xtol=tol, rtol=4.0 * np.finfo(float).eps)
        else:
            continue
        results.append(Eigenvalue(
            lam=float(root),
            bracket=(float(grid[i]), float(grid[i + 1])),
            condition_residual=abs(det_fn(root)),
        ))
    if not results:
        raise RangeContainsNoBracket(
            f"no sign change of the shooting determinant in "
            f"[{lam_min}, {lam_max}]"
        )
    return results
