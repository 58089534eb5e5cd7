"""Self-adjoint extensions: catalog, boundary residuals, eigenvalue shooting.

Extensions are parametrized by boundary conditions in generalized boundary
value coordinates: separated conditions sin(angle) g~' + cos(angle) g~ = 0
at each limit-circle endpoint, coupled conditions (g~(b), g~'(b)) =
exp(i phi) R (g~(a), g~'(a)) with R in SL(2, R), a single condition when
only one endpoint is limit circle, and no condition at all in the
limit-point/limit-point case.
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
from .odecore import end_state, integrate_tau
from .solutions import construct_basis


class ExtensionSpec:
    """Base class for extension descriptions."""

    variant = None


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

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_angle("alpha", self.alpha))
        object.__setattr__(self, "beta", _check_angle("beta", self.beta))


@dataclass(frozen=True)
class Coupled(ExtensionSpec):
    phi: float
    R: tuple
    variant = "coupled"

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
    """Raise VariantMismatch unless the variant fits the LC/LP pattern."""
    kinds = _kinds(classification)
    ends = lc_ends(kinds)
    if ext.variant in ("separated", "coupled"):
        if len(ends) != 2:
            raise VariantMismatch(
                f"{ext.variant} requires LC-LC, classification is {kinds}"
            )
    elif ext.variant == "one_lc":
        if len(ends) != 1:
            raise VariantMismatch(
                f"one_lc requires exactly one LC endpoint, got {kinds}"
            )
        if ext.lc_endpoint != ends[0]:
            raise VariantMismatch(
                f"LC endpoint is {ends[0]!r}, extension says "
                f"{ext.lc_endpoint!r}"
            )
    elif ext.variant == "lp_lp":
        if ends:
            raise VariantMismatch(
                f"lp_lp requires LP-LP, classification is {kinds}"
            )
    else:
        raise VariantMismatch(f"unknown variant {ext.variant!r}")
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
    """Residual vector of the boundary conditions for given GBV data."""
    if ext.variant == "separated":
        return np.array([
            math.sin(ext.alpha) * gbv_a.tilde_prime
            + math.cos(ext.alpha) * gbv_a.tilde,
            math.sin(ext.beta) * gbv_b.tilde_prime
            + math.cos(ext.beta) * gbv_b.tilde,
        ])
    if ext.variant == "coupled":
        R = ext.matrix()
        va = np.array([gbv_a.tilde, gbv_a.tilde_prime])
        vb = np.array([gbv_b.tilde, gbv_b.tilde_prime])
        return vb - cmath.exp(1j * ext.phi) * (R @ va)
    if ext.variant == "one_lc":
        g = gbv_a if ext.lc_endpoint == "a" else gbv_b
        return np.array([
            math.sin(ext.alpha) * g.tilde_prime
            + math.cos(ext.alpha) * g.tilde,
        ])
    return np.array([])


# ---------------------------------------------------------------------------
# Eigenvalue shooting
# ---------------------------------------------------------------------------

BOUNDARY_DELTA = 1e-10  # offset from a singular LC endpoint for initial data


@dataclass
class Eigenvalue:
    lam: float
    bracket: tuple
    condition_residual: float
    left: object = None           # solution satisfying the a-side condition
    right: object = None
    diagnostics: dict = field(default_factory=dict)


def _lc_init(spec, basis, coef_u, coef_uhat):
    """(x0, (value, qd)) for coef_u * u + coef_uhat * u_hat near the endpoint.

    At a regular endpoint the data sit at the endpoint itself (exact); at a
    singular LC endpoint they are taken a tiny offset inside, which
    contaminates the boundary condition only at O(offset^2 (lam - lam0)).
    """
    end = basis.endpoint_value
    if basis.regular:
        x0 = end
    elif math.isfinite(end):
        x0 = end - BOUNDARY_DELTA if basis.endpoint == "b" \
            else end + BOUNDARY_DELTA
    else:
        # LC at an infinite endpoint: start at the far edge of the region
        # where the basis is trustworthy.
        x0 = basis.trust_interval[1] if basis.endpoint == "b" \
            else basis.trust_interval[0]
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


def _side_solution(spec, ext, basis_map, side, lam, tol):
    """Solution satisfying the boundary condition on one side, plus anchor."""
    basis = basis_map.get(side)
    if basis is not None:
        if ext.variant == "separated":
            angle = ext.alpha if side == "a" else ext.beta
        elif ext.variant == "one_lc" and side == ext.lc_endpoint:
            angle = ext.alpha
        else:
            angle = 0.0
        x0, init = _lc_init(spec, basis,
                            math.cos(angle), -math.sin(angle))
    else:
        x0, init = _lp_init(spec, side, lam)
    return x0, init


def _shoot_det(spec, ext, basis_map, lam, mid, tol, dense=False):
    """Normalized Wronskian of the two one-sided solutions at the midpoint.

    Returns (det, (left, right)).  The one-sided trajectories are built only
    when `dense` is set; otherwise each side is one end-state solve and
    left and right are None.
    """
    xa, ia = _side_solution(spec, ext, basis_map, "a", lam, tol)
    xb, ib = _side_solution(spec, ext, basis_map, "b", lam, tol)
    if dense:
        left = integrate_tau(spec, lam, xa, ia, mid, tol=tol)
        right = integrate_tau(spec, lam, xb, ib, mid, tol=tol)
        (lu, lu1), (ru, ru1) = left.pair(mid), right.pair(mid)
    else:
        left = right = None
        lu, lu1 = end_state(spec, lam, xa, ia, mid, tol=tol)
        ru, ru1 = end_state(spec, lam, xb, ib, mid, tol=tol)
    wr = lu * ru1 - lu1 * ru
    norm = math.sqrt((abs(lu) ** 2 + abs(lu1) ** 2)
                     * (abs(ru) ** 2 + abs(ru1) ** 2))
    if norm == 0.0 or not math.isfinite(norm):
        raise ShootingOverflow(f"shooting state degenerate at lambda={lam}")
    return float(np.real(wr)) / norm, (left, right)


def _coupled_transfer(spec, basis_a, basis_b, lam, tol):
    """2x2 matrix M(lam) sending GBV data at a to GBV data at b."""
    end_b = basis_b.endpoint_value
    if basis_b.regular:
        xb = end_b
    else:
        off = max(BOUNDARY_DELTA,
                  1e-6 * abs(end_b - basis_b.nonvanish_bound)
                  * BOUNDARY_DELTA)
        xb = end_b - off
    uu, uu1 = basis_b.u.pair(xb)
    hu, hu1 = basis_b.u_hat.pair(xb)
    cols = []
    for coef_u, coef_uhat in ((0.0, 1.0), (1.0, 0.0)):
        # (g~(a), g~'(a)) = (1, 0) for the u_hat-like start, (0, 1) for u.
        xa, init = _lc_init(spec, basis_a, coef_u, coef_uhat)
        su, su1 = end_state(spec, lam, xa, init, xb, tol=tol)
        # g~ = -W(u, sol), g~' = W(u_hat, sol) at xb.
        cols.append((-(uu * su1 - uu1 * su), hu * su1 - hu1 * su))
    # cols[0] started as u_hat (GBV data (1, 0) at a), cols[1] as u ((0, 1)),
    # so cols[0] is the first column of M and cols[1] the second.
    return np.array([[cols[0][0], cols[1][0]],
                     [cols[0][1], cols[1][1]]], dtype=float)


def _coupled_det(spec, basis_map, ext, lam, tol):
    M = _coupled_transfer(spec, basis_map["a"], basis_map["b"], lam, tol)
    R = ext.matrix()
    Rinv = np.array([[R[1, 1], -R[0, 1]], [-R[1, 0], R[0, 0]]])  # det R = 1
    return float(np.trace(Rinv @ M)) - 2.0 * math.cos(ext.phi)


def eigenvalues_shoot(spec, ext, lam_range, tol=1e-8, grid_per_unit=64,
                      classification=None, bases=None):
    """Eigenvalues of the extension in [lam_min, lam_max] by shooting.

    Separated/OneLC: one-sided solutions satisfying each boundary condition
    are marched to the interior midpoint; lam is an eigenvalue iff their
    Wronskian vanishes.  Coupled: the GBV transfer matrix M(lam) satisfies
    tr(R^{-1} M) = 2 cos(phi) at eigenvalues.  Brackets come from a sign
    scan on a uniform lam grid and are refined by Brent's method.
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
    # One determinant per distinct lam: Brent starts from the grid values at
    # its bracket ends, and the residual at a root is Brent's last value.
    memo = {}
    if ext.variant == "coupled":
        def det_value(lam):
            return _coupled_det(spec, bases, ext, lam, tol=1e-10)
    else:
        def det_value(lam):
            return _shoot_det(spec, ext, bases, lam, mid, tol=1e-10)[0]

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
        resid = abs(det_fn(root))
        eig = Eigenvalue(lam=float(root),
                         bracket=(float(grid[i]), float(grid[i + 1])),
                         condition_residual=resid)
        if ext.variant != "coupled":
            _, (left, right) = _shoot_det(spec, ext, bases, root, mid,
                                          tol=1e-10, dense=True)
            eig.left, eig.right = left, right
        results.append(eig)
    if not results:
        raise RangeContainsNoBracket(
            f"no sign change of the shooting determinant in "
            f"[{lam_min}, {lam_max}]"
        )
    return results
