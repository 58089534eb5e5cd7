"""Regularized sesquilinear forms and Green-type identities.

The base form splits the energy pairing into two endpoint pieces written
through the N-operator of a reference solution w (nonprincipal at a
limit-circle end, principal at a limit-point end), a middle Dirichlet
integral between the cut points, and boundary corrections at the cuts:

    Q_{c,d}(f,g) = int_a^c conj(Nf) Ng + int_d^b conj(Nf) Ng
                 + lambda0 (int_a^c + int_d^b) r conj(f) g
                 + int_c^d (p^{-1} conj(f^[1]) g^[1] + q conj(f) g)
                 + (w^[1]/w)(c) conj(f(c)) g(c)
                 - (w^[1]/w)(d) conj(f(d)) g(d).

Only a singular end is cut.  At a regular end u_hat^[1] = 0 at the
endpoint, so the side's N-integral, its lambda0 mass and the correction
(u_hat^[1]/u_hat)(c) |f(c)|^2 add up to the classical integral of
p^{-1} |f^[1]|^2 + q |f|^2 over the side: the middle integral runs to the
endpoint itself and the end adds no piece.  Each singular end is one
`Side` record (`_sides`): its reference solution w, its cut point (c at
a, d at b) and the cutoff where w's support ends toward the endpoint.  The
form, the L^2 check, the Green pairing and the triplet pairing all read
their per-end data from it, and every per-end sign from SIGMA.  A side is
improper_integral's windowed sweep toward its endpoint; the L^2 check
stops it at the edge of the checked function's own support instead.

Every proper integral (the middle Dirichlet integral, the middle of a
pairing, each from the cut at a singular end or from a regular endpoint,
`_span`) is split at the `breaks` of its functions that lie strictly inside
its span, the points where a function stops being analytic (a blend
window's edges, a bump's support edges), and each piece is one adaptive
panel (`_piecewise`).  That is QUADPACK's own remedy for known interior
break points (dqagp): a single panel across a kink bisects its way onto
it, spends most of its nodes there, and can return a value off by more
than its error estimate.

The N-operator N_w f = (f^[1] w - f w^[1]) / (p^{1/2} w) is a formula
inside each side integrand, not an object: a quadrature node looks w up
once and evaluates p once for both N_w f and N_w g.  Every per-node
callback works in plain Python numbers (`.conjugate()`), not numpy
scalars.  Whether an integrand is complex is decided by its quadrature
nodes (`_complex`): it is integrated as a real function, and as a real
and an imaginary part once any node returns a complex number.

A regime is the tuple of its limit-circle ends, the ends that take the
nonprincipal reference solution and carry boundary values: REGIME_LC_LC is
("a", "b"), REGIME_LC_LP ("a",), REGIME_LP_LC ("b",), REGIME_LP_LP ().  An
extension's `lc_ends` is its regime.

The form of every self-adjoint extension is the base form plus one boundary
term, (Theta Gamma0 f, Gamma0 g) on dom Theta = (mul Theta)^perp, read off
the extension's decomposed boundary relation (`ExtensionSpec.relation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bvalues import gbv
from .errors import (
    BasisVanishes,
    DomainConstraintViolated,
    FormIntegralDiverges,
    VariantMismatch,
    WindowInvalid,
)
from .quadrature import _complex, improper_integral, panel

REGIME_LC_LC = ("a", "b")
REGIME_LC_LP = ("a",)   # LC at a, LP at b
REGIME_LP_LC = ("b",)   # LP at a, LC at b
REGIME_LP_LP = ()

# Gamma1 g = SIGMA[end] g~'(end): the boundary maps flip its sign at b.
SIGMA = {"a": 1.0, "b": -1.0}

# Relative size of a Gamma0 component along mul Theta that puts a function
# outside the domain of an extension's form.
CONSTRAINT_TOL = 1e-6


@dataclass(frozen=True)
class FormWindow:
    c: float
    d: float

    def validate(self, spec, basis_a, basis_b):
        a, b = spec.interval.endpoints()
        a0 = basis_a.nonvanish_bound
        b0 = basis_b.nonvanish_bound
        if not (a < self.c < a0 <= b0 < self.d < b):
            raise WindowInvalid(
                f"need a < c < {a0} <= {b0} < d < b, got c={self.c}, d={self.d}"
            )


def default_window(spec, basis_a, basis_b):
    """Midpoints of the two side windows (a, a0) and (b0, b)."""
    a, b = spec.interval.endpoints()
    a0 = basis_a.nonvanish_bound
    b0 = basis_b.nonvanish_bound
    c = 0.5 * (a + a0) if math.isfinite(a) else a0 - max(1.0, abs(a0))
    d = 0.5 * (b0 + b) if math.isfinite(b) else b0 + max(1.0, abs(b0))
    return FormWindow(c, d)


@dataclass
class FormValue:
    value: complex
    pieces: dict = field(default_factory=dict)
    error: float = 0.0
    window: FormWindow = None


@dataclass(frozen=True)
class Side:
    """One singular end's share of a form (see `_sides`)."""

    end: str            # "a" or "b"
    endpoint: float
    basis: object
    lc: bool            # limit-circle end of the regime
    w: object           # reference solution: u_hat at an LC end, u at LP
    cut: float          # c at a, d at b
    cutoff: float       # farthest trustworthy point: the edge of w's support

    def integral(self, fn):
        """(value, error, converged, diverged) of the integral of fn over
        the side, oriented along x (from a to c, from d to b):
        `improper_integral`'s windowed sweep from the cut toward the
        endpoint, stopped at the cutoff."""
        val, e, ok, div = _complex(improper_integral, fn, self.cut,
                                   self.endpoint, cutoff=self.cutoff)
        return -SIGMA[self.end] * val, e, ok, div


def _sides(spec, bases, window, regime):
    """(side_a, side_b) of `regime` on `window`: a Side at a singular end,
    None at a regular one, which needs no cut.  A regular end is limit
    circle, so a regime that leaves one out is refused (VariantMismatch)."""
    if regime not in (REGIME_LC_LC, REGIME_LC_LP, REGIME_LP_LC, REGIME_LP_LP):
        raise ValueError(f"unknown regime {regime!r}")
    sides = []
    for end, endpoint, basis, cut in zip(
            "ab", spec.interval.endpoints(), bases, (window.c, window.d)):
        if basis.regular:
            if end not in regime:
                raise VariantMismatch(
                    f"endpoint {end} is regular, hence limit circle, but "
                    f"the regime {regime!r} takes it as limit point")
            sides.append(None)
            continue
        lc = end in regime
        w = basis.u_hat if lc else basis.u
        cutoff = w.x_min if end == "a" else w.x_max
        sides.append(Side(end, endpoint, basis, lc, w, cut, cutoff))
    return tuple(sides)


def _span(spec, sides):
    """(lo, hi) of a middle integral: from the cut at a singular end, from
    the endpoint itself at a regular one."""
    return tuple(endpoint if side is None else side.cut
                 for endpoint, side in zip(spec.interval.endpoints(), sides))


def _piecewise(fn, lo, hi, breaks):
    """(value, error) of the proper integral of fn from lo to hi, one
    `panel` per piece between the breaks strictly inside.

    Each piece goes through `_complex`, so it is real or complex by its own
    nodes; values and errors are summed.  With no break inside it is one
    panel over (lo, hi), as it would be unsplit.
    """
    inner = sorted({x for x in breaks if min(lo, hi) < x < max(lo, hi)})
    if hi < lo:
        inner.reverse()
    knots = [lo, *inner, hi]
    val, err, _, _ = _complex(panel, fn, knots[0], knots[1])
    for x0, x1 in zip(knots[1:], knots[2:]):
        v, e, _, _ = _complex(panel, fn, x0, x1)
        val, err = val + v, err + e
    return val, err


def _side_n_integral(spec, side, f, g):
    """One side's N-integral as the true integral from the endpoint to cut.

    The integrand is conj(N_w f) N_w g with the N-operator of the reference
    solution w, N_w f = (f^[1] w - f w^[1]) / (p^{1/2} w); each node looks
    up w and evaluates p once.  At a limit-circle side (w = u_hat) the
    slowly decaying part of the integrand, conj(f~') g~' / (p u_hat^2), is
    split off and summed in closed form: (u/u_hat)' = -1/(p u_hat^2) by
    the Wronskian normalization, so its integral telescopes to a boundary
    evaluation at the cut.  The remainder decays fast enough for the window
    extrapolation to reach ~1e-12.
    """
    basis, cut = side.basis, side.cut
    p = spec.p.scalar
    w_pair = side.w.pair
    f_pair = f.pair
    g_pair = g.pair

    def n_pair(x):
        """(N_w f, N_w g, p, w) at x."""
        wu, wu1 = w_pair(x)
        if wu == 0.0:
            raise BasisVanishes(f"reference solution vanishes at x={x}")
        px = p(x)
        fu, fu1 = f_pair(x)
        nf = (fu1 * wu - fu * wu1) / (math.sqrt(px) * wu)
        if g is f:
            return nf, nf, px, wu
        gu, gu1 = g_pair(x)
        return nf, (gu1 * wu - gu * wu1) / (math.sqrt(px) * wu), px, wu

    lead = 0.0
    lead_err = 0.0
    if side.lc:
        # The split integral(endpoint, cut) of c/(p u_hat^2) = c*J is an
        # exact identity for ANY constant c, so pick the constant that
        # best flattens the tail: the N-operator product evaluated at the
        # farthest trustworthy point.  This avoids inheriting the
        # extrapolation error of the generalized boundary values, which
        # would leave a spurious log-divergent residue.
        nf, ng, px, wu = n_pair(side.cutoff)
        coeff = nf.conjugate() * ng * px * wu * wu
        uu = basis.u(cut)
        hu = basis.u_hat(cut)
        # J = integral of 1/(p u_hat^2) from the endpoint to the cut.
        # The split is an identity for any constant, so the only error
        # in the lead term is the basis accuracy at the cut itself.
        J = SIGMA[side.end] * uu / hu
        lead = coeff * J
        lead_err = 1e-12 * (1.0 + abs(lead))

        # w is u_hat here, so the subtracted c/(p u_hat^2) reuses the
        # node's lookup of w.
        def integrand(x):
            nf, ng, px, wu = n_pair(x)
            return nf.conjugate() * ng - coeff / (px * wu * wu)
    else:
        def integrand(x):
            nf, ng, _, _ = n_pair(x)
            return nf.conjugate() * ng

    val, e, ok, div = side.integral(integrand)
    if div or not ok:
        raise FormIntegralDiverges(
            f"N-integral toward endpoint {side.end} does not converge"
        )
    return lead + val, e + lead_err


def _check_square_integrable(spec, sides, fns):
    """Raise FormIntegralDiverges unless each function is in L^2(r) toward
    every limit-point end.

    r |f|^2 is integrated from the cut toward the endpoint and stopped at
    the edge of f's own support there (`x_min` at a, `x_max` at b), not at
    the reference solution's: a closed-form f runs to the endpoint itself.
    """
    r = spec.r.scalar
    for side in sides:
        if side.lc:
            continue
        for fn in fns:
            edge = fn.x_min if side.end == "a" else fn.x_max
            res = improper_integral(
                lambda x: r(x) * abs(fn(x)) ** 2, side.cut, side.endpoint,
                cutoff=edge if math.isfinite(edge) else None)
            if not res.converged:
                raise FormIntegralDiverges(
                    f"function is not in L^2(r) toward the limit-point "
                    f"endpoint {side.end}"
                )


# Names of each end's pieces in FormValue.pieces: (side, cut point).
_PIECE_NAMES = {"a": ("left", "c"), "b": ("right", "d")}


def q_base(spec, bases, window, regime, f, g):
    """Base form Q_{c,d}(f, g) for the given endpoint regime.

    bases is the pair (basis_a, basis_b); regime, the tuple of LC ends,
    selects the reference solution on each singular side: u_hat at a
    limit-circle end, u at a limit-point end.  A regular end adds no
    piece: the middle Dirichlet integral reaches it.  f and g must lie in
    L^2(r) toward each limit-point end, else FormIntegralDiverges.
    """
    if window is None:
        window = default_window(spec, *bases)
    window.validate(spec, *bases)
    all_sides = _sides(spec, bases, window, regime)
    sides = [side for side in all_sides if side is not None]
    lam0 = spec.lambda0
    p, q, r = spec.p.scalar, spec.q.scalar, spec.r.scalar
    _check_square_integrable(spec, sides, (f,) if f is g else (f, g))

    pieces = {}
    err = 0.0

    # Side N-integrals (improper toward the singular endpoints).
    for side in sides:
        val, e = _side_n_integral(spec, side, f, g)
        pieces[f"{_PIECE_NAMES[side.end][0]}_N_integral"] = val
        err += e

    def mass(x):
        return lam0 * r(x) * f(x).conjugate() * g(x)

    for side in sides:
        name = _PIECE_NAMES[side.end][0]
        val = 0.0
        if lam0 != 0.0:
            val, e, ok, div = side.integral(mass)
            if div or not ok:
                raise FormIntegralDiverges(
                    f"{name} mass integral does not converge")
            err += e
        pieces[f"{name}_lambda0_mass"] = val

    def middle(x):
        fu, fu1 = f.pair(x)
        gu, gu1 = g.pair(x)
        return (fu1.conjugate() * gu1 / p(x)
                + q(x) * fu.conjugate() * gu)

    val, e = _piecewise(middle, *_span(spec, all_sides),
                        f.breaks + g.breaks)
    pieces["middle_dirichlet_integral"] = val
    err += e

    # Boundary corrections SIGMA[end] (w^[1]/w) conj(f) g at the cut points.
    for side in sides:
        cut = _PIECE_NAMES[side.end][1]
        wu, wu1 = side.w.pair(side.cut)
        if wu == 0.0:
            raise BasisVanishes(
                f"reference solution vanishes at cut {cut}={side.cut}")
        pieces[f"boundary_correction_{cut}"] = (
            SIGMA[side.end] * (wu1 / wu) * f(side.cut).conjugate()
            * g(side.cut))

    pieces["decoration_terms"] = 0.0
    value = sum(pieces.values())
    if abs(np.imag(value)) == 0.0:
        value = float(np.real(value))
    return FormValue(value=value, pieces=pieces, error=err, window=window)


def q_decorated(spec, bases, window, ext, f, g):
    """Form of the extension `ext` applied to (f, g): q_base(f, g) +
    (Theta Gamma0 f, Gamma0 g) from its decomposed boundary relation
    `ext.relation` over its LC ends `ext.lc_ends`.

    The form lives on dom Theta = (mul Theta)^perp, so f and g are refused
    (DomainConstraintViolated) when Gamma0 of either has a component along
    mul Theta above CONSTRAINT_TOL (1 + max |g~|), over the g~ of both.  A
    separated angle 0 at an end puts that end in mul Theta (g~ = 0 there);
    any other angle t contributes -SIGMA[end] cot t to Theta.
    """
    regime, rel = ext.lc_ends, ext.relation
    base = q_base(spec, bases, window, regime, f, g)

    def gamma0(fn):
        return np.array([gbv(spec, bases["ab".index(end)], fn).tilde
                         for end in regime], dtype=complex)

    f0, g0 = gamma0(f), gamma0(g)
    scale = 1.0 + max(np.abs(np.concatenate((f0, g0))), default=0.0)
    for label, vec in (("f", f0), ("g", g0)):
        if np.linalg.norm(rel.mul_basis.conj().T @ vec) \
                > CONSTRAINT_TOL * scale:
            touched = [end for end, row in zip(regime, rel.mul_basis)
                       if np.abs(row).max() > CONSTRAINT_TOL]
            raise DomainConstraintViolated(
                f"the extension constrains "
                f"{', '.join(f'g~({end})' for end in touched)}: Gamma0 "
                f"{label} = {vec} has a component along mul Theta")
    deco = np.vdot(rel.project(f0), rel.theta_op @ rel.project(g0))
    value = base.value + deco
    if abs(np.imag(value)) == 0.0:
        value = float(np.real(value))
    return replace(base, value=value,
                   pieces={**base.pieces, "decoration_terms": deco})


def _pairing(spec, sides, f, g_tau_fn, g_breaks):
    """(f, tau g) = int r conj(f) tau(g) over the whole interval.

    g_breaks are the breaks of g, which tau g inherits; the middle
    (`_span`) is integrated piecewise between them and f's breaks
    (`_piecewise`).  The sum runs side a, middle, side b, over the sides
    that `_sides` gives.
    """
    r = spec.r.scalar

    def integrand(x):
        return r(x) * f(x).conjugate() * g_tau_fn(x)

    def part(side):
        """The side's integral as a tuple: empty at a regular end."""
        if side is None:
            return ()
        val, _, _, div = side.integral(integrand)
        if div:
            raise FormIntegralDiverges(f"pairing diverges toward {side.end}")
        return (val,)

    side_a, side_b = sides
    lo, hi = _span(spec, sides)
    total = sum((*part(side_a),
                 _piecewise(integrand, lo, hi, f.breaks + g_breaks)[0],
                 *part(side_b)), 0j)
    if abs(total.imag) == 0.0:
        return total.real
    return total


def green_identity_residual(spec, bases, window, f, g, regime=REGIME_LC_LC):
    """Residual of the Green-type identity for the base form.

    Two-LC: (f, T_max g) - Q_{c,d}(f,g) - conj(f~(a)) g~'(a)
            + conj(f~(b)) g~'(b); one-LC (REGIME_LC_LP or REGIME_LP_LC)
    keeps only the LC endpoint's term; LP-LP has no boundary terms.
    """
    if window is None:
        window = default_window(spec, *bases)
    form = q_base(spec, bases, window, regime, f, g)
    sides = _sides(spec, bases, window, regime)
    pairing = _pairing(spec, sides, f, g.tau, g.breaks)

    boundary = 0.0
    for end in regime:
        basis = bases["ab".index(end)]
        vf = gbv(spec, basis, f)
        vg = gbv(spec, basis, g)
        boundary -= SIGMA[end] * np.conj(vf.tilde) * vg.tilde_prime

    return pairing - form.value + boundary
