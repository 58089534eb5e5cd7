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

Each end is one `Side` record (`_sides`): its reference solution w, its
cut point (c at a, d at b) and the cutoff where w's support ends toward
the endpoint.  The form, the L^2 check, the Green pairing and the triplet
pairing all read their per-end data from it, and every per-end sign from
SIGMA.  A side toward a regular end is a proper integral, one adaptive
panel; only a side toward a singular end takes improper_integral's
windows.

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
from numpy.exceptions import ComplexWarning

from .bvalues import gbv
from .errors import (
    BasisVanishes,
    DomainConstraintViolated,
    FormIntegralDiverges,
    NoConvergence,
    WindowInvalid,
)
from .odecore import tau_at
from .quadrature import ImproperResult, improper_integral, panel

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
    """One end's share of a form (see `_sides`)."""

    end: str            # "a" or "b"
    endpoint: float
    basis: object
    lc: bool            # limit-circle end of the regime
    w: object           # reference solution: u_hat at an LC end, u at LP
    cut: float          # c at a, d at b
    cutoff: float | None  # farthest trustworthy point; None: the endpoint

    def integral(self, fn):
        """(value, error, converged, diverged) of the integral of fn over
        the side, oriented along x (from a to c, from d to b).

        At a regular end the integral is proper: one adaptive panel from
        the cut to the endpoint, converged and finite by construction.  At
        a singular end it is `improper_integral`'s windowed sweep toward
        the endpoint, stopped at the cutoff.
        """
        if self.basis.regular:
            val, e, ok, div = _complex(panel, fn, self.cut, self.endpoint)
        else:
            val, e, ok, div = _complex(improper_integral, fn, self.cut,
                                       self.endpoint, cutoff=self.cutoff)
        return -SIGMA[self.end] * val, e, ok, div


def _sides(spec, bases, window, regime):
    """(side_a, side_b) of `regime` on `window`.

    The cutoff is the edge of w's support toward the endpoint, or None
    where that support reaches the endpoint.
    """
    if regime not in (REGIME_LC_LC, REGIME_LC_LP, REGIME_LP_LC, REGIME_LP_LP):
        raise ValueError(f"unknown regime {regime!r}")
    sides = []
    for end, endpoint, basis, cut in zip(
            "ab", spec.interval.endpoints(), bases, (window.c, window.d)):
        lc = end in regime
        w = basis.u_hat if lc else basis.u
        edge = w.x_min if end == "a" else w.x_max
        cutoff = edge if SIGMA[end] * (edge - endpoint) > 0.0 else None
        sides.append(Side(end, endpoint, basis, lc, w, cut, cutoff))
    return tuple(sides)


def _complex(integrate, fn, *args, **kw):
    """(value, error, converged, diverged) of integrate(fn, *args, **kw),
    where integrate is `panel` or `improper_integral` and fn may be complex.

    fn is integrated as a real function.  `quadrature.quad` refuses a node
    that returns a complex number (TypeError on a Python complex, numpy's
    ComplexWarning on a numpy one), and then the real and imaginary parts
    are integrated on the same terms.
    """
    try:
        parts = [integrate(fn, *args, **kw)]
    except (TypeError, ComplexWarning):
        parts = [integrate(lambda x: fn(x).real, *args, **kw),
                 integrate(lambda x: fn(x).imag, *args, **kw)]
    # panel returns (value, error): certified and finite by construction.
    parts = [res if isinstance(res, ImproperResult)
             else ImproperResult(*res, True, False) for res in parts]
    if len(parts) == 1:
        [res] = parts
        return res.value, res.error, res.converged, res.diverged
    re, im = parts
    return (complex(re.value, im.value), re.error + im.error,
            re.converged and im.converged, re.diverged or im.diverged)


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
    basis, cut, cutoff = side.basis, side.cut, side.cutoff
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
    coeff = None
    if side.lc:
        if not basis.regular and cutoff is not None:
            # The split integral(endpoint, cut) of c/(p u_hat^2) = c*J is an
            # exact identity for ANY constant c, so pick the constant that
            # best flattens the tail: the N-operator product evaluated at
            # the farthest trustworthy point.  This avoids inheriting the
            # extrapolation error of the generalized boundary values, which
            # would leave a spurious log-divergent residue.
            nf, ng, px, wu = n_pair(cutoff)
            coeff = nf.conjugate() * ng * px * wu * wu
        else:
            try:
                vf = gbv(spec, basis, f)
                vg = gbv(spec, basis, g)
            except NoConvergence:
                vf = vg = None
            if vf is not None:
                coeff = vf.tilde_prime.conjugate() * vg.tilde_prime
        if coeff is not None:
            uu = basis.u(cut)
            hu = basis.u_hat(cut)
            # J = integral of 1/(p u_hat^2) from the endpoint to the cut.
            # The split is an identity for any constant, so the only error
            # in the lead term is the basis accuracy at the cut itself.
            J = SIGMA[side.end] * uu / hu
            lead = coeff * J
            lead_err = 1e-12 * (1.0 + abs(lead))

    if coeff is None:
        def integrand(x):
            nf, ng, _, _ = n_pair(x)
            return nf.conjugate() * ng
    else:
        # w is u_hat here, so the subtracted c/(p u_hat^2) reuses the
        # node's lookup of w.
        def integrand(x):
            nf, ng, px, wu = n_pair(x)
            return nf.conjugate() * ng - coeff / (px * wu * wu)

    val, e, ok, div = side.integral(integrand)
    if div or not ok:
        raise FormIntegralDiverges(
            f"N-integral toward endpoint {side.end} does not converge"
        )
    return lead + val, e + lead_err


def _check_square_integrable(spec, sides, fns):
    """Raise FormIntegralDiverges unless each function is in L^2(r) toward
    every limit-point end."""
    r = spec.r.scalar
    for side in sides:
        if side.lc:
            continue
        for fn in fns:
            if not side.integral(lambda x: r(x) * abs(fn(x)) ** 2)[2]:
                raise FormIntegralDiverges(
                    f"function is not in L^2(r) toward the limit-point "
                    f"endpoint {side.end}"
                )


# Names of each end's pieces in FormValue.pieces: (side, cut point).
_PIECE_NAMES = {"a": ("left", "c"), "b": ("right", "d")}


def q_base(spec, bases, window, regime, f, g):
    """Base form Q_{c,d}(f, g) for the given endpoint regime.

    bases is the pair (basis_a, basis_b); regime, the tuple of LC ends,
    selects the reference solution on each side: u_hat at a limit-circle
    end, u at a limit-point end.  f and g must lie in L^2(r) toward each
    limit-point end, else FormIntegralDiverges.
    """
    if window is None:
        window = default_window(spec, *bases)
    window.validate(spec, *bases)
    sides = _sides(spec, bases, window, regime)
    lam0 = spec.lambda0
    p, q, r = spec.p.scalar, spec.q.scalar, spec.r.scalar
    _check_square_integrable(spec, sides, (f,) if f is g else (f, g))

    pieces = {}
    err = 0.0

    # Side N-integrals (improper toward the endpoints).
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

    val, e, _, _ = _complex(panel, middle, window.c, window.d)
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


def q_decorated(spec, bases, window, ext, f, g, tol=CONSTRAINT_TOL,
                base=None):
    """Form of the extension `ext` applied to (f, g): `_decorated` on its
    boundary relation `ext.relation`.

    `base`, if given, is the FormValue that
    `q_base(spec, bases, window, ext.lc_ends, f, g)` returns; it is read,
    not written, so a caller may hand the same base to other routes.
    """
    return _decorated(spec, bases, window, ext.lc_ends, ext.relation, f, g,
                      tol, base)


def _decorated(spec, bases, window, regime, rel, f, g, tol, base):
    """q_base(f, g) + (Theta Gamma0 f, Gamma0 g) for the decomposed boundary
    relation `rel` over the LC ends `regime`.

    The form lives on dom Theta = (mul Theta)^perp, so f and g are refused
    (DomainConstraintViolated) when Gamma0 of either has a component along
    mul Theta above tol (1 + max |g~|), over the g~ of both.  A separated
    angle 0 at an end puts that end in mul Theta (g~ = 0 there); any other
    angle t contributes -SIGMA[end] cot t to Theta.
    """
    if base is None:
        base = q_base(spec, bases, window, regime, f, g)

    def gamma0(fn):
        return np.array([gbv(spec, bases["ab".index(end)], fn).tilde
                         for end in regime], dtype=complex)

    f0, g0 = gamma0(f), gamma0(g)
    scale = 1.0 + max(np.abs(np.concatenate((f0, g0))), default=0.0)
    for label, vec in (("f", f0), ("g", g0)):
        if np.linalg.norm(rel.mul_basis.conj().T @ vec) > tol * scale:
            touched = [end for end, row in zip(regime, rel.mul_basis)
                       if np.abs(row).max() > tol]
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


def _pointwise_tau(spec, g):
    """x -> (tau g)(x), through tau_at."""
    return lambda x: tau_at(spec, g, x)


def _pairing(spec, sides, f, g_tau_fn):
    """(f, tau g) = int r conj(f) tau(g) over the whole interval."""
    r = spec.r.scalar

    def integrand(x):
        return r(x) * f(x).conjugate() * g_tau_fn(x)

    def part(side):
        val, _, _, div = side.integral(integrand)
        if div:
            raise FormIntegralDiverges(f"pairing diverges toward {side.end}")
        return val

    side_a, side_b = sides
    total = sum((part(side_a),
                 _complex(panel, integrand, side_a.cut, side_b.cut)[0],
                 part(side_b)), 0j)
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
    pairing = _pairing(spec, sides, f, _pointwise_tau(spec, g))

    boundary = 0.0
    for side in sides:
        if side.lc:
            vf = gbv(spec, side.basis, f)
            vg = gbv(spec, side.basis, g)
            boundary -= SIGMA[side.end] * np.conj(vf.tilde) * vg.tilde_prime

    return pairing - form.value + boundary
