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

The N-operator N_w f = (f^[1] w - f w^[1]) / (p^{1/2} w) is a formula
inside each side integrand, not an object: a quadrature node looks w up
once and evaluates p once for both N_w f and N_w g.  Every per-node
callback works in plain Python numbers (`.real`, `.conjugate()`), not
numpy scalars.

Boundary decorations then produce the form of every self-adjoint extension.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bvalues import gbv
from .errors import (
    BasisVanishes,
    DomainConstraintViolated,
    FormIntegralDiverges,
    NoConvergence,
    WindowInvalid,
)
from .odecore import tau_at
from .quadrature import improper_integral, panel
from .solutions import ReductionSolution

REGIME_LC_LC = "lc_lc"
REGIME_LC_LP = "lc_lp"   # LC at a, LP at b
REGIME_LP_LC = "lp_lc"   # LP at a, LC at b
REGIME_LP_LP = "lp_lp"

# The limit-circle endpoints of each regime: the one place that says which
# ends take the nonprincipal reference solution and carry boundary values.
LC_ENDS = {REGIME_LC_LC: ("a", "b"), REGIME_LC_LP: ("a",),
           REGIME_LP_LC: ("b",), REGIME_LP_LP: ()}


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


def _side_cutoff(basis, w):
    """Farthest trustworthy point toward the endpoint for side integrals."""
    end = basis.endpoint_value
    toward_b = basis.endpoint == "b"
    if isinstance(w, ReductionSolution):
        # Keep inside the region where the reduction tail is above its
        # noise floor (w vanishes identically beyond it and the N-operator
        # quotient would blow up).
        x_in = basis.anchor
        x_out = w.x_max if toward_b else w.x_min
        if abs(w.T(x_out)) > 10.0 * w.t_floor:
            return x_out
        for _ in range(80):
            mid = 0.5 * (x_in + x_out)
            if abs(w.T(mid)) > 10.0 * w.t_floor:
                x_in = mid
            else:
                x_out = mid
        return x_in
    if toward_b:
        return w.x_max if w.x_max < end else None
    return w.x_min if w.x_min > end else None


def _complex_improper(fn, start, endpoint, cutoff=None):
    """Signed improper integral of a possibly complex integrand.

    The integrand is probed once, between start and the endpoint (half a
    unit from start toward an infinite endpoint), to choose between one
    real integral and a real and an imaginary one.
    """
    if math.isfinite(endpoint):
        mid = 0.5 * (start + endpoint)
    else:
        mid = start + 0.5 if endpoint > start else start - 0.5
    probe = fn(mid)
    if isinstance(probe, complex) or getattr(probe, "imag", 0.0) != 0.0:
        re = improper_integral(lambda x: fn(x).real, start, endpoint,
                               cutoff=cutoff)
        im = improper_integral(lambda x: fn(x).imag, start, endpoint,
                               cutoff=cutoff)
        ok = re.converged and im.converged
        div = re.diverged or im.diverged
        return complex(re.value, im.value), re.error + im.error, ok, div
    res = improper_integral(lambda x: fn(x).real, start, endpoint,
                            cutoff=cutoff)
    return res.value, res.error, res.converged, res.diverged


def _complex_panel(fn, lo, hi):
    probe = fn(0.5 * (lo + hi))
    if isinstance(probe, complex) or getattr(probe, "imag", 0.0) != 0.0:
        vr, er = panel(lambda x: fn(x).real, lo, hi)
        vi, ei = panel(lambda x: fn(x).imag, lo, hi)
        return complex(vr, vi), er + ei
    return panel(lambda x: fn(x).real, lo, hi)


def _side_n_integral(spec, basis, w, is_lc, f, g, cut, cutoff):
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
    end = basis.endpoint_value
    sign = 1.0 if basis.endpoint == "b" else -1.0
    p = spec.p.scalar
    w_pair = w.pair
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
    if is_lc:
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
            J = -sign * uu / hu
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

    val, e, ok, div = _complex_improper(integrand, cut, end, cutoff=cutoff)
    if div or not ok:
        raise FormIntegralDiverges(
            f"N-integral toward endpoint {basis.endpoint} does not converge"
        )
    # improper_integral ran cut -> endpoint; the form wants endpoint -> cut.
    return lead + sign * val, e + lead_err


def _lc_flags(regime):
    """{"a": bool, "b": bool}: which endpoints the regime makes LC."""
    try:
        ends = LC_ENDS[regime]
    except KeyError:
        raise ValueError(f"unknown regime {regime!r}") from None
    return {"a": "a" in ends, "b": "b" in ends}


def _references(bases, lc):
    """Reference solutions (w_a, w_b): u_hat at an LC end, u at an LP end."""
    return tuple(basis.u_hat if lc[end] else basis.u
                 for end, basis in zip("ab", bases))


def _check_square_integrable(spec, lc, cuts, fns):
    """Raise FormIntegralDiverges unless each function is in L^2(r) toward
    every limit-point end; cuts holds (cut, cutoff) per end."""
    r = spec.r.scalar
    for end, endpoint, (cut, cutoff) in zip(
            "ab", spec.interval.endpoints(), cuts):
        if lc[end]:
            continue
        for fn in fns:
            res = improper_integral(lambda x: r(x) * abs(fn(x)) ** 2,
                                    cut, endpoint, cutoff=cutoff)
            if not res.converged:
                raise FormIntegralDiverges(
                    f"function is not in L^2(r) toward the limit-point "
                    f"endpoint {end}"
                )


def q_base(spec, bases, window, regime, f, g):
    """Base form Q_{c,d}(f, g) for the given endpoint regime.

    bases is the pair (basis_a, basis_b); regime selects the reference
    solution on each side: u_hat at a limit-circle end, u at a limit-point
    end (see LC_ENDS).  f and g must lie in L^2(r) toward each limit-point
    end, else FormIntegralDiverges.
    """
    basis_a, basis_b = bases
    if window is None:
        window = default_window(spec, basis_a, basis_b)
    window.validate(spec, basis_a, basis_b)
    lc = _lc_flags(regime)
    w_a, w_b = _references(bases, lc)
    a, b = spec.interval.endpoints()
    c, d = window.c, window.d
    lam0 = spec.lambda0
    p, q, r = spec.p.scalar, spec.q.scalar, spec.r.scalar

    cut_a = _side_cutoff(basis_a, w_a)
    cut_b = _side_cutoff(basis_b, w_b)
    _check_square_integrable(spec, lc, ((c, cut_a), (d, cut_b)),
                             (f,) if f is g else (f, g))

    pieces = {}
    err = 0.0

    # Side N-integrals (improper toward the endpoints; improper_integral is
    # orientation-signed from the cut toward the endpoint).
    val, e = _side_n_integral(spec, basis_a, w_a, lc["a"], f, g, c, cut_a)
    pieces["left_N_integral"] = val
    err += e
    val, e = _side_n_integral(spec, basis_b, w_b, lc["b"], f, g, d, cut_b)
    pieces["right_N_integral"] = val
    err += e

    if lam0 != 0.0:
        def mass(x):
            return lam0 * r(x) * f(x).conjugate() * g(x)

        val, e, ok, div = _complex_improper(mass, c, a, cutoff=cut_a)
        if div or not ok:
            raise FormIntegralDiverges("left mass integral does not converge")
        pieces["left_lambda0_mass"] = -val
        err += e
        val, e, ok, div = _complex_improper(mass, d, b, cutoff=cut_b)
        if div or not ok:
            raise FormIntegralDiverges("right mass integral does not converge")
        pieces["right_lambda0_mass"] = val
        err += e
    else:
        pieces["left_lambda0_mass"] = 0.0
        pieces["right_lambda0_mass"] = 0.0

    def middle(x):
        fu, fu1 = f.pair(x)
        gu, gu1 = g.pair(x)
        return (fu1.conjugate() * gu1 / p(x)
                + q(x) * fu.conjugate() * gu)

    val, e = _complex_panel(middle, c, d)
    pieces["middle_dirichlet_integral"] = val
    err += e

    # Boundary corrections at the cut points.
    wu_c, wu1_c = w_a.pair(c)
    if wu_c == 0.0:
        raise BasisVanishes(f"reference solution vanishes at cut c={c}")
    fu_c = f(c)
    gu_c = g(c)
    pieces["boundary_correction_c"] = (wu1_c / wu_c) * fu_c.conjugate() * gu_c

    wu_d, wu1_d = w_b.pair(d)
    if wu_d == 0.0:
        raise BasisVanishes(f"reference solution vanishes at cut d={d}")
    fu_d = f(d)
    gu_d = g(d)
    pieces["boundary_correction_d"] = -(wu1_d / wu_d) * fu_d.conjugate() * gu_d

    pieces["decoration_terms"] = 0.0
    value = sum(pieces.values())
    if abs(np.imag(value)) == 0.0:
        value = float(np.real(value))
    return FormValue(value=value, pieces=pieces, error=err, window=window)


def _regime_of(ext):
    """Form regime of a catalog extension: the one with its LC ends."""
    return next(r for r, ends in LC_ENDS.items() if ends == ext.lc_ends)


def q_decorated(spec, bases, window, ext, f, g, tol=1e-6, base=None):
    """Decorated form of the extension `ext` applied to (f, g).

    Adds the boundary decoration of the extension to the base form and
    enforces the extension's domain constraints on the generalized boundary
    values of f and g.  `base`, if given, is the FormValue that
    `q_base(spec, bases, window, regime, f, g)` returns for the extension's
    regime; it is read, not written, so a caller may hand the same base to
    other routes.
    """
    regime = _regime_of(ext)
    if base is None:
        base = q_base(spec, bases, window, regime, f, g)
    lc_ends = LC_ENDS[regime]

    def bvals(fn):
        return {end: gbv(spec, basis, fn)
                for end, basis in zip("ab", bases) if end in lc_ends}

    deco = 0.0
    if ext.variant == "separated":
        vf, vg = bvals(f), bvals(g)
        fa, fb = vf["a"].tilde, vf["b"].tilde
        ga, gb = vg["a"].tilde, vg["b"].tilde
        scale = 1.0 + max(abs(v) for v in (fa, fb, ga, gb))
        if ext.alpha == 0.0:
            if abs(ga) > tol * scale or abs(fa) > tol * scale:
                raise DomainConstraintViolated(
                    f"alpha=0 requires g~(a)=0, got {fa}, {ga}"
                )
        else:
            deco += -_cot(ext.alpha) * np.conj(fa) * ga
        if ext.beta == 0.0:
            if abs(gb) > tol * scale or abs(fb) > tol * scale:
                raise DomainConstraintViolated(
                    f"beta=0 requires g~(b)=0, got {fb}, {gb}"
                )
        else:
            deco += _cot(ext.beta) * np.conj(fb) * gb
    elif ext.variant == "coupled":
        vf, vg = bvals(f), bvals(g)
        fa, fb = vf["a"].tilde, vf["b"].tilde
        ga, gb = vg["a"].tilde, vg["b"].tilde
        R = ext.matrix()
        eip = cmath.exp(1j * ext.phi)
        if abs(R[0, 1]) > 0.0:
            deco = -(1.0 / R[0, 1]) * (
                R[0, 0] * np.conj(fa) * ga
                - np.conj(eip) * np.conj(fa) * gb
                - eip * np.conj(fb) * ga
                + R[1, 1] * np.conj(fb) * gb
            )
        else:
            scale = 1.0 + max(abs(v) for v in (fa, fb, ga, gb))
            for va, vb in ((fa, fb), (ga, gb)):
                if abs(vb - eip * R[0, 0] * va) > tol * scale:
                    raise DomainConstraintViolated(
                        f"coupled R12=0 requires g~(b) = e^(i phi) R11 g~(a)"
                        f", got {va} -> {vb}"
                    )
            deco = -R[0, 0] * R[1, 0] * np.conj(fa) * ga
    elif ext.variant == "one_lc":
        side = ext.lc_endpoint
        vf, vg = bvals(f), bvals(g)
        fl, gl = vf[side].tilde, vg[side].tilde
        scale = 1.0 + max(abs(fl), abs(gl))
        if ext.alpha == 0.0:
            if abs(gl) > tol * scale or abs(fl) > tol * scale:
                raise DomainConstraintViolated(
                    f"alpha=0 requires g~({side})=0, got {fl}, {gl}"
                )
        else:
            sgn = -1.0 if side == "a" else 1.0
            deco += sgn * _cot(ext.alpha) * np.conj(fl) * gl
    # lp_lp: no decoration.

    value = base.value + deco
    if abs(np.imag(value)) == 0.0:
        value = float(np.real(value))
    return replace(base, value=value,
                   pieces={**base.pieces, "decoration_terms": deco})


def _cot(angle):
    return math.cos(angle) / math.sin(angle)


def _pointwise_tau(spec, g):
    """x -> (tau g)(x), through tau_at."""
    return lambda x: tau_at(spec, g, x)


def _pairing(spec, f, g_tau_fn, window, cut_a, cut_b):
    """(f, tau g) = int r conj(f) tau(g) over the whole interval."""
    a, b = spec.interval.endpoints()
    c, d = window.c, window.d
    r = spec.r.scalar

    def integrand(x):
        return r(x) * f(x).conjugate() * g_tau_fn(x)

    total = 0.0 + 0.0j
    err = 0.0
    val, e, ok, div = _complex_improper(integrand, c, a, cutoff=cut_a)
    if div:
        raise FormIntegralDiverges("pairing diverges toward a")
    total += -val
    err += e
    v, e = _complex_panel(integrand, c, d)
    total += v
    err += e
    val, e, ok, div = _complex_improper(integrand, d, b, cutoff=cut_b)
    if div:
        raise FormIntegralDiverges("pairing diverges toward b")
    total += val
    err += e
    if abs(total.imag) == 0.0:
        return total.real, err
    return total, err


def green_identity_residual(spec, bases, window, f, g, regime=REGIME_LC_LC,
                            g_tau=None):
    """Residual of the Green-type identity for the base form.

    Two-LC: (f, T_max g) - Q_{c,d}(f,g) - conj(f~(a)) g~'(a)
            + conj(f~(b)) g~'(b); one-LC (REGIME_LC_LP or REGIME_LP_LC)
    keeps only the LC endpoint's term; LP-LP has no boundary terms.
    """
    basis_a, basis_b = bases
    if window is None:
        window = default_window(spec, basis_a, basis_b)
    form = q_base(spec, bases, window, regime, f, g)

    g_tau_fn = g_tau or _pointwise_tau(spec, g)

    lc = _lc_flags(regime)
    w_a, w_b = _references(bases, lc)
    cut_a = _side_cutoff(basis_a, w_a)
    cut_b = _side_cutoff(basis_b, w_b)
    pairing, perr = _pairing(spec, f, g_tau_fn, window, cut_a, cut_b)

    boundary = 0.0
    if lc["a"]:
        vf = gbv(spec, basis_a, f)
        vg = gbv(spec, basis_a, g)
        boundary += -np.conj(vf.tilde) * vg.tilde_prime
    if lc["b"]:
        vf = gbv(spec, basis_b, f)
        vg = gbv(spec, basis_b, g)
        boundary += np.conj(vf.tilde) * vg.tilde_prime

    return pairing - form.value + boundary
