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
their per-end data from it, and every per-end sign from SIGMA.

A limit-circle side's N-integral is a proper integral in s = u/u_hat
(Niessen and Zettl's regularisation).  Since N_w f = W(u_hat, f) /
(p^{1/2} u_hat) and ds = dx / (p u_hat^2) by W(u_hat, u) = 1, it is
int |W(u_hat, f)|^2 ds over the finite s-interval from 0 (the endpoint)
to s(cut), with an integrand that tends to |f~'|^2: one adaptive panel in
s up to the edge of the basis coverage and a closed-form piece beyond it
(`_side_n_integral`).  x(s) comes from the side's `SMap`, built on first
use and kept on the basis.  Every other side integral (a limit-point
side's N-integral, the lambda0 mass, the pairings) is improper_integral's
windowed sweep in x toward the endpoint (`Side.integral`); the L^2 check
stops it at the edge of the checked function's own support instead.

Every proper integral in x (the middle Dirichlet integral, the middle of
a pairing, each from the cut at a singular end or from a regular
endpoint, `_span`) is split at the `breaks` of its functions that lie
strictly inside its span, the points where a function stops being
analytic (a blend window's edges, a bump's support edges), and each piece
is one adaptive panel (`_piecewise`).  That is QUADPACK's own remedy for known interior
break points (dqagp): a single panel across a kink bisects its way onto
it, spends most of its nodes there, and can return a value off by more
than its error estimate.

The N-operator N_w f = W(w, f) / (p^{1/2} w), with the Wronskian
W(w, f) = w f^[1] - w^[1] f, is a formula inside the side integrand, not
an object: each node computes (W(w, f), W(w, g)) once, from w looked up
once at a limit-point side's x and from the root-finding at a
limit-circle side's s.  A limit-circle side integrates conj(W(w, f))
W(w, g) in s, a limit-point side the same product over p w^2 in x.  Every
per-node callback works in plain Python numbers (`.conjugate()`), not numpy
scalars.  An integrand is real or complex by its own nodes, and either
kind takes one `panel` or `improper_integral` pass.

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
from bisect import bisect_left
from dataclasses import dataclass, field, replace

from .bvalues import gbv
from .errors import (
    BasisVanishes,
    DomainConstraintViolated,
    FormIntegralDiverges,
    NoConvergence,
    VariantMismatch,
    WindowInvalid,
)
from .quadrature import geometric_points, improper_integral, panel

REGIME_LC_LC = ("a", "b")
REGIME_LC_LP = ("a",)   # LC at a, LP at b
REGIME_LP_LC = ("b",)   # LP at a, LC at b
REGIME_LP_LP = ()

# Gamma1 g = SIGMA[end] g~'(end): the boundary maps flip its sign at b.
SIGMA = {"a": 1.0, "b": -1.0}

# Relative size of a Gamma0 component along mul Theta that puts a function
# outside the domain of an extension's form.
CONSTRAINT_TOL = 1e-6

# Cap on SMap.node's Newton steps; from a knot bracket it takes 3 to 6.
NEWTON_STEPS = 60


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
    c = 0.5 * a + 0.5 * a0 if math.isfinite(a) else a0 - max(1.0, abs(a0))
    d = 0.5 * b0 + 0.5 * b if math.isfinite(b) else b0 + max(1.0, abs(b0))
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
        res = improper_integral(fn, self.cut, self.endpoint,
                                cutoff=self.cutoff)
        return (-SIGMA[self.end] * res.value, res.error, res.converged,
                res.diverged)


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

    Each piece is real or complex by its own nodes; values and errors are
    summed.  With no break inside it is one panel over (lo, hi), as it
    would be unsplit.
    """
    inner = sorted({x for x in breaks if min(lo, hi) < x < max(lo, hi)})
    if hi < lo:
        inner.reverse()
    knots = [lo, *inner, hi]
    val, err = panel(fn, knots[0], knots[1])
    for x0, x1 in zip(knots[1:], knots[2:]):
        v, e = panel(fn, x0, x1)
        val, err = val + v, err + e
    return val, err


class SMap:
    """x(s) on one limit-circle side, s = u/u_hat.

    s increases with x (s' = W(u_hat, u) / (p u_hat^2) = 1/(p u_hat^2)) and
    tends to 0 at the endpoint, where u is principal.  The map holds s at
    knots from the cut to the edge of the basis coverage toward the
    endpoint (the geometric window points, then the edge itself), in
    ascending x.  `node(s)` brackets s between two knots and runs Newton's
    method with the exact s', bisecting whenever a step leaves the bracket;
    it keeps each answer, (x, u_hat(x), u_hat^[1](x)), so that a node's
    integrand reads u_hat from the root-finder's own last lookup.  Knots
    and trial points alike read u and u_hat through their memoized `pair`.
    One map serves every form on its (basis, cut) (`_s_map`).
    """

    def __init__(self, spec, side):
        basis = side.basis
        self.p = spec.p.scalar
        self.u = basis.u.pair
        self.u_hat = basis.u_hat.pair
        edge = basis.coverage[0] if side.end == "a" else basis.coverage[1]
        xs = geometric_points(side.cut, side.endpoint, cutoff=edge)
        if xs[-1] != edge:
            xs.append(edge)
        if side.end == "a":
            xs.reverse()
        self.xs = xs
        self.ss = []
        self._nodes = {}  # s -> (x, u_hat(x), u_hat^[1](x))
        for x in xs:
            s, _, hu, hu1 = self._s(x)
            self.ss.append(s)
            self._nodes[s] = (x, hu, hu1)
        self.edge = edge
        self.s_edge = self.ss[0] if side.end == "a" else self.ss[-1]
        self.s_cut = self.ss[-1] if side.end == "a" else self.ss[0]

    def _s(self, x):
        """(s, s', u_hat, u_hat^[1]) at x."""
        hu, hu1 = self.u_hat(x)
        if hu == 0.0:
            raise BasisVanishes(f"reference solution vanishes at x={x}")
        return self.u(x)[0] / hu, 1.0 / (self.p(x) * hu * hu), hu, hu1

    def node(self, s):
        """(x(s), u_hat, u_hat^[1]) at s.

        Newton with the exact s', not `odecore.brentq`: Brent reads no
        derivative and needs about twice the evaluations of s, each a
        trajectory lookup (on Legendre's first `lc_lc_forms` round, 3,500
        to 4,000 against Newton's 1,876), and leaves the round slower."""
        try:
            return self._nodes[s]
        except KeyError:
            pass
        ss, xs = self.ss, self.xs
        k = min(max(bisect_left(ss, s), 1), len(ss) - 1)
        lo, hi = xs[k - 1], xs[k]
        x = lo + (s - ss[k - 1]) * (hi - lo) / (ss[k] - ss[k - 1])
        for _ in range(NEWTON_STEPS):
            sx, ds, hu, hu1 = self._s(x)
            if sx < s:
                lo = x
            elif sx > s:
                hi = x
            else:
                break
            step = (s - sx) / ds
            # Converged to the resolution of x, or of s.
            if abs(step) <= 4.0 * math.ulp(x) \
                    or abs(s - sx) <= 4.0 * math.ulp(s):
                break
            x = x + step if lo < x + step < hi else 0.5 * lo + 0.5 * hi
        node = self._nodes[s] = (x, hu, hu1)
        return node


def _s_map(spec, side):
    """The SMap of a limit-circle side, built on first use and kept on its
    basis by cut."""
    maps = side.basis._s_maps
    smap = maps.get(side.cut)
    if smap is None:
        smap = maps[side.cut] = SMap(spec, side)
    return smap


def _side_n_integral(spec, side, f, g):
    """(value, error) of one side's N-integral, int conj(N_w f) N_w g from
    the endpoint to the cut, with N_w f = W(w, f) / (p^{1/2} w) and
    W(w, f) = w f^[1] - w^[1] f.  Each node computes the pair
    (W(w, f), W(w, g)), which both side kinds integrate.

    At a limit-circle side (w = u_hat) it is the proper integral
    int conj(W(u_hat, f)) W(u_hat, g) ds over s = u/u_hat, since
    |N_w f|^2 dx = |W(u_hat, f)|^2 ds: one adaptive `panel` in s from the
    s-map's edge to the cut, where x(s) and u_hat come from the side's
    SMap, plus the piece between s = 0 and the edge, where the integrand
    is near its limit conj(f~') g~' (the memoized `gbv`): s_edge
    conj(f~') g~', with the integrand's change over the piece and the g~'
    errors as its error.  A g~' that does not exist (W(u_hat, f)
    unbounded at the end, `gbv`'s NoConvergence) refuses the form.

    At a limit-point side (w = u) it is `improper_integral`'s windowed
    sweep in x toward the endpoint of conj(W(u, f)) W(u, g) / (p u^2);
    each node looks up w and evaluates p once.
    """
    f_pair = f.pair
    g_pair = g.pair

    def wronskians(x, wu, wu1):
        """(W(w, f), W(w, g)) at x, where (w, w^[1]) = (wu, wu1)."""
        fu, fu1 = f_pair(x)
        wf = wu * fu1 - wu1 * fu
        if g is f:
            return wf, wf
        gu, gu1 = g_pair(x)
        return wf, wu * gu1 - wu1 * gu

    if side.lc:
        smap = _s_map(spec, side)

        def integrand(s):
            wf, wg = wronskians(*smap.node(s))
            return wf.conjugate() * wg

        try:
            vf = gbv(spec, side.basis, f)
            vg = vf if g is f else gbv(spec, side.basis, g)
        except NoConvergence as exc:
            raise FormIntegralDiverges(
                f"N-integral toward endpoint {side.end}: {exc}") from None
        limit = vf.tilde_prime.conjugate() * vg.tilde_prime
        val, err = panel(integrand, *sorted((smap.s_edge, smap.s_cut)))
        tail = SIGMA[side.end] * smap.s_edge * limit
        err += abs(smap.s_edge) * (
            abs(integrand(smap.s_edge) - limit)
            + abs(vf.tilde_prime) * vg.tilde_prime_error
            + abs(vg.tilde_prime) * vf.tilde_prime_error)
        return val + tail, err

    p = spec.p.scalar
    w_pair = side.w.pair

    def integrand(x):
        wu, wu1 = w_pair(x)
        if wu == 0.0:
            raise BasisVanishes(f"reference solution vanishes at x={x}")
        wf, wg = wronskians(x, wu, wu1)
        return wf.conjugate() * wg / (p(x) * wu * wu)

    val, e, ok, div = side.integral(integrand)
    if div or not ok:
        raise FormIntegralDiverges(
            f"N-integral toward endpoint {side.end} does not converge"
        )
    return val, e


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


def _real_if_real(value):
    """value as a real float when its imaginary part is exactly 0."""
    if value.imag == 0.0:
        return float(value.real)
    return value


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
    return FormValue(value=_real_if_real(sum(pieces.values())),
                     pieces=pieces, error=err, window=window)


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
        return [complex(gbv(spec, bases["ab".index(end)], fn).tilde)
                for end in regime]

    f0, g0 = gamma0(f), gamma0(g)
    scale = 1.0 + max(map(abs, f0 + g0), default=0.0)
    for label, vec in (("f", f0), ("g", g0)):
        if math.hypot(*map(abs, rel.mul_component(vec))) \
                > CONSTRAINT_TOL * scale:
            touched = [end for end, row in zip(regime, rel.mul_basis)
                       if max(map(abs, row)) > CONSTRAINT_TOL]
            raise DomainConstraintViolated(
                f"the extension constrains "
                f"{', '.join(f'g~({end})' for end in touched)}: Gamma0 "
                f"{label} = {vec} has a component along mul Theta")
    deco = rel.theta_form(f0, g0)
    return replace(base, value=_real_if_real(base.value + deco),
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
    return _real_if_real(sum(
        (*part(side_a), _piecewise(integrand, lo, hi, f.breaks + g_breaks)[0],
         *part(side_b)), 0j))


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
        boundary -= SIGMA[end] * vf.tilde.conjugate() * vg.tilde_prime

    return pairing - form.value + boundary
