"""Adaptive quadrature toward singular endpoints and limit extrapolation.

Improper integrals are evaluated on geometric window sequences approaching
the endpoint; the remaining tail is estimated by sequence acceleration.  Two
error models cover the behaviours that occur in practice: geometric decay of
window contributions (power-type endpoints) and harmonic-square decay
(logarithmic nonprincipal growth), for which the tail of a sequence
S_k = S - C/(A + k) is summed in closed form from the last few terms.

Toward a finite nonzero endpoint the windows shrink until a node x fixes
the distance to the endpoint only to ulp(endpoint)/|endpoint - x| relative.
Refining a window past that resolution chases the rounding of its own
nodes, so each window's relative tolerance is floored at
NODE_RESOLUTION_FACTOR times it (see `improper_integral`).

Every panel goes through `quad`, built from QUADPACK (Piessens, de
Doncker-Kapenga, Ueberhuber & Kahaner, QUADPACK, Springer 1983): the
21-point Gauss-Kronrod rule dqk21, dqagse's first-pass exit, then dqage's
bisection of the subinterval of largest error until the summed error
meets the tolerance.  There is no epsilon algorithm: it extrapolates
toward a singularity inside a panel, and no panel holds one, since every
singular end gets its own window sweep and every middle integral is split
at its breaks.  Where scipy.integrate.quad (dqagse) does not extrapolate,
on a smooth integrand or in one pass, value, error estimate and evaluation
count are its own, bit for bit; the tests pin them against it.

A window whose panel misses its tolerance (a pole inside it, say) leaves
its sweep undecided, neither converged nor diverged: its value is not
read as divergence (see `improper_integral`).

An integrand may be real or complex: dqk21 and the bisection run on
Python complex numbers as on floats, every tolerance and error estimate
reading a modulus, so a complex integrand takes one pass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .expressions import _compiled
from .odecore import EPS

DIVERGE_THRESHOLD = 1e12
MAX_WINDOWS = 48
WINDOW_RATIO = 0.5
NODE_RESOLUTION_FACTOR = 10.0
TRUNCATION_TOL = 1e-14  # relative size of two last windows that ends a sweep
WINDOW_EPSABS = 1e-14  # absolute tolerance of each window's panel

# dqk21's abscissae XGK besides the midpoint (the odd ones are the 10-point
# Gauss nodes), its weights WGK (the midpoint's last) and the Gauss weights
# WG, as QUADPACK lists them.
XGK = (0.995657163025808080735527280689003,
       0.973906528517171720077964012084452,
       0.930157491355708226001207180059508,
       0.865063366688984510732096688423493,
       0.780817726586416897063717578345042,
       0.679409568299024406234327365114874,
       0.562757134668604683339000099272694,
       0.433395394129247190799265943165784,
       0.294392862701460198131126603103866,
       0.148874338981631210884826001129720)
WGK = (0.011694638867371874278064396062192,
       0.032558162307964727478818972459390,
       0.054755896574351996031381300244580,
       0.075039674810919952767043140916190,
       0.093125454583697605535065465083366,
       0.109387158802297641899210590325805,
       0.123491976262065851077958109831074,
       0.134709217311473325928054001771707,
       0.142775938577060080797094273138717,
       0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
WG = (0.066671344308688137593568809893332,
      0.149451349150580593145776339657697,
      0.219086362515982043995534934228163,
      0.269266719309996355091226921569469,
      0.295524224714752870173892994651338)

UFLOW = sys.float_info.min


def _number(v):
    """A node value that is not a float, as a float, or as a Python complex
    where it is complex: a complex (numpy's complex128 among its
    subclasses) or anything with a complex dtype (numpy's other complex
    scalars and 0-d complex arrays), which float() would cut to its real
    part."""
    if isinstance(v, complex) or getattr(
            getattr(v, "dtype", None), "kind", None) == "c":
        return complex(v)
    return float(v)


def _node(name, x):
    """Lines that set `name` to f(x), a float or complex (`_number`)."""
    return [f"{name} = f({x})",
            f"if {name}.__class__ is not float:",
            f"    {name} = _number({name})"]


def _qk21_source():
    """Source of dqk21 unrolled: qk21(f, a, b) -> (result, abserr, resabs,
    resasc), the node pairs in QUADPACK's order (Gauss nodes first) and
    every sum in its order.  A value f returns that is not a float passes
    through `_number`; a complex one makes the sums complex, and every
    error term reads its modulus."""
    lines = ["centr = 0.5 * a + 0.5 * b",
             "hlgth = 0.5 * (b - a)",
             *_node("fc", "centr"),
             f"resk = {WGK[10]!r} * fc",
             "resabs = abs(resk)",
             "resg = 0.0"]
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        lines += [f"absc = hlgth * {XGK[j]!r}",
                  *_node(f"l{j}", "centr - absc"),
                  *_node(f"r{j}", "centr + absc"),
                  f"fsum = l{j} + r{j}"]
        if j % 2:
            lines.append(f"resg = resg + {WG[j // 2]!r} * fsum")
        lines += [f"resk = resk + {WGK[j]!r} * fsum",
                  f"resabs = resabs + {WGK[j]!r} * (abs(l{j}) + abs(r{j}))"]
    lines += ["reskh = resk * 0.5",
              f"resasc = {WGK[10]!r} * abs(fc - reskh)"]
    lines += [f"resasc = resasc + {WGK[j]!r} * "
              f"(abs(l{j} - reskh) + abs(r{j} - reskh))" for j in range(10)]
    lines += ["dhlgth = abs(hlgth)",
              "abserr = abs((resk - resg) * hlgth)",
              "resabs = resabs * dhlgth",
              "resasc = resasc * dhlgth",
              # min(1, t**1.5) without the OverflowError of a huge t.
              "if resasc != 0.0 and abserr != 0.0:",
              "    t = 200.0 * abserr / resasc",
              "    abserr = resasc * (t ** 1.5 if t < 1.0 else 1.0)",
              f"if resabs > {UFLOW / (50.0 * EPS)!r}:",
              f"    abserr = max({EPS * 50.0!r} * resabs, abserr)",
              "return resk * hlgth, abserr, resabs, resasc"]
    return "\n".join(["def qk21(f, a, b):", *["    " + ln for ln in lines]])


_qk21 = _compiled(_qk21_source(), "qk21", "<qk21>", {"_number": _number})


def _qage(f, a, b, epsabs, epsrel, limit):
    """dqagse's first pass, then dqage's bisection, on [a, b], a < b:
    (result, abserr, last), last the number of subintervals used.

    Convergence is read from QUADPACK's running error sum, confirmed by a
    fresh sum of the subintervals' errors: the running sum subtracts each
    bisected error, and next to a pole that error can be 1e16 times the
    rest and cancel them all to 0.0."""
    # dqagse's names for dqk21's resabs and resasc: defabs, resabs (and
    # defab1, defab2 for the resasc of the halves).
    result, abserr, defabs, resabs = _qk21(f, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    if (abserr <= 100.0 * EPS * defabs and abserr > errbnd) \
            or limit == 1 or (abserr <= errbnd and abserr != resabs) \
            or abserr == 0.0:
        return result, abserr, 1
    # The first pass failed (the rare case): bisect.
    ivals = [(a, b, result, abserr)]  # (a, b, value, error) per subinterval
    maxerr, area, errsum = 0, result, abserr
    iroff1 = iroff3 = 0
    for last in range(2, limit + 1):
        # Bisect the subinterval with the largest error estimate.
        a1, b2, rmax, errmax = ivals[maxerr]
        b1 = 0.5 * a1 + 0.5 * b2
        a2 = b1
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rmax
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rmax - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        errbnd = max(epsabs, epsrel * abs(area))
        # The half with the larger error keeps slot maxerr, the other
        # takes the new slot.
        halves = [(a1, b1, area1, error1), (a2, b2, area2, error2)]
        if error2 > error1:
            halves.reverse()
        ivals[maxerr] = halves[0]
        ivals.append(halves[1])
        if errsum <= errbnd:
            # Converged, unless the running sum cancelled a huge bisected
            # error (a node next to a pole): the slots' own errors decide.
            fresh = 0.0
            for _, _, _, error in ivals:
                fresh += error
            if fresh <= errbnd:
                break
            errsum = fresh
        # Roundoff, the subdivision limit, or a bad point of the integrand.
        if iroff1 >= 10 or iroff3 >= 20 or last == limit \
                or max(abs(a1), abs(b2)) <= (
                    1.0 + 100.0 * EPS) * (abs(a2) + 1000.0 * UFLOW):
            break
        maxerr = max(range(last), key=lambda k: ivals[k][3])
    # The subintervals' values summed in slot order from 0.0.
    total = 0.0
    for _, _, value, _ in ivals:
        total += value
    return total, errsum, last


def quad(f, a, b, epsabs, epsrel, limit, full_output=0):
    """(value, error) of the integral of f over the finite interval from a
    to b, by dqk21 and dqage's bisection with at most `limit` subintervals
    (no extrapolation); with `full_output`, (value, error, {"neval":
    evaluations of f}).  The value is complex where a node of f is.

    As scipy.integrate.quad does, it integrates over [min(a, b), max(a, b)]
    and negates the value when b < a, and returns zeros when a == b.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"quad integrates over finite limits, not ({a}, {b})")
    if a == b:
        val, err, neval = 0.0, 0.0, 0
    else:
        val, err, last = _qage(f, min(a, b), max(a, b), epsabs, epsrel,
                                limit)
        neval = 42 * last - 21
        if b < a:
            val = -val
    return (val, err, {"neval": neval}) if full_output else (val, err)


def panel(f, a, b, epsabs=1e-13, epsrel=1e-12):
    """Integral of f over the finite panel [a, b] (orientation-signed).

    The returned error estimate is what callers act on; a panel that
    reaches the subdivision limit, QUADPACK's roundoff exits or a bad
    point warns nothing, and `improper_integral` reads a window whose
    error is above its tolerance as undecided.  f may be complex: the
    value is then complex, from one pass whose error bounds its modulus.
    """
    return quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=200)


def _aitken(seq):
    """One pass of the Aitken delta-squared transform.

    Written as s2 - (s2 - s1)^2 / (s2 - 2 s1 + s0): the textbook quotient
    (s2 s0 - s1^2) / (s2 - 2 s1 + s0) cancels near a nonzero limit.
    """
    s = [float(v) for v in seq]
    out = []
    for s0, s1, s2 in zip(s, s[1:], s[2:]):
        h, d = s2 - s1, s2 - 2.0 * s1 + s0
        out.append(s2 - h * h / d if abs(d) > 1e-300 else s2)
    return out


def _aitken_limit(seq):
    cur = list(seq)
    best = cur[-1]
    while len(cur) >= 3:
        nxt = _aitken(cur)
        if not nxt or not all(math.isfinite(v) for v in nxt):
            break
        best = nxt[-1]
        cur = nxt
    return best


def _harmonic_fit(sums, us, i0, i1, i2):
    """Fit S = L - C/(A + u) through three samples; None if inapplicable.

    u is log(1/distance-to-endpoint), so this is the exact tail law for
    integrands behaving like 1/(delta * log^2 delta) near the endpoint.
    Returns (limit, model) where model(j) predicts sums[j].
    """
    t0, t1, t2 = sums[i0], sums[i1], sums[i2]
    u0, u1, u2 = us[i0], us[i1], us[i2]
    d0, d1 = t1 - t0, t2 - t1
    if d0 == 0.0 or d1 == 0.0 or (d0 > 0) != (d1 > 0):
        return None
    rho = (d1 / d0) * ((u1 - u0) / (u2 - u1))
    if not (0.0 < rho < 1.0):
        return None
    a = (rho * u2 - u0) / (1.0 - rho)
    if a + u0 <= 0.0:
        return None
    c = d0 * (a + u0) * (a + u1) / (u1 - u0)
    limit = t2 + c / (a + u2)
    return limit, (lambda j: limit - c / (a + us[j]))


def _power_fit(sums, us, i0, i1, i2):
    """Fit S = L - C * q**j through three equally spaced samples.

    This is the tail law for power-type endpoint behaviour (window
    contributions decaying geometrically).  Returns (limit, model).
    """
    t0, t1, t2 = sums[i0], sums[i1], sums[i2]
    d0, d1 = t1 - t0, t2 - t1
    if d0 == 0.0 or d1 == 0.0 or (d0 > 0) != (d1 > 0):
        return None
    r = d1 / d0
    if not (0.0 < r < 1.0):
        return None
    m = i1 - i0
    limit = t2 + d1 * r / (1.0 - r)
    q = r ** (1.0 / m)
    c = (t2 - t1) / (q**i1 - q**i2)
    return limit, (lambda j: limit - c * q**j)


def accelerated_limit(sums, us=None):
    """Extrapolate the limit of a sequence of window partial sums.

    Returns (limit, error_estimate, certified).  Two tail models are fitted
    on well-spread samples from the last windows: harmonic in the
    log-distance coordinate (logarithmic endpoint behaviour) and geometric
    in the window index (power behaviour).  A fit counts only if it
    reproduces all intermediate windows in its span; the residual, together
    with the disagreement against a second fit on shifted samples, gives the
    error estimate.  With no validated model the last sum is returned
    uncertified.
    """
    sums = [float(v) for v in sums]
    n = len(sums)
    if n == 1:
        return sums[0], abs(sums[0]) * 1e-2 + 1e-15, False
    if us is None:
        us = list(range(n))
    else:
        us = [float(u) for u in us]
    if n < 7:
        val = _aitken_limit(sums)
        err = abs(val - sums[-1]) + abs(sums[-1] - sums[-2])
        return val, err, False
    m = min(8, (n - 1) // 2)
    m2 = max(2, m - 2)
    span = abs(sums[-1] - sums[-1 - 2 * m])
    candidates = []
    for fitter in (_harmonic_fit, _power_fit):
        fit = fitter(sums, us, n - 1 - 2 * m, n - 1 - m, n - 1)
        if fit is None or not math.isfinite(fit[0]):
            continue
        limit, model = fit
        resid = max(abs(sums[j] - model(j)) for j in range(n - 1 - 2 * m, n))
        if resid > 1e-4 * span + 1e-12 * (1.0 + abs(limit)):
            continue
        alt = fitter(sums, us, n - 2 - 2 * m2, n - 2 - m2, n - 2)
        if alt is None or not math.isfinite(alt[0]):
            continue
        err = abs(limit - alt[0]) + resid
        candidates.append((err, limit))
    if not candidates:
        val = _aitken_limit(sums)
        err = abs(val - sums[-1]) + abs(sums[-1] - sums[-2])
        return val, err, False
    err, value = min(candidates, key=lambda t: t[0])
    # Never report an error smaller than plausible floating-point noise.
    return value, max(err, 1e-16 * (1.0 + abs(value))), True


def geometric_points(start, endpoint, cutoff=None):
    """Window boundary points from `start` toward `endpoint`, at most
    MAX_WINDOWS windows.

    For a finite endpoint the distances shrink by WINDOW_RATIO each window;
    for an infinite endpoint the distances from `start` double each window.
    `cutoff` bounds the closest approach (finite endpoints) or the farthest
    excursion (infinite endpoints).
    """
    pts = [float(start)]
    if math.isfinite(endpoint):
        d = endpoint - start
        # Stop well above the spacing of representable numbers near the
        # endpoint: narrower panels sample too few distinct floats and the
        # quadrature noise would pollute the tail extrapolation.
        min_delta = 1e4 * math.ulp(abs(endpoint))
        for k in range(1, MAX_WINDOWS + 1):
            x = endpoint - d * WINDOW_RATIO**k
            if x == endpoint or x == pts[-1]:
                break
            if abs(endpoint - x) < min_delta:
                break
            if cutoff is not None and abs(endpoint - x) < abs(endpoint - cutoff):
                break
            pts.append(x)
    else:
        sign = 1.0 if endpoint > 0 else -1.0
        step = max(abs(start), 1.0)
        x = float(start)
        for _ in range(MAX_WINDOWS):
            x = x + sign * step
            step *= 2.0
            if cutoff is not None and abs(x) > abs(cutoff):
                break
            pts.append(x)
    return pts


@dataclass
class ImproperResult:
    value: float        # complex where f is
    error: float
    converged: bool
    diverged: bool
    contributions: list = field(default_factory=list)
    partial_sums: list = field(default_factory=list)
    reach: float = None  # far edge of the last window summed


def improper_integral(f, start, endpoint, *, cutoff=None):
    """Integrate f from `start` toward a (possibly singular) `endpoint`.

    The result is signed in the usual orientation (negative if endpoint lies
    left of start).  Convergence is decided from the window contributions;
    the unresolved tail is added by `accelerated_limit`.

    The windows are `geometric_points(start, endpoint, cutoff=cutoff)`, each
    a panel at absolute tolerance WINDOW_EPSABS and relative tolerance
    max(1e-12, K ulp(endpoint) / d), with K = NODE_RESOLUTION_FACTOR and d
    the distance from the endpoint to the window's nearer edge: no node
    there resolves its distance to the endpoint better than
    ulp(endpoint) / d, so a tighter tolerance only subdivides on rounding
    noise.  The floor is zero at an infinite
    endpoint and negligible at endpoint 0.  A window that met 1e-12 on its
    first Gauss-Kronrod pass is unaffected.

    A window whose error is above its tolerance, max(WINDOW_EPSABS,
    epsrel·|value|), leaves the sweep undecided (converged and diverged
    both False): an unresolved value, however large, is no evidence of
    divergence.  The sweep still runs to its end, so the value and error
    cover every window, the unresolved one included.

    A complex f takes one sweep, judged on moduli.  At extrapolation each
    part, real and imaginary, ends on its own last two contributions or
    goes through `accelerated_limit` alone; the sum is certified only if
    both parts are.
    """
    pts = geometric_points(start, endpoint, cutoff=cutoff)
    contribs = []
    sums = []
    total = 0.0
    quad_err = 0.0
    diverged = False
    truncated_early = False
    unresolved = False
    reach = pts[0]
    resolution = (NODE_RESOLUTION_FACTOR * math.ulp(endpoint)
                  if math.isfinite(endpoint) else 0.0)
    for lo, hi in zip(pts[:-1], pts[1:]):
        epsrel = max(1e-12, resolution / abs(endpoint - hi))
        val, err = panel(f, lo, hi, epsabs=WINDOW_EPSABS, epsrel=epsrel)
        reach = hi
        total += val
        quad_err += err
        contribs.append(val)
        sums.append(total)
        unresolved = unresolved or err > max(WINDOW_EPSABS,
                                             epsrel * abs(val))
        if abs(total) > DIVERGE_THRESHOLD and not unresolved:
            diverged = True
            break
        if len(contribs) >= 3 \
                and abs(val) < TRUNCATION_TOL * (1.0 + abs(total)) \
                and abs(contribs[-2]) < TRUNCATION_TOL * (1.0 + abs(total)):
            truncated_early = True
            break

    def verdict(value, error, converged, diverged):
        # An unresolved window decides nothing, divergence included.
        return ImproperResult(value, error, converged and not unresolved,
                              diverged and not unresolved, contribs, sums,
                              reach)

    if diverged:
        return verdict(total, quad_err, False, True)
    if truncated_early or len(sums) < 4:
        return verdict(total, quad_err + TRUNCATION_TOL * abs(total), True,
                       False)
    # Rapid decay with a small last contribution: the tail is negligible
    # even if the window budget ran out (common when the budget is cut off
    # by trajectory coverage).
    if len(contribs) >= 3:
        c_last, c_prev = abs(contribs[-1]), abs(contribs[-2])
        ratio = c_last / c_prev if c_prev > 0 else 0.0
        if c_last < 1e-12 * (1.0 + abs(total)) and ratio < 0.5:
            tail = c_last * ratio / (1.0 - ratio)
            c = contribs[-1]  # its phase: copysign on reals, bit for bit
            return verdict(total + (tail * (c / c_last) if c_last else c),
                           quad_err + c_last, True, False)
    # Contributions still significant at the last window: check decay and
    # extrapolate the remaining tail.  Constant-size contributions mean a
    # logarithmically divergent integral, so insist on strict decay.
    ref = abs(contribs[max(0, len(contribs) - 9)])
    if abs(contribs[-1]) >= 0.97 * ref:
        return verdict(total, quad_err, False, True)
    if math.isfinite(endpoint):
        us = [-math.log(abs(endpoint - x)) for x in pts[1:len(sums) + 1]]
    else:
        us = None
    if not isinstance(total, complex):
        value, ext_err, certified = accelerated_limit(sums, us)
        return verdict(value, quad_err + ext_err, certified, False)

    def part_limit(part):
        end = part(sums[-1])
        if all(abs(part(c)) < TRUNCATION_TOL * (1.0 + abs(end))
               for c in contribs[-2:]):
            return end, TRUNCATION_TOL * abs(end), True
        return accelerated_limit([part(s) for s in sums], us)

    (re, re_err, re_ok), (im, im_err, im_ok) = (
        part_limit(lambda z: z.real), part_limit(lambda z: z.imag))
    return verdict(complex(re, im), quad_err + re_err + im_err,
                   re_ok and im_ok, False)


def interval_integral(f, a, b, *, singular_a=False, singular_b=False,
                      split=None):
    """Integral over (a, b) with optional singular/infinite endpoints.

    The interval is split at interior points and each singular side handled
    by `improper_integral`; the middle by panel quadrature.
    """
    if not singular_a and not singular_b:
        v, e = panel(f, a, b, epsabs=1e-14, epsrel=1e-12)
        return v, e
    if split is None:
        if math.isfinite(a) and math.isfinite(b):
            split = (0.5 * a + 0.5 * b,)
        elif math.isfinite(a):
            split = (a + 1.0,)
        elif math.isfinite(b):
            split = (b - 1.0,)
        else:
            split = (0.0,)
    lo, hi = split[0], split[-1]
    total, err = 0.0, 0.0
    if singular_a:
        res = improper_integral(f, lo, a)
        total -= res.value
        err += res.error
    else:
        v, e = panel(f, a, lo)
        total += v
        err += e
    if hi > lo:
        v, e = panel(f, lo, hi)
        total += v
        err += e
    if singular_b:
        res = improper_integral(f, hi, b)
        total += res.value
        err += res.error
    else:
        v, e = panel(f, hi, b)
        total += v
        err += e
    return total, err
