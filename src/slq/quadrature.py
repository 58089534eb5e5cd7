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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.exceptions import ComplexWarning
from scipy.integrate import IntegrationWarning, quad

DIVERGE_THRESHOLD = 1e12
MAX_WINDOWS = 48
WINDOW_RATIO = 0.5
NODE_RESOLUTION_FACTOR = 10.0
TRUNCATION_TOL = 1e-14  # relative size of two last windows that ends a sweep


def panel(f, a, b, epsabs=1e-13, epsrel=1e-12):
    """Integral of f over the finite panel [a, b] (orientation-signed).

    Convergence warnings are silenced: the returned error estimate is what
    callers act on, and near-singular panels routinely trip them.  f must
    be real: quad raises TypeError on a Python complex, and numpy's
    ComplexWarning is raised as an error here rather than letting quad
    drop the imaginary part of a numpy complex.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        warnings.simplefilter("error", ComplexWarning)
        val, err = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=200)
    return val, err


def _aitken(seq):
    """One pass of the Aitken delta-squared transform.

    Written as s2 - (s2 - s1)^2 / (s2 - 2 s1 + s0): the textbook quotient
    (s2 s0 - s1^2) / (s2 - 2 s1 + s0) cancels near a nonzero limit.
    """
    s = np.asarray(seq, dtype=float)
    step = s[2:] - s[1:-1]
    den = s[2:] - 2.0 * s[1:-1] + s[:-2]
    out = []
    for last, h, d in zip(s[2:], step, den):
        out.append(last - h * h / d if abs(d) > 1e-300 else last)
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


def geometric_points(start, endpoint, n_windows=MAX_WINDOWS, cutoff=None):
    """Window boundary points from `start` toward `endpoint`.

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
        for k in range(1, n_windows + 1):
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
        for k in range(n_windows):
            x = x + sign * step
            step *= 2.0
            if cutoff is not None and abs(x) > abs(cutoff):
                break
            pts.append(x)
    return pts


@dataclass
class ImproperResult:
    value: float
    error: float
    converged: bool
    diverged: bool
    contributions: list = field(default_factory=list)
    partial_sums: list = field(default_factory=list)


def improper_integral(f, start, endpoint, *, cutoff=None):
    """Integrate f from `start` toward a (possibly singular) `endpoint`.

    The result is signed in the usual orientation (negative if endpoint lies
    left of start).  Convergence is decided from the window contributions;
    the unresolved tail is added by `accelerated_limit`.

    The windows are `geometric_points(start, endpoint, cutoff=cutoff)`, each
    a panel at absolute tolerance 1e-14 and relative tolerance
    max(1e-12, K ulp(endpoint) / d), with K = NODE_RESOLUTION_FACTOR and d
    the distance from the endpoint to the window's nearer edge: no node
    there resolves its distance to the endpoint better than
    ulp(endpoint) / d, so a tighter tolerance only subdivides on rounding
    noise.  The floor is zero at an infinite
    endpoint and negligible at endpoint 0.  A window that met 1e-12 on its
    first Gauss-Kronrod pass is unaffected.
    """
    pts = geometric_points(start, endpoint, cutoff=cutoff)
    contribs = []
    sums = []
    total = 0.0
    quad_err = 0.0
    diverged = False
    truncated_early = False
    resolution = (NODE_RESOLUTION_FACTOR * math.ulp(endpoint)
                  if math.isfinite(endpoint) else 0.0)
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, err = panel(f, lo, hi, epsabs=1e-14,
                         epsrel=max(1e-12, resolution / abs(endpoint - hi)))
        total += val
        quad_err += err
        contribs.append(val)
        sums.append(total)
        if abs(total) > DIVERGE_THRESHOLD:
            diverged = True
            break
        if len(contribs) >= 3 \
                and abs(val) < TRUNCATION_TOL * (1.0 + abs(total)) \
                and abs(contribs[-2]) < TRUNCATION_TOL * (1.0 + abs(total)):
            truncated_early = True
            break
    if diverged:
        return ImproperResult(total, quad_err, False, True, contribs, sums)
    if truncated_early or len(sums) < 4:
        return ImproperResult(total, quad_err + TRUNCATION_TOL * abs(total),
                              True, False, contribs, sums)
    # Rapid decay with a small last contribution: the tail is negligible
    # even if the window budget ran out (common when the budget is cut off
    # by trajectory coverage).
    if len(contribs) >= 3:
        c_last, c_prev = abs(contribs[-1]), abs(contribs[-2])
        ratio = c_last / c_prev if c_prev > 0 else 0.0
        if c_last < 1e-12 * (1.0 + abs(total)) and ratio < 0.5:
            tail = c_last * ratio / (1.0 - ratio)
            return ImproperResult(total + math.copysign(tail, contribs[-1]),
                                  quad_err + c_last, True, False,
                                  contribs, sums)
    # Contributions still significant at the last window: check decay and
    # extrapolate the remaining tail.  Constant-size contributions mean a
    # logarithmically divergent integral, so insist on strict decay.
    ref = abs(contribs[max(0, len(contribs) - 9)])
    if abs(contribs[-1]) >= 0.97 * ref:
        return ImproperResult(total, quad_err, False, True, contribs, sums)
    if math.isfinite(endpoint):
        us = [-math.log(abs(endpoint - x)) for x in pts[1:len(sums) + 1]]
    else:
        us = None
    value, ext_err, certified = accelerated_limit(sums, us)
    return ImproperResult(value, quad_err + ext_err, certified, False,
                          contribs, sums)


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
            split = (0.5 * (a + b),)
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
