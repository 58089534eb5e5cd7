"""Endpoint classification (Weyl alternative) and nonoscillation tests.

An endpoint is limit circle when every solution of tau u = z u is square
integrable (weight r) near it, limit point otherwise.  The dichotomy is
probed at a nonreal energy by marching two independent solutions toward the
endpoint and watching the tail integrals window by window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import Inconclusive, ResolutionExceeded
from .odecore import integrate_tau
from .problem import endpoint_regular
from .quadrature import DIVERGE_THRESHOLD, geometric_points
from .solutions import LOGSCALE_MAX, ScaledSolution, _march_leg

LIMIT_CIRCLE = "limit_circle"
LIMIT_POINT = "limit_point"

CLASSIFY_WINDOWS = 40
WINDOW_RATIO = 0.5


@dataclass
class EndpointClassification:
    endpoint: str
    kind: str
    evidence: list = field(default_factory=list)


def _endpoint_of(spec, endpoint):
    return spec.interval.a if endpoint == "a" else spec.interval.b


def _window_points(spec, anchor, end, n_windows):
    return geometric_points(anchor, end, n_windows=n_windows,
                            ratio=WINDOW_RATIO)


def _segment_l2(spec, table, L):
    """True integral of r |u|^2 over one trajectory segment."""
    lo, hi = sorted((table.t[0], table.t[-1]))
    if lo == hi:
        return 0.0
    r = spec.r.scalar
    val, _ = quad(lambda x: r(x) * abs(table.at(x)[0]) ** 2, lo, hi,
                  epsabs=1e-14, epsrel=1e-10, limit=100)
    log_c = 2.0 * L + (math.log(val) if val > 0 else -math.inf)
    if log_c > 700.0:
        return math.inf
    return val * math.exp(2.0 * L)


def _tail_integral_verdict(spec, endpoint, z, init, anchor, n_windows, tol):
    """March one solution toward the endpoint, watching its L^2 tail."""
    end = _endpoint_of(spec, endpoint)
    pts = _window_points(spec, anchor, end, n_windows)
    scaled = ScaledSolution(z)
    y = np.asarray(init, dtype=complex if isinstance(z, complex) else float)
    x, L = anchor, 0.0
    contribs = []
    total = 0.0
    for x1 in pts[1:]:
        n_before = len(scaled.segments)
        x, y, L = _march_leg(spec, z, scaled, x, y, L, x1, 1e-9, 1e8)
        window_sum = sum(
            _segment_l2(spec, table, Ls)
            for table, Ls in scaled.segments[n_before:]
        )
        contribs.append(window_sum)
        total += window_sum
        if not math.isfinite(total) or total > DIVERGE_THRESHOLD:
            return "diverges", total, contribs
        if L > LOGSCALE_MAX:
            return "diverges", math.inf, contribs
        if len(contribs) >= 3 and all(
                c <= tol * (1.0 + total) for c in contribs[-2:]):
            return "converges", total, contribs
    tail = contribs[-8:]
    decaying = all(t2 <= 0.9 * t1 + tol * (1.0 + total)
                   for t1, t2 in zip(tail, tail[1:]))
    if decaying:
        return "converges", total, contribs
    if contribs[-1] >= 0.97 * max(contribs[-8], 1e-300):
        return "diverges", total, contribs
    return "inconclusive", total, contribs


def classify_endpoint(spec, endpoint, probe_z=1j, tol=1e-10, anchor=None,
                      n_windows=CLASSIFY_WINDOWS):
    """Weyl alternative at one endpoint.

    limit_circle iff both probe solutions have convergent tail integrals of
    r |u|^2; limit_point as soon as one diverges.  Inconclusive marching is
    reported by exception, never silently resolved.
    """
    if endpoint_regular(spec, endpoint):
        return EndpointClassification(
            endpoint, LIMIT_CIRCLE,
            [{"init": None, "verdict": "regular endpoint", "total": None}],
        )
    if anchor is None:
        anchor = spec.interval.interior_point()
    evidence = []
    verdicts = []
    for init in ((1.0, 0.0), (0.0, 1.0)):
        verdict, total, contribs = _tail_integral_verdict(
            spec, endpoint, probe_z, init, anchor, n_windows, tol)
        evidence.append({
            "init": init, "verdict": verdict, "total": total,
            "n_windows": len(contribs), "last_contributions": contribs[-4:],
        })
        verdicts.append(verdict)
        if verdict == "diverges":
            return EndpointClassification(endpoint, LIMIT_POINT, evidence)
    if all(v == "converges" for v in verdicts):
        return EndpointClassification(endpoint, LIMIT_CIRCLE, evidence)
    raise Inconclusive(
        f"classification at endpoint {endpoint} not certified: {verdicts}"
    )


def classify_both(spec, probe_z=1j, tol=1e-10):
    return {e: classify_endpoint(spec, e, probe_z=probe_z, tol=tol)
            for e in ("a", "b")}


def count_zeros(spec, lam, window, init=(0.0, 1.0), solution=None,
                tol=1e-11):
    """Sign changes of a real solution on [window[0], window[1]].

    The solution defaults to the trajectory with data `init` at the left
    edge of the window.  Zeros are refined by bisection on the dense output;
    two candidates closer than the resolvable spacing raise.
    """
    x1, x2 = window
    if solution is None:
        solution = integrate_tau(spec, lam, x1, init, x2, tol=tol)
    xs = []
    for t in np.asarray(solution.breakpoints, dtype=float):
        if x1 <= t <= x2:
            xs.append(t)
    if not xs or xs[0] > x1:
        xs.insert(0, x1)
    if xs[-1] < x2:
        xs.append(x2)
    fine = []
    for lo, hi in zip(xs[:-1], xs[1:]):
        fine.extend(np.linspace(lo, hi, 8, endpoint=False))
    fine.append(x2)
    vals = [float(np.real(solution(t))) for t in fine]
    zeros = []
    for i in range(len(fine) - 1):
        if vals[i] * vals[i + 1] < 0.0:
            z = brentq(lambda t: float(np.real(solution(t))),
                       fine[i], fine[i + 1], xtol=1e-13, rtol=1e-12)
            zeros.append(z)
    span = x2 - x1
    for z1, z2 in zip(zeros, zeros[1:]):
        if z2 - z1 < 1e-9 * span:
            raise ResolutionExceeded(
                f"zeros at {z1} and {z2} below resolvable spacing"
            )
    return len(zeros)


def _segment_sign_changes(scaled, segments):
    changes = 0
    for table, _ in segments:
        lo, hi = sorted((table.t[0], table.t[-1]))
        ts = np.linspace(lo, hi, 60).tolist()
        vals = np.real([table.at(t)[0] for t in ts])
        signs = np.sign(vals)
        nz = signs != 0
        s = signs[nz]
        changes += int(np.sum(s[:-1] != s[1:]))
    return changes


def certify_endpoint(spec, lam, endpoint, n_windows=24):
    """Nonoscillation verdict for the energy lam at one endpoint.

    certified: a real solution shows no sign change over the last 20
    geometric windows approaching the endpoint.  refuted: zero counts keep
    appearing window after window.  Regular endpoints are always certified.
    """
    if endpoint_regular(spec, endpoint):
        return "certified"
    end = _endpoint_of(spec, endpoint)
    anchor = spec.interval.interior_point()
    pts = _window_points(spec, anchor, end, n_windows)
    scaled = ScaledSolution(lam)
    x, y, L = anchor, (1.0, 0.0), 0.0
    window_changes = []
    for x1 in pts[1:]:
        n_before = len(scaled.segments)
        x, y, L = _march_leg(spec, lam, scaled, x, y, L, x1, 1e-9, 1e8)
        window_changes.append(
            _segment_sign_changes(scaled, scaled.segments[n_before:])
        )
        if len(window_changes) >= 4 and all(
                c > 0 for c in window_changes[-4:]):
            return "refuted"
        if L > LOGSCALE_MAX:
            break
    if len(window_changes) >= 5 and all(
            c == 0 for c in window_changes[-min(20, len(window_changes)):]):
        return "certified"
    return "inconclusive"


def certify_nonoscillatory(spec, lam, n_windows=24):
    """certify_endpoint at both endpoints, keyed by endpoint."""
    return {e: certify_endpoint(spec, lam, e, n_windows=n_windows)
            for e in ("a", "b")}
