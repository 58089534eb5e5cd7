"""Endpoint classification (Weyl alternative) and nonoscillation tests.

An endpoint is limit circle when every solution of tau u = z u is square
integrable (weight r) near it, limit point otherwise.  The dichotomy is
probed at a nonreal energy by marching two independent solutions toward the
endpoint and watching the tail integrals window by window.  Nonoscillation
is probed at a real energy on the same march (`solutions.march_windows`),
from the zeros of one solution window by window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import Inconclusive
from .odecore import end_state_zeros
from .problem import endpoint_regular
from .quadrature import DIVERGE_THRESHOLD, geometric_points
from .solutions import LOGSCALE_MAX, march_windows

LIMIT_CIRCLE = "limit_circle"
LIMIT_POINT = "limit_point"

CLASSIFY_WINDOWS = 40
WINDOW_RATIO = 0.5


@dataclass
class EndpointClassification:
    endpoint: str
    kind: str
    evidence: list = field(default_factory=list)


def _window_points(spec, endpoint, anchor, n_windows):
    """Geometric window points from anchor toward the endpoint."""
    a, b = spec.interval.endpoints()
    return geometric_points(anchor, a if endpoint == "a" else b,
                            n_windows=n_windows, ratio=WINDOW_RATIO)


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
    pts = _window_points(spec, endpoint, anchor, n_windows)
    y = np.asarray(init, dtype=complex if isinstance(z, complex) else float)
    contribs = []
    total = 0.0
    for scaled, first, _, L in march_windows(spec, z, y, pts, 1e-9):
        window_sum = sum(
            _segment_l2(spec, table, Ls)
            for table, Ls in scaled.segments[first:]
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


def count_zeros(spec, lam, window, init=(0.0, 1.0), tol=1e-11):
    """Sign changes of a real solution on [window[0], window[1]].

    The solution has data `init` at the left edge of the window.  Its
    zeros in (window[0], window[1]] are counted by odecore.rk_solve over
    the accepted steps of one DOP853 solve (`end_state_zeros`).
    """
    return end_state_zeros(spec, lam, window[0], init, window[1], tol)[1]


def certify_endpoint(spec, lam, endpoint, n_windows=24):
    """Nonoscillation verdict for the real energy lam at one endpoint.

    A real solution is marched toward the endpoint through geometric
    windows (`solutions.march_windows`), which counts its sign changes in
    each window.  certified: no sign change over the last 20 windows.
    refuted: sign changes in each of 4 windows in a row.  Regular
    endpoints are always certified.
    """
    if endpoint_regular(spec, endpoint):
        return "certified"
    pts = _window_points(spec, endpoint, spec.interval.interior_point(),
                         n_windows)
    window_changes = []
    for _, _, zeros, _ in march_windows(spec, lam, (1.0, 0.0), pts, 1e-9):
        window_changes.append(zeros)
        if len(window_changes) >= 4 and all(
                c > 0 for c in window_changes[-4:]):
            return "refuted"
    if len(window_changes) >= 5 and all(
            c == 0 for c in window_changes[-min(20, len(window_changes)):]):
        return "certified"
    return "inconclusive"


def certify_nonoscillatory(spec, lam, n_windows=24):
    """certify_endpoint at both endpoints, keyed by endpoint."""
    return {e: certify_endpoint(spec, lam, e, n_windows=n_windows)
            for e in ("a", "b")}
