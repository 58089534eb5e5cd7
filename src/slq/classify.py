"""Endpoint classification (Weyl alternative) and nonoscillation tests.

An endpoint is limit circle when every solution of tau u = z u is square
integrable (weight r) near it, limit point otherwise.  The dichotomy is
probed at a nonreal energy by marching two independent solutions toward the
endpoint and watching the tail integrals window by window, each summed in
its own solve (`odecore.l2_solve`).  Nonoscillation is probed at a real
energy on the basis march (`solutions.march_windows`), from the zeros of
one solution window by window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import Inconclusive
from .odecore import end_state, l2_solve
from .problem import end_scale, endpoint_regular
from .quadrature import DIVERGE_THRESHOLD, geometric_points
from .solutions import LOGSCALE_MAX, march_windows, oscillation_refuted

LIMIT_CIRCLE = "limit_circle"
LIMIT_POINT = "limit_point"

CLASSIFY_WINDOWS = 40
CLASSIFY_TOL = 1e-10  # relative size of the window L^2 tails deemed converged


@dataclass
class EndpointClassification:
    endpoint: str
    kind: str
    evidence: list = field(default_factory=list)


def _tail_integral_verdict(spec, endpoint, z, init, anchor, mass):
    """March one solution toward the endpoint, watching its L^2 tail in
    units of `mass`.

    Each window is one `odecore.l2_solve`, which sums its integral of
    r |u|^2 and starts with the step proposed at the end of the window
    before.  A probe stopped once its total reaches DIVERGE_THRESHOLD, or
    at the growth cap of `solutions.march_windows`, diverges.  Both
    convergence tests are relative to the running total, so a constant
    scale of the weight r does not change the verdict: the tail converges
    once the last two window contributions are at most CLASSIFY_TOL times
    the total, or once the last eight decay by a factor 0.9 each, up to
    CLASSIFY_TOL times the total."""
    pts = geometric_points(anchor, spec.interval.end(endpoint),
                           n_windows=CLASSIFY_WINDOWS)
    cap = math.exp(LOGSCALE_MAX)
    x, y, h = pts[0], init, None
    contribs = []
    total = 0.0
    for x1 in pts[1:]:
        bound = (DIVERGE_THRESHOLD - total) * mass
        x, y, h, window = l2_solve(spec, z, x, y, x1, 1e-9, cap, bound, h)
        contribs.append(window / mass)
        total += window / mass
        if not window < bound:
            return "diverges", total, contribs
        if max(abs(y[0]), abs(y[1])) >= cap:
            return "diverges", math.inf, contribs
        if len(contribs) >= 3 and all(
                c <= CLASSIFY_TOL * total for c in contribs[-2:]):
            return "converges", total, contribs
    tail = contribs[-8:]
    decaying = all(t2 <= 0.9 * t1 + CLASSIFY_TOL * total
                   for t1, t2 in zip(tail, tail[1:]))
    if decaying:
        return "converges", total, contribs
    if contribs[-1] >= 0.97 * max(contribs[-8], 1e-300):
        return "diverges", total, contribs
    return "inconclusive", total, contribs


def classify_endpoint(spec, endpoint):
    """Weyl alternative at one endpoint.

    limit_circle iff both probe solutions have convergent tail integrals of
    r |u|^2; limit_point as soon as one diverges.  In the end's `end_scale`
    (c, l, p(c), r(c)) they start at c from (1, 0) and (0, p(c)/l) at
    z = lambda0 + i p(c)/(r(c) l^2), their tails in units of r(c) l.
    Inconclusive marching is reported by exception, never silently resolved.
    """
    if endpoint_regular(spec, endpoint):
        return EndpointClassification(
            endpoint, LIMIT_CIRCLE,
            [{"init": None, "verdict": "regular endpoint", "total": None}],
        )
    anchor, ell, pc, rc = end_scale(spec, endpoint)
    z = spec.lambda0 + 1j * pc / (rc * ell * ell)
    evidence = []
    verdicts = []
    for init in ((1.0, 0.0), (0.0, pc / ell)):
        verdict, total, contribs = _tail_integral_verdict(
            spec, endpoint, z, init, anchor, rc * ell)
        evidence.append({
            "init": init, "z": z, "verdict": verdict, "total": total,
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


def classify_both(spec):
    return {e: classify_endpoint(spec, e) for e in ("a", "b")}


def count_zeros(spec, lam, window, init=(0.0, 1.0)):
    """Sign changes of a real solution on [window[0], window[1]].

    The solution has data `init` at the left edge of the window.  Its
    zeros in (window[0], window[1]] are counted by odecore.rk_solve over
    the accepted steps of one DOP853 solve (`end_state`).
    """
    return end_state(spec, lam, window[0], init, window[1], 1e-11)[1]


def certify_endpoint(spec, lam, endpoint):
    """Nonoscillation verdict for the real energy lam at one endpoint.

    A real solution is marched from the interior point toward the endpoint
    through the default `geometric_points` windows, the sequence
    `construct_basis` marches (`solutions.march_windows`), which counts its
    sign changes in each window.  certified: no sign change over the last
    20 windows (over all of them when fewer than 20 were marched).
    refuted: sign changes in each of 4 windows in a row, the rule
    (`solutions.oscillation_refuted`) `construct_basis` applies to its own
    march.  Regular endpoints are always certified.
    """
    if endpoint_regular(spec, endpoint):
        return "certified"
    pts = geometric_points(spec.interval.interior_point(),
                           spec.interval.end(endpoint))
    window_changes = []
    for _, _, zeros, _ in march_windows(spec, lam, (1.0, 0.0), pts, 1e-9):
        window_changes.append(zeros)
        if oscillation_refuted(window_changes):
            return "refuted"
    if len(window_changes) >= 5 and all(
            c == 0 for c in window_changes[-min(20, len(window_changes)):]):
        return "certified"
    return "inconclusive"


def certify_nonoscillatory(spec, lam):
    """certify_endpoint at both endpoints, keyed by endpoint."""
    return {e: certify_endpoint(spec, lam, e) for e in ("a", "b")}
