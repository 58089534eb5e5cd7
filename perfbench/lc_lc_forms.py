"""Workload lc_lc_forms: decorated-form Gram matrices for Legendre.

Legendre on (-1, 1): both endpoints singular and limit circle, with a
logarithmic nonprincipal solution.  Set-up validates, classifies both
endpoints and builds both bases.  A round then computes, from those fixed
bases (no ODE solve):

  * the GBVs of every pool member at both ends,
  * the Gram matrix of the Friedrichs extension Separated(0, 0) over the
    members it admits (g~ = 0 at both ends), from its upper triangle,
  * the Gram matrix of a seeded Separated(alpha, beta) over the whole pool.
    Its decoration vanishes unless both arguments have g~ != 0, so between
    Friedrichs-admitted members it equals the Friedrichs Gram (the GBV check
    confirms their g~ = 0); only the row of v1, the one member with
    g~ != 0, is evaluated,
  * one mirrored entry q(f_j, f_i) per Gram, for the Hermitian check,
  * the Green-identity residual of two fixed pool pairs.

The pool is four seeded multiples of the monomials 1, x, x^2, x^3, which
span all polynomials of degree <= 3, the patched pair v1 / v2, and a
seeded bump.
"""

from __future__ import annotations

import math
import time

import numpy as np

import checks

N_SETUPS = 2
POOL_NAMES = ("P0", "P1", "P2", "P3", "v1", "v2", "bump")
N_POLYS = 4
V1 = 4
FRIEDRICHS_MEMBERS = (0, 1, 2, 3, 5, 6)    # all but v1, which has g~ = 1
# Fixed pairs, so that every seed runs the same operations: the mirrored
# Friedrichs entry (indices into its members), the mirrored Separated entry
# (pool indices) and the pool pairs whose Green residual is computed.
FRIEDRICHS_MIRROR = (0, 1)                 # (P0, P1)
SEPARATED_MIRROR = (V1, 3)                 # (v1, P3)
GREEN_PAIRS = ((2, V1), (5, 3))            # (P2, v1), (v2, P3)


def inputs(rng):
    # Seeded multiples of 1, x, x^2, x^3.  Random mixtures of the monomials
    # are left out: for about one random cubic in twenty, gbv takes the
    # ratio route at an endpoint and returns g~ off by up to 1e-4 (or raises
    # NoConvergence), so the Friedrichs form rejects an admissible
    # polynomial on about a third of seeds.  Scales and the bump stay in
    # narrow ranges so that every seed costs about the same.
    scales = rng.uniform(0.8, 1.25, N_POLYS) * rng.choice([-1.0, 1.0],
                                                          N_POLYS)
    return {
        "polys": [[0.0] * k + [float(s)] for k, s in enumerate(scales)],
        "alpha": float(rng.uniform(0.3, math.pi - 0.3)),
        "beta": float(rng.uniform(0.3, math.pi - 0.3)),
        "bump": (float(rng.uniform(-0.1, 0.1)),
                 float(rng.uniform(0.35, 0.45))),
    }


def setup(params, ctx):
    from slq.bvalues import patched_pair
    from slq.classify import classify_endpoint
    from slq.functions import BumpFn, polynomial
    from slq.problem import catalog, validate
    from slq.solutions import construct_basis

    with ctx["clock"].timing() as timing:
        spec = catalog("legendre")
        validate(spec)
        kinds = {e: classify_endpoint(spec, e).kind for e in ("a", "b")}
        bases = (construct_basis(spec, "a"), construct_basis(spec, "b"))
        pp = patched_pair(spec, *bases)
    pool = [polynomial(spec, c) for c in params["polys"]]
    pool += [pp.v1, pp.v2, BumpFn(spec, *params["bump"])]
    return {"spec": spec, "kinds": kinds, "bases": bases, "pool": pool,
            "params": params}, timing.seconds


def check_setup(state):
    want = {"a": "limit_circle", "b": "limit_circle"}
    return [] if state["kinds"] == want else [f"kinds {state['kinds']}"]


def run_round(state):
    from slq.bvalues import gbv
    from slq.extensions import Separated
    from slq.forms import green_identity_residual, q_decorated

    spec, bases, pool = state["spec"], state["bases"], state["pool"]
    params = state["params"]
    friedrichs = Separated(0.0, 0.0)
    separated = Separated(params["alpha"], params["beta"])

    def q(ext, f, g):
        return q_decorated(spec, bases, None, ext, f, g).value

    t0 = time.perf_counter()
    gbvs = [[(v.tilde, v.tilde_prime) for v in
             (gbv(spec, bases[0], f), gbv(spec, bases[1], f))]
            for f in pool]
    t1 = time.perf_counter()
    members = [pool[i] for i in FRIEDRICHS_MEMBERS]
    n = len(members)
    gram_f = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram_f[i][j] = q(friedrichs, members[i], members[j])
            gram_f[j][i] = np.conj(gram_f[i][j])
    mirror_f = q(friedrichs, *(members[k] for k in FRIEDRICHS_MIRROR[::-1]))
    v1_row = [q(separated, pool[V1], g) for g in pool]
    mirror_n = q(separated, *(pool[k] for k in SEPARATED_MIRROR[::-1]))
    t2 = time.perf_counter()
    green = [green_identity_residual(spec, bases, None, pool[i], pool[j])
             for i, j in GREEN_PAIRS]
    t3 = time.perf_counter()

    gram_n = np.empty((len(pool), len(pool)), dtype=complex)
    gram_n[np.ix_(FRIEDRICHS_MEMBERS, FRIEDRICHS_MEMBERS)] = gram_f
    gram_n[V1, :] = v1_row
    gram_n[:, V1] = np.conj(v1_row)
    gram_n[V1, V1] = v1_row[V1]
    return {"gbvs": gbvs, "gram_f": gram_f, "mirror_f": mirror_f,
            "gram_n": gram_n.tolist(), "mirror_n": mirror_n, "green": green,
            "times": {"gbv_evals": t1 - t0, "form_evals": t2 - t1,
                      "green_checks": t3 - t2}}


def check(state, out):
    """(attempted, failed, problems, counts by kind)."""
    params = state["params"]
    problems = []
    polys = params["polys"]

    # Friedrichs Gram on the cubics: closed form and Rayleigh-Ritz n(n+1).
    gram_f = np.asarray(out["gram_f"])
    poly_block = gram_f[:N_POLYS, :N_POLYS]
    problems += checks.check_gram_against(
        "Friedrichs Gram", poly_block, checks.legendre_friedrichs_gram(polys))
    problems += checks.check_legendre_ritz(poly_block,
                                           checks.legendre_mass(polys))
    problems += checks.check_hermitian("Friedrichs Gram", out["gram_f"],
                                       {FRIEDRICHS_MIRROR: out["mirror_f"]})
    problems += checks.check_hermitian("Separated Gram", out["gram_n"],
                                       {SEPARATED_MIRROR: out["mirror_n"]})

    # GBVs: p g' vanishes at +-1, so polynomials have g~ = 0; v1 = u_hat and
    # v2 = u near each end give (1, .) and (0, 1) by W(u_hat, u) = 1; the
    # bump vanishes near both ends.
    for name, ends in zip(POOL_NAMES, out["gbvs"]):
        for end, (tilde, tilde_prime) in zip("ab", ends):
            label = f"gbv {name}({end})"
            if name == "v1":
                problems += checks.check_gbv_pair(label, tilde, tilde_prime,
                                                  1.0)
            elif name == "v2":
                problems += checks.check_gbv_pair(label, tilde, tilde_prime,
                                                  0.0, 1.0)
            elif name == "bump":
                problems += checks.check_gbv_pair(label, tilde, tilde_prime,
                                                  0.0, 0.0)
            else:
                problems += checks.check_gbv_pair(label, tilde, tilde_prime,
                                                  0.0)

    for (i, j), res in zip(GREEN_PAIRS, out["green"]):
        problems += checks.check_residual(
            f"Green ({POOL_NAMES[i]}, {POOL_NAMES[j]})", res)

    n = len(gram_f)
    counts = {"gbv_evals": 2 * len(out["gbvs"]),
              "form_evals": n * (n + 1) // 2 + len(POOL_NAMES) + 2,
              "green_checks": len(out["green"])}
    return sum(counts.values()), 0, problems, counts
