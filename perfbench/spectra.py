"""Workload spectra: eigenvalues_shoot on two problems with known spectra.

  * the x^2 oscillator on the whole line (LP-LP, LpLp): eigenvalues 2n+1;
  * bessel(0.3) with Friedrichs conditions (singular LC endpoint at 0,
    regular endpoint at 1): eigenvalues j_{0.3,n}^2.

Each range has the same length and holds exactly one eigenvalue; the seed
places it inside the range, always between two points of the scan grid
(a grid-aligned root would come back as the grid value itself).
"""

from __future__ import annotations

import math
import time

import checks

N_SETUPS = 3
RANGE_LENGTH = 1.45     # 11.6 grid steps: 12 intervals, whatever the rounding
GRID_PER_UNIT = 8
OSCILLATOR_LEVELS = (1, 3)
BESSEL_GAMMA = 0.3
BESSEL_LEVELS = (1, 2, 3)
OSCILLATOR_DOC = {"interval": {"a": "-inf", "b": "inf"},
                  "coefficients": {"p": "1", "q": "x**2", "r": "1"},
                  "lambda0": 0.0}


def placed_range(rng, lam, length=RANGE_LENGTH, grid_per_unit=GRID_PER_UNIT):
    """Range of the given length with lam in its middle half and at least a
    quarter grid step away from every point of the scan grid."""
    n = max(8, int(math.ceil(length * grid_per_unit)))
    step = length / n
    k = int(rng.integers(math.ceil(0.25 * n), math.floor(0.75 * n)))
    frac = float(rng.uniform(0.25, 0.75))
    lmin = lam - (k + frac) * step
    lam_range = (lmin, lmin + length)
    if checks.grid_clearance(*lam_range, grid_per_unit, lam) < 0.2:
        raise ValueError(f"range {lam_range} puts {lam} on the scan grid")
    return lam_range


def inputs(rng):
    cases = []
    for n in OSCILLATOR_LEVELS:
        lam = checks.oscillator_eigenvalue(n)
        cases.append(("oscillator", n, lam, placed_range(rng, lam)))
    for n in BESSEL_LEVELS:
        lam = checks.bessel_eigenvalue(BESSEL_GAMMA, n)
        cases.append(("bessel", n, lam, placed_range(rng, lam)))
    return {"cases": cases}


def setup(params, ctx):
    from slq.classify import classify_endpoint
    from slq.problem import catalog, problem_from_dict, validate
    from slq.solutions import construct_basis

    with ctx["clock"].timing() as timing:
        osc, _ = problem_from_dict(OSCILLATOR_DOC)
        validate(osc)
        osc_kinds = {e: classify_endpoint(osc, e) for e in ("a", "b")}
        bes = catalog(f"bessel({BESSEL_GAMMA})")
        validate(bes)
        bes_kinds = {e: classify_endpoint(bes, e) for e in ("a", "b")}
        bes_bases = (construct_basis(bes, "a"), construct_basis(bes, "b"))
    return {"params": params,
            "oscillator": (osc, osc_kinds, None),
            "bessel": (bes, bes_kinds, bes_bases)}, timing.seconds


def check_setup(state):
    problems = []
    want = {"oscillator": "limit_point", "bessel": "limit_circle"}
    for name, kind in want.items():
        got = {e: c.kind for e, c in state[name][1].items()}
        if got != {"a": kind, "b": kind}:
            problems.append(f"{name} classification {got}")
    return problems


def run_round(state):
    from slq.errors import RangeContainsNoBracket
    from slq.extensions import LpLp, eigenvalues_shoot, friedrichs_spec

    found = []
    t0 = time.perf_counter()
    for problem, _, _, lam_range in state["params"]["cases"]:
        spec, classification, bases = state[problem]
        ext = LpLp() if problem == "oscillator" \
            else friedrichs_spec(classification)
        try:
            eigs = eigenvalues_shoot(spec, ext, lam_range,
                                     grid_per_unit=GRID_PER_UNIT,
                                     classification=classification,
                                     bases=bases)
            found.append([e.lam for e in eigs])
        except RangeContainsNoBracket:
            found.append(None)
    return {"found": found, "times": {"eigenvalues": time.perf_counter() - t0}}


def check(state, out):
    problems = []
    failed = 0
    for (problem, n, lam, _), found in zip(state["params"]["cases"],
                                           out["found"]):
        if found is None:
            failed += 1
            continue
        tol = checks.EIG_TOL_LP if problem == "oscillator" else checks.EIG_TOL
        problems += checks.check_eigenvalues(f"{problem} n={n}", found,
                                             [lam], tol)
    attempted = len(out["found"])
    return attempted, failed, problems, {"eigenvalues": attempted - failed}
