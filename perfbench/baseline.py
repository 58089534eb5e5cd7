"""Repeat the three single-operation timings quoted as the project baseline.

    python3 perfbench/baseline.py --repeats 3

  * construct_basis for Legendre, each endpoint;
  * one q_base (LC-LC) for Legendre on two polynomials, on fixed bases;
  * eigenvalues_shoot for the x^2 oscillator on (0.5, 7.5), default grid
    (expected eigenvalues 1, 3, 5, 7).

Each is run --repeats times in this process; the median, minimum and
maximum wall times are printed, one JSON object per operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def timed(fn, repeats):
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return times, out


def report(name, times, **extra):
    print(json.dumps({"operation": name, "repeats": len(times),
                      "median_s": statistics.median(times),
                      "min_s": min(times), "max_s": max(times), **extra}),
          flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    from slq.extensions import LpLp, eigenvalues_shoot
    from slq.forms import REGIME_LC_LC, q_base
    from slq.functions import polynomial
    from slq.problem import catalog, problem_from_dict, validate
    from slq.solutions import construct_basis

    spec = catalog("legendre")
    validate(spec)
    bases = {}
    for end in ("a", "b"):
        times, bases[end] = timed(lambda: construct_basis(spec, end),
                                  args.repeats)
        report(f"construct_basis legendre {end}", times)

    f = polynomial(spec, [1.0, 0.5])
    g = polynomial(spec, [0.2, -1.0, 0.4])
    times, value = timed(
        lambda: q_base(spec, (bases["a"], bases["b"]), None, REGIME_LC_LC,
                       f, g).value, 5 * args.repeats)
    report("q_base legendre", times, value=value, want=-2.0 / 3.0)

    osc, _ = problem_from_dict({"interval": {"a": "-inf", "b": "inf"},
                                "coefficients": {"p": "1", "q": "x**2",
                                                 "r": "1"}})
    validate(osc)
    times, eigs = timed(lambda: eigenvalues_shoot(osc, LpLp(), (0.5, 7.5)),
                        args.repeats)
    report("eigenvalues_shoot oscillator (0.5, 7.5)", times,
           eigenvalues=[e.lam for e in eigs])
    return 0


if __name__ == "__main__":
    os.environ.update({k: "1" for k in ("OMP_NUM_THREADS",
                                        "OPENBLAS_NUM_THREADS")})
    sys.exit(main())
