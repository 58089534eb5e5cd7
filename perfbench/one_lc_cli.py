"""Workload one_lc_cli: one CLI session on the free half-line.

-g'' on (0, inf): a regular limit-circle endpoint at 0 and a limit-point
endpoint at infinity.  The spec file embeds OneLC(alpha, "a") with a seeded
alpha.  A round is one session that drives `slq.cli.main` in-process
through the seven commands, one after another; every command reloads the
file, re-classifies and rebuilds its bases.

Set-up is the first `import slq.cli` in a fresh interpreter, a cost every
CLI call pays; it is measured in child processes.

Known failure: `slq triplet` checks cross-path equality on fixed samples
whose first pair, the polynomials 1 + 0.25x and 0.5 - 0.5x, is not square
integrable on (0, inf), so that sample always reports FormIntegralDiverges.
It is counted as a failed operation in every session.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import checks
import spectra

N_SETUPS = 5
EIG_RANGE_LENGTH = 0.4
EIG_GRID_PER_UNIT = 8
# Run in the child; the clock is run.py's (see yardstick.py).  Its probe is
# the plain one, since the scipy one would load scipy before slq.cli does.
IMPORT_PROBE = ("import yardstick\n"
                "with yardstick.{}(probe='plain').timing() as timing:\n"
                "    import slq.cli\n"
                "print(repr(timing.seconds))")


def _bump_params(rng):
    # |center| <= 0.3 width keeps the bump clearly non-zero at 0; narrow
    # ranges keep every seed at about the same cost.
    width = float(rng.uniform(0.7, 0.8))
    return (float(rng.uniform(-0.3, 0.3)) * width, width)


def inputs(rng):
    alpha = float(rng.uniform(0.75, 0.85))
    lam = checks.halfline_eigenvalue(alpha)
    # The range stays below 0, where the essential spectrum starts.
    eig_range = spectra.placed_range(rng, lam, EIG_RANGE_LENGTH,
                                     EIG_GRID_PER_UNIT)
    if eig_range[1] >= -0.1:
        raise ValueError(f"eig range {eig_range} reaches the continuum")
    return {
        "alpha": alpha,
        "f": _bump_params(rng),
        "g": _bump_params(rng),
        "eig_lambda": lam,
        "eig_range": eig_range,
    }


def _token(params):
    return "bump:{!r},{!r}".format(*params)


def commands(path, params):
    f, g = _token(params["f"]), _token(params["g"])
    lmin, lmax = params["eig_range"]
    return [
        ["classify", path],
        ["basis", path],
        ["gbv", path, "--g", f],
        ["form", path, "--f", f, "--g", g],
        ["green-check", path, "--f", f, "--g", g],
        ["triplet", path],
        ["eig", path, "--lmin", repr(lmin), "--lmax", repr(lmax),
         "--grid", str(EIG_GRID_PER_UNIT)],
    ]


def setup(params, ctx):
    """Time `import slq.cli` in a fresh interpreter; write the spec file."""
    code = IMPORT_PROBE.format(ctx["clock_name"])
    out = subprocess.run([sys.executable, "-c", code], env=ctx["env"],
                         cwd=ctx["workdir"], capture_output=True, text=True,
                         timeout=120, check=True)
    seconds = float(out.stdout.strip().splitlines()[-1])
    path = os.path.join(ctx["workdir"], f"one_lc_spec-{os.getpid()}.json")
    doc = {"coefficients": {"catalog": "free_halfline"},
           "extension": {"kind": "one_lc", "alpha": params["alpha"],
                         "endpoint": "a"}}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return {"params": params, "argv": commands(path, params)}, seconds


def check_setup(state):
    return []


def run_round(state):
    from slq.cli import main

    results = []
    t0 = time.perf_counter()
    for argv in state["argv"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        results.append((argv[0], code, buf.getvalue()))
    elapsed = time.perf_counter() - t0
    return {"results": results, "times": {"cli_commands": elapsed}}


def report_bytes(out):
    return sum(len(text.encode()) for _, _, text in out["results"])


def check(state, out):
    params = state["params"]
    problems = []
    failed = 0
    reports = {}
    for command, code, text in out["results"]:
        if code != 0:
            failed += 1
            problems.append(f"slq {command} exited {code}")
            continue
        reports[command] = json.loads(text)

    if "classify" in reports:
        kinds = {e: s["kind"] for e, s in
                 reports["classify"]["classification"].items()}
        if kinds != {"a": "limit_circle", "b": "limit_point"}:
            problems.append(f"classify: kinds {kinds}")
    if "basis" in reports and not reports["basis"]["basis"]["a"]["regular"]:
        problems.append("basis: endpoint 0 not reported regular")
    if "gbv" in reports:
        v = reports["gbv"]["gbv"]["a"]
        f = params["f"]
        problems += checks.check_close("gbv g~(0)", v["tilde"],
                                       checks.bump(0.0, *f), checks.GBV_TOL)
        problems += checks.check_close("gbv g~'(0)", v["tilde_prime"],
                                       checks.bump_d1(0.0, *f),
                                       checks.GBV_TOL)
    if "form" in reports:
        want = checks.halfline_form(params["f"], params["g"], params["alpha"])
        value = reports["form"]["form"]["value"]
        problems += checks.check_close("form", value, want, checks.FORM_TOL)
    if "green-check" in reports \
            and reports["green-check"]["green_check"]["passed"] is not True:
        problems.append("green-check did not pass")

    cross = reports.get("triplet", {}).get("triplet", {}).get("cross_path", [])
    for k, sample in enumerate(cross):
        if "error" in sample:
            failed += 1
        elif not sample["deviation"] <= checks.FORM_TOL:
            problems.append(f"triplet sample {k}: deviation "
                            f"{sample['deviation']}")
    if "triplet" in reports and len(cross) != 3:
        problems.append(f"triplet: {len(cross)} cross-path samples, want 3")

    if "eig" in reports:
        found = [v["lambda"] for v in reports["eig"]["eigenvalues"]["values"]]
        problems += checks.check_eigenvalues("eig", found,
                                             [params["eig_lambda"]],
                                             checks.EIG_TOL)

    attempted = len(out["results"]) + len(cross)
    return attempted, failed, problems, {"cli_commands": len(out["results"])}
