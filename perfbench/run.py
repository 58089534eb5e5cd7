"""slq benchmark: one workload per call, results as one JSON line.

    python3 perfbench/run.py --workload lc_lc_forms --seed 1 --seconds 10 \
        --trace 0

Run from the repository root; the library is imported from ./src.  A run
builds its inputs from --seed, sets up N times (median reported as
setup_s), then repeats whole rounds of the workload, at least two, until
--seconds have passed.  Every round's outputs are checked against
independent references (see checks.py).  With --trace 0 the last line
carries the end-to-end metrics, timed with the yardstick (see
yardstick.py: wall times scaled to the machine's reference speed); with
--trace 1 the slq modules are wrapped (see tracing.py), times are plain
wall times, and the last line carries the per-layer metrics, while the
spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# BLAS and OpenMP pools pinned to one thread; set before numpy is loaded,
# which happens only inside main().
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS")}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("lc_lc_forms", "spectra", "one_lc_cli")
MIN_ROUNDS = 2      # a run_s median never rests on a single round

# (name, unit) of the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(wl, seed, seconds, tracer, ctx):
    """Set up N times, then run whole rounds (at least MIN_ROUNDS) until
    `seconds` have passed; check each round."""
    import numpy as np

    params = wl.inputs(np.random.default_rng(seed))
    setup_times = []
    state = None
    for _ in range(wl.N_SETUPS):
        state = None  # release the previous set-up before building again
        if tracer is not None:
            tracer.set_phase("setup")
        state, seconds_i = wl.setup(params, ctx)
        setup_times.append(seconds_i)
    problems = list(wl.check_setup(state))

    rounds, walls, attempted, failed = [], [], 0, 0
    kind_counts, kind_times = {}, {}
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.set_phase("round")
        with ctx["clock"].timing() as timing:
            out = wl.run_round(state)
        rounds.append(timing.seconds)
        walls.append(timing.wall)
        a, f, p, counts = wl.check(state, out)
        attempted += a
        failed += f
        problems += p
        # The kinds' own wall times, scaled as the round's time was.
        scale = timing.seconds / sum(out["times"].values())
        for kind, n in counts.items():
            kind_counts[kind] = kind_counts.get(kind, 0) + n
            kind_times[kind] = kind_times.get(kind, 0.0) \
                + out["times"][kind] * scale
        if tracer is not None and hasattr(wl, "report_bytes"):
            tracer.cur["cli.report_bytes"] += wl.report_bytes(out)
        if len(rounds) >= MIN_ROUNDS \
                and time.perf_counter() - start >= seconds:
            break
    return {
        "setup_times": setup_times,
        "rounds": rounds,
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "kind_rates": {f"{k}_per_s": kind_counts[k] / kind_times[k]
                       for k in kind_counts},
    }


def end_to_end(res):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    completed = res["attempted"] - res["failed"]
    return {
        "setup_s": statistics.median(res["setup_times"]),
        "run_s": statistics.median(res["rounds"]),
        "ops_per_s": completed / len(res["rounds"])
        / statistics.median(res["rounds"]),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "slq" / "__init__.py").is_file():
        print(f"error: no slq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    import yardstick

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    clock = "Stopwatch" if args.trace else "Yardstick"
    ctx = {"workdir": str(OUT), "env": env, "clock_name": clock,
           "clock": getattr(yardstick, clock)()}

    wl = importlib.import_module(args.workload)
    import slq.cli  # noqa: F401  (loads every slq module before tracing)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    res = measure(wl, args.seed, args.seconds, tracer, ctx)

    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(res['setup_times'])} set-ups, {len(res['rounds'])} rounds, "
          f"{res['attempted']} operations, {res['failed']} failed")
    print(f"  {'round wall time, median':24s} "
          f"{statistics.median(res['walls']):.6g} s")
    for name, value in res["kind_rates"].items():
        print(f"  {name:24s} {value:.6g} 1/s")

    if tracer is None:
        values = end_to_end(res)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        tracer.uninstall()
        metrics = tracer.metrics(len(res["setup_times"]), len(res["rounds"]),
                                 statistics.median(res["rounds"]))
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "setups": len(res["setup_times"]),
                            "rounds": len(res["rounds"])})
        print(f"  spans written to {path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not res["problems"],
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    os.environ.update(THREAD_ENV)
    sys.exit(main())
