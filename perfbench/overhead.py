"""Tracing overhead: the same round, untraced and traced, alternately.

    python3 perfbench/overhead.py --workload lc_lc_forms --seed 1 --pairs 3

Sets up once, then runs the workload's round untraced and traced (tracer
installed for that round only), alternating so both sides see the same
machine, and prints each pair and the median ratio traced / untraced.
Both sides are timed with the yardstick (yardstick.py), as run_s is.
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys

import run


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)

    import numpy as np

    import slq.cli  # noqa: F401
    from tracing import Tracer
    from yardstick import Stopwatch, Yardstick

    wl = importlib.import_module(args.workload)
    params = wl.inputs(np.random.default_rng(args.seed))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(run.SRC), str(run.HERE)]))
    state, _ = wl.setup(params, {"workdir": str(run.OUT), "env": env,
                                 "clock_name": "Stopwatch",
                                 "clock": Stopwatch()})
    clock = Yardstick()
    ratios = []
    for _ in range(args.pairs):
        with clock.timing() as timing:
            wl.run_round(state)
        plain = timing.seconds
        tracer = Tracer()
        tracer.install()
        tracer.set_phase("round")
        try:
            with clock.timing() as timing:
                wl.run_round(state)
            traced = timing.seconds
        finally:
            tracer.uninstall()
        ratios.append(traced / plain)
        print(f"untraced {plain:.3f} s  traced {traced:.3f} s  "
              f"ratio {traced / plain:.3f}", flush=True)
    print(f"{args.workload}: median traced/untraced "
          f"{statistics.median(ratios):.3f} over {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    os.environ.update(run.THREAD_ENV)
    sys.exit(main())
