"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload spectra --seeds 1-10 --seconds 10

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the bound BENCHMARK.json sets; also the failed share of
operations, and the same spread for the rounds' plain wall time, which the
yardstick scales to give run_s.  Runs are sequential, each in a fresh
process.  With --log the raw result lines are appended to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--log", default=None)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results, walls = [], []
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        res = json.loads(lines[-1])
        results.append(res)
        walls += [float(line.split()[-2]) for line in lines
                  if line.strip().startswith("round wall time")]
        if args.log:
            with open(args.log, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     **res}) + "\n")
        print(f"seed {seed}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share(s): {sorted(shares)}; all correct: "
          f"{all(r['correct'] for r in results)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / abs(med):.4f}"
        else:
            spread = "n/a"
        print(f"{name:32s} median {med:.6g}  iqr/median {spread}  "
              f"bound {bounds.get(name)}")
    if len(walls) >= 2:
        # The round's plain wall time, before scaling by the yardstick.
        q1, _, q3 = statistics.quantiles(walls, n=4)
        med = statistics.median(walls)
        print(f"{'(round wall time)':32s} median {med:.6g}  "
              f"iqr/median {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
