"""Reference figures: runs bench/run.py over seeds and prints their spread.

    python3 bench/figures.py [--overhead]

Run from the root of a checkout.  Each run is a separate process, one
after the other: every workload of BENCHMARK.json with seeds 1 to 10, for
its run_seconds.  For every workload and end-to-end metric it prints the
median over the seeds and the distance between the first and third
quartile as a share of the median, next to the metric's bound from
BENCHMARK.json; it also prints the share of failed operations.  With
--overhead it adds one traced run per workload (the first seed) and prints
the traced wall_s minus the untraced one.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
OUT = Path(__file__).resolve().parent / "out"


SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}"
                           f"\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    print(f"python {sys.version.split()[0]}, seeds {SEEDS[0]}..{SEEDS[-1]},"
          f" {seconds} s per run")
    print("| workload | metric | median | IQR / median | bound |")
    print("| --- | --- | --- | --- | --- |")
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in SEEDS]
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            print(f"| {workload} | {name} | {statistics.median(values):.4g}"
                  f" {unit} | {spread(values):.3f} | {bounds[name]} |")
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"| {workload} | failed / attempted | "
              f"{', '.join(f'{s:.4f}' for s in sorted(shares))} | "
              f"correct: {correct} | |")
        if args.overhead:
            seed = SEEDS[0]
            run_once(workload, seed, seconds, 1)
            walls = [json.loads((OUT / f"result-{workload}-seed{seed}-"
                                        f"trace{t}.json").read_text())
                     ["end_to_end"]["wall_s"]["value"] for t in (0, 1)]
            print(f"| {workload} | tracing overhead (seed {seed}) | "
                  f"{walls[1] - walls[0]:+.3f} s | "
                  f"{(walls[1] - walls[0]) / walls[0]:+.1%} | |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
