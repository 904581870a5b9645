#!/usr/bin/env python3
"""Steadiness check for one workload.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--sets 2]
                                [--first-seed 1] [--seconds S]

Run from the root of the repository. Makes `--sets` sets of `--runs`
untraced runs, each run with its own seed, and prints for every end-to-end
metric of BENCHMARK.json the median and quartiles of each set, the spread
(interquartile distance over the median) against the metric's bound, and
how far each later set's median moved, in the worse direction, from the
first set's. The spread of `setup_s` is shown but not judged. It also
checks that the share of failed operations is the same in every run.
Exits 1 if any judged figure is outside its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = ap.parse_args()

    sets = []
    seed = a.first_seed
    for s in range(a.sets):
        results = []
        for _ in range(a.runs):
            r = one_run(a.workload, seed, a.seconds)
            shown = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"set {s + 1} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} {shown}",
                  file=sys.stderr, flush=True)
            results.append(r)
            seed += 1
        sets.append(results)

    ok = True
    print(f"workload {a.workload}: {a.sets} set(s) of {a.runs} runs, {a.seconds} s each")
    print(f"{'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'moved':>7} {'bound':>6}  verdict")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        first = None
        for s, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            first = med if first is None else first
            moved = (med - first) / first if m["better"] == "lower" else (first - med) / first
            judged_spread = name != "setup_s"
            good = (not judged_spread or spread <= bound) and moved <= bound
            ok &= good
            print(f"{name:<18} {s + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {moved:>7.3f} {bound:>6.2f}  "
                  f"{'ok' if good else 'OUT'}{'' if judged_spread else ' (spread not judged)'}")
    shares = {r["failed"] / r["attempted"] for results in sets for r in results}
    same = len(shares) == 1
    ok &= same and all(r["correct"] for results in sets for r in results)
    print(f"failed share: {sorted(shares)} ({'same in every run' if same else 'DIFFERS'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
