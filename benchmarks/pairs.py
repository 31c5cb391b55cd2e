"""Compare two checkouts of qlat on one perfbench workload, in alternating
pairs of runs.

    python benchmarks/pairs.py --parent DIR --change DIR --workload module \\
        --pairs 10 --seed 101 [--seconds 20] [--json FILE]

Pair i runs ``perfbench/run.py --workload W --seed SEED+i --seconds S
--trace 0`` once in each checkout, one run at a time.  The parent runs
first in even pairs and the change in odd ones, so drift on the host falls
on both sides alike.  For every end-to-end metric of the change's
BENCHMARK.json the script prints each side's median and quartiles and the
pairs the change wins, then each run's wall-clock seconds and failed
checks.  With --json it also writes these numbers and every run's metrics
to FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: its last-line JSON plus wall_clock_s."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode:
        sys.exit(f"pairs: {' '.join(cmd)} exited with {done.returncode}:\n"
                 f"{done.stderr.strip()}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {"seed": seed, "wall_clock_s": round(wall, 2),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summary(parent: list, change: list, better: str) -> dict:
    """Both sides' values, quartiles and the pairs the change wins."""
    sign = 1 if better == "higher" else -1
    return {"parent": parent, "change": change,
            "parent_quartiles": quartiles(parent), "change_quartiles": quartiles(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(parent)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True, choices=("project", "module", "groups"))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--json", help="write the results to this file")
    args = p.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            run = run_once(trees[side], args.workload, args.seed + i, args.seconds)
            run["first"] = side == order[0]
            runs[side].append(run)
            print(f"pair {i} seed {args.seed + i} {side:6s} "
                  f"{run['wall_clock_s']:7.1f} s wall clock, "
                  f"{run['failed']} of {run['attempted']} checks failed", flush=True)

    out = {"workload": args.workload, "seconds": args.seconds, "trees": trees,
           "metrics": {}, "runs": runs}
    print(f"\n{args.workload}: {args.pairs} pairs, medians [quartiles]")
    for name, meta in metrics.items():
        s = summary(*([r["metrics"][name] for r in runs[side]] for side in SIDES),
                    meta["better"])
        out["metrics"][name] = dict(unit=meta["unit"], better=meta["better"], **s)
        pq, cq = s["parent_quartiles"], s["change_quartiles"]
        print(f"  {name:12s} parent {pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]  "
              f"change {cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}] {meta['unit']}  "
              f"change wins {s['change_wins']}/{s['pairs']}")
    s = summary(*([r["wall_clock_s"] for r in runs[side]] for side in SIDES), "lower")
    out["wall_clock_s"] = s
    pq, cq = s["parent_quartiles"], s["change_quartiles"]
    print(f"  {'run wall clock':12s} parent {pq[1]:.1f} [{pq[0]:.1f}, {pq[2]:.1f}]  "
          f"change {cq[1]:.1f} [{cq[0]:.1f}, {cq[2]:.1f}] s  "
          f"totals {sum(s['parent']):.0f} and {sum(s['change']):.0f} s")
    for side in SIDES:
        print(f"  {side} runs (s): " + " ".join(f"{r['wall_clock_s']:.1f}" for r in runs[side]))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
