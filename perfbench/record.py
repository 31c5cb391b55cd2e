"""Run every workload, untraced and traced, and add a trajectory point.

    python3 perfbench/record.py --label seed --seed 1 --seconds 20

Prints each run's metrics and writes the result records (metrics, sample
counts, checks and machine record) to perfbench/trajectory/<label>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("project", "module", "groups")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args()
    point = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                check=True, timeout=600)
            with open(os.path.join(HERE, "out", f"result-{workload}-trace{trace}.json")) as fh:
                point[f"{workload}/trace{trace}"] = json.load(fh)
    path = os.path.join(HERE, "trajectory", f"{args.label}.json")
    with open(path, "w") as fh:
        json.dump(point, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
