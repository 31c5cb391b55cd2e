"""Run one qlat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload project --seed 1 --seconds 20 --trace 0

Workloads: ``project``, ``module`` and ``groups`` (see perfbench/README.md).
One process and one caller, in a closed loop: each pass starts when the
previous one has been checked.  With ``--trace 0`` the run reports the
end-to-end metrics, with times scaled to the host's quiet speed
(perfbench/speed.py); with ``--trace 1`` it reports the per-layer metrics
of a traced run and the tracing overhead.  The last line of standard output
is one JSON object; details and the machine record go to
perfbench/out/result-<workload>-trace<n>.json and, for traced runs, the
spans to perfbench/out/spans-<workload>.jsonl.

qlat is imported from ``src/`` beside this directory; without it the run
exits with code 2 before printing a result.
"""

import os

# One caller on a 2-core machine: cap the BLAS pool before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("project", "module", "groups")
SETUP_RUNS = 5
RUN_SECONDS = 20.0    # run_seconds in BENCHMARK.json
# seconds of reference work after each set-up
SETUP_PROBE_S = 0.5
UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def import_qlat():
    """Import qlat from this checkout's src/, or exit with code 2."""
    sys.path[:0] = [SRC, ROOT]
    try:
        import qlat
    except ImportError as exc:
        print(f"perfbench: cannot import qlat from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(qlat.__file__).startswith(SRC + os.sep):
        print(f"perfbench: qlat came from {qlat.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return qlat


def commit_hash() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def machine_record(qlat) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    backend = getattr(qlat, "backend", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend() if backend else "unknown",
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "commit": commit_hash(),
    }


def measure_setup(args) -> list[float]:
    """setup_s samples, each from a fresh process and at the quiet speed;
    one for tiny inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    samples = []
    for _ in range(1 if args.size == "tiny" else SETUP_RUNS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


class Runner:
    """Passes of one workload, their timings and their check results."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.raw = []        # each pass's timed seconds as measured
        self.factors = []    # and the factor that scales it to the quiet speed

    def one(self, tracer=None) -> tuple[float, int]:
        """Run and check one pass; (timed seconds, items).  The seconds are
        scaled to the quiet speed if the workload has a speed probe."""
        # every pass starts from the same heap: the previous pass's outputs
        # are gone and the cyclic collector has nothing pending
        gc.collect()
        if tracer is None:
            result = self.workload.run_pass()
        else:
            with tracer.installed():
                result = self.workload.run_pass(tracer)
        self.raw.append(result.elapsed)
        probe = self.workload.probe
        self.factors.append(probe.take() if probe else 1.0)
        elapsed = result.elapsed * self.factors[-1]
        checks = self.workload.check(result)
        self.attempted += len(checks)
        self.failed += checks.count(False)
        return elapsed, result.items


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the benchmark's self-tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    start = time.perf_counter()
    qlat = import_qlat()
    from perfbench import speed, tracing, workloads

    work = os.path.join(OUT, "work")
    os.makedirs(work, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, args.size, work)
    workload.setup()
    if args.setup_only:
        setup_s = time.perf_counter() - start
        probe = speed.Probe(args.workload)
        probe.run_for(SETUP_PROBE_S)
        print(json.dumps({"setup_s": setup_s * probe.take()}))
        return 0

    runner = Runner(workload)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "size": args.size,
              "machine": machine_record(qlat)}
    try:
        if args.trace == 0:
            workload.probe = speed.Probe(args.workload)
            metrics, samples = end_to_end(args, runner)
        else:
            metrics, samples = traced(args, runner, tracing)
    except workloads.CacheHit as exc:
        print(f"perfbench: {exc}; the groups workload must time a cold closure",
              file=sys.stderr)
        return 3
    record.update(metrics=metrics, samples=samples, raw=runner.raw,
                  factors=runner.factors, attempted=runner.attempted,
                  failed=runner.failed,
                  error_rate=runner.failed / max(1, runner.attempted))

    m = record["machine"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} size={args.size}")
    print(f"machine nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"backend={m['backend']} blas={m['blas']} blas_threads={m['blas_threads']} "
          f"commit={m['commit']}")
    for name, val in metrics.items():
        note = samples.get(name, "")
        print(f"  {name:48s} {val['value']:.6g} {val['unit']}  {note}")
    print(f"  {'error_rate':48s} {record['error_rate']:.6g} ratio  "
          f"({runner.failed} failed of {runner.attempted} checks)")
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def end_to_end(args, runner):
    setup = measure_setup(args)
    per_pass, items = [], 0
    while sum(runner.raw) < args.seconds or not per_pass:
        elapsed, n = runner.one()
        per_pass.append(elapsed)
        items += n
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed, passes = sum(per_pass), len(per_pass)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(per_pass),
        "items_per_s": items / timed,
        "peak_rss_mb": rss_mb,
    }
    q_setup, q_wall = quartiles(setup), quartiles(per_pass)
    samples = {
        "setup_s": f"(median of {len(setup)} fresh processes, "
                   f"quartiles {q_setup[0]:.4g}..{q_setup[2]:.4g})",
        "wall_s": f"(median of {passes} passes, "
                  f"quartiles {q_wall[0]:.4g}..{q_wall[2]:.4g}; "
                  f"{sum(runner.raw):.4g} s as measured)",
        "items_per_s": f"({items} items in {timed:.4g} s over {passes} passes)",
        "peak_rss_mb": "(1 sample, this process)",
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}, samples


def traced(args, runner, tracing):
    # untraced and traced passes alternate, so that both see the same
    # machine and the overhead ratio does not pick up drift between halves
    tracer = tracing.Tracer()
    plain, spans_times = [], []
    while sum(plain) + sum(spans_times) < args.seconds or not spans_times:
        plain.append(runner.one()[0])
        spans_times.append(runner.one(tracer)[0])
    values = tracer.metrics(len(spans_times))
    values["trace.overhead_ratio"] = (statistics.median(spans_times)
                                      / statistics.median(plain))
    units = dict(tracing.layer_metric_names())
    tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}.jsonl"))
    samples = {"trace.overhead_ratio":
               f"({len(spans_times)} traced / {len(plain)} untraced passes)"}
    for name in tracer.missing:
        samples[f"{name}.calls"] = "(not found: nothing wrapped)"
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, samples


if __name__ == "__main__":
    sys.exit(main())
