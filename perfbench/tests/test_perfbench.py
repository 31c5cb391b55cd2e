"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import speed, tracing, workloads  # noqa: E402
from qlat import cutproject, groups, modules  # noqa: E402
from qlat.roots import H3, H4  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.05", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["project", "module", "groups"])
def test_smoke_run_emits_every_metric_with_a_unit(workload):
    s = spec()
    assert workload in [w["name"] for w in s["workloads"]]
    for trace, listed in ((0, s["end_to_end"]), (1, s["per_layer"])):
        result = run_bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in listed}
        for m in listed:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))


def test_benchmark_json_lists_every_traced_metric():
    names = [(m["name"], m["unit"]) for m in spec()["per_layer"]]
    assert names == tracing.layer_metric_names()


def test_dropped_patch_point_counts_as_failure(monkeypatch, tmp_path):
    real = cutproject.generate_patch

    def drop_one(emb, window, radius):
        p = real(emb, window, radius)
        return cutproject.Patch(p.target, p.window, p.radius, p.coeffs[1:],
                                p.points[1:], p.exact[1:])

    w = workloads.make("project", seed=1, size="tiny", workdir=str(tmp_path))
    w.setup()
    assert all(w.check(w.run_pass()))
    monkeypatch.setattr(cutproject, "generate_patch", drop_one)
    checks = w.check(w.run_pass())
    assert checks.count(False) >= 2     # the count and the digest, per geometry


def test_flipped_membership_verdict_counts_as_failure(monkeypatch):
    real = modules.membership
    calls = []

    def flip_first(qlm, v):
        r = real(qlm, v)
        calls.append(1)
        if len(calls) == 1:
            return modules.MembershipResult(not r.member, r.coefficients, r.reason)
        return r

    w = workloads.make("module", seed=1, size="tiny")
    w.setup()
    monkeypatch.setattr(modules, "membership", flip_first)
    checks = w.check(w.run_pass())
    assert checks.count(False) >= 1


def test_raising_call_counts_as_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("boom")

    w = workloads.make("module", seed=2, size="tiny")
    w.setup()
    monkeypatch.setattr(modules, "membership", broken)
    result = w.run_pass()
    checks = w.check(result)
    assert checks and not any(checks[:len(w.queries)])


def test_groups_fails_loudly_on_a_cache_hit(monkeypatch):
    w = workloads.make("groups", seed=1)
    w.setup()
    groups.generate(H3)
    groups.generate(H4)
    monkeypatch.setattr(workloads.GroupsWorkload, "_clear_cache", lambda self: None)
    with pytest.raises(workloads.CacheHit):
        w.run_pass()


def test_probe_runs_between_steps_outside_the_timing():
    w = workloads.make("groups", seed=1)
    w.setup()
    steps = []

    def probe(seconds):
        steps.append(seconds)
        time.sleep(0.2)

    w.probe = probe
    start = time.perf_counter()
    result = w.run_pass()
    assert len(steps) == 4      # closures, maps, icosian products, orbit
    assert time.perf_counter() - start - result.elapsed >= 0.8
    assert abs(result.elapsed - sum(steps)) < 0.01 * result.elapsed
    assert all(w.check(result))


def test_probe_factor_scales_to_the_reference_speed():
    probe = speed.Probe("module")
    probe.run_for(0.05)
    calls, seconds = probe.calls, probe.seconds
    assert calls >= 1 and seconds >= 0.05
    assert probe.take() == speed.REFERENCE["module"][1] * calls / seconds
    assert (probe.calls, probe.seconds) == (0, 0.0)


def test_missing_wrapped_attribute_is_tolerated(tmp_path):
    layers = tracing.LAYERS + (
        tracing.Layer("kernels.no_such_kernel", ("s",)),
        tracing.Layer("groups.NoSuchClass.apply", ("s", "us_p50")),
        tracing.Layer("nosuchmodule.f", ("s",)),
    )
    before = (cutproject.generate_patch, modules.QLModule.from_basis_coefficients)
    tracer = tracing.Tracer(layers)
    w = workloads.make("project", seed=1, size="tiny", workdir=str(tmp_path))
    w.setup()
    with tracer.installed():
        assert cutproject.generate_patch is not before[0]
        result = w.run_pass(tracer)
    assert (cutproject.generate_patch, modules.QLModule.from_basis_coefficients) == before
    assert all(w.check(result))
    assert tracer.missing == ["kernels.no_such_kernel", "groups.NoSuchClass.apply",
                              "nosuchmodule.f"]
    m = tracer.metrics(1)
    assert m["kernels.no_such_kernel.calls"] == 0
    assert m["groups.NoSuchClass.apply.us_p50"] == 0
    assert m["cutproject.generate_patch.calls"] == 2
    assert m["cutproject.generate_patch.points"] == result.items
    assert 0 < m["cutproject.generate_patch.self_s"] < m["cutproject.generate_patch.s"]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer(())
    # id, name, start, end, parent, task
    tracer.spans = [(2, "a", 1.0, 3.0, 1, 1), (3, "b", 4.0, 5.5, 1, 1),
                    (1, "root", 0.0, 10.0, 0, 1)]
    assert tracer.self_times() == {1: 6.5, 2: 2.0, 3: 1.5}
