"""Layer timing from outside the library.

A :class:`Tracer` swaps public qlat functions for timing wrappers while it
is installed and puts the originals back afterwards.  Each wrapped call
records a span (name, start, end, parent, task id) in memory; layer
metrics are computed from the spans when the run ends.

A listed function that no longer exists is skipped: it records no span,
and its time falls into the self time of whatever called it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

# Per-call counters taken from a call's arguments and result.  Each returns
# {counter: amount}; a counter that cannot be read from the call is skipped.


def _box_scan_counts(args, kwargs, result):
    bounds = args[2] if len(args) > 2 else kwargs["bounds"]
    candidates = 1
    for b in bounds:
        candidates *= 2 * int(b) + 1
    return {"candidates": candidates, "accepted": len(result)}


def _patch_points(args, kwargs, result):
    return {"points": result.size}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _sf_pairs(args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    return {"pairs": len(points) * len(result)}


def _member_count(args, kwargs, result):
    return {"members": int(bool(result.member))}


def _matmul_count(args, kwargs, result):
    return {"matrices": len(result)}


@dataclass(frozen=True)
class Layer:
    """One wrapped function: ``<module>.<attribute path>`` under qlat."""

    name: str
    quantities: tuple[str, ...]
    counts: Optional[Callable] = None


LAYERS = (
    Layer("kernels.box_scan", ("s", "candidates", "accept_ratio"), _box_scan_counts),
    Layer("cutproject.generate_patch", ("s", "self_s", "points"), _patch_points),
    Layer("modules.QLModule.from_basis_coefficients", ("s",)),
    Layer("cutproject.write_patch_csv", ("s", "bytes"), _written_bytes),
    Layer("cutproject.read_patch_csv", ("s", "bytes"), _read_bytes),
    Layer("kernels.structure_factor_sum", ("s", "pairs_per_s"), _sf_pairs),
    Layer("modules.membership", ("s", "us_p50", "us_p99", "member_ratio"), _member_count),
    Layer("linalg.mat_vec", ("s",)),
    Layer("groups.GroupElement.apply", ("s", "us_p50")),
    Layer("groups.orbit", ("s",)),
    Layer("groups.generate", ("s", "self_s")),
    Layer("groups.compact_to_matrix", ("s",)),
    Layer("kernels.quad_matmul_batch", ("s", "matrices"), _matmul_count),
    Layer("groups.enumerate_h4_quaternion_maps", ("s",)),
    Layer("quaternions.qmul", ("s",)),
)

UNITS = {
    "s": "s", "self_s": "s", "us_p50": "us", "us_p99": "us",
    "calls": "count", "errors": "count", "candidates": "count",
    "points": "count", "bytes": "B", "matrices": "count",
    "accept_ratio": "ratio", "member_ratio": "ratio", "pairs_per_s": "1/s",
}


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer in LAYERS:
        for q in layer.quantities + ("calls", "errors"):
            out.append((f"{layer.name}.{q}", UNITS[q]))
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def _resolve(path: str):
    """(owner, attribute, raw value) for ``module.attr[.attr...]``, or None."""
    module_name, *attrs = path.split(".")
    try:
        owner = importlib.import_module(f"qlat.{module_name}")
    except ModuleNotFoundError:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    raw = vars(owner).get(attrs[-1]) if hasattr(owner, "__dict__") else None
    if raw is None or not callable(raw):
        return None
    return owner, attrs[-1], raw


class Tracer:
    """Spans of wrapped qlat calls, kept in memory until written out."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        # (span id, name, start, end, parent id, task id)
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counters: dict[str, dict[str, int]] = {}
        self.errors: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._task = 0
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, parent):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self._task))

    @contextmanager
    def task(self, name: str):
        """A root span for one unit of benchmark work, with a new task id."""
        self._task += 1
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start, parent)

    def _wrap(self, layer: Layer, fn):
        tracer = self
        name = layer.name
        counts = layer.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] = tracer.errors.get(name, 0) + 1
                raise
            finally:
                tracer._close(sid, name, start, parent)
            if counts is not None:
                try:
                    got = counts(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    got = {}
                bucket = tracer.counters.setdefault(name, {})
                for key, amount in got.items():
                    bucket[key] = bucket.get(key, 0) + amount
            return result

        return wrapper

    # -- install / restore ----------------------------------------------

    def install(self) -> None:
        self.missing = []
        for layer in self.layers:
            found = _resolve(layer.name)
            if found is None:
                self.missing.append(layer.name)
                continue
            owner, attr, raw = found
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(layer, raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its child spans cover.

        Spans come from one thread, so a span's children never overlap and
        the time they cover is the sum of their durations.
        """
        child_time: dict[int, float] = {}
        for sid, _, start, end, parent, _ in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        return {
            sid: (end - start) - child_time.get(sid, 0.0)
            for sid, _, start, end, _, _ in self.spans
        }

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics; sums and counts are per traced pass."""
        passes = max(1, passes)
        selfs = self.self_times()
        durations: dict[str, list[float]] = {}
        self_sum: dict[str, float] = {}
        for sid, name, start, end, _, _ in self.spans:
            durations.setdefault(name, []).append(end - start)
            self_sum[name] = self_sum.get(name, 0.0) + selfs[sid]
        out: dict[str, float] = {}
        for layer in self.layers:
            durs = sorted(durations.get(layer.name, []))
            total = sum(durs)
            counters = self.counters.get(layer.name, {})
            calls = len(durs)
            values = {
                "s": total / passes,
                "self_s": self_sum.get(layer.name, 0.0) / passes,
                "us_p50": _quantile(durs, 0.50) * 1e6,
                "us_p99": _quantile(durs, 0.99) * 1e6,
                "calls": calls / passes,
                "errors": self.errors.get(layer.name, 0) / passes,
                "candidates": counters.get("candidates", 0) / passes,
                "accept_ratio": _ratio(counters.get("accepted", 0),
                                       counters.get("candidates", 0)),
                "points": counters.get("points", 0) / passes,
                "bytes": counters.get("bytes", 0) / passes,
                "pairs_per_s": _ratio(counters.get("pairs", 0), total),
                "member_ratio": _ratio(counters.get("members", 0), calls),
                "matrices": counters.get("matrices", 0) / passes,
            }
            for q in layer.quantities + ("calls", "errors"):
                out[f"{layer.name}.{q}"] = values[q]
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line; the first line names the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "task"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
