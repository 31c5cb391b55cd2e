"""The machine's current speed, read from fixed reference work.

The benchmark shares a few cores of a host with other tenants, and their
load slows this process down by up to 2x, for anything from a fraction of a
second to minutes, with no CPU steal to show for it.  Raw pass times of the
same code therefore differ by 20-50% from one run to the next.  To take the
host out of the figures, the untimed gaps between the steps of a pass run
reference work for a fixed share of the step's time.  A slow spell does not
slow all code alike: interpreted exact arithmetic loses more than numpy
passes over small arrays.  So each workload has reference work of its own
kind of code (``REFERENCE``), written here and never calling qlat, so that
no change to qlat changes it.  A time scaled by the reference work's quiet
time over its mean time measured beside it is that time at the host's quiet
speed.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

import numpy as np

# reference work run after each step, as a share of the step's time
SHARE = 0.25

_RNG = np.random.default_rng(0)


def _box(bounds, dim):
    """Coefficient grid of a box, its projections and head offsets."""
    grid = np.stack([g.ravel() for g in np.meshgrid(
        *[np.arange(-b, b + 1) for b in bounds], indexing="ij")], axis=1)
    grid = grid.astype(np.float64)
    par, perp = _RNG.normal(size=(2, dim, len(bounds)))
    heads = _RNG.integers(-3, 4, size=(64, len(bounds))).astype(np.float64)
    return grid, grid @ par.T, grid @ perp.T, heads @ par.T, heads @ perp.T


_SCAN3 = _box((7, 7, 7), 3)       # the tail box of an H3 patch
_SCAN4 = _box((5, 3, 3), 4)       # the tail box of an H4 patch
_MATS = _RNG.integers(-3, 4, size=(256, 4, 4)).astype(np.int64)


def scan_work() -> int:
    """Window tests over a coefficient box, as in the cut-and-project scan."""
    total = 0
    for (grid, tail_par, tail_perp, p0, q0), rounds in ((_SCAN3, 16), (_SCAN4, 120)):
        for i in range(rounds):
            pp = tail_par + p0[i % 64]
            qq = tail_perp + q0[i % 64]
            keep = (pp * pp).sum(axis=1) <= 30.0
            keep &= (qq * qq).sum(axis=1) < 4.0
            if keep.any():
                total += len(grid[keep])
    return total


def exact_work() -> int:
    """Exact integer and Fraction arithmetic and hashing, as in the ring,
    module, quaternion and group layers."""
    seen = {}
    p, q, den = 1, 0, 1
    for i in range(1, 3000):
        # (p + q sqrt5)/den times (1 + sqrt5)/2, kept in lowest terms
        p, q, den = p + 5 * q, p + q, 2 * den
        g = gcd(gcd(abs(p), abs(q)), den)
        p, q, den = p // g, q // g, den // g
        if i % 30 == 0:
            p, q, den = i % 7 - 3, i % 5, 1
        key = (p % 97, q % 89, den)
        seen[key] = seen.get(key, 0) + 1
    acc = Fraction(0)
    for i in range(1, 1600):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, 2)
        if i % 40 == 0:
            seen[(acc.numerator % 11, acc.denominator % 13)] = i
            acc = Fraction(0)
    return len(seen)


def matmul_work() -> int:
    """Batched small integer matrix products, as in the group closure."""
    total = 0
    for _ in range(16):
        prod = np.einsum("nij,njk->nik", _MATS, _MATS)
        total += int(prod[:, 0, 0].sum())
    return total


def mixed_work() -> int:
    """All three kinds of work, as in the group closure and its checks."""
    return exact_work() + scan_work() + matmul_work()


# Per workload: the reference work that matches its code, and the time of
# one call at the quiet speed of a 2-vCPU Intel Xeon VM (the fastest of some
# 1000 calls), so that scaled times read as seconds on that machine.
REFERENCE = {
    "project": (scan_work, 0.0090),
    "module": (exact_work, 0.0089),
    "groups": (mixed_work, 0.0188),
}


class Probe:
    """Runs a workload's reference work between steps and keeps its times."""

    def __init__(self, workload: str):
        self.work, self.quiet_s = REFERENCE[workload]
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, step_seconds: float) -> None:
        """Reference work for SHARE of ``step_seconds``."""
        self.run_for(SHARE * step_seconds)

    def run_for(self, seconds: float) -> None:
        """Reference work for ``seconds``, at least one call."""
        spent = 0.0
        while True:
            start = time.perf_counter()
            self.work()
            spent += time.perf_counter() - start
            self.calls += 1
            if spent >= seconds:
                break
        self.seconds += spent

    def take(self) -> float:
        """Factor that scales times since the last take to the quiet speed."""
        factor = self.quiet_s * self.calls / self.seconds if self.calls else 1.0
        self.calls, self.seconds = 0, 0.0
        return factor
