"""The non-crystallographic root systems I2(n), H3 and H4.

An exact system is given by its simple roots alone: its roots are their
closure under the simple reflections.  H3 and H4 use exact Cartesian
golden coordinates.  The 2D systems are exact for n in {5, 8, 10, 12}:
their roots are written in the oblique basis {1, zeta} (zeta a primitive
root of unity), where all coordinates lie in a real quadratic ring and
the Gram matrix [[1, c/2], [c/2, 1]] with c = 2*cos(angle) makes inner
products exact.  Other I2(n) are emitted as float vectors only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .ring import DomainError, QuadraticRingElement, tau
from .vectors import ExactVector, reflection

#: I2(n) whose coordinate ring is a real quadratic ring, keyed to kappa.
QUADRATIC_I2 = {5: 5, 8: 2, 10: 5, 12: 3}

#: The most float roots roots() builds for a non-quadratic I2(n).
MAX_FLOAT_ROOTS = 100_000

_EVEN_PERMS_4 = (
    (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2),
    (1, 0, 3, 2), (1, 2, 0, 3), (1, 3, 2, 0),
    (2, 0, 1, 3), (2, 1, 3, 0), (2, 3, 0, 1),
    (3, 0, 2, 1), (3, 1, 0, 2), (3, 2, 1, 0),
)


@dataclass(frozen=True)
class RootSystemId:
    family: str  # "I2" | "H3" | "H4"
    n: Optional[int] = None

    def __post_init__(self):
        if self.family in ("H3", "H4"):
            if self.n is not None:
                raise DomainError(f"{self.family} takes no index n")
        elif self.family == "I2":
            if self.n is None or self.n < 5 or self.n == 6:
                raise DomainError(
                    "I2(n) needs n >= 5, n != 6 (smaller n are crystallographic)"
                )
        else:
            raise DomainError(f"unknown family {self.family!r}")

    @property
    def rank(self) -> int:
        return {"I2": 2, "H3": 3, "H4": 4}[self.family]

    @staticmethod
    def parse(text: str) -> "RootSystemId":
        text = text.strip()
        if text in ("H3", "H4"):
            return RootSystemId(text)
        if text.startswith("I2"):
            tail = text[2:].lstrip("-(").rstrip(")")
            try:
                return RootSystemId("I2", int(tail))
            except ValueError:
                pass
        raise DomainError(f"cannot parse root system {text!r}")

    def __str__(self):
        return self.family if self.n is None else f"I2-{self.n}"


H3 = RootSystemId("H3")
H4 = RootSystemId("H4")


def I2(n: int) -> RootSystemId:
    return RootSystemId("I2", n)


def is_quadratic(system: RootSystemId) -> bool:
    return system.family in ("H3", "H4") or system.n in QUADRATIC_I2


def kappa_of(system: RootSystemId) -> int:
    if system.family in ("H3", "H4"):
        return 5
    if system.n in QUADRATIC_I2:
        return QUADRATIC_I2[system.n]
    raise DomainError(f"{system} has no quadratic coordinate ring")


def _i2_params(system: RootSystemId):
    """(m, c, kappa) for quadratic I2(n): the order m of zeta, c = 2*cos(2*pi/m)
    exactly (tau for kappa = 5, sqrt(kappa) for 2 and 3) and the radicand kappa."""
    n, k = system.n, kappa_of(system)
    m = 2 * n if n % 2 else n  # for odd n the roots are the 2n-th roots of unity
    return m, tau() if k == 5 else QuadraticRingElement(0, 1, k), k


@lru_cache(maxsize=None)
def gram(system: RootSystemId) -> Optional[tuple[ExactVector, ...]]:
    """The rows of the Gram matrix [[1, c/2], [c/2, 1]] of the oblique basis,
    built once, or None (orthonormal) for H3 and H4; g[i][j] is a ring element."""
    if system.family in ("H3", "H4"):
        return None
    _, c, k = _i2_params(system)
    one, half_c = QuadraticRingElement(1, 0, k), c / 2
    return ExactVector((one, half_c)), ExactVector((half_c, one))


@lru_cache(maxsize=None)
def simple_roots(system: RootSystemId) -> tuple[ExactVector, ...]:
    """A simple system: d roots at the obtuse angles pi - pi/m_ij of the
    Coxeter diagram, whose reflections generate the full group.

    H3 and H4: golden coordinates, numbered along the Coxeter diagram 5-3
    or 5-3-3.  I2(n): in the oblique basis, 1 and -zeta for odd n, 1 and
    -(1 + zeta) for even n.
    """
    if system.family == "I2":
        k = kappa_of(system)
        one = ExactVector.from_numerators((1, 0, 0, 0), 1, k)
        zeta = ExactVector.from_numerators((0, 1, 0, 0), 1, k)
        return (one, -zeta) if system.n % 2 == 1 else (one, -(one + zeta))
    t, half = tau(), QuadraticRingElement(1, 0, 5, 2)
    a, b = t * half, (t - 1) * half
    if system.family == "H3":
        rows = ((-1, 0, 0), (a, -half, b), (0, 1, 0))
    else:
        rows = ((-1, 0, 0, 0), (a, -half, 0, b), (0, a, -half, -b), (0, 0, 1, 0))
    return tuple(ExactVector(r) for r in rows)


@lru_cache(maxsize=None)
def roots(system: RootSystemId):
    """All roots, exact where the coordinate ring is quadratic.

    H3: 30 vectors; H4: 120; I2(n): 2n.  Exact roots are the closure of
    the simple roots under their reflections, in sort_key order; a closure
    that passes root_count(system) raises DomainError.
    Non-quadratic I2(n) come back as float numpy arrays.  The result is a
    tuple, shared by every caller.
    """
    if is_quadratic(system):
        simple = simple_roots(system)
        mirrors = [reflection(a, gram(system)) for a in simple]
        count = root_count(system)
        found = list(simple)
        seen = set(found)
        for v in found:  # found grows as it is read: a breadth-first closure
            for mirror in mirrors:
                w = mirror(v)
                if w not in seen:
                    if len(found) == count:
                        raise DomainError(f"the simple roots of {system} close to more "
                                          f"than its {count} roots")
                    seen.add(w)
                    found.append(w)
        return tuple(sorted(found, key=ExactVector.sort_key))
    n = system.n
    if 2 * n > MAX_FLOAT_ROOTS:
        raise DomainError(f"{system} has {2 * n} roots, over the limit of "
                          f"{MAX_FLOAT_ROOTS} float roots")
    angles = ([math.pi * k / n for k in range(2 * n)] if n % 2 == 1
              else [2 * math.pi * k / n for k in range(n + 1)])
    out = [np.array([math.cos(a), math.sin(a)]) for a in angles]
    if n % 2 == 0:  # the n-th roots of unity zeta^k, then the sums zeta^k + zeta^(k+1)
        out = out[:n] + [out[k] + out[k + 1] for k in range(n)]
    return tuple(out)


def root_count(system: RootSystemId) -> int:
    """The number of roots, without building them."""
    if system.family == "I2":
        return 2 * system.n
    return {"H3": 30, "H4": 120}[system.family]


def _zeta_powers(m: int, c: QuadraticRingElement, k: int):
    """zeta^j for j < m in the oblique basis, via zeta^2 = c*zeta - 1."""
    one = QuadraticRingElement(1, 0, k)
    zero = QuadraticRingElement(0, 0, k)
    powers = [ExactVector((one, zero)), ExactVector((zero, one))]
    for _ in range(m - 2):
        prev, cur = powers[-2], powers[-1]
        powers.append(cur.scale(c) - prev)
    return powers
