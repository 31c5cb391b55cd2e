"""Exact vectors over a real quadratic field, plus the reflection map.

2D root systems with 5- or 10-fold symmetry have no orthonormal basis
with quadratic coordinates, so those vectors live in an oblique basis
{1, zeta}; inner products then carry a Gram matrix.  Cartesian systems
(H3, H4) use the identity Gram, passed as ``None``.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .ring import DomainError, QuadraticRingElement

Gram = Optional[Sequence[Sequence[QuadraticRingElement]]]


def radicand(cells) -> int:
    """The one radicand kappa of the irrational cells of a sequence, or the
    first cell's when all are rational (5 when there are none)."""
    kappas = {c.kappa for c in cells if c.q}
    if len(kappas) > 1:
        raise DomainError(f"mixed radicands: {sorted(kappas)}")
    return kappas.pop() if kappas else cells[0].kappa if cells else 5


class ExactVector:
    """Immutable tuple of QuadraticRingElement sharing one radicand.

    Its integer form is x = (p_1, ..., p_d, q_1, ..., q_d) over one
    denominator den, coordinate i being (p_i + q_i*sqrt(kappa))/den.
    Arithmetic builds results of the caller's type, so subclasses whose
    constructors take other arguments (GoldenQuaternion) keep their type.
    """

    __slots__ = ("coords", "kappa", "_form")

    def __init__(self, coords: Iterable[QuadraticRingElement]):
        self.coords = tuple(
            c if isinstance(c, QuadraticRingElement) else QuadraticRingElement.rational(c)
            for c in coords
        )
        self.kappa = radicand(self.coords)
        self._form = None

    @classmethod
    def _build(cls, coords: Iterable[QuadraticRingElement]) -> "ExactVector":
        """The vector of ring elements coords, as a cls, without coercion."""
        v = object.__new__(cls)
        v.coords = tuple(coords)
        v.kappa = radicand(v.coords)
        v._form = None
        return v

    @classmethod
    def from_numerators(cls, x: Sequence[int], den: int, kappa: int) -> "ExactVector":
        """The vector whose integer form is x over den (see the class); x
        and den are Python ints, and den must be positive."""
        if den < 1:
            raise DomainError(f"den must be positive, got {den}")
        d = len(x) // 2
        build = QuadraticRingElement._from_ints
        return cls._build(build(x[i], x[i + d], kappa, den) for i in range(d))

    def numerators(self) -> tuple[tuple[int, ...], int]:
        """(x, den): the integer form over the least common denominator,
        computed on first call and kept (the vector is immutable)."""
        if self._form is None:
            den = 1
            for c in self.coords:
                if den % c.den:
                    den = lcm(den, c.den)
            ps, qs = [], []
            for c in self.coords:
                s = den // c.den
                ps.append(c.p * s)
                qs.append(c.q * s)
            self._form = tuple(ps + qs), den
        return self._form

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __len__(self):
        return len(self.coords)

    def _zip(self, other: "ExactVector"):
        if len(self.coords) != len(other.coords):
            raise DomainError("dimension mismatch")
        return zip(self.coords, other.coords)

    def __add__(self, other: "ExactVector") -> "ExactVector":
        return self._build(a + b for a, b in self._zip(other))

    def __sub__(self, other: "ExactVector") -> "ExactVector":
        return self._build(a - b for a, b in self._zip(other))

    def __neg__(self) -> "ExactVector":
        return self._build(-a for a in self.coords)

    def scale(self, s) -> "ExactVector":
        return self._build(a * s for a in self.coords)

    __rmul__ = scale

    def __eq__(self, other):
        return isinstance(other, ExactVector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def conjugate(self) -> "ExactVector":
        """Componentwise Galois conjugate (the perpendicular-space image)."""
        return self._build(c.conjugate() for c in self.coords)

    def dot(self, other: "ExactVector", gram: Gram = None) -> QuadraticRingElement:
        pairs = self._zip(other)
        total = QuadraticRingElement(0, 0, self.kappa)
        if gram is None:
            for a, b in pairs:
                total = total + a * b
            return total
        for i, a in enumerate(self.coords):
            for j, b in enumerate(other.coords):
                total = total + a * gram[i][j] * b
        return total

    def to_floats(self) -> np.ndarray:
        return np.array([float(c) for c in self.coords])

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(repr(c) for c in self.coords))


def reflect(v: ExactVector, r: ExactVector, gram: Gram = None) -> ExactVector:
    """Reflect v in the hyperplane normal to the root r: v - 2<v,r>/<r,r> r."""
    rr = r.dot(r, gram)
    if not rr:
        raise DomainError("cannot reflect in a zero root")
    coef = (v.dot(r, gram) * 2) / rr
    return v - r.scale(coef)
