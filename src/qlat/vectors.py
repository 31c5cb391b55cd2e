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


class ExactVector:
    """Immutable tuple of QuadraticRingElement sharing one radicand."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[QuadraticRingElement]):
        coords = tuple(
            c if isinstance(c, QuadraticRingElement) else QuadraticRingElement.rational(c)
            for c in coords
        )
        kappas = {c.kappa for c in coords if c.q != 0}
        if len(kappas) > 1:
            raise DomainError(f"mixed radicands in vector: {kappas}")
        self.coords = coords

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def kappa(self) -> int:
        for c in self.coords:
            if c.q != 0:
                return c.kappa
        return self.coords[0].kappa if self.coords else 5

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __len__(self):
        return len(self.coords)

    def __add__(self, other: "ExactVector") -> "ExactVector":
        return ExactVector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "ExactVector") -> "ExactVector":
        return ExactVector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "ExactVector":
        return ExactVector(-a for a in self.coords)

    def scale(self, s) -> "ExactVector":
        return ExactVector(a * s for a in self.coords)

    __rmul__ = scale

    def __eq__(self, other):
        return isinstance(other, ExactVector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def conjugate(self) -> "ExactVector":
        """Componentwise Galois conjugate (the perpendicular-space image)."""
        return ExactVector(c.conjugate() for c in self.coords)

    def dot(self, other: "ExactVector", gram: Gram = None) -> QuadraticRingElement:
        if len(self.coords) != len(other.coords):
            raise DomainError("dimension mismatch")
        if gram is None:
            total = QuadraticRingElement(0, 0, self.kappa)
            for a, b in zip(self.coords, other.coords):
                total = total + a * b
            return total
        total = QuadraticRingElement(0, 0, self.kappa)
        for i, a in enumerate(self.coords):
            for j, b in enumerate(other.coords):
                total = total + a * gram[i][j] * b
        return total

    def to_floats(self) -> np.ndarray:
        return np.array([float(c) for c in self.coords])

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def __repr__(self):
        return "ExactVector(%s)" % ", ".join(repr(c) for c in self.coords)


def numerators_over_common_den(cells) -> tuple[list[int], list[int], int]:
    """(ps, qs, den) with cell i equal to (ps[i] + qs[i]*sqrt(kappa))/den,
    over the least common denominator den of the cells."""
    den = 1
    for c in cells:
        if den % c.den:
            den = lcm(den, c.den)
    ps, qs = [], []
    for c in cells:
        s = den // c.den
        ps.append(c.p * s)
        qs.append(c.q * s)
    return ps, qs, den


def reflect(v: ExactVector, r: ExactVector, gram: Gram = None) -> ExactVector:
    """Reflect v in the hyperplane normal to the root r: v - 2<v,r>/<r,r> r."""
    rr = r.dot(r, gram)
    if not rr:
        raise DomainError("cannot reflect in a zero root")
    coef = (v.dot(r, gram) * 2) / rr
    return v - r.scale(coef)
