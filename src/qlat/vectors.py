"""Exact vectors over a real quadratic field, plus the reflection map.

2D root systems with 5- or 10-fold symmetry have no orthonormal basis
with quadratic coordinates, so those vectors live in an oblique basis
{1, zeta}; inner products then carry a Gram matrix.  Cartesian systems
(H3, H4) use the identity Gram, passed as ``None``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .ring import DomainError, QuadraticRingElement, common_radicand, radicand

Gram = Optional[Sequence["ExactVector"]]


class ExactVector:
    """Immutable exact vector, stored as its integer form: the Python ints
    form = (p_1, ..., p_d, q_1, ..., q_d) over the least common denominator
    den, coordinate i being (p_i + q_i*sqrt(kappa))/den.  Arithmetic,
    equality and hashing work on these integers and build results of the
    caller's type (a GoldenQuaternion stays one); the QuadraticRingElement
    coordinates ``coords`` are built on first read.
    """

    __slots__ = ("form", "den", "kappa", "_coords")

    def __init__(self, coords: Iterable[QuadraticRingElement]):
        cells = tuple(
            c if isinstance(c, QuadraticRingElement) else QuadraticRingElement.rational(c)
            for c in coords
        )
        kappa = common_radicand((c.kappa, c.q != 0) for c in cells)
        den = lcm(*(c.den for c in cells))
        self.form = tuple([c.p * (den // c.den) for c in cells]
                          + [c.q * (den // c.den) for c in cells])
        self.den = den
        self.kappa = kappa
        self._coords = cells

    @classmethod
    def from_numerators(cls, x: Sequence[int], den: int, kappa: int) -> "ExactVector":
        """The vector of integer form x over den > 0 (Python ints); reducing
        by gcd(den, *x) leaves the least common denominator."""
        if den < 1:
            raise DomainError(f"den must be positive, got {den}")
        g = gcd(den, *x)
        v = object.__new__(cls)
        v.form = tuple(a // g for a in x) if g > 1 else tuple(x)
        v.den = den // g
        v.kappa = kappa
        v._coords = None
        return v

    @property
    def coords(self) -> tuple[QuadraticRingElement, ...]:
        """The coordinates as ring elements, built on first read."""
        if self._coords is None:
            x, d = self.form, self.dim
            self._coords = tuple(QuadraticRingElement(x[i], x[i + d], self.kappa, self.den)
                                 for i in range(d))
        return self._coords

    def numerators(self) -> tuple[tuple[int, ...], int]:
        """(form, den): the integer form over the least common denominator."""
        return self.form, self.den

    @property
    def dim(self) -> int:
        return len(self.form) // 2

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __len__(self):
        return self.dim

    def _irrational(self) -> bool:
        return any(self.form[self.dim:])

    def _match(self, other: "ExactVector") -> int:
        """The radicand of a result of self and the vector other."""
        if len(self.form) != len(other.form):
            raise DomainError("dimension mismatch")
        if self.kappa == other.kappa:
            return self.kappa
        return radicand(self.kappa, self._irrational(), other.kappa, other._irrational())

    def _combine(self, other: "ExactVector", sign: int) -> "ExactVector":
        kappa = self._match(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        return type(self).from_numerators(
            [a * s + b * t for a, b in zip(self.form, other.form)], den, kappa)

    def __add__(self, other: "ExactVector") -> "ExactVector":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactVector") -> "ExactVector":
        return self._combine(other, -1)

    def __neg__(self) -> "ExactVector":
        return type(self).from_numerators([-a for a in self.form], self.den, self.kappa)

    def scale(self, s) -> "ExactVector":
        """s times the vector, for s an int, a Fraction or a ring element
        (a + b*sqrt(kappa))/c: p' = a*p + kappa*b*q, q' = b*p + a*q over den*c."""
        if isinstance(s, QuadraticRingElement):
            kappa = self.kappa if self.kappa == s.kappa else radicand(
                self.kappa, self._irrational(), s.kappa, s.q != 0)
            a, b, c = s.p, s.q, s.den
        elif isinstance(s, (int, Fraction)):
            s = Fraction(s)
            a, b, c, kappa = s.numerator, 0, s.denominator, self.kappa
        else:
            raise TypeError(f"cannot scale an exact vector by {type(s).__name__}")
        d = self.dim
        pq = list(zip(self.form[:d], self.form[d:]))
        return type(self).from_numerators(
            [a * p + kappa * b * q for p, q in pq] + [b * p + a * q for p, q in pq],
            self.den * c, kappa)

    __rmul__ = scale

    def __eq__(self, other):
        return (isinstance(other, ExactVector) and self.form == other.form
                and self.den == other.den
                and (self.kappa == other.kappa or not self._irrational()))

    def __hash__(self):
        return hash((self.form, self.den))

    def is_zero(self) -> bool:
        return not any(self.form)

    def conjugate(self) -> "ExactVector":
        """Componentwise Galois conjugate (the perpendicular-space image)."""
        d = self.dim
        return type(self).from_numerators(
            self.form[:d] + tuple(-q for q in self.form[d:]), self.den, self.kappa)

    def dot(self, other: "ExactVector", gram: Gram = None) -> QuadraticRingElement:
        """<self, other>: the plain dot of self with gram @ other."""
        other = gram_product(gram, other)
        kappa = self._match(other)
        d = self.dim
        p, q, r, s = self.form[:d], self.form[d:], other.form[:d], other.form[d:]
        return QuadraticRingElement(
            sum(map(mul, p, r)) + kappa * sum(map(mul, q, s)),
            sum(map(mul, p, s)) + sum(map(mul, q, r)), kappa, self.den * other.den)

    def to_floats(self) -> np.ndarray:
        return np.array([float(c) for c in self.coords])

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(repr(c) for c in self.coords))


def gram_product(gram: Gram, v: ExactVector) -> ExactVector:
    """gram @ v, as the plain dots of v with the rows of gram; v when gram is None."""
    return v if gram is None else ExactVector([row.dot(v) for row in gram])


def reflection(r: ExactVector, gram: Gram = None) -> Callable[[ExactVector], ExactVector]:
    """The reflection v -> v - 2<v,r>/<r,r> r in the hyperplane normal to
    the root r, with gram @ r and 2/<r,r> taken once for every v."""
    gr = gram_product(gram, r)
    rr = r.dot(gr)
    if not rr:
        raise DomainError("cannot reflect in a zero root")
    c = 2 / rr
    return lambda v: v - r.scale(v.dot(gr) * c)


def reflect(v: ExactVector, r: ExactVector, gram: Gram = None) -> ExactVector:
    """Reflect v in the hyperplane normal to the root r: v - 2<v,r>/<r,r> r."""
    return reflection(r, gram)(v)
