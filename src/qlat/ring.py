"""Exact arithmetic in real quadratic rings (p + q*sqrt(kappa)) / den.

The golden case kappa=5 carries tau = (1+sqrt(5))/2 and the half-integer
ring Z[tau]; kappa=2 and kappa=3 carry the silver-ratio and sqrt(3) rings
used by the octagonal and dodecagonal quasilattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from operator import index


class DomainError(ValueError):
    """Raised when an operation leaves its mathematical domain."""


def radicand(kappa: int, irrational: bool, other: int, other_irrational: bool) -> int:
    """The radicand of a result of an operand over sqrt(kappa) and one over
    sqrt(other): that of the irrational operand, or kappa when neither is
    irrational.  A rational value fits any radicand; two irrational
    operands over different radicands never mix."""
    if kappa == other or not other_irrational:
        return kappa
    if irrational:
        raise DomainError(f"mixed radicands: sqrt({kappa}) vs sqrt({other})")
    return other


def common_radicand(operands) -> int:
    """The radicand of a result of several operands, each given as
    (kappa, irrational): radicand folded over them in order, 5 when there
    are none."""
    kappa, irrational = None, False
    for k, irr in operands:
        if kappa is None:
            kappa = k
        elif k != kappa:
            kappa = radicand(kappa, irrational, k, irr)
        irrational = irrational or irr
    return 5 if kappa is None else kappa


def signed_squares(p, q, kappa: int):
    """p|p| + kappa*q|q|, for ints or int arrays p and q: it has the sign
    of p + q*sqrt(kappa), since x -> x|x| increases, so p > -q*sqrt(kappa)
    exactly when p|p| > -kappa*q|q|."""
    return p * abs(p) + kappa * q * abs(q)


def _squarefree(n: int) -> bool:
    if n < 1:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


class QuadraticRingElement:
    """Exact number (p + q*sqrt(kappa)) / den with integer p, q, den.

    The arguments must be integers (Python or numpy); anything else is a
    TypeError, not truncated.  Rationals go through ``rational``.

    Canonical form: den > 0 and gcd(p, q, den) = 1.  Elements of the ring
    of integers always canonicalize to den in {1, 2}; general den is kept
    so that exact division stays closed (needed for reflection formulas).
    """

    __slots__ = ("p", "q", "kappa", "den")

    def __init__(self, p: int, q: int = 0, kappa: int = 5, den: int = 1):
        p, q, kappa, den = index(p), index(q), index(kappa), index(den)
        if den == 0:
            raise DomainError("den must be nonzero")
        if den < 0:
            p, q, den = -p, -q, -den
        g = gcd(gcd(abs(p), abs(q)), den)
        if g > 1:
            p //= g
            q //= g
            den //= g
        self.p = p
        self.q = q
        self.kappa = kappa
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def rational(x, kappa: int = 5) -> "QuadraticRingElement":
        f = Fraction(x)
        return QuadraticRingElement(f.numerator, 0, kappa, f.denominator)

    # -- coercion helpers ---------------------------------------------

    def _coerce(self, other) -> "QuadraticRingElement":
        if isinstance(other, QuadraticRingElement):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticRingElement.rational(other, self.kappa)
        return NotImplemented

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        k = self.kappa if self.kappa == o.kappa else radicand(
            self.kappa, self.q != 0, o.kappa, o.q != 0)
        return QuadraticRingElement(
            self.p * o.den + o.p * self.den,
            self.q * o.den + o.q * self.den,
            k,
            self.den * o.den,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticRingElement(-self.p, -self.q, self.kappa, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        k = self.kappa if self.kappa == o.kappa else radicand(
            self.kappa, self.q != 0, o.kappa, o.q != 0)
        return QuadraticRingElement(
            self.p * o.p + self.q * o.q * k,
            self.p * o.q + self.q * o.p,
            k,
            self.den * o.den,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticRingElement":
        n = self.norm()
        if n == 0:
            raise DomainError("division by zero element")
        c = self.conjugate()
        return QuadraticRingElement(
            c.p * n.denominator, c.q * n.denominator, self.kappa, c.den * n.numerator
        )

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __pow__(self, n: int) -> "QuadraticRingElement":
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadraticRingElement(1, 0, self.kappa)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure -----------------------------------------------------

    def conjugate(self) -> "QuadraticRingElement":
        """Galois conjugate sqrt(kappa) -> -sqrt(kappa)."""
        return QuadraticRingElement(self.p, -self.q, self.kappa, self.den)

    def norm(self) -> Fraction:
        """Field norm x * conj(x), a rational."""
        return Fraction(self.p * self.p - self.q * self.q * self.kappa,
                        self.den * self.den)

    def as_fractions(self) -> tuple[Fraction, Fraction]:
        """(a, b) with value a + b*sqrt(kappa)."""
        return Fraction(self.p, self.den), Fraction(self.q, self.den)

    def to_triple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.den)

    def is_ring_integer(self) -> bool:
        """Member of the ring of integers of Q(sqrt(kappa))."""
        if self.den == 1:
            return True
        if self.den == 2 and self.kappa % 4 == 1:
            return (self.p - self.q) % 2 == 0
        return False

    # -- comparisons ---------------------------------------------------

    def _sign(self) -> int:
        # the sign of p + q*sqrt(kappa); den > 0 by canonical form
        s = signed_squares(self.p, self.q, self.kappa)
        return (s > 0) - (s < 0)

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, QuadraticRingElement) else other
        if o is NotImplemented:
            return NotImplemented
        if self.q == 0 and o.q == 0:
            return self.p == o.p and self.den == o.den
        return (self.p, self.q, self.den, self.kappa) == (o.p, o.q, o.den, o.kappa)

    def __hash__(self):
        # a rational value hashes like the equal int or Fraction
        if self.q:
            return hash((self.p, self.q, self.den, self.kappa))
        if self.den == 1:
            return hash(self.p)
        return hash(Fraction(self.p, self.den))

    def __lt__(self, other):
        return (self - other)._sign() < 0

    def __le__(self, other):
        return (self - other)._sign() <= 0

    def __gt__(self, other):
        return (self - other)._sign() > 0

    def __ge__(self, other):
        return (self - other)._sign() >= 0

    def __bool__(self):
        return self.p != 0 or self.q != 0

    def __float__(self):
        return (self.p + self.q * self.kappa ** 0.5) / self.den

    def sort_key(self):
        a, b = self.as_fractions()
        return (a, b)

    def __repr__(self):
        return f"QRE({self.p},{self.q},k{self.kappa}/{self.den})"


# -- module-level operations --------------------------------------------

def tau() -> QuadraticRingElement:
    """The golden ratio (1 + sqrt(5)) / 2."""
    return QuadraticRingElement(1, 1, 5, 2)


def golden(m: int, n: int) -> QuadraticRingElement:
    """The golden integer m + n*tau."""
    return QuadraticRingElement(2 * m + n, n, 5, 2)


@dataclass(frozen=True)
class FundamentalUnitResult:
    unit: QuadraticRingElement
    a: int
    b: int
    delta: int
    norm_sign: int


def fundamental_unit(kappa: int) -> FundamentalUnitResult:
    """Smallest unit > 1 of the ring of integers of Q(sqrt(kappa)).

    Found as the smallest positive (a, b) with a^2 - delta*b^2 = +-4,
    where delta is the field discriminant; the unit is (a + b*sqrt(delta))/2.
    """
    if kappa <= 1 or not _squarefree(kappa):
        raise DomainError(f"kappa must be square-free and > 1, got {kappa}")
    delta = kappa if kappa % 4 == 1 else 4 * kappa
    b = 1
    while True:
        for sign in (-1, 1):
            a2 = delta * b * b + 4 * sign
            if a2 <= 0:
                continue
            a = isqrt(a2)
            if a * a == a2:
                if delta == kappa:
                    unit = QuadraticRingElement(a, b, kappa, 2)
                else:
                    unit = QuadraticRingElement(a, 2 * b, kappa, 2)
                return FundamentalUnitResult(unit, a, b, delta, sign)
        b += 1


def totient(n: int) -> int:
    """Euler's totient."""
    if n < 1:
        raise DomainError("totient needs n >= 1")
    result = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result
