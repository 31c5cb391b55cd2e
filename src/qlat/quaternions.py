"""Exact quaternions with golden-field components; the unit icosians.

The 120 unit icosians coincide, as 4-tuples (w, x, y, z), with the H4
roots; their integer span is the icosian ring, whose membership test
delegates to the H4 quasilattice constraint machinery.
"""

from __future__ import annotations

from functools import lru_cache

from .ring import DomainError, QuadraticRingElement
from .roots import H4, roots
from .vectors import ExactVector, numerators_over_common_den


class GoldenQuaternion:
    """Quaternion w + x*i + y*j + z*k over Q(sqrt(5))."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w, x, y, z):
        self.w, self.x, self.y, self.z = [
            c if isinstance(c, QuadraticRingElement)
            else QuadraticRingElement.rational(c) for c in (w, x, y, z)]

    @staticmethod
    def from_vector(v: ExactVector) -> "GoldenQuaternion":
        return GoldenQuaternion(*v.coords)

    def as_vector(self) -> ExactVector:
        return ExactVector((self.w, self.x, self.y, self.z))

    def components(self):
        return (self.w, self.x, self.y, self.z)

    def __eq__(self, other):
        return isinstance(other, GoldenQuaternion) and \
            self.components() == other.components()

    def __hash__(self):
        return hash(self.components())

    def __add__(self, other):
        return GoldenQuaternion(self.w + other.w, self.x + other.x,
                                self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return GoldenQuaternion(self.w - other.w, self.x - other.x,
                                self.y - other.y, self.z - other.z)

    def __neg__(self):
        return GoldenQuaternion(-self.w, -self.x, -self.y, -self.z)

    def scale(self, s):
        return GoldenQuaternion(self.w * s, self.x * s, self.y * s, self.z * s)

    def __mul__(self, other):
        return qmul(self, other)

    def __repr__(self):
        return f"GoldenQuaternion{self.components()!r}"


def qmul(a: GoldenQuaternion, b: GoldenQuaternion) -> GoldenQuaternion:
    """Hamilton product, on integer numerators over a common denominator.

    With a = (ap + aq*sqrt(kappa))/da componentwise and b likewise, the
    product is (ap*bp + kappa*aq*bq + (ap*bq + aq*bp)*sqrt(kappa))/(da*db)
    in Hamilton products of integer 4-tuples.
    """
    ca, cb = a.components(), b.components()
    kappas = {c.kappa for c in ca + cb if c.q}
    if len(kappas) > 1:
        raise DomainError(f"mixed radicands in quaternion product: {kappas}")
    kappa = kappas.pop() if kappas else a.w.kappa
    ap, aq, da = numerators_over_common_den(ca)
    bp, bq, db = numerators_over_common_den(cb)
    den = da * db
    # the components are ring elements already: no coercion in __init__
    out = GoldenQuaternion.__new__(GoldenQuaternion)
    out.w, out.x, out.y, out.z = [
        QuadraticRingElement(u + kappa * v, s + t, kappa, den)
        for u, v, s, t in zip(_hamilton(ap, bp), _hamilton(aq, bq),
                              _hamilton(ap, bq), _hamilton(aq, bp))
    ]
    return out


def _hamilton(a, b):
    """Hamilton product of two integer 4-tuples (w, x, y, z)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def qconj(a: GoldenQuaternion) -> GoldenQuaternion:
    return GoldenQuaternion(a.w, -a.x, -a.y, -a.z)


def qnorm(a: GoldenQuaternion) -> QuadraticRingElement:
    """a * qconj(a), a scalar of the golden field."""
    return a.w * a.w + a.x * a.x + a.y * a.y + a.z * a.z


@lru_cache(maxsize=1)
def unit_icosians() -> tuple[GoldenQuaternion, ...]:
    """The 120 unit icosians (the H4 roots as quaternions)."""
    return tuple(GoldenQuaternion.from_vector(v) for v in roots(H4))


def is_in_icosian_ring(q: GoldenQuaternion) -> bool:
    """True iff q lies in the integer span of the unit icosians."""
    from .modules import membership, ql

    return membership(ql("H4"), q.as_vector()).member


def left_matrix(a: GoldenQuaternion):
    """Matrix (rows of column images) of Q -> a*Q on (w,x,y,z) columns."""
    basis = _basis_quaternions()
    cols = [qmul(a, e).components() for e in basis]
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def right_matrix(b: GoldenQuaternion):
    """Matrix of Q -> Q*b."""
    basis = _basis_quaternions()
    cols = [qmul(e, b).components() for e in basis]
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def _basis_quaternions():
    one = QuadraticRingElement(1)
    zero = QuadraticRingElement(0)
    return (
        GoldenQuaternion(one, zero, zero, zero),
        GoldenQuaternion(zero, one, zero, zero),
        GoldenQuaternion(zero, zero, one, zero),
        GoldenQuaternion(zero, zero, zero, one),
    )


def require_unit(q: GoldenQuaternion) -> None:
    if qnorm(q) != QuadraticRingElement(1):
        raise DomainError("quaternion is not a unit icosian (norm != 1)")
