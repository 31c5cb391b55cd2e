"""Exact quaternions with golden-field components; the unit icosians.

The 120 unit icosians coincide, as 4-tuples (w, x, y, z), with the H4
roots; their integer span is the icosian ring, whose membership test
delegates to the H4 quasilattice constraint machinery.
"""

from __future__ import annotations

from functools import lru_cache

from .ring import DomainError, QuadraticRingElement
from .roots import H4, roots
from .vectors import ExactVector, radicand


class GoldenQuaternion(ExactVector):
    """Quaternion w + x*i + y*j + z*k over Q(sqrt(5)): the exact 4-vector
    (w, x, y, z), equal to and hashing like the ExactVector of those
    coordinates."""

    __slots__ = ()

    def __init__(self, w, x, y, z):
        super().__init__((w, x, y, z))

    w, x, y, z = (property(lambda self, i=i: self.coords[i]) for i in range(4))

    @staticmethod
    def from_vector(v: ExactVector) -> "GoldenQuaternion":
        return GoldenQuaternion(*v.coords)

    def as_vector(self) -> ExactVector:
        return ExactVector(self.coords)

    def components(self):
        return self.coords

    def __mul__(self, other):
        return qmul(self, other)


def qmul(a: GoldenQuaternion, b: GoldenQuaternion) -> GoldenQuaternion:
    """Hamilton product, on the integer forms of a and b.

    With a = (ap + aq*sqrt(kappa))/da componentwise and b likewise, the
    product is (ap*bp + kappa*aq*bq + (ap*bq + aq*bp)*sqrt(kappa))/(da*db)
    in Hamilton products of integer 4-tuples.
    """
    kappa = a.kappa if a.kappa == b.kappa else radicand(a.coords + b.coords)
    x, da = a.numerators()
    y, db = b.numerators()
    ap, aq, bp, bq = x[:4], x[4:], y[:4], y[4:]
    den = da * db
    # ring elements over the product's radicand: no coercion or rescan
    out = object.__new__(GoldenQuaternion)
    out.coords = tuple(
        QuadraticRingElement(u + kappa * v, s + t, kappa, den)
        for u, v, s, t in zip(_hamilton(ap, bp), _hamilton(aq, bq),
                              _hamilton(ap, bq), _hamilton(aq, bp))
    )
    out.kappa = kappa
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
    return a.dot(a)


@lru_cache(maxsize=1)
def unit_icosians() -> tuple[GoldenQuaternion, ...]:
    """The 120 unit icosians (the H4 roots as quaternions)."""
    return tuple(GoldenQuaternion.from_vector(v) for v in roots(H4))


def is_in_icosian_ring(q: GoldenQuaternion) -> bool:
    """True iff q lies in the integer span of the unit icosians."""
    from .modules import membership, ql

    return membership(ql("H4"), q).member


_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def left_matrix(a: GoldenQuaternion):
    """Matrix (rows of column images) of Q -> a*Q on (w,x,y,z) columns."""
    return _matrix(a, _hamilton)


def right_matrix(b: GoldenQuaternion):
    """Matrix of Q -> Q*b."""
    return _matrix(b, lambda u, e: _hamilton(e, u))


def _matrix(a: GoldenQuaternion, product):
    """Rows of the matrix whose column j is product(a, e_j), on a's
    integer form: e_j is integral, so the sqrt(kappa) parts stay apart."""
    x, den = a.numerators()
    p = [product(x[:4], e) for e in _UNITS]
    q = [product(x[4:], e) for e in _UNITS]
    return tuple(tuple(QuadraticRingElement(p[j][i], q[j][i], a.kappa, den)
                       for j in range(4)) for i in range(4))


def require_unit(q: GoldenQuaternion) -> None:
    if qnorm(q) != QuadraticRingElement(1):
        raise DomainError("quaternion is not a unit icosian (norm != 1)")
