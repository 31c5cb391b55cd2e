"""Exact quaternions with golden-field components; the unit icosians.

The 120 unit icosians coincide, as 4-tuples (w, x, y, z), with the H4
roots; their integer span is the icosian ring, whose membership test
delegates to the H4 quasilattice constraint machinery.
"""

from __future__ import annotations

from functools import lru_cache

from . import modules
from .ring import DomainError, QuadraticRingElement
from .roots import H4, roots
from .vectors import ExactVector


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
        if v.dim != 4:
            raise DomainError(f"a quaternion has 4 components, not {v.dim}")
        return GoldenQuaternion.from_numerators(v.form, v.den, v.kappa)

    def as_vector(self) -> ExactVector:
        return ExactVector.from_numerators(self.form, self.den, self.kappa)

    def components(self):
        return self.coords

    def __mul__(self, other):
        if not isinstance(other, GoldenQuaternion):
            return NotImplemented
        return qmul(self, other)


def qmul(a: GoldenQuaternion, b: GoldenQuaternion) -> GoldenQuaternion:
    """Hamilton product, on the integer forms of a and b.

    With a = (ap + aq*sqrt(kappa))/da componentwise and b likewise, the
    product is (ap*bp + kappa*aq*bq + (ap*bq + aq*bp)*sqrt(kappa))/(da*db)
    in Hamilton products of integer 4-tuples, written out below.  The
    result is built from its integer form alone.
    """
    kappa = a.kappa if a.kappa == b.kappa else a._match(b)
    (aw, ax, ay, az, cw, cx, cy, cz), da = a.form, a.den
    (bw, bx, by, bz, dw, dx, dy, dz), db = b.form, b.den
    x = (
        aw * bw - ax * bx - ay * by - az * bz
        + kappa * (cw * dw - cx * dx - cy * dy - cz * dz),
        aw * bx + ax * bw + ay * bz - az * by
        + kappa * (cw * dx + cx * dw + cy * dz - cz * dy),
        aw * by - ax * bz + ay * bw + az * bx
        + kappa * (cw * dy - cx * dz + cy * dw + cz * dx),
        aw * bz + ax * by - ay * bx + az * bw
        + kappa * (cw * dz + cx * dy - cy * dx + cz * dw),
        aw * dw - ax * dx - ay * dy - az * dz + cw * bw - cx * bx - cy * by - cz * bz,
        aw * dx + ax * dw + ay * dz - az * dy + cw * bx + cx * bw + cy * bz - cz * by,
        aw * dy - ax * dz + ay * dw + az * dx + cw * by - cx * bz + cy * bw + cz * bx,
        aw * dz + ax * dy - ay * dx + az * dw + cw * bz + cx * by - cy * bx + cz * bw,
    )
    return GoldenQuaternion.from_numerators(x, da * db, kappa)


def qconj(a: GoldenQuaternion) -> GoldenQuaternion:
    pw, px, py, pz, qw, qx, qy, qz = a.form
    return GoldenQuaternion.from_numerators((pw, -px, -py, -pz, qw, -qx, -qy, -qz),
                                            a.den, a.kappa)


def qnorm(a: GoldenQuaternion) -> QuadraticRingElement:
    """a * qconj(a), a scalar of the golden field."""
    return a.dot(a)


@lru_cache(maxsize=1)
def unit_icosians() -> tuple[GoldenQuaternion, ...]:
    """The 120 unit icosians (the H4 roots as quaternions)."""
    return tuple(GoldenQuaternion.from_vector(v) for v in roots(H4))


def is_in_icosian_ring(q: GoldenQuaternion) -> bool:
    """True iff q lies in the integer span of the unit icosians."""
    return modules.membership(modules.ql("H4"), q).member


def require_unit(q: GoldenQuaternion) -> None:
    if qnorm(q) != QuadraticRingElement(1):
        raise DomainError("quaternion is not a unit icosian (norm != 1)")
