"""Exact object arithmetic kept as test oracles.

The library multiplies matrices, applies them to vectors and multiplies
quaternions on integer numerators; these are the same operations written
entry by entry with QuadraticRingElement.
"""

from qlat.quaternions import GoldenQuaternion
from qlat.ring import QuadraticRingElement
from qlat.vectors import ExactVector


def _dot(terms):
    return sum(terms, QuadraticRingElement(0))


def object_matmul(a, b):
    """Product of two matrices given as rows of QuadraticRingElement."""
    d = len(a)
    return tuple(
        tuple(_dot(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


def object_apply(entries, v: ExactVector) -> ExactVector:
    d = len(entries)
    return ExactVector(_dot(entries[i][k] * v.coords[k] for k in range(d))
                       for i in range(d))


def object_qmul(a: GoldenQuaternion, b: GoldenQuaternion) -> GoldenQuaternion:
    """Hamilton product in 16 object products and 12 object sums."""
    return GoldenQuaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )
