"""Exact object arithmetic kept as test oracles.

The library multiplies matrices, applies them to vectors, multiplies
quaternions and decides quasilattice membership on integer numerators;
these are the same operations written entry by entry with
QuadraticRingElement and Fraction, and membership by the paper's four
coefficient rules.
"""

from fractions import Fraction

from qlat import linalg
from qlat.modules import h4_parity_ok
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


def object_combination(vectors, coeffs) -> ExactVector:
    """sum coeffs[i] * vectors[i] in object arithmetic."""
    out = None
    for v, c in zip(vectors, coeffs):
        term = v.scale(QuadraticRingElement.rational(c, v.kappa))
        out = term if out is None else out + term
    return out


def _rational_coordinates(v: ExactVector) -> list[Fraction]:
    """[a1, b1, a2, b2, ...] with coordinate i equal to ai + bi*sqrt(kappa)."""
    return [x for c in v.coords for x in c.as_fractions()]


def rule_frame_coefficients(qlm, v: ExactVector):
    """Frame coefficients of v by a Fraction solve, or None when v has the
    wrong dimension or radicand for the module."""
    if v.dim != qlm.dim or (any(c.q for c in v.coords) and v.kappa != qlm.kappa):
        return None
    cols = [_rational_coordinates(f) for f in qlm.frame]
    inverse = linalg.mat_inverse([list(row) for row in zip(*cols)])
    x = _rational_coordinates(v)
    return tuple(sum(a * b for a, b in zip(row, x)) for row in inverse)


def rule_membership(qlm, v: ExactVector):
    """(member, frame coefficients) by the paper's coefficient rules:
    integers (I2, H3-primitive), integers of even sum (H3-fcc), all
    integers or all half-integers (H3-bcc), integers whose mod-2 class
    passes the H4 parity constraints (H4)."""
    coeffs = rule_frame_coefficients(qlm, v)
    if coeffs is None:
        return False, None
    ints = all(c.denominator == 1 for c in coeffs)
    tag = qlm.constraint
    if tag == "unrestricted":
        member = ints
    elif tag == "even-sum":
        member = ints and sum(coeffs) % 2 == 0
    elif tag == "all-int-or-all-half":
        member = ints or all(c.denominator == 2 for c in coeffs)
    else:
        member = ints and h4_parity_ok([int(c) for c in coeffs[:4]],
                                       [int(c) for c in coeffs[4:]])
    return member, coeffs
