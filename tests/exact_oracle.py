"""Exact object arithmetic kept as test oracles.

The library multiplies matrices, applies them to vectors, multiplies
quaternions, takes Gram inner products, inverts integer matrices by integer elimination, decides
quasilattice membership on integer numerators and classifies rescalings
by a period; these are the same operations written entry by entry with
QuadraticRingElement and Fraction, inverses and frame coefficients by
determinants, membership by the paper's four coefficient rules, and
rescaling power by power.  The H3 and H4 roots are the paper's explicit
lists of signed even permutations.
"""

from fractions import Fraction
from itertools import product

from qlat.quaternions import GoldenQuaternion
from qlat.ring import QuadraticRingElement, tau
from qlat.roots import _EVEN_PERMS_4
from qlat.vectors import ExactVector


_EVEN_PERMS_3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _signed_even_perms(pattern, perms) -> set:
    """Every even permutation of pattern, under every choice of signs."""
    out = set()
    for perm in perms:
        base = [pattern[i] for i in perm]
        for signs in product((1, -1), repeat=len(base)):
            out.add(ExactVector([s * c for s, c in zip(signs, base)]))
    return out


def paper_roots(family: str) -> set:
    """The H3 roots: (+-1, 0, 0) and (+-tau, +-1, +-(tau - 1))/2; the H4
    roots: (+-1, 0, 0, 0), (+-1, +-1, +-1, +-1)/2 and
    (0, +-tau, +-1, +-(tau - 1))/2, each under all even permutations."""
    one, zero = QuadraticRingElement(1), QuadraticRingElement(0)
    half, t = QuadraticRingElement(1, 0, 5, 2), tau()
    golden = (t * half, half, (t - 1) * half)
    if family == "H3":
        return (_signed_even_perms((one, zero, zero), _EVEN_PERMS_3)
                | _signed_even_perms(golden, _EVEN_PERMS_3))
    return (_signed_even_perms((one, zero, zero, zero), _EVEN_PERMS_4)
            | _signed_even_perms((half,) * 4, _EVEN_PERMS_4)
            | _signed_even_perms((zero,) + golden, _EVEN_PERMS_4))


def _dot(terms):
    return sum(terms, QuadraticRingElement(0))


def object_matmul(a, b):
    """Product of two matrices given as rows of QuadraticRingElement."""
    d = len(a)
    return tuple(
        tuple(_dot(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
        for i in range(d)
    )


def object_gram_dot(u: ExactVector, v: ExactVector, gram) -> QuadraticRingElement:
    """<u, v> through the Gram matrix gram, cell by cell."""
    total = QuadraticRingElement(0, 0, u.kappa)
    for i, a in enumerate(u.coords):
        for j, b in enumerate(v.coords):
            total = total + a * gram[i][j] * b
    return total


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
    """Frame coefficients of v by Cramer's rule over Fraction, or None when
    v has the wrong dimension or radicand for the module."""
    if v.dim != qlm.dim or (any(c.q for c in v.coords) and v.kappa != qlm.kappa):
        return None
    cols = [_rational_coordinates(f) for f in qlm.frame]
    x = _rational_coordinates(v)
    whole = det(list(zip(*cols)))
    return tuple(det(list(zip(*(cols[:j] + [x] + cols[j + 1:])))) / whole
                 for j in range(len(cols)))


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


def h4_parity_ok(m, n) -> bool:
    """The paper's H4 rule: the three mod-2 constraints over all even
    index permutations."""
    if sum(m) % 2 or sum(n) % 2:
        return False
    for a, b, c, d in _EVEN_PERMS_4:
        if (m[a] + n[a] + m[b] + n[c]) % 2:
            return False
    return True


def det(a) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        result *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return sign * result


def inverse(a) -> list[list[Fraction]]:
    """Inverse by the adjugate: entry (i, j) is the (j, i) cofactor over
    det(a).  Raises ZeroDivisionError when a is singular."""
    n = len(a)
    whole = det(a)
    if n == 1:
        return [[1 / whole]]

    def minor(i, j):
        return [row[:j] + row[j + 1:] for k, row in enumerate(map(list, a)) if k != i]

    return [[(-1) ** (i + j) * det(minor(j, i)) / whole for j in range(n)]
            for i in range(n)]


def power_scale_verdict(qlm, factor: QuadraticRingElement, power: int) -> str:
    """Multiplication by factor**power, built exactly, on the member basis:
    "not-closed" when an image leaves the module, else "invariant" or
    "proper-sublattice" by the determinant of the integer action matrix."""
    eta = factor ** power
    rows = []
    for b in qlm.member_basis:
        coeffs = qlm.basis_coefficients(b.scale(eta))
        if any(c.denominator != 1 for c in coeffs):
            return "not-closed"
        rows.append([c.numerator for c in coeffs])
    return "invariant" if abs(det(rows)) == 1 else "proper-sublattice"
