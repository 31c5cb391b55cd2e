"""Finite reflection groups as exact matrices over the quadratic field.

A matrix is stored as integers: the numerator pairs (x, y) of its entries
(x + y*sqrt(kappa))/den over one common denominator, plus kappa; every
group element has den = 4.  Products, images of vectors, equality and
hashing work on these integers: products and orbits through the batched
products of qlat.kernels, the image of one vector in Python ints.  Every
group is generated by closure of the simple-root reflections, level by
word length, and keeps the closure's rows as one (order, d, d, 2) int64
array; orbits are one product over that array, and an element is a row
of it, wrapped in a GroupElement only when read.  The closure is the
numbers game (Bjorner and Brenti, Combinatorics of Coxeter Groups, 4.3):
the Cartan matrix C of the simple roots decides, in integers, which
products w*s are longer than w and which right descent is the smallest,
so each element is built once, from that descent, in the order of a
breadth-first search that keeps first occurrences.  Every other matrix is
built from its columns, the images of the unit vectors e_j.

The H4 group is also realized through unit-icosian pairs q1, q2 acting
as Q -> conj(q1) Q q2 (optionally with quaternion conjugation of Q).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from operator import index, mul

import numpy as np

from . import kernels
from .quaternions import GoldenQuaternion, qconj, qmul, require_unit, unit_icosians
from .ring import DomainError, QuadraticRingElement, common_radicand, radicand, signed_squares
from .roots import RootSystemId, gram, is_quadratic, kappa_of, root_count, simple_roots
from .vectors import ExactVector, reflection


def _int_array(values, shape) -> np.ndarray:
    """Python ints as int64, or as Python ints (object dtype) when one
    does not fit."""
    wide = max(map(abs, values), default=0) > kernels.INT64_MAX
    return np.array(values, dtype=object if wide else np.int64).reshape(shape)


def _byte_rows(arr: np.ndarray) -> list[bytes]:
    """The bytes of each row arr[i], sliced from one tobytes() buffer."""
    raw = arr.tobytes()
    size = len(raw) // len(arr) if len(arr) else 1
    return [raw[k:k + size] for k in range(0, len(raw), size)]


def _canonical(numerators: np.ndarray, den: int):
    """(numerators, den) for the same matrix with den the least multiple of
    4 that clears every entry."""
    flat = numerators.ravel().tolist()
    g = gcd(den, *flat)
    scale = lcm(4, den // g) // (den // g)
    return _int_array([x // g * scale for x in flat], numerators.shape), den // g * scale


def _column_form(vectors) -> tuple[np.ndarray, int, int]:
    """(numerators, den, kappa), in canonical form, of the matrix whose
    column j is the exact vector vectors[j]."""
    vectors = list(vectors)
    d = len(vectors)
    if any(v.dim != d for v in vectors):
        raise DomainError(f"a {d}x{d} matrix needs {d} columns of {d} components")
    den = lcm(*(v.den for v in vectors))
    kappa = common_radicand((v.kappa, v._irrational()) for v in vectors)
    # column j's integer form (p_1..p_d, q_1..q_d) is row j of a (d, 2, d) array
    x = [a * (den // v.den) for v in vectors for a in v.form]
    return (*_canonical(_int_array(x, (d, 2, d)).transpose(2, 0, 1), den), kappa)


class GroupElement:
    """Exact d x d matrix over the coordinate field of its root system.

    ``numerators`` is a (d, d, 2) integer array: entry (i, j) is
    (x + y*sqrt(kappa))/den for (x, y) = numerators[i, j].  The form is
    canonical -- den is the least multiple of 4 that clears every entry --
    so equality and hashing compare integers; ``kappa`` counts only when
    some entry is irrational.
    """

    __slots__ = ("numerators", "den", "kappa", "_key")

    def __init__(self, entries):
        self._fill(*_column_form(ExactVector(col) for col in zip(*entries)))

    @classmethod
    def from_columns(cls, vectors) -> "GroupElement":
        """The matrix whose column j is the exact vector vectors[j]."""
        return cls._wrap(*_column_form(vectors))

    def _fill(self, numerators: np.ndarray, den: int, kappa: int) -> None:
        numerators.flags.writeable = False  # _key holds these bytes
        self.numerators = numerators
        self.den = den
        self.kappa = kappa
        self._key = (den, numerators.tobytes() if numerators.dtype != object
                     else tuple(numerators.ravel().tolist()))

    @classmethod
    def _wrap(cls, numerators: np.ndarray, den: int, kappa: int) -> "GroupElement":
        """The element of numerators already in canonical form."""
        el = cls.__new__(cls)
        el._fill(numerators, den, kappa)
        return el

    @property
    def dim(self) -> int:
        return self.numerators.shape[0]

    @property
    def entries(self) -> tuple:
        """The entries as QuadraticRingElement rows, built on each call."""
        k, den = self.kappa, self.den
        return tuple(
            tuple(QuadraticRingElement(x, y, k, den) for x, y in row)
            for row in self.numerators.tolist()
        )

    def _irrational(self) -> bool:
        return bool(self.numerators[..., 1].any())

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self._key == other._key and (
            self.kappa == other.kappa or not self._irrational())

    def __hash__(self):
        return hash(self._key)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        kappa = self.kappa if self.kappa == other.kappa else radicand(
            self.kappa, self._irrational(), other.kappa, other._irrational())
        product = kernels.quad_product(self.numerators, other.numerators, kappa)
        return GroupElement._wrap(*_canonical(product, self.den * other.den), kappa)

    def apply(self, v: ExactVector) -> ExactVector:
        """The image of v, in Python ints.

        Row i of the element, read as (x_i1, y_i1, ..., x_id, y_id), meets
        the vector's form twice: with (p_1, kappa*q_1, ..., p_d, kappa*q_d)
        it gives the rational numerator of image coordinate i, and with
        (q_1, p_1, ..., q_d, p_d) its sqrt(kappa) numerator.
        """
        d = self.dim
        x, den, kappa = _operand(self.numerators, self.kappa, v)
        u, w = [], []
        for p, q in zip(x[:d], x[d:]):
            u += (p, kappa * q)
            w += (q, p)
        rows = self.numerators.reshape(d, 2 * d).tolist()
        return ExactVector.from_numerators(
            [sum(map(mul, r, u)) for r in rows] + [sum(map(mul, r, w)) for r in rows],
            self.den * den, kappa)

    def det(self) -> QuadraticRingElement:
        return _det(self.entries)

    def is_orthogonal(self, g=None) -> bool:
        """M^T G M == G exactly (G = identity when g is None): the columns
        M e_j have the inner products G_ij."""
        d = self.dim
        cols = [self.apply(e) for e in _unit_vectors(d, self.kappa)]
        return all(cols[i].dot(cols[j], g) == (int(i == j) if g is None else g[i][j])
                   for i in range(d) for j in range(d))

    def __repr__(self):
        return f"GroupElement(dim={self.dim})"


def _det(rows) -> QuadraticRingElement:
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = QuadraticRingElement(0)
    for j in range(len(rows)):
        term = rows[0][j] * _det([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total + (term if j % 2 == 0 else -term)
    return total


def _operand(numerators: np.ndarray, kappa: int, v: ExactVector):
    """(form, den, radicand) of v as the operand of the matrices numerators
    over sqrt(kappa), shape (..., d, d, 2); DomainError when v has another
    dimension or another radicand."""
    d = numerators.shape[-2]
    if v.dim != d:
        raise DomainError(
            f"cannot apply a {d}x{d} matrix to a {v.dim}-component vector")
    x, den = v.numerators()
    if v.kappa != kappa:
        kappa = radicand(kappa, bool(numerators[..., 1].any()), v.kappa, any(x[d:]))
    return x, den, kappa


@lru_cache(maxsize=None)
def _unit_vectors(d: int, kappa: int) -> tuple:
    """The unit vectors e_1, ..., e_d over sqrt(kappa)."""
    return tuple(ExactVector.from_numerators([int(i == j) for i in range(2 * d)], 1, kappa)
                 for j in range(d))


def identity_element(d: int) -> GroupElement:
    return GroupElement.from_columns(_unit_vectors(d, 5))


def reflection_matrix(r: ExactVector, g=None) -> GroupElement:
    """Matrix of the reflection in the hyperplane normal to root r: its
    column j is the reflection of the unit vector e_j."""
    mirror = reflection(r, g)
    return GroupElement.from_columns(mirror(e) for e in _unit_vectors(r.dim, r.kappa))


class ReflectionGroup(Sequence):
    """A finite matrix group: one read-only (order, d, d, 2) int64 array of
    numerator pairs over the denominator 4, and no object per element.  The
    group is the read-only sequence of its elements: item i wraps row i in
    a GroupElement as it is read, and writes through a row raise
    ValueError.  ``g in group`` follows GroupElement.__eq__."""

    def __init__(self, system: RootSystemId, numerators: np.ndarray, kappa: int):
        self.system = system
        self.kappa = kappa
        self.numerators = numerators
        numerators.flags.writeable = False

    @property
    def order(self) -> int:
        return len(self.numerators)

    @property
    def elements(self) -> "ReflectionGroup":
        """The group itself, the sequence of its elements; kept for callers
        that read ``generate(system).elements``."""
        return self

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(len(self))[i])
        return GroupElement._wrap(self.numerators[index(i)], 4, self.kappa)

    def __contains__(self, g) -> bool:
        """g equals an element, by the rule of GroupElement.__eq__: den 4,
        the bytes of a row, and this group's kappa unless g is rational."""
        return (isinstance(g, GroupElement) and g.den == 4
                and (g.kappa == self.kappa or not g._irrational())
                and g._key[1] in self._row_bytes)

    @cached_property
    def _row_bytes(self) -> frozenset:
        return frozenset(_byte_rows(self.numerators))

    def compact_byte_set(self) -> frozenset:
        """The bytes of every row of numerators, the set membership reads."""
        return self._row_bytes

    def entry_triples(self) -> np.ndarray:
        """(order, d, d, 3) array of the canonical [p, q, den] of every
        entry (p + q*sqrt(kappa))/den, in element order."""
        x, y = self.numerators[..., 0], self.numerators[..., 1]
        g = np.gcd(np.gcd(x, y), 4)
        return np.stack((x // g, y // g, 4 // g), axis=-1)


def _cartan(simple, g) -> np.ndarray:
    """(K, K, 2) int64 array of the Cartan entries
    C[s, t] = 2<a_s, a_t>/<a_t, a_t> of the simple roots, each as its
    numerator pair (x, y) of (x + y*sqrt(kappa))/2."""
    pairs = []
    for a in simple:
        for b in simple:
            c = a.dot(b, g) * 2 / b.dot(b, g)
            if 2 % c.den:
                raise DomainError(f"Cartan entry {c} is not over the denominator 2")
            pairs += (c.p * (2 // c.den), c.q * (2 // c.den))
    return np.array(pairs, dtype=np.int64).reshape(len(simple), len(simple), 2)


def _numbers_game(gens: list[GroupElement], cartan: np.ndarray, kappa: int,
                  max_levels: int) -> np.ndarray:
    """Every product of the reflections gens in the simple roots of the
    Cartan matrix cartan, in breadth-first order, each built once.

    Row w of a level carries a(w), a_t(w) = <w^-1 rho, a_t^v> for the rho
    with every a_t(e) = 1, as pairs (p, q) of (p + q*sqrt(kappa))/2.  w*s
    is longer than w exactly when a_s(w) > 0, and
    a(w*s) = a(w) - a_s(w) C[s, :].  An element of length L + 1 is w*s for
    each of its right descents s; it is kept only from the smallest, where
    a_t(w*s) > 0 for every t < s.  Kept rows run generator by generator,
    then in frontier order: exactly the order in which a breadth-first
    search over the products w*s, generator by generator, first meets each
    element.  The game runs first, on a(w) alone; then one int64 array of
    the group's order takes each level's products.  Raises DomainError past
    max_levels levels and ArithmeticError when a product a_s(w) C[s, t] is
    odd over 4 or a(w) or a matrix entry outgrows int64.
    """
    if any(g.den != 4 for g in gens):
        raise DomainError("matrix has an entry whose denominator does not divide 4")
    gen_arrs = np.stack([g.numerators for g in gens])
    k = len(gens)
    later = np.tri(k, dtype=bool).T  # later[s, t]: t >= s
    # (x + y*r)(cx + cy*r) = (x*cx + kappa*y*cy) + (x*cy + y*cx)*r for r = sqrt(kappa)
    cx_cy = np.moveaxis(cartan, -1, 0)
    kcy_cx = np.stack((kappa * cartan[..., 1], cartan[..., 0]))
    bound = isqrt(kernels.INT64_MAX // (kappa + 1)) // max(1, int(np.abs(cartan).max()))
    a = np.zeros((2, 1, k), dtype=np.int64)  # a[:, w, t]: the pair (p, q) of a_t(w)
    a[0] = 2
    positive = np.ones((1, k), dtype=bool)
    plan = []  # per level after the first: the rows w and generators s of its w*s
    while True:
        moves, rows = np.nonzero(positive.T)
        # a(w*s) for each candidate w*s longer than w
        x, y = a[:, rows, moves, None]
        step = x * cx_cy[:, moves] + y * kcy_cx[:, moves]
        if (step & 1).any():
            raise ArithmeticError("a closure product a_s(w) C[s, t] is odd over 4")
        a = a[:, rows] - (step >> 1)
        if int(np.abs(a).max(initial=0)) > bound:
            raise ArithmeticError("closure values outgrew int64")
        positive = signed_squares(a[0], a[1], kappa) > 0
        keep = (positive | later[moves]).all(axis=1)
        if not keep.any():
            break
        if len(plan) + 1 == max_levels:
            raise DomainError(f"closure runs past {max_levels} levels")
        rows, moves, a, positive = rows[keep], moves[keep], a[:, keep], positive[keep]
        plan.append((rows, moves))
    # each level is one product of its rows of the level before with their generators
    ident = identity_element(gens[0].dim).numerators
    out = np.empty((1 + sum(len(rows) for rows, _ in plan),) + ident.shape, dtype=np.int64)
    out[0] = ident
    start, end = 0, 1
    for rows, moves in plan:
        out[end:end + len(rows)] = kernels.quad_matmul_batch(
            out[start + rows], gen_arrs[moves], kappa)
        start, end = end, end + len(rows)
    return out


@lru_cache(maxsize=None)
def generate(system: RootSystemId) -> ReflectionGroup:
    """The full reflection group by closure of simple-root reflections."""
    if not is_quadratic(system):
        raise DomainError(
            f"{system} has no quadratic coordinate ring; exact group "
            "generation is unsupported"
        )
    g = gram(system)
    simple = simple_roots(system)
    gens = [reflection_matrix(r, g) for r in simple]
    kappa = kappa_of(system)
    closure = _numbers_game(gens, _cartan(simple, g), kappa, root_count(system) // 2 + 1)
    return ReflectionGroup(system, closure, kappa)


def orbit(group: ReflectionGroup, v: ExactVector) -> frozenset:
    """The distinct images of v: one batched integer product over the
    whole group, then exact vectors for the distinct rows only."""
    x, den, kappa = _operand(group.numerators, group.kappa, v)
    images = kernels.quad_product(group.numerators, _int_array(x, (2, v.dim)).T, kappa)
    # each image's integer form (p_1..p_d, q_1..q_d), one row per element
    forms = images.transpose(0, 2, 1).reshape(len(images), -1)
    rows = {tuple(r) for r in forms.tolist()}
    return frozenset(ExactVector.from_numerators(r, 4 * den, kappa) for r in rows)


# -- the quaternion-pair realization of the H4 group --------------------

def h4_element_from_quaternions(
    q1: GoldenQuaternion, q2: GoldenQuaternion, conjugating: bool = False
) -> GroupElement:
    """Matrix of Q -> conj(q1) Q q2, or conj(q1) conj(Q) q2: its column j
    is the image of the unit quaternion e_j."""
    require_unit(q1)
    require_unit(q2)
    c1 = qconj(q1)
    units = _unit_vectors(4, q1.kappa)
    return GroupElement.from_columns(
        qmul(qmul(c1, qconj(e) if conjugating else e), q2) for e in units)


def _quaternion_map(a: GoldenQuaternion, right: bool = False) -> GroupElement:
    """The element of Q -> a*Q, or of Q -> Q*a when right."""
    units = _unit_vectors(4, a.kappa)
    return GroupElement.from_columns(
        qmul(e, a) if right else qmul(a, e) for e in units)


def enumerate_h4_quaternion_maps():
    """All 120*120*2 parameterized maps, deduplicated exactly.

    Returns (raw_parameterization_count, frozenset of the numerator bytes
    of the distinct matrices).
    """
    units = unit_icosians()
    right_arrs = np.stack([_quaternion_map(u, right=True).numerators for u in units])
    seen = set()
    raw = 0
    for u in units:
        left = _quaternion_map(qconj(u)).numerators
        # left- and right-multiplication matrices commute, so the batch
        # runs over right factors with a fixed trailing left factor
        prods = kernels.quad_matmul_batch(right_arrs, left, 5)
        # Q -> conj(Q) negates the columns of e_1, e_2, e_3
        conj_prods = prods.copy()
        conj_prods[:, :, 1:] *= -1
        raw += 2 * prods.shape[0]
        seen.update(_byte_rows(prods))
        seen.update(_byte_rows(conj_prods))
    return raw, frozenset(seen)
