"""Finite reflection groups as exact matrices over the quadratic field.

A matrix is stored as integers: the numerator pairs (x, y) of its entries
(x + y*sqrt(kappa))/den over one common denominator, plus kappa; every
group element has den = 4.  Products, images of vectors, equality and
hashing work on these integers: products and orbits through the batched
products of qlat.kernels, the image of one vector in Python ints.  Every
group is generated by breadth-first closure of the simple-root
reflections and keeps the closure's rows as one (order, d, d, 2) int64
array; orbits are one product over that array.

The H4 group is also realized through unit-icosian pairs q1, q2 acting
as Q -> conj(q1) Q q2 (optionally with quaternion conjugation of Q).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

import numpy as np

from . import kernels
from .quaternions import GoldenQuaternion, hamilton_matrix, qconj, require_unit
from .ring import DomainError, QuadraticRingElement, radicand
from .roots import RootSystemId, gram, is_quadratic, kappa_of, simple_roots
from .vectors import ExactVector, reflect


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
        rows = [tuple(row) for row in entries]
        # the entries, row by row, as one exact vector of length d*d
        cells = ExactVector(c for row in rows for c in row)
        x, den = cells.numerators()
        numerators = _int_array(x, (2, -1)).T.reshape(len(rows), len(rows), 2)
        self._fill(*_canonical(numerators, den), cells.kappa)

    def _fill(self, numerators: np.ndarray, den: int, kappa: int) -> None:
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

    def transpose(self) -> "GroupElement":
        return GroupElement._wrap(
            np.ascontiguousarray(self.numerators.transpose(1, 0, 2)),
            self.den, self.kappa)

    def det(self) -> QuadraticRingElement:
        return _det(self.entries)

    def is_orthogonal(self, g=None) -> bool:
        """M^T G M == G exactly (G = identity when g is None)."""
        mt = self.transpose()
        if g is None:
            return mt @ self == identity_element(self.dim)
        g = GroupElement(g)
        return mt @ g @ self == g

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


def identity_element(d: int) -> GroupElement:
    num = np.zeros((d, d, 2), dtype=np.int64)
    num[np.arange(d), np.arange(d), 0] = 4
    return GroupElement._wrap(num, 4, 5)


def reflection_matrix(r: ExactVector, g=None) -> GroupElement:
    """Matrix of the reflection in the hyperplane normal to root r: its
    column j is the reflection of the unit vector e_j."""
    d = r.dim
    columns = [reflect(ExactVector.from_numerators(
        [int(i == j) for i in range(2 * d)], 1, r.kappa), r, g) for j in range(d)]
    return GroupElement(zip(*columns))


class ReflectionGroup:
    """A finite matrix group: one (order, d, d, 2) int64 array of numerator
    pairs over the denominator 4.  Order, orbits and the byte set read the
    array; the GroupElement objects are built only when first iterated,
    indexed or tested for membership."""

    def __init__(self, system: RootSystemId, numerators: np.ndarray, kappa: int):
        self.system = system
        self.kappa = kappa
        self.numerators = numerators

    @property
    def order(self) -> int:
        return len(self.numerators)

    @cached_property
    def elements(self) -> list[GroupElement]:
        """One GroupElement per row of numerators, built on first read."""
        return [GroupElement._wrap(m, 4, self.kappa) for m in self.numerators]

    @cached_property
    def _index(self) -> dict:
        return {g: i for i, g in enumerate(self.elements)}

    def __contains__(self, g: GroupElement) -> bool:
        return g in self._index

    def __iter__(self):
        return iter(self.elements)

    def compact_byte_set(self) -> frozenset:
        return frozenset(_byte_rows(self.numerators))

    def entry_triples(self) -> np.ndarray:
        """(order, d, d, 3) array of the canonical [p, q, den] of every
        entry (p + q*sqrt(kappa))/den, in element order."""
        x, y = self.numerators[..., 0], self.numerators[..., 1]
        g = np.gcd(np.gcd(x, y), 4)
        return np.stack((x // g, y // g, 4 // g), axis=-1)


def _bfs_compact(gens: list[GroupElement], kappa: int) -> np.ndarray:
    """Every product of the generators, in breadth-first order."""
    if any(g.den != 4 for g in gens):
        raise DomainError("matrix has an entry whose denominator does not divide 4")
    gen_arrs = [g.numerators for g in gens]
    ident = identity_element(gens[0].dim).numerators
    seen = {ident.tobytes()}
    frontier = ident[None]
    levels = [frontier]
    while len(frontier):
        prods = np.concatenate(
            [kernels.quad_matmul_batch(frontier, ga, kappa) for ga in gen_arrs])
        new = []
        for i, key in enumerate(_byte_rows(prods)):
            if key not in seen:
                seen.add(key)
                new.append(i)
        frontier = prods[new]
        levels.append(frontier)
    return np.concatenate(levels)


@lru_cache(maxsize=None)
def generate(system: RootSystemId) -> ReflectionGroup:
    """The full reflection group by closure of simple-root reflections."""
    if not is_quadratic(system):
        raise DomainError(
            f"{system} has no quadratic coordinate ring; exact group "
            "generation is unsupported"
        )
    g = gram(system)
    gens = [reflection_matrix(r, g) for r in simple_roots(system)]
    kappa = kappa_of(system)
    return ReflectionGroup(system, _bfs_compact(gens, kappa), kappa)


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
    """Matrix of Q -> conj(q1) Q q2, or conj(q1) conj(Q) q2."""
    require_unit(q1)
    require_unit(q2)
    m = _quaternion_map(qconj(q1)) @ _quaternion_map(q2, right=True)
    if conjugating:
        m = m @ _quaternion_conjugation_matrix()
    return m


def _quaternion_map(a: GoldenQuaternion, right: bool = False) -> GroupElement:
    """The element of Q -> a*Q, or of Q -> Q*a when right."""
    x, den = hamilton_matrix(a, right)
    return GroupElement._wrap(*_canonical(_int_array(x, (4, 4, 2)), den), a.kappa)


def _quaternion_conjugation_matrix() -> GroupElement:
    return GroupElement(
        [(1 if i == 0 else -1) if i == j else 0 for j in range(4)]
        for i in range(4)
    )


def enumerate_h4_quaternion_maps():
    """All 120*120*2 parameterized maps, deduplicated exactly.

    Returns (raw_parameterization_count, frozenset of the numerator bytes
    of the distinct matrices).
    """
    from .quaternions import unit_icosians

    units = unit_icosians()
    right_arrs = np.stack([_quaternion_map(u, right=True).numerators for u in units])
    conj = _quaternion_conjugation_matrix().numerators
    seen = set()
    raw = 0
    for u in units:
        left = _quaternion_map(qconj(u)).numerators
        # left- and right-multiplication matrices commute, so the batch
        # runs over right factors with a fixed trailing left factor
        prods = kernels.quad_matmul_batch(right_arrs, left, 5)
        conj_prods = kernels.quad_matmul_batch(prods, conj, 5)
        raw += 2 * prods.shape[0]
        seen.update(_byte_rows(prods))
        seen.update(_byte_rows(conj_prods))
    return raw, frozenset(seen)
