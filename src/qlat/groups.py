"""Finite reflection groups as exact matrices over the quadratic field.

Every group is generated by breadth-first closure of the simple-root
reflections; the hot inner loop (batched matrix products in the
(x + y*sqrt(kappa))/4 integer encoding) runs through qlat.kernels.

The H4 group is also realized through unit-icosian pairs q1, q2 acting
as Q -> conj(q1) Q q2 (optionally with quaternion conjugation of Q).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .quaternions import (
    GoldenQuaternion,
    left_matrix,
    qconj,
    require_unit,
    right_matrix,
)
from .ring import DomainError, QuadraticRingElement
from .roots import RootSystemId, gram, is_quadratic, kappa_of, simple_roots
from .vectors import ExactVector


class GroupElement:
    """Exact d x d matrix over the coordinate field of its root system."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(tuple(row) for row in entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        d = self.dim
        return GroupElement(
            tuple(
                tuple(
                    sum(
                        (self.entries[i][k] * other.entries[k][j] for k in range(d)),
                        QuadraticRingElement(0),
                    )
                    for j in range(d)
                )
                for i in range(d)
            )
        )

    def apply(self, v: ExactVector) -> ExactVector:
        d = self.dim
        return ExactVector(
            sum((self.entries[i][k] * v.coords[k] for k in range(d)),
                QuadraticRingElement(0))
            for i in range(d)
        )

    def transpose(self) -> "GroupElement":
        d = self.dim
        return GroupElement(
            tuple(tuple(self.entries[j][i] for j in range(d)) for i in range(d))
        )

    def det(self) -> QuadraticRingElement:
        d = self.dim
        if d == 2:
            e = self.entries
            return e[0][0] * e[1][1] - e[0][1] * e[1][0]
        total = QuadraticRingElement(0)
        for j in range(d):
            minor = GroupElement(
                tuple(row[:j] + row[j + 1:] for row in self.entries[1:])
            )
            term = self.entries[0][j] * minor.det()
            total = total + (term if j % 2 == 0 else -term)
        return total

    def is_orthogonal(self, g=None) -> bool:
        """M^T G M == G exactly (G = identity when g is None)."""
        d = self.dim
        mt = self.transpose()
        prod = mt @ self if g is None else mt @ GroupElement(g) @ self
        target = (
            identity_element(d) if g is None else GroupElement(g)
        )
        return prod == target

    def __repr__(self):
        return f"GroupElement(dim={self.dim})"


def identity_element(d: int) -> GroupElement:
    one = QuadraticRingElement(1)
    zero = QuadraticRingElement(0)
    return GroupElement(
        tuple(tuple(one if i == j else zero for j in range(d)) for i in range(d))
    )


def reflection_matrix(r: ExactVector, g=None) -> GroupElement:
    """Matrix of the reflection in the hyperplane normal to root r."""
    d = r.dim
    if r.is_zero():
        raise DomainError("cannot reflect in a zero root")
    if g is None:
        gr = list(r.coords)
        rr = r.dot(r)
    else:
        gr = [
            sum((g[i][j] * r.coords[j] for j in range(d)), QuadraticRingElement(0))
            for i in range(d)
        ]
        rr = sum((r.coords[i] * gr[i] for i in range(d)), QuadraticRingElement(0))
    ident = identity_element(d)
    return GroupElement(
        tuple(
            tuple(
                ident.entries[i][j] - (r.coords[i] * gr[j] * 2) / rr
                for j in range(d)
            )
            for i in range(d)
        )
    )


# -- compact integer encoding ------------------------------------------
#
# An entry (p + q*sqrt(kappa))/den with den dividing 4 is stored as its
# numerator pair over the fixed denominator 4; every group entry has one.

def matrix_to_compact(m: GroupElement) -> np.ndarray:
    d = m.dim
    out = np.empty((d, d, 2), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            c = m.entries[i][j]
            if 4 % c.den:
                raise DomainError(f"entry {c} has a denominator not dividing 4")
            out[i, j] = (c.p * (4 // c.den), c.q * (4 // c.den))
    return out


def compact_to_matrix(arr: np.ndarray, kappa: int) -> GroupElement:
    return GroupElement(
        tuple(QuadraticRingElement(p, q, kappa, 4) for p, q in row)
        for row in arr.tolist()
    )


@dataclass
class ReflectionGroup:
    system: RootSystemId
    elements: list[GroupElement]

    def __post_init__(self):
        self._index = {g: i for i, g in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g in self._index

    def __iter__(self):
        return iter(self.elements)

    def compact_byte_set(self) -> frozenset:
        return frozenset(
            matrix_to_compact(g).tobytes() for g in self.elements
        )


def _bfs_compact(gens: list[GroupElement], kappa: int) -> list[np.ndarray]:
    d = gens[0].dim
    gen_arrs = [matrix_to_compact(g) for g in gens]
    ident = matrix_to_compact(identity_element(d))
    seen = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        stack = np.stack(frontier)
        frontier = []
        for ga in gen_arrs:
            prods = kernels.quad_matmul_batch(stack, ga, kappa)
            for i in range(prods.shape[0]):
                key = prods[i].tobytes()
                if key not in seen:
                    seen[key] = prods[i]
                    frontier.append(prods[i])
    return list(seen.values())


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
    elements = [compact_to_matrix(a, kappa) for a in _bfs_compact(gens, kappa)]
    return ReflectionGroup(system, elements)


def orbit(group: ReflectionGroup, v: ExactVector) -> frozenset:
    return frozenset(g.apply(v) for g in group)


# -- the quaternion-pair realization of the H4 group --------------------

def h4_element_from_quaternions(
    q1: GoldenQuaternion, q2: GoldenQuaternion, conjugating: bool = False
) -> GroupElement:
    """Matrix of Q -> conj(q1) Q q2, or conj(q1) conj(Q) q2."""
    require_unit(q1)
    require_unit(q2)
    m = GroupElement(left_matrix(qconj(q1))) @ GroupElement(right_matrix(q2))
    if conjugating:
        m = m @ _quaternion_conjugation_matrix()
    return m


def _quaternion_conjugation_matrix() -> GroupElement:
    one = QuadraticRingElement(1)
    zero = QuadraticRingElement(0)
    rows = []
    for i in range(4):
        rows.append(tuple(
            (one if i == 0 else -one) if i == j else zero for j in range(4)
        ))
    return GroupElement(rows)


def enumerate_h4_quaternion_maps():
    """All 120*120*2 parameterized maps, deduplicated exactly.

    Returns (raw_parameterization_count, frozenset of compact matrix bytes).
    """
    from .quaternions import unit_icosians

    units = unit_icosians()
    right_arrs = np.stack(
        [matrix_to_compact(GroupElement(right_matrix(u))) for u in units]
    )
    conj = matrix_to_compact(_quaternion_conjugation_matrix())
    seen = set()
    raw = 0
    for u in units:
        left = matrix_to_compact(GroupElement(left_matrix(qconj(u))))
        # left- and right-multiplication matrices commute, so the batch
        # runs over right factors with a fixed trailing left factor
        prods = kernels.quad_matmul_batch(right_arrs, left, 5)
        conj_prods = kernels.quad_matmul_batch(prods, conj, 5)
        raw += 2 * prods.shape[0]
        for i in range(prods.shape[0]):
            seen.add(prods[i].tobytes())
            seen.add(conj_prods[i].tobytes())
    return raw, frozenset(seen)
