"""Small exact linear algebra over the rationals and integers.

Everything here is desk-scale (matrices up to 8x8, generator lists up to
a few hundred rows), so plain Gauss-Jordan over Fraction and a textbook
row-style Hermite normal form are enough.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_inverse(a: Sequence[Sequence[Fraction]]) -> Matrix:
    n = len(a)
    aug = [[Fraction(x) for x in row] + identity(n)[i] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def hnf_rows(gen_rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite normal form basis of the lattice spanned by gen_rows.

    Returns the nonzero rows (a basis when the input has full column rank).
    """
    pool = [list(map(int, r)) for r in gen_rows if any(r)]
    if not pool:
        return []
    ncols = len(pool[0])
    basis: list[list[int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        sel = [r for r in pool if r[col] != 0]
        rest = [r for r in pool if r[col] == 0]
        if not sel:
            pool = rest
            continue
        # gcd-reduce the selected rows down to a single pivot row
        while len(sel) > 1:
            sel.sort(key=lambda r: abs(r[col]))
            piv = sel[0]
            keep = [piv]
            for r in sel[1:]:
                q = r[col] // piv[col]
                nr = [x - q * y for x, y in zip(r, piv)]
                if nr[col] != 0:
                    keep.append(nr)
                elif any(nr):
                    rest.append(nr)
            sel = keep
        piv = sel[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        pivots.append(col)
        pool = rest
    # reduce entries above pivots for a canonical form
    for i in range(len(basis) - 1, -1, -1):
        col = pivots[i]
        for j in range(i):
            q = basis[j][col] // basis[i][col]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    return basis
