"""Hot numeric kernels in numpy.

The exact-arithmetic layers never come through here -- only integer
matrix algebra in the (x + y*sqrt(kappa))/4 encoding, float enumeration
of the integer points in an ellipsoid and structure-factor sums.
"""

from __future__ import annotations

import math

import numpy as np

from .ring import DomainError


# -- batched matrix product over (x + y*sqrt(kappa))/4 -------------------
#
# A matrix is a (d, d, 2) int64 array of numerator pairs (x, y) over the
# fixed denominator 4.  The product of two such matrices has denominator
# 16; group matrices always reduce back to denominator 4, which
# quad_matmul_batch asserts.

def quad_matmul_batch(A: np.ndarray, B: np.ndarray, kappa: int) -> np.ndarray:
    """(n,d,d,2) @ (d,d,2) -> (n,d,d,2), all over denominator 4."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    ax, ay = A[..., 0], A[..., 1]
    bx, by = B[..., 0], B[..., 1]
    cx = ax @ bx + kappa * (ay @ by)
    cy = ax @ by + ay @ bx
    if (cx & 3).any() or (cy & 3).any():
        raise ArithmeticError("product left the quarter-integer ring")
    return np.stack((cx >> 2, cy >> 2), axis=-1)


# -- integer points of an ellipsoid (Fincke-Pohst) ----------------------
#
# U. Fincke and M. Pohst, Math. Comp. 44 (1985) 463.

MAX_CANDIDATES = 3_000_000
"""Enumerations expected to hold more live vectors than this are refused."""


def _widest_level(diag: np.ndarray, bound: float) -> float:
    """Expected number of live vectors at the widest enumeration level.

    After the last k coordinates are fixed, the live vectors are the integer
    points of the projected k-dimensional ellipsoid, of volume
    vol(B_k) * bound^(k/2) / prod(diag[n-k:]).
    """
    k = np.arange(1, len(diag) + 1)
    log_ball = 0.5 * k * np.log(np.pi * bound) - [math.lgamma(0.5 * j + 1) for j in k]
    with np.errstate(divide="ignore"):
        log_det = np.cumsum(np.log(diag[::-1]))
    return float(np.exp(min(np.max(log_ball - log_det), 700.0)))


def ellipsoid_points(basis: np.ndarray, bound: float) -> np.ndarray:
    """Every integer vector c with |basis @ c|^2 <= bound (up to a relative
    slack of 1e-9), as an (N, n) int64 array in no particular order.

    With basis = O @ U for U upper triangular, |basis @ c|^2 is the sum of
    the squared rows of U @ c, and row i involves only c[i:].  The
    coordinates are fixed from the last to the first; each live vector
    branches into the integers its remaining budget allows, and every level
    is one vectorised expansion.  Raises DomainError when the widest level
    is expected to exceed MAX_CANDIDATES, before anything is allocated.
    """
    basis = np.asarray(basis, dtype=np.float64)
    n = basis.shape[1]
    u = np.linalg.qr(basis, mode="r")
    u *= np.where(np.diag(u) < 0, -1.0, 1.0)[:, None]
    diag = np.diag(u)
    widest = _widest_level(diag, bound)
    if not widest <= MAX_CANDIDATES:
        raise DomainError(
            f"enumeration would hold about {widest:.3g} candidate vectors, "
            f"over the limit of {MAX_CANDIDATES:.3g}; "
            "use a smaller radius or window scale")
    limit = bound * (1 + 1e-9)
    partial = np.zeros((1, n))  # rows of U @ c over the fixed coordinates
    used = np.zeros(1)          # squared norm of the completed rows
    levels = []                 # (parent index, coordinate) per live vector
    for i in range(n - 1, -1, -1):
        centre = -partial[:, i] / diag[i]
        half = np.sqrt(np.maximum(limit - used, 0.0)) / diag[i]
        lo = np.ceil(centre - half)
        counts = np.maximum(np.floor(centre + half) - lo + 1, 0).astype(np.int64)
        parent = np.repeat(np.arange(len(counts)), counts)
        first = np.cumsum(counts) - counts
        value = lo[parent] + (np.arange(len(parent)) - first[parent])
        levels.append((parent, value))
        if i:
            partial = partial[parent, :i + 1] + value[:, None] * u[:i + 1, i]
            used = used[parent] + partial[:, i] ** 2
            partial = partial[:, :i]
    # walk each leaf back to the root, first coordinate first
    coeffs = np.empty((len(value), n), dtype=np.int64)
    node = np.arange(len(value))
    for i, (parent, value) in enumerate(reversed(levels)):
        coeffs[:, i] = value[node]
        node = parent[node]
    return coeffs


# -- structure factor by direct summation -------------------------------

def structure_factor_sum(points: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Normalized |sum exp(i k.x)|^2 / N^2 for each row k of ks."""
    points = np.asarray(points, dtype=np.float64)
    ks = np.atleast_2d(np.asarray(ks, dtype=np.float64))
    phases = points @ ks.T
    re = np.cos(phases).sum(axis=0)
    im = np.sin(phases).sum(axis=0)
    n = points.shape[0]
    return (re * re + im * im) / (n * n)
