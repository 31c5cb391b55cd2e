"""Hot numeric kernels in numpy.

The exact-arithmetic layers never come through here -- only integer
matrix algebra on the numerators of (x + y*sqrt(kappa))/den entries,
float enumeration of the integer points in an ellipsoid and
structure-factor sums.
"""

from __future__ import annotations

import math

import numpy as np

from .ring import DomainError


# -- matrix products over (x + y*sqrt(kappa)) ---------------------------
#
# A matrix is a (d, d, 2) integer array of numerator pairs (x, y) over a
# common denominator; the numerators of a product are products of
# numerators.  Group matrices use the fixed denominator 4: the product of
# two has denominator 16 and always reduces back to 4, which
# quad_matmul_batch asserts.

INT64_MAX = int(np.iinfo(np.int64).max)


def quad_product(a: np.ndarray, b: np.ndarray, kappa: int) -> np.ndarray:
    """Numerator pairs of a @ b for a of shape (..., d, d, 2) and b of shape
    (d, 2), (d, d, 2) or, batched, (n, d, d, 2) against a of shape
    (n, d, d, 2), giving a[k] @ b[k]; in Python ints (object dtype) when
    int64 could overflow.

    One integer matmul: the pairs of a, read as rows of length 2d, meet
    the rows (bx, by) and (kappa*by, bx) of b, since
    (ax + ay*s)(bx + by*s) = ax*bx + kappa*ay*by + (ax*by + ay*bx)*s
    for s = sqrt(kappa).
    """
    d = a.shape[-2]
    wide = object in (a.dtype, b.dtype) or (
        int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
        * d * (kappa + 1) > INT64_MAX)
    dtype = object if wide else np.int64
    batch = b.shape[:-3]
    pairs = b.reshape(batch + (d, -1, 2))
    w = np.empty(batch + (d, 2) + pairs.shape[-2:], dtype=dtype)
    w[..., 0, :, :] = pairs
    w[..., 1, :, 0] = pairs[..., 1] * kappa
    w[..., 1, :, 1] = pairs[..., 0]
    rows = a.reshape(a.shape[:-2] + (2 * d,)).astype(dtype, copy=False)
    return (rows @ w.reshape(batch + (2 * d, -1))).reshape(
        a.shape[:-2] + b.shape[len(batch) + 1:])


def quad_matmul_batch(A: np.ndarray, B: np.ndarray, kappa: int) -> np.ndarray:
    """(n,d,d,2) @ (d,d,2) or, row by row, (n,d,d,2) @ (n,d,d,2) ->
    (n,d,d,2), all over denominator 4."""
    c = quad_product(np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64),
                     kappa)
    if (c & 3).any():
        raise ArithmeticError("product left the quarter-integer ring")
    return c >> 2


# -- integer points of an ellipsoid (Fincke-Pohst) ----------------------
#
# U. Fincke and M. Pohst, Math. Comp. 44 (1985) 463.

MAX_CANDIDATES = 3_000_000
"""Enumerations expected to hold more live vectors than this are refused."""

MAX_PATCH_POINTS = 100_000
"""Patches with more accepted points than this are refused, to bound the
output and its memory: a patch file takes about 110 bytes per H4 point,
and reading it back regenerates the patch and holds the file's bytes and
the writer's at once, about 0.85 kB an H4 point at the peak."""


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
    # |basis @ c| does not depend on the row order, and rows sorted by
    # decreasing size keep the factor accurate when their scales differ by
    # many orders of magnitude (Cox and Higham, BIT 38 (1998) 24)
    u = np.linalg.qr(basis[np.argsort(-np.abs(basis).max(axis=1))], mode="r")
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

MAX_PAIRS = 1_000_000_000
"""Structure factors over more (point, k) pairs are refused: about 45 s
at the 2.3e7 pairs per second of a 2-vCPU VM."""

MAX_CHUNK_PHASES = 1 << 20  # phases held at once

MAX_PHASE = 2.0 ** 53  # a float phase this large has no fractional part


def structure_factor_sum(points: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Normalized |sum exp(i k.x)|^2 / N^2 for each row k of ks.

    The k vectors go in even chunks of at most MAX_CHUNK_PHASES phases and
    of two k or more: numpy sums one column pairwise but wider ones row by
    row, so each k is summed alike wherever the chunks fall.  More than
    MAX_PAIRS pairs, or phases that could pass MAX_PHASE (d * max|k| * max|x|
    does), is a DomainError, raised before any phase is computed.
    """
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        raise DomainError("structure factor of an empty patch")
    ks = np.atleast_2d(np.asarray(ks, dtype=np.float64))
    n, m = len(points), len(ks)
    if n * m > MAX_PAIRS:
        raise DomainError(
            f"structure factors of {n} points at {m} k vectors would sum "
            f"{n * m:.3g} phases, over the limit of {MAX_PAIRS:.3g}; "
            "use fewer k vectors or a smaller patch")
    phase = points.shape[1] * float(np.abs(ks).max(initial=0)) * float(np.abs(points).max())
    if phase > MAX_PHASE:
        raise DomainError(
            f"phases k.x could reach {phase:.3g}, past {MAX_PHASE:.3g}, where a "
            "float has no fractional part; use smaller k vectors")
    width = max(1, MAX_CHUNK_PHASES // n)
    chunks = max(1, min(-(-m // width), m // 2))
    return np.concatenate([_intensities(points, part)
                           for part in np.array_split(ks, chunks)])


def _intensities(points: np.ndarray, ks: np.ndarray) -> np.ndarray:
    phases = points @ ks.T
    re = np.cos(phases).sum(axis=0)
    im = np.sin(phases).sum(axis=0)
    n = points.shape[0]
    return (re * re + im * im) / (n * n)
