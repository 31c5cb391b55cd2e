"""Hot numeric kernels in numpy, most with a numba-compiled twin.

Set QLAT_NO_NUMBA=1 to force the numpy path; QLAT_THREADS caps numba's
thread count.  The exact-arithmetic layers never come through here --
only integer matrix algebra in the (x + y*sqrt(kappa))/2 encoding and
float enumeration of the integer points in an ellipsoid.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .ring import DomainError

_NO_NUMBA = os.environ.get("QLAT_NO_NUMBA", "").lower() in ("1", "true", "yes")

try:
    if _NO_NUMBA:
        raise ImportError
    import numba
    from numba import njit

    if os.environ.get("QLAT_THREADS"):
        numba.set_num_threads(max(1, int(os.environ["QLAT_THREADS"])))
    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def backend() -> str:
    return "numba" if HAVE_NUMBA else "numpy"


# -- batched matrix product over (x + y*omega)/2 ------------------------
#
# omega is a quadratic integer with omega^2 = s + t*omega (tau: s=t=1;
# sqrt(kappa): s=kappa, t=0).  A matrix is a (d, d, 2) int64 array of
# numerators over a fixed denominator 2.  The product of two such
# matrices has denominator 4; group matrices always reduce back to
# denominator 2, which quad_matmul_batch asserts.

def _quad_matmul_batch_np(A: np.ndarray, B: np.ndarray, s: int, t: int) -> np.ndarray:
    ax, ay = A[..., 0], A[..., 1]
    bx, by = B[..., 0], B[..., 1]
    yy = np.einsum("nik,kj->nij", ay, by)
    cx = np.einsum("nik,kj->nij", ax, bx) + s * yy
    cy = np.einsum("nik,kj->nij", ax, by) + np.einsum("nik,kj->nij", ay, bx) + t * yy
    if (cx & 1).any() or (cy & 1).any():
        raise ArithmeticError("product left the half-integer ring")
    return np.stack((cx >> 1, cy >> 1), axis=-1)


if HAVE_NUMBA:

    @njit(cache=True)
    def _quad_matmul_batch_nb(A, B, s, t):  # pragma: no cover - jitted
        n, d = A.shape[0], A.shape[1]
        out = np.empty((n, d, d, 2), dtype=np.int64)
        for m in range(n):
            for i in range(d):
                for j in range(d):
                    cx = np.int64(0)
                    cy = np.int64(0)
                    for k in range(d):
                        ax = A[m, i, k, 0]
                        ay = A[m, i, k, 1]
                        bx = B[k, j, 0]
                        by = B[k, j, 1]
                        yy = ay * by
                        cx += ax * bx + s * yy
                        cy += ax * by + ay * bx + t * yy
                    if (cx & 1) or (cy & 1):
                        raise ArithmeticError("product left the half-integer ring")
                    out[m, i, j, 0] = cx >> 1
                    out[m, i, j, 1] = cy >> 1
        return out


def quad_matmul_batch(A: np.ndarray, B: np.ndarray, s: int, t: int) -> np.ndarray:
    """(n,d,d,2) @ (d,d,2) -> (n,d,d,2), all over denominator 2."""
    A = np.ascontiguousarray(A, dtype=np.int64)
    B = np.ascontiguousarray(B, dtype=np.int64)
    if HAVE_NUMBA:
        return _quad_matmul_batch_nb(A, B, s, t)
    return _quad_matmul_batch_np(A, B, s, t)


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


# -- minimum nonzero parallel norm over a coefficient box ---------------

def _min_norm_np(par, bounds):
    r = len(bounds)
    tail = min(3, r)
    head = r - tail
    grids = np.meshgrid(*[np.arange(-b, b + 1) for b in bounds[head:]], indexing="ij")
    tail_coeffs = np.stack([g.ravel() for g in grids], axis=1).astype(np.float64)
    tail_par = tail_coeffs @ par[:, head:].T
    best = np.inf
    head_iter = np.stack(
        np.meshgrid(*[np.arange(-b, b + 1) for b in bounds[:head]], indexing="ij"),
        axis=-1,
    ).reshape(-1, head) if head else np.zeros((1, 0))
    tail_zero = (tail_coeffs == 0).all(axis=1)
    for hc in head_iter:
        p0 = par[:, :head] @ hc.astype(np.float64) if head else np.zeros(par.shape[0])
        pp = tail_par + p0
        norms = (pp * pp).sum(axis=1)
        if head and np.any(hc):
            m = norms.min()
        else:
            nz = norms[~tail_zero]
            if nz.size == 0:
                continue
            m = nz.min()
        best = min(best, m)
    return float(np.sqrt(best))


if HAVE_NUMBA:

    @njit(cache=True)
    def _min_norm_nb(par, bounds):  # pragma: no cover - jitted
        r = bounds.shape[0]
        d = par.shape[0]
        total = np.int64(1)
        for i in range(r):
            total *= 2 * bounds[i] + 1
        best = 1e300
        coeff = np.empty(r, dtype=np.int64)
        for idx in range(total):
            rem = idx
            zero = True
            for i in range(r):
                size = 2 * bounds[i] + 1
                coeff[i] = rem % size - bounds[i]
                if coeff[i] != 0:
                    zero = False
                rem //= size
            if zero:
                continue
            s = 0.0
            for a in range(d):
                x = 0.0
                for i in range(r):
                    x += par[a, i] * coeff[i]
                s += x * x
            if s < best:
                best = s
        return np.sqrt(best)


def min_nonzero_norm(par, bounds) -> float:
    """min |par @ m| over nonzero integer m with |m_i| <= bounds_i."""
    par = np.ascontiguousarray(par, dtype=np.float64)
    bounds = np.ascontiguousarray(bounds, dtype=np.int64)
    if HAVE_NUMBA:
        return float(_min_norm_nb(par, bounds))
    return _min_norm_np(par, bounds)


# -- structure factor by direct summation -------------------------------

def _structure_factor_np(points, ks):
    phases = points @ ks.T
    re = np.cos(phases).sum(axis=0)
    im = np.sin(phases).sum(axis=0)
    n = points.shape[0]
    return (re * re + im * im) / (n * n)


if HAVE_NUMBA:

    @njit(cache=True)
    def _structure_factor_nb(points, ks):  # pragma: no cover - jitted
        n, d = points.shape
        m = ks.shape[0]
        out = np.empty(m)
        for j in range(m):
            re = 0.0
            im = 0.0
            for i in range(n):
                phase = 0.0
                for a in range(d):
                    phase += points[i, a] * ks[j, a]
                re += np.cos(phase)
                im += np.sin(phase)
            out[j] = (re * re + im * im) / (n * n)
        return out


def structure_factor_sum(points: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Normalized |sum exp(i k.x)|^2 / N^2 for each row k of ks."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    ks = np.ascontiguousarray(np.atleast_2d(ks), dtype=np.float64)
    if HAVE_NUMBA:
        return _structure_factor_nb(points, ks)
    return _structure_factor_np(points, ks)
