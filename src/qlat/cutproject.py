"""Cut-and-project constructions: Z^6-family lattices onto the H3
quasilattices, and the E8 root lattice onto the icosians.

Parallel space carries the exact golden coordinates of the target
quasilattice; perpendicular space is the Galois conjugate (tau -> 1-tau)
image.  The E8 inner product on the 8D source is the trace form
x + conj(x) + (x - conj(x))/sqrt(5) applied to the golden 4D dot.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .modules import QLModule, ql
from .quaternions import unit_icosians
from .ring import DomainError, QuadraticRingElement, tau
from .textio import format_numerators
from .vectors import ExactVector

_PROJECTABLE = ("H3-primitive", "H3-fcc", "H3-bcc", "H4")


@dataclass(frozen=True)
class Window:
    shape: str = "cell"  # "cell" | "ball"
    scale: float = 1.0

    def __post_init__(self):
        if self.shape not in ("cell", "ball"):
            raise DomainError(f"unknown window shape {self.shape!r}")
        if not 0 < self.scale < math.inf:
            raise DomainError("window scale must be a positive finite number")


@dataclass
class Embedding:
    target: str
    source_rank: int
    parallel: np.ndarray               # d x N float
    perpendicular: np.ndarray          # (N-d) x N float
    cell_generators: np.ndarray        # perp images of the frame, for windows


def embedding(target: str) -> Embedding:
    """Exact-source embedding for an H3 variant or the H4 quasilattice."""
    qlm = ql(target)
    if qlm.name not in _PROJECTABLE:
        raise DomainError(f"no higher-dimensional embedding for {target} "
                          "(2D targets are out of scope)")
    # the member basis vectors are (P + Q*sqrt(kappa))/den, their Galois
    # conjugates (P - Q*sqrt(kappa))/den, as in _coordinates
    p, q = np.split(np.array(qlm._basis_rows, dtype=np.int64), 2)
    root, den = math.sqrt(qlm.kappa), qlm._basis_den
    cell = np.stack([v.conjugate().to_floats() for v in qlm.frame], axis=1)
    return Embedding(
        target=qlm.name,
        source_rank=qlm.rank,
        parallel=(p + q * root) / den,
        perpendicular=(p - q * root) / den,
        cell_generators=cell,
    )


# -- the E8 source lattice ---------------------------------------------

def _trace_form(x: QuadraticRingElement) -> int:
    """x + conj(x) + (x - conj(x))/sqrt(5); integral on the icosian lattice."""
    num = 2 * (x.p + x.q)
    if num % x.den:
        raise ArithmeticError("trace form left the integers")
    return num // x.den


def e8_bilinear(v: ExactVector, w: ExactVector) -> int:
    """E8 inner product of two source (icosian-ring) vectors."""
    return _trace_form(v.dot(w))


def e8_gram() -> np.ndarray:
    """Gram matrix of the 8 source generators (even, determinant +-1)."""
    gens = ql("H4").member_basis
    n = len(gens)
    return np.array(
        [[e8_bilinear(gens[i], gens[j]) for j in range(n)] for i in range(n)],
        dtype=np.int64,
    )


@lru_cache(maxsize=1)
def e8_roots() -> tuple[tuple[int, ...], ...]:
    """The 240 norm-2 source vectors, as integer generator coefficients.

    Their parallel images are the 120 unit icosians together with the
    120 quaternions (tau - 1) * (unit icosian).
    """
    qlm = ql("H4")
    t = tau()
    shells = [unit_icosians(), [u.scale(t - 1) for u in unit_icosians()]]
    out = []
    for shell in shells:
        for v in shell:
            coeffs = qlm.basis_coefficients(v)
            assert all(c.denominator == 1 for c in coeffs)
            out.append(tuple(c.numerator for c in coeffs))
    return tuple(out)


# -- patch generation ---------------------------------------------------

@dataclass
class Patch:
    """A finite patch, stored as the member-basis coefficients of its
    points; the float points are derived from them by _coordinates."""

    target: str
    window: Window
    radius: float
    coeffs: np.ndarray                  # N x r integers
    points: np.ndarray                  # N x d parallel floats

    @property
    def size(self) -> int:
        return len(self.coeffs)

    @cached_property
    def exact(self) -> list[ExactVector]:
        """The exact points, built on first use."""
        qlm = ql(self.target)
        return [qlm.from_basis_coefficients(row) for row in self.coeffs.tolist()]


def _coordinates(qlm: QLModule, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 2d) int64 numerators (p_1..p_d, q_1..q_d) of the points with
    basis coefficient rows coeffs, whose coordinates are
    (p_j + q_j*sqrt(kappa)) / qlm._basis_den, and those points in float64."""
    rows = np.array(qlm._basis_rows, dtype=np.int64)
    if (int(np.abs(coeffs).max(initial=0)) * int(np.abs(rows).max()) * qlm.rank
            > kernels.INT64_MAX):
        raise DomainError("coefficients too large for 64-bit numerators")
    numerators = coeffs @ rows.T
    p, q = np.split(numerators, 2, axis=1)
    return numerators, (p + q * math.sqrt(qlm.kappa)) / qlm._basis_den


def _zonotope_facets(gens: np.ndarray, scale: float):
    """Facet normals/supports of the zonotope sum of [-g/2, g/2] segments."""
    d, n = gens.shape
    if d != 3:
        raise DomainError(f"cell windows are built for 3D perpendicular space, "
                          f"not {d}D; use a ball window (--window ball)")
    # unit normals of the planes spanned by each pair of generators, the
    # first of each parallel family kept
    i, j = np.triu_indices(n, 1)
    normals = np.cross(gens[:, i].T, gens[:, j].T)
    norms = np.linalg.norm(normals, axis=1)
    normals = normals[norms >= 1e-12] / norms[norms >= 1e-12, None]
    parallel = np.abs(normals @ normals.T) > 1 - 1e-9
    normals = normals[~np.tril(parallel, -1).any(axis=1)]
    return normals, 0.5 * scale * np.abs(normals @ gens).sum(axis=1)


def _window_circumradius(emb: Embedding, window: Window) -> float:
    if window.shape == "ball":
        return window.scale
    return 0.5 * window.scale * np.linalg.norm(emb.cell_generators, axis=0).sum()


def generate_patch(emb: Embedding, window: Window, radius: float) -> Patch:
    """All quasilattice points within the radius ball whose perpendicular
    image lies inside the window."""
    if not 0 < radius < math.inf:
        raise DomainError("radius must be a positive finite number")
    if window.shape == "cell":
        normals, supports = _zonotope_facets(emb.cell_generators, window.scale)
    # w bounds the window, so every wanted c has |par c|^2/r2 + |perp c|^2/w^2 <= 2
    r2 = radius * radius + 1e-9
    w = _window_circumradius(emb, window)
    coeffs = kernels.ellipsoid_points(
        np.vstack([emb.parallel / math.sqrt(r2), emb.perpendicular / w]), 2.0)
    qq = coeffs @ emb.perpendicular.T
    if window.shape == "ball":
        # dividing first keeps the test alive where scale**2 underflows
        keep = ((qq / window.scale) ** 2).sum(axis=1) < 1
    else:
        keep = np.ones(len(qq), dtype=bool)
        # one facet at a time keeps memory linear in the candidates; the
        # relative slack leaves out points on a facet at every scale
        for nv, support in zip(normals, supports):
            keep &= np.abs(qq @ nv) < support * (1 - 1e-12)
    coeffs = coeffs[keep]
    pp = coeffs @ emb.parallel.T
    coeffs = coeffs[(pp * pp).sum(axis=1) <= r2]
    if len(coeffs) > kernels.MAX_PATCH_POINTS:
        raise DomainError(
            f"patch would hold {len(coeffs)} points, over the limit of "
            f"{kernels.MAX_PATCH_POINTS:.3g}; use a smaller radius or window scale")
    points = _coordinates(ql(emb.target), coeffs)[1]
    # deterministic order for serialization
    order = np.lexsort(points.T[::-1])
    return Patch(emb.target, window, float(radius), coeffs[order], points[order])


def structure_factor(patch: Patch, k) -> float:
    """Normalized diffraction intensity |sum exp(i k.x)|^2 / N^2."""
    return float(kernels.structure_factor_sum(patch.points, np.asarray(k))[0])


# -- CSV serialization --------------------------------------------------

def _patch_lines(patch: Patch):
    """The lines write_patch_csv writes, as lists of strings: the metadata,
    the column names, then each point's floats, exact coordinates and
    coefficients, all derived from the coefficients."""
    qlm = ql(patch.target)
    d, kappa, den = qlm.dim, qlm.kappa, qlm._basis_den
    yield ["# target", patch.target, "window", patch.window.shape,
           "scale", str(patch.window.scale), "radius", str(patch.radius)]
    yield ([f"x{i}" for i in range(d)] + [f"exact{i}" for i in range(d)]
           + [f"c{i}" for i in range(qlm.rank)])
    numerators, points = _coordinates(qlm, patch.coeffs)
    for x, y, c in zip(points.tolist(), numerators.tolist(), patch.coeffs.tolist()):
        yield ([f"{v:.15g}" for v in x]
               + [format_numerators(p, q, kappa, den) for p, q in zip(y[:d], y[d:])]
               + [str(v) for v in c])


def write_patch_csv(patch: Patch, path: str) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(_patch_lines(patch))


def read_patch_csv(path: str) -> Patch:
    """The patch written by write_patch_csv, its points derived from the
    coefficient columns.  DomainError names the path and line of a file
    that is empty or malformed, or has a line other than the one the
    writer gives for those coefficients."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            patch = _read_patch_coeffs(reader)
            fh.seek(0)
            reader = csv.reader(fh)
            for got, want in zip(reader, _patch_lines(patch)):
                if got != want:
                    raise ValueError("the line is not the one written for "
                                     "these coefficients")
        except (StopIteration, ValueError) as exc:
            detail = str(exc) or "the file ends early"
            raise DomainError(f"{path}, line {reader.line_num}: "
                              f"not a patch file: {detail}") from None
    return patch


def _read_patch_coeffs(reader) -> Patch:
    """The patch a file's metadata and coefficient columns give."""
    _, target, _, shape, _, scale, _, radius = next(reader)
    qlm = ql(target)
    next(reader)
    width = 2 * qlm.dim + qlm.rank
    coeffs = []
    for row in reader:
        if len(row) != width:
            raise ValueError(f"expected {width} fields, found {len(row)}")
        coeffs.append([int(x) for x in row[2 * qlm.dim:]])
        if max(map(abs, coeffs[-1])) > kernels.INT64_MAX:
            raise ValueError("a coefficient does not fit in 64 bits")
    coeffs = np.array(coeffs, dtype=np.int64).reshape(-1, qlm.rank)
    return Patch(qlm.name, Window(shape, float(scale)), float(radius), coeffs,
                 _coordinates(qlm, coeffs)[1])
