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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from . import kernels
from .modules import QLModule, membership, ql
from .quaternions import GoldenQuaternion, qnorm, unit_icosians
from .ring import DomainError, QuadraticRingElement, tau
from .textio import format_element, parse_element
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
    generators: list[ExactVector]      # parallel images of the source basis
    parallel: np.ndarray               # d x N float
    perpendicular: np.ndarray          # (N-d) x N float
    cell_generators: np.ndarray        # perp images of the frame, for windows


def embedding(target: str) -> Embedding:
    """Exact-source embedding for an H3 variant or the H4 quasilattice."""
    qlm = ql(target)
    if qlm.name not in _PROJECTABLE:
        raise DomainError(f"no higher-dimensional embedding for {target} "
                          "(2D targets are out of scope)")
    gens = qlm.member_basis
    par = np.stack([g.to_floats() for g in gens], axis=1)
    perp = np.stack([g.conjugate().to_floats() for g in gens], axis=1)
    cell = np.stack([v.conjugate().to_floats() for v in qlm.frame], axis=1)
    return Embedding(
        target=qlm.name,
        source_rank=qlm.rank,
        generators=list(gens),
        parallel=par,
        perpendicular=perp,
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
    shells = [
        [u.as_vector() for u in unit_icosians()],
        [u.as_vector().scale(t - 1) for u in unit_icosians()],
    ]
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
    target: str
    window: Window
    radius: float
    coeffs: np.ndarray                  # N x r integers
    points: np.ndarray                  # N x d parallel floats
    exact: list[ExactVector] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.exact)


def _zonotope_facets(gens: np.ndarray, scale: float):
    """Facet normals/supports of the zonotope sum of [-g/2, g/2] segments."""
    d, n = gens.shape
    if d != 3:
        raise DomainError("cell windows are built for 3D perpendicular space")
    normals, supports = [], []
    for i in range(n):
        for j in range(i + 1, n):
            nv = np.cross(gens[:, i], gens[:, j])
            norm = np.linalg.norm(nv)
            if norm < 1e-12:
                continue
            nv = nv / norm
            if any(np.allclose(nv, m) or np.allclose(nv, -m) for m in normals):
                continue
            normals.append(nv)
            supports.append(0.5 * scale * np.abs(nv @ gens).sum())
    return np.array(normals), np.array(supports)


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
    qlm = ql(emb.target)
    exact = [qlm.from_basis_coefficients(row) for row in coeffs.tolist()]
    points = (
        np.array([v.to_floats() for v in exact])
        if exact else np.zeros((0, qlm.dim))
    )
    # deterministic order for serialization
    if len(exact):
        order = np.lexsort(points.T[::-1])
        coeffs, points = coeffs[order], points[order]
        exact = [exact[i] for i in order]
    return Patch(emb.target, window, float(radius), coeffs, points, exact)


def structure_factor(patch: Patch, k) -> float:
    """Normalized diffraction intensity |sum exp(i k.x)|^2 / N^2."""
    if patch.size == 0:
        raise DomainError("structure factor of an empty patch")
    return float(kernels.structure_factor_sum(patch.points, np.asarray(k))[0])


# -- CSV serialization --------------------------------------------------

def write_patch_csv(patch: Patch, path: str) -> None:
    qlm = ql(patch.target)
    d, r = qlm.dim, qlm.rank
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"x{i}" for i in range(d)]
        header += [f"exact{i}" for i in range(d)]
        header += [f"c{i}" for i in range(r)]
        writer.writerow(["# target", patch.target, "window", patch.window.shape,
                         "scale", patch.window.scale, "radius", patch.radius])
        writer.writerow(header)
        for row, v, cf in zip(patch.points, patch.exact, patch.coeffs):
            writer.writerow(
                [f"{x:.15g}" for x in row]
                + [format_element(c) for c in v.coords]
                + [int(c) for c in cf]
            )


def read_patch_csv(path: str) -> Patch:
    """The patch written by write_patch_csv; DomainError names the path of
    a file that is empty or malformed."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            return _read_patch_rows(reader)
        except (StopIteration, IndexError, ValueError) as exc:
            detail = str(exc) or "the file ends early"
            raise DomainError(f"{path}, line {reader.line_num}: "
                              f"not a patch file: {detail}") from None


def _read_patch_rows(reader) -> Patch:
    meta = next(reader)
    target = meta[1]
    window = Window(meta[3], float(meta[5]))
    radius = float(meta[7])
    header = next(reader)
    d = sum(1 for h in header if h.startswith("x"))
    r = sum(1 for h in header if h.startswith("c"))
    kappa = ql(target).kappa
    points, exact, coeffs = [], [], []
    for row in reader:
        if len(row) != 2 * d + r:
            raise ValueError(f"expected {2 * d + r} fields, found {len(row)}")
        points.append([float(x) for x in row[:d]])
        exact.append(ExactVector(
            parse_element(tok, kappa) for tok in row[d:2 * d]
        ))
        coeffs.append([int(x) for x in row[2 * d:]])
    return Patch(
        target, window, radius,
        np.array(coeffs, dtype=np.int64),
        np.array(points),
        exact,
    )
