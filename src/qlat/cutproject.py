"""Cut-and-project constructions: Z^6-family lattices onto the H3
quasilattices, and the E8 root lattice onto the icosians.

Parallel space carries the exact golden coordinates of the target
quasilattice; perpendicular space is the Galois conjugate (tau -> 1-tau)
image.  The E8 inner product on the 8D source is the trace form
x + conj(x) + (x - conj(x))/sqrt(5) applied to the golden 4D dot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from . import kernels
from .modules import QLModule, ql
from .ring import DomainError, QuadraticRingElement
from .textio import format_numerators
from .vectors import ExactVector

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
    if qlm.dim == 2:
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
    """The 240 norm-2 source vectors, as integer generator coefficients in
    lexicographic order: the points of c.G.c <= 2 for the E8 Gram matrix G,
    enumerated as patches are, with c.G.c = 2 exactly.  Their parallel images
    are the 120 unit icosians and the 120 quaternions (tau - 1) * (unit icosian).
    """
    g = e8_gram()
    points = kernels.ellipsoid_points(np.linalg.cholesky(g).T, 2.0)
    norms = np.einsum("ni,ij,nj->n", points, g, points)
    return tuple(sorted(map(tuple, points[norms == 2].tolist())))


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
        """The exact points, built on first use from the numerators that
        _coordinates gives for the coefficients."""
        qlm = ql(self.target)
        numerators = _coordinates(qlm, self.coeffs)[0]
        return [ExactVector.from_numerators(row, qlm._basis_den, qlm.kappa)
                for row in numerators.tolist()]


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
    """The largest distance from the origin to a point of the window; for
    a cell, to a zonotope vertex 0.5*(+-g_1 +- ... +- g_n)."""
    if window.shape == "ball":
        return window.scale
    gens = emb.cell_generators
    signs = np.array(list(product((-0.5, 0.5), repeat=gens.shape[1])))
    return window.scale * np.linalg.norm(signs @ gens.T, axis=1).max()


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
#
# A patch file holds a metadata row, the column names, then one row per
# point: its floats x_j, exact coordinates exact_j and coefficients c_i,
# comma-joined, one CRLF-ended line a row.  A patch is fixed by its target,
# window and radius, so the metadata row fixes every other byte: the reader
# regenerates the patch it names and compares the bytes _text gives the
# writer.  x_j and exact_j depend only on the numerator pair (p_j, q_j), and
# a patch has few distinct pairs and coefficients, so each is formatted once.

def _text(patch: Patch) -> bytes:
    """The bytes of the patch's file."""
    qlm = ql(patch.target)
    numerators, points = _coordinates(qlm, patch.coeffs)
    d, coeffs = qlm.dim, patch.coeffs
    fields = np.empty((len(coeffs), 2 * d + qlm.rank), dtype=object)
    for j in range(d):
        first, inverse = _distinct_pairs(numerators[:, j], numerators[:, d + j])
        fields[:, j] = _table([f"{x:.15g}" for x in points[first, j].tolist()])[inverse]
        p, q = numerators[first][:, [j, d + j]].T.tolist()
        fields[:, d + j] = _table([format_numerators(a, b, qlm.kappa, qlm._basis_den)
                                   for a, b in zip(p, q)])[inverse]
    values, inverse = np.unique(coeffs, return_inverse=True)
    fields[:, 2 * d:] = _table(list(map(str, values.tolist())))[inverse.reshape(coeffs.shape)]
    rows = [["# target", patch.target, "window", patch.window.shape,
             "scale", str(patch.window.scale), "radius", str(patch.radius)],
            [f"x{i}" for i in range(d)] + [f"exact{i}" for i in range(d)]
            + [f"c{i}" for i in range(qlm.rank)]] + fields.tolist()
    return ("\r\n".join(map(",".join, rows)) + "\r\n").encode()


def _distinct_pairs(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A row holding each distinct pair (p[i], q[i]), and each row's pair
    number.  Pairs are keyed by the ranks of p and q, so the key stays
    below len(p)**2 whatever the values."""
    _, p_rank = np.unique(p, return_inverse=True)
    q_values, q_rank = np.unique(q, return_inverse=True)
    _, first, inverse = np.unique(p_rank * len(q_values) + q_rank,
                                  return_index=True, return_inverse=True)
    return first, inverse


def _table(strings: list[str]) -> np.ndarray:
    return np.array(strings, dtype=object)


def write_patch_csv(patch: Patch, path: str) -> None:
    text = _text(patch)  # rendering after open() truncates the file measured slower
    with open(path, "wb") as fh:
        fh.write(text)


def read_patch_csv(path: str) -> Patch:
    """The patch whose file write_patch_csv writes at path.

    The metadata row names a target, a window and a radius, and so a
    patch: the reader regenerates it with generate_patch and returns it if
    the file is the writer's bytes for it, CRLF or LF line endings alike.
    It reads at most one byte more than the writer writes.  DomainError
    names the path and line of any other file: line 1 when the metadata
    row names no patch, otherwise the first line that differs from the
    writer's.  While windows are decided in floats, whether a file is
    accepted rests on the float decisions of generate_patch."""
    line = 1  # where a refusal points until the comparison finds a line
    try:
        with open(path, "rb") as fh:
            head = fh.readline(1024)  # a metadata row is under 120 bytes
            fields = head.decode().split(",")
            if len(fields) != 8:
                raise ValueError(f"the metadata row has {len(fields)} fields, not 8")
            _, target, _, shape, _, scale, _, radius = fields
            patch = generate_patch(embedding(target), Window(shape, float(scale)),
                                   float(radius))
            want = _text(patch)
            got = head + fh.read(len(want) + 1)
        if got != want:
            got, want = got.replace(b"\r\n", b"\n"), want.replace(b"\r\n", b"\n")
        if got != want:
            line = got.count(b"\n", 0, _first_difference(got, want)) + 1
            raise ValueError("the line is not the one written for the patch "
                             "the metadata row names")
    except ValueError as exc:
        raise DomainError(f"{path}, line {line}: not a patch file: {exc}") from None
    return patch


def _first_difference(a: bytes, b: bytes) -> int:
    """The first index where a and b differ, or the shorter length."""
    n = min(len(a), len(b))
    differ = np.frombuffer(a, np.uint8, n) != np.frombuffer(b, np.uint8, n)
    return int(differ.argmax()) if differ.any() else n
