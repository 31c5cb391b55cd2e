"""Kernels against exact arithmetic, closed forms and brute force."""

import itertools
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from exact_oracle import object_matmul
from qlat import kernels
from qlat.cutproject import (
    Window,
    _window_circumradius,
    _zonotope_facets,
    embedding,
    generate_patch,
)
from qlat.groups import generate
from qlat.ring import DomainError, QuadraticRingElement
from qlat.roots import H3, H4


def _entries(numerators, kappa):
    """The entries (x + y*sqrt(kappa))/4 of a (d, d, 2) numerator array."""
    return tuple(tuple(QuadraticRingElement(x, y, kappa, 4) for x, y in row)
                 for row in numerators.tolist())


def test_quad_matmul_matches_object_products():
    rng = np.random.default_rng(1)
    for kappa in (2, 3, 5):
        # even numerators: entries (x + y*sqrt(kappa))/2, a ring closed
        # under products over the denominator-4 encoding
        a = 2 * rng.integers(-3, 4, size=(5, 4, 4, 2))
        b = 2 * rng.integers(-3, 4, size=(4, 4, 2))
        prods = kernels.quad_matmul_batch(a, b, kappa)
        for i in range(len(a)):
            expected = object_matmul(_entries(a[i], kappa), _entries(b, kappa))
            assert _entries(prods[i], kappa) == expected
        # a right operand batched row by row: a[i] @ bs[i]
        bs = 2 * rng.integers(-3, 4, size=(5, 4, 4, 2))
        prods = kernels.quad_matmul_batch(a, bs, kappa)
        for i in range(len(a)):
            expected = object_matmul(_entries(a[i], kappa), _entries(bs[i], kappa))
            assert _entries(prods[i], kappa) == expected
        # past int64 the batched product goes to Python ints, row by row alike
        wide = kernels.quad_product(a * 2 ** 40, bs * 2 ** 20, kappa)
        assert wide.dtype == object
        for i in range(len(a)):
            assert (wide[i] == kernels.quad_product(a[i] * 2 ** 40, bs[i] * 2 ** 20,
                                                    kappa)).all()


def test_quad_matmul_matches_object_arithmetic():
    rng = np.random.default_rng(2)
    for system in (H3, H4):
        group = generate(system)
        els = [group[i] for i in rng.choice(len(group), size=6)]
        assert all(g.den == 4 for g in els)
        a = np.stack([g.numerators for g in els[:5]])
        prods = kernels.quad_matmul_batch(a, els[5].numerators, 5)
        for i in range(5):
            assert (_entries(prods[i], 5)
                    == object_matmul(els[i].entries, els[5].entries))


def test_quad_matmul_rejects_escape_from_the_ring():
    half, quarter = np.array([[[2, 0]]]), np.array([[[1, 0]]])
    # 1/2 * 1/2 = 1/4 stays over the denominator 4; 1/4 * 1/4 does not
    assert kernels.quad_matmul_batch(half[None], half, 5).tolist() == [[[[1, 0]]]]
    with pytest.raises(ArithmeticError):
        kernels.quad_matmul_batch(quarter[None], quarter, 5)


# -- ellipsoid enumeration ---------------------------------------------

@settings(max_examples=30, deadline=None)
@example(entries=[1, 0, 0, 0, 1, 0, 0, 0, 1], bound=2)  # Z^3: 19 vectors
@given(entries=st.lists(st.integers(-3, 3), min_size=9, max_size=9),
       bound=st.integers(1, 20))
def test_ellipsoid_points_match_brute_force(entries, bound):
    # integer bases keep every |basis @ c|^2 exact, boundary included
    basis = np.array(entries, dtype=float).reshape(3, 3)
    assume(abs(np.linalg.det(basis)) > 0.5)
    half = np.floor(np.sqrt(bound) * np.linalg.norm(np.linalg.inv(basis), axis=1)
                    + 1e-9).astype(np.int64)
    box = np.indices(2 * half + 1).reshape(3, -1).T - half
    norms = ((box @ basis.T) ** 2).sum(axis=1)
    got = {tuple(c) for c in kernels.ellipsoid_points(basis, bound).tolist()}
    assert got == {tuple(c) for c in box[norms <= bound].tolist()}


def test_ellipsoid_points_origin_only():
    # |par c| <= 10 and |perp c| < 0.05 with perp = 0.1 * I: only the origin
    basis = np.vstack([np.eye(3) / 10, np.eye(3) * 0.1 / 0.05])
    out = kernels.ellipsoid_points(basis, 2.0)
    assert {tuple(r) for r in out.tolist()} == {(0, 0, 0)}


def test_ellipsoid_points_refuses_unbounded_work():
    with pytest.raises(DomainError, match="limit"):
        kernels.ellipsoid_points(np.eye(8) * 1e-3, 2.0)


def _box_scan(target, shape, scale, radius):
    """Oracle: test every coefficient vector in a box wide enough to hold
    the patch, vectorised over all but the first two coefficients."""
    emb = embedding(target)
    par, perp = emb.parallel, emb.perpendicular
    reach = np.hypot(radius, _window_circumradius(emb, Window(shape, scale)))
    half = np.ceil(np.linalg.norm(np.linalg.inv(np.vstack([par, perp])), axis=1)
                   * reach).astype(np.int64)
    tail = np.indices(2 * half[2:] + 1).reshape(len(half) - 2, -1).T - half[2:]
    tail_pp, tail_qq = tail @ par[:, 2:].T, tail @ perp[:, 2:].T
    if shape == "cell":
        normals, supports = _zonotope_facets(emb.cell_generators, scale)
    found = set()
    for head in itertools.product(*(range(-h, h + 1) for h in half[:2])):
        pp = tail_pp + par[:, :2] @ head
        near = np.flatnonzero((pp * pp).sum(axis=1) <= radius * radius + 1e-9)
        qq = tail_qq[near] + perp[:, :2] @ head
        if shape == "ball":
            inside = (qq * qq).sum(axis=1) < scale * scale
        else:
            inside = (np.abs(qq @ normals.T) < supports - 1e-12).all(axis=1)
        found |= {head + tuple(c) for c in tail[near[inside]].tolist()}
    return found


# every projectable target with each window it supports (H4 has no cell),
# at the smallest radius where the patch holds more than the origin
RADII = {("H3-primitive", "cell"): 5.0, ("H3-primitive", "ball"): 6.0,
         ("H3-fcc", "cell"): 6.0, ("H3-fcc", "ball"): 6.0,
         ("H3-bcc", "cell"): 4.0, ("H3-bcc", "ball"): 5.0, ("H4", "ball"): 2.0}


def _patch_coefficients(target, shape, scale, radius):
    patch = generate_patch(embedding(target), Window(shape, scale), radius)
    return {tuple(c) for c in patch.coeffs.tolist()}


@pytest.mark.parametrize("target,shape", list(RADII))
@pytest.mark.parametrize("scale", [0.7, 1.0])
def test_patch_enumeration_matches_box_scan(target, shape, scale):
    radius = RADII[target, shape]
    got = _patch_coefficients(target, shape, scale, radius)
    assert got == _box_scan(target, shape, scale, radius)
    assert scale < 1 or len(got) > 1


@settings(max_examples=8, deadline=None)
@given(geometry=st.sampled_from(list(RADII)),
       scale=st.sampled_from([0.7, 1.0]),
       fraction=st.floats(0.3, 1.0))
def test_patch_enumeration_matches_box_scan_at_drawn_radii(geometry, scale, fraction):
    radius = fraction * RADII[geometry]
    assert (_patch_coefficients(*geometry, scale, radius)
            == _box_scan(*geometry, scale, radius))


def test_structure_factor_matches_finite_chain_closed_form():
    # N equally spaced points along a: |sum_n exp(i n k.a)|^2 / N^2
    # = (sin(N q/2) / (N sin(q/2)))^2 with q = k.a
    n = 13
    a = np.array([0.6, -1.1, 0.4])
    points = np.arange(n)[:, None] * a
    ks = np.random.default_rng(4).normal(size=(20, 3))
    q = ks @ a
    expected = (np.sin(n * q / 2) / (n * np.sin(q / 2))) ** 2
    assert np.allclose(kernels.structure_factor_sum(points, ks), expected,
                       rtol=0, atol=1e-12)


def _chunk_sizes(monkeypatch):
    """Record the number of (point, k) phases of every chunk summed."""
    sizes = []
    inner = kernels._intensities

    def spy(points, ks):
        sizes.append(len(points) * len(ks))
        return inner(points, ks)

    monkeypatch.setattr(kernels, "_intensities", spy)
    return sizes


@pytest.mark.parametrize("limit", [1, 3 * 37, 10 * 37, 37 * 37])
def test_structure_factor_chunks_match_per_k_sums_bit_for_bit(monkeypatch, limit):
    # dyadic coordinates make every phase exact, so each k's sum can be
    # rebuilt alone: its cosines and sines added one point at a time
    rng = np.random.default_rng(6)
    points = rng.integers(-64, 65, size=(37, 3)) / 8
    ks = rng.integers(-64, 65, size=(23, 3)) / 16
    monkeypatch.setattr(kernels, "MAX_CHUNK_PHASES", limit)
    sizes = _chunk_sizes(monkeypatch)
    got = kernels.structure_factor_sum(points, ks)
    assert sum(sizes) == 37 * 23
    width = max(1, limit // 37)
    assert len(sizes) == (1 if limit >= 37 * 23 else min(-(-23 // width), 23 // 2))
    assert all(2 * 37 <= size <= max(limit, 3 * 37) for size in sizes)
    for k, value in zip(ks, got):
        phases = points @ k
        re = reduce(operator.add, np.cos(phases).tolist())
        im = reduce(operator.add, np.sin(phases).tolist())
        assert value == (re * re + im * im) / (37 * 37)


def test_structure_factor_refuses_too_many_pairs_before_any_phase(monkeypatch):
    # broadcast views: 2e9 pairs described without allocating them
    points = np.broadcast_to(np.zeros(3), (100_000, 3))
    ks = np.broadcast_to(np.ones(3), (20_000, 3))
    sizes = _chunk_sizes(monkeypatch)
    with pytest.raises(DomainError, match="limit"):
        kernels.structure_factor_sum(points, ks)
    assert sizes == []
    assert kernels.MAX_PAIRS < 100_000 * 20_000


def test_structure_factor_refuses_phases_past_2_53_before_any_phase(monkeypatch):
    # d * max|k| * max|x| bounds every phase; at the bound the sum goes ahead
    points = np.array([[1.0, 0.0, 0.0], [0.0, -2.0, 0.0]])
    sizes = _chunk_sizes(monkeypatch)
    bound = kernels.MAX_PHASE / (3 * 2.0)
    assert np.isfinite(kernels.structure_factor_sum(points, [[bound, 0, 0]])).all()
    assert sizes == [2]
    for ks in ([[1e308, 0, 0]], [[0, 0, -bound * 1.0001]], [[1, 1, 1], [0, bound * 2, 0]]):
        with pytest.raises(DomainError, match="fractional part"):
            kernels.structure_factor_sum(points, ks)
    assert sizes == [2]


def test_structure_factor_of_no_points_is_refused():
    with pytest.raises(DomainError, match="empty patch"):
        kernels.structure_factor_sum(np.zeros((0, 3)), [[1.0, 0.0, 0.0]])


def test_structure_factor_periodic_chain():
    # integer points diffract perfectly at multiples of 2*pi
    points = np.arange(10.0)[:, None]
    assert abs(kernels.structure_factor_sum(points, [[2 * np.pi]])[0] - 1) < 1e-12
    assert kernels.structure_factor_sum(points, [[np.pi]])[0] < 0.05
