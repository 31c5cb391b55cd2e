"""Root systems: counts, closure under reflection, exact geometry."""

import importlib
import math
import time

import numpy as np
import pytest

from exact_oracle import paper_roots
from qlat.ring import DomainError, QuadraticRingElement, tau
from qlat.roots import (
    H3,
    H4,
    I2,
    QUADRATIC_I2,
    RootSystemId,
    gram,
    is_quadratic,
    kappa_of,
    root_count,
    roots,
    simple_roots,
)
from qlat.vectors import ExactVector, reflect

QUAD_SYSTEMS = [I2(5), I2(8), I2(10), I2(12), H3, H4]


def test_parse():
    assert RootSystemId.parse("H3") == H3
    assert RootSystemId.parse("I2-8") == I2(8)
    assert RootSystemId.parse("I2(12)") == I2(12)
    with pytest.raises(DomainError):
        RootSystemId.parse("E8")
    for text in ["I25", "I2((5", "I2-5)", "I2-+8", "I2-1_0", "I2-" + "1" * 5000]:
        with pytest.raises(DomainError, match="cannot parse root system"):
            RootSystemId.parse(text)
    with pytest.raises(DomainError):
        I2(4)  # crystallographic
    with pytest.raises(DomainError):
        I2(6)
    with pytest.raises(DomainError, match="takes no index"):
        RootSystemId("H3", 5)
    with pytest.raises(DomainError, match="unknown family"):
        RootSystemId("B3")


@pytest.mark.parametrize("system,count", [
    (I2(5), 10), (I2(8), 16), (I2(10), 20), (I2(12), 24),
    (H3, 30), (H4, 120),
])
def test_root_counts(system, count):
    assert len(roots(system)) == count
    assert root_count(system) == count


def test_float_i2_root_count():
    assert len(roots(I2(7))) == root_count(I2(7)) == 14
    assert not is_quadratic(I2(7))
    with pytest.raises(DomainError, match="no quadratic coordinate ring"):
        kappa_of(I2(7))


def test_even_float_i2_roots():
    # the 14th roots of unity, then the sums zeta^k + zeta^(k+1)
    rs = np.array(roots(I2(14)))
    assert rs.shape == (28, 2)
    gaps = np.linalg.norm(rs[:, None] - rs[None], axis=-1)
    assert gaps[~np.eye(28, dtype=bool)].min() > 0.1
    # closed under negation
    assert np.linalg.norm(rs[:, None] + rs[None], axis=-1).min(axis=1).max() < 1e-12
    norms = np.sort(np.linalg.norm(rs, axis=1))
    np.testing.assert_allclose(norms[:14], 1.0, rtol=1e-14)
    np.testing.assert_allclose(norms[14:], 2 * math.cos(math.pi / 14), rtol=1e-14)  # 1.949856


def test_quadratic_i2_are_the_n_with_a_quartic_cyclotomic_field():
    # the paper's 2D claim: I2(n) has a quadratic coordinate ring exactly
    # when Q(zeta_m), m = lcm(2, n), has degree phi(m) = 4
    def phi(m):
        return sum(math.gcd(k, m) == 1 for k in range(1, m + 1))

    quartic = {n for n in range(5, 61) if phi(2 * n if n % 2 else n) == 4}
    assert quartic == set(QUADRATIC_I2) == {5, 8, 10, 12}


def test_too_many_float_roots_refused():
    # 100 002 roots, one over the limit
    with pytest.raises(DomainError, match="limit"):
        roots(I2(50001))


@pytest.mark.parametrize("system", QUAD_SYSTEMS)
def test_roots_come_in_opposite_pairs(system):
    rs = set(roots(system))
    for r in rs:
        assert -r in rs


@pytest.mark.parametrize("system", QUAD_SYSTEMS)
def test_root_lengths(system):
    """Odd systems have one root length; even 2D systems two (the short
    roots of unity and the long adjacent sums), as in B2 and G2."""
    g = gram(system)
    one = QuadraticRingElement(1)
    lengths = {float(r.dot(r, g)) for r in roots(system)}
    if system.family in ("H3", "H4") or system.n % 2 == 1:
        assert all(r.dot(r, g) == one for r in roots(system))
    else:
        assert len(lengths) == 2
        assert min(lengths) == 1.0


@pytest.mark.parametrize("system", QUAD_SYSTEMS)
def test_exact_closure_under_all_reflections(system):
    rs = roots(system)
    g = gram(system)
    root_set = set(rs)
    for r in rs:
        for v in rs:
            assert reflect(v, r, g) in root_set


def _wrong_simple_root(system):
    a, _, c = simple_roots(system)
    return "simple_roots", (a, ExactVector((1, 1, 1)), c)


def _swapped_gram(system):
    return "gram", gram(system)[::-1]


@pytest.mark.parametrize("system,wrong", [(H3, _wrong_simple_root), (I2(5), _swapped_gram)],
                         ids=["H3-wrong-simple-root", "I2-5-swapped-gram"])
def test_a_closure_past_the_root_count_fails_fast(monkeypatch, system, wrong):
    # the angle arccos(-1/sqrt(3)), or a Gram matrix that is no inner
    # product, generates infinitely many vectors
    name, value = wrong(system)
    monkeypatch.setattr(importlib.import_module("qlat.roots"), name, lambda s: value)
    start = time.perf_counter()
    with pytest.raises(DomainError, match=f"more than its {root_count(system)} roots"):
        roots.__wrapped__(system)
    assert time.perf_counter() - start < 5


def _euclidean(system, v):
    """v in Euclidean coordinates: I2(n) coordinates are in the oblique
    basis {1, zeta}, zeta at angle 2*pi/m with m = 2n (odd n) or n (even n)."""
    x = v.to_floats()
    if system.family != "I2":
        return x
    theta = 2 * math.pi / (2 * system.n if system.n % 2 else system.n)
    return np.array([[1.0, math.cos(theta)], [0.0, math.sin(theta)]]) @ x


@pytest.mark.parametrize("system", QUAD_SYSTEMS)
def test_embedding_matches_exact_inner_products(system):
    g = gram(system)
    rs = roots(system)
    for r in rs[:8]:
        for v in rs[:8]:
            exact = float(r.dot(v, g))
            x, y = _euclidean(system, r), _euclidean(system, v)
            assert abs(float(np.dot(x, y)) - exact) < 1e-12


def test_i2_5_and_i2_10_span_the_same_roots():
    """The decagonal root set is the pentagonal one plus its negatives'
    midpoint pairs; both generate the same integer span."""
    r5 = set(roots(I2(5)))
    r10 = set(roots(I2(10)))
    assert r5 <= r10
    from qlat.modules import membership, ql

    qlm = ql("I2-5")
    for r in r10:
        assert membership(qlm, r).member


def test_h3_golden_coordinate_shape():
    t = tau()
    half = QuadraticRingElement(1, 0, 5, 2)
    rs = roots(H3)
    plain = [r for r in rs if all(c.q == 0 for c in r.coords)]
    assert len(plain) == 6
    assert any(r.coords == (t * half, half, (t - 1) * half) for r in rs)


@pytest.mark.parametrize("system", [H3, H4])
def test_roots_are_the_papers_signed_even_permutations(system):
    assert len(roots(system)) == len(paper_roots(system.family))
    assert set(roots(system)) == paper_roots(system.family)


@pytest.mark.parametrize("system", QUAD_SYSTEMS)
def test_simple_roots_have_correct_count(system):
    sr = simple_roots(system)
    assert len(sr) == system.rank


@pytest.mark.parametrize("system,chain", [
    (H3, (5, 3)), (H4, (5, 3, 3)), (I2(5), (5,)), (I2(8), (8,)), (I2(10), (10,)),
    (I2(12), (12,)),
])
def test_simple_roots_have_coxeter_angles(system, chain):
    """<a_i, a_j> = -cos(pi/m_ij)|a_i||a_j| for the Coxeter matrix of the
    chain: m_ii = 1, m_i,i+1 from the chain, m_ij = 2 otherwise.  Checked
    exactly as <a_i, a_j> <= 0 with the square cos^2(pi/m)|a_i|^2|a_j|^2."""
    k = 5 if system.family != "I2" else QUADRATIC_I2[system.n]
    quarter = QuadraticRingElement(1, 0, k, 4)
    cos2 = {1: QuadraticRingElement(1), 2: QuadraticRingElement(0), 3: quarter,
            5: (tau() + 1) * quarter, 8: QuadraticRingElement(2, 1, 2, 4),
            10: (tau() + 2) * quarter, 12: QuadraticRingElement(2, 1, 3, 4)}
    for m, c in cos2.items():
        assert abs(float(c) - math.cos(math.pi / m) ** 2) < 1e-15
    g, sr = gram(system), simple_roots(system)
    for i, a in enumerate(sr):
        for j, b in enumerate(sr):
            m = 1 if i == j else chain[min(i, j)] if abs(i - j) == 1 else 2
            ab = a.dot(b, g)
            assert ab * ab == cos2[m] * a.dot(a, g) * b.dot(b, g)
            assert i == j or ab <= 0
    if system.family != "I2":
        assert all(a.dot(a) == 1 for a in sr)


@pytest.mark.parametrize("system", QUAD_SYSTEMS + [I2(7)], ids=str)
def test_root_lists_are_shared_tuples(system):
    """roots, simple_roots and gram hand every caller the same cached
    result, so it is a tuple: no caller can reorder or extend what generate
    reads."""
    rs = roots(system)
    assert isinstance(rs, tuple) and rs is roots(system)
    with pytest.raises(AttributeError):
        rs.sort()
    if is_quadratic(system):
        g = gram(system)  # None for H3 and H4
        assert g is gram(system) and isinstance(g, (tuple, type(None)))
        simple = simple_roots(system)
        assert isinstance(simple, tuple)
        with pytest.raises(AttributeError):
            simple.reverse()


@pytest.mark.parametrize("system,order", [
    (I2(5), 10), (I2(8), 16), (I2(12), 24), (H3, 120), (I2(10), 20), (H4, 14400),
])
def test_simple_root_reflections_generate_full_group(system, order):
    from qlat.groups import generate

    assert generate(system).order == order
