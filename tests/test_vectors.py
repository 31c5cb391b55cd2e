"""Exact vectors on their integer forms, against cell-by-cell object
arithmetic on the same QuadraticRingElement cells."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracle import object_gram_dot
from qlat.groups import generate, h4_element_from_quaternions, orbit
from qlat.modules import membership, ql
from qlat.quaternions import qconj, qmul, qnorm, unit_icosians
from qlat.ring import DomainError, QuadraticRingElement, tau
from qlat.roots import H4, I2, QUADRATIC_I2, gram, roots
from qlat.vectors import ExactVector


def _cells(kappa, d, rational=False):
    q = st.just(0) if rational else st.integers(-30, 30)
    cell = st.builds(lambda p, q, den: QuadraticRingElement(p, q, kappa, den),
                     st.integers(-30, 30), q, st.integers(1, 8))
    return st.lists(cell, min_size=d, max_size=d)


def _assert_same(got, cells):
    """got is the vector of the object results cells: equal, hashing alike,
    with the same integer form and canonical coordinates."""
    want = ExactVector(cells)
    assert got == want and hash(got) == hash(want)
    assert got.numerators() == want.numerators() and got.kappa == want.kappa
    for c, e in zip(got.coords, cells):
        assert (c.p, c.q, c.den) == (e.p, e.q, e.den)
        if e.q:
            assert c.kappa == e.kappa


def _scalars(kappa):
    return st.one_of(
        st.integers(-20, 20),
        st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9)),
        st.builds(lambda p, q, den: QuadraticRingElement(p, q, kappa, den),
                  st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 9)))


def _check_ops(u, v, s):
    a, b = ExactVector(u), ExactVector(v)
    _assert_same(a + b, [x + y for x, y in zip(u, v)])
    _assert_same(a - b, [x - y for x, y in zip(u, v)])
    _assert_same(-a, [-x for x in u])
    _assert_same(a.scale(s), [x * s for x in u])
    _assert_same(a.conjugate(), [x.conjugate() for x in u])
    dot = a.dot(b)
    want = sum((x * y for x, y in zip(u, v)), QuadraticRingElement(0, 0, a.kappa))
    assert dot == want and (dot.p, dot.q, dot.den) == (want.p, want.q, want.den)
    assert a.is_zero() == (not any(u))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kappa=st.sampled_from([2, 3, 5]), d=st.integers(1, 4))
def test_vector_arithmetic_matches_cell_arithmetic(data, kappa, d):
    u, v = data.draw(_cells(kappa, d)), data.draw(_cells(kappa, d))
    _check_ops(u, v, data.draw(_scalars(kappa)))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(1, 4))
def test_rational_vector_labelled_kappa_2_with_a_golden_one(data, d):
    rational, golden = data.draw(_cells(2, d, rational=True)), data.draw(_cells(5, d))
    s = data.draw(_scalars(5))
    _check_ops(rational, golden, s)
    _check_ops(golden, rational, s)
    mixed = ExactVector(rational) + ExactVector(golden)
    assert mixed.kappa == (5 if any(c.q for c in golden) else 2)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.sampled_from(sorted(QUADRATIC_I2)))
def test_gram_dot_matches_the_cell_loop(data, n):
    g, kappa = gram(I2(n)), QUADRATIC_I2[n]
    u, v = (ExactVector(data.draw(_cells(kappa, 2, rational=data.draw(st.booleans()))))
            for _ in range(2))
    got, want = u.dot(v, g), object_gram_dot(u, v, g)
    assert got == want and (got.p, got.q, got.den) == (want.p, want.q, want.den)
    assert got.kappa == want.kappa or not want.q


def test_sqrt2_and_sqrt5_vectors_refuse_to_combine():
    a = ExactVector((QuadraticRingElement(1, 1, 2), 0))
    b = ExactVector((0, QuadraticRingElement(0, 1, 5)))
    for op in (lambda: a + b, lambda: a - b, lambda: b - a, lambda: a.dot(b),
               lambda: a.scale(tau()), lambda: b.scale(QuadraticRingElement(0, 1, 2)),
               lambda: a.dot(a, gram(I2(5))), lambda: b.dot(b, gram(I2(8)))):
        with pytest.raises(DomainError, match="mixed radicands"):
            op()
    # equal integer forms: kappa counts only when some q is nonzero
    assert ExactVector((QuadraticRingElement(1, 1, 5), 0)) != a
    half2, half5 = (QuadraticRingElement(1, 0, k, 2) for k in (2, 5))
    assert ExactVector((half2, 0)) == ExactVector((half5, 0))
    assert hash(ExactVector((half2, 0))) == hash(ExactVector((half5, 0)))
    # a 3-vector meets neither a 2-vector nor the rows of a 2D Gram matrix
    g, u, w = gram(I2(5)), ExactVector((1, tau())), ExactVector((1, 2, tau()))
    for op in (lambda: a + w, lambda: w.dot(w, g), lambda: u.dot(w, g), lambda: w.dot(u, g)):
        with pytest.raises(DomainError, match="dimension mismatch"):
            op()
    with pytest.raises(TypeError):
        a.scale(0.5)


def test_vectors_from_numerators_build_coordinates_on_first_read():
    v = ExactVector.from_numerators([2, 4, 0, 6], 4, 5)
    assert v.numerators() == ((1, 2, 0, 3), 2) and v._coords is None
    assert v.coords == (QuadraticRingElement(1, 0, 5, 2), QuadraticRingElement(2, 3, 5, 2))
    assert v._coords is v.coords


def test_integer_paths_build_no_coordinates(monkeypatch):
    qlm, group, rs, units = ql("H4"), generate(H4), roots(H4), unit_icosians()
    g, t = group[77], tau()
    r5, g5 = roots(I2(5)), gram(I2(5))

    def refuse(self):
        raise AssertionError("coordinates built")

    monkeypatch.setattr(ExactVector, "coords", property(refuse))
    v = ExactVector.from_numerators([1, 1, 1, 1, 1, -1, 0, 0], 2, 5)
    w = (v + rs[3] - rs[8]).scale(t).scale(Fraction(1, 2)).scale(2) - v.conjugate()
    assert -w + w == ExactVector.from_numerators([0] * 8, 1, 5) and (w - w).is_zero()
    assert w in {w} and v.dot(v) == Fraction(7, 2)
    assert all(r.dot(r, g5) == 1 for r in r5)
    assert membership(qlm, rs[3] + rs[8]).member
    assert not membership(qlm, v.scale(Fraction(1, 3))).member
    assert qmul(units[4], qconj(units[4])) == ExactVector((1, 0, 0, 0))
    assert qnorm(units[9]) == 1
    assert g.apply(rs[5]) in frozenset(rs)
    assert len(orbit(group, rs[0])) == 120
    assert h4_element_from_quaternions(units[5], units[17]) in group
