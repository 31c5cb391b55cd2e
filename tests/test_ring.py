"""Exact quadratic ring arithmetic, conjugation and fundamental units."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlat.ring import (
    DomainError,
    QuadraticRingElement,
    fundamental_unit,
    golden,
    tau,
)
from qlat.vectors import ExactVector

KAPPAS = (2, 3, 5)

small_ints = st.integers(min_value=-50, max_value=50)


def elements(kappa):
    return st.builds(
        lambda p, q, den: QuadraticRingElement(p, q, kappa, den),
        small_ints, small_ints, st.integers(min_value=1, max_value=12),
    )


any_element = st.sampled_from(KAPPAS).flatmap(elements)


def test_canonical_form():
    a = QuadraticRingElement(2, 4, 5, 6)
    assert (a.p, a.q, a.den) == (1, 2, 3)
    b = QuadraticRingElement(1, 1, 5, -2)
    assert b.den == 2 and b.p == -1
    with pytest.raises(DomainError):
        QuadraticRingElement(1, 1, 5, 0)


@pytest.mark.parametrize("args", [
    (Fraction(1, 2),), (1.5,), (2.0,), (1, Fraction(1, 2)), (1, 0, 5.0), (1, 0, 5, 2.0),
])
def test_non_integer_arguments_are_refused_not_truncated(args):
    with pytest.raises(TypeError):
        QuadraticRingElement(*args)


def test_numpy_integers_and_rationals_through_rational_are_accepted():
    import numpy as np

    a = QuadraticRingElement(np.int64(2), np.int32(4), np.int64(5), np.int64(6))
    assert (a.p, a.q, a.kappa, a.den) == (1, 2, 5, 3)
    assert all(type(x) is int for x in (a.p, a.q, a.kappa, a.den))
    assert QuadraticRingElement.rational(Fraction(1, 2)) == QuadraticRingElement(1, 0, 5, 2)


def test_tau_satisfies_golden_identity():
    t = tau()
    assert t * t == t + 1
    assert t.norm() == -1
    assert t.conjugate() == 1 - t


def test_golden_parts_round_trip():
    for m in range(-5, 6):
        for n in range(-5, 6):
            g = golden(m, n)
            # m + n*tau = (m + n/2) + (n/2)*sqrt(5)
            assert g.as_fractions() == (m + Fraction(n, 2), Fraction(n, 2))
            assert g.is_ring_integer()


@given(st.sampled_from(KAPPAS).flatmap(lambda k: st.tuples(elements(k), elements(k))))
def test_ring_closure_and_commutativity(pair):
    a, b = pair
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) - b == a


@given(st.sampled_from(KAPPAS).flatmap(lambda k: st.tuples(elements(k), elements(k))))
def test_norm_is_multiplicative(pair):
    a, b = pair
    assert (a * b).norm() == a.norm() * b.norm()


@given(any_element)
def test_conjugation_is_an_involution(a):
    assert a.conjugate().conjugate() == a
    assert (a + a.conjugate()).q == 0


@given(any_element)
def test_float_and_sign_agree(a):
    f = float(a)
    if abs(f) > 1e-9:
        assert (a._sign() > 0) == (f > 0)
        assert (a >= 0) == (a > 0) == (f > 0)
    assert a >= a and a <= a


def test_zero_has_no_inverse():
    with pytest.raises(DomainError, match="division by zero"):
        QuadraticRingElement(0).inverse()


@given(st.sampled_from(KAPPAS).flatmap(lambda k: st.tuples(elements(k), elements(k))))
def test_exact_division(pair):
    a, b = pair
    if not b:
        return
    assert (a / b) * b == a


@given(small_ints, st.integers(min_value=1, max_value=12), st.sampled_from(KAPPAS))
def test_rational_elements_hash_like_equal_numbers(p, den, kappa):
    x = QuadraticRingElement(p, 0, kappa, den)
    f = Fraction(p, den)
    assert x == f and hash(x) == hash(f)
    assert len({x, f}) == 1
    if den == 1:
        assert x == p and hash(x) == hash(p)
        assert len({x, p}) == 1


@given(any_element, small_ints, st.integers(min_value=1, max_value=12))
def test_numbers_divide_by_elements(a, p, den):
    if not a:
        return
    assert (1 / a) * a == 1
    f = Fraction(p, den)
    assert f / a == QuadraticRingElement.rational(f, a.kappa) / a
    assert (p / a) * a == p


@given(st.sampled_from(KAPPAS), st.integers(1, 12), st.integers(1, 4),
       st.booleans(), st.data())
def test_vectors_from_numerators_equal_and_hash_like_built_ones(
        kappa, den, scale, rational, data):
    d = data.draw(st.integers(1, 4))
    ps = data.draw(st.lists(small_ints, min_size=d, max_size=d))
    qs = [0] * d if rational else data.draw(st.lists(small_ints, min_size=d, max_size=d))
    # scale > 1 gives a denominator that is not reduced
    v = ExactVector.from_numerators([scale * x for x in ps + qs], scale * den, kappa)
    if rational:
        w = ExactVector(Fraction(p, den) for p in ps)
    else:
        w = ExactVector(QuadraticRingElement(p, q, kappa, den) for p, q in zip(ps, qs))
        assert v.kappa == w.kappa == kappa
    assert v == w and hash(v) == hash(w)
    x, lcd = w.numerators()
    assert den % lcd == 0 and ExactVector.from_numerators(x, lcd, kappa) == w


@pytest.mark.parametrize("den", [0, -2])
def test_vectors_from_numerators_refuse_a_non_positive_denominator(den):
    with pytest.raises(DomainError):
        ExactVector.from_numerators([1, 2, 0, 1], den, 5)


def test_fundamental_units():
    # tau, the silver ratio, and 2 + sqrt(3)
    assert fundamental_unit(5) == tau()
    assert fundamental_unit(2) == QuadraticRingElement(1, 1, 2)
    assert fundamental_unit(3) == QuadraticRingElement(2, 1, 3)
    with pytest.raises(DomainError):
        fundamental_unit(4)


@pytest.mark.parametrize("kappa,p,q,den,norm", [
    (6, 5, 2, 1, 1), (7, 8, 3, 1, 1), (13, 3, 1, 2, -1), (14, 15, 4, 1, 1), (19, 170, 39, 1, 1)])
def test_fundamental_unit_past_the_first_pell_step(kappa, p, q, den, norm):
    """Rings whose Pell search runs past b = 1: the unit is (p + q*sqrt(kappa))/den."""
    u = fundamental_unit(kappa)
    assert u == QuadraticRingElement(p, q, kappa, den)
    assert u.norm() == norm


@pytest.mark.parametrize("kappa", KAPPAS)
def test_fundamental_unit_properties(kappa):
    u = fundamental_unit(kappa)
    assert abs(u.norm()) == 1
    assert u > 1
    assert u.is_ring_integer()


@pytest.mark.parametrize("kappa", KAPPAS)
def test_fundamental_unit_is_minimal(kappa):
    """Brute-force oracle: no smaller unit > 1 exists in the ring."""
    u = fundamental_unit(kappa)
    found = []
    for p in range(-40, 41):
        for q in range(0, 41):
            for den in (1, 2):
                c = QuadraticRingElement(p, q, kappa, den)
                if not c.is_ring_integer():
                    continue
                if abs(c.norm()) == 1 and c > 1:
                    found.append(c)
    assert min(found) == u


def test_mixed_radicands_rejected():
    a = QuadraticRingElement(0, 1, 5)
    b = QuadraticRingElement(0, 1, 2)
    with pytest.raises(DomainError):
        a + b
