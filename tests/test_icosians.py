"""The unit icosians and the icosian ring."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracle import object_qmul
from qlat.groups import _quaternion_map
from qlat.quaternions import (
    GoldenQuaternion,
    is_in_icosian_ring,
    qconj,
    qmul,
    qnorm,
    require_unit,
    unit_icosians,
)
from qlat.ring import DomainError, QuadraticRingElement, golden, tau
from qlat.vectors import ExactVector


def test_unit_icosian_count_and_norms():
    units = unit_icosians()
    assert len(units) == 120
    one = QuadraticRingElement(1)
    for u in units:
        assert qnorm(u) == one


def test_unit_icosians_closed_under_multiplication():
    units = unit_icosians()
    unit_set = set(units)
    for a in units:
        for b in units:
            assert qmul(a, b) in unit_set


def test_unit_icosians_form_a_group():
    units = unit_icosians()
    unit_set = set(units)
    one = GoldenQuaternion(1, 0, 0, 0)
    assert one in unit_set
    for u in units:
        # inverse of a unit quaternion is its conjugate
        assert qmul(u, qconj(u)) == one
        assert qconj(u) in unit_set


def test_golden_half_quaternion_square():
    h = QuadraticRingElement(1, 0, 5, 2)
    q = GoldenQuaternion(h, h, h, h)
    assert qmul(q, q) == GoldenQuaternion(-h, h, h, h)


def test_qnorm_is_multiplicative():
    units = unit_icosians()
    rng = random.Random(5)
    for _ in range(100):
        a = _random_ring_element(rng, bound=3)
        b = _random_ring_element(rng, bound=3)
        assert qnorm(qmul(a, b)) == qnorm(a) * qnorm(b)


def _random_ring_element(rng, bound=4):
    units = unit_icosians()
    total = GoldenQuaternion(0, 0, 0, 0)
    for _ in range(3):
        c = golden(rng.randint(-bound, bound), rng.randint(-bound, bound))
        total = total + rng.choice(units).scale(c)
    return total


def test_random_ring_sums_and_products_stay_in_the_ring():
    rng = random.Random(42)
    for _ in range(10_000):
        a = _random_ring_element(rng, bound=2)
        b = _random_ring_element(rng, bound=2)
        if rng.random() < 0.5:
            c = a + b
        else:
            c = qmul(a, b)
        assert is_in_icosian_ring(c)


def test_norm_one_ring_elements_in_a_box_are_the_unit_icosians():
    """Exhaustive oracle: every icosian of norm 1 with small golden
    coordinates is one of the 120 units."""
    one = QuadraticRingElement(1)
    found = set()
    units = set(unit_icosians())
    coords = [golden(m, n) * QuadraticRingElement(1, 0, 5, 2)
              for m in range(-2, 3) for n in range(-2, 3)]
    norm_one = []
    for w in coords:
        if (w * w) > one:
            continue
        norm_one.append(w)
    for w in norm_one:
        for x in norm_one:
            if w * w + x * x > one:
                continue
            for y in norm_one:
                if w * w + x * x + y * y > one:
                    continue
                for z in norm_one:
                    q = GoldenQuaternion(w, x, y, z)
                    if qnorm(q) == one and is_in_icosian_ring(q):
                        found.add(q)
    assert found == units


def test_left_right_matrices_commute():
    units = unit_icosians()
    rng = random.Random(9)
    for _ in range(10):
        a, b = rng.choice(units), rng.choice(units)
        l = _quaternion_map(a)
        r = _quaternion_map(b, right=True)
        assert l @ r == r @ l


def test_matrix_realizations_match_quaternion_products():
    units = unit_icosians()
    rng = random.Random(13)
    for _ in range(20):
        a, q = rng.choice(units), rng.choice(units)
        lm = _quaternion_map(a)
        assert lm.apply(q.as_vector()) == qmul(a, q).as_vector()
        rm = _quaternion_map(a, right=True)
        assert rm.apply(q.as_vector()) == qmul(q, a).as_vector()


def test_vector_operations_on_quaternions_return_quaternions():
    units = unit_icosians()
    a, b, t = units[3], units[70], tau()
    results = [a + b, a - b, -a, a.scale(t), a.conjugate(), qconj(a),
               (a + b).scale(t) - a]
    for q in results:
        assert type(q) is GoldenQuaternion
        assert qmul(q, b) == object_qmul(q, b)
        assert qnorm(q) == object_qmul(q, qconj(q)).w
    assert a + b == a.as_vector() + b.as_vector()
    assert hash(a) == hash(a.as_vector())
    with pytest.raises(DomainError):
        a + ExactVector((1, 0, 0))
    with pytest.raises(DomainError):
        GoldenQuaternion.from_vector(ExactVector((1, 0, 0)))


def test_require_unit_rejects_non_units():
    with pytest.raises(DomainError):
        require_unit(GoldenQuaternion(2, 0, 0, 0))
    t = tau()
    with pytest.raises(DomainError):
        require_unit(GoldenQuaternion(t, 0, 0, 0))


def _quaternions(kappa):
    """Random quaternions over sqrt(kappa) with denominators 1-8."""
    component = st.builds(
        lambda p, q, den: QuadraticRingElement(p, q, kappa, den),
        st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 8))
    return st.builds(GoldenQuaternion, component, component, component, component)


def _assert_same_components(got, want):
    for c, e in zip(got.components(), want.components()):
        assert (c.p, c.q, c.den) == (e.p, e.q, e.den)
        if e.q:
            assert c.kappa == e.kappa


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_qmul_matches_object_arithmetic_on_golden_quaternions(data):
    a, b = data.draw(_quaternions(5)), data.draw(_quaternions(5))
    _assert_same_components(qmul(a, b), object_qmul(a, b))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kappa=st.sampled_from([2, 3]))
def test_qmul_matches_object_arithmetic_over_other_radicands(data, kappa):
    a, b = data.draw(_quaternions(kappa)), data.draw(_quaternions(kappa))
    _assert_same_components(qmul(a, b), object_qmul(a, b))


def _assert_canonical_with_its_form(q):
    """q's kept integer form is the one a fresh vector computes, and every
    coordinate is in canonical form."""
    assert q.numerators() == ExactVector(q.coords).numerators()
    for c in q.coords:
        assert c.den > 0 and gcd(c.p, c.q, c.den) == 1


@settings(max_examples=100, deadline=None)
@given(data=st.data(), kappa=st.sampled_from([2, 3, 5]))
def test_chained_qmul_matches_object_arithmetic(data, kappa):
    # the products' kept forms feed the next product
    a, b, c = (data.draw(_quaternions(kappa)) for _ in range(3))
    ab, want_ab = qmul(a, b), object_qmul(a, b)
    for got, want in ((ab, want_ab), (qmul(ab, c), object_qmul(want_ab, c)),
                      (qmul(c, ab), object_qmul(c, want_ab)),
                      (qmul(ab, ab), object_qmul(want_ab, want_ab))):
        _assert_same_components(got, want)
        assert hash(got) == hash(want)
        _assert_canonical_with_its_form(got)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_qmul_of_a_rational_quaternion_labelled_kappa_2_and_a_golden_one(data):
    rational = st.builds(lambda p, den: QuadraticRingElement(p, 0, 2, den),
                         st.integers(-30, 30), st.integers(1, 8))
    a = data.draw(st.builds(GoldenQuaternion, rational, rational, rational, rational))
    b = data.draw(_quaternions(5))
    for got, want in ((qmul(a, b), object_qmul(a, b)), (qmul(b, a), object_qmul(b, a))):
        _assert_same_components(got, want)
        assert got == want and hash(got) == hash(want)
        _assert_canonical_with_its_form(got)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), kappa=st.sampled_from([2, 3, 5]))
def test_left_right_matrices_match_object_products(data, kappa):
    a = data.draw(_quaternions(kappa))
    basis = [GoldenQuaternion(*(int(i == j) for j in range(4))) for i in range(4)]
    left, right = _quaternion_map(a).entries, _quaternion_map(a, right=True).entries
    for j, e in enumerate(basis):
        _assert_same_components(
            GoldenQuaternion(*(row[j] for row in left)), object_qmul(a, e))
        _assert_same_components(
            GoldenQuaternion(*(row[j] for row in right)), object_qmul(e, a))


def test_quaternion_times_a_number_is_a_type_error_and_number_times_quaternion_scales():
    q = unit_icosians()[7]
    for other in (2, Fraction(1, 2), tau()):
        with pytest.raises(TypeError):
            q * other
    assert 2 * q == q + q
    assert isinstance(2 * q, GoldenQuaternion)
    assert q * q == qmul(q, q)


def test_qmul_refuses_mixed_radicands():
    a = GoldenQuaternion(QuadraticRingElement(1, 1, 2), 0, 0, 0)
    b = GoldenQuaternion(0, QuadraticRingElement(0, 1, 5), 0, 0)
    with pytest.raises(DomainError):
        object_qmul(a, b)
    with pytest.raises(DomainError):
        qmul(a, b)
