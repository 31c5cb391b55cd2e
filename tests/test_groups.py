"""Reflection groups: orders, exact orthogonality, orbits, the
quaternion-pair realization of the largest group."""

import random

import pytest

from qlat.groups import (
    GroupElement,
    enumerate_h4_quaternion_maps,
    generate,
    h4_element_from_quaternions,
    identity_element,
    matrix_to_compact,
    orbit,
    reflection_matrix,
)
from qlat.quaternions import unit_icosians
from qlat.ring import DomainError, QuadraticRingElement, tau
from qlat.roots import H3, H4, I2, gram, roots, simple_roots
from qlat.vectors import ExactVector


@pytest.mark.parametrize("system,order", [
    (I2(5), 10), (I2(8), 16), (I2(10), 20), (I2(12), 24),
    (H3, 120), (H4, 14400),
])
def test_group_orders(system, order):
    assert generate(system).order == order


def _object_closure(system):
    """Oracle: breadth-first closure in exact object arithmetic."""
    gens = [reflection_matrix(r, gram(system)) for r in simple_roots(system)]
    seen = frontier = {identity_element(gens[0].dim)}
    while frontier:
        frontier = {m @ g for m in frontier for g in gens} - seen
        seen = seen | frontier
    return seen


@pytest.mark.parametrize("system", [I2(5), I2(8), I2(10), I2(12), H3],
                         ids=str)
def test_generate_matches_object_closure(system):
    assert set(generate(system).elements) == _object_closure(system)


def test_non_quadratic_group_rejected():
    with pytest.raises(DomainError):
        generate(I2(7))


@pytest.mark.parametrize("system", [I2(5), I2(8), I2(12), H3])
def test_all_elements_preserve_the_form(system):
    g = gram(system)
    for m in generate(system):
        assert m.is_orthogonal(g)
        assert m.det() in (QuadraticRingElement(1), QuadraticRingElement(-1))


def test_h4_sampled_elements_preserve_the_form():
    group = generate(H4)
    rng = random.Random(7)
    for m in rng.sample(group.elements, 40):
        assert m.is_orthogonal()


@pytest.mark.parametrize("system", [I2(5), I2(8), H3, H4])
def test_closure_spot_checks(system):
    group = generate(system)
    rng = random.Random(3)
    els = group.elements
    for _ in range(60):
        a, b = rng.choice(els), rng.choice(els)
        assert (a @ b) in group


def test_reflections_are_involutions():
    for system in (I2(5), H3, H4):
        g = gram(system)
        for r in simple_roots(system):
            m = reflection_matrix(r, g)
            assert m @ m == identity_element(m.dim)
            assert m.det() == QuadraticRingElement(-1)


def test_h3_orbit_of_a_root_is_the_root_system():
    group = generate(H3)
    one = QuadraticRingElement(1)
    zero = QuadraticRingElement(0)
    orb = orbit(group, ExactVector((one, zero, zero)))
    assert orb == frozenset(roots(H3))


def test_h3_orbit_of_an_icosahedron_vertex_has_size_12():
    group = generate(H3)
    t = tau()
    v = ExactVector((QuadraticRingElement(1), t, QuadraticRingElement(0)))
    assert len(orbit(group, v)) == 12


def test_h4_orbit_of_a_root_is_the_root_system():
    group = generate(H4)
    orb = frozenset(g.apply(roots(H4)[0]) for g in group)
    assert orb == frozenset(roots(H4))


def test_quaternion_pair_map_lands_in_the_group():
    group = generate(H4)
    units = unit_icosians()
    rng = random.Random(11)
    for _ in range(10):
        q1, q2 = rng.choice(units), rng.choice(units)
        for conj in (False, True):
            m = h4_element_from_quaternions(q1, q2, conjugating=conj)
            assert m in group
            assert m.is_orthogonal()


def test_quaternion_parameterization_is_two_to_one():
    raw, distinct = enumerate_h4_quaternion_maps()
    assert raw == 2 * 120 * 120
    assert len(distinct) == 14400
    assert raw == 2 * len(distinct)
    assert distinct == generate(H4).compact_byte_set()


def test_pair_and_negated_pair_give_the_same_map():
    units = unit_icosians()
    q1, q2 = units[5], units[17]
    a = h4_element_from_quaternions(q1, q2)
    b = h4_element_from_quaternions(-q1, -q2)
    assert a == b
    assert matrix_to_compact(a).tobytes() == matrix_to_compact(b).tobytes()
