"""Reflection groups: orders, exact orthogonality, orbits, the
quaternion-pair realization of the largest group."""

import random
import tracemalloc
from collections.abc import Sequence
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_oracle import object_apply, object_matmul, object_qmul
from qlat import groups, kernels
from qlat.groups import (
    GroupElement,
    enumerate_h4_quaternion_maps,
    generate,
    h4_element_from_quaternions,
    identity_element,
    orbit,
    reflection_matrix,
)
from qlat.modules import ql
from qlat.quaternions import GoldenQuaternion, unit_icosians
from qlat.ring import DomainError, QuadraticRingElement, signed_squares, tau
from qlat.roots import H3, H4, I2, gram, kappa_of, roots, simple_roots
from qlat.vectors import ExactVector, reflect


@pytest.mark.parametrize("system,order", [
    (I2(5), 10), (I2(8), 16), (I2(10), 20), (I2(12), 24),
    (H3, 120), (H4, 14400),
])
def test_group_orders(system, order):
    assert generate(system).order == order


def _object_closure(system):
    """Oracle: breadth-first closure in exact object arithmetic."""
    gens = [reflection_matrix(r, gram(system)).entries
            for r in simple_roots(system)]
    seen = frontier = {identity_element(len(gens[0])).entries}
    while frontier:
        frontier = {object_matmul(m, g) for m in frontier for g in gens} - seen
        seen = seen | frontier
    return seen


@pytest.mark.parametrize("system", [I2(5), I2(8), I2(10), I2(12), H3],
                         ids=str)
def test_generate_matches_object_closure(system):
    assert {g.entries for g in generate(system)} == _object_closure(system)


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
    for m in rng.sample(group, 40):
        assert m.is_orthogonal()


@pytest.mark.parametrize("system", [I2(5), I2(8), H3, H4])
def test_closure_spot_checks(system):
    group = generate(system)
    rng = random.Random(3)
    for _ in range(60):
        a, b = rng.choice(group), rng.choice(group)
        assert (a @ b) in group


def test_reflections_are_involutions():
    for system in (I2(5), H3, H4):
        g = gram(system)
        for r in simple_roots(system):
            m = reflection_matrix(r, g)
            assert m @ m == identity_element(m.dim)
            assert m.det() == QuadraticRingElement(-1)


@pytest.mark.parametrize("system", [H3, H4, I2(5), I2(8), I2(10), I2(12)], ids=str)
def test_reflection_matrices_agree_with_reflect(system):
    # the integer image against the Gram object arithmetic of reflect
    g, rs = gram(system), roots(system)
    for r in rs:
        m = reflection_matrix(r, g)
        for v in rs:
            assert m.apply(v) == reflect(v, r, g)


@pytest.mark.parametrize("system", [H3, I2(8)], ids=str)
def test_reflection_in_a_zero_root_is_refused(system):
    zero = ExactVector.from_numerators([0] * (2 * system.rank), 1, kappa_of(system))
    with pytest.raises(DomainError, match="zero root"):
        reflection_matrix(zero, gram(system))


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


def _object_conj(q):
    return GoldenQuaternion(q.w, -q.x, -q.y, -q.z)


@pytest.mark.parametrize("conjugating", [False, True])
def test_quaternion_pair_map_matches_object_products(conjugating):
    # the matrix of Q -> conj(q1) Q q2 (or conj(q1) conj(Q) q2) against the
    # object products, column by column and on a quaternion off the units
    units = unit_icosians()
    rng = random.Random(21)
    basis = [GoldenQuaternion(*(int(i == j) for j in range(4))) for i in range(4)]
    for _ in range(25):
        q1, q2, a, b = (rng.choice(units) for _ in range(4))
        m = h4_element_from_quaternions(q1, q2, conjugating)

        def image(q):
            return object_qmul(object_qmul(
                _object_conj(q1), _object_conj(q) if conjugating else q), q2)

        for j, e in enumerate(basis):
            assert GoldenQuaternion(*(row[j] for row in m.entries)) == image(e)
        q = a + b.scale(tau())
        assert m.apply(q) == image(q)


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
    assert (a.den, a.numerators.tobytes()) == (b.den, b.numerators.tobytes())


# -- the integer representation against exact object arithmetic ---------

SYSTEMS = {I2(5): "I2-5", I2(8): "I2-8", I2(12): "I2-12", H3: "H3-primitive",
           H4: "H4"}


def _test_vector(system, kind, rng):
    """A quasilattice member, a rational vector or one with coordinates
    near 10^30 (beyond int64), all in the system's coordinate ring."""
    qlm = ql(SYSTEMS[system])
    if kind == "member":
        return qlm.from_basis_coefficients(
            [rng.randint(-5, 5) for _ in range(qlm.rank)])
    if kind == "rational":
        return ExactVector(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                           for _ in range(qlm.dim))
    big = 10 ** 30
    return ExactVector(
        QuadraticRingElement(big + rng.randint(-99, 99), big - rng.randint(0, 99),
                             qlm.kappa, rng.randint(1, 8))
        for _ in range(qlm.dim))


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from(list(SYSTEMS)),
       kind=st.sampled_from(["member", "rational", "huge"]),
       seed=st.integers(0, 2 ** 32))
def test_apply_matches_object_arithmetic(system, kind, seed):
    rng = random.Random(seed)
    g = rng.choice(generate(system))
    v = _test_vector(system, kind, rng)
    assert g.apply(v) == object_apply(g.entries, v)


@pytest.mark.parametrize("kind", ["member", "rational", "huge"])
@pytest.mark.parametrize("system", [I2(5), I2(8), I2(12), H3], ids=str)
def test_orbit_matches_object_arithmetic(system, kind):
    group = generate(system)
    v = _test_vector(system, kind, random.Random(5))
    assert orbit(group, v) == frozenset(object_apply(g.entries, v) for g in group)


@pytest.mark.parametrize("kind", ["rational", "huge"])
def test_h4_orbit_matches_object_arithmetic(kind):
    group = generate(H4)
    v = _test_vector(H4, kind, random.Random(6))
    expected = frozenset(object_apply(g.entries, v) for g in group)
    assert orbit(group, v) == expected and len(expected) > 1


def _batched_images(numerators, v):
    """The image of v under each matrix of numerators (n, d, d, 2) over 4,
    from one batched kernels.quad_product, as orbit computes them."""
    x, den = v.numerators()
    images = kernels.quad_product(
        numerators, groups._int_array(x, (2, v.dim)).T, v.kappa)
    return [ExactVector.from_numerators(m.T.ravel().tolist(), 4 * den, v.kappa)
            for m in images]


def _form(v):
    return v.form, v.den, v.kappa


@pytest.mark.parametrize("kind", ["member", "rational", "huge"])
@pytest.mark.parametrize("system,sample", [(H3, None), (H4, 300)], ids=str)
def test_apply_matches_the_batched_product(system, sample, kind):
    group = generate(system)
    rng = random.Random(11)
    picks = (range(group.order) if sample is None
             else sorted(rng.sample(range(group.order), sample)))
    v = _test_vector(system, kind, rng)
    # coordinates near 10^30 take the batched product's object-dtype path
    assert (max(map(abs, v.form)) > kernels.INT64_MAX) == (kind == "huge")
    batched = _batched_images(group.numerators[list(picks)], v)
    images = [group[i].apply(v) for i in picks]
    assert list(map(_form, images)) == list(map(_form, batched))
    if sample is None:
        assert frozenset(images) == orbit(group, v)


def _entry(p, q, kappa, den):
    return QuadraticRingElement(p, q, kappa, den)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(2, 4), kappa=st.sampled_from([2, 3, 5]),
       scale=st.sampled_from([1, 10 ** 20]))
def test_matmul_matches_object_arithmetic(data, d, kappa, scale):
    # denominators 1-8 leave the group encoding; 10^20 leaves int64
    cell = st.builds(lambda p, q, den: _entry(scale * p, q, kappa, den),
                     st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 8))
    matrix = st.lists(st.lists(cell, min_size=d, max_size=d), min_size=d, max_size=d)
    a, b = data.draw(matrix), data.draw(matrix)
    product = GroupElement(a) @ GroupElement(b)
    assert product.entries == object_matmul(a, b)
    assert product == GroupElement(object_matmul(a, b))


@pytest.mark.parametrize("system", list(SYSTEMS), ids=str)
def test_integer_elements_equal_and_hash_like_entry_built_ones(system):
    group = generate(system)
    for g in random.Random(8).sample(group, 10):
        built = GroupElement(g.entries)
        assert built == g and hash(built) == hash(g) and built in group
        assert (built.den, built.numerators.tobytes()) == (4, g.numerators.tobytes())
    assert group.compact_byte_set() == frozenset(
        GroupElement(g.entries).numerators.tobytes() for g in group)


def test_rational_matrices_ignore_their_kappa_label():
    def diag(kappa, q=0):
        return GroupElement([[_entry(1, q, kappa, 2), _entry(0, 0, kappa, 1)],
                             [_entry(0, 0, kappa, 1), _entry(-3, 0, kappa, 1)]])
    assert diag(2) == diag(5) and hash(diag(2)) == hash(diag(5))
    assert len({diag(2), diag(3), diag(5)}) == 1
    assert diag(2, q=1) != diag(5, q=1)
    assert diag(5, q=1) == GroupElement(diag(5, q=1).entries)


def _irrational_element(system):
    return next(g for g in generate(system)
                if any(c.q for row in g.entries for c in row))


def test_apply_refuses_a_vector_of_another_dimension():
    g = _irrational_element(H3)
    with pytest.raises(DomainError, match="3x3"):
        g.apply(roots(H4)[0])
    with pytest.raises(DomainError, match="3x3"):
        g.apply(ExactVector((1, 2)))
    with pytest.raises(DomainError, match="3x3"):
        orbit(generate(H3), roots(H4)[0])


def test_apply_refuses_another_radicand():
    v = ExactVector((QuadraticRingElement(0, 1, 2), 1, 0))
    with pytest.raises(DomainError):
        _irrational_element(H3).apply(v)
    with pytest.raises(DomainError):
        orbit(generate(H3), v)


def test_integer_paths_build_no_entries(monkeypatch):
    group = generate(H4)
    g, v = group[77], roots(H4)[3]

    def refuse(self):
        raise AssertionError("entries built")

    monkeypatch.setattr(GroupElement, "entries", property(refuse))
    assert len(orbit(group, v)) == 120
    assert g.apply(v) in frozenset(roots(H4))
    assert g @ g in group and g in group
    assert len(group.compact_byte_set()) == 14400


def test_byte_rows_are_the_rows_bytes():
    arr = np.arange(5 * 4 * 4 * 2, dtype=np.int64).reshape(5, 4, 4, 2)
    assert groups._byte_rows(arr) == [m.tobytes() for m in arr]
    assert groups._byte_rows(arr[1:3, ::-1]) == [m.tobytes() for m in arr[1:3, ::-1]]
    assert groups._byte_rows(arr[:0]) == []


def test_group_elements_are_built_on_first_read():
    group = generate.__wrapped__(H4)    # a fresh group, leaving the cache as is
    fields = {"system", "kappa", "numerators"}
    assert group.order == 14400
    assert len(orbit(group, roots(H4)[0])) == 120
    assert group.entry_triples().shape == (14400, 4, 4, 3)
    g = group[77]
    assert sum(1 for _ in group) == 14400 and group[0] == identity_element(4)
    assert set(group.__dict__) == fields
    assert np.shares_memory(g.numerators, group.numerators)
    units = unit_icosians()
    assert h4_element_from_quaternions(units[5], units[17]) in group
    assert set(group.__dict__) == fields | {"_row_bytes"}
    assert group.compact_byte_set() is group.compact_byte_set()
    assert len(group.compact_byte_set()) == 14400


def test_group_elements_index_like_a_tuple():
    group = generate(H3)
    rows = group.numerators
    assert isinstance(group, Sequence) and len(group) == 120
    for i in (0, 1, 77, 119, -1, -120):
        assert group[i].numerators.tobytes() == rows[i].tobytes()
        assert (group[i].den, group[i].kappa) == (4, 5)
    for cut in (slice(3, 40, 7), slice(None, None, -1), slice(5, 2), slice(-3, None)):
        assert [g.numerators.tobytes() for g in group[cut]] == [m.tobytes() for m in rows[cut]]
    assert list(reversed(group)) == list(group[::-1]) and group.index(group[9]) == 9
    assert group.count(group[9]) == 1
    for i in (120, -121, 10**20):
        with pytest.raises(IndexError):
            group[i]
    for i in (1.0, (0, 1), "0"):
        with pytest.raises(TypeError):
            group[i]


@pytest.mark.parametrize("system", [I2(5), I2(8), I2(10), I2(12), H3, H4], ids=str)
def test_a_group_is_the_read_only_sequence_of_its_rows(system):
    group = generate(system)
    before = group.numerators.tobytes()
    assert group.elements is group and not group.numerators.flags.writeable
    g = group[group.order // 2]
    with pytest.raises(ValueError):
        g.numerators[0, 0, 0] += 4
    with pytest.raises(ValueError):
        group.numerators[-1] = 0
    assert group.numerators.tobytes() == before == generate(system).numerators.tobytes()


def test_every_kind_of_element_is_read_only():
    # _key holds the bytes an element was made with, so they must not change
    group = generate(H3)
    made = {
        "product": group[5] @ group[7],
        "columns": GroupElement.from_columns(roots(H3)[:3]),
        "entries": GroupElement([[_entry(1, 0, 5, 2), _entry(0, 1, 5, 2)],
                                 [_entry(0, 0, 5, 1), _entry(1, 0, 5, 1)]]),
        "reflection": reflection_matrix(roots(H3)[0]),
        "identity": identity_element(3),
    }
    for kind, g in made.items():
        with pytest.raises(ValueError):
            g.numerators[0, 0, 0] += 4
        assert not g.numerators.flags.writeable, kind


def test_random_picks_build_only_the_elements_they_return(monkeypatch):
    group = generate(H4)
    calls = []
    wrap = GroupElement._wrap.__func__
    monkeypatch.setattr(GroupElement, "_wrap",
                        classmethod(lambda cls, *args: calls.append(1) or wrap(cls, *args)))
    picks = random.Random(3).sample(group, 25)
    picks.append(random.Random(4).choice(group))
    assert len(calls) == 26
    # the same draws as over range(order): element i is row i
    index = random.Random(3).sample(range(14400), 25) + [random.Random(4).choice(range(14400))]
    assert [g.numerators.tobytes() for g in picks] == [
        group.numerators[i].tobytes() for i in index]


def _relabelled(g, kappa):
    return GroupElement._wrap(g.numerators, g.den, kappa)


@pytest.mark.parametrize("system", [I2(5), I2(8), I2(10), I2(12), H3, H4], ids=str)
def test_membership_keeps_the_element_equality_rule(system):
    group = generate(system)
    index = {g: i for i, g in enumerate(group)}    # membership by __eq__ and hash
    rng = random.Random(11)
    picks = rng.sample(group, min(12, group.order))
    d, other = picks[0].dim, 2 if group.kappa != 2 else 3
    members = picks + [GroupElement(g.entries) for g in picks[:4]] + [
        a @ b for a, b in zip(picks, picks[1:])]
    relabelled = [_relabelled(g, k) for g in picks for k in (2, 3, 5)]
    # c times the identity: entries over 4 and 8, and one past int64
    scaled = [GroupElement([[c if i == j else 0 for j in range(d)] for i in range(d)])
              for c in (2, Fraction(1, 2), Fraction(1, 8), 2**70)]
    others = [g for s in (I2(5), I2(8), I2(10), H3) if s != system
              for g in generate(s)[-6:]]
    queries = members + relabelled + others + scaled + [None, "e"]
    answers = [g in group for g in queries]
    assert answers == [g in index for g in queries]
    assert all(answers[:len(members)]) and not any(answers[-len(scaled) - 2:])
    # a kappa label counts only for an irrational element
    for g in picks:
        assert (_relabelled(g, other) in group) == (not g._irrational())
    assert any(g._irrational() for g in picks) and not all(g._irrational() for g in picks)


def test_a_fresh_group_holds_its_array_and_little_else():
    generate(H4)    # the roots, Gram rows and unit vectors, built before tracing
    tracemalloc.start()
    try:
        group = generate.__wrapped__(H4)
        g = group[9000]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g in group and group.numerators.nbytes == 14400 * 4 * 4 * 2 * 8
    assert held - group.numerators.nbytes < 0.25e6


def test_generate_redoes_the_closure_after_cache_clear(monkeypatch):
    calls = []
    closure = groups._numbers_game
    monkeypatch.setattr(groups, "_numbers_game",
                        lambda *args: calls.append(args) or closure(*args))
    first = generate(H3)
    generate.cache_clear()
    second = generate(H3)
    assert len(calls) == 1 and second is not first
    assert second.compact_byte_set() == first.compact_byte_set()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(2, 4), kappa=st.sampled_from([2, 3, 5]))
def test_from_columns_puts_each_vector_in_its_column(data, d, kappa):
    cell = st.builds(lambda p, q, den: _entry(p, q, kappa, den),
                     st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 8))
    columns = data.draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                                 min_size=d, max_size=d))
    m = GroupElement.from_columns(ExactVector(col) for col in columns)
    assert m.entries == tuple(zip(*columns))
    assert m == GroupElement(zip(*columns)) and m.den % 4 == 0


def test_from_columns_refuses_a_matrix_that_is_not_square():
    with pytest.raises(DomainError, match="2x2"):
        GroupElement.from_columns([ExactVector((1, 0, 0)), ExactVector((0, 1, 0))])


@pytest.mark.parametrize("system", [I2(5), H3], ids=str)
def test_is_orthogonal_refuses_a_stretch(system):
    d, g = system.rank, gram(system)
    stretch = GroupElement([[2 if i == j == 0 else int(i == j) for j in range(d)]
                            for i in range(d)])
    assert not stretch.is_orthogonal(g) and not stretch.is_orthogonal()
    assert identity_element(d).is_orthogonal(g)


def test_closure_refuses_a_generator_off_the_quarter_integers():
    # the closure keeps every element over the denominator 4
    third = GroupElement([[_entry(1, 0, 5, 3), _entry(0, 0, 5, 1)],
                          [_entry(0, 0, 5, 1), _entry(1, 0, 5, 1)]])
    assert third.den == 12
    cartan = groups._cartan(simple_roots(I2(5)), gram(I2(5)))
    with pytest.raises(DomainError, match="divide 4"):
        groups._numbers_game([identity_element(2), third], cartan, 5, 6)
    # 2<a, b>/<b, b> = 2/3 for a = (1, 0, 0), b = (1, 1, 1)
    with pytest.raises(DomainError, match="not over the denominator 2"):
        groups._cartan([ExactVector((1, 0, 0)), ExactVector((1, 1, 1))], None)


def _seen_set_bfs(gens, kappa):
    """Reference: breadth-first closure over every product w*s, generator
    by generator, keeping each element's first occurrence by its bytes."""
    ident = identity_element(gens[0].dim).numerators
    seen, frontier, levels = {ident.tobytes()}, ident[None], [ident[None]]
    while len(frontier):
        prods = np.concatenate(
            [kernels.quad_matmul_batch(frontier, g.numerators, kappa) for g in gens])
        new = []
        for i, m in enumerate(prods):
            if m.tobytes() not in seen:
                seen.add(m.tobytes())
                new.append(i)
        frontier = prods[new]
        levels.append(frontier)
    return np.concatenate(levels)


def _closure_inputs(system):
    g, simple = gram(system), simple_roots(system)
    return [reflection_matrix(r, g) for r in simple], groups._cartan(simple, g)


@pytest.mark.parametrize("system", [I2(5), I2(8), I2(10), I2(12), H3, H4], ids=str)
def test_numbers_game_keeps_the_seen_set_order(system):
    gens, _ = _closure_inputs(system)
    want = _seen_set_bfs(gens, kappa_of(system))
    got = generate(system).numerators
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_closure_refuses_to_run_past_its_level_cap():
    # H3 has 15 positive roots, so its longest element ends level 15 of 0..15
    gens, cartan = _closure_inputs(H3)
    assert len(groups._numbers_game(gens, cartan, 5, 16)) == 120
    with pytest.raises(DomainError, match="past 15 levels"):
        groups._numbers_game(gens, cartan, 5, 15)


def test_closure_refuses_an_odd_a_product_and_int64_overflow():
    gens, _ = _closure_inputs(H3)
    # C[s, t] = 1/2 off the diagonal: one step leaves a_t = 1 - 1/2, the
    # pair (1, 0) over 2, and the next product (1/2)(1/2) is (1, 0) over 4
    halves = np.array([[[4 if s == t else 1, 0] for t in range(3)] for s in range(3)])
    with pytest.raises(ArithmeticError, match="odd"):
        groups._numbers_game(gens, halves, 5, 16)
    huge = np.array([[[4 if s == t else -2 ** 40, 0] for t in range(3)] for s in range(3)])
    with pytest.raises(ArithmeticError, match="int64"):
        groups._numbers_game(gens, huge, 5, 16)


@settings(max_examples=300, deadline=None)
@given(kappa=st.sampled_from([2, 3, 5]),
       p=st.integers(-10 ** 9, 10 ** 9), q=st.integers(-10 ** 9, 10 ** 9))
# p/q near -sqrt(kappa), where the signs of p + q and p + q*sqrt(kappa) differ
@example(2, 7, -5)
@example(2, -99, 70)
@example(3, 7, -4)
@example(3, -26, 15)
@example(5, 9, -4)
@example(5, -2889, 1292)
@example(5, 0, 0)
def test_closure_sign_test_is_exact(kappa, p, q):
    """The closure's descent test and the order of ring elements share
    signed_squares; a 40-digit decimal decides the sign of p + q*sqrt(kappa)
    exactly for |p|, |q| <= 10**9, where a non-zero value passes 10**-10."""
    with localcontext() as ctx:
        ctx.prec = 40
        want = Decimal(p) + Decimal(q) * Decimal(kappa).sqrt() > 0
    assert (QuadraticRingElement(p, q, kappa) > 0) == want
    assert (signed_squares(np.array([p]), np.array([q]), kappa)[0] > 0) == want
