"""Quasilattice modules: membership, residues, rescaling, containments."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exact_oracle import (
    det,
    inverse,
    h4_parity_ok,
    object_combination,
    power_scale_verdict,
    rule_membership,
)
from qlat.cutproject import e8_gram
from qlat.modules import (
    QL_NAMES,
    H4Residue,
    _integer_inverse,
    contains_root_copy,
    enumerate_h4_residues,
    h4_residue_of,
    hnf_rows,
    membership,
    ql,
    random_member,
    residue_is_golden_multiple_of_root,
    residue_representative,
    scale_classification,
    verify_table1,
)
from qlat.ring import DomainError, QuadraticRingElement, fundamental_unit, golden, tau
from qlat.roots import _EVEN_PERMS_4, roots
from qlat.textio import parse_exact_vector
from qlat.vectors import ExactVector


def test_names_and_aliases():
    assert ql("H3-1").name == "H3-primitive"
    assert ql("I2-10").name == "I2-5"
    with pytest.raises(DomainError):
        ql("H5")


@pytest.mark.parametrize("name", QL_NAMES)
def test_member_basis_is_a_basis(name):
    qlm = ql(name)
    assert len(qlm.member_basis) == qlm.rank
    for b in qlm.member_basis:
        res = membership(qlm, b)
        assert res.member, (name, b)


# -- integer linear algebra ------------------------------------------------

_H4_MEMBER_BASIS = (
    (1, 0, 0, -1, 0, 2, 1, 1), (0, 1, 0, 1, 0, -1, -1, 0),
    (0, 0, 1, 1, 0, -1, 0, -1), (0, 0, 0, 2, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 1, 1), (0, 0, 0, 0, 0, 2, 0, 0),
    (0, 0, 0, 0, 0, 0, 2, 0), (0, 0, 0, 0, 0, 0, 0, 2),
)


def test_h4_member_basis_rows_are_pinned():
    # every patch's coefficients, and so every patch digest, are in this basis
    assert ql("H4").member_basis_coeffs == _H4_MEMBER_BASIS
    assert ql("H4").member_basis_den == 1


@pytest.mark.parametrize("name", QL_NAMES)
def test_cached_modules_hold_only_tuples(name):
    qlm = ql(name)
    assert type(qlm.frame) is tuple and type(qlm.member_basis) is tuple
    for attr in ("member_basis_coeffs", "_basis_rows", "_frame_rows", "_inverse"):
        table = getattr(qlm, attr)
        assert type(table) is tuple and all(type(row) is tuple for row in table), attr
    with pytest.raises(AttributeError):
        qlm.member_basis.append(qlm.member_basis[0])
    assert e8_gram().shape == (8, 8)


def _square_matrices(max_size=8, bound=9):
    return st.integers(1, max_size).flatmap(lambda n: st.lists(
        st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
        min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(rows=_square_matrices(), den=st.integers(1, 60))
def test_integer_inverse_matches_the_adjugate(rows, den):
    assume(det(rows) != 0)
    expected = [[x * den for x in row] for row in inverse(rows)]
    expected_den = lcm(*(x.denominator for row in expected for x in row))
    assert _integer_inverse(rows, den) == (
        [[int(x * expected_den) for x in row] for row in expected], expected_den)


@settings(max_examples=30, deadline=None)
@given(rows=_square_matrices(), den=st.integers(1, 60),
       weights=st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_integer_inverse_refuses_a_singular_matrix(rows, den, weights):
    # the last row becomes an integer combination of the others
    rows[-1] = [sum(w * row[j] for w, row in zip(weights, rows[:-1]))
                for j in range(len(rows))]
    with pytest.raises(DomainError, match="singular"):
        _integer_inverse(rows, den)


def _maximal_minor_gcd(rows, rank):
    """gcd of the rank x rank minors of an integer matrix: the same for any
    two generating sets of one lattice of that rank."""
    return gcd(*(int(det([[rows[i][j] for j in cols] for i in picked]))
                 for picked in combinations(range(len(rows)), rank)
                 for cols in combinations(range(len(rows[0])), rank)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-12, 12), min_size=n, max_size=n), min_size=1, max_size=6)))
def test_hnf_rows_is_an_echelon_basis_of_the_same_lattice(gens):
    basis = hnf_rows(gens)
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    assert pivots == sorted(set(pivots))
    for i, (row, col) in enumerate(zip(basis, pivots)):
        assert row[col] > 0
        assert i == 0 or 0 <= basis[i - 1][col] < row[col]
    # every generator reduces to zero against the echelon rows, so the
    # basis spans them; equal minor gcds then make the lattices equal
    for gen in gens:
        rest = list(gen)
        for row, col in zip(basis, pivots):
            q, r = divmod(rest[col], row[col])
            assert r == 0
            rest = [x - q * y for x, y in zip(rest, row)]
        assert not any(rest)
    if basis:
        assert _maximal_minor_gcd(gens, len(basis)) == _maximal_minor_gcd(basis, len(basis))


def test_h4_roots_are_members_at_unit_scale():
    qlm = ql("H4")
    for r in roots(qlm.system):
        assert membership(qlm, r).member


def test_h3_roots_need_rescaling():
    # the icosahedral modules hold a scaled copy of the root system, not
    # the unit-scale roots themselves
    qlm = ql("H3-primitive")
    r = roots(qlm.system)[0]
    assert not membership(qlm, r).member
    assert membership(qlm, r.scale(QuadraticRingElement(2))).member


def test_membership_witnesses():
    # the first frame vector is primitive but breaks the even-sum rule
    v1 = parse_exact_vector("1,t,0")
    assert membership(ql("H3-primitive"), v1).member
    assert not membership(ql("H3-fcc"), v1).member
    assert membership(ql("H3-bcc"), v1).member
    # the all-half coefficient vector is bcc-only
    qlm = ql("H3-bcc")
    half_sum = qlm.from_basis_coefficients([0, 0, 0, 0, 0, 1])
    assert membership(qlm, half_sum).member
    assert not membership(ql("H3-primitive"), half_sum).member
    assert not membership(ql("H3-fcc"), half_sum).member
    # something outside every golden module
    third = ExactVector((QuadraticRingElement(1, 0, 5, 3),
                         QuadraticRingElement(0), QuadraticRingElement(0)))
    for name in ("H3-primitive", "H3-fcc", "H3-bcc"):
        assert not membership(ql(name), third).member


def test_h3_strict_containments():
    """fcc < primitive < bcc, both strict."""
    rng = random.Random(1)
    fcc, prim, bcc = ql("H3-fcc"), ql("H3-primitive"), ql("H3-bcc")
    for _ in range(300):
        v = random_member(fcc, rng)
        assert membership(prim, v).member
    for _ in range(300):
        v = random_member(prim, rng)
        assert membership(bcc, v).member


def test_h4_membership_round_trip():
    qlm = ql("H4")
    rng = random.Random(8)
    for _ in range(200):
        v = random_member(qlm, rng)
        res = membership(qlm, v)
        assert res.member
        assert qlm.from_basis_coefficients(
            [Fraction(c) for c in qlm.basis_coefficients(v)]
        ) == v


def test_h4_coefficient_lattice_index_is_16():
    qlm = ql("H4")
    mat = [[Fraction(int(x)) for x in row] for row in qlm.member_basis_coeffs]
    assert abs(det(mat)) == 16


@pytest.mark.parametrize("name,count", [("H4", 2), ("H4", 9), ("I2-5", 3)])
def test_wrong_number_of_basis_coefficients_refused(name, count):
    with pytest.raises(DomainError, match=f"take {ql(name).rank} basis coefficients"):
        ql(name).from_basis_coefficients(list(range(1, count + 1)))


# -- the integer basis against the paper's coefficient rules --------------

def _assert_agrees_with_rules(qlm, v):
    member, coeffs = rule_membership(qlm, v)
    res = membership(qlm, v)
    assert res.member == member, (qlm.name, v)
    if member:
        assert res.coefficients == coeffs
    if coeffs is not None:
        assert qlm.frame_coefficients(v) == coeffs
    return member


_INTS = st.lists(st.integers(-9, 9), min_size=8, max_size=8)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(QL_NAMES), _INTS,
       st.sampled_from((0, Fraction(1, 2), Fraction(1, 3))), st.integers(0, 7))
def test_membership_matches_rules_near_members(name, ints, offset, i):
    qlm = ql(name)
    v = object_combination(qlm.member_basis, ints[:qlm.rank])
    assert _assert_agrees_with_rules(qlm, v)
    step = [0] * qlm.rank
    step[i % qlm.rank] = offset
    _assert_agrees_with_rules(qlm, v + object_combination(qlm.frame, step))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(QL_NAMES), _INTS)
def test_membership_matches_rules_on_frame_combinations(name, ints):
    qlm = ql(name)
    coeffs = ints[:qlm.rank]
    # all half-integers: members of H3-bcc only
    half = [Fraction(2 * c + 1, 2) for c in coeffs]
    member = _assert_agrees_with_rules(qlm, object_combination(qlm.frame, half))
    assert member == (name == "H3-bcc")
    # integers, then the same with an odd coefficient sum
    _assert_agrees_with_rules(qlm, object_combination(qlm.frame, coeffs))
    coeffs[0] += 1 - sum(coeffs) % 2
    member = _assert_agrees_with_rules(qlm, object_combination(qlm.frame, coeffs))
    if name == "H3-fcc":
        assert not member


def test_membership_matches_rules_on_h4_classes_and_foreign_vectors():
    qlm = ql("H4")
    base = object_combination(qlm.member_basis, [3, -1, 4, 1, -5, 9, 2, -6])
    members = sum(
        _assert_agrees_with_rules(qlm, base + object_combination(qlm.frame, bits))
        for bits in product((0, 1), repeat=8)
    )
    assert members == 16
    sqrt2 = QuadraticRingElement(0, 1, 2)
    for name in QL_NAMES:
        qlm = ql(name)
        other = sqrt2 if qlm.kappa != 2 else tau()
        wrong_ring = ExactVector([other] + [QuadraticRingElement(0)] * (qlm.dim - 1))
        wrong_dim = ExactVector([QuadraticRingElement(1)] * (qlm.dim + 1))
        for v, reason in ((wrong_ring, "mixed radicands"), (wrong_dim, "dimension")):
            assert not _assert_agrees_with_rules(qlm, v)
            assert reason in membership(qlm, v).reason
            with pytest.raises(DomainError):
                qlm.frame_coefficients(v)


@pytest.mark.parametrize("name", QL_NAMES)
def test_member_basis_is_its_frame_combination(name):
    qlm = ql(name)
    for b, row in zip(qlm.member_basis, qlm.member_basis_coeffs):
        coeffs = [Fraction(c, qlm.member_basis_den) for c in row]
        assert b == object_combination(qlm.frame, coeffs)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(QL_NAMES),
       st.lists(st.tuples(st.integers(-10**12, 10**12), st.integers(1, 6)),
                min_size=8, max_size=8))
def test_from_basis_coefficients_matches_object_combination(name, pairs):
    qlm = ql(name)
    coeffs = [Fraction(a, b) for a, b in pairs[:qlm.rank]]
    assert qlm.from_basis_coefficients(coeffs) == \
        object_combination(qlm.member_basis, coeffs)
    ints = [a for a, _ in pairs[:qlm.rank]]
    assert qlm.from_basis_coefficients(np.array(ints)) == \
        object_combination(qlm.member_basis, ints)


# -- residues -----------------------------------------------------------

def test_sixteen_residues():
    res = enumerate_h4_residues()
    assert len(res) == 16
    by_rule = {
        H4Residue(m, n)
        for m in np.ndindex(2, 2, 2, 2)
        for n in np.ndindex(2, 2, 2, 2)
        if h4_parity_ok(m, n)
    }
    assert len(by_rule) == 16
    assert res == by_rule


def _expected_residues():
    """The classes of 0, (1,1,1,1)/2, tau(1,1,1,1)/2, (1+tau)(1,1,1,1)/2
    and the even permutations of (0, 1+tau, tau, 1)/2."""
    out = set()
    out.add(H4Residue((0, 0, 0, 0), (0, 0, 0, 0)))
    out.add(H4Residue((1, 1, 1, 1), (0, 0, 0, 0)))
    out.add(H4Residue((0, 0, 0, 0), (1, 1, 1, 1)))
    out.add(H4Residue((1, 1, 1, 1), (1, 1, 1, 1)))
    # per-coordinate (m, n) patterns for (0, 1+tau, tau, 1)
    pattern = ((0, 0), (1, 1), (0, 1), (1, 0))
    for perm in _EVEN_PERMS_4:
        m = tuple(pattern[perm.index(i)][0] for i in range(4))
        n = tuple(pattern[perm.index(i)][1] for i in range(4))
        out.add(H4Residue(m, n))
    return out


def test_residue_set_matches_the_explicit_list():
    assert enumerate_h4_residues() == frozenset(_expected_residues())


def test_every_residue_is_a_golden_multiple_of_a_root():
    for r in enumerate_h4_residues():
        assert residue_is_golden_multiple_of_root(r)


def test_residue_of_representative_round_trips():
    for r in enumerate_h4_residues():
        rep = residue_representative(r)
        assert h4_residue_of(rep) == r
        assert membership(ql("H4"), rep).member


def test_disallowed_residue_rejected():
    bad = H4Residue((1, 0, 0, 0), (0, 0, 0, 0))
    assert bad not in enumerate_h4_residues()
    with pytest.raises(DomainError):
        residue_is_golden_multiple_of_root(bad)
    rep = residue_representative(bad)
    assert not membership(ql("H4"), rep).member
    with pytest.raises(DomainError, match="not half golden integral"):
        h4_residue_of(ExactVector((Fraction(1, 3), 0, 0, 0)))


# -- rescaling ----------------------------------------------------------

def test_scale_by_tau_on_each_module():
    t = tau()
    assert scale_classification(ql("H3-fcc"), t).verdict == "invariant"
    assert scale_classification(ql("H3-bcc"), t).verdict == "invariant"
    assert scale_classification(ql("H4"), t).verdict == "invariant"
    assert scale_classification(ql("I2-5"), t).verdict == "invariant"
    assert scale_classification(ql("H3-primitive"), t).verdict == "not-closed"
    assert scale_classification(ql("H3-primitive"), t, 2).verdict == "not-closed"
    assert scale_classification(ql("H3-primitive"), t, 3).verdict == "invariant"


def test_scale_rejects_non_units():
    with pytest.raises(DomainError):
        scale_classification(ql("H4"), QuadraticRingElement(2))
    with pytest.raises(DomainError):
        scale_classification(ql("H4"), QuadraticRingElement(1, 1, 2))


def test_tau_squared_is_still_invariant_where_tau_is():
    t = tau()
    cls = scale_classification(ql("H3-fcc"), t, 2)
    assert cls.verdict == "invariant"
    assert cls.index == 1


# units of norm 1 that are no algebraic integers, by radicand
_NON_INTEGRAL_UNITS = {5: QuadraticRingElement(21, 8, 5, 11),
                       2: QuadraticRingElement(11, 6, 2, 7),
                       3: QuadraticRingElement(19, 8, 3, 13)}


@pytest.mark.parametrize("name", QL_NAMES)
def test_scale_period_rule_matches_power_by_power_oracle(name):
    qlm = ql(name)
    u = fundamental_unit(qlm.kappa).unit
    odd = _NON_INTEGRAL_UNITS[u.kappa]
    assert abs(odd.norm()) == 1 and not odd.is_ring_integer()
    for factor in (u, -u, u * u, u ** 3, u ** -1, odd):
        for power in range(-6, 10):
            cls = scale_classification(qlm, factor, power)
            assert cls.verdict == power_scale_verdict(qlm, factor, power), \
                (factor, power)
            assert cls.index == (1 if cls.verdict == "invariant" else None)


def test_verify_table1():
    report = verify_table1()
    assert report.summary() == "7/7"
    assert report.all_ok
    powers = {r.ql: r.minimal_power for r in report.rows}
    assert powers == {
        "I2-5": 1, "I2-8": 1, "I2-12": 1,
        "H3-primitive": 3, "H3-fcc": 1, "H3-bcc": 1, "H4": 1,
    }
    factors = {r.ql: r.expected_factor for r in report.rows}
    assert factors["I2-8"] == "1+sqrt(2)"
    assert factors["I2-12"] == "2+sqrt(3)"
    assert factors["H3-primitive"] == "1+2tau"  # tau cubed


def test_fundamental_units_drive_the_table():
    assert fundamental_unit(2).unit == QuadraticRingElement(1, 1, 2)
    assert fundamental_unit(3).unit == QuadraticRingElement(2, 1, 3)
    assert fundamental_unit(5).unit == tau()


# -- module axioms ------------------------------------------------------

@pytest.mark.parametrize("name", QL_NAMES)
def test_closure_under_addition_randomized(name):
    qlm = ql(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(400):
        a = random_member(qlm, rng)
        b = random_member(qlm, rng)
        assert membership(qlm, a + b).member
        assert membership(qlm, a - b).member


@pytest.mark.parametrize("name", QL_NAMES)
def test_group_invariance_randomized(name):
    from qlat.groups import generate

    qlm = ql(name)
    group = generate(qlm.system)
    rng = random.Random(hash(name) & 0xFFF)
    for _ in range(150):
        g = rng.choice(group)
        v = random_member(qlm, rng)
        assert membership(qlm, g.apply(v)).member


@pytest.mark.parametrize("name", QL_NAMES)
def test_contains_root_copy(name):
    assert contains_root_copy(ql(name))


@pytest.mark.parametrize("name", ["H3-primitive", "H3-fcc", "H3-bcc"])
def test_h3_small_coefficient_members_stay_away_from_zero(name):
    """The module is dense overall, but members built from bounded
    coefficients have a positive minimum length."""
    qlm = ql(name)
    par = np.stack([b.to_floats() for b in qlm.member_basis], axis=1)
    box = np.indices((5,) * qlm.rank).reshape(qlm.rank, -1).T - 2
    box = box[box.any(axis=1)]
    shortest = np.linalg.norm(box @ par.T, axis=1).min()
    assert shortest > 0.05
