"""Acceptance suite: one test per criterion, each printing a pass/fail
line (visible even under pytest's output capture)."""

import math
import random
import time

import numpy as np
import pytest

import qlat
from qlat.cutproject import (
    Window,
    e8_gram,
    e8_roots,
    embedding,
    generate_patch,
    structure_factor,
)
from qlat.groups import enumerate_h4_quaternion_maps, generate
from qlat.modules import (
    QL_NAMES,
    H4Residue,
    contains_root_copy,
    enumerate_h4_residues,
    membership,
    ql,
    random_member,
    residue_is_golden_multiple_of_root,
    verify_table1,
)
from qlat.quaternions import (
    GoldenQuaternion,
    is_in_icosian_ring,
    qmul,
    unit_icosians,
)
from qlat.ring import QuadraticRingElement, golden, tau
from qlat.roots import _EVEN_PERMS_4, H3, H4, I2, roots
from qlat.textio import parse_exact_vector

TAU = (1 + 5 ** 0.5) / 2


def _report(capsys, number, label, body, limit=None):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:2d} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"criterion {number:2d} ({label}): PASS [{elapsed:.1f}s]")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def test_criterion_01_root_counts(capsys):
    def body():
        assert len(roots(H3)) == 30
        assert len(roots(H4)) == 120
        for n in (5, 8, 10, 12):
            assert len(roots(I2(n))) == 2 * n

    _report(capsys, 1, "root counts", body, limit=1)


def test_criterion_02_group_orders(capsys):
    def body():
        for n in (5, 8, 10, 12):
            assert generate(I2(n)).order == 2 * n
        assert generate(H3).order == 120
        h4 = generate(H4)
        assert h4.order == 14400
        raw, distinct = enumerate_h4_quaternion_maps()
        assert raw == 28800
        assert len(distinct) == 14400
        assert distinct == h4.compact_byte_set()

    _report(capsys, 2, "group orders", body, limit=60)


def test_criterion_03_icosian_closure(capsys):
    def body():
        units = unit_icosians()
        unit_set = set(units)
        for a in units:
            for b in units:
                assert qmul(a, b) in unit_set
        rng = random.Random(2024)

        def random_ring_element():
            total = GoldenQuaternion(0, 0, 0, 0)
            for _ in range(3):
                c = golden(rng.randint(-2, 2), rng.randint(-2, 2))
                total = total + rng.choice(units).scale(c)
            return total

        for _ in range(10_000):
            a = random_ring_element()
            b = random_ring_element()
            c = a + b if rng.random() < 0.5 else qmul(a, b)
            assert is_in_icosian_ring(c)

    _report(capsys, 3, "icosian closure", body, limit=30)


def test_criterion_04_h4_residues(capsys):
    def body():
        res = enumerate_h4_residues()
        assert len(res) == 16

        expected = {
            H4Residue((0, 0, 0, 0), (0, 0, 0, 0)),
            H4Residue((1, 1, 1, 1), (0, 0, 0, 0)),
            H4Residue((0, 0, 0, 0), (1, 1, 1, 1)),
            H4Residue((1, 1, 1, 1), (1, 1, 1, 1)),
        }
        pattern = ((0, 0), (1, 1), (0, 1), (1, 0))  # 0, 1+tau, tau, 1
        for perm in _EVEN_PERMS_4:
            m = tuple(pattern[perm.index(i)][0] for i in range(4))
            n = tuple(pattern[perm.index(i)][1] for i in range(4))
            expected.add(H4Residue(m, n))
        assert res == frozenset(expected)

        for r in res:
            assert residue_is_golden_multiple_of_root(r)

    _report(capsys, 4, "H4 residues", body, limit=1)


def test_criterion_05_scale_table(capsys):
    def body():
        report = verify_table1()
        assert report.summary() == "7/7"
        powers = [r.minimal_power for r in report.rows]
        assert powers == [1, 1, 1, 3, 1, 1, 1]
        factors = {r.ql: r.expected_factor for r in report.rows}
        assert factors["I2-5"] == "tau"
        assert factors["I2-8"] == "1+sqrt(2)"
        assert factors["I2-12"] == "2+sqrt(3)"

    _report(capsys, 5, "scale-factor table", body, limit=10)


def test_criterion_06_ql_axioms(capsys):
    def body():
        for name in QL_NAMES:
            qlm = ql(name)
            group = generate(qlm.system)
            rng = random.Random(hash(name) & 0xFFFF)
            for _ in range(10_000 // 2):
                a = random_member(qlm, rng, bound=4)
                b = random_member(qlm, rng, bound=4)
                assert membership(qlm, a + b).member
                assert membership(qlm, a - b).member
            for _ in range(10_000 // 2):
                g = rng.choice(group)
                v = random_member(qlm, rng, bound=4)
                assert membership(qlm, g.apply(v)).member
            assert contains_root_copy(qlm)

    _report(capsys, 6, "QL module axioms", body)


def test_criterion_07_h3_containments(capsys):
    def body():
        fcc, prim, bcc = ql("H3-fcc"), ql("H3-primitive"), ql("H3-bcc")
        rng = random.Random(77)
        for _ in range(500):
            assert membership(prim, random_member(fcc, rng)).member
            assert membership(bcc, random_member(prim, rng)).member
        # strictness witnesses
        v1 = parse_exact_vector("1,t,0")
        assert membership(prim, v1).member
        assert not membership(fcc, v1).member
        half_sum = bcc.from_basis_coefficients([0, 0, 0, 0, 0, 1])
        assert membership(bcc, half_sum).member
        assert not membership(prim, half_sum).member

    _report(capsys, 7, "H3 containments", body, limit=60)


def test_criterion_08_e8_projection(capsys):
    def body():
        g = e8_gram()
        assert (g == g.T).all()
        assert (np.diag(g) % 2 == 0).all()
        assert round(np.linalg.det(g)) in (1, -1)
        rts = e8_roots()
        assert len(rts) == 240
        qlm = ql("H4")
        t = tau()
        units = {u.as_vector() for u in unit_icosians()}
        one = QuadraticRingElement(1)
        shells = {one: set(), (t - 1) * (t - 1): set()}
        for n in rts:
            v = qlm.from_basis_coefficients(n)
            shells[v.dot(v)].add(v)
        assert all(len(s) == 120 for s in shells.values())
        assert shells[one] == units

    _report(capsys, 8, "E8 projection", body, limit=5)


def test_criterion_09_patches(capsys):
    def body():
        counts = []
        emb = embedding("H3-primitive")
        for r in (4.0, 8.0, 16.0):
            patch = generate_patch(emb, Window("cell"), r)
            counts.append(patch.size)
            qlm = ql("H3-primitive")
            for v in patch.exact[:: max(1, patch.size // 200)]:
                assert membership(qlm, v).member
        for i in range(2):
            slope = math.log(counts[i + 1] / counts[i]) / math.log(2)
            assert abs(slope - 3.0) <= 0.3, counts

        emb4 = embedding("H4")
        patch4 = generate_patch(emb4, Window("ball", 1.0), 2.0)
        qlm4 = ql("H4")
        for v in patch4.exact:
            assert membership(qlm4, v).member

        small = generate_patch(emb, Window("cell", 0.7), 6.0)
        points = set(small.exact)
        for g in generate(H3):
            assert {g.apply(v) for v in points} == points

    _report(capsys, 9, "cut-and-project patches", body, limit=120)


def test_criterion_10_diffraction(capsys):
    def body():
        emb = embedding("H3-primitive")
        patch = generate_patch(emb, Window("cell"), 10.0)
        s = 2 * math.pi / (2 * (2 + TAU))
        peaks = [
            (2, -1, 1, 1, 1, -1),
            (1, -1, 2, -1, 1, 1),
            (1, -1, -1, 2, -1, -1),
            (1, -2, 1, 1, -1, 1),
            (1, 1, 1, -1, 2, -1),
        ]
        for n in peaks:
            k = s * (emb.parallel @ np.array(n, dtype=float))
            assert structure_factor(patch, k) >= 0.1
        rng = np.random.default_rng(0)
        for _ in range(20):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            k = rng.uniform(1.0, 4.0) * direction
            assert structure_factor(patch, k) <= 0.01

    _report(capsys, 10, "diffraction", body, limit=60)
