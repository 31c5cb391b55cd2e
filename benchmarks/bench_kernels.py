"""Time the three numpy kernels, the integer-backed group and quaternion
paths, group membership, exact vector and ring arithmetic, reflection
matrices, the cold build of the exact root systems, of the seven modules
and of the E8 roots, the scalar module coordinates and the patch path
(generate, exact points, write, read).

Run with ``PYTHONPATH=src python benchmarks/bench_kernels.py``.  Each line
gives the best of five runs after one warm-up run; the scalar lines make
1000 calls, so their milliseconds read as microseconds per call.  The
read_patch_csv lines and the cold H4 group with one element read also
give the tracemalloc peak of one more call.
"""

import os
import random
import tempfile
import time
import tracemalloc
from functools import partial

import numpy as np

from qlat import kernels


#: The lines that also give the tracemalloc peak of one more call.
PEAK_LABELS = ("read_patch_csv", "generate(H4)[k]")


def timeit(fn, repeat=5):
    fn()  # warm up
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def peak_mb(fn):
    """The tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def bench_quad_matmul():
    rng = np.random.default_rng(0)
    # even numerators over the denominator 4 keep every product in the ring
    a = 2 * rng.integers(-3, 4, size=(5000, 4, 4, 2))
    b = 2 * rng.integers(-3, 4, size=(4, 4, 2))
    return "quad_matmul_batch (5000 x 4x4)", lambda: kernels.quad_matmul_batch(a, b, 5)


def bench_ellipsoid_points():
    from qlat.cutproject import Window, _window_circumradius, embedding

    # the candidates of the H3-primitive cell patch of radius 16 (3471 points)
    emb = embedding("H3-primitive")
    w = _window_circumradius(emb, Window("cell"))
    basis = np.vstack([emb.parallel / 16.0, emb.perpendicular / w])
    return "ellipsoid_points (H3 patch, radius 16)", lambda: kernels.ellipsoid_points(basis, 2.0)


def bench_structure_factor():
    """Random points, and the points of the H4 ball patch of radius 5
    (9481 points, centrally symmetric) at 300 k vectors with |k| in [1, 4]."""
    from qlat.cutproject import Window, embedding, generate_patch

    rng = np.random.default_rng(1)
    points = rng.normal(size=(4000, 3))
    ks = rng.normal(size=(50, 3))
    patch = generate_patch(embedding("H4"), Window("ball"), 5.0)
    dirs = rng.normal(size=(300, 4))
    k300 = rng.uniform(1.0, 4.0, size=(300, 1)) * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    return [("structure_factor_sum (4000 pts x 50 k)",
             lambda: kernels.structure_factor_sum(points, ks)),
            ("structure_factor_sum (H4 ball 5 x 300 k)",
             lambda: kernels.structure_factor_sum(patch.points, k300))]


def bench_generate():
    """The cold closures of H3, I2-12 and H4, and of H4 with one element
    read: the small groups show the per-level overhead."""
    from qlat.groups import generate
    from qlat.roots import H3, H4, I2

    def cold(system):
        generate.cache_clear()
        return generate(system)

    return [("generate(H3), cold (120)", partial(cold, H3)),
            ("generate(I2-12), cold (24)", partial(cold, I2(12))),
            ("generate(H4), cold (14400)", partial(cold, H4)),
            ("generate(H4)[k], cold", lambda: cold(H4)[9000])]


def bench_group_membership():
    """g in generate(H4) for 500 elements and 500 scaled elements, with the
    group's set of row bytes built before timing."""
    from qlat.groups import GroupElement, generate
    from qlat.roots import H4

    group = generate(H4)
    picks = random.Random(0).sample(group, 1000)
    queries = picks[:500] + [GroupElement._wrap(2 * g.numerators, 4, 5) for g in picks[500:]]
    return "g in generate(H4), 1000 calls", lambda: [g in group for g in queries]


def bench_orbit_h4():
    from qlat.groups import generate, orbit
    from qlat.roots import H4, roots

    group, root = generate(H4), roots(H4)[0]
    return "orbit(H4 group, root) (120 images)", lambda: orbit(group, root)


def bench_quaternion_maps():
    from qlat.groups import enumerate_h4_quaternion_maps

    return "enumerate_h4_quaternion_maps (2 x 120^2)", enumerate_h4_quaternion_maps


def bench_quaternion_map_builds():
    from qlat.groups import _quaternion_map
    from qlat.quaternions import unit_icosians

    units = unit_icosians()
    return ("_quaternion_map, 120 left + 120 right",
            lambda: [_quaternion_map(u, right) for u in units for right in (False, True)])


def bench_apply_h4():
    from qlat.groups import generate
    from qlat.roots import H4, roots

    group, rs = generate(H4), roots(H4)
    return ("GroupElement.apply(H4 root), 1000 calls",
            lambda: [group[i].apply(rs[i % len(rs)]) for i in range(1000)])


def bench_icosian_products():
    from qlat.quaternions import qmul, unit_icosians

    units = unit_icosians()
    return ("qmul, all 120^2 unit icosian pairs",
            lambda: [qmul(a, b) for a in units for b in units])


def bench_vector_arithmetic():
    from qlat.ring import tau
    from qlat.roots import H4, roots

    rs, t = roots(H4), tau()
    pairs = [(rs[i % 120], rs[(7 * i + 3) % 120]) for i in range(1000)]
    return [("ExactVector a + b (H4), 1000 calls",
             lambda: [a + b for a, b in pairs]),
            ("ExactVector.scale(tau) (H4), 1000 calls",
             lambda: [a.scale(t) for a, _ in pairs])]


def bench_ring_arithmetic():
    from qlat.ring import QuadraticRingElement

    rng = random.Random(0)
    xs = [QuadraticRingElement(rng.randint(-9, 9), rng.randint(-9, 9), 5, rng.choice((1, 2)))
          for _ in range(1001)]
    pairs = list(zip(xs, xs[1:]))
    return [("QRE a + b (kappa 5), 1000 calls", lambda: [a + b for a, b in pairs]),
            ("QRE a * b (kappa 5), 1000 calls", lambda: [a * b for a, b in pairs])]


def bench_reflection_matrices():
    from qlat.groups import reflection_matrix
    from qlat.roots import H4, I2, gram, simple_roots

    def matrices(system):
        g, rs = gram(system), simple_roots(system)
        return lambda: [reflection_matrix(r, g) for r in rs]

    return [(f"reflection_matrix, simple roots of {s}", matrices(s)) for s in (H4, I2(8))]


def bench_membership(name):
    from qlat.modules import membership, ql, random_member

    qlm, rng = ql(name), random.Random(0)
    vs = [random_member(qlm, rng) for _ in range(1000)]
    return f"membership({name}), 1000 members", lambda: [membership(qlm, v) for v in vs]


def bench_root_build():
    """roots and simple_roots of the six exact systems, and of the four I2
    systems alone, built afresh with their Gram rows: the simple roots and
    their closure under the simple reflections."""
    from qlat.roots import H3, H4, I2, gram, roots, simple_roots

    dihedral = (I2(5), I2(8), I2(10), I2(12))

    def cold(systems):
        for cached in (roots, simple_roots, gram):
            cached.cache_clear()
        return [(roots(s), simple_roots(s)) for s in systems]

    return [("roots + simple_roots, six systems, cold", partial(cold, dihedral + (H3, H4))),
            ("roots + simple_roots, four I2, cold", partial(cold, dihedral))]


def bench_e8_roots():
    """The 240 E8 roots enumerated afresh from the E8 Gram matrix."""
    from qlat.cutproject import e8_roots

    def cold():
        e8_roots.cache_clear()
        return e8_roots()

    return "e8_roots, cold (240)", cold


def bench_module_build():
    """The seven QLModules built afresh: frames, member bases and the
    integer inverses of those bases."""
    from qlat.modules import QL_NAMES, ql

    def cold():
        ql.cache_clear()
        return [ql(name) for name in QL_NAMES]

    return "ql(...) for the seven modules, cold", cold


def bench_from_basis_coefficients_h4():
    from qlat.modules import ql

    qlm, rng = ql("H4"), random.Random(0)
    rows = [[rng.randint(-6, 6) for _ in range(8)] for _ in range(1000)]
    return ("from_basis_coefficients(H4), 1000 rows",
            lambda: [qlm.from_basis_coefficients(c) for c in rows])


def bench_patch_exact():
    """Patch.exact on the H3-primitive cell patch of radius 12 (1429
    points) and the H4 ball patch of radius 5 (9481 points), built afresh
    on each call (the property caches it on the patch)."""
    from qlat.cutproject import Patch, Window, embedding, generate_patch

    h3 = generate_patch(embedding("H3-primitive"), Window("cell"), 12.0)
    h4 = generate_patch(embedding("H4"), Window("ball"), 5.0)
    return [("Patch.exact(H3 cell, radius 12)", partial(Patch.exact.func, h3)),
            ("Patch.exact(H4 ball, radius 5)", partial(Patch.exact.func, h4))]


def bench_patches(workdir):
    """generate_patch, write_patch_csv and read_patch_csv on the H4 ball
    patch of radius 5 (9481 points), the CSV of the H3-primitive cell patch
    of radius 12 (1429 points), and generate_patch on the H3-primitive cell
    patch of radius 16 (3471 points)."""
    from qlat.cutproject import (
        Window, embedding, generate_patch, read_patch_csv, write_patch_csv)

    h4, h3 = embedding("H4"), embedding("H3-primitive")
    ball, cell = Window("ball"), Window("cell")
    benches = [("generate_patch(H4 ball, radius 5)", lambda: generate_patch(h4, ball, 5.0)),
               ("generate_patch(H3 cell, radius 16)", lambda: generate_patch(h3, cell, 16.0))]
    for label, patch in (("H4 ball, radius 5", generate_patch(h4, ball, 5.0)),
                         ("H3 cell, radius 12", generate_patch(h3, cell, 12.0))):
        path = os.path.join(workdir, f"{patch.target}.csv")
        write_patch_csv(patch, path)
        benches += [
            (f"write_patch_csv({label})", partial(write_patch_csv, patch, path)),
            (f"read_patch_csv({label})", partial(read_patch_csv, path)),
        ]
    return benches


def main():
    benches = [bench() for bench in (bench_quad_matmul, bench_ellipsoid_points)]
    benches += bench_structure_factor()
    benches += bench_generate()
    benches += [bench() for bench in (
        bench_group_membership, bench_orbit_h4, bench_quaternion_maps, bench_quaternion_map_builds,
        bench_apply_h4, bench_icosian_products,
        partial(bench_membership, "H3-fcc"), partial(bench_membership, "H4"),
        bench_module_build, bench_e8_roots, bench_from_basis_coefficients_h4)]
    benches += bench_root_build()
    benches += bench_vector_arithmetic()
    benches += bench_ring_arithmetic()
    benches += bench_reflection_matrices()
    benches += bench_patch_exact()
    with tempfile.TemporaryDirectory() as workdir:
        for label, fn in benches + bench_patches(workdir):
            line = f"{label:40s} {timeit(fn) * 1e3:8.2f} ms"
            if label.startswith(PEAK_LABELS):
                line += f"  peak {peak_mb(fn):6.2f} MB"
            print(line)


if __name__ == "__main__":
    main()
