"""Time the three numpy kernels and the integer-backed group paths.

Run with ``PYTHONPATH=src python benchmarks/bench_kernels.py``.  Each line
gives the best of five runs after one warm-up run.
"""

import time

import numpy as np

from qlat import kernels


def timeit(fn, repeat=5):
    fn()  # warm up
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


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
    rng = np.random.default_rng(1)
    points = rng.normal(size=(4000, 3))
    ks = rng.normal(size=(50, 3))
    return ("structure_factor_sum (4000 pts x 50 k)",
            lambda: kernels.structure_factor_sum(points, ks))


def bench_generate_h4():
    from qlat.groups import generate
    from qlat.roots import H4

    def cold():
        generate.cache_clear()
        return generate(H4).elements

    return "generate(H4).elements, cold (14400)", cold


def bench_orbit_h4():
    from qlat.groups import generate, orbit
    from qlat.roots import H4, roots

    group, root = generate(H4), roots(H4)[0]
    return "orbit(H4 group, root) (120 images)", lambda: orbit(group, root)


def bench_icosian_products():
    from qlat.quaternions import qmul, unit_icosians

    units = unit_icosians()
    return ("qmul, all 120^2 unit icosian pairs",
            lambda: [qmul(a, b) for a in units for b in units])


def main():
    for bench in (bench_quad_matmul, bench_ellipsoid_points, bench_structure_factor,
                  bench_generate_h4, bench_orbit_h4, bench_icosian_products):
        label, fn = bench()
        print(f"{label:40s} {timeit(fn) * 1e3:8.2f} ms")


if __name__ == "__main__":
    main()
