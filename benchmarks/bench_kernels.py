"""Benchmark the numba kernels against the pure-numpy fallback.

Run with ``python benchmarks/bench_kernels.py``.  Set QLAT_NO_NUMBA=1 to
confirm the fallback path is selected globally; this script times both
implementations directly when numba is available.  The ellipsoid
enumeration has only the numpy implementation.
"""

import time

import numpy as np

from qlat import kernels


def timeit(fn, *args, repeat=5):
    fn(*args)  # warm up (includes JIT compilation)
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def bench_quad_matmul():
    rng = np.random.default_rng(0)
    a = (2 * rng.integers(-3, 4, size=(5000, 4, 4, 2))).astype(np.int64)
    b = (2 * rng.integers(-3, 4, size=(4, 4, 2))).astype(np.int64)
    cases = [("numpy", lambda: kernels._quad_matmul_batch_np(a, b, 1, 1))]
    if kernels.HAVE_NUMBA:
        cases.append(("numba", lambda: kernels._quad_matmul_batch_nb(a, b, 1, 1)))
    return "quad_matmul_batch (5000 x 4x4)", cases


def bench_ellipsoid_points():
    from qlat.cutproject import Window, _window_circumradius, embedding

    # the candidates of the H3-primitive cell patch of radius 16 (3471 points)
    emb = embedding("H3-primitive")
    w = _window_circumradius(emb, Window("cell"))
    basis = np.vstack([emb.parallel / 16.0, emb.perpendicular / w])
    cases = [("numpy", lambda: kernels.ellipsoid_points(basis, 2.0))]
    return "ellipsoid_points (H3 patch, radius 16)", cases


def bench_structure_factor():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(4000, 3))
    ks = rng.normal(size=(50, 3))
    cases = [("numpy", lambda: kernels._structure_factor_np(points, ks))]
    if kernels.HAVE_NUMBA:
        cases.append(("numba", lambda: kernels._structure_factor_nb(points, ks)))
    return "structure_factor (4000 pts x 50 k)", cases


def main():
    print(f"active backend: {kernels.backend()}")
    for bench in (bench_quad_matmul, bench_ellipsoid_points,
                  bench_structure_factor):
        label, cases = bench()
        times = {name: timeit(fn) for name, fn in cases}
        line = "  ".join(f"{name}: {t * 1e3:8.2f} ms" for name, t in times.items())
        if len(times) == 2:
            speedup = times["numpy"] / times["numba"]
            line += f"  speedup: {speedup:.1f}x"
        print(f"{label:38s} {line}")


if __name__ == "__main__":
    main()
