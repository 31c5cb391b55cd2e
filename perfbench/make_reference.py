"""Record the reference outputs that every benchmark run checks against.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json: for each fixed ``project`` geometry the
point count and a digest of its sorted coefficient rows, whether the five
known Bragg peaks show there (or are extinct), and whether the patch is
large enough for the diffuse-background ceiling; plus the group orders,
orbit size, map counts and escaping icosian products of ``groups``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), os.path.dirname(HERE)]

import numpy as np  # noqa: E402

from perfbench import workloads as wl  # noqa: E402
from qlat import cutproject, groups, kernels, quaternions  # noqa: E402
from qlat.roots import H3, H4, roots  # noqa: E402


def geometry_record(target, shape, radius, peaks):
    patch = cutproject.generate_patch(
        cutproject.embedding(target), cutproject.Window(shape), radius)
    inten_peaks = None
    if patch.points.shape[1] == 3:
        inten_peaks = kernels.structure_factor_sum(patch.points, peaks)
    background = kernels.structure_factor_sum(
        patch.points, wl.random_k(np.random.default_rng(0), 3000,
                                  patch.points.shape[1]))
    if inten_peaks is None:
        peak_kind = None
    elif inten_peaks.min() >= wl.PEAK_FLOOR:
        peak_kind = "bragg"
    elif inten_peaks.max() <= wl.BACKGROUND_CEILING:
        peak_kind = "extinct"
    else:
        peak_kind = None
    return {
        "count": patch.size,
        "digest": wl.coefficient_digest(patch.coeffs),
        "peaks": peak_kind,
        # a tenth of the ceiling leaves room for any seed's k sample
        "background": bool(np.median(background) <= wl.BACKGROUND_CEILING / 10),
    }


def main():
    peaks = wl.peak_vectors()
    geometries = {}
    for size in wl.GEOMETRIES.values():
        for target, shape, radius in size:
            key = wl.geometry_key(target, shape, radius)
            geometries[key] = geometry_record(target, shape, radius, peaks)
    h4 = groups.generate(H4)
    raw, distinct = groups.enumerate_h4_quaternion_maps()
    assert distinct == h4.compact_byte_set()
    units = quaternions.unit_icosians()
    unit_set = set(units)
    ref = {
        "geometries": geometries,
        "groups": {
            "h3_order": groups.generate(H3).order,
            "h4_order": h4.order,
            "maps_raw": raw,
            "maps_distinct": len(distinct),
            "escaping_products": sum(
                quaternions.qmul(a, b) not in unit_set for a in units for b in units),
            "orbit_size": len(groups.orbit(h4, roots(H4)[0])),
        },
    }
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(ref, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
