"""Cut-and-project: the E8 source lattice, patch generation, diffraction."""

import csv
import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qlat import cutproject, kernels
from qlat.cutproject import (
    Window,
    _coordinates,
    _window_circumradius,
    _zonotope_facets,
    e8_bilinear,
    e8_gram,
    e8_roots,
    embedding,
    generate_patch,
    read_patch_csv,
    structure_factor,
    write_patch_csv,
)
from qlat.modules import QLModule, membership, ql
from qlat.quaternions import GoldenQuaternion, unit_icosians
from qlat.ring import DomainError, QuadraticRingElement, tau
from qlat.textio import format_numerators
from qlat.vectors import ExactVector

TAU = (1 + 5 ** 0.5) / 2


# -- the E8 source lattice ---------------------------------------------

def test_e8_gram_is_even_symmetric_unimodular():
    g = e8_gram()
    assert (g == g.T).all()
    assert (np.diag(g) % 2 == 0).all()
    assert round(np.linalg.det(g)) in (1, -1)


def test_e8_has_240_roots():
    assert len(e8_roots()) == 240
    assert len(set(e8_roots())) == 240


def test_e8_roots_have_norm_two():
    g = e8_gram()
    for n in e8_roots():
        v = np.array(n)
        assert v @ g @ v == 2


def test_e8_root_enumeration_oracle():
    """Independent enumeration: all norm-2 vectors inside the coefficient
    box given by the smallest eigenvalue of the Gram matrix."""
    g = e8_gram()
    lam = np.linalg.eigvalsh(g).min()
    bound = int(math.floor(math.sqrt(2 / lam)))
    found = set()
    grid = np.indices([2 * bound + 1] * 4).reshape(4, -1).T - bound
    for head in np.ndindex(*([2 * bound + 1] * 4)):
        h = np.array(head) - bound
        full = np.hstack([np.broadcast_to(h, (grid.shape[0], 4)), grid])
        norms = np.einsum("ni,ij,nj->n", full, g, full)
        for row in full[norms == 2]:
            found.add(tuple(int(x) for x in row))
    assert found == set(e8_roots())


def test_e8_roots_project_to_two_icosian_shells():
    qlm = ql("H4")
    units = {u.as_vector() for u in unit_icosians()}
    t = tau()
    shell1, shell2 = set(), set()
    for n in e8_roots():
        v = qlm.from_basis_coefficients(n)
        norm = v.dot(v)
        if norm == QuadraticRingElement(1):
            shell1.add(v)
        else:
            assert norm == (t - 1) * (t - 1)
            shell2.add(v)
    assert len(shell1) == len(shell2) == 120
    assert shell1 == units
    assert shell2 == {u.as_vector().scale(t - 1) for u in unit_icosians()}


def test_e8_bilinear_matches_gram():
    qlm = ql("H4")
    gens = qlm.member_basis
    g = e8_gram()
    assert e8_bilinear(gens[0], gens[0]) == g[0, 0]
    assert e8_bilinear(gens[2], gens[5]) == g[2, 5]
    # a third leaves the icosian ring, where the trace form is integral
    with pytest.raises(ArithmeticError, match="left the integers"):
        e8_bilinear(ExactVector((Fraction(1, 3), 0, 0, 0)), ExactVector((1, 0, 0, 0)))


# -- embeddings ---------------------------------------------------------

@pytest.mark.parametrize("target,rank,dim", [
    ("H3-primitive", 6, 3), ("H3-fcc", 6, 3), ("H3-bcc", 6, 3), ("H4", 8, 4),
])
def test_embedding_shapes(target, rank, dim):
    emb = embedding(target)
    assert emb.source_rank == rank
    assert emb.parallel.shape == (dim, rank)
    assert emb.perpendicular.shape == (dim, rank)


def test_no_embedding_for_2d_targets():
    with pytest.raises(DomainError):
        embedding("I2-8")


def test_parallel_and_perpendicular_are_galois_partners():
    emb = embedding("H3-primitive")
    for i, gen in enumerate(ql("H3-primitive").member_basis):
        assert np.allclose(emb.parallel[:, i], gen.to_floats())
        assert np.allclose(emb.perpendicular[:, i], gen.conjugate().to_floats())


# -- patches ------------------------------------------------------------

def test_patch_points_are_exact_members():
    for target in ("H3-primitive", "H3-fcc", "H3-bcc"):
        emb = embedding(target)
        patch = generate_patch(emb, Window("cell"), 5.0)
        assert patch.size > 10
        qlm = ql(target)
        for v in patch.exact:
            assert membership(qlm, v).member


@pytest.mark.parametrize("target,shape,radius", [
    (target, shape, 8.0) for target in ("H3-primitive", "H3-fcc", "H3-bcc")
    for shape in ("cell", "ball")
] + [("H4", "ball", 2.5)])
def test_patch_exact_matches_from_basis_coefficients(tmp_path, monkeypatch, target,
                                                     shape, radius):
    def refuse(*args, **kwargs):
        raise AssertionError("from_basis_coefficients called")

    patch = generate_patch(embedding(target), Window(shape), radius)
    path = tmp_path / "patch.csv"
    write_patch_csv(patch, str(path))
    back = read_patch_csv(str(path))
    with monkeypatch.context() as m:
        m.setattr(QLModule, "from_basis_coefficients", refuse)
        built = [patch.exact, back.exact]
    qlm = ql(target)
    want = [qlm.from_basis_coefficients(row) for row in patch.coeffs.tolist()]
    assert len(want) > 20
    for exact in built:
        assert [(v.form, v.den, v.kappa) for v in exact] == \
            [(v.form, v.den, v.kappa) for v in want]


def test_h4_ball_window_patch():
    emb = embedding("H4")
    patch = generate_patch(emb, Window("ball", 1.0), 2.0)
    assert patch.size > 20
    qlm = ql("H4")
    for v in patch.exact:
        assert membership(qlm, v).member
        conj = v.conjugate()
        assert float(conj.dot(conj)) < 1.0


def test_h4_cell_window_rejected():
    emb = embedding("H4")
    with pytest.raises(DomainError):
        generate_patch(emb, Window("cell"), 2.0)


def test_unknown_window_shape_rejected():
    with pytest.raises(DomainError, match="unknown window shape 'hexagon'"):
        Window("hexagon")


def test_coordinates_refuse_coefficients_past_64_bit_numerators():
    qlm = ql("H3-bcc")
    coeffs = np.zeros((2, qlm.rank), dtype=np.int64)
    coeffs[1, 0] = 2**61
    with pytest.raises(DomainError, match="too large for 64-bit numerators"):
        _coordinates(qlm, coeffs)


def _pairwise_facets(gens, scale):
    """Zonotope facets pair by pair, each normal compared with those kept."""
    normals, supports = [], []
    for i in range(gens.shape[1]):
        for j in range(i + 1, gens.shape[1]):
            nv = np.cross(gens[:, i], gens[:, j])
            if np.linalg.norm(nv) < 1e-12:
                continue
            nv = nv / np.linalg.norm(nv)
            if not any(np.allclose(nv, m) or np.allclose(nv, -m) for m in normals):
                normals.append(nv)
                supports.append(0.5 * scale * np.abs(nv @ gens).sum())
    return np.array(normals), np.array(supports)


@pytest.mark.parametrize("target", ["H3-primitive", "H3-fcc", "H3-bcc"])
def test_zonotope_facets_match_the_pairwise_loop(target):
    gens = embedding(target).cell_generators
    for scale in (1.0, 0.7, TAU):
        got, want = _zonotope_facets(gens, scale), _pairwise_facets(gens, scale)
        assert got[0].shape == want[0].shape == (15, 3)
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-15)


def test_zonotope_facets_keep_one_normal_per_parallel_family():
    # e1, e2, e3, e1+e2 and 2*e1: the planes of (e1, e2), (e1, e1+e2) and
    # (e2, e1+e2) coincide, and e1 x 2*e1 spans none
    gens = np.array([[1.0, 0, 0, 1, 2], [0, 1, 0, 1, 0], [0, 0, 1, 0, 0]])
    got, want = _zonotope_facets(gens, 2.0), _pairwise_facets(gens, 2.0)
    assert len(got[0]) == len(want[0]) == 4
    np.testing.assert_allclose(got[0], want[0], atol=1e-15)
    np.testing.assert_allclose(got[1], want[1], rtol=1e-15)
    with pytest.raises(DomainError, match="3D"):
        _zonotope_facets(np.ones((4, 8)), 1.0)


@pytest.mark.parametrize("radius,scale", [
    (math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0),
    (5.0, math.nan), (5.0, math.inf), (5.0, 0.0),
])
def test_non_finite_or_non_positive_sizes_rejected(radius, scale):
    with pytest.raises(DomainError, match="positive finite"):
        generate_patch(embedding("H3-bcc"), Window("ball", scale), radius)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", ["cell", "ball"])
@pytest.mark.parametrize("scale", [1e-308, 1e-309, 1e-320, 5e-324])
def test_subnormal_window_scale_rejected(shape, scale):
    # below the smallest normal float, perpendicular rows over the scale overflow
    with pytest.raises(DomainError, match=f"window scale {scale!r} is below"):
        generate_patch(embedding("H3-fcc"), Window(shape, scale), 3.0)


def test_huge_patch_refused_before_any_work():
    emb = embedding("H4")
    start = time.perf_counter()
    with pytest.raises(DomainError, match="limit"):
        generate_patch(emb, Window("ball"), 1e4)
    assert time.perf_counter() - start < 1.0


def test_patch_with_too_many_points_refused_before_materialising(monkeypatch):
    def refuse(self, coeffs):
        raise AssertionError("exact points built")

    monkeypatch.setattr(QLModule, "from_basis_coefficients", refuse)
    # H4 ball R=10: about 4e5 candidates, 161521 accepted points
    with pytest.raises(DomainError, match="points, over the limit"):
        generate_patch(embedding("H4"), Window("ball"), 10.0)


def _loose_circumradius(emb, window):
    """The bound 0.5 * sum |g_i| on a cell window, looser than its true
    circumradius."""
    return 0.5 * window.scale * np.linalg.norm(emb.cell_generators, axis=0).sum()


def test_cell_circumradius_is_the_farthest_zonotope_vertex():
    emb = embedding("H3-primitive")
    assert _window_circumradius(emb, Window("cell")) == pytest.approx(1.902, abs=1e-3)
    assert _loose_circumradius(emb, Window("cell")) == pytest.approx(3.527, abs=1e-3)
    # no point of the window lies farther out than the bound
    rng = np.random.default_rng(0)
    gens = emb.cell_generators
    inside = rng.uniform(-0.5, 0.5, size=(2000, gens.shape[1])) @ gens.T
    assert np.linalg.norm(inside, axis=1).max() < _window_circumradius(emb, Window("cell"))
    assert _window_circumradius(emb, Window("cell", 0.7)) == pytest.approx(0.7 * 1.902,
                                                                         abs=1e-3)
    assert _window_circumradius(emb, Window("ball", 0.7)) == 0.7


@pytest.mark.parametrize("target,scale,radius,candidates", [
    ("H3-primitive", 1.0, 16.0, (83_005, 13_131)),
    ("H3-fcc", 1.0, 16.0, None),
    ("H3-bcc", 1.0, 16.0, None),
    ("H3-primitive", 0.7, 10.0, None),
    ("H3-bcc", TAU, 8.0, None),
])
def test_true_circumradius_keeps_the_points_with_fewer_candidates(
        monkeypatch, target, scale, radius, candidates):
    emb, window = embedding(target), Window("cell", scale)
    enumerate_points, sizes = kernels.ellipsoid_points, []

    def counted(*args):
        found = enumerate_points(*args)
        sizes.append(len(found))
        return found

    monkeypatch.setattr(kernels, "ellipsoid_points", counted)
    tight = generate_patch(emb, window, radius)
    monkeypatch.setattr(cutproject, "_window_circumradius", _loose_circumradius)
    loose = generate_patch(emb, window, radius)
    assert tight.coeffs.tobytes() == loose.coeffs.tobytes()
    assert tight.size > 100
    assert sizes[0] < sizes[1] / 3
    if candidates:
        assert (sizes[1], sizes[0]) == candidates


def test_tiny_window_scale_leaves_only_the_origin():
    # window rows ~1e300 beside radius rows ~0.2: the factor stays exact,
    # and a ball's squared scale (1e-600) would underflow to 0
    for target, shape, radius in (("H3-primitive", "cell", 5),
                                  ("H3-primitive", "ball", 5), ("H4", "ball", 2)):
        emb = embedding(target)
        patch = generate_patch(emb, Window(shape, 1e-300), radius)
        assert patch.coeffs.tolist() == [[0] * emb.source_rank], (target, shape)


def test_patch_points_respect_radius_and_window():
    emb = embedding("H3-bcc")
    patch = generate_patch(emb, Window("ball", 0.8), 6.0)
    for v in patch.exact:
        assert float(v.dot(v)) <= 36.0 + 1e-9
        c = v.conjugate()
        assert float(c.dot(c)) < 0.64


def test_point_count_scaling_exponent():
    emb = embedding("H3-primitive")
    counts = [
        generate_patch(emb, Window("cell"), r).size for r in (4.0, 8.0, 16.0)
    ]
    slopes = [
        math.log(counts[i + 1] / counts[i]) / math.log(2) for i in range(2)
    ]
    for s in slopes:
        assert abs(s - 3.0) <= 0.3, (counts, slopes)


def test_shrunk_window_patch_is_icosahedrally_invariant():
    from qlat.groups import generate as generate_group
    from qlat.roots import H3

    emb = embedding("H3-primitive")
    patch = generate_patch(emb, Window("cell", 0.7), 6.0)
    assert patch.size > 20
    points = set(patch.exact)
    for g in generate_group(H3):
        assert {g.apply(v) for v in points} == points


def test_patch_csv_round_trip(tmp_path):
    emb = embedding("H3-fcc")
    patch = generate_patch(emb, Window("cell"), 4.0)
    path = tmp_path / "patch.csv"
    write_patch_csv(patch, str(path))
    back = read_patch_csv(str(path))
    assert back.target == patch.target
    assert back.size == patch.size
    assert back.exact == patch.exact
    assert np.allclose(back.points, patch.points)
    assert (back.coeffs == patch.coeffs).all()
    # the points are derived from the coefficients, not parsed from text
    assert back.points.tobytes() == patch.points.tobytes()


@pytest.mark.parametrize("target,shape,radius", [
    ("H3-bcc", "cell", 4.0), ("H4", "ball", 2.0),
])
def test_patch_path_builds_no_exact_objects(tmp_path, monkeypatch, target, shape,
                                            radius):
    from qlat import textio

    emb = embedding(target)

    def refuse(*args, **kwargs):
        raise AssertionError("exact objects built")

    monkeypatch.setattr(QLModule, "from_basis_coefficients", refuse)
    monkeypatch.setattr(textio, "parse_element", refuse)
    patch = generate_patch(emb, Window(shape), radius)
    path = tmp_path / "patch.csv"
    write_patch_csv(patch, str(path))
    back = read_patch_csv(str(path))
    assert back.size == patch.size > 20
    assert abs(structure_factor(back, np.zeros(emb.parallel.shape[0])) - 1) < 1e-12


def _per_row_csv(patch, path):
    """The patch file written one row and one field at a time."""
    qlm = ql(patch.target)
    d, kappa, den = qlm.dim, qlm.kappa, qlm._basis_den
    numerators, points = _coordinates(qlm, patch.coeffs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["# target", patch.target, "window", patch.window.shape,
                         "scale", str(patch.window.scale), "radius", str(patch.radius)])
        writer.writerow([f"x{i}" for i in range(d)] + [f"exact{i}" for i in range(d)]
                        + [f"c{i}" for i in range(qlm.rank)])
        for x, y, c in zip(points.tolist(), numerators.tolist(), patch.coeffs.tolist()):
            writer.writerow(
                [f"{v:.15g}" for v in x]
                + [format_numerators(p, q, kappa, den) for p, q in zip(y[:d], y[d:])]
                + [str(v) for v in c])


@pytest.mark.parametrize("target,shape,scale,radius", [
    (target, shape, scale, 6.0)
    for target in ("H3-primitive", "H3-fcc", "H3-bcc")
    for shape in ("cell", "ball")
    for scale in (0.7, 1.0, TAU)
] + [("H4", "ball", 1.0, 3.0), ("H4", "ball", 0.7, 3.0)])
def test_patch_csv_matches_the_per_row_writer(tmp_path, target, shape, scale, radius):
    patch = generate_patch(embedding(target), Window(shape, scale), radius)
    assert patch.size > 0
    write_patch_csv(patch, str(tmp_path / "fast.csv"))
    _per_row_csv(patch, str(tmp_path / "slow.csv"))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()
    back = read_patch_csv(str(tmp_path / "fast.csv"))
    assert back.coeffs.tobytes() == patch.coeffs.tobytes()
    assert back.points.tobytes() == patch.points.tobytes()


@pytest.mark.parametrize("target,shape,scale,radius,digest", [
    ("H3-primitive", "cell", 1.0, 12.0, "92dca1f3ece9c4ce"),
    ("H3-bcc", "cell", 1.0, 8.0, "bc7930bd9d232094"),
    ("H3-fcc", "ball", 1.0, 8.0, "a20ecd60ba4d1602"),
    ("H4", "ball", 1.0, 2.0, "dd19964090799943"),
    ("H3-primitive", "cell", 0.7, 6.0, "5bf38087f4af4f70"),
])
def test_patch_csv_bytes_are_pinned(tmp_path, target, shape, scale, radius, digest):
    path = tmp_path / "patch.csv"
    write_patch_csv(generate_patch(embedding(target), Window(shape, scale), radius),
                    str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest


def _bcc_patch_file(tmp_path):
    path = tmp_path / "patch.csv"
    patch = generate_patch(embedding("H3-bcc"), Window("cell"), 3.0)
    write_patch_csv(patch, str(path))
    return patch, path, path.read_bytes().decode().split("\r\n")[:-1]


MISMATCH = ("not a patch file: the line is not the one written for the patch "
            "the metadata row names")


def test_patch_csv_reads_lf_endings(tmp_path):
    patch, path, lines = _bcc_patch_file(tmp_path)
    path.write_text("\n".join(lines) + "\n", newline="")
    back = read_patch_csv(str(path))
    assert back.coeffs.tobytes() == patch.coeffs.tobytes()
    assert back.points.tobytes() == patch.points.tobytes()


def test_crlf_patch_file_is_compared_without_normalising(tmp_path, monkeypatch):
    _, path, lines = _bcc_patch_file(tmp_path)
    normalised = []

    class Rendered(bytes):
        def replace(self, *args):
            normalised.append(args)
            return bytes.replace(self, *args)

    text = cutproject._text
    monkeypatch.setattr(cutproject, "_text", lambda patch: Rendered(text(patch)))
    read_patch_csv(str(path))
    assert normalised == []
    path.write_text("\n".join(lines) + "\n", newline="")
    read_patch_csv(str(path))
    assert normalised == [(b"\r\n", b"\n")]


@pytest.mark.parametrize("head,count", [
    ("", 1), ("# target,H3-bcc,window", 3),
    ("# target,H3-bcc,window,cell,scale,1.0,radius,3.0,extra", 9),
], ids=["empty", "three-fields", "nine-fields"])
def test_metadata_row_field_count_is_named(tmp_path, head, count):
    _, path, lines = _bcc_patch_file(tmp_path)
    path.write_text("\r\n".join([head] + lines[1:]) + "\r\n" if head else "", newline="")
    with pytest.raises(DomainError) as err:
        read_patch_csv(str(path))
    assert str(err.value) == (f"{path}, line 1: not a patch file: "
                              f"the metadata row has {count} fields, not 8")


def test_header_only_patch_file_is_refused(tmp_path):
    # every generated patch holds the origin, so its first point is missing
    _, path, lines = _bcc_patch_file(tmp_path)
    path.write_text("\r\n".join(lines[:2]) + "\r\n", newline="")
    with pytest.raises(DomainError) as err:
        read_patch_csv(str(path))
    assert str(err.value) == f"{path}, line 3: {MISMATCH}"


# The third value of each case is part of its test id, so it keeps the
# name of the check an earlier field-by-field parser made; the branches
# below say what each edit is, and every edit is refused with the mismatch
# at the first line that differs from the writer's bytes.
@pytest.mark.parametrize("cut,line,defect", [
    ("fraction", 5, "coefficient '1.5' is not a 64-bit integer"),
    ("short", 4, "expected 12 fields, found 5"),
    ("extra", None, "expected 12 fields, found 3"),
    ("blank", None, "expected 12 fields, found 0"),
    ("extra-point", None, "not the one written"),
    ("numerators", 6, "too large for 64-bit numerators"),
    ("quoted", 5, "a quoted field, which the writer never writes"),
])
def test_malformed_patch_csv_names_the_line(tmp_path, cut, line, defect):
    _, path, lines = _bcc_patch_file(tmp_path)
    end = len(lines) + 1
    if cut == "fraction":
        lines[4] = lines[4].rsplit(",", 1)[0] + ",1.5"
    elif cut == "short":
        lines[3] = ",".join(lines[3].split(",")[:5])
    elif cut == "extra":
        lines.append("0,0,0")
    elif cut == "blank":
        lines.append("")
    elif cut == "extra-point":
        # a valid row's coefficients with its first float changed
        lines.append("9" + lines[2])
    elif cut == "quoted":
        head, last = lines[4].rsplit(",", 1)
        lines[4] = f'{head},"{last}"'
    else:
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + str(10**18)
    path.write_text("\r\n".join(lines) + "\r\n", newline="")
    with pytest.raises(DomainError) as err:
        read_patch_csv(str(path))
    assert str(err.value) == f"{path}, line {line or end}: {MISMATCH}", defect


@pytest.mark.parametrize("cut,line,defect", [
    ("repeat-last", None, "repeats the one before it"),
    ("repeat-first", None, "is out of the writer's order"),
    ("reversed", 3, "is out of the writer's order"),
])
def test_repeated_or_reordered_points_are_refused(tmp_path, cut, line, defect):
    _, path, lines = _bcc_patch_file(tmp_path)
    end = len(lines) + 1
    if cut == "repeat-last":
        lines.append(lines[-1])
    elif cut == "repeat-first":
        lines.append(lines[2])
    else:
        lines[2:] = lines[:1:-1]
    path.write_text("\r\n".join(lines) + "\r\n", newline="")
    with pytest.raises(DomainError) as err:
        read_patch_csv(str(path))
    assert str(err.value) == f"{path}, line {line or end}: {MISMATCH}", defect


@pytest.mark.parametrize("drop", [2, 17, -1])
def test_dropped_point_line_is_refused(tmp_path, drop):
    _, path, lines = _bcc_patch_file(tmp_path)
    line = len(lines) if drop == -1 else drop + 1
    del lines[drop]
    path.write_text("\r\n".join(lines) + "\r\n", newline="")
    with pytest.raises(DomainError) as err:
        read_patch_csv(str(path))
    assert str(err.value) == f"{path}, line {line}: {MISMATCH}"


def test_edited_metadata_row_is_refused(tmp_path):
    # the points of the radius 4 cell patch, under the metadata row of a
    # radius 3 ball patch that leaves out some of them
    path = tmp_path / "patch.csv"
    patch = generate_patch(embedding("H3-primitive"), Window("cell"), 4.0)
    write_patch_csv(patch, str(path))
    lines = path.read_bytes().decode().split("\r\n")
    lines[0] = "# target,H3-primitive,window,ball,scale,0.5,radius,3.0"
    path.write_text("\r\n".join(lines), newline="")
    assert np.linalg.norm(patch.points, axis=1).max() > 3
    with pytest.raises(DomainError) as err:
        read_patch_csv(str(path))
    assert MISMATCH in str(err.value)


@pytest.mark.parametrize("edit", [
    ("scale,1.0", "scale,1"), ("radius,3.0", "radius,3.00"),
    ("# target", "#target"), ("radius,3.0", "radius, 3.0"),
], ids=["scale-1", "radius-3.00", "label", "space"])
def test_metadata_row_is_compared_with_the_writer_s(tmp_path, edit):
    # each edited row still names the same patch, but not in the writer's bytes
    patch, path, lines = _bcc_patch_file(tmp_path)
    assert edit[0] in lines[0]
    lines[0] = lines[0].replace(*edit)
    path.write_text("\r\n".join(lines) + "\r\n", newline="")
    with pytest.raises(DomainError) as err:
        read_patch_csv(str(path))
    assert str(err.value) == f"{path}, line 1: {MISMATCH}"


@pytest.mark.parametrize("head", [True, False], ids=["after-the-header", "first-line"])
def test_junk_is_refused_without_reading_it(tmp_path, head):
    import tracemalloc

    _, path, lines = _bcc_patch_file(tmp_path)
    with open(path, "wb") as fh:
        if head:
            fh.write(("\r\n".join(lines[:3]) + "\r\n").encode())
        for _ in range(20):
            fh.write(b"7" * (1 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="not a patch file"):
            read_patch_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("cut", ["header", "field", "exact", "huge", "disagree"])
def test_malformed_patch_csv_names_the_file(tmp_path, cut):
    path = tmp_path / "patch.csv"
    write_patch_csv(generate_patch(embedding("H3-bcc"), Window("cell"), 3.0), str(path))
    lines = path.read_text().splitlines()
    if cut == "header":
        lines = lines[:1]
    elif cut == "field":
        lines[2] = lines[2].rsplit(",", 1)[0]
    elif cut == "exact":
        lines[2] = lines[2].replace(",0,", ",1/0,", 1)
    elif cut == "huge":
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + str(10**30)
    else:
        fields = lines[2].split(",")
        fields[0], fields[3] = "123.5", "7"
        lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DomainError, match="patch.csv, line [0-9]+: not a patch file"):
        read_patch_csv(str(path))


# -- diffraction --------------------------------------------------------

PEAK_COEFFS = [
    (2, -1, 1, 1, 1, -1),
    (1, -1, 2, -1, 1, 1),
    (1, -1, -1, 2, -1, -1),
    (1, -2, 1, 1, -1, 1),
    (1, 1, 1, -1, 2, -1),
]


def _reciprocal_point(emb, n):
    # the generator matrix satisfies P P^T = 2(2+tau) I, so this scale
    # makes exp(i k.x) = 1 at every member whose conjugate part vanishes
    s = 2 * math.pi / (2 * (2 + TAU))
    return s * (emb.parallel @ np.array(n, dtype=float))


def test_bragg_peaks_and_diffuse_background():
    emb = embedding("H3-primitive")
    patch = generate_patch(emb, Window("cell"), 10.0)
    assert patch.size > 500
    for n in PEAK_COEFFS:
        k = _reciprocal_point(emb, n)
        assert structure_factor(patch, k) >= 0.1
    rng = np.random.default_rng(0)
    for _ in range(20):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        k = rng.uniform(1.0, 4.0) * direction
        assert structure_factor(patch, k) <= 0.01


def test_structure_factor_at_zero_is_one():
    emb = embedding("H3-fcc")
    patch = generate_patch(emb, Window("cell"), 4.0)
    assert abs(structure_factor(patch, [0.0, 0.0, 0.0]) - 1.0) < 1e-12
