"""The qlat command-line interface and text encodings."""

import hashlib
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlat.cli import main
from qlat.ring import DomainError, QuadraticRingElement, golden, tau
from qlat.textio import (
    format_element,
    format_vector,
    parse_element,
    parse_exact_vector,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# -- text encodings -----------------------------------------------------

def test_format_basics():
    assert format_element(QuadraticRingElement(0)) == "0"
    assert format_element(QuadraticRingElement(1)) == "1"
    assert format_element(tau()) == "t"
    assert format_element(golden(1, 2)) == "1+2t"
    assert format_element(tau() / 2) == "t/2"
    assert format_element((tau() - 1) / 2) == "(-1+t)/2"
    assert format_element(QuadraticRingElement(0, 1, 2)) == "t"  # sqrt(2)


def test_parse_basics():
    assert parse_element("t") == tau()
    assert parse_element("1+2t") == golden(1, 2)
    assert parse_element("(t-1)/2") == (tau() - 1) / 2
    assert parse_element("-1/2") == QuadraticRingElement(-1, 0, 5, 2)
    assert parse_element("t", kappa=2) == QuadraticRingElement(0, 1, 2)


@given(st.integers(-30, 30), st.integers(-30, 30),
       st.integers(min_value=1, max_value=6), st.sampled_from((5, 2, 3)))
def test_format_parse_round_trip(m, n, den, kappa):
    # m + n*tau over den for the golden ring, m + n*sqrt(kappa) otherwise
    c = (golden(m, n) if kappa == 5 else QuadraticRingElement(m, n, kappa)) / den
    assert parse_element(format_element(c), kappa) == c


@pytest.mark.parametrize("text", ["--1", "1+", "1+-t", "+", "2t3", "1/0", "(1+t)/0",
                                  "1+t/2", "t-1/2", "1+1/2", "2t+1/3"])
def test_parse_rejects_malformed_or_zero_denominator(text):
    with pytest.raises(DomainError):
        parse_element(text)


def test_vector_with_a_blank_coordinate_is_refused():
    for text in ["1,,2,3", "2,0,0,", ",1"]:
        with pytest.raises(DomainError, match="empty coordinate"):
            parse_exact_vector(text)
    with pytest.raises(DomainError, match="empty vector"):
        parse_exact_vector(" , ")


def test_vector_round_trip():
    v = parse_exact_vector("1,t,0")
    assert format_vector(v) == "1,t,0"
    assert v.dim == 3


# -- CLI verbs ----------------------------------------------------------

def test_roots_count(capsys):
    code, out = run(capsys, "roots", "--system", "H4", "--count")
    assert code == 0 and out.strip() == "120"


@pytest.mark.parametrize("system,count", [
    ("H4", 120), ("I2-8", 16), ("I2-7", 14), ("I2-50001", 100002)])
def test_roots_count_builds_no_roots(capsys, monkeypatch, system, count):
    def refuse(system):
        raise AssertionError("roots built")

    monkeypatch.setattr("qlat.cli.roots", refuse)
    code, out = run(capsys, "roots", "--system", system, "--count")
    assert code == 0 and out.strip() == str(count)
    code, out = run(capsys, "roots", "--system", system, "--count", "--format", "json")
    assert json.loads(out) == {"system": system, "count": count}


def test_roots_refuses_too_many_float_roots(capsys):
    code = main(["roots", "--system", "I2-50001"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and "limit" in captured.err
    assert captured.err.count("\n") == 1


def test_roots_json(capsys):
    code, out = run(capsys, "roots", "--system", "I2-8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 16
    assert len(data["roots"]) == 16


def test_float_roots_as_text_json_and_file(capsys, tmp_path):
    code, out = run(capsys, "roots", "--system", "I2-7")
    assert code == 0
    text = [[float(x) for x in line.split(",")] for line in out.splitlines()]
    assert len(text) == 14
    np.testing.assert_allclose(np.linalg.norm(text, axis=1), 1.0, rtol=1e-14)
    code, json_out = run(capsys, "roots", "--system", "I2-7", "--format", "json")
    assert code == 0
    assert json.loads(json_out) == {"system": "I2-7", "count": 14, "roots": text}
    path = tmp_path / "roots.json"
    code, out = run(capsys, "roots", "--system", "I2-7", "--out", str(path))
    assert code == 0 and out == f"wrote 14 roots to {path}\n"
    assert path.read_text() + "\n" == json_out


def test_group_order(capsys):
    code, out = run(capsys, "group", "--system", "H3")
    assert code == 0 and out.strip() == "120"


def test_group_emit(capsys, tmp_path):
    path = tmp_path / "matrices.json"
    code, _ = run(capsys, "group", "--system", "I2-5", "--emit", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["order"] == 10
    assert len(data["matrices"]) == 10


# sha256 of `qlat roots --system S --format json` (stdout) and of the file
# `qlat group --system S --emit FILE` writes, recorded when the roots were
# still built from the paper's coordinate patterns
PINNED_SHA256 = {
    "H3": ("60e140813e4abf0d554464798ce28d0a01e229f2e80745166dfd452461820c43",
           "95c8b1861ed92648025d560a8d4d6b5bf9446581ae96f2e69eb61282f1b9d601"),
    "H4": ("b925f7feafaabae349a1164e4d443598bac45c513de5f50ab1aab16f82f91eb7",
           "f2e136e6fd65a5eee61a3048e0b2e4fa2ec2c35662a9d3b0eee4e60c55190f0a"),
    "I2-5": ("95de564bdc36cb6394bebc9e55f05eaa7f58f0afe18a499fec0083e36f05be69",
             "92d12d948b5dc5da07b514157ebfe1fab0d1a3713d4378433e463b0b39bfde11"),
    "I2-8": ("7620010d0042499220b766c8bb22c6036c8e7f645e25749014aaa149178aec61",
             "3de8ff981eeca0d68c47de3641b8d74b2172d83600b4a163cc8e23e141fdc6f5"),
    "I2-10": ("ed69ffc10a2e565d3aedd55c04192f13645e419421b2bd2d928f2b15878026d9",
              "e2a8d4e304614757530f2ee048f7a42b24bdf3dc1bec388bfa072aa20dfd5d2e"),
    "I2-12": ("8a0a7077b9ba8d5c023ff39e6cbc829aca13982bbf54efc72f2e4d8304359a2a",
              "bb6e6a05242751c45de9b3b6807e22818cf5758663c15d7cdb82e35cbbdb0081"),
}


@pytest.mark.parametrize("system", sorted(PINNED_SHA256))
def test_roots_and_group_emit_bytes_are_pinned(capsys, tmp_path, system):
    roots_sha, group_sha = PINNED_SHA256[system]
    code, out = run(capsys, "roots", "--system", system, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == roots_sha
    path = tmp_path / "matrices.json"
    assert run(capsys, "group", "--system", system, "--emit", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == group_sha


@pytest.mark.parametrize("system", ["I2-5", "H3"])
def test_group_emit_matches_object_triples(capsys, tmp_path, system):
    from qlat.groups import generate
    from qlat.roots import RootSystemId

    group = generate(RootSystemId.parse(system))
    path = tmp_path / "matrices.json"
    assert run(capsys, "group", "--system", system, "--emit", str(path))[0] == 0
    # the [p, q, den] of each entry as a canonical object, in element order
    matrices = [
        [[list(QuadraticRingElement(x, y, group.kappa, 4).to_triple())
          for x, y in row] for row in g.numerators.tolist()]
        for g in group
    ]
    expected = {"system": system, "order": group.order, "matrices": matrices}
    assert path.read_text() == json.dumps(expected)


def test_icosians_check_closure(capsys):
    code, out = run(capsys, "icosians", "--check-closure")
    assert code == 0
    assert "closure ok" in out
    code, out = run(capsys, "icosians")
    assert code == 0 and out == "120\n"


def test_member_yes(capsys):
    code, out = run(capsys, "member", "--ql", "H4",
                    "--vector", "1/2,1/2,1/2,1/2")
    assert code == 0 and out.startswith("member")


def test_member_no(capsys):
    code, out = run(capsys, "member", "--ql", "H3-fcc", "--vector", "1,t,0")
    assert code == 0 and out.startswith("non-member")


@pytest.mark.parametrize("ql,vector,dim", [("H4", "1,2", 4), ("H3-fcc", "1,0,0,0", 3)])
def test_member_refuses_a_vector_of_the_wrong_length(capsys, ql, vector, dim):
    code = main(["member", "--ql", ql, "--vector", vector])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert f"{dim} coordinates" in captured.err


def test_member_bad_ql(capsys):
    code = main(["member", "--ql", "H9", "--vector", "1,0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown quasilattice" in captured.err


def test_residues(capsys):
    code, out = run(capsys, "residues", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 16


def test_scale(capsys):
    code, out = run(capsys, "scale", "--ql", "H3-primitive", "--power", "3")
    assert code == 0 and "invariant" in out
    code, out = run(capsys, "scale", "--ql", "H3-primitive", "--factor", "t")
    assert code == 0 and "not-closed" in out


def test_scale_huge_power_is_answered_at_once(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "scale", "--ql", "H4", "--power", "100000000",
                    "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "invariant" and data["index"] == 1
    code, out = run(capsys, "scale", "--ql", "H3-primitive", "--power", "100000000")
    assert code == 0 and "not-closed" in out
    code, out = run(capsys, "scale", "--ql", "H3-primitive", "--power", "100000000",
                    "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["verdict"] == "not-closed" and data["index"] is None


def test_verify_table1(capsys):
    code, out = run(capsys, "verify", "--table1")
    assert code == 0
    assert out.strip().endswith("7/7 pass")
    assert out.count("pass") == 8  # one per row plus the summary


def test_verify_table1_json(capsys):
    code, out = run(capsys, "verify", "--table1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["summary"] == "7/7"
    assert all(row["pass"] for row in data["rows"])
    powers = {row["ql"]: row["minimal_power"] for row in data["rows"]}
    assert powers["H3-primitive"] == 3


def test_project_and_diffract(capsys, tmp_path):
    patch_path = tmp_path / "patch.csv"
    code, out = run(capsys, "project", "--target", "H3-bcc",
                    "--radius", "5", "--window", "cell",
                    "--out", str(patch_path))
    assert code == 0 and "points" in out

    klist = tmp_path / "peaks.json"
    klist.write_text(json.dumps([[0.0, 0.0, 0.0], [1.1, 0.3, -0.4]]))
    out_path = tmp_path / "intensities.csv"
    code, out = run(capsys, "diffract", "--in", str(patch_path),
                    "--k-list", str(klist), "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "k0,k1,k2,intensity"
    assert len(lines) == 3
    # k = 0 sums every phase coherently
    assert abs(float(lines[1].split(",")[-1]) - 1.0) < 1e-12


def test_project_rejects_2d_target(capsys, tmp_path):
    code = main(["project", "--target", "I2-8", "--radius", "4",
                 "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


@pytest.mark.parametrize("sizes", [
    ("--radius", "nan"),
    ("--radius", "inf"),
    ("--radius", "5", "--window-scale", "nan"),
], ids=["radius-nan", "radius-inf", "scale-nan"])
def test_project_rejects_non_finite_sizes(capsys, tmp_path, sizes):
    path = tmp_path / "x.csv"
    code = main(["project", "--target", "H3-bcc", *sizes, "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "positive finite" in captured.err
    assert not path.exists()


def test_project_refuses_unbounded_work(capsys, tmp_path):
    code = main(["project", "--target", "H4", "--window", "ball",
                 "--radius", "1e4", "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and "limit" in captured.err
    assert captured.err.count("\n") == 1


def test_project_refuses_too_many_points(capsys, tmp_path):
    path = tmp_path / "x.csv"
    code = main(["project", "--target", "H4", "--window", "ball",
                 "--radius", "10", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and "points" in captured.err
    assert captured.err.count("\n") == 1
    assert not path.exists()


def _patch_file(capsys, tmp_path):
    path = tmp_path / "patch.csv"
    assert run(capsys, "project", "--target", "H3-bcc", "--radius", "3",
               "--out", str(path))[0] == 0
    return path


def test_diffract_missing_patch_file(capsys, tmp_path):
    klist = tmp_path / "k.json"
    klist.write_text("[[0, 0, 0]]")
    code = main(["diffract", "--in", str(tmp_path / "missing.csv"),
                 "--k-list", str(klist), "--out", str(tmp_path / "i.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and "missing.csv" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("vector", ["--1,0,0,0", "1+,0,0,0", "1/0,0,0,0"])
def test_member_rejects_malformed_coordinates(capsys, vector):
    code = main(["member", "--ql", "H4", f"--vector={vector}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["member", "--ql", "H4", "--vector", "1" * 5000 + ",0,0,0"],
    ["member", "--ql", "H4", "--vector", "1/" + "1" * 5000 + ",0,0,0"],
    ["scale", "--ql", "H4", "--factor", "1" * 5000 + "t"],
], ids=["member", "member-denominator", "scale-factor"])
def test_integers_over_the_digit_limit_are_refused(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and "5000 digits" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_member_refuses_coefficients_over_the_digit_limit(capsys, fmt):
    # 4300 digits parse, but the first frame coefficient has 4301
    code = main(["member", "--ql", "H4", "--format", fmt,
                 "--vector", "9" * 4300 + ",0,0,0"])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


_HEADER = ("# target,H3-bcc,window,cell,scale,1.0,radius,3.0\n"
           "x0,x1,x2,exact0,exact1,exact2,c0,c1,c2,c3,c4,c5\n")


@pytest.mark.parametrize("content,line", [
    ("", 1),
    (_HEADER + "0,0,abc,0,0,0,0,0,0,0,0,0\n", 3),
    (_HEADER.encode() + b"0,0,\xff,0,0,0,0,0,0,0,0,0\n", 3),
    (b"\xc3\x28" + _HEADER.encode(), 1),
    (_HEADER + "0," + "1" * 140_000 + "\n", 3),
    ("# target,H3-bcc,window\n" + _HEADER.split("\n", 1)[1], 1),
], ids=["empty", "bad-row", "not-utf8", "not-utf8-first-byte", "over-long-field",
        "three-field-row"])
def test_diffract_rejects_malformed_patch_file(capsys, tmp_path, content, line):
    patch = tmp_path / "patch.csv"
    patch.write_bytes(content if isinstance(content, bytes) else content.encode())
    klist = tmp_path / "k.json"
    klist.write_text("[[0, 0, 0]]")
    code = main(["diffract", "--in", str(patch), "--k-list", str(klist),
                 "--out", str(tmp_path / "i.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {patch}, line {line}: not a patch file")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("k_list", ["[[1, 2]]", "[1, 2, 3]", '{"q": []}', "not json"])
def test_diffract_rejects_malformed_k_list(capsys, tmp_path, k_list):
    patch = _patch_file(capsys, tmp_path)
    klist = tmp_path / "k.json"
    klist.write_text(k_list)
    code = main(["diffract", "--in", str(patch), "--k-list", str(klist),
                 "--out", str(tmp_path / "i.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and "3-component" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("k_list", ["[[0, 0, NaN]]", "[[1, 0, 0], [Infinity, 0, 0]]",
                                    '{"k": [[-Infinity, 1, 2]]}', '[["nan", 0, 0]]'])
def test_diffract_refuses_non_finite_k_vectors(capsys, tmp_path, k_list):
    patch = _patch_file(capsys, tmp_path)
    klist = tmp_path / "k.json"
    klist.write_text(k_list)
    out = tmp_path / "i.csv"
    code = main(["diffract", "--in", str(patch), "--k-list", str(klist),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {klist}:") and "finite" in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("k_list,detail", [
    ("[[1" + "0" * 400 + ", 0, 0]]", "past the float range"),
    ("[[1e308, 0, 0]]", "fractional part"),
], ids=["past-float-range", "past-2**53-phases"])
def test_diffract_refuses_k_vectors_too_large(capsys, tmp_path, k_list, detail):
    patch = _patch_file(capsys, tmp_path)
    klist = tmp_path / "k.json"
    klist.write_text(k_list)
    out = tmp_path / "i.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["diffract", "--in", str(patch), "--k-list", str(klist),
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and detail in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_diffract_refuses_a_patch_without_points(capsys, tmp_path):
    patch = tmp_path / "patch.csv"
    patch.write_text("# target,H3-bcc,window,cell,scale,1.0,radius,3.0\n"
                     "x0,x1,x2,exact0,exact1,exact2,c0,c1,c2,c3,c4,c5\n")
    klist = tmp_path / "k.json"
    klist.write_text("[[0, 0, 0], [1, 0, 0]]")
    out = tmp_path / "i.csv"
    code = main(["diffract", "--in", str(patch), "--k-list", str(klist),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    # every generated patch holds the origin, so its first point is missing
    assert captured.err.startswith(f"error: {patch}, line 3: not a patch file")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_project_h4_cell_window_names_the_ball_window(capsys, tmp_path):
    path = tmp_path / "x.csv"
    code = main(["project", "--target", "H4", "--radius", "2", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and "--window ball" in captured.err
    assert captured.err.count("\n") == 1
    assert not path.exists()


def test_diffract_refuses_a_deeply_nested_k_list(capsys, tmp_path):
    patch = _patch_file(capsys, tmp_path)
    klist = tmp_path / "k.json"
    klist.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["diffract", "--in", str(patch), "--k-list", str(klist),
                 "--out", str(tmp_path / "i.csv")])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: {klist}: expected a JSON list of 3-component")
    assert captured.err.count("\n") == 1


# -- bad arguments, verb by verb ------------------------------------------
#
# Each case is the argv of one verb; "{tmp}" stands for a scratch directory
# that holds a good H3-bcc patch "patch.csv", the k-list "k.json" and any
# files the case names.  Oversized requests are ones refused before any work.

_DIFFRACT = ["diffract", "--in", "{tmp}/patch.csv", "--k-list", "{tmp}/k.json",
             "--out", "{tmp}/i.csv"]

BAD_ARGUMENTS = {
    "roots-empty": (["roots", "--system", ""], {}),
    "roots-huge": (["roots", "--system", "I2-" + "9" * 5000], {}),
    "roots-nan": (["roots", "--system", "I2-nan"], {}),
    "roots-doubled-parenthesis": (["roots", "--system", "I2((5"], {}),
    "roots-oversized": (["roots", "--system", "I2-50001"], {}),
    "group-empty": (["group", "--system", ""], {}),
    "group-wrong-ring": (["group", "--system", "I2-7"], {}),
    "group-no-separator": (["group", "--system", "I25"], {}),
    "group-huge": (["group", "--system", "I2-100000"], {}),
    "icosians-format": (["icosians", "--format", "xml"], {}),
    "member-huge": (["member", "--ql", "H4", "--vector", "1" * 5000 + ",0,0,0"], {}),
    "member-nan": (["member", "--ql", "H4", "--vector", "nan,0,0,0"], {}),
    "member-unparenthesized-sum": (["member", "--ql", "H4", "--vector", "1+t/2,0,0,0"], {}),
    "member-blank-coordinate": (["member", "--ql", "H4", "--vector", "1,,0,0,0"], {}),
    "member-empty": (["member", "--ql", "H4", "--vector", ""], {}),
    "member-wrong-length": (["member", "--ql", "H4", "--vector", "1,2"], {}),
    "member-wrong-ring": (["member", "--ql", "I2-7", "--vector", "1,0"], {}),
    "residues-format": (["residues", "--format", "xml"], {}),
    "scale-huge-factor": (["scale", "--ql", "H4", "--factor", "1" * 5000 + "t"], {}),
    "scale-huge-power": (["scale", "--ql", "H4", "--power", "9" * 5000], {}),
    "scale-nan-factor": (["scale", "--ql", "H4", "--factor", "nan"], {}),
    "scale-nan-power": (["scale", "--ql", "H4", "--power", "nan"], {}),
    "scale-empty-factor": (["scale", "--ql", "H4", "--factor", ""], {}),
    "scale-unparenthesized-sum": (["scale", "--ql", "H4", "--factor", "1+t/1"], {}),
    "scale-wrong-ring": (["scale", "--ql", "H4", "--factor", "2"], {}),
    "verify-nothing": (["verify"], {}),
    "verify-format": (["verify", "--table1", "--format", "xml"], {}),
    "project-huge": (["project", "--target", "H3-bcc", "--radius", "1e400",
                      "--out", "{tmp}/x.csv"], {}),
    "project-nan": (["project", "--target", "H3-bcc", "--radius", "nan",
                     "--out", "{tmp}/x.csv"], {}),
    "project-empty": (["project", "--target", "", "--radius", "5",
                       "--out", "{tmp}/x.csv"], {}),
    "project-wrong-ring": (["project", "--target", "I2-8", "--radius", "4",
                            "--out", "{tmp}/x.csv"], {}),
    "project-subnormal-window": (["project", "--target", "H3-fcc", "--radius", "3",
                                  "--window-scale", "1e-320", "--out", "{tmp}/x.csv"], {}),
    "project-huge-cell-window": (["project", "--target", "H3-fcc", "--radius", "3",
                                  "--window", "cell", "--window-scale", "1e308",
                                  "--out", "{tmp}/x.csv"], {}),
    "project-largest-cell-window": (["project", "--target", "H3-fcc", "--radius", "3",
                                     "--window", "cell", "--window-scale", "1.7e308",
                                     "--out", "{tmp}/x.csv"], {}),
    "project-oversized": (["project", "--target", "H4", "--window", "ball",
                           "--radius", "1e4", "--out", "{tmp}/x.csv"], {}),
    "diffract-not-utf8": (_DIFFRACT, {"patch.csv": _HEADER.encode() + b"\xff\n"}),
    "diffract-long-field": (_DIFFRACT,
                            {"patch.csv": _HEADER.encode() + b"1" * 140_000}),
    "diffract-nested-k": (_DIFFRACT, {"k.json": b"[" * 100_000 + b"]" * 100_000}),
    "diffract-nan-k": (_DIFFRACT, {"k.json": b"[[0, NaN, 0]]"}),
    "diffract-huge-int-k": (_DIFFRACT, {"k.json": b"[[1" + b"0" * 400 + b", 0, 0]]"}),
    "diffract-huge-k": (_DIFFRACT, {"k.json": b"[[1e308, 0, 0]]"}),
    "diffract-empty-k": (_DIFFRACT, {"k.json": b""}),
    "diffract-wrong-length-k": (_DIFFRACT, {"k.json": b"[[1, 2]]"}),
    "diffract-string-k": (_DIFFRACT, {"k.json": b'[["1", 0, 0]]'}),
    "diffract-boolean-k": (_DIFFRACT, {"k.json": b"[[true, 0, 0]]"}),
    "diffract-empty-patch": (_DIFFRACT, {"patch.csv": b""}),
    "diffract-missing-patch": (["diffract", "--in", "{tmp}/none.csv", "--k-list",
                                "{tmp}/k.json", "--out", "{tmp}/i.csv"], {}),
}


def test_bad_arguments_cover_every_verb():
    from qlat.cli import build_parser

    verbs = next(a.choices for a in build_parser()._actions if a.dest == "verb")
    assert {argv[0] for argv, _ in BAD_ARGUMENTS.values()} == set(verbs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,files", BAD_ARGUMENTS.values(), ids=list(BAD_ARGUMENTS))
def test_bad_arguments_end_in_one_line(capsys, tmp_path, argv, files):
    if argv[0] == "diffract":
        _patch_file(capsys, tmp_path)
        (tmp_path / "k.json").write_text("[[0, 0, 0]]")
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    try:
        code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    except SystemExit as exc:    # a usage error from argparse
        code = exc.code
    captured = capsys.readouterr()
    assert code in (1, 2) and captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "i.csv").exists()


def test_python_dash_m_qlat_runs_the_cli():
    import qlat

    src = os.path.dirname(os.path.dirname(qlat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "qlat", "verify", "--table1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "7/7 pass"
