"""Command-line interface: construction, verification, membership,
projection and diffraction for the reflection quasilattices."""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import cutproject, groups, kernels, modules, quaternions, textio
from .ring import DomainError, fundamental_unit
from .roots import RootSystemId, is_quadratic, root_count, roots


def _emit(args, payload, text_lines):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_roots(args):
    system = RootSystemId.parse(args.system)
    if args.count:
        count = root_count(system)
        _emit(args, {"system": str(system), "count": count}, [str(count)])
        return 0
    rs = roots(system)
    if is_quadratic(system):
        payload = {
            "system": str(system),
            "count": len(rs),
            "roots": [textio.vector_json(v) for v in rs],
        }
        lines = [textio.format_vector(v) for v in rs]
    else:
        payload = {
            "system": str(system),
            "count": len(rs),
            "roots": [[float(f"{x:.15g}") for x in v] for v in rs],
        }
        lines = [",".join(f"{x:.15g}" for x in v) for v in rs]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {len(rs)} roots to {args.out}")
    else:
        _emit(args, payload, lines)
    return 0


def cmd_group(args):
    system = RootSystemId.parse(args.system)
    group = groups.generate(system)
    if args.emit:
        payload = {
            "system": str(system),
            "order": group.order,
            "matrices": group.entry_triples().tolist(),
        }
        with open(args.emit, "w") as fh:
            json.dump(payload, fh)
        print(f"wrote {group.order} matrices to {args.emit}")
        return 0
    _emit(args, {"system": str(system), "order": group.order},
          [str(group.order)])
    return 0


def cmd_icosians(args):
    units = quaternions.unit_icosians()
    if args.check_closure:
        unit_set = set(units)
        bad = sum(
            1 for a in units for b in units
            if quaternions.qmul(a, b) not in unit_set
        )
        ok = bad == 0
        _emit(args, {"count": len(units), "closed": ok},
              [f"{len(units)} unit icosians; "
               f"closure {'ok' if ok else f'FAILED ({bad} products escape)'}"])
        return 0 if ok else 1
    _emit(args, {"count": len(units)}, [str(len(units))])
    return 0


def cmd_member(args):
    qlm = modules.ql(args.ql)
    v = textio.parse_exact_vector(args.vector, qlm.kappa)
    if v.dim != qlm.dim:
        raise DomainError(f"{qlm.name} vectors have {qlm.dim} coordinates, "
                          f"not {v.dim}")
    res = modules.membership(qlm, v)
    if res.member:
        coeff_text = [textio.format_rational(c) for c in res.coefficients]
        _emit(args, {"ql": qlm.name, "member": True, "coefficients": coeff_text},
              ["member (coefficients: %s)" % ", ".join(coeff_text)])
        return 0
    _emit(args, {"ql": qlm.name, "member": False, "reason": res.reason},
          [f"non-member: {res.reason}"])
    return 0


def cmd_residues(args):
    res = sorted(
        modules.enumerate_h4_residues(), key=lambda r: (r.m, r.n)
    )
    payload = {"count": len(res),
               "residues": [{"m": list(r.m), "n": list(r.n)} for r in res]}
    lines = [f"{len(res)} allowed mod-2 classes"] + [
        "m=%s n=%s  rep %s" % (
            r.m, r.n, textio.format_vector(modules.residue_representative(r))
        )
        for r in res
    ]
    _emit(args, payload, lines)
    return 0


def cmd_scale(args):
    qlm = modules.ql(args.ql)
    if args.factor is not None:
        factor = textio.parse_element(args.factor, qlm.kappa)
    else:
        factor = fundamental_unit(qlm.kappa).unit
    cls = modules.scale_classification(qlm, factor, args.power)
    payload = {
        "ql": qlm.name,
        "factor": textio.format_element(factor),
        "power": args.power,
        "verdict": cls.verdict,
        "index": cls.index,
    }
    _emit(args, payload,
          [f"{qlm.name}: scaling by ({payload['factor']})^{args.power} "
           f"-> {cls.verdict}"])
    return 0


def cmd_verify(args):
    if not args.table1:
        print("nothing to verify (use --table1)", file=sys.stderr)
        return 2
    report = modules.verify_table1()
    payload = [
        {
            "ql": r.ql,
            "expected_factor": r.expected_factor,
            "derived_factor": list(r.derived_factor),
            "minimal_power": r.minimal_power,
            "pass": r.ok,
        }
        for r in report.rows
    ]
    lines = [
        f"{r.ql:13s} factor {r.expected_factor:10s} minimal power "
        f"{r.minimal_power}  {'pass' if r.ok else 'FAIL'}"
        for r in report.rows
    ] + [f"{report.summary()} pass"]
    _emit(args, {"rows": payload, "summary": report.summary()}, lines)
    return 0 if report.all_ok else 1


def cmd_project(args):
    emb = cutproject.embedding(args.target)
    window = cutproject.Window(args.window, args.window_scale)
    patch = cutproject.generate_patch(emb, window, args.radius)
    cutproject.write_patch_csv(patch, args.out)
    print(f"wrote {patch.size} points to {args.out}")
    return 0


def _read_k_list(path: str, dim: int) -> np.ndarray:
    """The finite k vectors of a JSON file of rows or {"k": rows}."""
    with open(path) as fh:
        try:
            data = json.load(fh)
            ks = np.array(data["k"] if isinstance(data, dict) else data, dtype=float)
        except OverflowError:
            raise DomainError(f"{path}: a k component is past the float range") from None
        except (KeyError, TypeError, ValueError, RecursionError):
            ks = None
    if ks is None or ks.ndim != 2 or ks.shape[1] != dim:
        raise DomainError(f"{path}: expected a JSON list of {dim}-component k vectors")
    if not np.isfinite(ks).all():
        raise DomainError(f"{path}: k vectors must be finite, not NaN or infinite")
    return ks


def cmd_diffract(args):
    patch = cutproject.read_patch_csv(args.infile)
    ks = _read_k_list(args.k_list, patch.points.shape[1])
    intensities = kernels.structure_factor_sum(patch.points, ks)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"k{i}" for i in range(ks.shape[1])] + ["intensity"]
        )
        for k, i in zip(ks, intensities):
            writer.writerow([f"{x:.15g}" for x in k] + [f"{i:.15g}"])
    print(f"wrote {len(intensities)} intensities to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error as one stderr line, exit code 2."""
        self.exit(2, f"{self.prog}: error: {message} (see {self.prog} --help)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qlat",
        description="Non-crystallographic root systems, icosians and "
                    "reflection quasilattices, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("roots", help="list or count roots")
    p.add_argument("--system", required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--out")
    add_format(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("group", help="generate a reflection group")
    p.add_argument("--system", required=True)
    p.add_argument("--emit", metavar="FILE", help="dump exact matrices as JSON")
    add_format(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("icosians", help="the 120 unit icosians")
    p.add_argument("--check-closure", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_icosians)

    p = sub.add_parser("member", help="exact quasilattice membership")
    p.add_argument("--ql", required=True)
    p.add_argument("--vector", required=True,
                   help="comma-separated coordinates, e.g. '1/2,1/2,1/2,1/2'")
    add_format(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("residues", help="the 16 allowed H4 mod-2 classes")
    add_format(p)
    p.set_defaults(func=cmd_residues)

    p = sub.add_parser("scale", help="classify a rescaling of a quasilattice")
    p.add_argument("--ql", required=True)
    p.add_argument("--factor", help="scale factor (default: fundamental unit)")
    p.add_argument("--power", type=int, default=1)
    add_format(p)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("verify", help="re-derive the scale-factor table")
    p.add_argument("--table1", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("project", help="cut-and-project a finite patch")
    p.add_argument("--target", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--window", choices=("cell", "ball"), default="cell")
    p.add_argument("--window-scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("diffract", help="structure factors of a patch")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k-list", required=True, help="JSON list of k vectors")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diffract)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
