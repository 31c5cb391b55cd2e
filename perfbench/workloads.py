"""The three benchmark workloads.

Each workload builds its seeded inputs in ``setup``, times one pass of
work through the public qlat API in ``run_pass`` and checks that pass's
outputs in ``check``, outside the timed region.  A check is one boolean;
any exception while producing or checking an output makes it False.

- ``project``: cut-and-project patches through generate -> CSV write ->
  CSV read -> structure factors, at fixed geometries.
- ``module``: a seeded stream of exact membership verdicts, half members
  and half non-members, over all seven quasilattices.
- ``groups``: cold closure of the H3 and H4 groups, the quaternion-pair
  maps, the icosian closure and an H4 root orbit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
import weakref
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qlat import cutproject, groups, kernels, modules, quaternions
from qlat.ring import QuadraticRingElement, golden
from qlat.roots import H3, H4, roots

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

TAU = (1 + 5 ** 0.5) / 2
# Reciprocal-module points of the H3-primitive quasilattice (Z^6
# coefficients); with a cell window each is a Bragg peak.
PEAK_COEFFS = (
    (2, -1, 1, 1, 1, -1),
    (1, -1, 2, -1, 1, 1),
    (1, -1, -1, 2, -1, -1),
    (1, -2, 1, 1, -1, 1),
    (1, 1, 1, -1, 2, -1),
)
PEAK_FLOOR = 0.1
BACKGROUND_CEILING = 0.01

# (target, window shape, radius); the geometries never depend on the seed.
GEOMETRIES = {
    "full": (
        ("H3-primitive", "cell", 12.0),
        ("H3-bcc", "cell", 8.0),
        ("H3-fcc", "ball", 8.0),
        ("H4", "ball", 2.0),
    ),
    "tiny": (
        ("H3-primitive", "cell", 4.0),
        ("H3-bcc", "cell", 4.0),
    ),
}


def geometry_key(target: str, shape: str, radius: float) -> str:
    return f"{target}-{shape}-R{radius:g}"


def coefficient_digest(coeffs) -> str:
    """sha256 of the patch's integer coefficient rows in sorted order."""
    rows = np.asarray(coeffs, dtype="<i8").reshape(len(coeffs), -1)
    if len(rows):
        rows = rows[np.lexsort(rows.T[::-1])]
    return hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest()


def peak_vectors() -> np.ndarray:
    """The five known Bragg peaks as physical-space k vectors."""
    emb = cutproject.embedding("H3-primitive")
    s = 2 * math.pi / (2 * (2 + TAU))
    return np.array([s * (emb.parallel @ np.array(n, dtype=float)) for n in PEAK_COEFFS])


def random_k(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Random k vectors with |k| in [1, 4], as in the diffraction tests."""
    dirs = rng.normal(size=(count, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return rng.uniform(1.0, 4.0, size=(count, 1)) * dirs


def oracle_intensities(exact, ks: np.ndarray) -> np.ndarray:
    """|sum exp(i k.x)|^2 / N^2 straight from the exact points."""
    pts = np.array([[float(c) for c in v.coords] for v in exact])
    amp = np.exp(1j * (pts @ ks.T)).sum(axis=0)
    return (amp.real ** 2 + amp.imag ** 2) / len(pts) ** 2


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _checks(named) -> list[bool]:
    """Evaluate zero-argument checks; one that raises counts as failed."""
    out = []
    for fn in named:
        try:
            out.append(bool(fn()))
        except Exception:
            out.append(False)
    return out


@dataclass
class PassResult:
    elapsed: float
    items: int
    outputs: object


class CacheHit(RuntimeError):
    """A timed closure came out of generate's cache."""


@dataclass
class Workload:
    seed: int
    size: str = "full"
    workdir: str = "."

    name = ""
    # called with each step's seconds after the step, outside the timed region
    probe = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> list[bool]:
        raise NotImplementedError

    def _start(self) -> float:
        self.untimed = 0.0
        return time.perf_counter()

    def _elapsed(self, start: float) -> float:
        return time.perf_counter() - start - self.untimed

    @contextmanager
    def _step(self, tracer, name):
        """One step of a pass, then the probe, if any, outside the timing."""
        start = time.perf_counter()
        with tracer.task(name) if tracer is not None else nullcontext():
            yield
        if self.probe is not None:
            end = time.perf_counter()
            self.probe(end - start)
            self.untimed += time.perf_counter() - end


# -- project -----------------------------------------------------------

class ProjectWorkload(Workload):
    name = "project"
    random_k_count = 300
    spot_checks = 10

    def setup(self) -> None:
        self.reference = load_reference()["geometries"]
        self.geometries = GEOMETRIES[self.size]
        rng = np.random.default_rng(self.seed)
        peaks = peak_vectors()
        self.kinputs = {}
        for target, shape, radius in self.geometries:
            dim = modules.ql(target).dim
            ks = [np.zeros((1, dim)), random_k(rng, self.random_k_count, dim)]
            if dim == 3:
                ks.insert(1, peaks)
            self.kinputs[geometry_key(target, shape, radius)] = np.vstack(ks)
        self.sample_rng = random.Random(self.seed)

    def run_pass(self, tracer=None) -> PassResult:
        outputs = {}
        items = 0
        start = self._start()
        for target, shape, radius in self.geometries:
            key = geometry_key(target, shape, radius)
            path = os.path.join(self.workdir, f"{key}.csv")
            with self._step(tracer, f"bench.project.{key}"):
                try:
                    emb = cutproject.embedding(target)
                    patch = cutproject.generate_patch(
                        emb, cutproject.Window(shape), radius)
                    cutproject.write_patch_csv(patch, path)
                    back = cutproject.read_patch_csv(path)
                    intensities = kernels.structure_factor_sum(
                        back.points, self.kinputs[key])
                    outputs[key] = (patch, back, intensities)
                    items += back.size
                except Exception as exc:
                    outputs[key] = exc
        return PassResult(self._elapsed(start), items, outputs)

    def check(self, result: PassResult) -> list[bool]:
        out = []
        for target, shape, radius in self.geometries:
            key = geometry_key(target, shape, radius)
            out += self._check_geometry(target, key, result.outputs[key])
        return out

    def _check_geometry(self, target, key, got) -> list[bool]:
        ref = self.reference[key]
        ks = self.kinputs[key]
        dim = ks.shape[1]
        n_peaks = len(PEAK_COEFFS) if dim == 3 else 0
        # rows: [k = 0] + [peaks] + [random k]
        patch, back, inten = got if isinstance(got, tuple) else (got, got, got)
        picks = self.sample_rng.sample(range(ref["count"]),
                                       min(self.spot_checks, ref["count"]))
        qlm = modules.ql(target)
        named = [
            lambda: patch.size == ref["count"],
            lambda: coefficient_digest(patch.coeffs) == ref["digest"],
            lambda: back.target == patch.target and back.exact == patch.exact
            and np.array_equal(back.coeffs, patch.coeffs)
            and np.allclose(back.points, patch.points, rtol=0, atol=1e-12),
            lambda: np.allclose(inten, oracle_intensities(back.exact, ks),
                                rtol=0, atol=1e-9),
            lambda: abs(inten[0] - 1.0) < 1e-12,
        ]
        if ref["peaks"] == "bragg":
            named.append(lambda: min(inten[1:1 + n_peaks]) >= PEAK_FLOOR)
        elif ref["peaks"] == "extinct":
            named.append(lambda: max(inten[1:1 + n_peaks]) <= BACKGROUND_CEILING)
        if ref["background"]:
            named.append(lambda: float(np.median(inten[1 + n_peaks:]))
                         <= BACKGROUND_CEILING)
        for i in picks:
            named.append(lambda i=i: modules.membership(qlm, patch.exact[i]).member
                         and qlm.from_basis_coefficients(patch.coeffs[i])
                         == patch.exact[i])
        return _checks(named)


# -- module ------------------------------------------------------------

PLAIN, IMAGE, ICOSIAN = "plain", "image", "icosian"

# queries per quasilattice: (plain members, plain non-members,
# image members, image non-members); then containment-chain and
# icosian-ring queries, each half members
MODULE_SIZES = {
    "full": {"per_ql": (90, 90, 45, 45), "chain": 120, "icosian": 120, "spot": 20},
    "tiny": {"per_ql": (2, 2, 1, 1), "chain": 4, "icosian": 4, "spot": 4},
}


def _rational(x, kappa: int) -> QuadraticRingElement:
    return QuadraticRingElement.rational(Fraction(x), kappa)


def _frame_combination(qlm, coeffs):
    """sum coeffs[i] * frame[i] as an exact vector."""
    out = None
    for v, c in zip(qlm.frame, coeffs):
        term = v.scale(_rational(c, qlm.kappa))
        out = term if out is None else out + term
    return out


class ModuleWorkload(Workload):
    name = "module"

    def setup(self) -> None:
        sizes = MODULE_SIZES[self.size]
        rng = random.Random(self.seed)
        self.group_elements = {}
        for name in modules.QL_NAMES:
            system = modules.ql(name).system
            if system not in self.group_elements:
                self.group_elements[system] = groups.generate(system).elements
        self.units = quaternions.unit_icosians()
        # the 240 mod-2 frame-coefficient classes outside the allowed 16
        allowed = {r.m + r.n for r in modules.enumerate_h4_residues()}
        self.bad_residues = [
            bits for bits in
            (tuple((k >> i) & 1 for i in range(8)) for k in range(256))
            if bits not in allowed
        ]
        queries = []
        for name in modules.QL_NAMES:
            qlm = modules.ql(name)
            elements = self.group_elements[qlm.system]
            n_in, n_out, n_img_in, n_img_out = sizes["per_ql"]
            for count, member, image in ((n_in, True, False), (n_out, False, False),
                                         (n_img_in, True, True),
                                         (n_img_out, False, True)):
                for _ in range(count):
                    v = self._member(qlm, rng)
                    if not member:
                        v = self._perturb(qlm, v, rng)
                    g = rng.choice(elements) if image else None
                    queries.append((IMAGE if image else PLAIN, qlm, g, v, member))
        queries += self._chain_queries(sizes["chain"], rng)
        queries += self._icosian_queries(sizes["icosian"], rng)
        rng.shuffle(queries)
        self.queries = queries
        members = [i for i, q in enumerate(queries) if q[0] != ICOSIAN and q[4]]
        self.spot = rng.sample(members, min(sizes["spot"], len(members)))

    # -- query construction (untimed) --

    @staticmethod
    def _member(qlm, rng, bound: int = 6):
        def combo():
            return qlm.from_basis_coefficients(
                [rng.randint(-bound, bound) for _ in range(qlm.rank)])
        kind = rng.randrange(3)
        if kind == 0:
            return combo()
        a, b = combo(), combo()
        return a + b if kind == 1 else a - b

    def _perturb(self, qlm, v, rng):
        """A member plus an offset that breaks this module's rule."""
        i = rng.randrange(qlm.rank)
        unit = [0] * qlm.rank
        if qlm.constraint == "even-sum":
            unit[i] = 1                      # integer, odd sum
        elif qlm.constraint == "h4-parity" and rng.random() < 0.5:
            unit = list(rng.choice(self.bad_residues))   # disallowed residue
        elif qlm.constraint == "unrestricted":
            unit[i] = Fraction(rng.choice((1, 2)), 3)    # fractional coefficient
        else:
            unit[i] = Fraction(1, 2)    # bcc: mixed int/half; H4: fractional
        return v + _frame_combination(qlm, unit)

    def _chain_queries(self, count, rng):
        """fcc in primitive in bcc, and the reverse non-containments."""
        prim, fcc, bcc = (modules.ql(n) for n in ("H3-primitive", "H3-fcc", "H3-bcc"))
        out = []
        for j in range(count):
            which = j % 4
            if which == 0:      # fcc member lies in primitive
                out.append((PLAIN, prim, None, self._member(fcc, rng), True))
            elif which == 1:    # primitive member lies in bcc
                out.append((PLAIN, bcc, None, self._member(prim, rng), True))
            elif which == 2:    # odd-sum primitive member is not in fcc
                c = [rng.randint(-6, 6) for _ in range(6)]
                c[0] += 1 - sum(c) % 2
                out.append((PLAIN, fcc, None, _frame_combination(prim, c), False))
            else:               # all-half bcc member is not in primitive
                c = [Fraction(2 * rng.randint(-6, 6) + 1, 2) for _ in range(6)]
                out.append((PLAIN, prim, None, _frame_combination(bcc, c), False))
        return out

    def _icosian_queries(self, count, rng):
        h4 = modules.ql("H4")

        def ring_element():
            total = quaternions.GoldenQuaternion(0, 0, 0, 0)
            for _ in range(3):
                c = golden(rng.randint(-2, 2), rng.randint(-2, 2))
                total = total + rng.choice(self.units).scale(c)
            return total

        out = []
        for j in range(count):
            if j % 2 == 0:
                q = ring_element()
                if j % 4 == 0:
                    q = quaternions.qmul(q, ring_element())
                out.append((ICOSIAN, None, None, q, True))
            else:
                v = self._perturb(h4, self._member(h4, rng), rng)
                out.append((ICOSIAN, None, None,
                            quaternions.GoldenQuaternion.from_vector(v), False))
        return out

    # -- timed verdicts --

    def run_pass(self, tracer=None) -> PassResult:
        answers = []
        start = self._start()
        with self._step(tracer, "bench.module.pass"):
            for kind, qlm, g, v, _ in self.queries:
                try:
                    if kind == ICOSIAN:
                        answers.append(quaternions.is_in_icosian_ring(v))
                    else:
                        w = v if g is None else g.apply(v)
                        answers.append(modules.membership(qlm, w))
                except Exception as exc:
                    answers.append(exc)
        elapsed = self._elapsed(start)
        verdicts = sum(not isinstance(a, Exception) for a in answers)
        return PassResult(elapsed, verdicts, answers)

    def check(self, result: PassResult) -> list[bool]:
        answers = result.outputs

        def verdict(a):
            if isinstance(a, Exception):
                raise a
            return bool(getattr(a, "member", a))

        named = [
            lambda a=a, q=q: verdict(a) == q[4]
            for a, q in zip(answers, self.queries)
        ]
        for i in self.spot:
            _, qlm, g, v, _ = self.queries[i]
            named.append(lambda a=answers[i], qlm=qlm, g=g, v=v:
                         _frame_combination(qlm, a.coefficients)
                         == (v if g is None else g.apply(v)))
        return _checks(named)


# -- groups ------------------------------------------------------------

def _cache_owner(fn):
    """The object behind fn (through timing wrappers) that has cache_clear."""
    while fn is not None and not hasattr(fn, "cache_clear"):
        fn = getattr(fn, "__wrapped__", None)
    return fn


class GroupsWorkload(Workload):
    name = "groups"
    spot_checks = 5

    def setup(self) -> None:
        self.expect = load_reference()["groups"]
        rng = random.Random(self.seed)
        self.h4_roots = frozenset(roots(H4))
        self.root = rng.choice(roots(H4))
        self.units = quaternions.unit_icosians()
        self.unit_set = frozenset(self.units)
        self.sample_rng = rng
        self.passes_checked = 0
        self._seen = []     # weak references to groups built by earlier passes

    def _clear_cache(self):
        owner = _cache_owner(groups.generate)
        if owner is not None:
            owner.cache_clear()

    def _guard_cold(self, built, hits_before):
        """Raise CacheHit if a group came from generate's cache."""
        owner = _cache_owner(groups.generate)
        if owner is not None and hasattr(owner, "cache_info") and \
                owner.cache_info().hits != hits_before:
            raise CacheHit("groups.generate answered from its cache")
        for grp in built:
            if any(ref() is grp for ref in self._seen):
                raise CacheHit("groups.generate returned a group built earlier")
        self._seen = [weakref.ref(grp) for grp in built]

    def run_pass(self, tracer=None) -> PassResult:
        self._clear_cache()
        owner = _cache_owner(groups.generate)
        hits = owner.cache_info().hits if hasattr(owner, "cache_info") else 0
        start = self._start()
        try:
            with self._step(tracer, "bench.groups.generate"):
                h3 = groups.generate(H3)
                h4 = groups.generate(H4)
            with self._step(tracer, "bench.groups.maps"):
                raw, distinct = groups.enumerate_h4_quaternion_maps()
            with self._step(tracer, "bench.groups.icosian_closure"):
                products = [quaternions.qmul(a, b)
                            for a in self.units for b in self.units]
            with self._step(tracer, "bench.groups.orbit"):
                orb = groups.orbit(h4, self.root)
        except Exception as exc:
            return PassResult(self._elapsed(start), 0, (exc,) * 6)
        elapsed = self._elapsed(start)
        self._guard_cold((h3, h4), hits)
        items = h3.order + h4.order + raw + len(products) + h4.order
        return PassResult(elapsed, items, (h3, h4, raw, distinct, products, orb))

    def check(self, result: PassResult) -> list[bool]:
        h3, h4, raw, distinct, products, orb = result.outputs
        e = self.expect
        named = [
            lambda: h3.order == e["h3_order"],
            lambda: h4.order == e["h4_order"],
            lambda: raw == e["maps_raw"],
            lambda: len(distinct) == e["maps_distinct"],
            lambda: sum(p not in self.unit_set for p in products)
            == e["escaping_products"] and len(products) == len(self.units) ** 2,
            lambda: len(orb) == e["orbit_size"] and orb == self.h4_roots,
        ]
        if self.passes_checked == 0:
            # 4 s of exact conversions, so once per run
            named.append(lambda: distinct == h4.compact_byte_set())
        for grp, system in ((h3, H3), (h4, H4)):
            for _ in range(self.spot_checks):
                named.append(lambda grp=grp, system=system:
                             self._spot_check(grp, system))
        self.passes_checked += 1
        return _checks(named)

    def _spot_check(self, grp, system) -> bool:
        """A seeded element is orthogonal and maps roots to roots."""
        g = self.sample_rng.choice(grp.elements)
        rs = roots(system)
        root_set = frozenset(rs)
        return g.is_orthogonal() and all(
            g.apply(r) in root_set for r in self.sample_rng.sample(rs, 8))


WORKLOADS = {w.name: w for w in (ProjectWorkload, ModuleWorkload, GroupsWorkload)}


def make(name: str, seed: int, size: str = "full", workdir: str = ".") -> Workload:
    return WORKLOADS[name](seed=seed, size=size, workdir=workdir)

