"""Reflection quasilattices as finite-rank integer modules.

Each quasilattice is represented by its conventional generating frame
(six icosahedron vertex vectors for H3, the eight half/half-tau unit
vectors for H4, the first four zeta powers for the 2D rows) and a true
Z-basis of the module, given by its frame coefficients.  The basis
encodes the paper's coefficient rule (unrestricted, even sum, all
integer or all half-integer, H4 mod-2 parity), so membership, basis and
frame coordinates, rescaling and index computations are integer
matrix-vector products on that basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Optional

from .ring import DomainError, QuadraticRingElement, fundamental_unit, radicand, tau
from .roots import H3, H4, I2, RootSystemId, _i2_params, _zeta_powers, roots
from .textio import format_element
from .vectors import ExactVector


class _Quasilattice(NamedTuple):
    system: RootSystemId
    constraint: str     # the paper's coefficient rule on frame coefficients
    least_power: int    # Table 1: least power of the fundamental unit keeping it


_QUASILATTICES = {
    "I2-5": _Quasilattice(I2(5), "unrestricted", 1),
    "I2-8": _Quasilattice(I2(8), "unrestricted", 1),
    "I2-12": _Quasilattice(I2(12), "unrestricted", 1),
    "H3-primitive": _Quasilattice(H3, "unrestricted", 3),
    "H3-fcc": _Quasilattice(H3, "even-sum", 1),
    "H3-bcc": _Quasilattice(H3, "all-int-or-all-half", 1),
    "H4": _Quasilattice(H4, "h4-parity", 1),
}

QL_NAMES = tuple(_QUASILATTICES)


def parse_ql_name(text: str) -> str:
    t = text.strip()
    aliases = {"H3-1": "H3-primitive", "H3-2": "H3-fcc", "H3-3": "H3-bcc",
               "I2-10": "I2-5"}
    t = aliases.get(t, t)
    if t not in QL_NAMES:
        raise DomainError(f"unknown quasilattice {text!r}; choose from {QL_NAMES}")
    return t


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    coefficients: Optional[tuple[Fraction, ...]] = None  # frame coefficients
    reason: Optional[str] = None


@dataclass(frozen=True)
class ScaleClassification:
    verdict: str  # "invariant" | "not-closed"
    index: Optional[int] = None


@dataclass(frozen=True)
class H4Residue:
    m: tuple[int, int, int, int]
    n: tuple[int, int, int, int]


class QLModule:
    """A reflection quasilattice as a rank-2d integer module.

    A vector with coordinates (p_i + q_i*sqrt(kappa))/den is read as the
    integer vector x = (p_1, ..., p_d, q_1, ..., q_d) over den.  The module
    keeps its member Z-basis as the integer columns of such vectors over
    one common denominator, and the inverse of that basis as an integer
    matrix N over a denominator D, so the basis coefficients of x/den are
    N x / (D den): a vector is a member exactly when they are integers.
    ``member_basis_coeffs`` (integer rows over ``member_basis_den``) gives
    each basis vector in the frame and turns basis into frame coefficients.
    The frame, the member basis and every integer table are tuples, so a
    module that ql() cached cannot be changed by its callers.
    """

    def __init__(self, name: str):
        self.name = name
        self.system, self.constraint, _ = _QUASILATTICES[name]
        self.dim = self.system.rank
        self.rank = 2 * self.dim
        self.frame = tuple(_frame(name))
        self.kappa = self.frame[0].kappa
        frame_cols, frame_den = _columns(self.frame)
        coeff_rows, self.member_basis_den = _member_basis_coeffs(
            name, frame_cols, frame_den)
        self.member_basis_coeffs = tuple(map(tuple, coeff_rows))
        # frame columns times the transposed coefficient rows
        self._basis_rows = tuple(
            tuple(sum(map(mul, row, coeffs)) for coeffs in self.member_basis_coeffs)
            for row in frame_cols
        )
        self._basis_den = frame_den * self.member_basis_den
        self._frame_rows = tuple(zip(*self.member_basis_coeffs))
        inverse, self._inverse_den = _integer_inverse(self._basis_rows, self._basis_den)
        self._inverse = tuple(map(tuple, inverse))
        self.member_basis = tuple(
            self.from_basis_coefficients([int(i == j) for j in range(self.rank)])
            for i in range(self.rank)
        )

    # -- coordinates ---------------------------------------------------

    def _basis_numerators(self, v: ExactVector) -> tuple[list[int], int]:
        """Numerators of v's basis coefficients over one denominator."""
        if v.dim != self.dim:
            raise DomainError("dimension mismatch")
        if v.kappa != self.kappa:
            # the module's points are irrational: only a rational v fits
            radicand(self.kappa, True, v.kappa, any(v.form[self.dim:]))
        return _solve(self._inverse, self._inverse_den, v)

    def _frame_values(self, numerators, den: int) -> tuple[Fraction, ...]:
        den *= self.member_basis_den
        return tuple(Fraction(sum(map(mul, row, numerators)), den)
                     for row in self._frame_rows)

    def frame_coefficients(self, v: ExactVector) -> tuple[Fraction, ...]:
        return self._frame_values(*self._basis_numerators(v))

    def basis_coefficients(self, v: ExactVector) -> tuple[Fraction, ...]:
        numerators, den = self._basis_numerators(v)
        return tuple(Fraction(x, den) for x in numerators)

    def from_basis_coefficients(self, coeffs) -> ExactVector:
        """sum coeffs[i] * member_basis[i] for rational coefficients (ints,
        numpy integers or Fractions)."""
        if len(coeffs) != self.rank:
            raise DomainError(f"{self.name} points take {self.rank} basis "
                              f"coefficients, not {len(coeffs)}")
        den = lcm(*(c.denominator for c in coeffs))
        x = [int(c * den) for c in coeffs]
        return ExactVector.from_numerators(
            [sum(map(mul, row, x)) for row in self._basis_rows],
            den * self._basis_den, self.kappa)

    def __repr__(self):
        return f"QLModule({self.name})"


@lru_cache(maxsize=None)
def ql(name: str) -> QLModule:
    return QLModule(parse_ql_name(name))


def _columns(vectors) -> tuple[list[list[int]], int]:
    """Integer rows of the matrix whose columns are the vectors' integer
    vectors x (see QLModule), over one common denominator."""
    cols = [v.numerators() for v in vectors]
    den = lcm(*(d for _, d in cols))
    scaled = [[a * (den // d) for a in x] for x, d in cols]
    return [list(row) for row in zip(*scaled)], den


def _integer_inverse(rows, den: int) -> tuple[list[list[int]], int]:
    """(N, D) in lowest terms with N/D the inverse of the integer matrix
    rows/den; DomainError when it is singular.

    Gauss-Jordan on the integer rows of [rows | I], kept integral in the
    manner of Bareiss (Math. Comp. 22 (1968) 565): a row is cleared by
    cross-multiplication with the pivot row, then divided by its gcd.  The
    left block ends diagonal, so the lcm of the pivots is a denominator.
    """
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise DomainError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot_row = aug[col]
        p = pivot_row[col]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                row = [p * x - f * y for x, y in zip(aug[r], pivot_row)]
                g = gcd(*row)
                aug[r] = [x // g for x in row]
    pivots = [aug[i][i] for i in range(n)]
    inverse_den = lcm(*pivots)
    inverse = [[x * den * (inverse_den // p) for x in aug[i][n:]]
               for i, p in enumerate(pivots)]
    g = gcd(inverse_den, *(x for row in inverse for x in row))
    return [[x // g for x in row] for row in inverse], inverse_den // g


def _solve(inverse, inverse_den: int, v: ExactVector) -> tuple[list[int], int]:
    """Numerators, over one denominator, of inverse/inverse_den applied
    to v's integer vector x over its denominator (see QLModule)."""
    x, den = v.numerators()
    return [sum(map(mul, row, x)) for row in inverse], inverse_den * den


def _frame(name: str) -> list[ExactVector]:
    t = tau()
    one = QuadraticRingElement(1)
    zero = QuadraticRingElement(0)
    if name.startswith("H3"):
        # the six icosahedron vertex vectors from {1, +-tau, 0}, even perms
        pats = [(one, t, zero), (one, -t, zero)]
        vecs = []
        for p in pats:
            for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
                vecs.append(ExactVector(tuple(p[i] for i in perm)))
        # order: v1..v6 pairing each +tau vector with its -tau partner
        return [vecs[0], vecs[3], vecs[1], vecs[4], vecs[2], vecs[5]]
    if name == "H4":
        half = QuadraticRingElement(1, 0, 5, 2)
        th = t * half
        frame = []
        for s in (half, th):
            for i in range(4):
                coords = [zero] * 4
                coords[i] = s
                frame.append(ExactVector(coords))
        return frame
    # 2D rows: first four powers of the relevant root of unity
    m, c, k = _i2_params(_QUASILATTICES[name].system)
    powers = _zeta_powers(m, c, k)
    if name == "I2-5":
        # Z[zeta_5] basis: zeta_5^j = zeta_10^(2j)
        return [powers[0], powers[2], powers[4], powers[6]]
    return powers[:4]


def _member_basis_coeffs(name: str, frame_cols, frame_den: int
                         ) -> tuple[list[list[int]], int]:
    """Frame coefficients of the member basis: integer rows over a
    denominator."""
    r = len(frame_cols)
    if _QUASILATTICES[name].constraint == "unrestricted":
        return [[int(i == j) for j in range(r)] for i in range(r)], 1
    if name == "H3-fcc":
        rows = [[0] * 6 for _ in range(6)]
        for i in range(5):
            rows[i][i], rows[i][i + 1] = 1, -1
        rows[5][4], rows[5][5] = 1, 1
        return rows, 1
    if name == "H3-bcc":
        rows = [[2 * int(i == j) for j in range(6)] for i in range(5)]
        return rows + [[1] * 6], 2
    # H4: HNF basis of the integer span of the 120 root coefficient vectors
    inverse, inverse_den = _integer_inverse(frame_cols, frame_den)
    gen_rows = []
    for root in roots(H4):
        coeffs, den = _solve(inverse, inverse_den, root)
        assert all(c % den == 0 for c in coeffs)
        gen_rows.append([c // den for c in coeffs])
    basis = hnf_rows(gen_rows)
    assert len(basis) == r
    return basis, 1


def hnf_rows(gen_rows) -> list[list[int]]:
    """Row echelon basis of the lattice spanned by the integer rows gen_rows,
    with positive pivots (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4).  Entries above the pivots are reduced from the last pivot
    up, which can undo reductions further right: this is not the canonical
    Hermite normal form, but the H4 member basis is this form.
    """
    pool = [list(map(int, r)) for r in gen_rows if any(r)]
    if not pool:
        return []
    ncols = len(pool[0])
    basis: list[list[int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        sel = [r for r in pool if r[col] != 0]
        rest = [r for r in pool if r[col] == 0]
        if not sel:
            pool = rest
            continue
        # gcd-reduce the selected rows down to a single pivot row
        while len(sel) > 1:
            sel.sort(key=lambda r: abs(r[col]))
            piv = sel[0]
            keep = [piv]
            for r in sel[1:]:
                q = r[col] // piv[col]
                nr = [x - q * y for x, y in zip(r, piv)]
                if nr[col] != 0:
                    keep.append(nr)
                elif any(nr):
                    rest.append(nr)
            sel = keep
        piv = sel[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        pivots.append(col)
        pool = rest
    # reduce entries above the pivots, from the last pivot up
    for i in range(len(basis) - 1, -1, -1):
        col = pivots[i]
        for j in range(i):
            q = basis[j][col] // basis[i][col]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    return basis


# -- membership --------------------------------------------------------

_NON_MEMBER_REASONS = {
    "unrestricted": "non-integer coefficients",
    "even-sum": "coefficients not integers of even sum",
    "all-int-or-all-half": "coefficients neither all integer nor all half-integer",
    "h4-parity": "coordinates not half golden integers in an allowed mod-2 class",
}


def membership(qlm: QLModule, v: ExactVector) -> MembershipResult:
    """Exact membership with frame coefficients on success: v is a member
    exactly when its member-basis coefficients are integers."""
    try:
        numerators, den = qlm._basis_numerators(v)
    except DomainError as exc:
        return MembershipResult(False, reason=str(exc))
    if any(x % den for x in numerators):
        return MembershipResult(False, reason=_NON_MEMBER_REASONS[qlm.constraint])
    return MembershipResult(True, qlm._frame_values(numerators, den))


def random_member(qlm: QLModule, rng, bound: int = 6) -> ExactVector:
    coeffs = [rng.randint(-bound, bound) for _ in range(qlm.rank)]
    return qlm.from_basis_coefficients(coeffs)


# -- the 16 allowed H4 residues ----------------------------------------

@lru_cache(maxsize=1)
def enumerate_h4_residues() -> frozenset[H4Residue]:
    """The mod-2 classes of the frame coefficients of H4 members: the F2
    row space of the member basis's frame coefficients."""
    span = {(0,) * 8}
    for row in ql("H4").member_basis_coeffs:
        span |= {tuple((a + b) % 2 for a, b in zip(s, row)) for s in span}
    return frozenset(H4Residue(s[:4], s[4:]) for s in span)


def h4_residue_of(v: ExactVector) -> H4Residue:
    qlm = ql("H4")
    coeffs = qlm.frame_coefficients(v)
    if any(c.denominator != 1 for c in coeffs):
        raise DomainError("vector is not half golden integral")
    return H4Residue(
        tuple(coeffs[i].numerator % 2 for i in range(4)),
        tuple(coeffs[i].numerator % 2 for i in range(4, 8)),
    )


def residue_representative(r: H4Residue) -> ExactVector:
    half = QuadraticRingElement(1, 0, 5, 2)
    t = tau()
    return ExactVector(
        tuple((QuadraticRingElement(r.m[i]) + t * r.n[i]) * half for i in range(4))
    )


def residue_is_golden_multiple_of_root(r: H4Residue) -> bool:
    """Check the canonical representative is (golden integer) * (H4 root)."""
    if r not in enumerate_h4_residues():
        raise DomainError("residue class is not allowed")
    rep = residue_representative(r)
    # the roots have norm 1, so rep = g * root forces g = <rep, root>
    for root in roots(H4):
        g = rep.dot(root)
        if g.is_ring_integer() and root.scale(g) == rep:
            return True
    return False


# -- discrete scale invariance -----------------------------------------

def _scale_period(qlm: QLModule, factor: QuadraticRingElement) -> Optional[int]:
    """The least p >= 1 for which multiplication by factor**p keeps the
    module, or None when no power does (the factor is no ring integer).

    A unit acts on the rank-2d module with determinant +-1, so a power that
    maps the member basis into the module maps it onto the module, and the
    powers that keep the module are the multiples of p.
    """
    radicand(qlm.kappa, True, factor.kappa, factor.q != 0)
    if abs(factor.norm()) != 1:
        raise DomainError("scale factor must be a unit (|norm| = 1)")
    if not factor.is_ring_integer():
        return None
    eta, period = factor, 1
    while not all(membership(qlm, b.scale(eta)).member for b in qlm.member_basis):
        eta, period = eta * factor, period + 1
    return period


def scale_classification(qlm: QLModule, factor: QuadraticRingElement,
                         power: int = 1) -> ScaleClassification:
    """Classify multiplication by factor**power on the module."""
    period = _scale_period(qlm, factor)
    if power == 0 or (period and power % period == 0):
        return ScaleClassification("invariant", index=1)
    return ScaleClassification("not-closed")


@dataclass(frozen=True)
class Table1Row:
    ql: str
    expected_factor: str
    derived_factor: tuple[int, int, int]
    minimal_power: Optional[int]
    expected_power: int
    ok: bool


@dataclass(frozen=True)
class Table1Report:
    rows: tuple[Table1Row, ...]

    @property
    def passed(self) -> int:
        return sum(r.ok for r in self.rows)

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def all_ok(self) -> bool:
        return self.passed == self.total

    def summary(self) -> str:
        return f"{self.passed}/{self.total}"


_IRRATIONAL_TEXT = {5: "tau", 2: "sqrt(2)", 3: "sqrt(3)"}


def _factor_text(u: QuadraticRingElement, power: int) -> str:
    """u**power as the CLI writes it, with t spelled out."""
    return format_element(u ** power).replace("t", _IRRATIONAL_TEXT[u.kappa])


def verify_table1() -> Table1Report:
    """Re-derive every scale-factor table row from the Pell-equation
    fundamental unit."""
    rows = []
    for name in QL_NAMES:
        qlm, expected_power = ql(name), _QUASILATTICES[name].least_power
        u = fundamental_unit(qlm.kappa).unit
        minimal = _scale_period(qlm, u)
        ok = minimal == expected_power
        rows.append(Table1Row(
            ql=name,
            expected_factor=_factor_text(u, expected_power),
            derived_factor=u.to_triple(),
            minimal_power=minimal,
            expected_power=expected_power,
            ok=ok,
        ))
    return Table1Report(tuple(rows))


# -- root containment ---------------------------------------------------

def contains_root_copy(qlm: QLModule) -> bool:
    """True iff some golden-scaled copy of the root system lies in the QL."""
    rs = roots(qlm.system)

    def all_roots_member(c) -> bool:
        return all(membership(qlm, r.scale(c)).member for r in rs)

    one = QuadraticRingElement(1, 0, qlm.kappa)
    if all_roots_member(one):
        return True
    # otherwise try scaling by twice a member coordinate
    for b in qlm.member_basis:
        for w in b.coords:
            if w and all_roots_member(w * 2):
                return True
    return False
