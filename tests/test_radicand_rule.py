"""The radicand rule at every entry point: values over different radicands
never mix, a rational value fits any radicand, and a result takes the
radicand of its irrational operand, or the first operand's when neither is
irrational (qlat.ring.radicand)."""

from itertools import product

import pytest

from qlat.groups import GroupElement, ReflectionGroup, orbit
from qlat.modules import membership, ql, scale_classification
from qlat.quaternions import GoldenQuaternion, qmul
from qlat.ring import DomainError, QuadraticRingElement, radicand
from qlat.vectors import ExactVector

#: a two-dimensional quasilattice over each radicand
MODULES = {5: "I2-5", 2: "I2-8", 3: "I2-12"}

#: ordered radicand pairs (first operand, second operand)
PAIRS = ((5, 2), (2, 5), (2, 3), (3, 2), (5, 3), (3, 5))


def _number(kappa, irrational):
    """1 + sqrt(kappa), or the rational 1 over sqrt(kappa)."""
    return QuadraticRingElement(1, int(irrational), kappa)


def _vector(kappa, irrational):
    return ExactVector((_number(kappa, irrational), QuadraticRingElement(2, 0, kappa)))


def _matrix(kappa, irrational):
    return GroupElement([[_number(kappa, irrational), 0], [0, 1]])


def _orbit(a, b):
    m = _matrix(*a)
    (image,) = orbit(ReflectionGroup(None, m.numerators[None], m.kappa), _vector(*b))
    return image.kappa


def _quaternion(kappa, irrational):
    return GoldenQuaternion(_number(kappa, irrational), 1, 0, 0)


def _membership(a, b):
    """The module's radicand, once the verdict on a rational vector is the
    one on the same integer form over the module's radicand."""
    qlm, v = ql(MODULES[a[0]]), _vector(*b)
    result = membership(qlm, v)
    if result.reason and result.reason.startswith("mixed"):
        raise DomainError(result.reason)
    assert result == membership(qlm, ExactVector.from_numerators(v.form, v.den, qlm.kappa))
    return qlm.kappa


def _scale_classification(a, b):
    qlm = ql(MODULES[a[0]])
    result = scale_classification(qlm, _number(*b))
    assert result == scale_classification(qlm, _number(qlm.kappa, False))
    return qlm.kappa


# entry point -> (function of the two operands (kappa, irrational) returning
# the result's radicand, whether the first operand may be rational)
ENTRY_POINTS = {
    "radicand": (lambda a, b: radicand(*a, *b), True),
    "QRE +": (lambda a, b: (_number(*a) + _number(*b)).kappa, True),
    "QRE *": (lambda a, b: (_number(*a) * _number(*b)).kappa, True),
    "ExactVector(cells)": (lambda a, b: ExactVector((_number(*a), _number(*b))).kappa, True),
    "ExactVector +": (lambda a, b: (_vector(*a) + _vector(*b)).kappa, True),
    "ExactVector.scale": (lambda a, b: _vector(*a).scale(_number(*b)).kappa, True),
    "GroupElement @": (lambda a, b: (_matrix(*a) @ _matrix(*b)).kappa, True),
    "GroupElement.from_columns": (
        lambda a, b: GroupElement.from_columns((_vector(*a), _vector(*b))).kappa, True),
    "GroupElement.apply": (lambda a, b: _matrix(*a).apply(_vector(*b)).kappa, True),
    "orbit": (_orbit, True),
    "qmul": (lambda a, b: qmul(_quaternion(*a), _quaternion(*b)).kappa, True),
    # a module's points are irrational
    "membership": (_membership, False),
    "scale_classification": (_scale_classification, False),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_radicand_rule(entry):
    fn, rational_first = ENTRY_POINTS[entry]
    for (ka, kb), (ia, ib) in product(PAIRS, product((False, True), repeat=2)):
        if not (ia or rational_first):
            continue
        a, b = (ka, ia), (kb, ib)
        if ia and ib:
            with pytest.raises(DomainError) as exc:
                fn(a, b)
            assert str(exc.value) == f"mixed radicands: sqrt({ka}) vs sqrt({kb})"
        else:
            assert fn(a, b) == (kb if ib else ka), (a, b)
