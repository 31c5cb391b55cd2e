"""Textual and JSON encodings of exact values.

The CLI grammar spells the ring irrationality as ``t`` (the golden ratio
for kappa = 5, sqrt(kappa) otherwise): coordinates look like ``1``,
``-1/2``, ``t/2``, ``(t-1)/2`` or ``1+2t``.  JSON uses the raw integer
triple [p, q, den] over sqrt(kappa).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .ring import DomainError, QuadraticRingElement, golden_parts
from .vectors import ExactVector

_TERM = re.compile(r"([+-]?)(\d+\s*t|\d+|t)$")


def _basis_parts(c: QuadraticRingElement) -> tuple[Fraction, Fraction]:
    """(rational, t-coefficient) over the display basis {1, t}."""
    if c.kappa == 5:
        return golden_parts(c)
    return c.as_fractions()


def format_element(c: QuadraticRingElement) -> str:
    a, b = _basis_parts(c)
    den = lcm(a.denominator, b.denominator)
    m = int(a * den)
    n = int(b * den)
    if m == 0 and n == 0:
        return "0"
    terms = []
    if m:
        terms.append(str(m))
    if n:
        tpart = "t" if abs(n) == 1 else f"{abs(n)}t"
        if n < 0:
            tpart = "-" + tpart
        elif terms:
            tpart = "+" + tpart
        terms.append(tpart)
    body = "".join(terms)
    if den == 1:
        return body
    if m and n:
        return f"({body})/{den}"
    return f"{body}/{den}"


def parse_element(text: str, kappa: int = 5) -> QuadraticRingElement:
    tok = text.strip().replace(" ", "")
    if not tok:
        raise DomainError("empty coordinate")
    den = 1
    m = re.match(r"^\((.+)\)/(\d+)$", tok)
    if m:
        body, den = m.group(1), int(m.group(2))
    else:
        m = re.match(r"^([^/]+)/(\d+)$", tok)
        if m:
            body, den = m.group(1), int(m.group(2))
        else:
            body = tok
    if den == 0:
        raise DomainError(f"zero denominator in {text!r}")
    a = Fraction(0)
    b = Fraction(0)
    pos = 0
    for part in re.finditer(r"[+-]?[^+-]+", body):
        piece = part.group(0)
        if part.start() != pos or not _TERM.match(piece):
            raise DomainError(f"cannot parse coordinate {text!r}")
        sign = -1 if piece.startswith("-") else 1
        piece = piece.lstrip("+-")
        if piece.endswith("t"):
            digits = piece[:-1].strip()
            b += sign * int(digits or "1")
        else:
            a += sign * int(piece)
        pos = part.end()
    if pos != len(body):
        raise DomainError(f"cannot parse coordinate {text!r}")
    a, b = a / den, b / den
    if kappa == 5:
        # (a + b*tau) back to the sqrt(5) basis
        return QuadraticRingElement.from_fractions(a + b / 2, b / 2, 5)
    return QuadraticRingElement.from_fractions(a, b, kappa)


def parse_exact_vector(text: str, kappa: int = 5) -> ExactVector:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise DomainError("empty vector")
    return ExactVector(parse_element(p, kappa) for p in parts)


def format_vector(v: ExactVector) -> str:
    return ",".join(format_element(c) for c in v.coords)


def element_json(c: QuadraticRingElement) -> list[int]:
    return list(c.to_triple())


def vector_json(v: ExactVector) -> dict:
    return {
        "kappa": v.kappa,
        "exact": [element_json(c) for c in v.coords],
        "floats": [float(f"{float(c):.15g}") for c in v.coords],
    }
