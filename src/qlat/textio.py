"""Textual and JSON encodings of exact values.

The CLI grammar spells the ring irrationality as ``t`` (the golden ratio
for kappa = 5, sqrt(kappa) otherwise): coordinates look like ``1``,
``-1/2``, ``t/2``, ``(t-1)/2`` or ``1+2t``.  JSON uses the raw integer
triple [p, q, den] over sqrt(kappa).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from .ring import DomainError, QuadraticRingElement
from .vectors import ExactVector

_TERM = re.compile(r"([+-]?)(\d+\s*t|\d+|t)$")


def format_element(c: QuadraticRingElement) -> str:
    return format_numerators(c.p, c.q, c.kappa, c.den)


def format_numerators(p: int, q: int, kappa: int, den: int) -> str:
    """(p + q*sqrt(kappa))/den in lowest terms, for any den > 0."""
    # (p + q*sqrt(5))/den = (p - q + 2q*tau)/den over the display basis {1, t}
    m, n = (p - q, 2 * q) if kappa == 5 else (p, q)
    g = gcd(m, n, den)
    m, n, den = m // g, n // g, den // g
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


def _integer(digits: str) -> int:
    """int(digits); over Python's limit on integer strings, a DomainError."""
    try:
        return int(digits)
    except ValueError:
        raise DomainError(
            f"coordinate has an integer of {len(digits)} digits, over the limit "
            f"of {sys.get_int_max_str_digits()}") from None


def format_rational(x: Fraction) -> str:
    """str(x); over Python's limit on integer strings, a DomainError."""
    try:
        return str(x)
    except ValueError:
        raise DomainError(
            f"a result has an integer of more than {sys.get_int_max_str_digits()} "
            "digits, over the limit for integer strings") from None


def parse_element(text: str, kappa: int = 5) -> QuadraticRingElement:
    tok = text.strip().replace(" ", "")
    if not tok:
        raise DomainError("empty coordinate")
    den = 1
    m = re.match(r"^\((.+)\)/(\d+)$", tok)
    if m:
        body, den = m.group(1), _integer(m.group(2))
    else:
        m = re.match(r"^([^/]+)/(\d+)$", tok)
        if m:
            body, den = m.group(1), _integer(m.group(2))
        else:
            body = tok
    if den == 0:
        raise DomainError(f"zero denominator in {text!r}")
    a = b = 0
    pos = 0
    for part in re.finditer(r"[+-]?[^+-]+", body):
        piece = part.group(0)
        if part.start() != pos or not _TERM.match(piece):
            raise DomainError(f"cannot parse coordinate {text!r}")
        sign = -1 if piece.startswith("-") else 1
        piece = piece.lstrip("+-")
        if piece.endswith("t"):
            digits = piece[:-1].strip()
            b += sign * _integer(digits or "1")
        else:
            a += sign * _integer(piece)
        pos = part.end()
    if pos != len(body):
        raise DomainError(f"cannot parse coordinate {text!r}")
    if kappa == 5:
        # (a + b*tau)/den back to the sqrt(5) basis
        return QuadraticRingElement(2 * a + b, b, 5, 2 * den)
    return QuadraticRingElement(a, b, kappa, den)


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
