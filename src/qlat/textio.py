"""Textual and JSON encodings of exact values.

The CLI grammar spells the ring irrationality as ``t`` (the golden ratio
for kappa = 5, sqrt(kappa) otherwise): coordinates look like ``1``,
``-1/2``, ``t/2``, ``(t-1)/2`` or ``1+2t``.  A sum over a denominator needs
its parentheses, and a blank coordinate is refused.  JSON uses the raw
integer triple [p, q, den] over sqrt(kappa).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from .ring import DomainError, QuadraticRingElement
from .vectors import ExactVector

# sum | (sum)/den | term/den | other text/den, which names a zero den first
_SUM = r"[+-]?(?:\d+t?|t)(?:[+-](?:\d+t?|t))*"
_ELEMENT = re.compile(rf"(?P<sum>{_SUM})|(?:\((?P<over>{_SUM})\)|(?P<term>[+-]?(?:\d+t?|t))"
                      r"|\(.+\)|[^/]+)/(?P<den>\d+)")


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
    m = _ELEMENT.fullmatch(tok)
    den = _integer(m["den"]) if m and m["den"] else 1
    if den == 0:
        raise DomainError(f"zero denominator in {text!r}")
    body = m and (m["sum"] or m["over"] or m["term"])
    if not body:
        raise DomainError(f"cannot parse coordinate {text!r}")
    a = b = 0
    for sign, digits, t in re.findall(r"([+-]?)(\d+|(?=t))(t?)", body):
        n = _integer(digits or "1") * (-1 if sign == "-" else 1)
        a, b = (a, b + n) if t else (a + n, b)
    if kappa == 5:
        # (a + b*tau)/den back to the sqrt(5) basis
        return QuadraticRingElement(2 * a + b, b, 5, 2 * den)
    return QuadraticRingElement(a, b, kappa, den)


def parse_exact_vector(text: str, kappa: int = 5) -> ExactVector:
    if not text.replace(",", "").strip():
        raise DomainError("empty vector")
    return ExactVector(parse_element(p, kappa) for p in text.split(","))


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
