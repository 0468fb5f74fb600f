"""JSON encoding and decoding for the exact types.

Rationals travel as strings "p/q" (or "p" when q = 1) so nothing is ever
rounded.  Encoders produce plain dict/list trees ready for json.dumps with
sort_keys; decoders validate shape and types and raise only ValueError on
malformed input.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .binforms import BinaryForm


def _decimal(n: int) -> str:
    """str(n) in full.  CPython refuses str() of an int above 4300 digits
    (sys.get_int_max_str_digits), so larger ones are split at a power of ten
    into halves below it.  Only computed values are printed this way; parsing
    keeps the interpreter's limit."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= 10_000:  # at most 3011 digits
        return str(n)
    half = n.bit_length() * 3 // 20  # about half the digits (log10(2) > 0.3)
    hi, lo = divmod(n, 10**half)
    return _decimal(hi) + _decimal(lo).zfill(half)


def encode_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return _decimal(x.numerator)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def decode_rational(s) -> Fraction:
    """A JSON int (not a bool) or a string "p" or "p/q" in decimal digits,
    q nonzero.  Decimals and exponents are refused: Fraction("1e10000000")
    would build a 33-million-bit integer."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise ValueError(f"malformed rational {s!r}")
    return Fraction(s)


def _typed(x, kind: type, what: str):
    """x itself if it is a `kind` (int or list) and not a bool."""
    if not isinstance(x, kind) or isinstance(x, bool):
        raise ValueError(f"{what} must be {kind.__name__}, got {type(x).__name__}")
    return x


def encode_form(f: BinaryForm) -> dict:
    return {"degree": f.degree, "coeffs": [encode_rational(c) for c in f.coeffs]}


def decode_form(d) -> BinaryForm:
    if not isinstance(d, dict) or "degree" not in d or "coeffs" not in d:
        raise ValueError("binary form needs 'degree' and 'coeffs'")
    degree = _typed(d["degree"], int, "form degree")
    coeffs = [decode_rational(c) for c in _typed(d["coeffs"], list, "form coefficients")]
    if len(coeffs) != degree + 1:
        raise ValueError(f"degree {degree} form needs {degree + 1} coefficients")
    return BinaryForm(degree, tuple(coeffs))


def encode_biform(f) -> dict:
    return {
        "bidegree": [f.m, f.n],
        "grid": [[encode_rational(c) for c in row] for row in f.grid],
    }


def encode_matrix(m) -> list:
    return [[encode_rational(c) for c in row] for row in m]


def decode_matrix(d) -> list[list[Fraction]]:
    if not isinstance(d, list) or not d:
        raise ValueError("matrix must be a nonempty list of rows")
    rows = [[decode_rational(c) for c in _typed(row, list, "matrix row")] for row in d]
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("matrix rows must share a length")
    return rows


def encode_pencil(pencil) -> dict:
    return {
        "type": "pencil",
        "P": encode_matrix(pencil.P),
        "Q": encode_matrix(pencil.Q),
    }


def decode_pencil(d):
    from .pencils import SymmetricPencil

    if not isinstance(d, dict) or "P" not in d or "Q" not in d:
        raise ValueError("pencil needs 'P' and 'Q' matrices")
    p = decode_matrix(d["P"])
    q = decode_matrix(d["Q"])
    try:
        return SymmetricPencil(tuple(map(tuple, p)), tuple(map(tuple, q)))
    except ValueError as exc:
        raise ValueError(f"malformed pencil: {exc}") from exc


def encode_family(spec) -> dict:
    return {
        "type": "family",
        "d": list(spec.d),
        "e": list(spec.e),
        "A1": [[encode_form(x) for x in row] for row in spec.A1],
        "A2": [[encode_form(x) for x in row] for row in spec.A2],
    }


def decode_family(d):
    from .families import FamilySpec

    if not isinstance(d, dict) or not {"d", "e", "A1", "A2"} <= set(d):
        raise ValueError("family needs 'd', 'e', 'A1', 'A2'")
    try:
        mats = [
            tuple(tuple(decode_form(x) for x in _typed(row, list, f"{key} row"))
                  for row in _typed(d[key], list, key))
            for key in ("A1", "A2")
        ]
        return FamilySpec(
            tuple(_typed(x, int, "splitting degree") for x in _typed(d["d"], list, "d")),
            tuple(_typed(x, int, "splitting degree") for x in _typed(d["e"], list, "e")),
            mats[0],
            mats[1],
        )
    except ValueError as exc:
        raise ValueError(f"malformed family: {exc}") from exc


def encode_conic(spec) -> dict:
    return {
        "type": "conic-bundle",
        "entries": [[encode_biform(x) for x in row] for row in spec.entries],
    }


def encode_curve(curve) -> dict:
    """Plane quintic against the monomial order of monomials(5)."""
    return {
        "type": "plane-quintic",
        "degree": 5,
        "coeffs": [encode_rational(c) for c in curve.coeffs],
    }


def decode_curve(d):
    from .plane_quintic import PlaneQuintic

    if not isinstance(d, dict) or "coeffs" not in d:
        raise ValueError("plane quintic needs 'coeffs'")
    if d.get("degree", 5) != 5:
        raise ValueError("only degree-5 plane curves are supported")
    coeffs = [decode_rational(c) for c in _typed(d["coeffs"], list, "plane quintic coefficients")]
    if len(coeffs) != 21:
        raise ValueError("plane quintic needs 21 coefficients")
    return PlaneQuintic(tuple(coeffs))


def encode_divisor(div) -> list:
    return [
        {"point": [encode_rational(c) for c in point], "mult": int(mult)}
        for point, mult in div
    ]


def decode_divisor(x) -> list:
    if not isinstance(x, list):
        raise ValueError("divisor must be a list of {point, mult} items")
    out = []
    for item in x:
        if not isinstance(item, dict) or "point" not in item:
            raise ValueError("divisor item needs a 'point'")
        point = tuple(decode_rational(c) for c in _typed(item["point"], list, "divisor point"))
        if len(point) != 3 or all(c == 0 for c in point):
            raise ValueError("divisor points are nonzero projective triples")
        mult = item.get("mult", 1)
        if _typed(mult, int, "divisor multiplicity") < 1:
            raise ValueError("divisor multiplicities are positive integers")
        out.append((point, mult))
    return out


def dumps_canonical(tree) -> str:
    """Stable JSON text: sorted keys, two-space indent, trailing newline."""
    import json

    return json.dumps(tree, sort_keys=True, indent=2) + "\n"
