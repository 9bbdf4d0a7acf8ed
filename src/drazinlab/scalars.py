"""Exact scalars: rational complex numbers a + b*i with arbitrary precision.

`fractions.Fraction` already stores every rational in lowest terms with a
positive denominator, so equality on a pair of fractions is structural and
needs no tolerance anywhere. Values are immutable by convention: no method
mutates, and instances hash by value.

`GaussianRational` is a boundary value, not a number type: matrix entries
are read and written as these values, and it offers equality (also
against `int` and `Fraction`), hashing, truth and printing, but no
arithmetic. All arithmetic runs on the matrices' integer grids (see
matrices.py), and the JSON codec reads and writes those grids directly
(see jsonio.py). Rational strings, which arrive only in JSON (files the
CLI reads included), are validated in one place, `_parse_ratio`.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .errors import ParseError

# ASCII digits only: `\d` would also admit other scripts' digits, which int()
# reads but the zero-denominator test below does not recognise as zeros.
_RATIONAL_RE = _re.compile(r"[+-]?\d+(/\d+)?", _re.ASCII)


def _parse_ratio(text: str) -> tuple[int, int]:
    """(num, den) of a rational string like '-3/2' or '4', with den > 0 and
    the pair not reduced; reject anything else.

    The one validator of rational strings: the JSON decoder reads through
    it, and memoizes whole cells (`jsonio._cell_parts`).
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ParseError(f"malformed rational {text!r} (expected 'p' or 'p/q')")
    num, _, den = text.partition("/")
    if den and not den.lstrip("0"):
        raise ParseError(f"zero denominator in {text!r}")
    try:
        return int(num), int(den) if den else 1
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"rational too long ({len(text)} characters): {exc}") from exc


class GaussianRational:
    """Exact complex scalar with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        self.re = re
        self.im = im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im
        return NotImplemented

    def __hash__(self):
        # a real value equals its real part, so it must hash like it too
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        im = "i" if self.im == 1 else "-i" if self.im == -1 else f"{self.im}i"
        if not self.re:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"

