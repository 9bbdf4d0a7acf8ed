"""Exact scalars: rational complex numbers a + b*i with arbitrary precision.

`fractions.Fraction` already stores every rational in lowest terms with a
positive denominator, so equality on a pair of fractions is structural and
needs no tolerance anywhere. Values are immutable by convention: no method
mutates, and instances hash by value.

`GaussianRational` is the scalar of the public and JSON boundary: matrix
entries are read and written as these values. Matrix arithmetic itself
runs on integer grids (see matrices.py) and does not use this class.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .errors import ParseError

_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational string like '-3/2' or '4'; reject anything else."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ParseError(f"malformed rational {text!r} (expected 'p' or 'p/q')")
    if "/" in text and text.split("/")[1].lstrip("0") == "":
        raise ParseError(f"zero denominator in {text!r}")
    try:
        return Fraction(text)
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

    @classmethod
    def from_strings(cls, re_text: str, im_text: str) -> "GaussianRational":
        return cls(parse_rational(re_text), parse_rational(im_text))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """|z|^2 = re^2 + im^2, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.norm_sq()
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

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

    def to_pair(self) -> list[str]:
        """Serialize as the ["re", "im"] string pair used by the JSON encoding."""
        return [str(self.re), str(self.im)]


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return NotImplemented
