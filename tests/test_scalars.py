from fractions import Fraction

import pytest

from drazinlab import GaussianRational, ParseError, parse_rational


def test_canonical_form():
    assert GaussianRational(Fraction(2, 4)).re == Fraction(1, 2)
    assert GaussianRational(Fraction(3, -6)).re == Fraction(-1, 2)
    assert GaussianRational(Fraction(3, -6)).re.denominator == 2


def test_equality_is_structural():
    assert GaussianRational(1, 2) == GaussianRational(Fraction(2, 2), Fraction(4, 2))
    assert GaussianRational(1) == 1
    assert GaussianRational(0, 1) != 0
    assert hash(GaussianRational(1, 2)) == hash(GaussianRational(1, 2))


def test_arithmetic_hand_values():
    z = GaussianRational(1, 2)
    w = GaussianRational(3, -1)
    assert z * w == GaussianRational(5, 5)  # (1+2i)(3-i) = 3-i+6i+2 = 5+5i
    assert z + w == GaussianRational(4, 1)
    assert z - w == GaussianRational(-2, 3)
    assert -z == GaussianRational(-1, -2)
    assert z.conjugate() == GaussianRational(1, -2)
    assert z.norm_sq() == Fraction(5)


def test_division_roundtrip():
    z = GaussianRational(Fraction(3, 2), Fraction(-1, 7))
    w = GaussianRational(2, 5)
    assert (z / w) * w == z
    assert GaussianRational(1) / GaussianRational(0, 1) == GaussianRational(0, -1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_int_and_fraction_operands():
    z = GaussianRational(1, 1)
    assert 2 * z == GaussianRational(2, 2)
    assert z + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 1)
    assert 1 - z == GaussianRational(0, -1)
    assert 2 / GaussianRational(1, 1) == GaussianRational(1, -1)


def test_str_forms():
    assert str(GaussianRational(Fraction(-3, 2))) == "-3/2"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(1, -1)) == "1-i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(5, 3))) == "1/2+5/3i"


def test_parse_rational_accepts():
    assert parse_rational("4") == 4
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational("+7") == 7
    assert parse_rational("0") == 0
    assert parse_rational("004/006") == Fraction(2, 3)


# int() reads a trailing newline and non-ASCII digits, so the validator must
# reject them itself: otherwise "1/0\n" and Arabic-Indic "1/0" reach a zero
# denominator.
@pytest.mark.parametrize(
    "bad",
    ["1/0", "3/00", "1.5", "", "3/ 2", "a", "1/-2", "--3", "1e3", "2/3/4", None, 4,
     "1/0\n", "4\n", "\u0661/\u0660", "\u0664"],
)
def test_parse_rational_rejects(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def test_parse_rational_messages():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_rational("1/" + "0" * 5000)
    with pytest.raises(ParseError, match="too long"):
        parse_rational("1" * 5000)
    with pytest.raises(ParseError, match="malformed"):
        parse_rational("1/0 ")
