from fractions import Fraction

import pytest

from drazinlab import GaussianRational, ParseError
from drazinlab.jsonio import _parse_ratio


def test_canonical_form():
    assert GaussianRational(Fraction(2, 4)).re == Fraction(1, 2)
    assert GaussianRational(Fraction(3, -6)).re == Fraction(-1, 2)
    assert GaussianRational(Fraction(3, -6)).re.denominator == 2


def test_equality_is_structural():
    assert GaussianRational(1, 2) == GaussianRational(Fraction(2, 2), Fraction(4, 2))
    assert GaussianRational(1) == 1
    assert GaussianRational(Fraction(-1, 2)) == Fraction(-1, 2)
    assert GaussianRational(0, 1) != 0
    assert GaussianRational(1) != "1"
    assert hash(GaussianRational(1, 2)) == hash(GaussianRational(1, 2))


def test_real_value_hashes_like_its_real_part():
    # equal values must hash alike, or a set holds 1 and GaussianRational(1) twice
    assert len({1, GaussianRational(1)}) == 1
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_scalar_is_a_value_without_arithmetic():
    z = GaussianRational(1, 2)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "conjugate", "norm_sq"):
        assert not hasattr(z, op)
    with pytest.raises(TypeError):
        z + 1
    with pytest.raises(TypeError):
        2 * z


def test_str_forms():
    assert str(GaussianRational(Fraction(-3, 2))) == "-3/2"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(1, -1)) == "1-i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(5, 3))) == "1/2+5/3i"


def test_parse_rational_accepts():
    assert _parse_ratio("4") == (4, 1)
    assert _parse_ratio("-3/2") == (-3, 2)
    assert _parse_ratio("+7") == (7, 1)
    assert _parse_ratio("0") == (0, 1)
    assert _parse_ratio("004/006") == (4, 6)  # validated, not reduced


# int() reads a trailing newline and non-ASCII digits, so the validator must
# reject them itself: otherwise "1/0\n" and Arabic-Indic "1/0" reach a zero
# denominator.
@pytest.mark.parametrize(
    "bad",
    ["1/0", "3/00", "1.5", "", "3/ 2", "a", "1/-2", "--3", "1e3", "2/3/4", None, 4,
     "1/0\n", "4\n", "\u0661/\u0660", "\u0664"],
)
def test_parse_rational_rejects(bad):
    for _ in range(2):  # a failure is not cached: the second call rejects too
        with pytest.raises(ParseError):
            _parse_ratio(bad)


def test_parse_rational_messages():
    for _ in range(2):
        with pytest.raises(ParseError, match="zero denominator"):
            _parse_ratio("1/" + "0" * 5000)
        with pytest.raises(ParseError, match="too long"):
            _parse_ratio("1" * 5000)
        with pytest.raises(ParseError, match="malformed"):
            _parse_ratio("1/0 ")
