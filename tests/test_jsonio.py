from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drazinlab import GaussianRational, Matrix, ParseError, Quadruple
from drazinlab import jsonio
from drazinlab.generators import MAX_SIZE, GeneratorSpec, counterexample_instance, gen_family
from util import DIMS, as_matrix, grids, matrix_obj_reference


def test_matrix_roundtrip_bit_exact():
    m = as_matrix(
        [
            [GaussianRational(Fraction(-3, 2), 1), GaussianRational(0, Fraction(1, 7))],
            [GaussianRational(4), GaussianRational(0)],
        ]
    )
    text = jsonio.dumps(jsonio.matrix_to_obj(m))
    back = jsonio.matrix_from_obj(jsonio.loads(text))
    assert back == m
    assert jsonio.dumps(jsonio.matrix_to_obj(back)) == text


def test_matrix_obj_shape():
    obj = jsonio.matrix_to_obj(Matrix.identity(2))
    assert obj == {
        "rows": 2,
        "cols": 2,
        "entries": [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
    }


def test_matrix_entry_text():
    m = Matrix(1, 3, [Fraction(-3, 2), GaussianRational(0, Fraction(4, 6)), 7])
    assert jsonio.matrix_to_obj(m)["entries"] == [[["-3/2", "0"], ["0", "2/3"], ["7", "0"]]]


def test_scalar_pair_from_strings():
    obj = {"rows": 1, "cols": 1, "entries": [[["-3/2", "4"]]]}
    assert jsonio.matrix_from_obj(obj).entry(0, 0) == GaussianRational(Fraction(-3, 2), 4)
    obj["entries"][0][0] = ["1/0", "0"]
    with pytest.raises(ParseError, match="zero denominator"):
        jsonio.matrix_from_obj(obj)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.pop("rows"),
        lambda o: o.update(rows=0),
        lambda o: o.update(rows="2"),
        lambda o: o.update(entries=o["entries"][:1]),
        lambda o: o["entries"][0].pop(),
        lambda o: o["entries"][0].__setitem__(0, ["1"]),
        lambda o: o["entries"][0].__setitem__(0, ["1/0", "0"]),
        lambda o: o["entries"][0].__setitem__(0, ["1.5", "0"]),
        lambda o: o["entries"][0].__setitem__(0, [1, 0]),
    ],
)
def test_matrix_malformed_rejected(mutate):
    obj = jsonio.matrix_to_obj(Matrix.identity(2))
    mutate(obj)
    with pytest.raises(ParseError):
        jsonio.matrix_from_obj(obj)


@pytest.mark.parametrize("dim", ["rows", "cols"])
def test_matrix_bool_dimension_rejected(dim):
    # JSON true is a Python bool, which is an int equal to 1
    obj = jsonio.matrix_to_obj(Matrix.identity(1))
    obj[dim] = True
    with pytest.raises(ParseError):
        jsonio.matrix_from_obj(obj)


def test_matrix_from_non_object():
    with pytest.raises(ParseError):
        jsonio.matrix_from_obj([1, 2])
    with pytest.raises(ParseError):
        jsonio.loads("{not json")


def test_quadruple_roundtrip_and_triple_lift():
    q = counterexample_instance()
    obj = jsonio.quadruple_to_obj(q)
    assert jsonio.quadruple_from_obj(obj) == q
    del obj["d"]
    lifted = jsonio.quadruple_from_obj(obj)
    assert lifted.d == lifted.a == q.a


def test_quadruple_missing_matrix():
    obj = jsonio.quadruple_to_obj(counterexample_instance())
    del obj["b"]
    with pytest.raises(ParseError, match="missing matrices: b"):
        jsonio.quadruple_from_obj(obj)


def test_corpus_roundtrip():
    spec = GeneratorSpec("classic", 3, seed=5, count=4)
    quads = gen_family(spec)
    obj = jsonio.corpus_to_obj(spec.to_dict(), quads)
    fields, back = jsonio.corpus_from_obj(obj)
    assert back == quads
    assert fields["family"] == "classic"
    with pytest.raises(ParseError):
        jsonio.corpus_from_obj({"version": 2, "instances": []})
    with pytest.raises(ParseError):
        jsonio.corpus_from_obj({"version": 1})
    for spec in (5, None, [1], "ab"):
        with pytest.raises(ParseError, match="spec"):
            jsonio.corpus_from_obj({"version": 1, "instances": [], "spec": spec})


def test_dumps_is_deterministic():
    obj = {"b": 1, "a": [3, 2]}
    assert jsonio.dumps(obj) == '{"a":[3,2],"b":1}'


def test_matrix_larger_than_max_size_rejected():
    obj = jsonio.matrix_to_obj(Matrix.zeros(1, MAX_SIZE + 1))
    with pytest.raises(ParseError):
        jsonio.matrix_from_obj(obj)
    assert jsonio.matrix_from_obj(jsonio.matrix_to_obj(Matrix.zeros(MAX_SIZE, 1))).is_zero()


@settings(max_examples=40, deadline=None)
@given(grids(), st.integers(2, 7))
def test_matrix_json_round_trip_property(rows, k):
    """Each matrix, and a copy over a non-unit denominator, decodes back
    twice: the second decode reads every string from the parse cache."""
    for m in (as_matrix(rows), as_matrix(rows).scale(GaussianRational(Fraction(1, k), 1))):
        text = jsonio.dumps(jsonio.matrix_to_obj(m))
        assert jsonio.matrix_from_obj(jsonio.loads(text)) == m
        assert jsonio.matrix_from_obj(jsonio.loads(text)) == m


NON_STRINGS = st.one_of(
    st.lists(st.text(max_size=3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.integers(),
    st.floats(),
    st.none(),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(NON_STRINGS, st.integers(0, 1))
def test_non_string_cell_part_rejected_property(part, side):
    cell = ["1/2", "0"]
    cell[side] = part
    obj = {"rows": 1, "cols": 1, "entries": [[cell]]}
    for _ in range(2):
        with pytest.raises(ParseError, match="malformed rational"):
            jsonio.matrix_from_obj(obj)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_quadruple_json_round_trip_property(data):
    n = data.draw(DIMS)
    q = Quadruple(*(as_matrix(data.draw(grids(n, n))) for _ in range(4)))
    text = jsonio.dumps(jsonio.quadruple_to_obj(q))
    assert jsonio.quadruple_from_obj(jsonio.loads(text)) == q


@settings(max_examples=60, deadline=None)
@given(grids())
def test_matrix_to_obj_matches_fraction_reference_property(rows):
    m = as_matrix(rows)
    obj = jsonio.matrix_to_obj(m)
    assert obj == matrix_obj_reference(rows)
    assert jsonio.matrix_from_obj(obj) == m


@st.composite
def spellings(draw, x: Fraction):
    """Some string that parses to x: scaled terms, leading zeros, a '+'
    sign, '-0', a '/1' denominator."""
    k = draw(st.integers(1, 3))
    num, den = abs(x.numerator) * k, x.denominator * k
    zeros = "0" * draw(st.integers(0, 2))
    sign = "-" if x < 0 else draw(st.sampled_from(("", "+", "-" if not x else "")))
    text = f"{sign}{zeros}{num}"
    if den != 1 or draw(st.booleans()):
        text += f"/{zeros}{den}"
    return text


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_non_canonical_strings_decode_to_the_same_matrix_property(data):
    rows = data.draw(grids())
    obj = matrix_obj_reference(rows)
    obj["entries"] = [
        [[data.draw(spellings(e.re)), data.draw(spellings(e.im))] for e in row] for row in rows
    ]
    assert jsonio.matrix_from_obj(obj) == as_matrix(rows)


def test_non_canonical_strings_examples():
    canonical = {"rows": 1, "cols": 3, "entries": [[["2/3", "7"], ["7", "0"], ["0", "-1"]]]}
    spelled = {"rows": 1, "cols": 3, "entries": [[["004/006", "+7"], ["+7", "-0"], ["-0", "-2/2"]]]}
    assert jsonio.matrix_from_obj(spelled) == jsonio.matrix_from_obj(canonical)
    assert jsonio.matrix_to_obj(jsonio.matrix_from_obj(spelled)) == canonical
