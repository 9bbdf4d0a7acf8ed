import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drazinlab import GaussianRational, Matrix, ParseError, Quadruple, transfer_drazin
from drazinlab import cli, jsonio
from drazinlab.generators import (
    FAMILIES,
    MAX_SIZE,
    GeneratorSpec,
    counterexample_instance,
    gen_family,
)
from drazinlab.scalars import _parse_ratio
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


def stdlib_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# Keys and strings with non-ASCII, escape-needing (quote, backslash, control)
# and non-BMP characters; integers past 2**64.
JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001f600')))
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**80), 2**80),
        JSON_TEXT,
    ),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_dumps_matches_the_stdlib_property(value):
    assert jsonio.dumps(value) == stdlib_dumps(value)


def test_dumps_matches_the_stdlib_on_corpora_and_outcomes():
    """The corpus object of every family at every size from 2 to MAX_SIZE,
    and the transfer outcome of each of its quadruples."""
    for family in FAMILIES:
        for size in range(2, MAX_SIZE + 1) if family != "counterexample" else (2,):
            spec = GeneratorSpec(family, size, seed=size, count=3)
            quads = gen_family(spec)
            obj = jsonio.corpus_to_obj(spec.to_dict(), quads)
            assert jsonio.dumps(obj) == stdlib_dumps(obj)
            for q in quads:
                obj = jsonio.outcome_to_obj(transfer_drazin(q))
                assert jsonio.dumps(obj) == stdlib_dumps(obj)


def test_dumps_of_a_value_that_contains_itself_raises():
    """`dumps` skips the cycle check, so the recursion limit ends a cycle."""
    items = [1]
    items.append(items)
    fields = {"a": 1}
    fields["b"] = fields
    for value in (items, fields, {"x": [fields]}):
        with pytest.raises(RecursionError):
            jsonio.dumps(value)


# sha256 of the output of `drazinlab gen --family F --size N --count 3 --seed 11`
# for the benchmark's five families at the sizes its digests do not reach.
GEN_SHA256 = {
    ("classic", 7): "2a1bc49083085d1ee3a03040f9dec655c32c49bafb982a37463f2a80a76e61f7",
    ("strong", 7): "844d8864eec4a89da2a73eb362d7d2e0685dd17d8a4eaff5f210371c75a4dc3c",
    ("triple_lift", 7): "c728328813a7dce59af48212daa9b7557d2a6b435b814d759d364ee11be4c52f",
    ("zero_padded_nilpotent", 7): "b97bafb7b58083224d922c4cc5cd572dc5efe717bbe1eb844ad91878ec3bb67b",
    ("block_diagonal_mix", 7): "5b94c094dfefe8b7723a4e99d8b46edbe8f2d49d9423fb84589d09eb0119e970",
    ("classic", 8): "4221ccdd0fc95add6ca76affb3ce4336ccf835470f8558c76e63a56721860da2",
    ("strong", 8): "c419836976946989db1fff745353e4f0fd83aaae8f56d0f96941f8686cfcaa29",
    ("triple_lift", 8): "ef37855881924b3cb701f9e27961ad5d122b7bad368a7da478822e940f178be0",
    ("zero_padded_nilpotent", 8): "be10b0de1bb4c01222eef1d740e5a0d966a951c715e1d5de230219490c66cdfb",
    ("block_diagonal_mix", 8): "6b18aefab1e92197cb69cde2d08760bc378b0172951ae91ce15d2d2763a474a3",
}


@pytest.mark.parametrize("family, size", sorted(GEN_SHA256))
def test_gen_output_bytes_at_sizes_7_and_8(family, size, capsys):
    argv = ["gen", "--family", family, "--size", str(size), "--count", "3", "--seed", "11"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_SHA256[family, size]
    text = out.removesuffix("\n")
    _, quads = jsonio.corpus_from_obj(jsonio.loads(text))
    spec = GeneratorSpec(family, size, seed=11, count=3)
    assert quads == gen_family(spec)
    assert jsonio.dumps(jsonio.corpus_to_obj(spec.to_dict(), quads)) == text


def test_matrix_larger_than_max_size_rejected():
    obj = jsonio.matrix_to_obj(Matrix.zeros(1, MAX_SIZE + 1))
    with pytest.raises(ParseError):
        jsonio.matrix_from_obj(obj)
    assert jsonio.matrix_from_obj(jsonio.matrix_to_obj(Matrix.zeros(MAX_SIZE, 1))).is_zero()


@settings(max_examples=40, deadline=None)
@given(grids(), st.integers(2, 7))
def test_matrix_json_round_trip_property(rows, k):
    """Each matrix, and a copy over a non-unit denominator, decodes back
    twice: the second decode reads every cell from the cell memo."""
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


@pytest.mark.parametrize("bad", ["1/0", "1/00", "1.5", "", " 1", "+-1", "\u0663"])
@pytest.mark.parametrize("side", [0, 1])
def test_cell_memo_rejects_a_malformed_part_every_time(bad, side):
    """A memoized valid cell changes no verdict: a malformed part is refused
    on each of two calls with `_parse_ratio`'s own message."""
    valid = {"rows": 1, "cols": 1, "entries": [[["1/2", "3"]]]}
    assert jsonio.matrix_from_obj(valid) == jsonio.matrix_from_obj(valid)
    with pytest.raises(ParseError) as expected:
        _parse_ratio(bad)
    cell = ["1/2", "3"]
    cell[side] = bad
    obj = {"rows": 1, "cols": 1, "entries": [[cell]]}
    for _ in range(2):
        with pytest.raises(ParseError) as got:
            jsonio.matrix_from_obj(obj)
        assert str(got.value) == str(expected.value)


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
