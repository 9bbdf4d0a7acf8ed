import hashlib
import json
from dataclasses import replace
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
from drazinlab.jsonio import _parse_ratio
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


def _outcome_obj_reference(outcome):
    """The outcome object with every field encoded on its own."""
    return {
        "beta": jsonio.matrix_to_obj(outcome.beta),
        "beta_drazin": jsonio.drazin_to_obj(outcome.beta_drazin),
        "direct": jsonio.drazin_to_obj(outcome.direct),
        "agrees": outcome.agrees,
        "alpha_index": outcome.alpha_index,
        "beta_index": outcome.beta_index,
    }


@pytest.mark.parametrize("differing", [None, "dinv", "index", "spectral_idempotent"])
def test_outcome_obj_encodes_equal_drazin_data_once(differing):
    """Equal beta_drazin and direct data share one encoded object; data
    that differ in any one field are encoded apart. Either way the text is
    that of the outcome encoded field by field."""
    (q,) = gen_family(GeneratorSpec("zero_padded_nilpotent", 3, seed=1, count=1))
    outcome = transfer_drazin(q)
    assert outcome.beta_drazin == outcome.direct
    assert outcome.direct.index >= 1 and not outcome.direct.spectral_idempotent.is_zero()
    if differing is not None:
        value = getattr(outcome.direct, differing)
        changed = value + 1 if differing == "index" else value.scale(2)
        outcome = replace(outcome, beta_drazin=replace(outcome.direct, **{differing: changed}))
    obj = jsonio.outcome_to_obj(outcome)
    assert (obj["beta_drazin"] is obj["direct"]) == (differing is None)
    expected = _outcome_obj_reference(outcome)
    assert jsonio.dumps(obj) == jsonio.dumps(expected) == stdlib_dumps(obj)
    assert jsonio.dumps_pretty(obj) == jsonio.dumps_pretty(expected)


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
# for the benchmark's five families at every size from 2 to MAX_SIZE: sizes 7
# and 8 are the ones the benchmark's digests do not reach, and sizes 2 to 6
# pin each family's random stream without running the benchmark.
GEN_SHA256 = {
    ("classic", 2): "98274f595265884074ddc5b458fca9ceb7010e3ece73d0b024123edf3ef05f7f",
    ("strong", 2): "48a143f6d3749194d1dfc0f94d30e47c389c1591ee95addf6d0cfad2ef760a1c",
    ("triple_lift", 2): "c21ff2c018d2019b558cde145b722a0cf828aae138b33f17419de9f4de2d8dec",
    ("zero_padded_nilpotent", 2): "f99dbff93259946feaffdd3e5970462cd92cf035724818cb4f955d7f913afc9f",
    ("block_diagonal_mix", 2): "366fa5ba4518ea0070dbf625be28247520562ea477389b332e572eafe3c24c66",
    ("classic", 3): "6233d7caaaa923ade6281974f84ca1407e67a4b5c4335f8b8c1091b79dead0df",
    ("strong", 3): "93cf80ed6e2e90883bf173de28c64bed949809282c26e0449f28cdb229dd6a21",
    ("triple_lift", 3): "e9d0cba78ac6c57d2cde5c21efae1fad16a8d5749165430a67ac880cdb97d032",
    ("zero_padded_nilpotent", 3): "12c9e3e802b93bc79332f15f25710d259773441ac7ac671ce7fa4eb4efaa6d04",
    ("block_diagonal_mix", 3): "fd79d338b16ca9991f7affcc722a8ba9eea6c7898d98568d62264ab813ba6899",
    ("classic", 4): "9609938cedbcc381420b3595fed153c29bd54bfe9750c731177e55e40362a46e",
    ("strong", 4): "4ca7af233d2f054736c2ee001441b0fbb603d9d873f6ae763f45e7a6e9752de1",
    ("triple_lift", 4): "4c7692754198c9a0ea676ffce044a8ea912f2e17f6850758425eb0fb0bc48962",
    ("zero_padded_nilpotent", 4): "eaa543c1bab3c0e4e32d24914296c9a193476859f273d1ea91faa317f8e76411",
    ("block_diagonal_mix", 4): "78fd6fcfa968c4b726810fac6a12e2c0b0172cf2a7134cd93adfe88c58d3e51a",
    ("classic", 5): "2a27558f1260662930bd424d0d9e8b5ee6938f1db113546b04c13062683e15e9",
    ("strong", 5): "e6684aed524a9a554638e737d805fed1703054b79e336974da0375973fa6f241",
    ("triple_lift", 5): "f36f3d0d95e4794c2a9ce0bae9165083d54bbf77a9d68bd64074e17dd465ed09",
    ("zero_padded_nilpotent", 5): "b4309172bebe8e83d1ad653ec3c4ec63ca0ea098e96831f966dcc37d44576471",
    ("block_diagonal_mix", 5): "5ecec2220fb65ee0bbca9c63d5d76ab1d2371680fe91931d97f65e9a618a64d2",
    ("classic", 6): "9ae1c7bb329096cd456a1975a693fd2eccfc31860afe7eb77a7f9dbbf2e3aee2",
    ("strong", 6): "067d32eee3834fa58b99470390c47e397596504eb9287beedcb9f34f23509a1b",
    ("triple_lift", 6): "9b638e72f56c8a789322992eb6b301f29258ddf8867debcfc0b1f80803361e59",
    ("zero_padded_nilpotent", 6): "2ba213e8467a3c5974ed1ac134e4d399b32ed1f70011c2437a6c531b02abeba8",
    ("block_diagonal_mix", 6): "454a513f38182835a976431c323349c343feeb4b01b607a713aa0e17e00a4c8d",
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
    """The recorded bytes of every family and size in GEN_SHA256."""
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
