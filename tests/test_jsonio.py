from fractions import Fraction

import pytest

from drazinlab import GaussianRational, Matrix, ParseError, Quadruple
from drazinlab import jsonio
from drazinlab.generators import GeneratorSpec, counterexample_instance, gen_family
from util import as_matrix


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


def test_dumps_is_deterministic():
    obj = {"b": 1, "a": [3, 2]}
    assert jsonio.dumps(obj) == '{"a":[3,2],"b":1}'
