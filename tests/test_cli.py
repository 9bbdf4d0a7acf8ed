import copy
import json
import random
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drazinlab import GaussianRational, IdentityFalsifiedError, Matrix, Quadruple, jsonio, transfer
from drazinlab import verify as verify_module
from drazinlab.cli import build_parser, main
from drazinlab.generators import GeneratorSpec, MAX_SIZE, counterexample_instance, gen_family
from drazinlab.transfer import MAX_POWER, MAX_POWER_BITS, power_instance
from util import as_matrix


def write_matrix(path, m):
    path.write_text(jsonio.dumps(jsonio.matrix_to_obj(m)))
    return str(path)


def write_quadruple(path, q):
    path.write_text(jsonio.dumps(jsonio.quadruple_to_obj(q)))
    return str(path)


def test_drazin_command_roundtrips(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", Matrix.identity(2))
    assert main(["drazin", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["index"] == 0
    # output JSON must round-trip through the shared encoding bit-exactly
    dinv = jsonio.matrix_from_obj(out["dinv"])
    assert jsonio.dumps(jsonio.matrix_to_obj(dinv)) == jsonio.dumps(out["dinv"])
    assert dinv.is_identity()
    # --pretty indents the same JSON object
    assert main(["drazin", "--input", path, "--pretty"]) == 0
    text = capsys.readouterr().out
    assert "\n  " in text and json.loads(text) == out


def test_drazin_command_nilpotent(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", as_matrix([[0, 1], [0, 0]]))
    assert main(["drazin", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["index"] == 2
    assert jsonio.matrix_from_obj(out["dinv"]).is_zero()


def test_drazin_command_hand_inverse(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", as_matrix([[1, 1], [1, 0]]))
    assert main(["drazin", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert jsonio.matrix_from_obj(out["dinv"]) == as_matrix([[0, 1], [1, -1]])


def test_drazin_command_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 2, "cols": 2, "entries": [[["1/0","0"],["0","0"]],[["0","0"],["1","0"]]]}')
    assert main(["drazin", "--input", str(bad)]) == 2
    # a zero denominator hidden by a trailing newline is still bad input
    bad.write_text('{"rows": 1, "cols": 1, "entries": [[["1/0\\n", "0"]]]}')
    assert main(["drazin", "--input", str(bad)]) == 2
    assert main(["drazin", "--input", str(tmp_path / "missing.json")]) == 2
    nonsquare = write_matrix(tmp_path / "ns.json", Matrix.zeros(2, 3))
    assert main(["drazin", "--input", nonsquare]) == 2


def test_drazin_command_overlong_rational(tmp_path, capsys):
    # more digits than int() converts by default: bad input, not a traceback
    bad = tmp_path / "long.json"
    bad.write_text('{"rows": 1, "cols": 1, "entries": [[["' + "7" * 5000 + '", "0"]]]}')
    assert main(["drazin", "--input", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_drazin_command_result_too_large_to_print(tmp_path, capsys):
    # inputs under the digit limit whose inverse has denominators over it
    big = str(10**2500)
    m = tmp_path / "big.json"
    m.write_text(
        '{"rows": 2, "cols": 2, "entries": [[["%s", "0"], ["1", "0"]], [["1", "0"], ["%s", "0"]]]}'
        % (big, big)
    )
    assert main(["drazin", "--input", str(m)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_drazin_command_oversized_matrix(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", Matrix.identity(MAX_SIZE + 1))
    assert main(["drazin", "--input", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_transfer_command_group_mode(tmp_path, capsys):
    path = write_quadruple(tmp_path / "q.json", counterexample_instance())
    assert main(["transfer", "--input", path, "--mode", "group"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["agrees"] is True
    assert jsonio.matrix_from_obj(out["beta_drazin"]["dinv"]).is_identity()


def test_transfer_command_triple_input(tmp_path, capsys):
    obj = jsonio.quadruple_to_obj(counterexample_instance())
    del obj["d"]
    path = tmp_path / "t.json"
    path.write_text(jsonio.dumps(obj))
    assert main(["transfer", "--input", str(path), "--mode", "gdrazin"]) == 0


def test_transfer_command_rejects_generic(tmp_path, capsys):
    q = counterexample_instance()
    bad = type(q)(q.a, q.b, as_matrix([[1, 0], [0, 1]]), q.d)
    path = write_quadruple(tmp_path / "q.json", bad)
    code = main(["transfer", "--input", path, "--mode", "drazin"])
    assert code == 2


@pytest.mark.parametrize("sides", ["both", "lhs only", "none", "too large"])
def test_falsification_prints_its_witness(tmp_path, capsys, monkeypatch, sides):
    lhs, rhs = as_matrix([[1, 0], [0, 1]]), as_matrix([[Fraction(1, 2), 0], [0, 1]])
    if sides == "lhs only":
        rhs = None
    elif sides == "none":
        lhs = rhs = None
    elif sides == "too large":
        rhs = Matrix.identity(2).scale(10**5000)

    def falsified(*args):
        raise IdentityFalsifiedError("sides differ", lhs=lhs, rhs=rhs)

    monkeypatch.setattr(transfer, "_evaluate_transfer", falsified)
    path = write_quadruple(tmp_path / "q.json", counterexample_instance())
    assert main(["transfer", "--input", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    first, *witness = err.splitlines()
    assert first == "error: falsified: sides differ"
    expected = [m for m in (lhs, rhs) if m is not None]
    if sides == "too large":
        assert witness[1] == "error: witness too large to print"
        expected, witness = expected[:1], witness[:1]
    assert [jsonio.matrix_from_obj(json.loads(line)) for line in witness] == expected


def test_check_conditions_command(tmp_path, capsys):
    path = write_quadruple(tmp_path / "q.json", counterexample_instance())
    assert main(["check-conditions", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_hold"] is True
    assert len(out["conditions"]) == 4
    assert all(c["holds"] for c in out["conditions"])


def test_gen_command_deterministic(tmp_path, capsys):
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    args = ["gen", "--family", "classic", "--size", "3", "--count", "4", "--seed", "9"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    fields, quads = jsonio.corpus_from_obj(json.loads(out1.read_text()))
    assert fields["count"] == 4 and len(quads) == 4
    # without --output the same corpus text goes to stdout
    assert main(args) == 0
    assert capsys.readouterr().out == out1.read_text()


def test_gen_command_unwritable_output(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "c.json"
    assert main(["gen", "--family", "classic", "--output", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not target.exists()


def test_gen_command_bad_flags(capsys):
    assert main(["gen", "--family", "classic", "--size", "3", "--count", "0"]) == 2
    assert main(["gen", "--family", "counterexample", "--size", "3"]) == 2


def test_power_command(tmp_path, capsys):
    q = counterexample_instance()
    path = write_quadruple(tmp_path / "q.json", q)
    assert main(["power", "--input", path, "--n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert jsonio.quadruple_from_obj(out) == power_instance(q, 2)
    assert main(["power", "--input", path, "--n", "0"]) == 2


def test_power_command_refuses_exponent_above_cap(tmp_path, capsys):
    (q,) = gen_family(GeneratorSpec("classic", 3, seed=3, count=1))
    path = write_quadruple(tmp_path / "q.json", q)
    start = time.perf_counter()
    assert main(["power", "--input", path, "--n", str(MAX_POWER + 1)]) == 2
    # refused before any construction, not after minutes of products
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(MAX_POWER) in captured.err


def test_power_command_refuses_long_entries_at_high_exponent(tmp_path, capsys):
    # classic form with 100-digit entries: n = 1000 would run for minutes
    rng = random.Random(5)
    a, b = (Matrix(8, 8, [rng.randrange(-(10**100), 10**100) for _ in range(64)]) for _ in range(2))
    path = write_quadruple(tmp_path / "long.json", Quadruple(a, b, b, a))
    start = time.perf_counter()
    assert main(["power", "--input", path, "--n", "1000"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(MAX_POWER_BITS) in captured.err
    # generated quadruples still go up to MAX_POWER: a 4x4 one, and the 8x8
    # strong one with the longest entries (15 bits, rational c) of its ten
    (small,) = gen_family(GeneratorSpec("strong", 4, seed=3, count=1))
    def entry_bits(q):
        mats = (q.a, q.b, q.c, q.d)
        return max(v.bit_length() for m in mats for r in ((m.den,), *m.re) for v in r)

    large = max(gen_family(GeneratorSpec("strong", MAX_SIZE, seed=0, count=10)), key=entry_bits)
    assert entry_bits(large) == 15 and large.c.den > 1
    for q in (small, large):
        path = write_quadruple(tmp_path / "q.json", q)
        assert main(["power", "--input", path, "--n", str(MAX_POWER)]) == 0
        out = json.loads(capsys.readouterr().out)
        eye = Matrix.identity(q.a.rows)
        assert eye - q.a * jsonio.quadruple_from_obj(out).c == (eye - q.a * q.c) ** MAX_POWER


def test_readme_cli_lines_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("drazinlab ")]
    assert len(lines) == 6
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_verify_command_counterexample(capsys):
    assert main(["verify", "--family", "counterexample"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["index_pairs"] == [[0, 0]]
    assert report["passed"] == 1
    # the human summary goes to stderr, so stdout is the JSON report alone
    assert "index pairs" in captured.err


def test_verify_command_classic(capsys, monkeypatch):
    assert main(["verify", "--family", "classic", "--size", "3", "--count", "5", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] == 5 and report["failures"] == []
    # the summary lists the first 20 failures and counts the rest
    monkeypatch.setattr(verify_module, "in_double_commutant", lambda a, y: False)
    assert main(["verify", "--family", "classic", "--size", "2", "--count", "23", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert len(json.loads(captured.out)["failures"]) == 23
    lines = captured.err.splitlines()
    assert sum(line.startswith("FAIL instance") for line in lines) == 20
    assert lines[-1] == "... and 3 more failures"


def test_verify_command_has_no_json_flag():
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "--family", "counterexample", "--json"])
    assert exc_info.value.code == 2


def test_verify_command_bad_count(capsys):
    assert main(["verify", "--family", "classic", "--count", "0"]) == 2


def test_unknown_family_is_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "--family", "nope"])
    assert exc_info.value.code == 2


# -- hostile input files ---------------------------------------------------------

INPUT_COMMANDS = (["drazin"], ["transfer"], ["check-conditions"], ["power", "--n", "2"])


def run_on_file(command, path):
    return main([command[0], "--input", str(path), *command[1:]])


HOSTILE_FILES = {
    # json.loads raises RecursionError
    "deep_nesting": b"[" * 1000 + b"]" * 1000,
    # reading the file raises UnicodeDecodeError
    "not_utf8": b"\xff\xfe",
    # json.loads raises ValueError: more digits than int() converts
    "overlong_json_integer": b'{"rows": ' + b"1" * 5000 + b', "cols": 1, "entries": []}',
}


@pytest.mark.parametrize("name", sorted(HOSTILE_FILES))
def test_hostile_file_is_bad_input_on_every_command(tmp_path, capsys, name):
    path = tmp_path / "in.json"
    path.write_bytes(HOSTILE_FILES[name])
    for command in INPUT_COMMANDS:
        assert run_on_file(command, path) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


MATRIX_OBJ = jsonio.matrix_to_obj(
    Matrix.from_rows([[Fraction(1, 2), GaussianRational(0, 1)], [3, -1]])
)
QUADRUPLE_OBJ = jsonio.quadruple_to_obj(counterexample_instance())
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.text(max_size=4),
    st.sampled_from(["1/0", "-3/2", "0", "1" * 5000]),
)
SPLICES = st.sampled_from([b"[" * 1000, b"1" * 5000, b"\xff", b"{", b'"']) | st.binary(max_size=8)


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def input_files(draw):
    """Bytes of an input file: random bytes, a matrix or quadruple file with
    a splice of bytes, or one with a JSON value replaced or removed."""
    kind = draw(st.sampled_from(("bytes", "splice", "value")))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    obj = copy.deepcopy(draw(st.sampled_from((MATRIX_OBJ, QUADRUPLE_OBJ))))
    if kind == "splice":
        text = jsonio.dumps(obj).encode()
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        return text[:i] + draw(SPLICES) + text[j:]
    path = draw(st.sampled_from(list(_paths(obj))))
    if not path:
        return jsonio.dumps(draw(JSON_LEAVES)).encode()
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_LEAVES | st.lists(JSON_LEAVES, max_size=3))
    return jsonio.dumps(obj).encode()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(input_files())
def test_any_input_file_ends_in_an_exit_code(tmp_path, capsys, content):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    for command in INPUT_COMMANDS:
        code = run_on_file(command, path)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), command
        if code == 2:
            assert captured.err.startswith("error:"), command
