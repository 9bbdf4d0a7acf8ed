import json

import pytest

from drazinlab import Matrix, jsonio
from drazinlab.cli import main
from drazinlab.generators import counterexample_instance
from drazinlab.transfer import power_instance
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
    assert main(["drazin", "--input", str(tmp_path / "missing.json")]) == 2
    nonsquare = write_matrix(tmp_path / "ns.json", Matrix.zeros(2, 3))
    assert main(["drazin", "--input", nonsquare]) == 2


def test_drazin_command_overlong_rational(tmp_path, capsys):
    # more digits than int() converts by default: bad input, not a traceback
    bad = tmp_path / "long.json"
    bad.write_text('{"rows": 1, "cols": 1, "entries": [[["' + "7" * 5000 + '", "0"]]]}')
    assert main(["drazin", "--input", str(bad)]) == 2
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


def test_verify_command_counterexample(capsys):
    assert main(["verify", "--family", "counterexample"]) == 0
    captured = capsys.readouterr().out
    report = json.loads(captured.splitlines()[0])
    assert report["index_pairs"] == [[0, 0]]
    assert report["passed"] == 1
    assert "index pairs" in captured


def test_verify_command_classic(capsys):
    assert main(["verify", "--family", "classic", "--size", "3", "--count", "5", "--seed", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] == 5 and report["failures"] == []


def test_verify_command_bad_count(capsys):
    assert main(["verify", "--family", "classic", "--count", "0"]) == 2


def test_unknown_family_is_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "--family", "nope"])
    assert exc_info.value.code == 2
