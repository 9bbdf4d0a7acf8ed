"""The shared JSON encodings for matrices, quadruples, and corpora.

A matrix is `{"rows": n, "cols": m, "entries": [[["re","im"], ...], ...]}`
with each scalar a pair of rational strings ("-3/2", integers as "4").
A quadruple is `{"a": .., "b": .., "c": .., "d": ..}`; when "d" is absent
the loader lifts the triple by setting d := a.

Encoding is deterministic (sorted keys, fixed separators) so that equal
values serialize byte-for-byte equal.
"""

from __future__ import annotations

import json
from typing import Any

from .drazin import DrazinData
from .errors import ParseError
from .matrices import Matrix
from .scalars import GaussianRational
from .transfer import ConditionReport, Quadruple, TransferOutcome


def matrix_to_obj(m: Matrix) -> dict[str, Any]:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[e.to_pair() for e in m.row_list(i)] for i in range(m.rows)],
    }


def matrix_from_obj(obj: Any) -> Matrix:
    if not isinstance(obj, dict):
        raise ParseError("matrix object must be a JSON object")
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"matrix object missing field: {exc}") from exc
    if not all(type(v) is int and v > 0 for v in (rows, cols)):  # bool is an int
        raise ParseError("matrix dimensions must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise ParseError(f"expected {rows} entry rows")
    flat = []
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"each entry row must list {cols} scalars")
        for cell in row:
            if not isinstance(cell, list) or len(cell) != 2:
                raise ParseError("each scalar must be a [re, im] pair of strings")
            flat.append(GaussianRational.from_strings(cell[0], cell[1]))
    return Matrix(rows, cols, flat)


def quadruple_to_obj(q: Quadruple) -> dict[str, Any]:
    return {
        "a": matrix_to_obj(q.a),
        "b": matrix_to_obj(q.b),
        "c": matrix_to_obj(q.c),
        "d": matrix_to_obj(q.d),
    }


def quadruple_from_obj(obj: Any) -> Quadruple:
    if not isinstance(obj, dict):
        raise ParseError("quadruple must be a JSON object")
    missing = [k for k in ("a", "b", "c") if k not in obj]
    if missing:
        raise ParseError(f"quadruple missing matrices: {', '.join(missing)}")
    a = matrix_from_obj(obj["a"])
    b = matrix_from_obj(obj["b"])
    c = matrix_from_obj(obj["c"])
    d = matrix_from_obj(obj["d"]) if "d" in obj else a
    return Quadruple(a, b, c, d)


def drazin_to_obj(data: DrazinData) -> dict[str, Any]:
    return {
        "dinv": matrix_to_obj(data.dinv),
        "index": data.index,
        "spectral_idempotent": matrix_to_obj(data.spectral_idempotent),
    }


def outcome_to_obj(outcome: TransferOutcome) -> dict[str, Any]:
    return {
        "beta": matrix_to_obj(outcome.beta),
        "beta_drazin": drazin_to_obj(outcome.beta_drazin),
        "direct": drazin_to_obj(outcome.direct),
        "agrees": outcome.agrees,
        "alpha_index": outcome.alpha_index,
        "beta_index": outcome.beta_index,
    }


def condition_report_to_obj(report: ConditionReport) -> dict[str, Any]:
    return {
        "conditions": [
            {"label": lab, "holds": ok, "residual": matrix_to_obj(res)}
            for lab, ok, res in zip(report.labels, report.holds, report.residuals)
        ],
        "all_hold": report.all_hold,
    }


def corpus_to_obj(spec_fields: dict[str, Any], quads: list[Quadruple]) -> dict[str, Any]:
    return {
        "version": 1,
        "spec": dict(spec_fields),
        "instances": [quadruple_to_obj(q) for q in quads],
    }


def corpus_from_obj(obj: Any) -> tuple[dict[str, Any], list[Quadruple]]:
    if not isinstance(obj, dict) or obj.get("version") != 1:
        raise ParseError("corpus must be a version-1 JSON object")
    instances = obj.get("instances")
    if not isinstance(instances, list):
        raise ParseError("corpus missing its instances array")
    return dict(obj.get("spec", {})), [quadruple_from_obj(it) for it in instances]


def dumps(obj: Any) -> str:
    """Deterministic JSON text (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dumps_pretty(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def load_matrix_file(path: str) -> Matrix:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_obj(loads(fh.read()))


def load_quadruple_file(path: str) -> Quadruple:
    with open(path, "r", encoding="utf-8") as fh:
        return quadruple_from_obj(loads(fh.read()))
