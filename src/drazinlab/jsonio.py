"""The shared JSON encodings for matrices, quadruples, and corpora.

A matrix is `{"rows": n, "cols": m, "entries": [[["re","im"], ...], ...]}`
with each scalar a pair of rational strings ("-3/2", integers as "4").
The codec works on the matrix's integer grids: encoding writes each
entry (v / den) in lowest terms with `_ratio_text`, the text
`str(Fraction)` would give, and decoding validates each string with
`_parse_ratio` and builds the grids from the integer parts in one step.
This pair is the only code that knows the rational text format. No
per-entry `Fraction` or `GaussianRational` is made on either side.
Decoding memoizes each distinct `[re, im]` cell (`_cell_parts`), so a
corpus's repeated cells are parsed once per process; a cell with an
unhashable part misses the memo and goes to `_parse_ratio` for its
ParseError.
A quadruple is `{"a": .., "b": .., "c": .., "d": ..}`; when "d" is absent
the loader lifts the triple by setting d := a.

An outcome's transferred "beta_drazin" data equal its "direct" data
whenever the formula agrees: "direct" is then the formula's certified
value with beta's index and idempotent. When they are equal (value
equality, whatever "agrees" says), `outcome_to_obj` encodes "direct"
once and puts that one object under both keys: the text is that of two
equal copies, the tree still holds no cycle, and editing the returned
object in place edits both entries.

A matrix side over `matrices.MAX_SIZE` is refused: exact elimination
has no cost bound, so the input size bounds a command's run time.

Encoding is deterministic (sorted keys, fixed separators) so that equal
values serialize byte-for-byte equal. `dumps` uses one encoder, built at
import, without the stdlib's cycle check (an id-dict insert and delete
for every list and dict, about 40% of the encoding time). That is safe
because `dumps` only ever encodes trees that the `*_to_obj` functions
have just built or that `loads` returned, and neither can hold a cycle.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from math import gcd
from typing import Any

from .drazin import DrazinData
from .errors import ParseError
from .matrices import MAX_SIZE, Matrix
from .transfer import ConditionReport, Quadruple, TransferOutcome


# ASCII digits only: `\d` would also admit other scripts' digits, which int()
# reads but the zero-denominator test below does not recognise as zeros.
_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


def _parse_ratio(text: str) -> tuple[int, int]:
    """(num, den) of a rational string like '-3/2' or '4', with den > 0 and
    the pair not reduced; reject anything else.

    The one validator of rational strings, the reader of the text that
    `_ratio_text` writes: the decoder reads through it, and memoizes whole
    cells (`_cell_parts`).
    """
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ParseError(f"malformed rational {text!r} (expected 'p' or 'p/q')")
    num, _, den = text.partition("/")
    if den and not den.lstrip("0"):
        raise ParseError(f"zero denominator in {text!r}")
    try:
        return int(num), int(den) if den else 1
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"rational too long ({len(text)} characters): {exc}") from exc


def _ratio_text(v: int, den: int) -> str:
    """v / den in lowest terms as 'p/q', or 'p' when q is 1: the text
    str(Fraction(v, den)) gives, for den > 0."""
    g = gcd(v, den)
    if g == den:
        return str(v // g)
    return f"{v // g}/{den // g}"


def matrix_to_obj(m: Matrix) -> dict[str, Any]:
    den = m.den
    text = str if den == 1 else (lambda v: _ratio_text(v, den))
    if m.im is None:
        entries = [[[text(v), "0"] for v in row] for row in m.re]
    else:
        entries = [
            [[text(v), text(w)] for v, w in zip(row, im_row)] for row, im_row in zip(m.re, m.im)
        ]
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


# A corpus repeats few distinct cells: reading back perfbench's seed-0
# corpus_transfer corpus decodes 18360 cells, 365 of them distinct, so 98%
# of the calls hit even a cold cache. Exceptions are not cached, so a
# malformed cell is rejected anew on every call.
@lru_cache(maxsize=1024)
def _cell_parts(re_text: str, im_text: str) -> tuple[int, int, int]:
    """(re, im, den) of the cell [re_text, im_text] over one denominator,
    with both strings validated by `_parse_ratio`."""
    re_num, re_den = _parse_ratio(re_text)
    im_num, im_den = _parse_ratio(im_text)
    return re_num * im_den, im_num * re_den, re_den * im_den


def matrix_from_obj(obj: Any) -> Matrix:
    if not isinstance(obj, dict):
        raise ParseError("matrix object must be a JSON object")
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"matrix object missing field: {exc}") from exc
    if not all(type(v) is int and v > 0 for v in (rows, cols)):  # bool is an int
        raise ParseError("matrix dimensions must be positive integers")
    if max(rows, cols) > MAX_SIZE:
        raise ParseError(f"matrix is {rows}x{cols}; the largest accepted side is {MAX_SIZE}")
    if not isinstance(entries, list) or len(entries) != rows:
        raise ParseError(f"expected {rows} entry rows")
    parts = []
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"each entry row must list {cols} scalars")
        for cell in row:
            if not isinstance(cell, list) or len(cell) != 2:
                raise ParseError("each scalar must be a [re, im] pair of strings")
            try:
                parts.append(_cell_parts(*cell))
            except TypeError:  # a list or dict part is not hashable
                _parse_ratio(cell[0])
                _parse_ratio(cell[1])
                raise
    return Matrix._from_parts(rows, cols, parts)


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
    direct = drazin_to_obj(outcome.direct)
    if outcome.beta_drazin == outcome.direct:
        beta_drazin = direct
    else:
        beta_drazin = drazin_to_obj(outcome.beta_drazin)
    return {
        "beta": matrix_to_obj(outcome.beta),
        "beta_drazin": beta_drazin,
        "direct": direct,
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
    spec = obj.get("spec", {})
    if not isinstance(spec, dict):
        raise ParseError("corpus spec must be a JSON object")
    return dict(spec), [quadruple_from_obj(it) for it in instances]


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def dumps(obj: Any) -> str:
    """Deterministic JSON text (sorted keys, no whitespace): the text of
    `json.dumps(obj, sort_keys=True, separators=(",", ":"))`. The encoder
    skips the cycle check, so a value that contains itself raises
    RecursionError, not ValueError; no tree this module builds, and none
    `loads` returns, has a cycle."""
    return _encode(obj)


def dumps_pretty(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def loads(text: str) -> Any:
    """json.loads, with every way it refuses text raised as ParseError: a
    syntax error, an integer of more digits than int() converts (a
    ValueError) and nesting deeper than the recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def load_matrix_file(path: str) -> Matrix:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_obj(loads(fh.read()))


def load_quadruple_file(path: str) -> Quadruple:
    with open(path, "r", encoding="utf-8") as fh:
        return quadruple_from_obj(loads(fh.read()))
