"""Spans around the library's layer boundaries, for the traced run only.

Each wrapped call records a span: name, start, end, parent span and item.
Spans live in flat in-memory arrays and are written out once, at the end.
Self time is a span's duration minus the part its child spans cover; the
spans of one thread nest, so that part is the sum of the children's
durations.

Counters are taken at the same boundaries. Their bookkeeping runs on a
paused clock, so that scanning a product's operands does not show up as
time of the layer that called the product.

`scalars` is not wrapped: a wrapper per scalar operation would cost more
than the operation. Its time shows inside the `matrices.*.self_s` numbers.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# Module -> functions wrapped in it. `Matrix.__mul__` is wrapped on the
# class and reported as `matrices.mul`.
TRACED = {
    "matrices": ("rref", "inverse", "one_inverse", "solve", "null_space_basis"),
    "drazin": ("index_of", "drazin", "oracle_drazin", "commutant_basis", "random_commutant_element"),
    "transfer": ("check_conditions", "transfer_drazin", "power_instance"),
    "generators": ("gen_family",),
    "verify": ("run_battery",),
    "jsonio": ("corpus_to_obj", "corpus_from_obj", "outcome_to_obj", "dumps", "loads"),
}
SPAN_NAMES = ("matrices.mul",) + tuple(
    f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns
)
COUNTERS = ("scalar_mults", "matrix_products", "int_products", "rref_cells", "solve_none")

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item_of = array("q")
        self.item = -1  # spans are recorded only while an item runs
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._paused = 0
        self._restore: list[tuple[object, str, object]] = []

    def set_item(self, item: int) -> None:
        self.item = item

    def now(self) -> int:
        return _clock() - self._paused

    # -- installing --------------------------------------------------------

    def install(self, lib) -> None:
        """Wrap every traced function in every namespace that holds it.

        A name bound by `from ... import` is a separate reference in the
        importing module, so every loaded `drazinlab` module is searched.
        """
        namespaces = [m for n, m in sys.modules.items() if n == "drazinlab" or n.startswith("drazinlab.")]
        matrix_cls = lib.matrices.Matrix
        self._patch(matrix_cls, "__mul__", self._wrap(0, matrix_cls.__mul__, self._on_mul, None))
        nid = 1
        for module, fns in TRACED.items():
            mod = getattr(lib, module)
            for fn in fns:
                orig = getattr(mod, fn)
                pre = self._on_rref if (module, fn) == ("matrices", "rref") else None
                post = self._on_solve if (module, fn) == ("matrices", "solve") else None
                wrapper = self._wrap(nid, orig, pre, post)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._patch(ns, attr, wrapper)
                nid += 1

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, nid, fn, pre, post):
        def wrapper(*args, **kwargs):
            if self.item < 0:
                return fn(*args, **kwargs)
            if pre is not None:
                h = _clock()
                pre(args)
                self._paused += _clock() - h
            sid = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.item_of.append(self.item)
            self.end.append(0)
            self._stack.append(sid)
            self.start.append(self.now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = self.now()
                self._stack.pop()
            if post is not None:
                h = _clock()
                post(result)
                self._paused += _clock() - h
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def _on_mul(self, args) -> None:
        left, right = args[0], args[1]
        if not hasattr(right, "rows"):
            return  # scalar scaling, not a product
        c = self.counts
        c["matrix_products"] += 1
        c["scalar_mults"] += left.rows * left.cols * right.cols
        if _all_integer(left) and _all_integer(right):
            c["int_products"] += 1

    def _on_rref(self, args) -> None:
        self.counts["rref_cells"] += args[0].rows * args[0].cols

    def _on_solve(self, result) -> None:
        if result is None:
            self.counts["solve_none"] += 1

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s and total_s per span name."""
        n = len(self.start)
        child = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls = defaultdict(int)
        total = defaultdict(int)
        own = defaultdict(int)
        for sid in range(n):
            key = self.name[sid]
            dur = self.end[sid] - self.start[sid]
            calls[key] += 1
            total[key] += dur
            own[key] += dur - child[sid]
        out = {}
        for nid, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = own[nid] / 1e9
            out[f"{name}.total_s"] = total[nid] / 1e9
        return out

    def write(self, path: str) -> None:
        """One span per line: name, start_ns, end_ns, parent span, item."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\titem\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{SPAN_NAMES[self.name[sid]]}\t{self.start[sid]}\t"
                    f"{self.end[sid]}\t{self.parent[sid]}\t{self.item_of[sid]}\n"
                )


def _all_integer(m) -> bool:
    for i in range(m.rows):
        for j in range(m.cols):
            e = m.entry(i, j)
            if e.im or e.re.denominator != 1:
                return False
    return True
