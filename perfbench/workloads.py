"""The three benchmark workloads: seeded inputs and the steps of one item.

A workload is a fixed, ordered list of units built from the seed; one pass
runs every unit once. Running a unit returns the unit's own output text
(the generated corpus, or ""), the seconds the unit spent outside its items,
and one `(seconds, ok, text)` triple per item: the item's latency, whether
the item's own checks held, and its canonical output text. run.py hashes
all texts of a pass into the pass digest.

Items reach the library only through public functions, looked up on the
module objects at call time, so the tracer's wrappers see every call. The
JSON used only for digests is encoded with functions captured before any
wrapper is installed, and outside the timed region.
"""

from __future__ import annotations

import importlib
import random
import time
from types import SimpleNamespace

# Acceptance criterion 2's mix; corpus_transfer runs a quarter of each count.
FAMILY_COUNTS = {
    "classic": 60,
    "strong": 40,
    "triple_lift": 50,
    "zero_padded_nilpotent": 30,
    "block_diagonal_mix": 30,
}
CORPUS_SIZES = (2, 3, 4, 5, 6)
# An odd number of sizes puts the median item in the middle of one size
# rather than on the step between two.
VERIFY_SIZES = (2, 3, 4)
VERIFY_SEEDS_PER_CELL = 14
KERNEL_SAMPLES = 10
# Criterion 6 draws 45% low-rank, 45% integer and 10% Gaussian-complex
# matrices, and the rank of a low-rank one, at random. Here sizes 2..6
# cycle, the styles follow this fixed pattern per size and the ranks cycle
# through 0..n, so that every pass holds exactly that mix and a seed
# changes only the entries. Criterion 6 also has size 1, which costs about
# a millisecond; leaving it out keeps the number of sizes odd, so that the
# median item lies inside size 4 rather than on the steep step between
# sizes 3 and 4, where it moved by half between passes of the same inputs.
KERNEL_SIZES = (2, 3, 4, 5, 6)
KERNEL_STYLES = (
    ("low_rank", "int") * 4 + ("low_rank", "gauss") + ("int", "low_rank") * 4 + ("int", "gauss")
)
KERNEL_ITEMS = len(KERNEL_SIZES) * len(KERNEL_STYLES)

_now = time.perf_counter


def load_library() -> SimpleNamespace:
    """The package and the submodules the workloads call into.

    `drazinlab.drazin` is the function, so modules are reached through
    importlib rather than as package attributes.
    """
    mods = {
        name: importlib.import_module(f"drazinlab.{name}")
        for name in ("matrices", "drazin", "transfer", "generators", "verify", "jsonio")
    }
    return SimpleNamespace(pkg=importlib.import_module("drazinlab"), **mods)


class Workload:
    """Base: subclasses build `self.units` from the seed and define `run`."""

    # `transfer_drazin` calls each item makes, for the tracer's self-check.
    transfers_per_item = 0

    def __init__(self, lib: SimpleNamespace, seed: int):
        self.lib = lib
        self.seed = seed
        jsonio = lib.jsonio
        # Bound before the tracer can wrap anything: the digest encoders and
        # the `lru_cache` object behind `commutant_basis`.
        self._dumps = jsonio.dumps
        self._corpus_to_obj = jsonio.corpus_to_obj
        self._drazin_to_obj = jsonio.drazin_to_obj
        self._matrix_to_obj = jsonio.matrix_to_obj
        self.commutant_cache = lib.drazin.commutant_basis
        self.units = self.build()

    def build(self) -> list:
        raise NotImplementedError

    def run(self, unit, item: int, mark) -> tuple[str, float, list[tuple[float, bool, str]]]:
        """Run one unit whose first item has id `item`; a unit of several
        items calls `mark` with each next item's id."""
        raise NotImplementedError

    def reset(self) -> None:
        """Empty the commutant cache so that every pass starts cold."""
        clear = getattr(self.commutant_cache, "cache_clear", None)
        if clear is not None:
            clear()


def _error(exc: BaseException) -> str:
    return f"error: {type(exc).__name__}: {exc}"


class CorpusTransfer(Workload):
    """Generate a cell of the acceptance corpus, round-trip it through JSON,
    then transfer and encode each quadruple. One item is the transfer and
    encoding of one quadruple; the cell's generation and JSON time is the
    unit's own, counted in the throughput but in no item's latency."""

    transfers_per_item = 1

    def build(self):
        return [
            (family, size, 1000 * size + len(family) + 1_000_000 * self.seed, count // 4)
            for size in CORPUS_SIZES
            for family, count in FAMILY_COUNTS.items()
        ]

    def run(self, unit, item, mark):
        family, size, cell_seed, count = unit
        gen, jsonio, pkg = self.lib.generators, self.lib.jsonio, self.lib.pkg
        t0 = _now()
        try:
            spec = gen.GeneratorSpec(family, size, seed=cell_seed, count=count)
            quads = gen.gen_family(spec)
            text = jsonio.dumps(jsonio.corpus_to_obj(spec.to_dict(), quads))
            _, loaded = jsonio.corpus_from_obj(jsonio.loads(text))
        except Exception as exc:  # recorded as failed items, never fatal
            return _error(exc), _now() - t0, [(0.0, False, "")] * count
        cell_seconds = _now() - t0
        round_trip_ok = loaded == quads
        items = []
        for k, q in enumerate(loaded):
            mark(item + k)
            t0 = _now()
            try:
                outcome = pkg.transfer_drazin(q)
                out_text = jsonio.dumps(jsonio.outcome_to_obj(outcome))
            except Exception as exc:
                items.append((_now() - t0, False, _error(exc)))
                continue
            items.append((_now() - t0, round_trip_ok and outcome.agrees, out_text))
        return text, cell_seconds, items


class VerifyBattery(Workload):
    """What `drazinlab verify` runs, one instance per item: generate the
    cell, run the battery, encode the report."""

    transfers_per_item = 1

    def build(self):
        return [
            (family, size, 1_000_000 * self.seed + 10_000 * size + 100 * r + len(family))
            for size in VERIFY_SIZES
            for r in range(VERIFY_SEEDS_PER_CELL)
            for family in FAMILY_COUNTS
        ]

    def run(self, unit, item, mark):
        family, size, cell_seed = unit
        gen, verify, jsonio = self.lib.generators, self.lib.verify, self.lib.jsonio
        t0 = _now()
        try:
            spec = gen.GeneratorSpec(family, size, seed=cell_seed, count=1)
            quads = gen.gen_family(spec)
            report = verify.run_battery(quads)
            text = jsonio.dumps(report.to_obj())
        except Exception as exc:
            return "", 0.0, [(_now() - t0, False, _error(exc))]
        seconds = _now() - t0
        corpus_text = self._dumps(self._corpus_to_obj(spec.to_dict(), quads))
        return corpus_text, 0.0, [(seconds, report.ok, text)]


class KernelOracle(Workload):
    """Criterion 6's matrices: `drazin` and `oracle_drazin` must agree, then
    10 commutant samples are drawn. No transfer code runs."""

    def build(self):
        rng = random.Random(2024 + 1_000_000 * self.seed)
        units = []
        low_rank_seen = [0] * 7
        for i in range(KERNEL_ITEMS):
            n = KERNEL_SIZES[i % len(KERNEL_SIZES)]
            style = KERNEL_STYLES[i // len(KERNEL_SIZES)]
            if style == "low_rank":
                entries = _low_rank_entries(rng, n, low_rank_seen[n] % (n + 1))
                low_rank_seen[n] += 1
            elif style == "int":
                entries = [rng.randint(-3, 3) for _ in range(n * n)]
            else:
                entries = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n * n)]
            units.append((n, style, entries))
        return units

    def run(self, unit, item, mark):
        n, style, entries = unit
        pkg = self.lib.pkg
        t0 = _now()
        try:
            if style == "gauss":
                entries = [pkg.GaussianRational(re, im) for re, im in entries]
            a = pkg.Matrix(n, n, entries)
            data = pkg.drazin(a)
            oracle = pkg.oracle_drazin(a)
            samples = [pkg.random_commutant_element(a, s) for s in range(KERNEL_SAMPLES)]
        except Exception as exc:
            return "", 0.0, [(_now() - t0, False, _error(exc))]
        seconds = _now() - t0
        agree = data.dinv == oracle.dinv and data.index == oracle.index
        text = self._dumps({
            "drazin": self._drazin_to_obj(data),
            "oracle_index": oracle.index,
            "samples": [self._matrix_to_obj(s) for s in samples],
        })
        return "", 0.0, [(seconds, agree, text)]


def _low_rank_entries(rng: random.Random, n: int, r: int) -> list[int]:
    """Entries of left * right with left n x r and right r x n in [-2, 2],
    drawn in the same order as the criterion 6 test helper."""
    if r == 0:
        return [0] * (n * n)
    left = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
    right = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
    return [sum(left[i][t] * right[t][j] for t in range(r)) for i in range(n) for j in range(n)]


WORKLOADS = {
    "corpus_transfer": CorpusTransfer,
    "verify_battery": VerifyBattery,
    "kernel_oracle": KernelOracle,
}
