"""drazinlab benchmark: one workload, one seed, one run.

Run from the root of a checkout; the library is imported from its `src/`:

    python3 perfbench/run.py --workload corpus_transfer --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py): `corpus_transfer`, `verify_battery` and
`kernel_oracle`. Each is a fixed, ordered pass of items built from the seed.
The run is one process, one thread and a closed loop: the next item starts
when the previous one ends. Passes repeat while another pass is expected to
end within `--seconds`, and there are at least two. Every pass starts with
an empty commutant cache.

The host's speed drifts by up to a half, in phases from seconds to minutes
long, and CPU time drifts with it. So before every item and every unit the
run times `calibrate`, a fixed piece of pure-Python work that resembles the
library's (integer arithmetic, elimination over `fractions.Fraction`, and
products of small complex-like objects) but calls nothing of it, so a
change to the library cannot change it. Each measured time is multiplied
by its local speed factor, REFERENCE_CAL_S over the median of the
calibrations within CAL_WINDOW places of it: the time the work would take
on a host where `calibrate` takes REFERENCE_CAL_S. Each item's scaled
latency is then its median over the passes; the latency metrics and the
throughput are taken from these medians. The line before the result also
gives the unscaled metrics and every pass's median speed factor.

Every pass's outputs are hashed into one digest. An item fails when it
raises, when its own checks fail (transfer agreement, `drazin` against
`oracle_drazin`, a clean battery report, the JSON round trip), or when its
pass's digest differs from the first pass's or from the digest recorded in
digests.json for this workload and seed. digests.json holds, per workload,
the `digest` that runs at the first benchmarked commit printed for seeds
0..21; for other seeds only the first pass is the reference.

`--trace 0` prints the end-to-end metrics: throughput_ips (items per second
of the workload's own time: the items plus, for corpus_transfer, generating
and round-tripping the corpus), item_ms_p50, item_ms_p95, ok_frac (the
share of item runs that did not fail), setup_s (median over fresh processes
of the time from process start to inputs ready, each scaled by a
calibration taken just before its process starts) and peak_rss_mb.

`--trace 1` runs one untraced pass, then the same pass with spans around the
library's layer boundaries (tracer.py), and prints the per-layer metrics.
The tracing overhead is the difference of the two passes' scaled busy
times; the spans' own times are as measured.
The spans are written to `.bench_out/`. The traced run checks that both
passes give the same digest and that `transfer_drazin` ran once per instance.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the host, the seed, the digests and the self-checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_PROBES = 9
MIN_PASSES = 2
# Seconds `calibrate` takes on the reference host (an Intel Xeon with two
# usable cores, under Python 3.11); the scale in which times are reported.
REFERENCE_CAL_S = 0.003
# Calibrations on each side of a time that make up its speed factor.
CAL_WINDOW = 10

_CAL_RATIONALS = [[Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i + j) % 3) for j in range(6)]
                  for i in range(6)]


class _CalPair:
    """A complex-like pair of fractions with a real fast path."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __mul__(self, other):
        if not self.im and not other.im:
            return _CalPair(self.re * other.re, 0)
        return _CalPair(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def __add__(self, other):
        return _CalPair(self.re + other.re, self.im + other.im)


_CAL_PAIRS = [[_CalPair(Fraction(i - j, 1 + i), Fraction((i * j) % 2)) for j in range(5)]
              for i in range(5)]


def calibrate() -> float:
    """Seconds a fixed piece of pure-Python work takes now.

    Three parts, each tracking a different resource of the host: an integer
    loop, Gauss-Jordan elimination of a 6 x 6 matrix of fractions, and a
    product of two 5 x 5 matrices of complex-like pairs. On probes, their
    combined time tracked the library's speed better than any one part.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(7000):
        acc = (acc * 31 + i) % 1000003
    a = [row[:] for row in _CAL_RATIONALS]
    n, r = len(a), 0
    for c in range(n):
        p = next((i for i in range(r, n) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(n):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    m = _CAL_PAIRS
    [[sum((m[i][k] * m[k][j] for k in range(1, 5)), m[i][0] * m[0][j]) for j in range(5)]
     for i in range(5)]
    return time.perf_counter() - t0


def require_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "drazinlab", "__init__.py")):
        sys.exit(f"no drazinlab package under {SRC}; run from the root of a checkout")


def load(workload_name: str, seed: int):
    """Import the checkout's library and build the workload's inputs."""
    require_checkout()
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, load_library

    lib = load_library()
    if os.path.dirname(os.path.dirname(os.path.abspath(lib.pkg.__file__))) != SRC:
        sys.exit(f"drazinlab was imported from {lib.pkg.__file__}, not from {SRC}")
    return lib, WORKLOADS[workload_name](lib, seed)


def measure_setup(args) -> tuple[float, float]:
    """Median time from process start to inputs ready over fresh processes,
    scaled and unscaled."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        speed = REFERENCE_CAL_S / statistics.median(calibrate() for _ in range(5))
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        probe = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        raw.append((int(probe.stdout.split()[-1]) - t0) / 1e9)
        scaled.append(raw[-1] * speed)
    return statistics.median(scaled), statistics.median(raw)


def run_pass(workload, tracer=None, texts=None, calibrated=False) -> dict:
    """Run every unit once; return latencies, checks, wall time, digest and,
    if `calibrated`, every latency's and unit time's speed factor, from a
    calibration before every unit and every item, outside their timed
    regions (otherwise the factors are 1)."""
    workload.reset()
    cal: list[float] = []
    item_cal: dict[int, int] = {}

    def mark(item: int) -> None:
        if tracer is not None:
            tracer.set_item(item)
        if calibrated and item >= 0:
            cal.append(calibrate())
            item_cal[item] = len(cal) - 1

    digest = hashlib.sha256()
    latencies: list[float] = []
    unit_seconds: list[float] = []
    unit_cal: list[int] = []
    latency_cal: list[int] = []
    oks: list[bool] = []
    t0 = time.perf_counter()
    for unit in workload.units:
        item = len(latencies)
        mark(item)
        unit_cal.append(len(cal) - 1)
        unit_text, seconds, results = workload.run(unit, item, mark)
        mark(-1)
        unit_seconds.append(seconds)
        digest.update(unit_text.encode())
        for latency, ok, text in results:
            latency_cal.append(item_cal.get(len(latencies), unit_cal[-1]))
            latencies.append(latency)
            oks.append(ok)
            digest.update(b"\n" + text.encode())
            if texts is not None:
                texts.append(text)
        if texts is not None:
            texts.append(unit_text)
        digest.update(b"\x00")
    wall = time.perf_counter() - t0
    if cal:
        speed = [REFERENCE_CAL_S / statistics.median(cal[max(0, j - CAL_WINDOW):j + CAL_WINDOW + 1])
                 for j in range(len(cal))]
        item_speed = [speed[j] for j in latency_cal]
        unit_speed = [speed[j] for j in unit_cal]
    else:
        item_speed = [1.0] * len(latencies)
        unit_speed = [1.0] * len(unit_seconds)
    return {"latencies": latencies, "unit_seconds": unit_seconds, "oks": oks,
            "wall": wall, "digest": digest.hexdigest(),
            "item_speed": item_speed, "unit_speed": unit_speed}


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def count_failures(passes: list[dict], expected: str | None) -> int:
    """Failed items: own checks, plus every item of a pass whose digest is
    off the recorded one (or, with none recorded, off the first pass's)."""
    reference = expected or passes[0]["digest"]
    failed = 0
    for p in passes:
        if p["digest"] != reference:
            failed += len(p["oks"])
        else:
            failed += p["oks"].count(False)
    return failed


def _medians(passes: list[dict], key: str, speed_key: str, scaled: bool) -> list[float]:
    """Each entry's median over the passes, each time multiplied by its
    speed factor if `scaled`."""
    runs = [[x * f for x, f in zip(p[key], p[speed_key])] if scaled else p[key]
            for p in passes]
    return [statistics.median(values) for values in zip(*runs)]


def _busy(p: dict) -> float:
    """A pass's scaled time in its items and units, without calibrations."""
    return (sum(x * f for x, f in zip(p["latencies"], p["item_speed"]))
            + sum(x * f for x, f in zip(p["unit_seconds"], p["unit_speed"])))


def end_to_end(passes: list[dict], failed: int, setup_s: float, scaled: bool = True) -> dict:
    latencies = _medians(passes, "latencies", "item_speed", scaled)
    busy = sum(latencies) + sum(_medians(passes, "unit_seconds", "unit_speed", scaled))
    cuts = statistics.quantiles(latencies, n=20, method="inclusive")
    attempted = sum(len(p["oks"]) for p in passes)
    return {
        "throughput_ips": (len(latencies) / busy, "1/s"),
        "item_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "item_ms_p95": (cuts[18] * 1e3, "ms"),
        "ok_frac": (1 - failed / attempted, "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(lib, workload, spans_path: str) -> tuple[list[dict], dict, dict]:
    """An untraced pass, then the same pass traced; per-layer metrics."""
    from tracer import Tracer

    texts: list[str] = []
    base = run_pass(workload, texts=texts, calibrated=True)
    tracer = Tracer()
    tracer.install(lib)
    try:
        traced = run_pass(workload, tracer, calibrated=True)
    finally:
        tracer.uninstall()
    untraced_s, traced_s = _busy(base), _busy(traced)
    counts = tracer.counts
    layers = tracer.layer_metrics()
    instances = workload.transfers_per_item * len(traced["oks"])
    cache = getattr(workload.commutant_cache, "cache_info", None)
    info = cache() if cache is not None else None
    lookups = info.hits + info.misses if info is not None else 0
    metrics = {
        name: (value, "count" if name.endswith(".calls") else "s")
        for name, value in layers.items()
    }
    metrics.update({
        "matrices.mul.scalar_mults": (counts["scalar_mults"], "count"),
        "matrices.mul.int_frac": (_ratio(counts["int_products"], counts["matrix_products"]), "frac"),
        "matrices.rref.cells": (counts["rref_cells"], "count"),
        "matrices.solve.none_frac": (_ratio(counts["solve_none"], layers["matrices.solve.calls"]), "frac"),
        "drazin.commutant_basis.hit_ratio": (_ratio(info.hits if info else 0, lookups), "frac"),
        "transfer.check_conditions.per_instance": (
            _ratio(layers["transfer.check_conditions.calls"], instances), "calls/instance"),
        "outputs.max_entry_bits": (max_entry_bits(texts), "bits"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, "frac"),
        "trace.spans": (len(tracer.name), "count"),
    })
    checks = {
        "traced_digest_equal": traced["digest"] == base["digest"],
        "transfer_calls_equal_instances": layers["transfer.transfer_drazin.calls"] == instances,
    }
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    return [base, traced], metrics, checks


def timed_run(workload, seconds: float) -> list[dict]:
    """Passes until the next one is not expected to end within `seconds`."""
    passes: list[dict] = []
    elapsed = 0.0
    while True:
        passes.append(run_pass(workload, calibrated=True))
        elapsed += passes[-1]["wall"]
        if len(passes) >= MIN_PASSES and elapsed + passes[-1]["wall"] > seconds:
            return passes


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


_RATIONAL = re.compile(r'"-?(\d+)(?:/(\d+))?"')


def max_entry_bits(texts: list[str]) -> int:
    """Largest numerator or denominator bit length among the rational
    strings of the outputs."""
    best = 0
    for text in texts:
        for num, den in _RATIONAL.findall(text):
            best = max(best, int(num).bit_length(), int(den or 1).bit_length())
    return best


def host_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "commit": commit,
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        load(args.workload, args.seed)
        print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
        return 0

    require_checkout()
    setup_s, setup_raw_s = measure_setup(args) if not args.trace else (None, None)
    lib, workload = load(args.workload, args.seed)
    expected = recorded_digest(args.workload, args.seed)
    checks = {}
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
    if args.trace:
        passes, metrics, checks = traced_run(lib, workload, spans_path)
    else:
        passes = timed_run(workload, args.seconds)
    failed = count_failures(passes, expected)
    unscaled = None
    if not args.trace:
        metrics = end_to_end(passes, failed, setup_s)
        unscaled = {name: value for name, (value, _) in
                    end_to_end(passes, failed, setup_raw_s, scaled=False).items()}
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_info(),
        "passes": len(passes),
        "items_per_pass": len(passes[0]["oks"]),
        "pass_walls_s": [p["wall"] for p in passes],
        "speed_factors": [statistics.median(p["item_speed"]) for p in passes],
        "unscaled_metrics": unscaled,
        "digest": passes[0]["digest"],
        "recorded_digest": expected,
        "checks": checks,
        "spans": os.path.relpath(spans_path, ROOT) if args.trace else None,
    }))
    print(json.dumps({
        "correct": failed == 0 and all(checks.values()),
        "attempted": sum(len(p["oks"]) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
