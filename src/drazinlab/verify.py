"""The property battery run over generated corpora.

For each quadruple the battery checks, in order: the four side conditions,
exact transfer agreement for the Drazin data of 1 - ac, the defining
equations of the transferred value, nilpotency of the core-nilpotent part
at the recorded index, commutation with sampled commutant elements (the
testable stand-in for double-commutant membership), the index bound in
both directions, and the power construction for small exponents.

An instance contributes one failure record at most: the first property
that breaks it. The index pair (i(1-bd), i(1-ac)) of every instance that
reaches the transfer stage is tabulated for the summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .drazin import random_commutant_element
from .errors import IdentityFalsifiedError, InternalInvariantError
from .transfer import Quadruple, check_conditions, power_instance, transfer_drazin


@dataclass(frozen=True)
class Failure:
    instance: int
    prop: str
    detail: str


@dataclass
class VerifyReport:
    total: int = 0
    passed: int = 0
    failures: list[Failure] = field(default_factory=list)
    index_pairs: list[tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_obj(self) -> dict:
        return {
            "total": self.total,
            "passed": self.passed,
            "failures": [
                {"instance": f.instance, "property": f.prop, "detail": f.detail}
                for f in self.failures
            ],
            "index_pairs": [list(p) for p in self.index_pairs],
        }


def _first_failure(idx: int, q: Quadruple, commutant_samples: int, power_max: int,
                   index_pairs: list[tuple[int, int]]) -> Failure | None:
    report = check_conditions(q)
    if not report.all_hold:
        bad = [lab for lab, ok in zip(report.labels, report.holds) if not ok]
        return Failure(idx, "side conditions", "; ".join(bad))

    try:
        outcome = transfer_drazin(q)
    except (IdentityFalsifiedError, InternalInvariantError) as exc:
        # InternalInvariantError covers the kernel's own self-checks too
        # (`drazin` verifies every result it returns).
        return Failure(idx, "transfer evaluation", str(exc))
    index_pairs.append((outcome.alpha_index, outcome.beta_index))

    if not outcome.agrees:
        return Failure(idx, "transfer agreement", "formula and direct Drazin inverse differ")

    beta, y, k = outcome.beta, outcome.beta_drazin.dinv, outcome.beta_index
    if y * beta != beta * y:
        return Failure(idx, "Drazin equation", "y does not commute with beta")
    if y * beta * y != y:
        return Failure(idx, "Drazin equation", "y beta y != y")
    bk = beta**k
    if bk * beta * y != bk:
        return Failure(idx, "Drazin equation", "beta^(k+1) y != beta^k")

    core_nil = beta - beta * beta * y
    if k == 0:
        if not core_nil.is_zero():
            return Failure(idx, "core-nilpotent part", "nonzero at index 0")
    else:
        if not (core_nil**k).is_zero():
            return Failure(idx, "core-nilpotent part", f"(beta - beta^2 y)^{k} != 0")

    for j in range(commutant_samples):
        try:
            s = random_commutant_element(beta, seed=idx * 1009 + j)
        except InternalInvariantError as exc:
            return Failure(idx, "double commutant", f"sample {j}: {exc}")
        if s * y != y * s:
            return Failure(idx, "double commutant", f"sample {j} does not commute with y")

    if abs(outcome.alpha_index - outcome.beta_index) > 1:
        return Failure(
            idx, "index bound",
            f"|i(alpha) - i(beta)| = {abs(outcome.alpha_index - outcome.beta_index)}",
        )

    for n in range(1, power_max + 1):
        try:
            derived = power_instance(q, n)
        except InternalInvariantError as exc:
            return Failure(idx, "power construction", f"n={n}: {exc}")
        if n == 1 and derived != q:
            return Failure(idx, "power construction", "n=1 did not return the quadruple verbatim")
    return None


def run_battery(quads: list[Quadruple], commutant_samples: int = 10,
                power_max: int = 3) -> VerifyReport:
    report = VerifyReport(total=len(quads))
    for idx, q in enumerate(quads):
        failure = _first_failure(idx, q, commutant_samples, power_max, report.index_pairs)
        if failure is None:
            report.passed += 1
        else:
            report.failures.append(failure)
    return report


def summarize(report: VerifyReport) -> str:
    """Human-readable battery summary: totals, index pairs, formula branches."""
    lines = [f"instances: {report.total}  passed: {report.passed}  failed: {len(report.failures)}"]
    pair_counts: dict[tuple[int, int], int] = {}
    for p in report.index_pairs:
        pair_counts[p] = pair_counts.get(p, 0) + 1
    if pair_counts:
        pairs = "  ".join(
            f"(i(alpha)={a}, i(beta)={b}): {c}" for (a, b), c in sorted(pair_counts.items())
        )
        lines.append(f"index pairs: {pairs}")
        live = sum(c for (a, _), c in pair_counts.items() if a > 0)
        lines.append(
            f"spectral-idempotent branch: live on {live}, trivial on "
            f"{len(report.index_pairs) - live} (alpha invertible)"
        )
        fwd = all(b <= a + 1 for (a, b) in pair_counts)
        bwd = all(a <= b + 1 for (a, b) in pair_counts)
        lines.append(
            "index bound support: "
            f"i(beta) <= i(alpha)+1 {'holds' if fwd else 'FAILS'}; "
            f"i(alpha) <= i(beta)+1 {'holds' if bwd else 'FAILS'}"
        )
    for f in report.failures[:20]:
        lines.append(f"FAIL instance {f.instance}: {f.prop} ({f.detail})")
    if len(report.failures) > 20:
        lines.append(f"... and {len(report.failures) - 20} more failures")
    return "\n".join(lines)
