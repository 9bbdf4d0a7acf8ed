"""The property battery run over generated corpora.

Each fact about an instance is established once, and every check can fail.
Per quadruple, in order:

* side conditions -- checked inside `transfer_drazin`, the one transfer call.
* transfer evaluation -- `transfer_drazin` raised: an index bound failed,
  the resolvent's finite sum did not close (p alpha (1+bd) nonzero at
  alpha's index), or a kernel self-check failed. `drazin`
  checks each result against the defining equations, which imply that
  the core-nilpotent part vanishes at the index, so a transferred value
  equal to it needs no more.
* transfer agreement -- the formula's value differs from the direct one.
* double commutant -- a Drazin inverse commutes with everything that
  commutes with its matrix (Drazin 1958), so the transferred value y must.
  Over a field the double commutant of one matrix is its polynomial
  algebra (Horn and Johnson, Topics in Matrix Analysis, ch. 4), so this
  is the test "y is in span{I, beta, ..., beta^(n-1)}": one elimination
  of an n^2 x (n+1) matrix (`in_double_commutant`). The commutant of beta
  itself is never built.
* power construction -- `power_instance` for n = 2..POWER_MAX. n = 1 is
  not called: it returns q itself after checks that the transfer and the
  later calls already make, so it could never fail. Each call resumes the
  Horner chain c' <- c + c' beta, b' <- b + alpha b' from the step that
  the call before it reached on q, and checks both power identities,
  1 - ac' = beta^n and 1 - b'd = alpha^n (against beta^(n-1) beta, and
  likewise for alpha), and the derived quadruple's conditions, the latter
  through the one defect e = ac' - db'.

An instance contributes one failure record at most: the first property
that breaks it. The index pair (i(1-bd), i(1-ac)) of every instance that
reaches the transfer stage is tabulated for the summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .drazin import in_double_commutant
from .errors import ConditionsViolatedError, IdentityFalsifiedError, InternalInvariantError
from .transfer import Quadruple, power_instance, transfer_drazin

# Largest exponent of the power construction the battery checks.
POWER_MAX = 3


@dataclass(frozen=True)
class Failure:
    instance: int
    prop: str
    detail: str


@dataclass
class VerifyReport:
    total: int = 0
    failures: list[Failure] = field(default_factory=list)
    index_pairs: list[tuple[int, int]] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return self.total - len(self.failures)

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


def _first_failure(idx: int, q: Quadruple, index_pairs: list[tuple[int, int]]) -> Failure | None:
    try:
        outcome = transfer_drazin(q)
    except ConditionsViolatedError as exc:
        return Failure(idx, "side conditions", "; ".join(exc.labels))
    except (IdentityFalsifiedError, InternalInvariantError) as exc:
        return Failure(idx, "transfer evaluation", str(exc))
    index_pairs.append((outcome.alpha_index, outcome.beta_index))

    if not outcome.agrees:
        return Failure(idx, "transfer agreement", "formula and direct Drazin inverse differ")

    if not in_double_commutant(outcome.beta, outcome.beta_drazin.dinv):
        return Failure(idx, "double commutant", "y is not a polynomial in beta")

    for n in range(2, POWER_MAX + 1):
        try:
            power_instance(q, n)
        except InternalInvariantError as exc:
            return Failure(idx, "power construction", f"n={n}: {exc}")
    return None


def run_battery(quads: list[Quadruple]) -> VerifyReport:
    report = VerifyReport(total=len(quads))
    for idx, q in enumerate(quads):
        failure = _first_failure(idx, q, report.index_pairs)
        if failure is not None:
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
    for f in report.failures[:20]:
        lines.append(f"FAIL instance {f.instance}: {f.prop} ({f.detail})")
    if len(report.failures) > 20:
        lines.append(f"... and {len(report.failures) - 20} more failures")
    return "\n".join(lines)
