"""Side-condition checks and exact transfer of (generalized) inverses.

The central objects are quadruples (a, b, c, d) of equal-size square
matrices subject to four intertwining conditions:

    (ac)^2 = (db)(ac),   (db)^2 = (ac)(db),
    b(ac)a = b(db)a,     c(ac)d = c(db)d.

All four residuals (left side minus right side) are products of the one
defect e = ac - db: they are e(ac), -e(db), b e a and c e d, so
`check_conditions` forms e once, and none of the products when e is
zero. The conditions are strictly weaker than
the premise acd = dbd, dba = aca of Yan, Zeng and Zhu, whose residuals are
e d and -e a.

Under the four conditions, setting alpha = 1 - bd and beta = 1 - ac, the
Drazin data of beta is an explicit expression in that of alpha:

    y = [1 - d p (1 - p alpha (1 + bd))^-1 b a c](1 + ac) + d x b a c

with p = alpha^pi and x = alpha^D. `transfer_value` is the one place that
writes this formula and its resolvent sum, with only *, +, -, == and the
ring's one, so any ring can run it. Every transfer evaluates y and
certifies it with products alone (`certify_drazin`): y commutes with beta,
y beta y = y, and beta^k (beta y) = beta^k at some k <= n, whose least
value is i(beta). The Drazin inverse is unique (Drazin 1958), so a
certified y is beta^D; only when a check fails is beta^D computed
directly, by `drazin`, as the other side of the disagreement. When
beta = alpha, alpha's Drazin data are beta's, and y is compared with
them. The formula is never trusted on its own. The resolvent is a
finite sum and needs none of the four conditions: m = p alpha (1 + bd) =
(p alpha)(2 - alpha), p alpha commutes with alpha and vanishes at alpha's
index l, so m^max(l,1) = 0 and (1 - m)^-1 = sum_{k < max(l,1)} m^k. A
nonzero last power is reported as an internal failure rather than swallowed.

Note the factor inside the inverse carries the idempotent p: dropping it
would leave 1 - alpha(1 + bd) = (bd)^2, which is singular for most
instances of interest.

A `Quadruple` memoizes ac, bd, alpha = 1 - bd, beta = 1 - ac, its longest
entry's bit length and its side-condition report, which the transfers, the
power construction and the generators' self-check all read, and the last
power step reached. The memo is `_memo`, a non-data descriptor whose first
read stores the value in the instance `__dict__`, where later reads find
it without calling the descriptor: `functools.cached_property` without the
lock it takes on every first read on Python 3.10 and 3.11. The values are
not dataclass fields, so `==`, `hash` and `repr` ignore them, and
`dataclasses.replace` starts a new quadruple with an empty memo. Matrices
and quadruples are immutable, so a memoized value cannot go stale; a
quadruple decoded from JSON is a new object and is checked anew.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain

from .drazin import DrazinData, certify_drazin, drazin
from .errors import (
    ConditionsViolatedError,
    IdentityFalsifiedError,
    InternalInvariantError,
    NoGroupInverseError,
    ShapeError,
    SingularMatrixError,
)
from .matrices import Matrix, inverse, rank

# Largest exponent `power_instance` accepts: entry lengths grow linearly
# with n, so an unbounded n from the command line would run for hours.
MAX_POWER = 1000
# Largest n times the input's longest entry in bits that it accepts: the
# cost grows about quadratically in that product. MAX_POWER allows 32 bits.
MAX_POWER_BITS = 32 * MAX_POWER


class _memo:
    """Read-once attribute: the first read stores `func(obj)` in the
    instance `__dict__`, which every later read finds first, since this
    descriptor defines no `__set__`."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Quadruple:
    """Four square matrices of one common size."""

    a: Matrix
    b: Matrix
    c: Matrix
    d: Matrix
    # The last step k > 1 that `power_instance` reached: (k, derived_k).
    _power_step: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        n = a.rows
        if not n == a.cols == b.rows == b.cols == c.rows == c.cols == d.rows == d.cols:
            for name, m in zip("abcd", (a, b, c, d)):
                if not m.is_square() or m.rows != n:
                    raise ShapeError(f"matrix {name} must be square of size {n}")

    @property
    def size(self) -> int:
        return self.a.rows

    @_memo
    def ac(self) -> Matrix:
        return self.a * self.c

    @_memo
    def bd(self) -> Matrix:
        return self.b * self.d

    @_memo
    def entry_bits(self) -> int:
        """Bit length of the longest integer in the four matrices' grids
        and denominators, which `power_instance` bounds."""
        # bit length grows with |v|, so the longest entry is the largest in size
        entries = (chain((m.den,), *m.re, *(m.im or ())) for m in (self.a, self.b, self.c, self.d))
        return max(map(abs, chain.from_iterable(entries))).bit_length()

    @_memo
    def alpha(self) -> Matrix:
        return Matrix.identity(self.size) - self.bd

    @_memo
    def beta(self) -> Matrix:
        return Matrix.identity(self.size) - self.ac

    @_memo
    def conditions(self) -> ConditionReport:
        """The four side conditions, checked once per quadruple."""
        return check_conditions(self)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a batch of exact identity checks, one residual each."""

    labels: tuple[str, ...]
    residuals: tuple[Matrix, ...]
    # Whether each residual is zero, and all of them: read by every
    # transfer, power step and generator self-check, so computed once per
    # report. They follow from the residuals, so equality ignores them.
    holds: tuple[bool, ...] = field(init=False, repr=False, compare=False)
    all_hold: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        holds = tuple(map(Matrix.is_zero, self.residuals))
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "all_hold", all(holds))


_CONDITION_LABELS = (
    "(ac)^2 = (db)(ac)",
    "(db)^2 = (ac)(db)",
    "b(ac)a = b(db)a",
    "c(ac)d = c(db)d",
)


def check_conditions(q: Quadruple) -> ConditionReport:
    """Evaluate the four side conditions exactly; residuals are LHS - RHS,
    formed as products of the one defect e = ac - db.

    When e is zero every residual is the zero matrix e, which is returned
    four times without forming the six products (each would return the
    zero matrix through the product's zero shortcut). The defect is zero
    on the classic and triple-lift families, on their power-derived
    quadruples and on block sums of such blocks.
    """
    a, b, c, d = q.a, q.b, q.c, q.d
    ac = q.ac
    db = ac if (d, b) == (a, c) else d * b
    e = ac - db
    if e.is_zero():
        return ConditionReport(_CONDITION_LABELS, (e, e, e, e))
    return ConditionReport(_CONDITION_LABELS, (e * ac, -(e * db), b * e * a, c * e * d))


def check_strong_conditions(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> ConditionReport:
    """The stronger two-identity premise acd = dbd, dba = aca.

    With e = ac - db the residuals are e d and -e a. When both vanish, so
    do the four residuals of `check_conditions`, so any quadruple passing
    here passes there as well.
    """
    e = a * c - d * b
    return ConditionReport(
        labels=("acd = dbd", "dba = aca"),
        residuals=(e * d, -(e * a)),
    )


def check_triple_conditions(a: Matrix, b: Matrix, c: Matrix) -> ConditionReport:
    """The four-triple-identity premise on (a, b, c); lifts via d := a."""
    f = a * b * a - a * c * a
    return ConditionReport(
        labels=(
            "(aba)b = (aca)b",
            "b(aba) = b(aca)",
            "(aba)c = (aca)c",
            "c(aba) = c(aca)",
        ),
        residuals=(f * b, b * f, f * c, c * f),
    )


# -- classic single-pair lemmas --------------------------------------------


def jacobson_inverse(a: Matrix, b: Matrix) -> Matrix:
    """(1 - ba)^-1 = 1 + b (1 - ab)^-1 a, verified exactly.

    Raises SingularMatrixError when 1 - ab is singular (in which case
    1 - ba is checked to be singular too).
    """
    _require_pair(a, b)
    eye = Matrix.identity(a.rows)
    alpha = eye - a * b
    beta = eye - b * a
    try:
        alpha_inv = inverse(alpha)
    except SingularMatrixError:
        if rank(beta) == a.rows:
            raise InternalInvariantError("1-ab singular but 1-ba invertible") from None
        raise SingularMatrixError("1-ab is singular (and so is 1-ba)") from None
    result = eye + b * alpha_inv * a
    if result * beta != eye:
        raise InternalInvariantError("transferred inverse failed verification")
    return result


def jacobson_drazin(a: Matrix, b: Matrix) -> Matrix:
    """The Drazin-inverse analogue 1 + b (1-ab)^D a of the classic lemma.

    The simple form is only an identity for (1-ba)^D when the correction
    term carried by the spectral idempotent of 1-ab vanishes; this
    function certifies the formula's value as (1-ba)^D (`certify_drazin`)
    and raises IdentityFalsifiedError when it is not (e.g. whenever
    ab = 1), with (1-ba)^D computed directly as the left side, rather than
    returning a wrong value silently.
    """
    _require_pair(a, b)
    eye = Matrix.identity(a.rows)
    formula = eye + b * drazin(eye - a * b).dinv * a
    beta = eye - b * a
    if certify_drazin(beta, formula) is None:
        raise IdentityFalsifiedError(
            "1 + b(1-ab)^D a differs from (1-ba)^D on this pair",
            lhs=drazin(beta).dinv,
            rhs=formula,
        )
    return formula


def _require_pair(a: Matrix, b: Matrix) -> None:
    if not a.is_square() or not b.is_square() or a.rows != b.rows:
        raise ShapeError("pair lemmas require two square matrices of equal size")


# -- quadruple transfers -----------------------------------------------------


@dataclass(frozen=True)
class TransferOutcome:
    """Transferred and reference Drazin data for beta = 1 - ac.

    `direct` is beta^D with its index and idempotent: the certified value
    of the formula when the certificate holds, alpha's data when
    beta = alpha, and `drazin(beta)` otherwise. `beta_drazin` is the
    formula's value y with i(beta): `direct` itself when y agrees, and
    with the idempotent I - beta y when it does not.
    """

    beta: Matrix
    beta_drazin: DrazinData
    direct: DrazinData
    agrees: bool
    alpha_index: int

    @property
    def beta_index(self) -> int:
        return self.direct.index


def _require_conditions(q: Quadruple) -> None:
    report = q.conditions
    if not report.all_hold:
        failed = [lab for lab, ok in zip(report.labels, report.holds) if not ok]
        raise ConditionsViolatedError(f"side conditions fail: {'; '.join(failed)}", failed)


def transfer_value(b, d, ac, bd, alpha, x, p, l, one):
    """The formula's y in any ring, from x = alpha^D, p = alpha^pi and alpha's
    index l, with (1 - m)^-1 = sum_{k < max(l,1)} m^k for m = p alpha (1+bd)."""
    m = p * alpha * (one + bd)
    resolvent, m_k = one, m
    for _ in range(1, max(l, 1)):
        resolvent, m_k = resolvent + m_k, m_k * m
    if m_k != one - one:
        raise InternalInvariantError("p alpha (1+bd) not nilpotent within alpha's index: kernel bug")
    bac = b * ac
    return (one - d * p * resolvent * bac) * (one + ac) + d * x * bac


def _evaluate_transfer(q: Quadruple, alpha_data: DrazinData) -> TransferOutcome:
    beta, eye = q.beta, Matrix.identity(q.size)
    p, x = alpha_data.spectral_idempotent, alpha_data.dinv
    y = transfer_value(q.b, q.d, q.ac, q.bd, q.alpha, x, p, alpha_data.index, eye)
    # a certified y is beta^D, with drazin(beta)'s index and idempotent
    if beta == q.alpha:
        direct = alpha_data
    else:
        direct = certify_drazin(beta, y) or drazin(beta)
    agrees = y == direct.dinv
    return TransferOutcome(
        beta=beta,
        beta_drazin=direct if agrees else DrazinData(y, direct.index, eye - beta * y),
        direct=direct,
        agrees=agrees,
        alpha_index=alpha_data.index,
    )


def transfer_gdrazin(q: Quadruple) -> TransferOutcome:
    """Evaluate the transfer formula for beta = 1 - ac and compare with the
    directly computed Drazin inverse."""
    _require_conditions(q)
    return _evaluate_transfer(q, drazin(q.alpha))


def transfer_drazin(q: Quadruple) -> TransferOutcome:
    """Transfer plus the index bound, asserted in both directions.

    The four conditions are symmetric under (a,b,c,d) -> (d,c,b,a), so both
    i(beta) <= i(alpha)+1 and i(alpha) <= i(beta)+1 must hold; a violation
    of either is a falsification worth surfacing loudly, with alpha and
    beta as its witness pair.
    """
    outcome = transfer_gdrazin(q)
    if abs(outcome.alpha_index - outcome.beta_index) > 1:
        raise IdentityFalsifiedError(
            f"index bound violated: i(alpha)={outcome.alpha_index}, "
            f"i(beta)={outcome.beta_index}",
            lhs=q.alpha,
            rhs=q.beta,
        )
    return outcome


def transfer_group(q: Quadruple) -> TransferOutcome:
    """Group-inverse version: requires i(1-bd) <= 1, verifies i(1-ac) <= 1.

    An instance with i(1-bd) >= 2 is refused right after alpha's Drazin
    data, before any work on beta. The transferred value coincides with the
    Drazin formula (x = alpha^# when the index is at most 1); `agrees`
    additionally demands that beta has a group inverse and that the formula
    reproduces it exactly. The group axiom is not checked again: then y is
    beta's Drazin inverse, certified (or equal to alpha's verified one)
    at an index k <= 1, and
    k = 1 gives beta y beta = beta (beta y) = beta, k = 0 gives beta y = 1.
    """
    _require_conditions(q)
    alpha_data = drazin(q.alpha)
    if alpha_data.index > 1:
        raise NoGroupInverseError("1-bd has index >= 2, group transfer refused")
    outcome = _evaluate_transfer(q, alpha_data)
    if outcome.beta_index > 1:
        return replace(outcome, agrees=False)
    return outcome


def power_instance(q: Quadruple, n: int) -> Quadruple:
    """Rebuild (a, b', c', d) so that 1 - a c' = (1-ac)^n and 1 - b' d = (1-bd)^n.

    c' = c sum_{k<n} (1-ac)^k and b' = sum_{k<n} (1-bd)^k b: the geometric
    sums telescope, a c' = (1 - (1-ac)) sum_{k<n} (1-ac)^k = 1 - (1-ac)^n.
    They are grown in Horner form, c' <- c + c' beta and b' <- b + alpha b'
    with q's memoized alpha = 1 - bd and beta = 1 - ac; n = 1 is q itself,
    returned before any product. q memoizes the last step k > 1 reached,
    (k, derived_k): a call with k <= n resumes from it, any other starts
    from k = 1 with derived_1 = q. derived_n is checked against beta^n
    when it started from q, and otherwise against derived_k's beta times
    beta^(n-k), powers by repeated squaring, likewise for alpha, and on its
    conditions. Raises ValueError unless
    1 <= n <= MAX_POWER and n times q's longest entry in bits is at most
    MAX_POWER_BITS, and ConditionsViolatedError when q's conditions fail.
    """
    if not 1 <= n <= MAX_POWER:
        raise ValueError(f"power construction needs 1 <= n <= {MAX_POWER}")
    bits = q.entry_bits
    if n * bits > MAX_POWER_BITS:
        raise ValueError(f"power construction needs n * {bits} entry bits <= {MAX_POWER_BITS}")
    _require_conditions(q)
    if n == 1:
        return q
    k, start = q._power_step or (1, q)
    if k > n:
        k, start = 1, q
    derived = start
    for _ in range(k, n):
        derived = Quadruple(q.a, q.b + q.alpha * derived.b, q.c + derived.c * q.beta, q.d)
    # start.beta and start.alpha are the k-th powers: checked when stored.
    # From q itself, beta^n is formed by squaring alone, not as beta beta^(n-1).
    if derived.beta != (q.beta**n if k == 1 else start.beta * q.beta ** (n - k)):
        raise InternalInvariantError("power construction failed for 1 - a c'")
    if derived.alpha != (q.alpha**n if k == 1 else start.alpha * q.alpha ** (n - k)):
        raise InternalInvariantError("power construction failed for 1 - b' d")
    if not derived.conditions.all_hold:
        raise InternalInvariantError("derived quadruple lost the side conditions")
    object.__setattr__(q, "_power_step", (n, derived))
    return derived
