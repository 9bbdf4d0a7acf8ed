"""The transfer formula over the ring M_2(F_2), on every quadruple.

The paper's result is about rings. Here all 16^4 = 65,536 quadruples
(a, b, c, d) of 2x2 matrices over F_2 run through the library's own
`transfer_value`, on a ring type whose *, +, - and == are lookup tables.
The Drazin inverse is found a third way, independent of both Q(i) routes:
the powers of an element of a finite ring repeat, a^i = a^(i+p), and with w
the least multiple of p with w >= max(i, 1), a^D = a^(2w-1) (Drazin, Amer.
Math. Monthly 65 (1958)). The index is the least l with a^(l+1) a^D = a^l.

The resolvent sum is trivial in this ring: in characteristic 2,
m = p alpha (1 + bd) = (p alpha)^2, and a nilpotent 2x2 matrix squares to
zero, so m = 0. The sum itself is tested over Q in test_transfer.py.
"""

from itertools import count, product

from drazinlab.transfer import transfer_value

# An element is the 4-bit number e0 + 2 e1 + 4 e2 + 8 e3 of [[e0, e1], [e2, e3]].
CODES = range(16)


def _entries(v):
    return [(v >> k) & 1 for k in range(4)]


def _code(entries):
    return sum((e % 2) << k for k, e in enumerate(entries))


def _mul(u, v):
    a, b, c, d = _entries(u)
    e, f, g, h = _entries(v)
    return _code((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))


MUL = [[_mul(u, v) for v in CODES] for u in CODES]
ADD = [[_code(x + y for x, y in zip(_entries(u), _entries(v))) for v in CODES] for u in CODES]
SUB = [[_code(x - y for x, y in zip(_entries(u), _entries(v))) for v in CODES] for u in CODES]


class M2F2:
    """An element of M_2(F_2) with table arithmetic."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return ELEMENTS[MUL[self.v][other.v]]

    def __add__(self, other):
        return ELEMENTS[ADD[self.v][other.v]]

    def __sub__(self, other):
        return ELEMENTS[SUB[self.v][other.v]]

    def __eq__(self, other):
        return self.v == other.v


ELEMENTS = [M2F2(v) for v in CODES]
ZERO, ONE = ELEMENTS[0], ELEMENTS[0b1001]


def _power(a, k):
    result = ONE
    for _ in range(k):
        result = result * a
    return result


def _drazin_by_repetition(a):
    """(a^D, index) from the first repeat a^i = a^(i+p) of a's powers."""
    powers = [ONE]
    while (nxt := powers[-1] * a) not in powers:
        powers.append(nxt)
    i = powers.index(nxt)
    period = len(powers) - i
    w = period * -(-max(i, 1) // period)
    x = _power(a, 2 * w - 1)
    index = next(l for l in count() if _power(a, l + 1) * x == _power(a, l))
    return x, index


DRAZIN = [_drazin_by_repetition(a) for a in ELEMENTS]


def test_repetition_gives_drazin_inverses():
    for a, (x, l) in zip(ELEMENTS, DRAZIN):
        assert x * a * x == x and a * x == x * a
        assert _power(a, l + 1) * x == _power(a, l)
    # the units have index 0, the nilpotents a^D = 0, and 16 elements in all
    assert sum(l == 0 for _, l in DRAZIN) == 6
    assert sum(x == ZERO for x, _ in DRAZIN) == 4


def test_transfer_value_gives_the_drazin_inverse_on_every_quadruple():
    holds = live = 0
    disagree, unequal_index, live_not_strong = [], [], []
    for a, b, c, d in product(ELEMENTS, repeat=4):
        ac, db = a * c, d * b
        if not (
            ac * ac == db * ac
            and db * db == ac * db
            and b * ac * a == b * db * a
            and c * ac * d == c * db * d
        ):
            continue
        holds += 1
        bd = b * d
        alpha, beta = ONE - bd, ONE - ac
        x, l = DRAZIN[alpha.v]
        y = transfer_value(b, d, ac, bd, alpha, x, ONE - alpha * x, l, ONE)
        beta_drazin, beta_index = DRAZIN[beta.v]
        if y != beta_drazin:
            disagree.append((a.v, b.v, c.v, d.v))
        if l != beta_index:
            unequal_index.append((a.v, b.v, c.v, d.v))
        if l > 0:
            live += 1
            if not (a * c * d == d * b * d and d * b * a == a * c * a):
                live_not_strong.append((a.v, b.v, c.v, d.v))
    assert holds == 11464
    assert disagree == []
    assert live == 2952
    assert unequal_index == []
    # the size-2 proposition: with 1 - bd singular the strong premise holds
    assert live_not_strong == []
