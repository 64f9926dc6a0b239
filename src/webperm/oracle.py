"""Independent verification path: the expansion of a matching's minor
product over the noncrossing basis, plus its numeric check.

The minors obey the Plücker relation Δ_ac·Δ_bd = Δ_ab·Δ_cd + Δ_ad·Δ_bc
(a < b < c < d), which rewrites a crossing pair of arcs into its two
uncrossed pairs.  The expansion over noncrossing matchings is unique
(Rumer–Teller–Weyl), with nonnegative integer coefficients, so any order
of rewriting reaches it.  Two constructions compute it:

- :func:`syzygy_insert`, the production path, inserts the arcs of a
  matching one at a time, shortest first, into the expansion of those
  before it.
  Inserting an arc into a noncrossing partial matching walks along the
  new chord and smooths each arc it crosses, in order, into 2^k
  noncrossing states of coefficient 1.  Every row starts from the empty
  matching and nothing is kept across rows.
- :func:`syzygy_expand` rewrites a whole matching, one crossing pair at a
  time, until none is left.  It is the reference that the tests hold the
  insertion to.

The rewriting never touches polynomials; :func:`verify_expansion`
evaluates the resulting identity Δ_M = sum of c(M') Δ_M' at seeded random
specializations, uniform over the residues modulo the prime 2^61 - 1, one
row at a time, so a failure names its row.  A wrong expansion passes a
sample with probability at most 2n/(2^61 - 1).  ``matrix --verify`` runs
it on every row with :data:`MATRIX_TRIALS` samples, the ``oracle`` suite
with ``--trials``.  The samples depend only on (n, trials, seed), so every
row of one matrix is checked on the same ones.  They are drawn once and
kept, with their arc minors and the minor products of the noncrossing
matchings seen so far, in a one-entry cache; a call with other parameters
replaces it.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterator
from functools import lru_cache
from itertools import combinations
from operator import itemgetter, mul

from .combinat import (
    Matching,
    crossing_arc_pairs,
    is_noncrossing,
    matching,
)

SYZYGY_POLICIES = ("first", "last")
DEFAULT_SEED = 1729
# the Mersenne prime 2^61 - 1, the modulus of the numeric check
MODULUS = (1 << 61) - 1
# Samples per row in ``matrix --verify``.  A wrong row passes each with
# probability at most 2n/(2^61 - 1), so all 4 with at most (2n/(2^61 - 1))^4,
# under 10^-68 for n <= 9.
MATRIX_TRIALS = 4


def syzygy_step(m: Matching, pair: tuple) -> tuple[Matching, Matching]:
    """Resolve one crossing pair: ({a,c},{b,d}) -> ({a,b},{c,d}) and
    ({a,d},{b,c})."""
    (a, c), (b, d) = pair
    rest = [arc for arc in m if arc != (a, c) and arc != (b, d)]
    return (matching(rest + [(a, b), (c, d)]),
            matching(rest + [(a, d), (b, c)]))


def syzygy_expand(m: Matching, policy: str = "first") -> dict[Matching, int]:
    """Expand a matching over noncrossing matchings by iterated rewriting.

    ``policy`` chooses which crossing pair to resolve at each step ("first"
    or "last" in lexicographic opener order, the order in which
    :func:`~webperm.combinat.crossing_arc_pairs` lists them); the result is
    independent of the choice.

    >>> syzygy_expand(matching([(1, 3), (2, 4)]))
    {((1, 2), (3, 4)): 1, ((1, 4), (2, 3)): 1}
    """
    if policy not in SYZYGY_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    pick = 0 if policy == "first" else -1
    out: Counter[Matching] = Counter()
    stack: list[tuple[Matching, int]] = [(m, 1)]
    while stack:
        current, mult = stack.pop()
        pairs = crossing_arc_pairs(current)
        if not pairs:
            out[current] += mult
            continue
        for branch in syzygy_step(current, pairs[pick]):
            stack.append((branch, mult))
    return dict(sorted(out.items()))


def _insert_arc(partner: tuple[int, ...], x: int,
                y: int) -> Iterator[tuple[int, ...]]:
    """Expand N·Δ_xy over noncrossing partial matchings, for a noncrossing
    partial matching N and x < y free points of N.

    N is given as its ``partner`` tuple (``partner[p]`` is the other end of
    the arc at p, 0 at a free point), and so is each state yielded; every
    state has coefficient 1.  The k arcs of N that cross (x, y) are walked
    in the order of their endpoint inside (x, y), and each of them crosses
    the chord from the current loose end, x at first, to y.  At each one
    the loose end is joined to one of its endpoints and the other endpoint
    becomes the loose end: the two smoothings of the Plücker relation.  The
    last loose end is joined to y.  The joins form one path from x to y,
    never a closed loop, so the 2^k walks give 2^k noncrossing states.
    """
    crossed = [(p, q) for p, q in enumerate(partner[x + 1:y], x + 1)
               if q and not x < q < y]
    walks: list[tuple[tuple[int, ...], int]] = [((), x)]
    for inner, outer in crossed:
        walks = [(ends + (loose, end), other)
                 for ends, loose in walks
                 for end, other in ((inner, outer), (outer, inner))]
    for ends, loose in walks:
        state = list(partner)
        ends += (loose, y)
        for k in range(0, len(ends), 2):
            p, q = ends[k], ends[k + 1]
            state[p] = q
            state[q] = p
        yield tuple(state)


def syzygy_insert(m: Matching) -> dict[Matching, int]:
    """Expand a matching over noncrossing matchings by arc insertion.

    Starting from the empty matching, the arcs of ``m`` are inserted one
    at a time by :func:`_insert_arc`, shortest first and ties by opener.
    The expansion over the noncrossing basis is unique (Rumer–Teller–Weyl),
    so the arc order does not change the result, which equals
    ``syzygy_expand(m)`` up to the order of its keys.  It changes the work:
    an arc (x, y) of a nonnesting matching crosses y - x - 1 others, so the
    expansions stay small for longer, and the rows of n = 7 and 8 take
    72,267 and 735,307 walks, against 85,552 and 814,697 in opener order.

    >>> sorted(syzygy_insert(matching([(1, 3), (2, 4)])).items())
    [(((1, 2), (3, 4)), 1), (((1, 4), (2, 3)), 1)]
    """
    # keyed by partner tuples while arcs are inserted
    expansion: dict[tuple[int, ...], int] = {(0,) * (2 * len(m) + 1): 1}
    for x, y in sorted(m, key=lambda arc: (arc[1] - arc[0], arc[0])):
        grown: dict[tuple[int, ...], int] = {}
        for partner, coeff in expansion.items():
            for state in _insert_arc(partner, x, y):
                grown[state] = grown.get(state, 0) + coeff
        expansion = grown
    return {tuple([(p, q) for p, q in enumerate(partner) if p < q]): coeff
            for partner, coeff in expansion.items()}


# ---------------------------------------------------------------------------
# numeric evaluation modulo 2^61 - 1
# ---------------------------------------------------------------------------

def sample_z(n: int, rng: random.Random) -> list[list[int]]:
    """A random 2 x 2n specialization with entries uniform over the
    residues modulo :data:`MODULUS`."""
    return [[rng.randrange(MODULUS) for _ in range(2 * n)] for _ in range(2)]


def minor(z: list[list[int]], i: int, j: int) -> int:
    """The 2 x 2 minor on columns i < j."""
    if not 1 <= i < j <= len(z[0]):
        raise ValueError(f"need 1 <= i < j <= {len(z[0])}, got ({i}, {j})")
    return z[0][i - 1] * z[1][j - 1] - z[0][j - 1] * z[1][i - 1]


def delta_product(z: list[list[int]], m: Matching) -> int:
    """Product of the arc minors of a matching."""
    result = 1
    for i, j in m:
        result *= minor(z, i, j)
    return result


class _Samples:
    """The seeded samples of one (n, trials, seed): the minor of every arc
    on every sample, and a memo of the minor products of the noncrossing
    support matchings checked so far (at most Catalan(n)), all modulo
    :data:`MODULUS`."""

    def __init__(self, n: int, trials: int, seed: int) -> None:
        rng = random.Random(seed)
        self.zs = [sample_z(n, rng) for _ in range(trials)]
        self.minors = {(i, j): tuple(minor(z, i, j) % MODULUS for z in self.zs)
                       for i, j in combinations(range(1, 2 * n + 1), 2)}
        self.support: dict[Matching, tuple[int, ...]] = {}

    def products(self, m: Matching) -> tuple[int, ...]:
        """:func:`delta_product` of ``m`` on each sample, modulo p."""
        out = (1,) * len(self.zs)
        for i, j in m:
            column = self.minors.get((i, j))
            if column is None:
                # not an arc on [2n]: minor() raises the ValueError
                column = tuple(minor(z, i, j) for z in self.zs)
            out = tuple(map(mul, out, column))
        return tuple(x % MODULUS for x in out)


def _check_support(m_prime: Matching, n: int) -> None:
    if len(m_prime) != n:
        raise ValueError(f"size mismatch in expansion support: {m_prime}")
    if not is_noncrossing(m_prime):
        raise ValueError(f"expansion support must be noncrossing: {m_prime}")


@lru_cache(maxsize=1)
def _samples(n: int, trials: int, seed: int) -> _Samples:
    return _Samples(n, trials, seed)


def verify_expansion(m: Matching, coeffs: dict[Matching, int],
                     trials: int = 20, seed: int = DEFAULT_SEED) -> bool:
    """True iff the claimed expansion matches the minor product of ``m``
    modulo p = 2^61 - 1 on ``trials`` seeded random specializations.

    The difference of the two sides is a polynomial of degree 2n in the
    entries of z.  A wrong claim whose coefficients lie far below p leaves
    it nonzero modulo p, so by Schwartz–Zippel each sample, uniform over
    the residues, misses it with probability at most 2n/p.  ``trials``
    must be at least 1, so that a pass always rests on a sample.  The
    samples, their minors and the products of support matchings already
    validated are shared with the previous call when (n, trials, seed) are
    the same; the result is what fresh samples would give.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = len(m)
    samples = _samples(n, trials, seed)
    support = samples.support
    values = list(map(support.get, coeffs))
    if None in values:
        for m_prime in coeffs:
            if m_prime not in support:
                _check_support(m_prime, n)
                support[m_prime] = samples.products(m_prime)
        values = list(map(support.__getitem__, coeffs))
    lhs = samples.products(m)
    return all(
        sum(map(mul, coeffs.values(), map(itemgetter(t), values))) % MODULUS
        == value for t, value in enumerate(lhs))
