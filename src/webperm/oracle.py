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
  noncrossing states of coefficient 1.  The states are partner tuples
  (entry p is the other end of the arc at p, 0 at a free point), and the
  expansion is returned keyed by them.  Every row starts from the empty
  matching and nothing is kept across rows.
- :func:`syzygy_expand` rewrites a whole matching, one crossing pair at a
  time, until none is left.  It is the reference that the tests hold the
  insertion to.

:func:`check_rows` runs the oracle on the rows of a transition matrix
for ``matrix --verify`` and the ``oracle`` suite.  It maps each
expansion to column indices through the columns' partner tuples; a key
that is not a column fails the row.  The reflection ρ: i ↦ 2n+1−i maps
crossings to crossings and smoothings to smoothings, so the expansion of
ρM is ρ of the expansion of M, and one insertion serves the orbit
{M, ρM}: ρM reads the coefficients at the columns ρ permutes them to.
That is 232 insertions for the 429 rows of n = 7 and 2,494 for the
4,862 of n = 9.  Each row is still compared with its own matrix row and
sampled on its own expansion, so a wrong expansion names every row it
reaches, and a fault in the pairing or in the column map is caught too.

The rewriting never touches polynomials; the numeric check evaluates the
identity Δ_M = sum of c(M') Δ_M' at seeded random specializations,
uniform over the residues modulo the prime 2^61 - 1, one row at a time,
so a failure names its row.  A wrong expansion passes a sample with
probability at most 2n/(2^61 - 1).  ``matrix --verify`` runs it on every
row with :data:`MATRIX_TRIALS` samples, the ``oracle`` suite with
``--trials``; :func:`verify_expansion` is the same check on one
``Matching``-keyed expansion.  Each call draws its samples once, from
(n, trials, seed) alone, and evaluates every row on them through
:meth:`_Samples.holds`; nothing is kept between calls.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable, Iterator
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


def syzygy_insert(m: Matching) -> dict[tuple[int, ...], int]:
    """Expand a matching over noncrossing matchings by arc insertion.

    Starting from the empty matching, the arcs of ``m`` are inserted one
    at a time by :func:`_insert_arc`, shortest first and ties by opener.
    The expansion is keyed by partner tuples (see :func:`partners`), as
    the states are while arcs are inserted.  It is unique
    (Rumer–Teller–Weyl), so the arc order does not change the result,
    which is ``syzygy_expand(m)`` with each key in its partner tuple.  It
    changes the work: an arc (x, y) of a nonnesting matching crosses
    y - x - 1 others, so the expansions stay small for longer, and the rows
    of n = 7 and 8 take 72,267 and 735,307 walks, against 85,552 and
    814,697 in opener order.

    Memory is bounded by two expansions, the one being grown and the one
    it grows from.  The result has at most Catalan(n) keys; on the 2,494
    rows that ``matrix 9 --verify`` inserts, at most 6,292 states are
    alive at once, and the largest result has all 4,862.  The whole oracle
    of n = 9 (:func:`check_rows`, without the matrix) peaks at 26 MiB RSS
    in 16.5 s (Python 3.11.7 on a 2-vCPU KVM guest).

    >>> sorted(syzygy_insert(matching([(1, 3), (2, 4)])).items())
    [((0, 2, 1, 4, 3), 1), ((0, 4, 3, 2, 1), 1)]
    """
    expansion: dict[tuple[int, ...], int] = {(0,) * (2 * len(m) + 1): 1}
    for x, y in sorted(m, key=lambda arc: (arc[1] - arc[0], arc[0])):
        grown: dict[tuple[int, ...], int] = {}
        for partner, coeff in expansion.items():
            for state in _insert_arc(partner, x, y):
                grown[state] = grown.get(state, 0) + coeff
        expansion = grown
    return expansion


def partners(m: Matching) -> tuple[int, ...]:
    """The partner tuple of a matching on [2n]: entry p is the other end of
    the arc at p, and entry 0 is 0.

    >>> partners(matching([(1, 4), (2, 3)]))
    (0, 4, 3, 2, 1)
    """
    out = [0] * (2 * len(m) + 1)
    for p, q in m:
        out[p] = q
        out[q] = p
    return tuple(out)


def reflect(partner: tuple[int, ...]) -> tuple[int, ...]:
    """The image of a perfect matching's partner tuple under ρ: i ↦ 2n+1−i.

    >>> reflect(partners(matching([(1, 2), (3, 5), (4, 6)])))
    (0, 3, 4, 1, 2, 6, 5)
    """
    end = len(partner)
    return (0, *[end - q for q in reversed(partner[1:])])


def reflection(keys: list[tuple[int, ...]]) -> list[int]:
    """The permutation of indices that ρ induces on a list of partner
    tuples closed under ρ: entry k is the index of ``reflect(keys[k])``."""
    index = {key: k for k, key in enumerate(keys)}
    return [index[reflect(key)] for key in keys]


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
    """The seeded samples of one (n, trials, seed) and the minor of every
    arc on each, modulo :data:`MODULUS`.  ``trials`` must be at least 1, so
    that a pass always rests on a sample."""

    def __init__(self, n: int, trials: int, seed: int) -> None:
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        rng = random.Random(seed)
        self.zs = [sample_z(n, rng) for _ in range(trials)]
        # :func:`minor` of every arc, read straight off the sample rows
        self.minors = {(i + 1, j + 1): tuple((top[i] * bottom[j]
                                              - top[j] * bottom[i]) % MODULUS
                                             for top, bottom in self.zs)
                       for i, j in combinations(range(2 * n), 2)}

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

    def by_sample(self, support: Iterable[Matching]
                  ) -> list[tuple[int, ...]]:
        """Per sample, the :meth:`products` of each matching of ``support``
        in order."""
        columns = list(map(self.products, support))
        return [tuple(map(itemgetter(t), columns)) for t in range(len(self.zs))]

    def holds(self, m: Matching, coeffs: dict[int, int],
              by_sample: list[tuple[int, ...]]) -> bool:
        """True iff Δ_m = sum of c·Δ_k over (k, c) in ``coeffs`` modulo p on
        every sample, where ``by_sample[t][k]`` is Δ_k on sample t."""
        return all(
            sum(map(mul, coeffs.values(), map(products.__getitem__, coeffs)))
            % MODULUS == value
            for products, value in zip(by_sample, self.products(m)))


def _check_support(m_prime: Matching, n: int) -> None:
    if len(m_prime) != n:
        raise ValueError(f"size mismatch in expansion support: {m_prime}")
    if not is_noncrossing(m_prime):
        raise ValueError(f"expansion support must be noncrossing: {m_prime}")


def verify_expansion(m: Matching, coeffs: dict[Matching, int],
                     trials: int = 20, seed: int = DEFAULT_SEED) -> bool:
    """True iff the claimed expansion matches the minor product of ``m``
    modulo p = 2^61 - 1 on ``trials`` seeded random specializations.

    The difference of the two sides is a polynomial of degree 2n in the
    entries of z.  A wrong claim whose coefficients lie far below p leaves
    it nonzero modulo p, so by Schwartz–Zippel each sample, uniform over
    the residues, misses it with probability at most 2n/p.  ``trials``
    must be at least 1, so that a pass always rests on a sample.
    """
    n = len(m)
    samples = _Samples(n, trials, seed)
    for m_prime in coeffs:
        _check_support(m_prime, n)
    return samples.holds(m, dict(enumerate(coeffs.values())),
                         samples.by_sample(coeffs))


def check_rows(rows: tuple[Matching, ...], cols: tuple[Matching, ...],
               trials: int, seed: int
               ) -> Iterator[tuple[int, dict[int, int] | None, bool]]:
    """The oracle's verdicts on the rows of a transition matrix, one ρ-orbit
    of rows at a time (see the module docstring); ``rows`` and ``cols``
    must each be closed under ρ.

    Yields (r, expansion, sampled) once for each row index r.  The
    expansion is that of ``rows[r]`` over column indices, or None if a key
    is not a column (no noncrossing perfect matching on [2n]).  ``sampled``
    is the numeric check of Δ_M = sum of c(M') Δ_M' on the ``trials``
    samples of (n, trials, seed), drawn once per call, and an expansion of
    None fails it.  The row of each orbit first in ``rows`` is inserted;
    its mirror reads the same coefficients at the columns ρ permutes them
    to.
    """
    samples = _Samples(len(cols[0]), trials, seed)
    column_of = {partners(c): k for k, c in enumerate(cols)}
    mirror_col = reflection(list(column_of))
    mirror_row = reflection(list(map(partners, rows)))
    by_sample = samples.by_sample(cols)

    def sampled(r: int, coeffs: dict[int, int] | None) -> bool:
        return coeffs is not None and samples.holds(rows[r], coeffs, by_sample)

    # each row is yielded once, whatever the pairing
    seen = bytearray(len(rows))
    for r, mirror in enumerate(mirror_row):
        if seen[r]:
            continue
        seen[r] = 1
        try:
            coeffs = {column_of[p]: c
                      for p, c in syzygy_insert(rows[r]).items()}
        except KeyError:
            coeffs = None
        yield r, coeffs, sampled(r, coeffs)
        if not seen[mirror]:
            seen[mirror] = 1
            if coeffs is not None:
                coeffs = dict(zip(map(mirror_col.__getitem__, coeffs),
                                  coeffs.values()))
            yield mirror, coeffs, sampled(mirror, coeffs)
