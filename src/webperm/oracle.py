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
  noncrossing states of coefficient 1.  Each state is one packed partner
  int (:func:`partners`): field p, of w = (2n).bit_length() bits, holds
  the other end of the arc at p, 0 at a free point, so arcs are joined
  and unjoined by exact field adds and subtracts.  The expansion is
  returned keyed by these ints.  Every row starts from the empty matching
  and nothing is kept across rows.
- :func:`syzygy_expand` rewrites a whole matching, one crossing pair at a
  time, until none is left.  It has no production caller: it is the
  reference that the tests hold the insertion to.

:func:`check_rows` runs the oracle on the rows of a transition matrix
for ``matrix --verify`` and the ``oracle`` suite.  It maps each
expansion to column indices through the columns' packed partner ints; a
key that is not a column fails the row.  The reflection ρ: i ↦ 2n+1−i maps
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
``--trials``.  Each call of :func:`check_rows` draws its samples once,
from (n, trials, seed) alone, keeps only the minor of every arc on each
(:class:`_Samples`), packs each column's products on all of them into
one int, a field per sample wide enough that no sum of a row's terms
carries (:func:`_field_bytes`), and evaluates every row on them through
:meth:`_Samples.holds`, one sum of products a row; nothing is kept
between calls.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterable, Iterator
from itertools import combinations
from operator import mul

from .combinat import Matching, crossing_arc_pairs, matching

DEFAULT_SEED = 1729
# the Mersenne prime 2^61 - 1, the modulus of the numeric check
MODULUS = (1 << 61) - 1
# Samples per row in ``matrix --verify``.  A wrong row passes each with
# probability at most 2n/(2^61 - 1), so all 4 with at most (2n/(2^61 - 1))^4,
# under 10^-68 for n <= 9.
MATRIX_TRIALS = 4
# Samples drawn at a time by :class:`_Samples` before their minors are read
_BATCH = 4096


def syzygy_step(m: Matching, pair: tuple) -> tuple[Matching, Matching]:
    """Resolve one crossing pair: ({a,c},{b,d}) -> ({a,b},{c,d}) and
    ({a,d},{b,c})."""
    (a, c), (b, d) = pair
    rest = [arc for arc in m if arc != (a, c) and arc != (b, d)]
    return (matching(rest + [(a, b), (c, d)]),
            matching(rest + [(a, d), (b, c)]))


def syzygy_expand(m: Matching) -> dict[Matching, int]:
    """Expand a matching over noncrossing matchings by iterated rewriting,
    always resolving the first crossing pair in lexicographic opener order
    (the order in which :func:`~webperm.combinat.crossing_arc_pairs` lists
    them).

    >>> syzygy_expand(matching([(1, 3), (2, 4)]))
    {((1, 2), (3, 4)): 1, ((1, 4), (2, 3)): 1}
    """
    out: dict[Matching, int] = {}
    stack: list[tuple[Matching, int]] = [(m, 1)]
    while stack:
        current, mult = stack.pop()
        pairs = crossing_arc_pairs(current)
        if not pairs:
            out[current] = out.get(current, 0) + mult
            continue
        for branch in syzygy_step(current, pairs[0]):
            stack.append((branch, mult))
    return dict(sorted(out.items()))


def _insert_arc(partner: int, x: int, y: int, w: int) -> list[int]:
    """Expand N·Δ_xy over noncrossing partial matchings, for a noncrossing
    partial matching N and x < y free points of N.

    N is given as its packed partner int (:func:`partners`, ``w`` bits a
    point), and so is each state returned; every state has coefficient 1.
    The k arcs of N that cross (x, y) are walked in the order of their
    endpoint inside (x, y), and each of them crosses the chord from the
    current loose end, x at first, to y.  At each one the loose end is
    joined to one of its endpoints and the other endpoint becomes the
    loose end: the two smoothings of the Plücker relation.  The last loose
    end is joined to y.  The joins form one path from x to y, never a
    closed loop, so the 2^k walks give 2^k noncrossing states.

    The crossed arcs are unjoined once for all walks, by subtracting their
    fields.  After each crossed arc the walks fall into two groups by
    their loose end, one of its two endpoints, so each next join adds one
    int, (e << w l) + (l << w e) for loose end l and endpoint e, the same
    for its whole group.  Every add and subtract hits fields that hold
    exactly the value removed or 0, so no field borrows or carries.
    """
    fields = (1 << w) - 1
    base = partner
    crossed = []
    for p in range(x + 1, y):
        q = partner >> w * p & fields
        if q and not x < q < y:
            crossed.append((p, q))
            base -= (q << w * p) + (p << w * q)
    # the walks whose loose end is a, and those whose loose end is b
    a, at_a, b, at_b = x, [base], 0, []
    for inner, outer in crossed:
        join = (inner << w * a) + (a << w * inner)
        to_inner = [state + join for state in at_a]
        join = (outer << w * a) + (a << w * outer)
        to_outer = [state + join for state in at_a]
        if at_b:
            join = (inner << w * b) + (b << w * inner)
            to_inner += [state + join for state in at_b]
            join = (outer << w * b) + (b << w * outer)
            to_outer += [state + join for state in at_b]
        a, at_a, b, at_b = outer, to_inner, inner, to_outer
    join = (y << w * a) + (a << w * y)
    out = [state + join for state in at_a]
    if at_b:
        join = (y << w * b) + (b << w * y)
        out += [state + join for state in at_b]
    return out


def syzygy_insert(m: Matching) -> dict[int, int]:
    """Expand a matching over noncrossing matchings by arc insertion.

    Starting from the empty matching, the arcs of ``m`` are inserted one
    at a time by :func:`_insert_arc`, shortest first and ties by opener.
    The expansion is keyed by packed partner ints (see :func:`partners`),
    as the states are while arcs are inserted.  It is unique
    (Rumer–Teller–Weyl), so the arc order does not change the result,
    which is ``syzygy_expand(m)`` with each key packed.  It changes the
    work: an arc (x, y) of a nonnesting matching crosses y - x - 1 others,
    so the expansions stay small for longer, and the rows of n = 7 and 8
    take 72,267 and 735,307 walks, against 85,552 and 814,697 in opener
    order.

    Memory is bounded by two expansions, the one being grown and the one
    it grows from.  The result has at most Catalan(n) keys; on the 2,494
    rows that ``matrix 9 --verify`` inserts, at most 6,292 states are
    alive at once, and the largest result has all 4,862.  Each state is
    one int of 2n + 1 fields of (2n).bit_length() bits: 4-bit fields up to
    n = 7, 5-bit fields for n = 8..15, so at n = 9 a state is 95 bits.
    The whole oracle of n = 9 (:func:`check_rows`, without the matrix)
    peaks at 24 MiB RSS in 3.7 s (Python 3.11.7 on a 2-vCPU KVM guest).

    >>> sorted(map(oct, syzygy_insert(matching([(1, 3), (2, 4)]))))
    ['0o12340', '0o34120']
    """
    w = (2 * len(m)).bit_length()
    expansion: dict[int, int] = {0: 1}
    for x, y in sorted(m, key=lambda arc: (arc[1] - arc[0], arc[0])):
        grown: dict[int, int] = {}
        for partner, coeff in expansion.items():
            for state in _insert_arc(partner, x, y, w):
                grown[state] = grown.get(state, 0) + coeff
        expansion = grown
    return expansion


def partners(m: Matching) -> int:
    """The packed partner int of a matching on [2n]: field p, the bits
    w p up to w (p + 1) for w = (2n).bit_length(), holds the other end of
    the arc at p, and field 0 is 0.  For n = 2 and 3, w = 3 and the fields
    are the octal digits.

    >>> oct(partners(matching([(1, 4), (2, 3)])))
    '0o12340'
    """
    w = (2 * len(m)).bit_length()
    return sum((q << w * p) + (p << w * q) for p, q in m)


def reflect(partner: int, n: int) -> int:
    """The image of the packed partner int of a perfect matching on [2n]
    under ρ: i ↦ 2n+1−i.

    >>> oct(reflect(partners(matching([(1, 2), (3, 5), (4, 6)])), 3))
    '0o5621430'
    """
    w = (2 * n).bit_length()
    fields = (1 << w) - 1
    end = 2 * n + 1
    return sum(end - (partner >> w * p & fields) << w * (end - p)
               for p in range(1, end))


def reflection(keys: list[int], n: int) -> list[int]:
    """The permutation of indices that ρ induces on a list of packed
    partner ints of size n closed under ρ: entry k is the index of
    ``reflect(keys[k], n)``."""
    index = {key: k for k, key in enumerate(keys)}
    return [index[reflect(key, n)] for key in keys]


# ---------------------------------------------------------------------------
# numeric evaluation modulo 2^61 - 1
# ---------------------------------------------------------------------------

def sample_z(n: int, rng: random.Random) -> list[list[int]]:
    """A random 2 x 2n specialization with entries uniform over the
    residues modulo :data:`MODULUS`."""
    return [[rng.randrange(MODULUS) for _ in range(2 * n)] for _ in range(2)]


def _field_bytes(terms: int) -> int:
    """Bytes per sample field of a packed sum of ``terms`` products c·Δ.

    Every c and Δ is reduced below p < 2^61, so each product is below
    2^122 and the sum below terms · 2^122 < 2^(122 + terms.bit_length()):
    a field of that many bits, rounded up to whole bytes, never carries
    into the next.
    """
    return (122 + terms.bit_length() + 7) // 8


class _Samples:
    """The minor z[0][i]·z[1][j] - z[0][j]·z[1][i] of every arc (i, j) on
    each seeded sample z of one (n, trials, seed), modulo :data:`MODULUS`.
    ``trials`` must be at least 1, so that a pass always rests on a sample.

    The samples are drawn :data:`_BATCH` at a time, in the order of one
    ``random.Random(seed)``, and each batch is dropped once its minors
    are read off.  Each arc keeps its minors in an ``array('Q')``, 8 bytes
    a sample, as every minor is below 2^61: ``verify --trials 100000`` at
    n = 5 holds 45 arrays of 800 kB.
    """

    def __init__(self, n: int, trials: int, seed: int) -> None:
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        rng = random.Random(seed)
        self.trials = trials
        arcs = list(combinations(range(2 * n), 2))
        self.minors = {(i + 1, j + 1): array("Q") for i, j in arcs}
        for start in range(0, trials, _BATCH):
            zs = [sample_z(n, rng) for _ in range(min(_BATCH, trials - start))]
            for (i, j), column in zip(arcs, self.minors.values()):
                column.extend([(top[i] * bottom[j] - top[j] * bottom[i])
                               % MODULUS for top, bottom in zs])

    def products(self, m: Matching) -> tuple[int, ...]:
        """The product of the minors of the arcs of ``m`` on each sample,
        modulo p.  The arcs' columns are multiplied through one chain of
        ``map``s, so no sample's partial product is stored."""
        if not m:
            return (1,) * self.trials
        out = self.minors[m[0]]
        for arc in m[1:]:
            out = map(mul, out, self.minors[arc])
        return tuple(map(MODULUS.__rmod__, out))

    def pack(self, support: Iterable[Matching]) -> list[int]:
        """The :meth:`products` of each matching of ``support``, in order,
        packed into one int each: sample t in field t, little-endian, of
        :func:`_field_bytes` of the support's size.  Each column is
        encoded in one pass, one ``to_bytes`` a sample and one
        ``from_bytes`` in all."""
        support = list(support)
        size = _field_bytes(len(support))
        return [int.from_bytes(b"".join(v.to_bytes(size, "little")
                                        for v in self.products(m)), "little")
                for m in support]

    def holds(self, m: Matching, coeffs: dict[int, int],
              packed: list[int]) -> bool:
        """True iff Δ_m = sum of c·Δ_k over (k, c) in ``coeffs`` modulo p on
        every sample, where ``packed[k]`` is Δ_k on every sample as
        :meth:`pack` packs it.

        Each c is reduced modulo p, and the keys are distinct indices into
        ``packed``, so one sum of products adds the claim on every sample
        at once with no carry between fields (:func:`_field_bytes`).  Its
        fields are read back in one pass, one ``to_bytes`` and one
        ``from_bytes`` a field, never by repeated shifts, which would cost
        time quadratic in the samples.
        """
        size = _field_bytes(len(packed))
        total = sum(map(mul, map(MODULUS.__rmod__, coeffs.values()),
                        map(packed.__getitem__, coeffs)))
        raw = total.to_bytes(size * self.trials, "little")
        return all(int.from_bytes(raw[k:k + size], "little") % MODULUS
                   == value for k, value in zip(range(0, len(raw), size),
                                                self.products(m)))


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
    n = len(cols[0])
    samples = _Samples(n, trials, seed)
    column_of = {partners(c): k for k, c in enumerate(cols)}
    mirror_col = reflection(list(column_of), n)
    mirror_row = reflection(list(map(partners, rows)), n)
    packed = samples.pack(cols)

    def sampled(r: int, coeffs: dict[int, int] | None) -> bool:
        return coeffs is not None and samples.holds(rows[r], coeffs, packed)

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
