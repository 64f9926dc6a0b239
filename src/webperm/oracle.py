"""Independent verification path: the expansion of a matching's minor
product over the noncrossing basis, and the numeric check of a matrix's
rows.

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
for ``matrix --verify`` and the ``oracle`` suite, which compare each
expansion with its printed row.  It maps each expansion to column
indices through the columns' packed partner ints; a key that is not a
column fails the row.  The reflection ρ: i ↦ 2n+1−i maps crossings to
crossings and smoothings to smoothings, so the expansion of ρM is ρ of
the expansion of M, and one insertion serves the orbit {M, ρM}: ρM reads
the coefficients at the columns ρ permutes them to.  That is 232
insertions for the 429 rows of n = 7 and 2,494 for the 4,862 of n = 9.
Each row is still compared with its own matrix row, so a wrong expansion
names every row it reaches, and a fault in the pairing or in the column
map is caught too.

The numeric check, :func:`refuted_rows`, needs no expansion: it samples
the identity Δ_M = sum of a[M][M'] Δ_M' on the printed row itself, at
seeded random specializations uniform over the residues modulo the prime
2^61 - 1, and names each row it refutes.  The noncrossing products Δ_M'
are a basis (Rumer–Teller–Weyl), so a wrong row passes a sample with
probability at most 2n/(2^61 - 1) (Schwartz–Zippel).  ``matrix --verify``
runs it on every row with :data:`MATRIX_TRIALS` samples, the ``oracle``
suite with ``--trials``.  The row then has two certificates, the exact
insertion and the numeric identity, and neither rests on the other.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterator
from itertools import combinations, compress, starmap
from operator import mul

from .combinat import Matching, crossing_arc_pairs, matching

DEFAULT_SEED = 1729
# the Mersenne prime 2^61 - 1, the modulus of the numeric check
MODULUS = (1 << 61) - 1
# Samples per row in ``matrix --verify``.  A wrong row passes each with
# probability at most 2n/(2^61 - 1), so all 4 with at most (2n/(2^61 - 1))^4,
# under 10^-68 for n <= 9.
MATRIX_TRIALS = 4
# Samples drawn at a time by :func:`_minor_batches`
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
    The insertions of n = 9 (:func:`check_rows`, without the matrix) peak
    at 23 MiB RSS in 4.9-5.7 s (Python 3.11.7 on a loaded 2-vCPU KVM
    guest).

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


def _field_bytes(terms: int, itemsize: int) -> int:
    """Bytes per sample field of a packed sum of ``terms`` products c·Δ,
    each c an entry of an unsigned array of ``itemsize`` bytes.

    Every Δ is reduced below p < 2^61 and every c is below 2^(8 itemsize),
    so the sum is below terms · 2^(61 + 8 itemsize) <
    2^(61 + 8 itemsize + terms.bit_length()): a field of that many bits,
    rounded up to whole bytes, never carries into the next.
    """
    return (61 + 8 * itemsize + terms.bit_length() + 7) // 8


def _minor_batches(n: int, trials: int, seed: int
                   ) -> Iterator[tuple[int, dict[tuple[int, int], list[int]]]]:
    """The seeded samples z of (n, trials, seed), :data:`_BATCH` at a time
    in the order of one ``random.Random(seed)``, as (samples in the batch,
    the minor z[0][i]·z[1][j] - z[0][j]·z[1][i] modulo :data:`MODULUS` of
    every arc (i, j) on each).  ``trials`` must be at least 1, so that a
    pass always rests on a sample."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    arcs = list(combinations(range(2 * n), 2))
    for start in range(0, trials, _BATCH):
        zs = [sample_z(n, rng) for _ in range(min(_BATCH, trials - start))]
        # bound to no name here, so that the caller's del drops it
        yield len(zs), {(i + 1, j + 1): [(top[i] * bottom[j]
                                          - top[j] * bottom[i]) % MODULUS
                                         for top, bottom in zs]
                        for i, j in arcs}
        del zs


def refuted_rows(a, trials: int, seed: int) -> list[int]:
    """The indices, in row order, of the rows of a transition matrix ``a``
    that the numeric identity Δ_M = sum over columns c of a[M][c]·Δ_c
    refutes modulo p on the ``trials`` seeded samples of (n, trials,
    seed).  ``a`` has ``rows``, ``cols`` and ``entries``, each row an
    unsigned ``array`` over the columns; the check reads nothing else.
    A row that is no ``array``, a sequence of ints of any sign or size
    such as a claimed row that no unsigned array holds, is first reduced
    modulo p into one, since the identity is only checked modulo p.

    The samples come from :func:`_minor_batches`.  On each batch, each
    column's minor products are packed into one int, a field per sample
    of :func:`_field_bytes` of the columns and the rows' widest itemsize,
    so that a row is one sum of products over its nonzeros with no carry
    between fields, read back one field at a time; the batch is then
    dropped.  A row refuted by a batch is not evaluated again.  So memory
    is bounded by one batch: columns × :data:`_BATCH` fields, and the
    samples and the minor of every arc on each.  Cold, ``verify --suite
    oracle --max-n 5 --trials 100000`` peaks at 34 MiB RSS, where holding
    every sample took 150 MiB; at n = 9 with :data:`MATRIX_TRIALS` it
    takes 1.2 s (Python 3.11.7 on a 2-vCPU KVM guest).
    """
    n = len(a.cols[0])
    entries = [row if isinstance(row, array)
               else array("Q", [v % MODULUS for v in row])
               for row in a.entries]
    size = _field_bytes(len(a.cols), max(row.itemsize for row in entries))
    refuted = set()
    for count, minors in _minor_batches(n, trials, seed):
        def products(m: Matching) -> Iterator[int]:
            out = [1] * count
            for arc in m:
                out = map(mul, out, minors[arc])
            return map(MODULUS.__rmod__, out)
        packed = [int.from_bytes(b"".join(v.to_bytes(size, "little")
                                          for v in products(c)), "little")
                  for c in a.cols]
        for r, (m, row) in enumerate(zip(a.rows, entries)):
            if r in refuted:
                continue
            total = sum(starmap(mul, compress(zip(row, packed), row)))
            raw = total.to_bytes(size * count, "little")
            if not all(int.from_bytes(raw[k:k + size], "little") % MODULUS
                       == v for k, v in zip(range(0, len(raw), size),
                                            products(m))):
                refuted.add(r)
        # dropped before the next batch is drawn
        del minors, packed
    return sorted(refuted)


def check_rows(rows: tuple[Matching, ...], cols: tuple[Matching, ...]
               ) -> Iterator[tuple[int, dict[int, int] | None]]:
    """The exact expansion of each row of a transition matrix over its
    columns, one insertion per ρ-orbit of rows (see the module docstring);
    ``rows`` and ``cols`` must each be closed under ρ.

    Yields (r, expansion) once for each row index r: the expansion of
    ``rows[r]`` keyed by column index, or None if a key is not a column (no
    noncrossing perfect matching on [2n]).  The row of each orbit first in
    ``rows`` is inserted; its mirror reads the same coefficients at the
    columns ρ permutes them to.
    """
    n = len(cols[0])
    column_of = {partners(c): k for k, c in enumerate(cols)}
    mirror_col = reflection(list(column_of), n)
    mirror_row = reflection(list(map(partners, rows)), n)
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
        yield r, coeffs
        if not seen[mirror]:
            seen[mirror] = 1
            if coeffs is not None:
                coeffs = dict(zip(map(mirror_col.__getitem__, coeffs),
                                  coeffs.values()))
            yield mirror, coeffs
