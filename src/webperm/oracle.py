"""Independent verification path: the expansion of a matching's minor
product over the noncrossing basis, and the numeric check of a matrix's
rows.

The minors obey the Plücker relation Δ_ac·Δ_bd = Δ_ab·Δ_cd + Δ_ad·Δ_bc
(a < b < c < d), which rewrites a crossing pair of arcs into its two
uncrossed pairs.  The expansion over noncrossing matchings is unique
(Rumer–Teller–Weyl), so any order of rewriting reaches it.  Two
constructions compute it:

- :func:`check_rows`, the production path, walks down from the staircase
  by adjacent transpositions.  Swapping columns i and i + 1 takes Δ_M to
  Δ_{s_i M} when M does not join i to i + 1.  It takes Δ_w, w
  noncrossing, to -Δ_w if w joins them, and else to Δ_w + Δ_{e_i w} by
  one Plücker relation, e_i w joining i to i + 1 and their old partners
  to each other (:func:`_transpose`).  Lowering a peak NE at points
  (i, i + 1) of a Dyck path to EN swaps i and i + 1 in its nonnesting
  matching, so the rows form a tree rooted at the staircase "NE"^n, whose
  row is its own column: a path's parent lowers its first peak above
  height 1 (:func:`_parent`).  Each term is one packed partner int
  (:func:`partners`), so e_i is four exact field adds.  It takes only
  the rows: the columns are the noncrossing matchings of their size, in
  table order, the columns of every transition matrix of that size.
- :func:`syzygy_expand` rewrites a whole matching, one crossing pair at a
  time, until none is left.  It has no production caller: it is the
  reference that the tests hold the walk to.

The numeric check, :func:`refuted_rows`, needs no expansion: it samples
the identity Δ_M = sum of a[M][M'] Δ_M' on the printed row itself, at
seeded random specializations uniform over the residues modulo the prime
2^61 - 1, and names each row it refutes.  The noncrossing products Δ_M'
are a basis (Rumer–Teller–Weyl), so a wrong row passes a sample with
probability at most 2n/(2^61 - 1) (Schwartz–Zippel).  ``matrix --verify``
runs it on every row with :data:`MATRIX_TRIALS` samples, the ``oracle``
suite with ``--trials``.  The row then has two certificates, the exact
walk and the numeric identity, and neither rests on the other.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterator, Sequence
from itertools import chain, combinations, compress, starmap
from operator import mul

from .combinat import (
    Matching,
    crossing_arc_pairs,
    dyck_of_matching,
    enumerate_matchings,
    is_nonnesting,
    m0,
    matching,
)

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


def _parent(path: str) -> tuple[str, int] | None:
    """A Dyck path's parent in the walk of :func:`check_rows`, and the point
    i where they differ: its first peak above height 1, N at i and E at
    i + 1, lowered to EN.  The staircase, all peaks at height 1, has none.

    >>> _parent("NNEENE"), _parent("NENENE")
    (('NENENE', 2), None)
    """
    height = 0
    for i, (step, after) in enumerate(zip(path, path[1:]), start=1):
        height += 1 if step == "N" else -1
        if height > 1 and step + after == "NE":
            return f"{path[:i - 1]}EN{path[i + 1:]}", i
    return None


def _transpose(row: dict[int, int], i: int, w: int) -> dict[int, int]:
    """The expansion of s_i M from that of M, for M not joining i to i + 1,
    each keyed by packed partner ints of ``w``-bit fields.  A term w of
    coefficient a gives -a to w if w joins i to i + 1, and else a to w and
    a to e_i w, which joins i to i + 1 and their old partners p and q by
    four field adds.  Terms that cancel are dropped; only one holding
    (i, i + 1) can, since every coefficient on the walk is positive.

    >>> staircase = {partners(matching([(1, 2), (3, 4)])): 1}
    >>> sorted(map(oct, _transpose(staircase, 2, 3)))
    ['0o12340', '0o34120']
    """
    fields = (1 << w) - 1
    here, there = w * i, w * (i + 1)
    # every term gives a to itself, and one holding (i, i + 1) takes 2a back
    out = row.copy()
    held = []
    for key, a in row.items():
        p = key >> here & fields
        if p == i + 1:
            out[key] -= 2 * a
            held.append(key)
        else:
            q = key >> there & fields
            joined = (key + (i + 1 - p << here) + (i - q << there)
                      + (q - i << w * p) + (p - i - 1 << w * q))
            out[joined] = out.get(joined, 0) + a
    for key in held:
        if not out[key]:
            del out[key]
    return out


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


def check_rows(rows: Sequence[Matching]
               ) -> Iterator[tuple[int, dict[int, int] | None]]:
    """The exact expansion of each nonnesting row of a transition matrix
    over its columns, the noncrossing matchings of the rows' size in table
    order, by the walk of the module docstring.

    Yields (r, expansion) once for each row index r, in walk order: the
    expansion of ``rows[r]`` keyed by column index, or None if a key is no
    column or the row's parent chain misses the staircase.  Only the
    parent chains of ``rows`` are walked, one :func:`_transpose` per edge:
    Catalan(n) - 1 for all rows, C(n, 2) for the top row alone.  A child
    is transposed from its parent when it is popped, so at most
    C(n, 2) + 1 expansions are alive.
    """
    n = len(rows[0]) if rows else 0
    w = (2 * n).bit_length()
    column_of = {partners(c): k
                 for k, c in enumerate(enumerate_matchings(n, "NC"))}
    wanted: dict[str, list[int]] = {}
    children: dict[str, list[tuple[str, int]]] = {}
    linked = set()
    for r, m in enumerate(rows):
        if not is_nonnesting(m):
            raise ValueError(f"row {m} is not nonnesting")
        path = dyck_of_matching(m)
        wanted.setdefault(path, []).append(r)
        while path not in linked and (up := _parent(path)):
            linked.add(path)
            children.setdefault(up[0], []).append((path, up[1]))
            path = up[0]
    stack = [("NE" * n, None, 0)]
    while stack:
        path, row, i = stack.pop()
        row = _transpose(row, i, w) if i else {partners(m0(n)): 1}
        for r in wanted.pop(path, ()):
            try:
                coeffs = {column_of[key]: a for key, a in row.items()}
            except KeyError:
                coeffs = None
            yield r, coeffs
        stack.extend((child, row, j) for child, j in children.pop(path, ()))
    for r in chain.from_iterable(wanted.values()):
        yield r, None
