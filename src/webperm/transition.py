"""The transition matrix between nonnesting and noncrossing matchings.

Rows are indexed by nonnesting matchings, columns by noncrossing ones,
both sorted in table order of their Dyck paths (maximum path first, see
:func:`webperm.combinat.dyck_sort_key`).  With that ordering the matrix is
upper-unitriangular.  Both labels are the Catalan(n) Dyck paths of length
2n, so they follow from n: a :class:`TransitionMatrix` is n and its
entries, and builds its labels only when they are read.  The DAG and
the support check find each column by its place in
:func:`~webperm.combinat.dyck_paths`, and the CSV and LaTeX exports and
the JSON text of the entries read only the entries.

The entry of row M and column M' counts web permutations sigma with
D(sigma) contained in D(M) and traced matching M'.  :func:`matrix`
evaluates this by counting the web permutations of the Andre-cycle
construction by the Dyck paths of D(sigma) and M(sigma), which one key
pass, :func:`webperm.combinat.dyck_keys`, reads off the stream, into
counts C[p][M'], and summing them over the Dyck lattice with
a zeta transform, F(q) = sum of C[p] over p <= q, so that row M is
F(D(M)).  No entry of column M' exceeds the number of web permutations
traced to M', so each row is an unsigned ``array.array`` of the narrowest
typecode that holds the largest of these column totals
(:func:`row_typecode`): 155 at n = 9 and 608 at n = 10, so ``B``, one
byte an entry, through n = 9, where the 4,862 rows take 24 MB, and ``H``
at n = 10.  The transform keeps a row as one integer while it sums it,
one column to a field of that width, so each sum is one big-integer add.

A second construction, :func:`resolution_refuted_rows`, checks a printed
matrix against resolution of the grid configuration of every row at
once, as a DAG: a state (sigma, mask of unresolved crossings) is keyed by
sigma as bytes and its mask.  One recursion steps each state once however
many rows reach it and numbers it after its children; a second sums its
value, a row packed the same way, and frees it on its last read.  Each
root's value is compared with its printed row packed into one integer as
soon as it is summed, and its count of terminals with the row's sum, so
no second matrix is built.  The counts come from the Andre-cycle
construction, not from the grid, and both must also agree with the
expansion of :mod:`webperm.oracle`, which never touches the grid.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

from .andre import andre_cycle_permutations
from .combinat import (
    Matching,
    _join_decimal,
    ballot_count,
    dyck_heights,
    dyck_keys,
    dyck_leq,
    dyck_paths,
    enumerate_matchings,
    lehmer_path,
)
from .grid import (
    State,
    _step,
    pick_top_left,
    row_roots,
)


@dataclass(frozen=True)
class TransitionMatrix:
    """The transition matrix of size ``n``: its ``entries``, one row per
    Dyck path of length 2n in table order, and a column per path too.

    The labels follow from ``n``: ``rows`` are the nonnesting matchings
    and ``cols`` the noncrossing ones, each built on its first read and
    kept.  The exports never read them; read after :func:`matrix`, the two
    take 1.28 MiB at n = 8 and 5.68 MiB at n = 9, by ``tracemalloc``.
    """

    n: int
    # array.array rows from matrix, which resolution_refuted_rows needs;
    # the other checks and the exporters take any sequences of ints
    entries: tuple[Sequence[int], ...]

    @cached_property
    def rows(self) -> tuple[Matching, ...]:
        return tuple(row_labels(self.n))

    @cached_property
    def cols(self) -> tuple[Matching, ...]:
        return tuple(col_labels(self.n))


def row_labels(n: int) -> list[Matching]:
    """Nonnesting matchings in table order."""
    return enumerate_matchings(n, "NN")


def col_labels(n: int) -> list[Matching]:
    """Noncrossing matchings in table order."""
    return enumerate_matchings(n, "NC")


def row_typecode(bound: int) -> str:
    """The narrowest unsigned ``array`` typecode whose items hold 0..bound.

    >>> row_typecode(255), row_typecode(256), row_typecode(50521)
    ('B', 'H', 'H')
    """
    for code in "BHIQ":
        if bound < 1 << 8 * array(code).itemsize:
            return code
    raise OverflowError(f"no array typecode holds {bound}")


def matrix(n: int) -> TransitionMatrix:
    """The full transition matrix, entries by the characterization.

    One pass over the Andre-cycle construction counts its web
    permutations by two keys, the Dyck paths of D(sigma) and of M(sigma),
    both read by :func:`~webperm.combinat.dyck_keys` off memoized halves
    of sigma: 0.03 s of the 0.06 s of this call at n = 8, where reading
    each sigma's keys apart took 0.05 of 0.08 s (in process, median of
    21, Python 3.11.7 on a 2-vCPU KVM guest).  The position of M's path in
    :func:`~webperm.combinat.dyck_paths` is its column, and no matching is
    built per sigma.  Those counts are C[p][M'], one row per Dyck path p.
    A zeta transform over the Dyck lattice (paths as column-height
    vectors, ordered pointwise) then sums them into F(q) = sum of C[p]
    over p <= q, and row M is F(D(M)).

    The transform runs one pass per coordinate k = 1..n.  F_k(q) sums C[p]
    over the p <= q that agree with q after coordinate k, so F_0 = C and
    F_n = F.  Splitting on p_k gives

        F_k(q) = F_{k-1}(q) + F_k(q|k)    when q_k - 1 >= k,

    and F_k(q) = F_{k-1}(q) otherwise.  Here q|k is q with coordinate k
    lowered by 1 and each earlier coordinate clamped to min(q_j, q_k - 1):
    heights never decrease, so every p with p_k < q_k lies under q|k.

    Each C[p] is a zero row of the :func:`row_typecode` of the largest
    column total, the most web permutations traced to one noncrossing
    matching, w bits an item, and is packed into one integer through the
    native byte order, one column to a field of w bits, so each step of
    the transform is one big-integer add.  No add carries out of a field:
    column c's field of every F_k(q) sums nonnegative C[p][c] over a
    subset of the paths, so it counts a subset of the web permutations
    traced to column c, at most that column's total < 2^w.  Each F(q) is
    unpacked into a copy of the zero row: ``B`` through n = 9, where the
    rows take 24 MB.
    """
    paths = dyck_paths(n)
    column = {p: k for k, p in enumerate(paths)}
    keys = Counter((d, word) for _, d, word
                   in dyck_keys(andre_cycle_permutations(n)))
    totals: Counter[str] = Counter()
    for (_, word), count in keys.items():
        totals[word] += count
    zeros = array(row_typecode(max(totals.values())), [0]) * len(paths)
    counts = {p: zeros[:] for p in paths}
    for (d, word), count in keys.items():
        counts[d][column[word]] += count
    del keys
    heights = [dyck_heights(p) for p in paths]
    acc = {q: int.from_bytes(counts.pop(p), sys.byteorder)
           for p, q in zip(paths, heights)}
    # Reverse table order is a linear extension of the lattice order, so
    # q|k has finished its pass before q reads it.  k counts from 0 here;
    # the last coordinate is always n and never lowers.
    for k in range(n - 1):
        for q in reversed(heights):
            top = q[k] - 1
            if top > k:
                lower = tuple(min(h, top) for h in q[:k]) + (top,) + q[k + 1:]
                acc[q] += acc[lower]
    size = len(zeros) * zeros.itemsize
    entries = []
    for q in heights:
        row = zeros[:]
        # filled in place: array.frombytes over-allocates, 5,248 bytes a row
        # at n = 9 against 4,942 for this copy
        memoryview(row).cast("B")[:] = acc.pop(q).to_bytes(size, sys.byteorder)
        entries.append(row)
    return TransitionMatrix(n, tuple(entries))


def _key(state: State) -> tuple[bytes, int]:
    """A resolution state as its memo key: sigma as bytes, and the mask of
    its unresolved crossings as it is."""
    sigma, unresolved = state
    return bytes(sigma), unresolved


def _take(values: dict[int, int], reads: list[int], s: int) -> int:
    """One read of the value of state ``s``.

    ``reads[s]`` counts the reads left; the last one removes the value
    from ``values``.
    """
    reads[s] -= 1
    if reads[s]:
        return values[s]
    return values.pop(s)


def resolution_refuted_rows(a: TransitionMatrix) -> list[int]:
    """The indices, in row order, of the rows of ``a`` that resolving the
    row configurations refutes.  Each row of ``a.entries`` is an unsigned
    ``array`` of one typecode over the columns, as :func:`matrix` gives
    them.

    Row M should be the column count of the web permutations that
    resolving its root G(id, cells above D(M)) ends in, each traced to its
    column M(sigma).  A state (sigma, unresolved crossings) determines its
    whole subtree, and the subtrees of different rows meet, so the
    resolution runs as one DAG over the distinct states of all rows.

    ``number`` steps a state with :func:`~webperm.grid._step` at
    :func:`~webperm.grid.pick_top_left` the first time its :func:`_key` is
    seen, numbers its children and then it (post-order), and records the
    children's numbers, or, for a terminal, its sigma's column, looked up
    by the Dyck path of M(sigma) that
    :func:`~webperm.combinat.lehmer_path` reads off sigma.  It counts
    one read per parent and one per row whose root it is.  ``value`` sums
    a state on its first read and :func:`_take` frees it on its last, a
    root's once it is compared with its printed row.  A value is a row
    packed as ``int.from_bytes(row, sys.byteorder)`` packs ``a``'s, w bits
    a field for their itemsize (column c in field c on a little-endian
    host, in the mirror field on a big-endian one): a terminal's is 1 in
    its column's field and a state's the sum of its children's.  No field
    carries when the resolution is right: column c's field of a state
    counts distinct web permutations traced to column c, at most that
    column's total.  A count past its field carries into the field above,
    and one past the top field makes the value at least 2^(w * columns),
    above every packed row.  So ``number`` also sums each state's
    terminals, 1 for a terminal and its children's sum otherwise, and a
    root passes when its value equals its printed row packed and its
    terminal count equals the row's sum.  The printed entries fit their
    fields, so they are the value's base-2^w digits, and every other
    nonnegative digit vector of the same value has a larger digit sum:
    each carry lowers it by 2^w - 1.  A count carried into the field above
    while that field is short by the carry is refuted too.

    Each step leaves fewer unresolved crossings, and a root has at most
    C(n, 2), so either recursion nests at most C(n, 2) + 1 calls (37 and
    23 at n = 9), far under the interpreter's default limit of 1,000 for
    every n whose DAG fits in memory.

    All of it is local to one call and bounded by the distinct states,
    3,994, 22,333 and 137,073 at n = 7, 8 and 9; the keys, and the
    terminal counts of all but the roots, go once all are numbered.  The
    values alive at once are far fewer: 1,425 packed ints, 1.9 MB, at
    n = 8 and 8,116, 37.0 MB, at n = 9.  At n = 9 it takes 1.3 s and
    raises the peak RSS of ``matrix 9 --verify`` from 63 MiB after
    :func:`matrix` to 115 MiB (Python 3.11.7, 2-vCPU KVM guest).
    """
    paths = dyck_paths(a.n)
    if sys.byteorder == "big":
        paths.reverse()
    field = {p: k for k, p in enumerate(paths)}
    ids: dict[tuple[bytes, int], int] = {}
    # per state: a tuple of child numbers, or a terminal's field
    below: list[tuple[int, ...] | int | None] = []
    reads: list[int] = []
    terminals: list[int] = []

    def number(state: State) -> int:
        key = _key(state)
        s = ids.get(key)
        if s is None:
            step = _step(state, pick_top_left)
            if step is None:
                entry = field[lehmer_path(state[0])]
                count = 1
            else:
                entry = tuple(map(number, step))
                count = sum(map(terminals.__getitem__, entry))
            s = ids[key] = len(below)
            below.append(entry)
            reads.append(0)
            terminals.append(count)
        reads[s] += 1
        return s

    roots = [number(state) for state in row_roots(a.rows, a.n)]
    counts = [terminals[s] for s in roots]
    del ids, terminals

    values: dict[int, int] = {}
    w = 8 * a.entries[0].itemsize

    def value(s: int) -> int:
        # the first read sums s; a later one finds its value in
        entry, below[s] = below[s], None
        if isinstance(entry, int):
            values[s] = 1 << w * entry
        elif entry is not None:
            values[s] = sum(map(value, entry))
        return _take(values, reads, s)

    # reverse row order for memory: 8,116 live values, 37.0 MB, at n = 9,
    # against about 20,400, 97.4 MB, in row order or a post-order sweep
    refuted = [r for r in reversed(range(len(roots)))
               if value(roots[r])
               != int.from_bytes(a.entries[r], sys.byteorder)
               or counts[r] != sum(a.entries[r])]
    return refuted[::-1]


def support_check(a: TransitionMatrix) -> list[dict]:
    """Verify positivity pattern, unit diagonal and vanishing lower triangle.

    Returns a list of violation records, each naming the entry by its
    1-based (row, col) and by the Dyck paths of the row and column
    matchings; empty means the matrix is clean.

    The rows and the columns both run over every Dyck path in table
    order, so a row r of height vector q is clean if its diagonal entry is
    1, every nonzero entry is positive and its column's heights lie
    pointwise under q, and the nonzeros number
    :func:`~webperm.combinat.ballot_count` of q: then the nonzero columns
    are exactly the row's down-set, which table order puts at and after
    the diagonal.  An unsigned ``array`` row has no negative entry; any
    other row is first copied into an ``array("Q")``.  The row's byte
    lanes are OR-ed into one int, one byte per column that is 0 iff the
    entry is, whose zero bytes count the zeros.  The height test is then n
    big-integer ANDs, one per coordinate k, with ``over[k][q_k]``, the int
    of the columns whose height k exceeds q_k, a byte 255 each: no
    nonzero lies in such a column.  The masks take one ``bytes.translate``
    each, once a call, so the check reads no entry in Python: 0.005 s at
    n = 7, 0.025 s at n = 8 and 0.26 s at n = 9, in process, against
    0.015 s, 0.18 s and 1.28 s by a height test per nonzero (Python
    3.11.7, 2-vCPU KVM guest).  Only a row that fails it, or that no
    ``array("Q")`` holds (a negative or a huge entry), is scanned entry by
    entry with :func:`~webperm.combinat.dyck_leq`, which names every
    violation.
    """
    violations = []
    paths = dyck_paths(a.n)
    heights = [dyck_heights(p) for p in paths]
    # a table per height h, sending every height above h to an all-ones byte
    tables = [bytes(255 if v > h else 0 for v in range(256))
              for h in range(a.n + 1)]
    # over[k][h]: the columns whose height k exceeds h, one byte per
    # column, 255 for those and 0 for the rest, as a little-endian int
    over = []
    for k in range(a.n):
        column = bytes(q[k] for q in heights)
        over.append([int.from_bytes(column.translate(table), "little")
                     for table in tables])

    def clean(r: int, row: Sequence[int]) -> bool:
        if not (isinstance(row, array) and row.typecode in "BHILQ"):
            try:
                row = array("Q", row)
            except (OverflowError, TypeError):
                return False
        if row[r] != 1:
            return False
        # byte c of seen is 0 iff entry c is, as all of its bytes are
        data, size = row.tobytes(), row.itemsize
        seen = 0
        for j in range(size):
            seen |= int.from_bytes(data[j::size], "little")
        q = heights[r]
        return (seen.to_bytes(len(row), "little").count(0)
                == len(row) - ballot_count(q)
                and not any(seen & mask[h] for mask, h in zip(over, q)))

    def fail(r: int, c: int, value: int, reason: str) -> None:
        violations.append({"row": r + 1, "col": c + 1, "value": value,
                           "row_path": paths[r], "col_path": paths[c],
                           "reason": reason})
    for r, row in enumerate(a.entries):
        if clean(r, row):
            continue
        for c, value in enumerate(row):
            if (value > 0) != dyck_leq(paths[c], paths[r]):
                fail(r, c, value, "positivity must match path inclusion")
            if r == c and value != 1:
                fail(r, c, value, "diagonal entry must be 1")
            if c < r and value != 0:
                fail(r, c, value, "lower triangle must vanish")
    return violations


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------

def _row_text(row: Sequence[int], sep: str) -> str:
    """``sep.join(map(str, row))``, through
    :func:`~webperm.combinat._join_decimal` when ``row`` is an unsigned
    ``array`` of values below 256: its low bytes, in the host's byte order,
    when every other byte is 0.  Any other row is joined value by value.
    """
    if isinstance(row, array) and row.typecode in "BHILQ":
        data, size = row.tobytes(), row.itemsize
        low = data[0 if sys.byteorder == "little" else size - 1::size]
        # the other bytes are all 0 iff they hold all the zeros low lacks
        if data.count(0) - low.count(0) == len(data) - len(low):
            return _join_decimal(low, sep)
    return sep.join(map(str, row))


def csv_lines(a: TransitionMatrix) -> Iterator[str]:
    """The CSV text of ``a``, one line per row, without newlines.

    Every row of a :func:`matrix` through n = 9 is a ``B`` array, which
    :func:`_row_text` turns into text in C: the 2,044,900 entries of n = 8
    in 0.014 s and the 23.6 M of n = 9 in 0.14 s (Python 3.11.7, 2-vCPU
    KVM guest), so no row through n = 9 is joined value by value.  At
    n = 10 an ``H`` row of 16,796 values below 256 takes 0.1-0.3 ms, and
    one with a value past 255 takes 2.2 ms joined value by value.
    """
    for row in a.entries:
        yield _row_text(row, ",")


def to_csv(a: TransitionMatrix) -> str:
    return "\n".join(csv_lines(a))


def json_entry_texts(a: TransitionMatrix) -> Iterator[str]:
    """The JSON text of each row of entries of ``a``, as
    ``json.JSONEncoder(indent=1)`` writes a list of ints that is an item
    of a list in the top-level object: one entry a line, joined in C as
    the CSV is."""
    for row in a.entries:
        yield ("[\n   " + _row_text(row, ",\n   ") + "\n  ]" if len(row)
               else "[]")


def latex_lines(a: TransitionMatrix) -> Iterator[str]:
    """The LaTeX text of ``a``, one line at a time without newlines: a
    bmatrix whose structural lower-triangle zeros are blank cells.

    Row r's first r cells are blank, so a row is r separators and then the
    text of the rest; a row no longer than r is blank throughout.
    """
    yield "\\begin{bmatrix}"
    if not a.entries:
        yield ""
    for r, row in enumerate(a.entries):
        cells = (" & " * r + _row_text(row[r:], " & ") if r < len(row)
                 else " & " * (len(row) - 1))
        yield "  " + cells + r" \\"
    yield "\\end{bmatrix}"

