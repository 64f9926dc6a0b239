"""The transition matrix between nonnesting and noncrossing matchings.

Rows are indexed by nonnesting matchings, columns by noncrossing ones,
both sorted in table order of their Dyck paths (maximum path first, see
:func:`webperm.combinat.dyck_sort_key`).  With that ordering the matrix is
upper-unitriangular.

The entry of row M and column M' counts web permutations sigma with
D(sigma) contained in D(M) and traced matching M'.  :func:`matrix`
evaluates this by grouping the web table by (D, M) into counts
C[p][M'] and summing them over the Dyck lattice with a zeta transform,
F(q) = sum of C[p] over p <= q, so that row M is F(D(M)).  A second
construction, :func:`resolution_matrix`, resolves the grid configuration
of each row, reusing the row its smoothed root belongs to.  The web table
is resolved too, from the identity grid, so both must also agree with
the expansion of :mod:`webperm.oracle`, which never touches the grid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress

from .combinat import (
    Matching,
    Permutation,
    ballot_count,
    dyck_heights,
    dyck_leq,
    dyck_of_matching,
    dyck_paths,
    enumerate_matchings,
    matching_to_json,
)
from .grid import children, matching_of_permutation, resolve, row_configuration
from .webs import web_table


@dataclass(frozen=True)
class TransitionMatrix:
    n: int
    rows: tuple[Matching, ...]
    cols: tuple[Matching, ...]
    entries: tuple[tuple[int, ...], ...]


def row_labels(n: int) -> list[Matching]:
    """Nonnesting matchings in table order."""
    return enumerate_matchings(n, "NN")


def col_labels(n: int) -> list[Matching]:
    """Noncrossing matchings in table order."""
    return enumerate_matchings(n, "NC")


def matrix(n: int) -> TransitionMatrix:
    """The full transition matrix, entries by the characterization.

    One pass over the web table groups it by (D, M) into sparse counts
    C[p][M'], one per Dyck path p.  A zeta transform over the Dyck lattice
    (paths as column-height vectors, ordered pointwise) then sums them
    into F(q) = sum of C[p] over p <= q, and row M is F(D(M)).

    The transform runs one pass per coordinate k = 1..n.  F_k(q) sums C[p]
    over the p <= q that agree with q after coordinate k, so F_0 = C and
    F_n = F.  Splitting on p_k gives

        F_k(q) = F_{k-1}(q) + F_k(q|k)    when q_k - 1 >= k,

    and F_k(q) = F_{k-1}(q) otherwise.  Here q|k is q with coordinate k
    lowered by 1 and each earlier coordinate clamped to min(q_j, q_k - 1):
    heights never decrease, so every p with p_k < q_k lies under q|k.
    """
    rows = tuple(row_labels(n))
    cols = tuple(col_labels(n))
    col_index = {m: k for k, m in enumerate(cols)}
    paths = dyck_paths(n)
    heights = [dyck_heights(p) for p in paths]
    acc: dict[tuple[int, ...], Counter[int]] = {q: Counter() for q in heights}
    by_path = dict(zip(paths, acc.values()))
    for rec in web_table(n):
        by_path[rec.dyck][col_index[rec.matched]] += 1
    # acc then holds the only reference, so each row's Counter is freed
    # as the row is built
    del by_path
    # Reverse table order is a linear extension of the lattice order, so
    # q|k has finished its pass before q reads it.  k counts from 0 here;
    # the last coordinate is always n and never lowers.
    for k in range(n - 1):
        for q in reversed(heights):
            top = q[k] - 1
            if top > k:
                lower = tuple(min(h, top) for h in q[:k]) + (top,) + q[k + 1:]
                acc[q].update(acc[lower])
    grid_rows = []
    for q in heights:
        counts = [0] * len(cols)
        for c, v in acc.pop(q).items():
            counts[c] = v
        grid_rows.append(tuple(counts))
    return TransitionMatrix(n, rows, cols, tuple(grid_rows))


def resolution_matrix(n: int) -> TransitionMatrix:
    """The same matrix computed by resolving the row configurations.

    Smoothing the root G(id, cells above D(M)) of row M at the crossing
    :func:`~webperm.grid.pick_top_left` picks gives exactly the root of a
    row M+ later in table order.  Resolution splits into the smoothed and
    the switched subtree, so

        row(M) = row(M+) + the column counts of resolve(switched child)

    for every row but the last, the staircase, whose root is the only
    terminal one and is its own row.

    Rows are built in reverse table order, each as the tuple the matrix
    keeps, and only the switched subtrees are resolved.  A smoothed root
    that is no later row's root raises :class:`RuntimeError`.  Every tree
    ends in web permutations, and the same sigma ends many of them, so
    each sigma is traced to its column once per call.
    """
    rows = tuple(row_labels(n))
    cols = tuple(col_labels(n))
    col_index = {m: k for k, m in enumerate(cols)}
    col_of: dict[Permutation, int] = {}
    roots = [row_configuration(m) for m in rows]
    row_of = {g.elbows: r for r, g in enumerate(roots)}
    grid_rows: list[tuple[int, ...]] = [()] * len(rows)
    for r in reversed(range(len(rows))):
        split = children(roots[r])
        if split is None:
            counts, subtree = [0] * len(cols), roots[r]
        else:
            smoothed, subtree = split
            later = row_of.get(smoothed.elbows, -1)
            if later <= r:
                raise RuntimeError(f"smoothing the root of row {rows[r]} "
                                   f"gives no later row's root")
            counts = list(grid_rows[later])
        for sigma, mult in resolve(subtree).items():
            c = col_of.get(sigma)
            if c is None:
                c = col_of[sigma] = col_index[matching_of_permutation(sigma)]
            counts[c] += mult
        grid_rows[r] = tuple(counts)
    return TransitionMatrix(n, rows, cols, tuple(grid_rows))


def support_check(a: TransitionMatrix) -> list[dict]:
    """Verify positivity pattern, unit diagonal and vanishing lower triangle.

    Returns a list of violation records, each naming the entry by its
    1-based (row, col) and by the Dyck paths of the row and column
    matchings; empty means the matrix is clean.

    When the rows and the columns both run over every Dyck path in table
    order, a row r is clean if its diagonal entry is 1, every nonzero
    entry is positive and its column's heights lie pointwise under the
    row's, and the nonzeros number :func:`~webperm.combinat.ballot_count`
    of the row: then the nonzero columns are exactly the row's down-set,
    which table order puts at and after the diagonal.  Past finding the
    nonzeros, that costs O(1) big-integer steps per nonzero and O(n^2) per
    row.  Only a row that fails it is scanned entry by entry with
    :func:`~webperm.combinat.dyck_leq`, which names every violation.
    """
    violations = []
    row_paths = [dyck_of_matching(m) for m in a.rows]
    col_paths = [dyck_of_matching(m) for m in a.cols]
    heights = [dyck_heights(p) for p in col_paths]
    by_heights = row_paths == col_paths == dyck_paths(a.n)
    # Each height vector packed into one int, b bits per coordinate, all
    # heights below 2^(b-1).  With the top bit of every field of q set,
    # q - p borrows across no field and keeps the top bit of field k iff
    # p_k <= q_k.
    b = a.n.bit_length() + 1
    guard = sum(1 << (b * k + b - 1) for k in range(a.n))
    packed = [sum(h << (b * k) for k, h in enumerate(hs)) for hs in heights]

    def clean(r: int, row: tuple[int, ...]) -> bool:
        nonzero = list(compress(range(len(row)), row))
        top = packed[r] | guard
        return (row[r] == 1 and len(nonzero) == ballot_count(heights[r])
                and min(map(row.__getitem__, nonzero)) > 0
                and all((top - packed[c]) & guard == guard for c in nonzero))

    def fail(r: int, c: int, value: int, reason: str) -> None:
        violations.append({"row": r + 1, "col": c + 1, "value": value,
                           "row_path": row_paths[r], "col_path": col_paths[c],
                           "reason": reason})
    for r, row in enumerate(a.entries):
        if by_heights and clean(r, row):
            continue
        for c, value in enumerate(row):
            expected_positive = dyck_leq(col_paths[c], row_paths[r])
            if (value > 0) != expected_positive:
                fail(r, c, value, "positivity must match path inclusion")
            if row_paths[r] == col_paths[c] and value != 1:
                fail(r, c, value, "diagonal entry must be 1")
            if c < r and value != 0:
                fail(r, c, value, "lower triangle must vanish")
    return violations


# ---------------------------------------------------------------------------
# export formats
# ---------------------------------------------------------------------------

def to_csv(a: TransitionMatrix) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in a.entries)


def to_json(a: TransitionMatrix) -> dict:
    return {
        "n": a.n,
        "rows": [matching_to_json(m) for m in a.rows],
        "cols": [matching_to_json(m) for m in a.cols],
        "entries": [list(row) for row in a.entries],
    }


def to_latex(a: TransitionMatrix) -> str:
    """bmatrix display with the structural lower-triangle zeros left blank."""
    lines = []
    for r, row in enumerate(a.entries):
        cells = ["" if c < r else str(v) for c, v in enumerate(row)]
        lines.append("  " + " & ".join(cells) + r" \\")
    body = "\n".join(lines)
    return "\\begin{bmatrix}\n" + body + "\n\\end{bmatrix}"
