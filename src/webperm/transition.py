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
of each row outright; both must agree, and both must agree with the
syzygy-rewriting expansion of :mod:`webperm.oracle`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .combinat import (
    Matching,
    Permutation,
    cells_above,
    dyck_heights,
    dyck_leq,
    dyck_of_matching,
    dyck_paths,
    identity,
    is_noncrossing,
    is_nonnesting,
    matching_from_dyck,
    matching_size,
    matching_to_json,
    nonnesting_matchings,
)
from .grid import (
    DEFAULT_NODE_CAP,
    GridConfiguration,
    matching_of_permutation,
    resolve,
)
from .webs import web_table


@dataclass(frozen=True)
class TransitionMatrix:
    n: int
    rows: tuple[Matching, ...]
    cols: tuple[Matching, ...]
    entries: tuple[tuple[int, ...], ...]


# The rows are the nonnesting matchings, which come in table order.
row_labels = nonnesting_matchings


def col_labels(n: int) -> list[Matching]:
    """Noncrossing matchings in table order."""
    return [matching_from_dyck(p, "NC") for p in dyck_paths(n)]


def _check_classes(m: Matching, m_prime: Matching) -> None:
    if not is_nonnesting(m):
        raise ValueError(f"row matching must be nonnesting: {m}")
    if not is_noncrossing(m_prime):
        raise ValueError(f"column matching must be noncrossing: {m_prime}")
    if matching_size(m) != matching_size(m_prime):
        raise ValueError("matchings have different sizes")


def entry(m: Matching, m_prime: Matching) -> int:
    """The entry of row ``m`` and column ``m_prime``, read from
    :func:`matrix`."""
    _check_classes(m, m_prime)
    a = matrix(matching_size(m))
    return a.entries[a.rows.index(m)][a.cols.index(m_prime)]


@lru_cache(maxsize=None)
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
    heights = [dyck_heights(p) for p in dyck_paths(n)]
    acc: dict[tuple[int, ...], Counter[int]] = {q: Counter() for q in heights}
    for rec in web_table(n):
        acc[dyck_heights(rec.dyck)][col_index[rec.matched]] += 1
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


def resolution_matrix(n: int, node_cap: int = DEFAULT_NODE_CAP) -> TransitionMatrix:
    """The same matrix computed by resolving each row's configuration.

    Every tree ends in web permutations, and the same sigma ends many of
    them, so each sigma is traced to its column once per call.
    """
    rows = tuple(row_labels(n))
    cols = tuple(col_labels(n))
    col_index = {m: k for k, m in enumerate(cols)}
    col_of: dict[Permutation, int] = {}
    grid_rows = []
    for m in rows:
        g = GridConfiguration(identity(n), cells_above(dyck_of_matching(m)))
        counts = [0] * len(cols)
        for sigma, mult in resolve(g, node_cap).items():
            c = col_of.get(sigma)
            if c is None:
                c = col_of[sigma] = col_index[matching_of_permutation(sigma)]
            counts[c] += mult
        grid_rows.append(tuple(counts))
    return TransitionMatrix(n, rows, cols, tuple(grid_rows))


def support_check(a: TransitionMatrix) -> list[dict]:
    """Verify positivity pattern, unit diagonal and vanishing lower triangle.

    Returns a list of violation records; empty means the matrix is clean.
    """
    violations = []
    row_paths = [dyck_of_matching(m) for m in a.rows]
    col_paths = [dyck_of_matching(m) for m in a.cols]
    for r, row in enumerate(a.entries):
        for c, value in enumerate(row):
            expected_positive = dyck_leq(col_paths[c], row_paths[r])
            if (value > 0) != expected_positive:
                violations.append({
                    "row": r + 1, "col": c + 1, "value": value,
                    "reason": "positivity must match path inclusion"})
            if row_paths[r] == col_paths[c] and value != 1:
                violations.append({
                    "row": r + 1, "col": c + 1, "value": value,
                    "reason": "diagonal entry must be 1"})
            if c < r and value != 0:
                violations.append({
                    "row": r + 1, "col": c + 1, "value": value,
                    "reason": "lower triangle must vanish"})
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
