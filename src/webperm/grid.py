"""Grid configurations and crossing resolution.

A grid configuration places a marking in cell (i, sigma(i)) of an n x n
grid for each column i, with a horizontal line running left and a vertical
line running up from every marking.  Cells crossed by both a horizontal
and a vertical line are crossings; a chosen subset of them is replaced by
elbows.  Cell (i, j) is addressed by the (column, row) coordinates of its
upper-right corner.

Boundary intervals are labelled 1..n up the left side and n+1..2n along
the top, so tracing the strands of a configuration reads off a matching
on [2n].

Resolving a crossing ``c`` replaces a configuration by two others:

- smoothing turns ``c`` into an elbow, and
- switching transposes the two values of sigma whose lines cross at ``c``.

Only cells that are maximal in the upper-left partial order may be
resolved; this keeps the elbow set valid in the switched configuration.
Fully resolving the identity configuration yields the web permutations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .combinat import (
    CapExceeded,
    Cell,
    Matching,
    Permutation,
    cells_above,
    dyck_of_matching,
    identity,
    inverse,
    is_nonnesting,
    is_permutation,
    matching,
    matching_size,
)

DEFAULT_NODE_CAP = 10_000_000


@lru_cache(maxsize=None)
def crossings_of(sigma: Permutation) -> frozenset[Cell]:
    """Cells (i, j) with sigma(i) < j and i < sigma^-1(j).

    >>> sorted(crossings_of((1, 2, 3)))
    [(1, 2), (1, 3), (2, 3)]
    >>> crossings_of((3, 2, 1))
    frozenset()
    """
    inv = inverse(sigma)
    n = len(sigma)
    return frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                     if sigma[i - 1] < j and i < inv[j - 1])


@dataclass(frozen=True)
class GridConfiguration:
    """A permutation together with a set of elbow cells.

    The elbows must be crossings of the permutation.
    """

    sigma: Permutation
    elbows: frozenset[Cell]

    def __post_init__(self) -> None:
        if not is_permutation(self.sigma):
            raise ValueError(f"not a permutation: {self.sigma}")
        object.__setattr__(self, "elbows", frozenset(self.elbows))
        stray = self.elbows - crossings_of(self.sigma)
        if stray:
            raise ValueError(f"elbows outside the crossing set: {sorted(stray)}")

    @property
    def n(self) -> int:
        return len(self.sigma)

    def unresolved(self) -> frozenset[Cell]:
        return crossings_of(self.sigma) - self.elbows

    def is_terminal(self) -> bool:
        return self.elbows == crossings_of(self.sigma)


def empty_configuration(n: int) -> GridConfiguration:
    """G(id, {}): the starting point of every full resolution."""
    return GridConfiguration(identity(n), frozenset())


# ---------------------------------------------------------------------------
# strand tracing
# ---------------------------------------------------------------------------

# How a strand passes through one cell, by cell kind and entry edge
# (L/R/T/B = left/right/top/bottom).  A marking joins its left edge to its
# top edge; an elbow carries two quarter-turns (left-bottom and top-right);
# an unresolved crossing and plain line segments pass straight through.
_ROUTES: dict[str, dict[str, str]] = {
    "marking": {"L": "T", "T": "L"},
    "elbow": {"L": "B", "B": "L", "T": "R", "R": "T"},
    "crossing": {"L": "R", "R": "L", "B": "T", "T": "B"},
    "hline": {"L": "R", "R": "L"},
    "vline": {"B": "T", "T": "B"},
    "empty": {},
}

# Moving out of cell (i, j) through an edge: the neighbour cell and the
# edge through which the strand enters it.
_MOVES = {"L": (-1, 0, "R"), "R": (1, 0, "L"), "T": (0, 1, "B"), "B": (0, -1, "T")}


def _cell_kind(g: GridConfiguration, inv: Permutation, i: int, j: int) -> str:
    if g.sigma[i - 1] == j:
        return "marking"
    if (i, j) in g.elbows:
        return "elbow"
    has_v = g.sigma[i - 1] < j
    has_h = i < inv[j - 1]
    if has_v and has_h:
        return "crossing"
    if has_h:
        return "hline"
    if has_v:
        return "vline"
    return "empty"


def trace_matching(g: GridConfiguration) -> Matching:
    """The matching on [2n] read off the strands of the configuration.

    >>> g = GridConfiguration((1, 3, 2, 4), frozenset({(1, 3), (1, 4)}))
    >>> trace_matching(g)
    ((1, 3), (2, 7), (4, 6), (5, 8))
    """
    n = g.n
    inv = inverse(g.sigma)
    arcs = []
    used = set()
    for label in range(1, 2 * n + 1):
        if label in used:
            continue
        if label <= n:
            i, j, edge = 1, label, "L"
        else:
            i, j, edge = label - n, n, "T"
        for _ in range(4 * n * n + 1):
            routes = _ROUTES[_cell_kind(g, inv, i, j)]
            if edge not in routes:
                raise RuntimeError(
                    f"strand entered cell ({i}, {j}) of {g.sigma} through an "
                    f"unconnected edge {edge}")
            out = routes[edge]
            di, dj, edge = _MOVES[out]
            i, j = i + di, j + dj
            if i == 0:
                end = j
                break
            if j == n + 1:
                end = n + i
                break
            if i == n + 1 or j == 0:
                raise RuntimeError(
                    f"strand left the grid through an unlabelled side at "
                    f"({i}, {j})")
        else:
            raise RuntimeError(f"strand from {label} did not terminate")
        arcs.append((label, end))
        used.update((label, end))
    return matching(arcs)


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------

def _dominated(c: Cell, cells: Iterable[Cell]) -> bool:
    """True iff another cell of ``cells`` lies weakly above and left of
    ``c``, that is, iff ``c`` is not upper-left maximal."""
    return any(d != c and d[0] <= c[0] and d[1] >= c[1] for d in cells)


def pick_top_left(cells: frozenset[Cell]) -> Cell:
    """Canonical selection: highest row, then leftmost column.

    This is the maximum in the total order refining the upper-left partial
    order, so the choice is always a maximal cell.
    """
    return max(cells, key=lambda c: (c[1], -c[0]))


def pick_bottom(cells: frozenset[Cell]) -> Cell:
    """Antagonistic selection: the maximal cell in the lowest row.

    This certifies criterion c11: resolving with it and with
    :func:`pick_top_left` gives the same outcome from every root.
    """
    return min((c for c in cells if not _dominated(c, cells)),
               key=lambda c: (c[1], c[0]))


def _check_resolvable(g: GridConfiguration, c: Cell) -> None:
    rest = g.unresolved()
    if c not in rest:
        raise ValueError(f"{c} is not an unresolved crossing of {g.sigma}")
    if _dominated(c, rest):
        raise ValueError(f"{c} is not maximal among unresolved crossings")


def maximal_crossing(g: GridConfiguration) -> Optional[Cell]:
    """The canonical crossing to resolve next, or None when terminal."""
    rest = g.unresolved()
    return pick_top_left(rest) if rest else None


def smooth(g: GridConfiguration, c: Cell) -> GridConfiguration:
    """Resolve the maximal crossing ``c`` by turning it into an elbow."""
    _check_resolvable(g, c)
    return GridConfiguration(g.sigma, g.elbows | {c})


def _switched_word(sigma: Permutation, c: Cell) -> Permutation:
    i, j = c
    word = list(sigma)
    word[i - 1], word[inverse(sigma)[j - 1] - 1] = j, sigma[i - 1]
    return tuple(word)


def switch(g: GridConfiguration, c: Cell) -> GridConfiguration:
    """Resolve the maximal crossing ``c = (i, j)`` by moving the marking of
    column i up to row j (and the marking of row j down accordingly)."""
    _check_resolvable(g, c)
    switched = _switched_word(g.sigma, c)
    # Maximality of c guarantees the elbows stay inside the crossing set;
    # GridConfiguration would reject them otherwise.
    return GridConfiguration(switched, g.elbows)


def resolve(g: GridConfiguration,
            node_cap: int = DEFAULT_NODE_CAP,
            pick: Callable[[frozenset[Cell]], Cell] = pick_top_left,
            ) -> Counter[Permutation]:
    """Fully resolve ``g`` and return the terminal permutations as a multiset.

    Branches depth-first on (smooth, switch) at the crossing chosen by
    ``pick``, which must always return a maximal cell of its argument.
    Terminal states are recognised by elbow-set/crossing-set equality.
    Raises :class:`CapExceeded` when more than ``node_cap`` states are
    visited.
    """
    out: Counter[Permutation] = Counter()
    stack: list[tuple[Permutation, frozenset[Cell]]] = [(g.sigma, g.elbows)]
    nodes = 0
    while stack:
        sigma, elbows = stack.pop()
        nodes += 1
        if nodes > node_cap:
            raise CapExceeded(f"resolution exceeded the node cap {node_cap}")
        rest = crossings_of(sigma) - elbows
        if not rest:
            out[sigma] += 1
            continue
        c = pick(rest)
        if _dominated(c, rest):
            raise ValueError(f"selection policy returned non-maximal cell {c}")
        switched = _switched_word(sigma, c)
        if not elbows <= crossings_of(switched):
            raise RuntimeError(
                f"switching {c} in {sigma} invalidated elbows {sorted(elbows)}")
        stack.append((switched, elbows))
        stack.append((sigma, elbows | {c}))
    return out


# ---------------------------------------------------------------------------
# web permutations by resolution
# ---------------------------------------------------------------------------

def _distinct_terminals(outcome: Counter[Permutation]) -> frozenset[Permutation]:
    repeated = {s for s, mult in outcome.items() if mult > 1}
    if repeated:
        raise RuntimeError(f"terminal permutations repeat: {sorted(repeated)}")
    return frozenset(outcome)


def web_permutations(n: int, node_cap: int = DEFAULT_NODE_CAP) -> frozenset[Permutation]:
    """All permutations surviving full resolution of the identity grid."""
    return _distinct_terminals(resolve(empty_configuration(n), node_cap))


def web_permutations_for(m: Matching,
                         node_cap: int = DEFAULT_NODE_CAP) -> frozenset[Permutation]:
    """Permutations surviving resolution started from the configuration of
    a nonnesting matching (identity marking, elbows above its Dyck path).

    This certifies the main theorem's sum: resolving the configuration of
    M gives each web permutation sigma with D(sigma) <= D(M) exactly once.
    """
    if not is_nonnesting(m):
        raise ValueError(f"matching is not nonnesting: {m}")
    n = matching_size(m)
    g = GridConfiguration(identity(n), cells_above(dyck_of_matching(m)))
    return _distinct_terminals(resolve(g, node_cap))


def matching_of_permutation(sigma: Permutation) -> Matching:
    """M(sigma): the matching traced from the fully smoothed configuration."""
    return trace_matching(GridConfiguration(sigma, crossings_of(sigma)))
