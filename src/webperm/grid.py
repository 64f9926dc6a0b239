"""Grid configurations and crossing resolution.

A grid configuration places a marking in cell (i, sigma(i)) of an n x n
grid for each column i, with a horizontal line running left and a vertical
line running up from every marking.  Cells crossed by both a horizontal
and a vertical line are crossings; a chosen subset of them is replaced by
elbows.  Cell (i, j) is addressed by the (column, row) coordinates of its
upper-right corner.

Boundary intervals are labelled 1..n up the left side and n+1..2n along
the top, so tracing the strands of a configuration reads off a matching
on [2n].  Each strand runs through one marking, so the walker follows
the two legs of every marking, left along its row and up along its
column, turning only at elbows, to the two labels they reach.  It works
on the integer arrays sigma and sigma^-1, returns a partner array and
traces any configuration (:func:`trace_matching`).  M(sigma), the
matching of the fully smoothed configuration, where every crossing is
an elbow, needs no walk: :func:`matching_of_permutation` reads its Dyck
path off the Lehmer code of sigma (:func:`webperm.combinat.lehmer_path`),
and the walker is its independent cross-check.

Resolving a crossing ``c`` replaces a configuration by two others:

- smoothing turns ``c`` into an elbow, and
- switching transposes the two values of sigma whose lines cross at ``c``.

Only cells that are maximal in the upper-left partial order may be
resolved; this keeps the elbow set valid in the switched configuration.
:func:`_step` is the one resolution step, :func:`terminals` walks the
tree it spans and :func:`resolve` counts its leaves.  A state is sigma
with a bitmask of its unresolved crossings, those not elbows, cell
(i, j) at bit (j - 1) n + (n - i): a higher row is a higher block of n
bits, and a column further left a higher bit within its block.  So the
highest set bit is the top-left cell, and a cell is maximal iff its
upper-left cone (:func:`_cone`) meets the mask in that cell alone.  A
smoothed child clears the resolved bit, and a switched child recomputes
the cells the switch moves, so only the root's mask is built from a
crossing set (:func:`_root`; :func:`row_roots` builds the identity's
once for the roots of many rows).  Fully resolving the identity
configuration yields the web permutations; resolving
:func:`row_configuration` of a nonnesting matching M yields the web
permutations that make up row M of the transition matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

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
    lehmer_path,
    noncrossing_arcs,
)

DEFAULT_NODE_CAP = 10_000_000

# A resolution state (sigma, unresolved): unresolved is the mask of
# crossings_of(sigma) minus the elbows, cell (i, j) at bit (j - 1) n + n - i
# (see :func:`_mask`); the state is terminal when the mask is 0.
State = tuple[Permutation, int]


def crossings_of(sigma: Permutation) -> frozenset[Cell]:
    """Cells (i, j) with sigma(i) < j and i < sigma^-1(j).

    Built from scratch for validation and for the roots of resolution;
    :func:`resolve` updates the unresolved mask along the tree instead.

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


def empty_configuration(n: int) -> GridConfiguration:
    """G(id, {}): the starting point of every full resolution."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return GridConfiguration(identity(n), frozenset())


def row_configuration(m: Matching) -> GridConfiguration:
    """G(id, cells above D(m)): the root whose resolution gives row ``m``
    of the transition matrix; ``m`` must be nonnesting.

    >>> sorted(row_configuration(((1, 2), (3, 5), (4, 6))).elbows)
    [(1, 2), (1, 3)]
    """
    if not is_nonnesting(m):
        raise ValueError(f"matching is not nonnesting: {m}")
    return GridConfiguration(identity(len(m)),
                             cells_above(dyck_of_matching(m)))


# ---------------------------------------------------------------------------
# strand tracing
# ---------------------------------------------------------------------------

def _walk(sigma: Permutation, elbows: frozenset[Cell]) -> list[int]:
    """Trace every strand of G(sigma, elbows).  Returns the partner array,
    entry a the label paired with a.

    Every strand passes through exactly one marking, and its two halves,
    the legs, leave the marking going left along its row and up along its
    column.  An elbow turns a leftward leg up and an upward leg left; every
    other cell a leg meets lets it pass straight on.  So a leftward leg on
    row j turns at the next column i to its left with sigma(i) < j and
    (i, j) an elbow, and an upward leg on column i turns at the next row j
    above it with i < sigma^-1(j) and (i, j) an elbow.  A leg only moves
    left or up, so it never meets a marking and leaves the grid on the
    left side (label j) or the top (label n + i).  The two labels of each
    marking make one arc, and :func:`trace_matching` reads the arcs off
    in label order, which gives the matching in canonical form.

    Each leg is walked inline, with no call per leg, as alternating runs:
    a leftward run steps left along its row to the next elbow or off the
    left side, and an upward run steps up its column to the next elbow or
    off the top.  The leftward leg begins with a leftward run, the upward
    leg with an upward one.  Sentinel markings at (0, 0) and (n + 1, n + 1)
    make the edge look like a crossing, so a step tests the bound only
    where it tests for an elbow.
    """
    n = len(sigma)
    col = (0,) + tuple(sigma)
    row = [0] * (n + 2)
    row[n + 1] = n + 1
    for i, j in enumerate(sigma, 1):
        row[j] = i

    partner = [0] * (2 * n + 1)
    for i, j in enumerate(sigma, 1):
        x, y = i, j
        while True:
            x -= 1
            while col[x] >= y or x and (x, y) not in elbows:
                x -= 1
            if not x:
                a = y
                break
            y += 1
            while x >= row[y] or y <= n and (x, y) not in elbows:
                y += 1
            if y > n:
                a = n + x
                break
        x, y = i, j
        while True:
            y += 1
            while x >= row[y] or y <= n and (x, y) not in elbows:
                y += 1
            if y > n:
                b = n + x
                break
            x -= 1
            while col[x] >= y or x and (x, y) not in elbows:
                x -= 1
            if not x:
                b = y
                break
        partner[a], partner[b] = b, a
    return partner


def trace_matching(g: GridConfiguration) -> Matching:
    """The matching on [2n] read off the strands of the configuration.

    >>> g = GridConfiguration((1, 3, 2, 4), frozenset({(1, 3), (1, 4)}))
    >>> trace_matching(g)
    ((1, 3), (2, 7), (4, 6), (5, 8))
    """
    partner = _walk(g.sigma, g.elbows)
    return tuple([(a, b) for a, b in enumerate(partner) if a < b])


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------

def _mask(cells: Iterable[Cell], n: int) -> int:
    """The bitmask of a set of cells of the n x n grid, cell (i, j) at bit
    (j - 1) n + n - i.

    >>> bin(_mask({(1, 3), (2, 3), (1, 2)}, 3))
    '0b110100000'
    """
    return sum(1 << (j - 1) * n + n - i for i, j in cells)


def _cells(mask: int, n: int) -> list[Cell]:
    """The cells of a bitmask of the n x n grid, sorted."""
    return sorted((n - b % n, b // n + 1) for b in range(mask.bit_length())
                  if mask >> b & 1)


def _cone(c: Cell, n: int) -> int:
    """The mask of the upper-left cone of ``c`` = (i, j): the cells (x, y)
    with x <= i and y >= j, ``c`` itself included.

    Columns 1..i are the top i bits of each row's block, and the rows
    j..n are the blocks from j - 1 up, so the cone is that run of bits
    repeated once per block.
    """
    i, j = c
    run = ((1 << i) - 1) << n - i
    blocks = ((1 << (n - j + 1) * n) - 1) // ((1 << n) - 1)
    return run * blocks << (j - 1) * n


def _root(g: GridConfiguration) -> State:
    """The resolution state of ``g``: sigma and the mask of its crossings
    that are not elbows."""
    return g.sigma, _mask(crossings_of(g.sigma) - g.elbows, len(g.sigma))


def row_roots(rows: Iterable[Matching], n: int) -> Iterator[State]:
    """The state :func:`_root` gives :func:`row_configuration` of each
    matching of ``rows``, all of size ``n``, with the crossings of the
    identity made into a mask once: the row's root has every crossing
    unresolved but the cells above D(m).  A row that is not nonnesting
    raises :class:`ValueError`, as in :func:`row_configuration`.

    >>> [bin(mask) for _, mask in row_roots([((1, 2), (3, 4)),
    ...                                       ((1, 3), (2, 4))], 2)]
    ['0b0', '0b1000']
    """
    sigma = identity(n)
    full = _mask(crossings_of(sigma), n)
    for m in rows:
        if not is_nonnesting(m):
            raise ValueError(f"matching is not nonnesting: {m}")
        yield sigma, full & ~_mask(cells_above(dyck_of_matching(m)), n)


def pick_top_left(unresolved: int, n: int) -> Cell:
    """Canonical selection: highest row, then leftmost column.

    This is the maximum in the total order refining the upper-left partial
    order, so the choice is always a maximal cell.  It is the highest set
    bit of the mask.
    """
    row, col = divmod(unresolved.bit_length() - 1, n)
    return n - col, row + 1


def pick_bottom(unresolved: int, n: int) -> Cell:
    """Antagonistic selection: the maximal cell in the lowest row.

    Only the leftmost cell of a row, the highest bit of its block, can be
    maximal.  This certifies criterion c11: resolving with it and with
    :func:`pick_top_left` gives the same outcome from every root.
    """
    full = (1 << n) - 1
    for row in range(n):
        block = unresolved >> row * n & full
        if block:
            col = block.bit_length() - 1
            c = (n - col, row + 1)
            if unresolved & _cone(c, n) == 1 << row * n + col:
                return c
    raise ValueError("no unresolved crossing to pick")


def _switch(sigma: Permutation, unresolved: int, c: Cell) -> State:
    """Switch the crossing c = (i, j) of sigma, whose unresolved crossings
    are the mask ``unresolved``; returns the switched state.

    The switch moves the marking of column i up from row a = sigma(i) to
    row j, and that of column k = sigma^-1(j) down from row j to row a.
    So only cells on those four lines change, and only inside the
    rectangle [i, k] x [a, j]: column i loses its vertical line on rows
    a < y <= j and column k gains it on rows a < y < j, row j loses its
    horizontal line on columns i < x < k and row a gains it there.  Every
    other cell is kept.  No gained cell is a crossing of sigma, so the
    elbows stay crossings iff every lost cell is unresolved; otherwise
    :class:`RuntimeError` names the elbows the switch would move.
    """
    i, j = c
    n = len(sigma)
    k, a = sigma.index(j) + 1, sigma[i - 1]
    word = list(sigma)
    word[i - 1], word[k - 1] = j, a
    # cell (x, y) is bit (y - 1) n + n - x.  On column i (or k), row y
    # holds a crossing iff it lies above the column's marking and row y's
    # marking lies in a column to the right, so one pass over the columns
    # right of i finds every cell that changes; column k gains no cell on
    # row j, whose marking is in column k.
    gone = new = 0
    for x in range(i + 1, n + 1):
        y = sigma[x - 1]
        if a < y <= j:
            gone |= 1 << (y - 1) * n + n - i
            if k < x:
                new |= 1 << (y - 1) * n + n - k
        if x < k and y < j:
            gone |= 1 << (j - 1) * n + n - x
            if y < a:
                new |= 1 << (a - 1) * n + n - x
    moved = gone & ~unresolved
    if moved:
        raise RuntimeError(f"switching {c} in {sigma} invalidated elbows "
                           f"{_cells(moved, n)}")
    return tuple(word), (unresolved ^ gone) | new


def _step(state: State, pick: Callable[[int, int], Cell],
          ) -> Optional[tuple[State, State]]:
    """Resolve the crossing of ``state`` chosen by ``pick``.

    Returns the smoothed and the switched child, in that order, or None
    when no crossing is left.  The smoothed child clears the crossing's
    bit in its parent's mask; the switched child comes from
    :func:`_switch`.  ``pick`` is called with the mask and n and must
    return a maximal cell of the unresolved crossings.
    """
    sigma, unresolved = state
    if not unresolved:
        return None
    n = len(sigma)
    c = pick(unresolved, n)
    i, j = c
    bit = 1 << (j - 1) * n + n - i if 0 < i <= n and 0 < j <= n else 0
    if not unresolved & bit:
        raise ValueError(f"{c} is not an unresolved crossing of {sigma}")
    if unresolved & _cone(c, n) != bit:
        raise ValueError(f"selection policy returned non-maximal cell {c}")
    return (sigma, unresolved ^ bit), _switch(sigma, unresolved, c)


def terminals(g: GridConfiguration, node_cap: int = DEFAULT_NODE_CAP,
              pick: Callable[[int, int], Cell] = pick_top_left,
              ) -> Iterator[Permutation]:
    """Fully resolve ``g``, yielding each terminal permutation when reached.

    Branches depth-first on (smooth, switch) with :func:`_step` at the
    crossing chosen by ``pick``, which must always return a maximal cell
    of the mask it is given.  Each state on the stack carries the mask of
    its unresolved crossings, built once for ``g`` and updated by every
    step; a state is terminal when none is left.  While the leaves are
    drawn, more than ``node_cap`` states raise :class:`CapExceeded`, and
    elbows that a switch would move, as in G(123, {(1, 2)}),
    :class:`RuntimeError`.
    """
    stack: list[State] = [_root(g)]
    nodes = 0
    while stack:
        state = stack.pop()
        nodes += 1
        if nodes > node_cap:
            raise CapExceeded(f"resolution exceeded the node cap {node_cap}")
        step = _step(state, pick)
        if step is None:
            yield state[0]
            continue
        smoothed, switched = step
        stack += switched, smoothed


def resolve(g: GridConfiguration, node_cap: int = DEFAULT_NODE_CAP,
            pick: Callable[[int, int], Cell] = pick_top_left,
            ) -> Counter[Permutation]:
    """The terminal permutations of :func:`terminals` as a multiset."""
    return Counter(terminals(g, node_cap, pick))


# ---------------------------------------------------------------------------
# web permutations by resolution
# ---------------------------------------------------------------------------

class RepeatedTerminals(RuntimeError):
    """A resolution reached some permutation at more than one leaf."""


def _distinct_terminals(outcome: Counter[Permutation]) -> frozenset[Permutation]:
    repeated = {s for s, mult in outcome.items() if mult > 1}
    if repeated:
        raise RepeatedTerminals(f"terminal permutations repeat: {sorted(repeated)}")
    return frozenset(outcome)


def web_permutations(n: int) -> frozenset[Permutation]:
    """All permutations surviving full resolution of the identity grid."""
    return _distinct_terminals(resolve(empty_configuration(n)))


def web_permutations_for(m: Matching) -> frozenset[Permutation]:
    """Permutations surviving resolution started from the configuration of
    a nonnesting matching (identity marking, elbows above its Dyck path).

    This certifies the main theorem's sum: resolving the configuration of
    M gives each web permutation sigma with D(sigma) <= D(M) exactly once.
    """
    return _distinct_terminals(resolve(row_configuration(m)))


def matching_of_permutation(sigma: Permutation) -> Matching:
    """M(sigma): the matching traced from the fully smoothed configuration,
    the noncrossing matching of the Dyck path that
    :func:`~webperm.combinat.lehmer_path` reads off sigma.

    >>> matching_of_permutation((2, 4, 1, 3))
    ((1, 4), (2, 3), (5, 6), (7, 8))
    """
    if not is_permutation(sigma):
        raise ValueError(f"not a permutation: {sigma}")
    return noncrossing_arcs(lehmer_path(sigma))
