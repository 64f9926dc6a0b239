import itertools
import math
import random
import re
from collections import Counter

import pytest

from conftest import even_lehmer_code
from webperm import grid
from webperm.andre import cycles
from webperm.combinat import (
    CapExceeded,
    cells_above,
    dyck_leq,
    dyck_of_matching,
    dyck_of_permutation,
    enumerate_matchings,
    identity,
    inverse,
    m0,
    matching,
)
from webperm.grid import (
    GridConfiguration,
    crossings_of,
    empty_configuration,
    matching_of_permutation,
    pick_bottom,
    pick_top_left,
    resolve,
    row_configuration,
    _cells,
    _cone,
    _mask,
    _root,
    _step,
    trace_matching,
    web_permutations,
    web_permutations_for,
)

FIG_SIGMA = (1, 3, 2, 4)
FIG_ELBOWS = frozenset({(1, 3), (1, 4)})


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------

def test_crossings_of_identity():
    for n in range(1, 7):
        assert crossings_of(identity(n)) == frozenset(
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def test_crossings_of_reverse():
    for n in range(1, 7):
        assert crossings_of(tuple(range(n, 0, -1))) == frozenset()


def test_crossings_of_1324():
    cr = crossings_of(FIG_SIGMA)
    assert cr == frozenset({(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)})
    assert {(1, 3), (1, 4), (2, 4)} <= cr


def test_configuration_validation():
    with pytest.raises(ValueError):
        GridConfiguration((2, 1), frozenset({(1, 2)}))  # not a crossing
    with pytest.raises(ValueError):
        GridConfiguration((1, 1), frozenset())          # not a permutation


# ---------------------------------------------------------------------------
# strand tracing
# ---------------------------------------------------------------------------

# A reference walker that classifies each cell by kind and routes the
# strand through tables: how it passes through one cell, by cell kind and
# entry edge (L/R/T/B = left/right/top/bottom), and where it goes when it
# leaves.  The package's integer walk must agree with it everywhere.
_ROUTES = {
    "marking": {"L": "T", "T": "L"},
    "elbow": {"L": "B", "B": "L", "T": "R", "R": "T"},
    "crossing": {"L": "R", "R": "L", "B": "T", "T": "B"},
    "hline": {"L": "R", "R": "L"},
    "vline": {"B": "T", "T": "B"},
    "empty": {},
}
_MOVES = {"L": (-1, 0, "R"), "R": (1, 0, "L"), "T": (0, 1, "B"), "B": (0, -1, "T")}


def _cell_kind(g, inv, i, j):
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


def _reference_trace(g):
    n = len(g.sigma)
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
        while 1 <= i <= n and 1 <= j <= n:
            di, dj, edge = _MOVES[_ROUTES[_cell_kind(g, inv, i, j)][edge]]
            i, j = i + di, j + dj
        assert i == 0 or j == n + 1, "strand left through an unlabelled side"
        end = j if i == 0 else n + i
        arcs.append((label, end))
        used.update((label, end))
    return matching(arcs)


def _roots(n):
    """The identity configuration and the root of every matrix row."""
    return [empty_configuration(n)] + [row_configuration(m)
                                       for m in enumerate_matchings(n, "NN")]


def _resolution_states(root, pick):
    """Every state (sigma, unresolved) that ``resolve(root, pick=pick)``
    visits, as (sigma, elbows, unresolved) with both cell sets decoded.
    The elbows are tracked here as a mask: a smoothed child adds the
    crossing its parent resolved, and a switched child keeps its
    parent's."""
    n = len(root.sigma)
    stack = [(*_root(root), _mask(root.elbows, n))]
    leaves = Counter()
    while stack:
        sigma, unresolved, elbows = stack.pop()
        yield (sigma, frozenset(_cells(elbows, n)),
               frozenset(_cells(unresolved, n)))
        step = _step((sigma, unresolved), pick)
        if step is None:
            leaves[sigma] += 1
            continue
        (_, rest), (word, moved) = step
        stack += ((word, moved, elbows),
                  (sigma, rest, elbows | (unresolved ^ rest)))
    assert leaves == resolve(root, pick=pick)


@pytest.mark.parametrize("pick", [pick_top_left, pick_bottom])
@pytest.mark.parametrize("n", range(2, 6))
def test_trace_matches_reference_on_resolution_states(n, pick):
    partial = 0
    for root in _roots(n):
        for sigma, elbows, _ in _resolution_states(root, pick):
            g = GridConfiguration(sigma, elbows)
            assert trace_matching(g) == _reference_trace(g)
            partial += g.elbows != crossings_of(g.sigma)
    assert partial > 0


@pytest.mark.parametrize("n", range(0, 6))
def test_trace_matches_reference_on_every_elbow_subset(n):
    for sigma in itertools.permutations(range(1, n + 1)):
        cells = sorted(crossings_of(sigma))
        for k in range(len(cells) + 1):
            for elbows in itertools.combinations(cells, k):
                g = GridConfiguration(sigma, frozenset(elbows))
                assert trace_matching(g) == _reference_trace(g)


@pytest.mark.parametrize("n", range(0, 7))
def test_walked_arcs_are_canonical(n):
    # the legs' labels are paired without the re-sort of matching()
    for sigma in itertools.permutations(range(1, n + 1)):
        for m in (matching_of_permutation(sigma),
                  trace_matching(GridConfiguration(sigma, frozenset()))):
            assert matching(m) == m


def _first_stale_state(n, pick):
    """The first state of the identity tree or a row tree of size ``n``
    whose unresolved set is not ``crossings_of`` its word minus its
    elbows."""
    for root in _roots(n):
        for sigma, elbows, unresolved in _resolution_states(root, pick):
            if unresolved != crossings_of(sigma) - elbows:
                return sigma, elbows
    return None


@pytest.mark.parametrize("pick", [pick_top_left, pick_bottom])
@pytest.mark.parametrize("n", range(1, 7))
def test_carried_crossings_equal_crossings_of(n, pick):
    assert _first_stale_state(n, pick) is None


def _switch_skipping(line):
    """``_switch`` with one of the four lines it must recompute left as it
    was in the parent: column i or k = sigma^-1(j), row a = sigma(i) or j."""
    real = grid._switch

    def switch(sigma, unresolved, c):
        i, j = c
        n = len(sigma)
        axis, index = {"column i": (0, i), "column k": (0, sigma.index(j) + 1),
                       "row a": (1, sigma[i - 1]), "row j": (1, j)}[line]
        kept = _mask([d for d in itertools.product(range(1, n + 1), repeat=2)
                      if d[axis] == index], n)
        word, fresh = real(sigma, unresolved, c)
        return word, (fresh & ~kept) | (unresolved & kept)
    return switch


@pytest.mark.parametrize("line", ["column i", "column k", "row a", "row j"])
def test_a_line_left_unrecomputed_is_caught(line, monkeypatch):
    monkeypatch.setattr(grid, "_switch", _switch_skipping(line))
    assert _first_stale_state(5, pick_top_left) is not None


@pytest.mark.parametrize("n", range(1, 8))
def test_matching_of_permutation_matches_reference(n):
    for sigma in itertools.permutations(range(1, n + 1)):
        full = GridConfiguration(sigma, crossings_of(sigma))
        assert matching_of_permutation(sigma) == _reference_trace(full)


@pytest.mark.parametrize("n", range(0, 9))
def test_matching_of_permutation_matches_the_walker(n):
    # the Lehmer-code insertion against the strand walk of the fully
    # smoothed grid, every crossing an elbow
    for sigma in itertools.permutations(range(1, n + 1)):
        full = GridConfiguration(sigma, crossings_of(sigma))
        assert matching_of_permutation(sigma) == trace_matching(full)


def test_matching_of_permutation_matches_the_walker_past_letter_255():
    rng = random.Random(3200)
    for _ in range(3):
        sigma = tuple(rng.sample(range(1, 301), 300))
        full = GridConfiguration(sigma, crossings_of(sigma))
        assert matching_of_permutation(sigma) == trace_matching(full)


@pytest.mark.parametrize("n", range(0, 8))
def test_staircase_iff_every_lehmer_entry_is_even(n):
    # "NE" inserted into the staircase word keeps it the staircase iff the
    # index is even, and removing an adjacent NE from the staircase leaves
    # the staircase, so M(sigma) = m0(n) iff the code is all even
    staircase = 0
    for sigma in itertools.permutations(range(1, n + 1)):
        even = even_lehmer_code(sigma)
        assert (matching_of_permutation(sigma) == m0(n)) == even, sigma
        staircase += even
    # entry i of a code takes n - i + 1 values, so ceil((n - i + 1) / 2)
    # even codes choose independently: 1 * 1 * 2 * 2 * 3 * 3 * ...
    assert staircase == math.prod((i + 1) // 2 for i in range(1, n + 1))


def test_matching_of_permutation_rejects_non_permutations():
    for word in [(1, 1), (2, 3)]:
        with pytest.raises(ValueError):
            matching_of_permutation(word)


def test_trace_figure_configuration():
    g = GridConfiguration(FIG_SIGMA, FIG_ELBOWS)
    assert trace_matching(g) == matching([(1, 3), (2, 7), (4, 6), (5, 8)])


def test_trace_elbows_above_path_reproduce_matching():
    m = matching([(1, 2), (3, 5), (4, 7), (6, 8)])
    g = row_configuration(m)
    assert g.elbows == frozenset({(1, 2), (1, 3), (1, 4), (2, 4)})
    assert trace_matching(g) == m


# n = 130 has labels past 255
@pytest.mark.parametrize("n", [*range(1, 7), 130])
def test_trace_empty_configuration_is_aligned(n):
    assert trace_matching(empty_configuration(n)) == matching(
        (i, n + i) for i in range(1, n + 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_traced_terminal_matchings_are_noncrossing(n):
    for sigma in itertools.permutations(range(1, n + 1)):
        m = matching_of_permutation(sigma)
        assert dyck_of_matching(m) and m == matching(m)
        assert not any(a < c < b < d for (a, b), (c, d)
                       in itertools.combinations(m, 2))


# ---------------------------------------------------------------------------
# crossing selection and the resolution step
# ---------------------------------------------------------------------------

def children(g, pick=pick_top_left):
    """The smoothed and the switched child of ``g`` at the crossing chosen
    by ``pick``, or None when ``g`` is terminal: :func:`_step` on
    configurations."""
    crossings = crossings_of(g.sigma)
    step = _step(_root(g), pick)
    if step is None:
        return None
    (_, rest), (switched, _) = step
    return (GridConfiguration(g.sigma,
                              crossings - set(_cells(rest, len(g.sigma)))),
            GridConfiguration(switched, g.elbows))


def test_children_of_the_identity():
    smoothed, switched = children(empty_configuration(3))
    assert (sorted(smoothed.elbows), switched.sigma) == ([(1, 3)], (3, 2, 1))


def _cone_by_definition(c, n):
    i, j = c
    return {(x, y) for x in range(1, i + 1) for y in range(j, n + 1)}


@pytest.mark.parametrize("n", range(1, 6))
def test_masks_round_trip_and_cones_follow_the_order(n):
    grid_cells = list(itertools.product(range(1, n + 1), repeat=2))
    assert _mask(grid_cells, n) == (1 << n * n) - 1
    for c in grid_cells:
        assert _cells(_mask([c], n), n) == [c]
        assert _cells(_cone(c, n), n) == sorted(_cone_by_definition(c, n))
    rng = random.Random(n)
    for _ in range(200):
        cells = {c for c in grid_cells if rng.random() < 0.3}
        mask = _mask(cells, n)
        assert _cells(mask, n) == sorted(cells)
        if cells:
            # the highest bit is the top-left cell
            assert pick_top_left(mask, n) == max(cells,
                                                 key=lambda c: (c[1], -c[0]))


def _picked(g):
    """The crossing ``_step`` resolves in ``g`` by default, or None when
    ``g`` is terminal."""
    split = children(g)
    if split is None:
        return None
    smoothed, _ = split
    (c,) = smoothed.elbows - g.elbows
    return c


def _children(g, c):
    """The smoothed and switched configurations of ``g`` at ``c``."""
    return children(g, lambda unresolved, n: c)


def test_maximal_crossing():
    assert _picked(GridConfiguration(FIG_SIGMA, FIG_ELBOWS)) == (2, 4)
    assert _picked(empty_configuration(3)) == (1, 3)
    full = GridConfiguration(FIG_SIGMA, crossings_of(FIG_SIGMA))
    assert _picked(full) is None


def test_upper_left_maximal_is_antichain():
    cells = frozenset({(1, 2), (2, 2), (2, 3), (3, 1), (3, 3)})
    mask = _mask(cells, 3)
    maximal = {c for c in cells if mask & _cone(c, 3) == _mask([c], 3)}
    assert maximal == {(1, 2), (2, 3)}
    for c, d in itertools.permutations(maximal, 2):
        assert not (c[0] <= d[0] and c[1] >= d[1])
    assert pick_bottom(mask, 3) == (1, 2)
    assert pick_top_left(mask, 3) == (2, 3)


@pytest.mark.parametrize("n", range(1, 5))
def test_pick_bottom_is_the_lowest_maximal_cell(n):
    grid_cells = list(itertools.product(range(1, n + 1), repeat=2))
    for k in range(1, min(len(grid_cells), 6) + 1):
        for cells in itertools.combinations(grid_cells, k):
            maximal = [c for c in cells
                       if not any(d != c and d[0] <= c[0] and d[1] >= c[1]
                                  for d in cells)]
            assert pick_bottom(_mask(cells, n), n) == min(
                maximal, key=lambda c: (c[1], c[0]))


def test_smooth_and_switch_worked_example():
    state = _root(GridConfiguration(FIG_SIGMA, FIG_ELBOWS))
    assert _cells(state[1], 4) == [(1, 2), (2, 4), (3, 4)]
    assert crossings_of((1, 4, 2, 3)) == {(1, 2), (1, 3), (1, 4), (3, 3)}
    assert _step(state, lambda unresolved, n: (2, 4)) == (
        (FIG_SIGMA, _mask({(1, 2), (3, 4)}, 4)),
        ((1, 4, 2, 3), _mask({(1, 2), (3, 3)}, 4)))
    assert children(GridConfiguration(FIG_SIGMA, FIG_ELBOWS),
                    lambda unresolved, n: (2, 4)) == (
        GridConfiguration(FIG_SIGMA, FIG_ELBOWS | {(2, 4)}),
        GridConfiguration((1, 4, 2, 3), FIG_ELBOWS))


def test_switch_identity_n3():
    smoothed, switched = _children(empty_configuration(3), (1, 3))
    assert switched.sigma == (3, 2, 1)
    assert switched.elbows == frozenset()
    assert smoothed.elbows == frozenset({(1, 3)})


def test_resolving_preconditions():
    g = empty_configuration(3)
    with pytest.raises(ValueError, match="non-maximal"):
        _children(g, (1, 2))   # crossing, but not maximal
    with pytest.raises(ValueError, match="not an unresolved crossing"):
        _children(g, (2, 2))   # not a crossing at all
    with pytest.raises(ValueError, match="not an unresolved crossing"):
        _children(GridConfiguration((1, 2, 3), frozenset({(1, 3)})), (1, 3))
    for off_grid in ((0, 1), (1, 0), (4, 1), (1, 4)):
        with pytest.raises(ValueError, match="not an unresolved crossing"):
            _children(g, off_grid)


def test_smoothing_everything_is_order_independent():
    for sigma in itertools.permutations(range(1, 5)):
        g = GridConfiguration(sigma, frozenset())
        while (c := _picked(g)) is not None:
            g, _ = _children(g, c)
        assert g.elbows == crossings_of(sigma)


def test_switch_merges_the_two_cycles():
    # Walk the whole resolution tree through the one step and check the
    # cycle bookkeeping at every switch: the cycles holding column i and
    # row j concatenate, minima first.
    for n in range(2, 6):
        stack = [empty_configuration(n)]
        switches = 0
        while stack:
            g = stack.pop()
            c = _picked(g)
            if c is None:
                continue
            i, j = c
            before = cycles(g.sigma)
            holder_i = next(cyc for cyc in before if i in cyc)
            holder_j = next(cyc for cyc in before if j in cyc)
            assert holder_i != holder_j
            smoothed, switched = _children(g, c)
            merged = holder_i + holder_j
            assert merged in cycles(switched.sigma)
            assert len(cycles(switched.sigma)) == len(before) - 1
            switches += 1
            stack.append(smoothed)
            stack.append(switched)
        assert switches > 0


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------

def test_resolve_small_webs():
    assert set(resolve(empty_configuration(1))) == {(1,)}
    assert set(resolve(empty_configuration(2))) == {(1, 2), (2, 1)}
    assert set(resolve(empty_configuration(3))) == {
        (1, 2, 3), (2, 1, 3), (1, 3, 2), (2, 3, 1), (3, 2, 1)}


def test_resolve_node_cap():
    with pytest.raises(CapExceeded):
        resolve(empty_configuration(3), node_cap=3)


def test_resolve_rejects_bad_policy():
    with pytest.raises(ValueError, match="non-maximal"):
        # the lowest bit: the rightmost cell of the lowest row, (1, 2)
        resolve(empty_configuration(3),
                pick=lambda unresolved, n: _cells(unresolved & -unresolved,
                                                  n)[0])
    # (1, 1) is no crossing of 312 and is dominated by none, so only the
    # membership check stops it before the switch breaks the elbows.
    with pytest.raises(ValueError, match="not an unresolved crossing"):
        resolve(GridConfiguration((3, 1, 2), frozenset()),
                pick=lambda unresolved, n: (1, 1))


@pytest.mark.parametrize("pick", [pick_top_left, pick_bottom])
def test_resolve_refuses_elbows_a_switch_would_move(pick):
    # the elbow (1, 2) lies below the maximal crossing (1, 3), so switching
    # (1, 3) would take it off the crossings of the switched word
    g = GridConfiguration((1, 2, 3), frozenset({(1, 2)}))
    message = "switching (1, 3) in (1, 2, 3) invalidated elbows [(1, 2)]"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        resolve(g, pick=pick)
    with pytest.raises(RuntimeError, match=re.escape(message)):
        children(g, pick)


@pytest.mark.parametrize("n", range(1, 6))
def test_resolution_order_independence(n):
    roots = [empty_configuration(n)]
    roots += [row_configuration(m) for m in enumerate_matchings(n, "NN")]
    for g in roots:
        a = resolve(g, pick=pick_top_left)
        b = resolve(g, pick=pick_bottom)
        assert a == b
        assert set(a.values()) <= {1}


@pytest.mark.parametrize("n", [-1, -2])
def test_negative_sizes_are_refused(n):
    with pytest.raises(ValueError, match="n must be >= 0"):
        empty_configuration(n)
    with pytest.raises(ValueError, match="n must be >= 0"):
        web_permutations(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_web_permutation_counts(n):
    expected = [1, 2, 5, 16, 61, 272][n - 1]
    assert len(web_permutations(n)) == expected


@pytest.mark.parametrize("n", range(1, 6))
def test_web_for_staircase_is_identity_only(n):
    assert web_permutations_for(m0(n)) == frozenset({identity(n)})


@pytest.mark.parametrize("n", range(1, 6))
def test_web_for_matching_is_path_filter(n):
    all_webs = web_permutations(n)
    for m in enumerate_matchings(n, "NN"):
        path = dyck_of_matching(m)
        assert web_permutations_for(m) == frozenset(
            s for s in all_webs if dyck_leq(dyck_of_permutation(s), path))
    aligned = matching((i, n + i) for i in range(1, n + 1))
    assert web_permutations_for(aligned) == all_webs


def test_web_for_rejects_nesting():
    with pytest.raises(ValueError):
        web_permutations_for(matching([(1, 4), (2, 3)]))


@pytest.mark.parametrize("n", range(1, 6))
def test_row_configuration(n):
    aligned = matching((i, n + i) for i in range(1, n + 1))
    assert row_configuration(aligned) == empty_configuration(n)
    for m in enumerate_matchings(n, "NN"):
        g = row_configuration(m)
        assert g.sigma == identity(n)
        assert g.elbows == cells_above(dyck_of_matching(m))


def test_row_configuration_rejects_nesting():
    with pytest.raises(ValueError, match="not nonnesting"):
        row_configuration(matching([(1, 4), (2, 3)]))


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------

def test_traced_matchings_match_reference(golden_web_tables):
    from conftest import perm_from_str
    from webperm.combinat import inverse
    for n, rows in golden_web_tables.items():
        for word, _cycles, path_col, matching_col in rows:
            sigma = perm_from_str(word)
            assert dyck_of_matching(matching_of_permutation(sigma)) == matching_col
            # the reference path column is recorded in transposed
            # coordinates: it equals the path of the inverse word
            assert dyck_of_permutation(inverse(sigma)) == path_col
