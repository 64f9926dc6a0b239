import itertools
from collections import Counter

import pytest

from webperm.andre import cycles
from webperm.combinat import (
    CapExceeded,
    cells_above,
    dyck_leq,
    dyck_of_matching,
    dyck_of_permutation,
    enumerate_matchings,
    identity,
    m0,
    matching,
)
from webperm.grid import (
    GridConfiguration,
    crossings_of,
    empty_configuration,
    matching_of_permutation,
    maximal_crossing,
    pick_bottom,
    pick_top_left,
    resolve,
    smooth,
    switch,
    _dominated,
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

def test_trace_figure_configuration():
    g = GridConfiguration(FIG_SIGMA, FIG_ELBOWS)
    assert trace_matching(g) == matching([(1, 3), (2, 7), (4, 6), (5, 8)])


def test_trace_elbows_above_path_reproduce_matching():
    m = matching([(1, 2), (3, 5), (4, 7), (6, 8)])
    elbows = cells_above(dyck_of_matching(m))
    assert elbows == frozenset({(1, 2), (1, 3), (1, 4), (2, 4)})
    assert trace_matching(GridConfiguration(identity(4), elbows)) == m


@pytest.mark.parametrize("n", range(1, 7))
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
# crossing selection, smoothing, switching
# ---------------------------------------------------------------------------

def test_maximal_crossing():
    assert maximal_crossing(GridConfiguration(FIG_SIGMA, FIG_ELBOWS)) == (2, 4)
    assert maximal_crossing(empty_configuration(3)) == (1, 3)
    full = GridConfiguration(FIG_SIGMA, crossings_of(FIG_SIGMA))
    assert maximal_crossing(full) is None


def test_upper_left_maximal_is_antichain():
    cells = frozenset({(1, 2), (2, 2), (2, 3), (3, 1), (3, 3)})
    maximal = {c for c in cells if not _dominated(c, cells)}
    assert maximal == {(1, 2), (2, 3)}
    for c, d in itertools.permutations(maximal, 2):
        assert not (c[0] <= d[0] and c[1] >= d[1])
    assert pick_bottom(cells) == (1, 2)
    assert pick_top_left(cells) == (2, 3)


def test_smooth_and_switch_worked_example():
    g = GridConfiguration(FIG_SIGMA, FIG_ELBOWS)
    smoothed = smooth(g, (2, 4))
    assert smoothed == GridConfiguration(FIG_SIGMA, FIG_ELBOWS | {(2, 4)})
    switched = switch(g, (2, 4))
    assert switched.sigma == (1, 4, 2, 3)
    assert switched.elbows == FIG_ELBOWS


def test_switch_identity_n3():
    assert switch(empty_configuration(3), (1, 3)).sigma == (3, 2, 1)
    assert smooth(empty_configuration(3), (1, 3)).elbows == frozenset({(1, 3)})


def test_resolving_preconditions():
    g = empty_configuration(3)
    with pytest.raises(ValueError):
        smooth(g, (1, 2))   # crossing, but not maximal
    with pytest.raises(ValueError):
        switch(g, (2, 2))   # not a crossing at all
    with pytest.raises(ValueError):
        smooth(GridConfiguration((1, 2, 3), frozenset({(1, 3)})), (1, 3))


def test_smoothing_everything_is_order_independent():
    for sigma in itertools.permutations(range(1, 5)):
        g = GridConfiguration(sigma, frozenset())
        while not g.is_terminal():
            g = smooth(g, maximal_crossing(g))
        assert g.elbows == crossings_of(sigma)


def test_switch_merges_the_two_cycles():
    # Walk the whole resolution tree through the public API and check the
    # cycle bookkeeping at every switch: the cycles holding column i and
    # row j concatenate, minima first.
    for n in range(2, 6):
        stack = [empty_configuration(n)]
        switches = 0
        while stack:
            g = stack.pop()
            c = maximal_crossing(g)
            if c is None:
                continue
            i, j = c
            before = cycles(g.sigma)
            holder_i = next(cyc for cyc in before if i in cyc)
            holder_j = next(cyc for cyc in before if j in cyc)
            assert holder_i != holder_j
            switched = switch(g, c)
            merged = holder_i + holder_j
            assert merged in cycles(switched.sigma)
            assert len(cycles(switched.sigma)) == len(before) - 1
            switches += 1
            stack.append(smooth(g, c))
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
    with pytest.raises(ValueError):
        resolve(empty_configuration(3), pick=lambda cells: min(cells))


@pytest.mark.parametrize("n", range(1, 6))
def test_resolution_order_independence(n):
    roots = [empty_configuration(n)]
    roots += [GridConfiguration(identity(n), cells_above(dyck_of_matching(m)))
              for m in enumerate_matchings(n, "NN")]
    for g in roots:
        a = resolve(g, pick=pick_top_left)
        b = resolve(g, pick=pick_bottom)
        assert a == b
        assert set(a.values()) <= {1}


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


# ---------------------------------------------------------------------------
# reference tables
# ---------------------------------------------------------------------------

def test_traced_matchings_match_reference(golden_web_tables):
    from webperm.combinat import inverse, perm_from_str
    for n, rows in golden_web_tables.items():
        for word, _cycles, path_col, matching_col in rows:
            sigma = perm_from_str(word)
            assert dyck_of_matching(matching_of_permutation(sigma)) == matching_col
            # the reference path column is recorded in transposed
            # coordinates: it equals the path of the inverse word
            assert dyck_of_permutation(inverse(sigma)) == path_col
