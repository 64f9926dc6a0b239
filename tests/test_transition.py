from collections import Counter

import pytest

from webperm.andre import is_312_avoiding
from webperm.combinat import (
    dyck_leq,
    dyck_of_matching,
    dyck_of_permutation,
    matching,
    matching_from_dyck,
)
from webperm import transition
from webperm.oracle import syzygy_expand
from webperm.transition import (
    TransitionMatrix,
    col_labels,
    entry,
    matrix,
    resolution_matrix,
    row_labels,
    support_check,
    to_csv,
    to_json,
    to_latex,
)
from webperm.webs import web_table


def test_labels_are_sorted_by_path():
    assert row_labels(3) == [
        matching([(1, 4), (2, 5), (3, 6)]),
        matching([(1, 3), (2, 5), (4, 6)]),
        matching([(1, 3), (2, 4), (5, 6)]),
        matching([(1, 2), (3, 5), (4, 6)]),
        matching([(1, 2), (3, 4), (5, 6)]),
    ]
    assert col_labels(3) == [
        matching([(1, 6), (2, 5), (3, 4)]),
        matching([(1, 6), (2, 3), (4, 5)]),
        matching([(1, 4), (2, 3), (5, 6)]),
        matching([(1, 2), (3, 6), (4, 5)]),
        matching([(1, 2), (3, 4), (5, 6)]),
    ]


def test_entry_examples():
    one = entry(matching([(1, 4), (2, 5), (3, 6)]),
                matching([(1, 6), (2, 5), (3, 4)]))
    assert one == 1
    zero = entry(matching([(1, 3), (2, 4), (5, 6)]),
                 matching([(1, 2), (3, 6), (4, 5)]))
    assert zero == 0
    top_row = matching_from_dyck("NNNNEEEE", "NN")
    sixth_col = col_labels(4)[5]
    assert entry(top_row, sixth_col) == 2


def test_entry_validates_classes():
    has_crossing = matching([(1, 3), (2, 4)])
    has_nesting = matching([(1, 4), (2, 3)])
    with pytest.raises(ValueError):
        entry(has_nesting, has_nesting)      # row must be nonnesting
    with pytest.raises(ValueError):
        entry(has_crossing, has_crossing)    # column must be noncrossing
    with pytest.raises(ValueError):
        entry(matching([(1, 2)]), matching([(1, 2), (3, 4)]))  # size mismatch


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_matches_reference(n, golden_matrices):
    a = matrix(n)
    if n in golden_matrices:
        assert [list(row) for row in a.entries] == golden_matrices[n]
    else:
        assert a.entries == ((1,),)


def literal_entries(n):
    """The main theorem read literally: entry (M, M') counts the web
    records sigma with D(sigma) <= D(M) and M(sigma) = M'."""
    table = web_table(n)
    cols = col_labels(n)
    out = []
    for m in row_labels(n):
        path = dyck_of_matching(m)
        below = Counter(rec.matched for rec in table if dyck_leq(rec.dyck, path))
        out.append(tuple(below[c] for c in cols))
    return tuple(out)


@pytest.mark.parametrize("n", range(0, 8))
def test_matrix_matches_literal_characterization(n):
    assert matrix(n).entries == literal_entries(n)


def test_entry_reads_every_position():
    a = matrix(4)
    expected = literal_entries(4)
    assert [[entry(m, c) for c in a.cols] for m in a.rows] == [
        list(row) for row in expected]


@pytest.mark.parametrize("n", range(1, 7))
def test_methods_agree(n):
    assert matrix(n).entries == resolution_matrix(n).entries


def test_resolution_matrix_traces_each_web_permutation_once(monkeypatch):
    real = transition.matching_of_permutation
    traced = []

    def counting(sigma):
        traced.append(sigma)
        return real(sigma)
    monkeypatch.setattr(transition, "matching_of_permutation", counting)
    a = resolution_matrix(5)
    assert len(traced) == len(set(traced)) == 61
    assert a.entries == matrix(5).entries


@pytest.mark.parametrize("n", range(1, 6))
def test_syzygy_oracle_agrees(n):
    a = matrix(n)
    for m, row in zip(a.rows, a.entries):
        coeffs = syzygy_expand(m)
        assert [coeffs.get(c, 0) for c in a.cols] == list(row)


@pytest.mark.parametrize("n", range(1, 6))
def test_support_check_is_clean(n):
    assert support_check(matrix(n)) == []


def test_support_check_reports_violations():
    a = matrix(3)
    doctored = TransitionMatrix(
        a.n, a.rows, a.cols,
        tuple(tuple(2 if (r, c) == (1, 0) else v for c, v in enumerate(row))
              for r, row in enumerate(a.entries)))
    reasons = {v["reason"] for v in support_check(doctored)}
    assert reasons == {"positivity must match path inclusion",
                       "lower triangle must vanish"}


@pytest.mark.parametrize("n", range(1, 7))
def test_top_row_sums_to_web_count(n):
    a = matrix(n)
    assert sum(a.entries[0]) == len(web_table(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_diagonal_witnesses_avoid_312(n):
    a = matrix(n)
    for r, m in enumerate(a.rows):
        path = dyck_of_matching(m)
        witnesses = [rec.sigma for rec in web_table(n)
                     if rec.matched == a.cols[r]
                     and dyck_leq(rec.dyck, path)]
        assert len(witnesses) == 1
        assert is_312_avoiding(witnesses[0])
        assert dyck_of_permutation(witnesses[0]) == path


def test_exports():
    a = matrix(2)
    assert to_csv(a) == "1,1\n0,1"
    latex = to_latex(a)
    assert latex.splitlines()[1:3] == ["  1 & 1 \\\\", "   & 1 \\\\"]
    data = to_json(a)
    assert data["n"] == 2
    assert data["entries"] == [[1, 1], [0, 1]]
    assert data["rows"][0] == [[1, 3], [2, 4]]
    assert data["cols"][0] == [[1, 4], [2, 3]]
