from collections import Counter

import pytest

from conftest import even_lehmer_code, perm_from_str
from webperm.andre import andre_cycle_permutations, cycle_count, foata, rlmin
from webperm.enumeration import (
    cc_distribution,
    census,
    entringer,
    euler_numbers,
    f,
    f_nk,
    f_witnesses,
    genocchi,
    seidel_rows,
    verify_conjecture,
    web_count,
)
from webperm.grid import web_permutations
from webperm.webs import web_table

# the first nine rows of the boustrophedon triangle
SEIDEL_9 = [
    [1],
    [1],
    [1, 1],
    [2, 1],
    [2, 3, 3],
    [8, 6, 3],
    [8, 14, 17, 17],
    [56, 48, 34, 17],
    [56, 104, 138, 155, 155],
]


@pytest.mark.parametrize("n", range(10))
def test_f_counts_the_web_permutations_of_even_lehmer_code(n):
    # M(sigma) is the staircase iff every Lehmer entry of sigma is even, a
    # second construction of f(n) that reads no matching
    count = sum(map(even_lehmer_code, andre_cycle_permutations(n)))
    assert count == f(n) == [1, *genocchi(9)][n]


def test_seidel_rows():
    assert list(seidel_rows(9)) == SEIDEL_9
    assert list(seidel_rows(7))[6] == [8, 14, 17, 17]
    assert list(seidel_rows(1)) == [[1]]
    with pytest.raises(ValueError):
        seidel_rows(0)


def test_genocchi():
    assert genocchi(9) == [1, 1, 1, 2, 3, 8, 17, 56, 155]


def test_genocchi_of_no_terms_is_empty_and_a_negative_count_is_named():
    # g_1..g_0 is empty, as euler_numbers(0) is [1] and f(0) is 1
    assert genocchi(0) == []
    with pytest.raises(ValueError, match="upto must be >= 0, got -1"):
        genocchi(-1)


def test_euler_numbers():
    assert euler_numbers(6) == [1, 1, 1, 2, 5, 16, 61]
    assert euler_numbers(8)[7:] == [272, 1385]


def entringer_row(n):
    return [entringer(n, k) for k in range(1, n + 1)]


def test_entringer_values_and_identities():
    assert entringer_row(4) == [2, 4, 5, 5]
    for n in range(1, 9):
        assert sum(entringer_row(n)) == euler_numbers(n + 1)[n + 1]
        assert entringer(n, 0) == 0
    with pytest.raises(ValueError):
        entringer(3, 4)


def test_entringer_row4_against_reference_table(golden_web_tables):
    # independent oracle: first letters counted straight off the n = 4 rows
    firsts = Counter(perm_from_str(word)[0]
                     for word, *_ in golden_web_tables[4])
    assert [firsts[5 - k] for k in range(1, 5)] == entringer_row(4)


@pytest.mark.parametrize("n", range(7))
def test_web_count_is_zigzag(n):
    assert web_count(n) == euler_numbers(n + 1)[n + 1]


@pytest.mark.parametrize("source", ["characterize", "resolve"])
def test_web_set_of_zero_is_the_empty_word(source):
    construction = {"characterize": andre_cycle_permutations,
                    "resolve": web_permutations}[source]
    assert list(construction(0)) == [()]


def test_web_count_rejects_negative_n():
    with pytest.raises(ValueError):
        web_count(-1)


@pytest.mark.parametrize("n", range(0, 7))
def test_first_letter_refinement(n):
    # Web_0's empty word has no first letter
    firsts, _ = census(n)
    assert set(firsts) <= set(range(1, n + 1))
    for k in range(1, n + 1):
        assert firsts.get(n + 1 - k, 0) == entringer(n, k)


def test_f_values_and_witnesses():
    assert [f(n) for n in range(1, 7)] == genocchi(6)
    assert f(0) == 1                        # the empty word, traced to ()
    assert census(0) == ({}, {})            # which has no first letter
    assert f_witnesses(4) == [(1, 2, 3, 4), (3, 4, 1, 2)]
    assert f_witnesses(5) == [(1, 2, 3, 4, 5), (1, 4, 5, 2, 3), (3, 4, 1, 2, 5)]
    assert (f_nk(5, 1), f_nk(5, 3), f_nk(5, 5)) == (2, 1, 0)
    assert sum(census(3)[1].values()) == f(3)
    with pytest.raises(ValueError):
        f_nk(3, 4)


@pytest.mark.parametrize("n", range(1, 7))
def test_f_vanishing(n):
    for k in range(2, n + 1, 2):
        assert f_nk(n, k) == 0
    if n > 1:
        assert f_nk(n, n) == 0


def test_verify_conjecture():
    reports = verify_conjecture(6)
    assert len(reports) == 12
    assert all(r["pass"] for r in reports)
    assert all(set(r) == {"claim", "n", "k", "lhs", "rhs", "pass"}
               for r in reports)
    by_nk = {(r["n"], r["k"]): r for r in reports}
    assert (by_nk[(4, 1)]["lhs"], by_nk[(4, 1)]["rhs"]) == (1, 1)
    assert (by_nk[(4, 3)]["lhs"], by_nk[(4, 3)]["rhs"]) == (1, 1)
    assert (by_nk[(5, 1)]["lhs"], by_nk[(5, 1)]["rhs"]) == (2, 2)
    assert (by_nk[(5, 3)]["lhs"], by_nk[(5, 3)]["rhs"]) == (1, 1)
    assert (by_nk[(1, 1)]["lhs"], by_nk[(1, 1)]["rhs"]) == (1, 1)
    with pytest.raises(ValueError):
        verify_conjecture(0)


def test_cc_distribution():
    assert cc_distribution(3) == {1: 1, 2: 3, 3: 1}
    assert cc_distribution(0) == {0: 1}
    assert sum(cc_distribution(4).values()) == 16


@pytest.mark.parametrize("n", range(1, 7))
def test_cc_distribution_totals_and_foata_equidistribution(n):
    dist = cc_distribution(n)
    assert sum(dist.values()) == euler_numbers(n + 1)[n + 1]
    records = web_table(n)
    assert Counter(cycle_count(r.sigma) for r in records) == Counter(
        rlmin(foata(r.sigma)) for r in records)
