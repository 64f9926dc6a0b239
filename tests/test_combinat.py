import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import int_rows, matchings, perm_from_str
from webperm.combinat import (
    catalan,
    cells_above,
    dyck_heights,
    dyck_keys,
    dyck_leq,
    dyck_of_matching,
    dyck_of_permutation,
    dyck_paths,
    dyck_sort_key,
    enumerate_matchings,
    identity,
    inverse,
    is_noncrossing,
    is_nonnesting,
    lehmer_path,
    m0,
    matching,
    matching_from_dyck,
    matching_to_json,
    perm_to_str,
    syt_to_matching,
    validate_dyck,
)

SMALL = range(1, 6)


# ---------------------------------------------------------------------------
# matchings and classification
# ---------------------------------------------------------------------------

def test_matching_canonical_form():
    assert matching([(5, 3), (1, 2), (4, 6)]) == ((1, 2), (3, 5), (4, 6))


@pytest.mark.parametrize("pairs", [
    [(1, 1), (2, 3)],          # degenerate arc
    [(1, 2), (2, 3)],          # repeated endpoint
    [(1, 2), (4, 5)],          # gap in the ground set
])
def test_matching_rejects_bad_input(pairs):
    with pytest.raises(ValueError):
        matching(pairs)


@pytest.mark.parametrize("n", SMALL)
def test_classify_both_iff_staircase(n):
    for m in matchings(n):
        assert (is_noncrossing(m) and is_nonnesting(m)) == (m == m0(n))


def test_enumerate_counts():
    # the reference generator of every matching, and the two classes
    for n in range(1, 5):
        odd_double_factorial = math.prod(range(2 * n - 1, 0, -2))
        assert len(list(matchings(n))) == odd_double_factorial
    assert len(list(matchings(4))) == 105
    for n in range(1, 9):
        assert len(enumerate_matchings(n, "NC")) == catalan(n)
        assert len(enumerate_matchings(n, "NN")) == catalan(n)


def test_enumerate_n1_and_duplicates():
    assert list(matchings(1)) == [((1, 2),)]
    for n in SMALL:
        for out in (list(matchings(n)), enumerate_matchings(n, "NC"),
                    enumerate_matchings(n, "NN")):
            assert len(set(out)) == len(out)


def test_enumerate_nc_n3_known_list():
    expected = {
        matching([(1, 6), (2, 5), (3, 4)]),
        matching([(1, 6), (2, 3), (4, 5)]),
        matching([(1, 4), (2, 3), (5, 6)]),
        matching([(1, 2), (3, 6), (4, 5)]),
        matching([(1, 2), (3, 4), (5, 6)]),
    }
    assert set(enumerate_matchings(3, "NC")) == expected


@pytest.mark.parametrize("n", SMALL)
def test_enumerate_classes_agree_with_filter(n):
    everything = list(matchings(n))
    assert set(enumerate_matchings(n, "NC")) == {
        m for m in everything if is_noncrossing(m)}
    assert set(enumerate_matchings(n, "NN")) == {
        m for m in everything if is_nonnesting(m)}


def test_enumerate_cap():
    # no class needs a cap: each has Catalan(n) members, and there is no
    # class of all (2n-1)!! matchings to cap
    assert len(enumerate_matchings(9, "NC")) == catalan(9)
    for klass in ("all", "XX"):
        with pytest.raises(ValueError, match="unknown matching class"):
            enumerate_matchings(2, klass)


# ---------------------------------------------------------------------------
# Dyck paths
# ---------------------------------------------------------------------------

def test_dyck_of_matching():
    assert dyck_of_matching(matching([(1, 2), (3, 5), (4, 7), (6, 8)])) == "NENNENEE"
    assert dyck_of_matching(m0(4)) == "NENENENE"
    assert dyck_of_matching(matching([(1, 4), (2, 5), (3, 6)])) == "NNNEEE"


def test_matching_from_dyck():
    assert matching_from_dyck("NENNENEE", "NN") == matching(
        [(1, 2), (3, 5), (4, 7), (6, 8)])
    for klass in ("NC", "NN"):
        assert matching_from_dyck("NENENE", klass) == m0(3)
    assert matching_from_dyck("NNNEEE", "NC") == matching([(1, 6), (2, 5), (3, 4)])
    with pytest.raises(ValueError):
        matching_from_dyck("NNEE", "XX")
    with pytest.raises(ValueError):
        matching_from_dyck("ENNE", "NC")
    with pytest.raises(ValueError):
        validate_dyck("NNE")


@pytest.mark.parametrize("n", range(1, 7))
def test_dyck_matching_roundtrips(n):
    for p in dyck_paths(n):
        for klass in ("NC", "NN"):
            assert dyck_of_matching(matching_from_dyck(p, klass)) == p
    for m in enumerate_matchings(n, "NC"):
        assert matching_from_dyck(dyck_of_matching(m), "NC") == m
    for m in enumerate_matchings(n, "NN"):
        assert matching_from_dyck(dyck_of_matching(m), "NN") == m


@given(st.integers(1, 8).flatmap(lambda n: st.sampled_from(dyck_paths(n))),
       st.sampled_from(["NC", "NN"]))
def test_dyck_roundtrip_property(path, klass):
    m = matching_from_dyck(path, klass)
    assert dyck_of_matching(m) == path
    assert (is_noncrossing(m) if klass == "NC" else is_nonnesting(m))


def test_dyck_of_permutation():
    assert dyck_of_permutation((2, 1, 3, 5, 4)) == "NNEENENNEE"
    for n in range(1, 7):
        assert dyck_of_permutation(identity(n)) == "NE" * n
    assert dyck_of_permutation((3, 4, 1, 2)) == "NNNENEEE"
    with pytest.raises(ValueError):
        dyck_of_permutation((1, 3))


@pytest.mark.parametrize("n", range(1, 7))
def test_dyck_of_permutation_minimality(n):
    for sigma in itertools.permutations(range(1, n + 1)):
        heights = dyck_heights(dyck_of_permutation(sigma))
        assert all(sigma[i] <= heights[i] for i in range(n))
        # Lowering column i by one keeps a valid path iff it stays above
        # both the previous column and the diagonal; minimality means any
        # legal lowering must uncover the marked cell of that column.
        for i in range(n):
            prev = heights[i - 1] if i else 0
            if heights[i] - 1 >= max(prev, i + 1):
                assert sigma[i] == heights[i]


def _per_sigma(perms):
    return [(s, dyck_of_permutation(s), lehmer_path(s)) for s in perms]


@pytest.mark.parametrize("n", range(8))
def test_dyck_keys_read_both_paths_of_every_permutation(n):
    # every sigma of S_n, not only the web permutations, both parities of n
    perms = list(itertools.permutations(range(1, n + 1)))
    assert list(dyck_keys(perms)) == _per_sigma(perms)


def test_dyck_keys_keep_the_halves_of_each_length_apart():
    # the suffix (3, 1) holds D's last two steps from height 2 in S_3 and
    # from height 4 in S_4; the lengths take turns, so a memo shared
    # across them gives wrong paths
    by_length = [list(itertools.permutations(range(1, n + 1)))
                 for n in (3, 4, 5)]
    stream = [s for group in itertools.zip_longest(*by_length)
              for s in group if s is not None]
    assert list(dyck_keys(stream)) == _per_sigma(stream)


def test_dyck_keys_past_letter_255():
    rng = random.Random(3807)
    perms = [tuple(rng.sample(range(1, 301), 300)) for _ in range(4)]
    # shared halves: the same prefix under two suffixes, and the reverse
    perms += [perms[0][:150] + perms[0][150:][::-1],
              perms[1][:150][::-1] + perms[1][150:]]
    assert list(dyck_keys(perms)) == _per_sigma(perms)


@pytest.mark.parametrize("n", [4, 7])
def test_dyck_keys_share_one_string_per_path(n):
    keys = list(dyck_keys(itertools.permutations(range(1, n + 1))))
    paths = [p for _, d, m in keys for p in (d, m)]
    assert len({id(p) for p in paths}) == len(set(paths)) == catalan(n)


def _prefix_leq(p: str, q: str) -> bool:
    # Independent formulation: compare heights after every step.
    hp = hq = 0
    for a, b in zip(p, q):
        hp += 1 if a == "N" else -1
        hq += 1 if b == "N" else -1
        if hp > hq:
            return False
    return True


def test_dyck_leq():
    for n in range(1, 6):
        top = "N" * n + "E" * n
        for p in dyck_paths(n):
            assert dyck_leq("NE" * n, p)
            assert dyck_leq(p, top)
    assert not dyck_leq("NNEENE", "NENNEE")
    assert not dyck_leq("NENNEE", "NNEENE")
    with pytest.raises(ValueError):
        dyck_leq("NE", "NNEE")


@pytest.mark.parametrize("n", range(1, 5))
def test_dyck_leq_matches_stepwise_formulation(n):
    for p, q in itertools.product(dyck_paths(n), repeat=2):
        assert dyck_leq(p, q) == _prefix_leq(p, q)


@pytest.mark.parametrize("n", SMALL)
def test_dyck_leq_is_partial_order(n):
    paths = dyck_paths(n)
    for p in paths:
        assert dyck_leq(p, p)
    for p, q in itertools.combinations(paths, 2):
        assert not (dyck_leq(p, q) and dyck_leq(q, p))
    for p, q, r in itertools.product(paths, repeat=3):
        if dyck_leq(p, q) and dyck_leq(q, r):
            assert dyck_leq(p, r)


def test_dyck_sort_key_order():
    assert sorted(dyck_paths(3), key=dyck_sort_key) == [
        "NNNEEE", "NNENEE", "NNEENE", "NENNEE", "NENENE"]
    for n in range(1, 7):
        assert min(dyck_paths(n), key=dyck_sort_key) == "N" * n + "E" * n
        # the generator already emits table order
        assert dyck_paths(n) == sorted(dyck_paths(n), key=dyck_sort_key)


def test_dyck_sort_key_position_in_dyck8():
    ordered = sorted(dyck_paths(4), key=dyck_sort_key)
    assert len(ordered) == 14
    assert ordered.index("NENNENEE") + 1 == 11


@pytest.mark.parametrize("n", SMALL)
def test_dyck_sort_key_extends_reverse_inclusion(n):
    for p, q in itertools.permutations(dyck_paths(n), 2):
        if dyck_leq(q, p):  # p strictly contains q
            assert dyck_sort_key(p) < dyck_sort_key(q)


def test_cells_above():
    assert cells_above("NENNENEE") == frozenset(
        {(1, 2), (1, 3), (1, 4), (2, 4)})
    for n in range(1, 6):
        assert cells_above("N" * n + "E" * n) == frozenset()
        assert cells_above("NE" * n) == frozenset(
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
        for p in dyck_paths(n):
            assert len(cells_above(p)) == n * n - sum(dyck_heights(p))


# ---------------------------------------------------------------------------
# tableaux
# ---------------------------------------------------------------------------

def test_syt_to_matching():
    assert syt_to_matching([[1, 3, 4, 6], [2, 5, 7, 8]]) == matching(
        [(1, 2), (3, 5), (4, 7), (6, 8)])
    assert syt_to_matching([[1], [2]]) == ((1, 2),)
    assert syt_to_matching([[1, 2], [3, 4]]) == ((1, 3), (2, 4))


@pytest.mark.parametrize("rows", [
    [[1, 2, 3]],                    # one row
    [[1, 3], [2]],                  # ragged
    [[2, 3], [1, 4]],               # column decreasing
    [[1, 4], [3, 2]],               # row decreasing
    [[1, 2], [3, 5]],               # entries not 1..2n
])
def test_syt_rejects_bad_input(rows):
    with pytest.raises(ValueError):
        syt_to_matching(rows)


@pytest.mark.parametrize("n", SMALL)
def test_syt_correspondence_with_nonnesting(n):
    # openers/closers in order give back the tableau of any nonnesting
    # matching, and every tableau maps to a nonnesting matching
    for m in enumerate_matchings(n, "NN"):
        top = sorted(a for a, _ in m)
        bottom = sorted(b for _, b in m)
        assert syt_to_matching([top, bottom]) == m
        assert is_nonnesting(syt_to_matching([top, bottom]))


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def test_serialization_roundtrips():
    m = matching([(1, 4), (2, 5), (3, 6)])
    assert matching(matching_to_json(m)) == m
    assert matching_to_json(m) == [[1, 4], [2, 5], [3, 6]]
    assert perm_from_str("312") == (3, 1, 2)
    assert perm_from_str(perm_to_str(tuple(range(1, 12)))) == tuple(range(1, 12))
    with pytest.raises(ValueError):
        perm_from_str("313")


@given(int_rows())
def test_perm_to_str_joins_the_decimal_letters(row):
    # words of any ints, short and long: the letters joined by nothing
    # below length 10 and by commas from there
    sigma = tuple(row)
    sep = "" if len(sigma) < 10 else ","
    assert perm_to_str(sigma) == sep.join(map(str, sigma))


def test_inverse():
    assert inverse((3, 1, 2)) == (2, 3, 1)
    assert inverse(identity(5)) == identity(5)
