import itertools

import pytest
from hypothesis import given, strategies as st

from webperm.andre import (
    andre_full_cycles,
    canonical_cycle,
    cycle_count,
    cycles,
    cycles_to_str,
    foata,
    foata_inverse,
    full_cycles,
    is_312_avoiding,
    is_andre_cycle,
    is_andre_word,
    is_web,
    permutation_from_cycle,
    phi,
    rlmin,
)
from webperm.combinat import catalan, dyck_of_permutation, dyck_paths, identity
from webperm.enumeration import euler_numbers
from webperm.grid import web_permutations


# ---------------------------------------------------------------------------
# words and cycles
# ---------------------------------------------------------------------------

def test_andre_word_examples():
    assert is_andre_word((5, 4, 7, 2, 3, 9))
    assert is_andre_word(())
    assert all(is_andre_word((k,)) for k in (1, 5, 9))
    assert not is_andre_word((2, 1))


def test_andre_word_rejects_bad_input():
    with pytest.raises(ValueError):
        is_andre_word((1, 1))
    with pytest.raises(ValueError):
        is_andre_word((0, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_andre_word_counts_are_zigzag_numbers(n):
    count = sum(1 for w in itertools.permutations(range(1, n + 1))
                if is_andre_word(w))
    assert count == euler_numbers(n)[n]


def test_andre_cycle_examples():
    assert is_andre_cycle((2, 3, 9, 1, 5, 4, 7))
    assert all(is_andre_cycle(c) for c in [(4,), (2, 7), (1, 9)])
    assert not is_andre_cycle((1, 3, 2))


def test_canonical_cycle():
    assert canonical_cycle((2, 3, 9, 1, 5, 4, 7)) == (1, 5, 4, 7, 2, 3, 9)
    with pytest.raises(ValueError):
        canonical_cycle((1, 2, 1))


def test_cycles_and_notation():
    sigma = (5, 6, 8, 4, 7, 9, 3, 1, 2)
    assert cycles(sigma) == ((1, 5, 7, 3, 8), (2, 6, 9), (4,))
    assert cycles_to_str(cycles(sigma)) == "(1,5,7,3,8)(2,6,9)(4)"
    assert permutation_from_cycle((1, 5, 7, 3, 8), 9) == (5, 2, 8, 4, 7, 6, 3, 1, 9)


@pytest.mark.parametrize("k", range(1, 8))
def test_andre_cycle_ends_at_its_maximum(k):
    # over every cycle on support [k]
    for rest in itertools.permutations(range(2, k + 1)):
        c = (1,) + rest
        if is_andre_cycle(c):
            assert c[-1] == max(c)


def test_merging_two_andre_cycles():
    # Exhaustive over ordered pairs of disjoint supports inside [8]: when
    # minima and maxima are both ordered, concatenation stays Andre.
    universe = range(1, 9)
    checked = 0
    for size_a in range(1, 8):
        for support_a in itertools.combinations(universe, size_a):
            remaining = [x for x in universe if x not in support_a]
            for size_b in range(1, len(remaining) + 1):
                for support_b in itertools.combinations(remaining, size_b):
                    if not (min(support_a) < min(support_b)
                            and max(support_a) < max(support_b)):
                        continue
                    firsts = [c for c in _cycles_on(support_a)
                              if is_andre_cycle(c)]
                    seconds = [c for c in _cycles_on(support_b)
                               if is_andre_cycle(c)]
                    for c1, c2 in itertools.product(firsts, seconds):
                        assert is_andre_cycle(c1 + c2)
                        checked += 1
    assert checked > 3000


def _cycles_on(support):
    lead, *rest = sorted(support)
    return [(lead,) + tail for tail in itertools.permutations(rest)]


# ---------------------------------------------------------------------------
# web permutations by cycle type
# ---------------------------------------------------------------------------

def test_is_web_examples():
    assert is_web((3, 2, 1))
    assert not is_web((3, 1, 2))
    assert is_web((5, 6, 8, 4, 7, 9, 3, 1, 2))
    with pytest.raises(ValueError):
        is_web((1, 3))


@pytest.mark.parametrize("n", range(1, 7))
def test_cycle_type_filter_equals_resolution(n):
    filtered = {s for s in itertools.permutations(range(1, n + 1)) if is_web(s)}
    assert filtered == web_permutations(n)


# ---------------------------------------------------------------------------
# 312-avoidance
# ---------------------------------------------------------------------------

def _contains_312_brute(sigma):
    return any(sigma[j] < sigma[k] < sigma[i]
               for i, j, k in itertools.combinations(range(len(sigma)), 3))


def test_is_312_avoiding_examples():
    assert is_312_avoiding((3, 4, 2, 1))
    assert not is_312_avoiding((3, 1, 2))
    # 3412 embeds 3..1..2 even though it is a web permutation
    assert not is_312_avoiding((3, 4, 1, 2))
    for n in range(1, 7):
        for sigma in itertools.permutations(range(1, n + 1)):
            assert is_312_avoiding(sigma) == (not _contains_312_brute(sigma))


@pytest.mark.parametrize("n", range(1, 8))
def test_312_avoiders_are_web_and_catalan_many(n):
    avoiders = [s for s in itertools.permutations(range(1, n + 1))
                if is_312_avoiding(s)]
    assert len(avoiders) == catalan(n)
    assert all(is_web(s) for s in avoiders)


@pytest.mark.parametrize("n", range(1, 7))
def test_paths_of_312_avoiders_biject_onto_dyck_paths(n):
    avoiders = [s for s in itertools.permutations(range(1, n + 1))
                if is_312_avoiding(s)]
    image = {dyck_of_permutation(s) for s in avoiders}
    assert len(image) == len(avoiders)
    assert image == set(dyck_paths(n))


# ---------------------------------------------------------------------------
# Foata transformation and phi
# ---------------------------------------------------------------------------

def test_foata_example():
    sigma = (5, 6, 8, 4, 7, 9, 3, 1, 2)
    assert foata(sigma) == (5, 7, 3, 8, 1, 6, 9, 2, 4)
    assert foata_inverse((5, 7, 3, 8, 1, 6, 9, 2, 4)) == sigma
    assert rlmin((5, 7, 3, 8, 1, 6, 9, 2, 4)) == 3


def test_foata_identity():
    for n in range(7):
        assert foata(identity(n)) == identity(n)


@pytest.mark.parametrize("n", range(7))
def test_foata_roundtrip_and_statistics(n):
    for sigma in itertools.permutations(range(1, n + 1)):
        word = foata(sigma)
        assert foata_inverse(word) == sigma
        assert rlmin(word) == len(cycles(sigma))


@given(st.integers(1, 9).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))))
def test_foata_roundtrip_property(sigma_list):
    sigma = tuple(sigma_list)
    assert foata_inverse(foata(sigma)) == sigma


def test_foata_inverse_rejects_bad_word():
    with pytest.raises(ValueError):
        foata_inverse((1, 3))


def test_cycle_stats():
    # cycles, right-to-left minima of the Foata word, first letter
    for sigma, stats in [((5, 6, 8, 4, 7, 9, 3, 1, 2), (3, 3, 5)),
                         (identity(4), (4, 4, 1)), ((2, 1), (1, 1, 2))]:
        assert (cycle_count(sigma), rlmin(foata(sigma)), sigma[0]) == stats


def test_phi_examples():
    assert phi((5, 6, 8, 4, 7, 9, 3, 1, 2)) == (1, 6, 8, 4, 9, 2, 7, 10, 3, 5, 11)
    assert phi((1,)) == (1, 2, 3)


@pytest.mark.parametrize("n", range(1, 6))
def test_phi_is_injective_into_full_cycles_fixing_top(n):
    seen = set()
    for sigma in itertools.permutations(range(1, n + 1)):
        image = phi(sigma)
        assert image not in seen
        seen.add(image)
        as_perm = permutation_from_cycle(image, n + 2)
        assert len(cycles(as_perm)) == 1
        assert as_perm[n + 1] == 1
    # surjectivity onto one-cycles sending n+2 to 1
    targets = {c for c in full_cycles(n + 2)
               if permutation_from_cycle(c, n + 2)[n + 1] == 1}
    assert seen == targets


@pytest.mark.parametrize("n", range(1, 6))
def test_phi_maps_webs_onto_andre_cycles(n):
    image = {phi(s) for s in web_permutations(n)}
    assert image == andre_full_cycles(n + 2)
