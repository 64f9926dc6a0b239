import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import webperm
from webperm import andre
from webperm.andre import (
    andre_cycle_permutations,
    andre_full_cycles,
    canonical_cycle,
    cycle_count,
    cycles,
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
from webperm.webs import cycle_notation


# ---------------------------------------------------------------------------
# words and cycles
# ---------------------------------------------------------------------------

def test_andre_word_examples():
    assert is_andre_word((5, 4, 7, 2, 3, 9))
    assert is_andre_word(())
    assert all(is_andre_word((k,)) for k in (1, 5, 9))
    assert not is_andre_word((2, 1))


def _andre_by_min_split(w):
    """The recursive definition: split at the minimum, the left factor's
    maximum below the right factor's (an empty factor's is -infinity), and
    both factors Andre."""
    if len(w) <= 1:
        return True
    k = w.index(min(w))
    left, right = w[:k], w[k + 1:]
    if max(left, default=0) >= max(right, default=0):
        return False
    return _andre_by_min_split(left) and _andre_by_min_split(right)


@pytest.mark.parametrize("n", range(9))
def test_andre_word_equals_min_split_on_permutations(n):
    for w in itertools.permutations(range(1, n + 1)):
        assert is_andre_word(w) == _andre_by_min_split(w), w


def test_andre_word_equals_min_split_on_words_with_gaps():
    # Cycle tails are words on a subset of [n], not permutations of [L].
    # Appending 31 gives each word a copy that ends with its maximum, so
    # that the letter-by-letter checks run on half of the words.
    rng = random.Random(7)
    andre = 0
    for _ in range(10000):
        word = tuple(rng.sample(range(1, 31), rng.randint(0, 10)))
        for w in (word, word + (31,)):
            assert is_andre_word(w) == _andre_by_min_split(w), w
            andre += is_andre_word(w)
    assert andre > 1000


def test_web_filter_keeps_nothing_after_it_returns():
    # A fresh interpreter, so no earlier test has filled a cache: building
    # Web_8 by the filter and dropping it leaves no memo behind.
    src = os.path.dirname(os.path.dirname(webperm.__file__))
    script = ("import gc, tracemalloc\n"
              "from webperm import andre\n"
              "tracemalloc.start()\n"
              "assert len(frozenset(andre.andre_cycle_permutations(8))) "
              "== 7936\n"
              "gc.collect()\n"
              "print(tracemalloc.get_traced_memory()[0])\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 100_000


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
    assert cycle_notation(sigma) == "(1,5,7,3,8)(2,6,9)(4)"
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


@pytest.mark.parametrize("n", range(1, 8))
def test_is_web_tests_every_cycle(n):
    for sigma in itertools.permutations(range(1, n + 1)):
        assert is_web(sigma) == all(is_andre_cycle(c) for c in cycles(sigma))


@pytest.mark.parametrize("n", range(1, 7))
def test_cycle_type_filter_equals_resolution(n):
    filtered = {s for s in itertools.permutations(range(1, n + 1)) if is_web(s)}
    assert filtered == web_permutations(n)


@pytest.mark.parametrize("n", range(0, 9))
def test_web_set_by_cycles_is_the_filter_of_s_n(n):
    filtered = {s for s in itertools.permutations(range(1, n + 1)) if is_web(s)}
    emitted = list(andre_cycle_permutations(n))
    assert len(emitted) == len(filtered)
    assert set(emitted) == filtered


@pytest.mark.parametrize("n", range(0, 10))
def test_web_set_emits_no_permutation_twice(n):
    emitted = list(andre_cycle_permutations(n))
    assert len(set(emitted)) == len(emitted) == euler_numbers(n + 1)[-1]


@pytest.mark.parametrize("n, words", [(7, 87), (8, 359)])
def test_web_set_builds_andre_words_and_tests_none(n, words, monkeypatch):
    # E_k Andre words on k letters for each k < n, sum E_k in all, where
    # S_n has n! = 5040 and 40320 permutations; no word is tested
    tested, built = [], []
    real_test, real_build = andre._andre, andre._andre_words
    monkeypatch.setattr(andre, "_andre",
                        lambda w: tested.append(w) or real_test(w))
    monkeypatch.setattr(andre, "_andre_words",
                        lambda m: built.append(real_build(m)) or built[-1])
    emitted = frozenset(andre_cycle_permutations(n))
    assert len(emitted) == euler_numbers(n + 1)[-1]
    assert tested == []
    [by_size] = built
    assert [len(ws) for ws in by_size] == euler_numbers(n - 1)
    assert sum(map(len, by_size)) == words
    for k, ws in enumerate(by_size):
        assert len(set(ws)) == len(ws)
        assert all(sorted(w) == list(range(1, k + 1)) and is_andre_word(w)
                   for w in ws)


@pytest.mark.parametrize("k", range(0, 8))
def test_built_andre_words_are_those_of_s_k(k):
    words = andre._andre_words(8)[k]
    andre_words = [w for w in itertools.permutations(range(1, k + 1))
                   if andre._andre(w)]
    assert sorted(words) == andre_words


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
