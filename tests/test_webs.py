import itertools
import random

import pytest

from webperm import grid
from webperm.andre import andre_cycle_permutations, cycles
from webperm.combinat import (
    catalan,
    dyck_of_matching,
    dyck_of_permutation,
    lehmer_path,
    noncrossing_arcs,
)
from webperm.grid import (
    GridConfiguration,
    crossings_of,
    matching_of_permutation,
    trace_matching,
)
from webperm.webs import WebRecord, cycle_notation, web_records, web_table


def _shared(records, field):
    values = [getattr(r, field) for r in records]
    return len({id(v) for v in values}), len(set(values))


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("source", ["table", "resolution"])
def test_records_share_one_path_and_one_matching_per_value(n, source):
    # the table holds E_{n+1} records but only Catalan(n) distinct D and M
    records = (web_table(n) if source == "table"
               else web_records(grid.web_permutations(n)))
    for field in ("dyck", "path"):
        objects, values = _shared(records, field)
        assert objects == values <= catalan(n), field


@pytest.mark.parametrize("word", [(1, 1, 2), (2, 3), (0,), (2, 2, 3),
                                  (2, 0, 3)])
def test_web_records_rejects_a_non_permutation(word):
    # (2, 0, 3) has the heights and the Lehmer path of (2, 1, 3), so it
    # finds both paths of the record before it and must still be refused
    with pytest.raises(ValueError, match="not a permutation"):
        web_records([(2, 1, 3), word])


def test_web_records_validate_each_length_against_its_own_identity():
    records = web_records([(2, 1, 3), (1,), (2, 1), ()])
    assert sorted(r.sigma for r in records) == [(), (1,), (2, 1), (2, 1, 3)]
    with pytest.raises(ValueError, match="not a permutation"):
        web_records([(1, 2), (1, 2, 3), (1, 3)])


def _path_of_prefix_maxima(sigma):
    """The path whose column heights are the prefix maxima of sigma."""
    steps, height = [], 0
    for top in itertools.accumulate(sigma, max):
        steps.append("N" * (top - height) + "E")
        height = top
    return "".join(steps)


@pytest.mark.parametrize("n", range(8))
def test_prefix_maxima_key_the_dyck_path(n):
    # the memo key of D(sigma): h_i = max(h_{i-1}, sigma(i), i) is the
    # prefix maximum, because i distinct positive letters reach i
    for sigma in itertools.permutations(range(1, n + 1)):
        assert _path_of_prefix_maxima(sigma) == dyck_of_permutation(sigma)


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("source", ["table", "resolution"])
def test_web_records_equal_the_records_built_per_sigma(n, source):
    if source == "table":
        perms, records = list(andre_cycle_permutations(n)), web_table(n)
    else:
        perms = grid.web_permutations(n)
        records = web_records(perms)
    expected = sorted(
        (WebRecord(dyck=dyck_of_permutation(s), sigma=s,
                   path=dyck_of_matching(matching_of_permutation(s)))
         for s in perms),
        key=lambda r: (r.dyck, r.sigma))
    assert records == tuple(expected)


@pytest.mark.parametrize("n", range(8))
def test_web_records_of_every_permutation_match_the_walker(n):
    # every sigma of S_n, not only the web permutations, so that every
    # pattern of left-to-right maxima keys a path
    perms = list(itertools.permutations(range(1, n + 1)))
    for rec in web_records(perms):
        full = GridConfiguration(rec.sigma, crossings_of(rec.sigma))
        assert rec.dyck == dyck_of_permutation(rec.sigma), rec.sigma
        assert noncrossing_arcs(rec.path) == trace_matching(full), rec.sigma


def test_web_records_past_letter_255():
    rng = random.Random(3201)
    perms = [tuple(rng.sample(range(1, 301), 300)) for _ in range(3)]
    perms.append(tuple(range(300, 0, -1)))
    # a word with the suffix of the first, one with the prefix of the
    # fourth, so that both memos are read past 255, and a shorter word
    # between them
    perms += [tuple(sorted(perms[0][:150])) + perms[0][150:], (2, 1),
              perms[3][:150] + tuple(sorted(perms[3][150:]))]
    for rec in web_records(perms):
        full = GridConfiguration(rec.sigma, crossings_of(rec.sigma))
        assert rec.dyck == dyck_of_permutation(rec.sigma)
        assert rec.path == lehmer_path(rec.sigma)
        assert noncrossing_arcs(rec.path) == trace_matching(full)


def _cycles_to_str(decomposition):
    """The reference notation: each cycle's entries joined by commas in
    parentheses."""
    return "".join("(" + ",".join(map(str, c)) + ")" for c in decomposition)


@pytest.mark.parametrize("n", range(8))
def test_cycle_notation_writes_the_cycles_of_every_permutation(n):
    for sigma in itertools.permutations(range(1, n + 1)):
        assert cycle_notation(sigma) == _cycles_to_str(cycles(sigma))


def test_cycle_notation_writes_two_digit_letters():
    rng = random.Random(2812)
    for _ in range(2000):
        sigma = tuple(rng.sample(range(1, 13), 12))
        assert cycle_notation(sigma) == _cycles_to_str(cycles(sigma))
    assert cycle_notation((12, 11, 3, 1, 5, 6, 7, 8, 9, 10, 2, 4)) == (
        "(1,12,4)(2,11)(3)(5)(6)(7)(8)(9)(10)")
