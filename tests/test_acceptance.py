"""Acceptance suite: every exit criterion, one test each, with its stated
runtime tolerance.  Each test prints one line (visible with `pytest -s`
or in the captured output) summarizing the check."""

import itertools
import json
import random
import time
from collections import Counter

from conftest import matchings, perm_from_str
from webperm import cli
from webperm.andre import (
    andre_cycle_permutations,
    andre_full_cycles,
    foata,
    foata_inverse,
    is_312_avoiding,
    phi,
)
from webperm.combinat import (
    all_permutations,
    catalan,
    crossing_arc_pairs,
    dyck_of_permutation,
    dyck_paths,
    enumerate_matchings,
    inverse,
    perm_to_str,
)
from webperm.enumeration import euler_numbers, f, f_nk, f_witnesses, verify_conjecture
from webperm.grid import (
    empty_configuration,
    pick_bottom,
    pick_top_left,
    resolve,
    row_configuration,
    web_permutations,
)
from webperm.oracle import check_rows, refuted_rows, syzygy_expand, syzygy_step
from webperm.transition import col_labels, matrix
from webperm.webs import web_table


def _report(name: str, detail: str) -> None:
    print(f"{name}: PASS ({detail})")


def test_c01_transition_matrices(golden_matrices):
    worst = 0.0
    for n in (2, 3, 4):
        started = time.monotonic()
        a = matrix(n)
        elapsed = time.monotonic() - started
        worst = max(worst, elapsed)
        assert [list(row) for row in a.entries] == golden_matrices[n]
        assert len(a.entries) == catalan(n)
        assert elapsed < 1.0
    _report("criterion 01 matrices n=2..4", f"exact, worst build {worst:.3f}s")


def test_c02_web_tables(capsys, golden_web_tables):
    sizes = {}
    started = time.monotonic()
    for n in (2, 3, 4, 5):
        code = cli.main(["web", str(n), "--format", "json"])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert code == 0
        golden = golden_web_tables[n]
        sizes[n] = len(golden)
        assert len(rows) == len(golden) == {2: 2, 3: 5, 4: 16, 5: 61}[n]
        # word, cycle notation and matching column printed exactly
        assert {(r["sigma"], r["cycles"], r["matching_dyck"]) for r in rows} \
            == {(word, cyc, mcol) for word, cyc, _, mcol in golden}
        # the reference path column was generated in transposed (row,
        # column) coordinates, so it lists the path of the inverse word;
        # the direct column and the transposed one are both pinned here.
        by_word = {r["sigma"]: r for r in rows}
        for word, _cyc, path_col, _mcol in golden:
            sigma = perm_from_str(word)
            assert by_word[word]["dyck"] == dyck_of_permutation(sigma)
            assert dyck_of_permutation(inverse(sigma)) == path_col
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report("criterion 02 web tables n=2..5",
            f"rows {sizes}, total {elapsed:.2f}s")


def test_c03_resolution_worked_example():
    outcome = resolve(empty_configuration(3))
    assert set(outcome) == {(1, 2, 3), (2, 1, 3), (1, 3, 2), (2, 3, 1), (3, 2, 1)}
    assert set(outcome.values()) == {1}
    _report("criterion 03 size-3 resolution", "terminals exactly as expected")


def test_c04_web_counts_are_zigzag_numbers():
    expected = [1, 2, 5, 16, 61, 272, 1385]
    eulers = euler_numbers(8)
    assert eulers[2:9] == expected
    for n in range(1, 7):
        assert (len(frozenset(andre_cycle_permutations(n)))
                == expected[n - 1] == eulers[n + 1])
    started = time.monotonic()
    assert len(frozenset(andre_cycle_permutations(7))) == 1385
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report("criterion 04 web counts n=1..7",
            f"match zigzag numbers, n=7 filter {elapsed:.2f}s")


def test_c05_first_letter_refinement(golden_web_tables):
    from webperm.enumeration import entringer
    for n in range(1, 8):
        firsts = Counter(rec.sigma[0] for rec in web_table(n))
        for k in range(1, n + 1):
            assert firsts.get(n + 1 - k, 0) == entringer(n, k)
    reference = Counter(perm_from_str(w)[0] for w, *_ in golden_web_tables[4])
    assert [reference[5 - k] for k in range(1, 5)] == [2, 4, 5, 5]
    assert [entringer(4, k) for k in range(1, 5)] == [2, 4, 5, 5]
    _report("criterion 05 first-letter refinement n<=7", "row 4 spot = (2,4,5,5)")


def test_c06_staircase_counts_are_genocchi():
    from webperm.enumeration import genocchi
    values = [f(n) for n in range(1, 8)]
    assert values == [1, 1, 1, 2, 3, 8, 17] == genocchi(7)
    assert [perm_to_str(s) for s in f_witnesses(4)] == ["1234", "3412"]
    assert [perm_to_str(s) for s in f_witnesses(5)] == ["12345", "14523", "34125"]
    _report("criterion 06 f(n) = Genocchi n=1..7", f"values {values}")


def test_c07_vanishing():
    for n in range(1, 8):
        for k in range(2, n + 1, 2):
            assert f_nk(n, k) == 0
        if n > 1:
            assert f_nk(n, n) == 0
    _report("criterion 07 vanishing", "f(n,2k) = 0 and f(n,n) = 0 for n <= 7")


def test_c08_seidel_conjecture():
    reports = verify_conjecture(6)
    assert len(reports) == 12          # every odd k up to n, for n = 1..6
    assert all(r["pass"] for r in reports)
    assert all(isinstance(r["lhs"], int) and isinstance(r["rhs"], int)
               for r in reports)
    _report("criterion 08 triangle conjecture n<=6",
            f"{len(reports)} pairs compared, all equal")


def test_c09_characterization_equivalence():
    for n in range(0, 9):
        assert web_permutations(n) == frozenset(andre_cycle_permutations(n))
    _report("criterion 09 resolution = Andre-cycle construction", "n <= 8")


def test_c10_syzygy_oracle_agreement():
    started = time.monotonic()
    rows_checked = 0
    for n in range(1, 6):
        a = matrix(n)
        for m, row in zip(a.rows, a.entries):
            coeffs = syzygy_expand(m)
            assert [coeffs.get(c, 0) for c in a.cols] == list(row)
            rows_checked += 1
        for r, coeffs in check_rows(a.rows):
            assert [coeffs.get(c, 0) for c in range(len(a.cols))] == list(
                a.entries[r])
        assert refuted_rows(a, 20, 1729) == []
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report("criterion 10 syzygy oracle n<=5",
            f"{rows_checked} rows, 20 samples each, {elapsed:.2f}s")


def test_c11_order_independence():
    # rewriting the first or the last crossing pair, and walking the rows
    # down by adjacent transpositions, apply the Plucker relation in
    # different orders and reach one expansion
    def rewrite_last_pair(m):
        out, stack = Counter(), [m]
        while stack:
            current = stack.pop()
            pairs = crossing_arc_pairs(current)
            if pairs:
                stack.extend(syzygy_step(current, pairs[-1]))
            else:
                out[current] += 1
        return out

    def same_either_way(m):
        return rewrite_last_pair(m) == syzygy_expand(m)
    for n in range(1, 5):
        assert all(map(same_either_way, matchings(n)))
    rng = random.Random(1105)
    assert all(map(same_either_way, rng.sample(list(matchings(5)), 500)))
    for n in range(1, 6):
        rows, cols = enumerate_matchings(n, "NN"), col_labels(n)
        for r, coeffs in check_rows(rows):
            assert coeffs == {cols.index(mp): c
                              for mp, c in syzygy_expand(rows[r]).items()}
    for n in range(1, 6):
        roots = [empty_configuration(n)]
        roots += [row_configuration(m) for m in enumerate_matchings(n, "NN")]
        for g in roots:
            assert resolve(g, pick=pick_top_left) == resolve(g, pick=pick_bottom)
    _report("criterion 11 order independence",
            "first pair = last pair (n<=4 exhaustive, 500 sampled at n=5), "
            "= the walk (n<=5) and resolution")


def test_c12_bijection_suite():
    for sigma in all_permutations(6):
        assert foata_inverse(foata(sigma)) == sigma
    for n in range(1, 6):
        assert {phi(s) for s in web_permutations(n)} == andre_full_cycles(n + 2)
    for n in range(1, 7):
        avoiders = [s for s in all_permutations(n) if is_312_avoiding(s)]
        image = {dyck_of_permutation(s) for s in avoiders}
        assert len(avoiders) == len(image) == catalan(n)
        assert image == set(dyck_paths(n))
    _report("criterion 12 bijections",
            "Foata on S_6, phi images n<=5, 312-avoider paths n<=6")
