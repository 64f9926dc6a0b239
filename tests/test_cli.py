import contextlib
import dataclasses
import errno
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from webperm import andre, cli, enumeration, oracle, transition, webs
from webperm.combinat import dyck_paths, matching_from_dyck
from webperm.enumeration import seidel_rows
from webperm.grid import GridConfiguration, crossings_of, trace_matching


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# SHA-256 of stdout for a fixed command set, recorded before the library
# was trimmed; "wall_time_s" is scrubbed from the verify report.
SNAPSHOTS = {
    # one empty line: Web_0 holds only the empty word
    "web 0": "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "web 1": "5e98ddf28fa30a7db1960a0da6bd9968bb515368ee3355c343bc27c4b52a42b1",
    "web 2": "621311845da4a9a094661d809720b13e6186c21587001e8c3615f31e11bc5b5c",
    "web 3": "c0c17b7a0a50d83f17dba9abe7d7a5d9ac582e9716dfde89225282f55bc243dd",
    "web 4": "bdaa00413e7036a854e0114fc6cbf3f1feb14508166d3f32445901b1a7ae0ba9",
    "web 5": "ee0e5f2efc52169542e8862a02a0d74d4fdcbf365f56584012c660e9106395e5",
    "web 7": "33d80c49e02992b03c96f903b370a68989dfa6094799c4f0f0f74545a02129c9",
    "web 4 --format json":
        "f3c8f5bd9502308b1c053fe55b82bbdc694b01fa8695011b172f1aaccf9d753b",
    "web 5 --source both":
        "06144d086e4821e77d8163135fa2bf4a0fe9e6201964c2d52f9cddf5d887e7ab",
    "web 6 --source both":
        "e758aca40762e520d94ac6b64647794563a04abc8b7aeea27cd3d751c08ce1da",
    "web 5 --source resolve --format json":
        "2e6a430eaed68fb584e78083e7d0a7887d24a658dcc7fc669a02dfb1422cf360",
    "matrix 0": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "matrix 1": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "matrix 2": "bfaf0e3719ad4b364c47fb2adbbb2d6079a9a5d45509cf4e673e5919bf3731c2",
    "matrix 3": "656a77086b2bbd01fb7dc99020281932b977eb94cc982c5c9321e01e6dcc3b0f",
    "matrix 4": "354e288683cbed2f14ef211a92ab33bab5ae89839a784d3f59e77d7e64c539cc",
    "matrix 5": "672a8bac4e9205857ed03e7177b757b3d2360e9ac3831cfa643b1a1d83c4f661",
    "matrix 4 --format json":
        "5adc278b5a917411ac2009d3a93b32df406067c2b4c8f9fa2948262bc4b7209d",
    "matrix 4 --format latex":
        "909f22f870928485481c38562b3fb71d9d6ff7a6ee45266c6229d4851eee2c64",
    "matrix 4 --verify":
        "354e288683cbed2f14ef211a92ab33bab5ae89839a784d3f59e77d7e64c539cc",
    "seidel --rows 9":
        "9251e41209e35207ca645da9a0e86e824b23b23d6045e37adae4af741734b96a",
    "verify --suite all --max-n 5":
        "67fcd8e187a1d825fcb279cb756a1e4c5832de198564843fa9dd29ea6e6f88ab",
}


@pytest.mark.parametrize("command", SNAPSHOTS)
def test_output_bytes_are_unchanged(capsys, monkeypatch, command):
    monkeypatch.delenv("WEBPERM_SEED", raising=False)
    code, out, err = run(capsys, *command.split())
    out = re.sub(r'"wall_time_s": [0-9.e+-]+', '"wall_time_s": null', out)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SNAPSHOTS[command]
    if command.endswith("--verify"):
        assert err == ("verify OK (methods, syzygy oracle with seed 1729, "
                       "support)\n")
    else:
        assert err == ""


def test_matrix_csv(capsys):
    code, out, _ = run(capsys, "matrix", "2")
    assert (code, out) == (0, "1,1\n0,1\n")
    code, out, _ = run(capsys, "matrix", "1")
    assert (code, out) == (0, "1\n")


def test_matrix_formats(capsys):
    _, out, _ = run(capsys, "matrix", "2", "--format", "latex")
    assert out.splitlines()[0] == r"\begin{bmatrix}"
    code, out, _ = run(capsys, "matrix", "3", "--format", "json")
    data = json.loads(out)
    assert data["entries"][0] == [1, 1, 1, 1, 1]
    assert code == 0


def test_matrix_verify(capsys):
    code, out, err = run(capsys, "matrix", "4", "--verify")
    assert code == 0
    assert out.splitlines()[0] == "1,1,1,1,1,2,1,1,1,1,1,1,1,2"
    assert "verify OK" in err


def _bump(a, r, c, by=1):
    """``a`` with entry (r, c) raised by ``by``; every row keeps the
    producer's type, so a comparison with the unbumped rows fails only at
    the bumped entry."""
    rows = list(a.entries)
    rows[r] = rows[r][:]
    rows[r][c] += by
    return dataclasses.replace(a, entries=tuple(rows))


def _break_resolution(monkeypatch):
    # the DAG checks row 0 with entry (0, 1) raised, so it refutes row 0
    real = transition.resolution_refuted_rows
    monkeypatch.setattr(transition, "resolution_refuted_rows",
                        lambda a: real(_bump(a, 0, 1)))


def _break_syzygy(monkeypatch):
    # one coefficient of every transposition raised by 1
    real = oracle._transpose

    def wrong(row, i, w):
        coeffs = real(row, i, w)
        top = next(iter(coeffs))
        return {**coeffs, top: coeffs[top] + 1}
    monkeypatch.setattr(oracle, "_transpose", wrong)


def _break_numeric(monkeypatch):
    # One wrong arc minor breaks the Plücker relation under the numeric
    # check.
    real = oracle._minor_batches

    def batches(*args):
        for count, minors in real(*args):
            minors[1, 4] = [x + 1 for x in minors[1, 4]]
            yield count, minors
    monkeypatch.setattr(oracle, "_minor_batches", batches)


def _break_support(monkeypatch):
    real = transition.support_check
    monkeypatch.setattr(transition, "support_check",
                        lambda a: real(_bump(a, 1, 0)))


def _break_diagonal(monkeypatch):
    real = transition.support_check
    monkeypatch.setattr(transition, "support_check",
                        lambda a: real(_bump(a, 2, 2)))


def _break_positivity(monkeypatch):
    real = transition.support_check
    monkeypatch.setattr(transition, "support_check",
                        lambda a: real(_bump(a, 0, 1, by=-1)))


def test_matrix_verify_passes_a_zero_bump(capsys, monkeypatch):
    # _bump keeps the rows' type, so only a changed value can fail
    real = transition.resolution_refuted_rows
    monkeypatch.setattr(transition, "resolution_refuted_rows",
                        lambda a: real(_bump(a, 0, 1, by=0)))
    code, _, err = run(capsys, "matrix", "3", "--verify")
    assert code == 0
    assert "verify OK" in err


@pytest.mark.parametrize("breaker, line", [
    (_break_resolution, "FAIL: entry methods disagree on row ((1, 4), (2, 5), (3, 6))"),
    (_break_syzygy, "FAIL: syzygy expansion disagrees on row ((1, 4), (2, 5), (3, 6))"),
    (_break_numeric, "FAIL: numeric identity refuted on row ((1, 4), (2, 5), (3, 6))"),
    (_break_support, "FAIL: lower triangle must vanish at (2,1): "
                     "row NNENEE, col NNNEEE"),
    (_break_diagonal, "FAIL: diagonal entry must be 1 at (3,3): "
                      "row NNEENE, col NNEENE"),
    (_break_positivity, "FAIL: positivity must match path inclusion at (1,2): "
                        "row NNNEEE, col NNENEE"),
])
def test_every_matrix_verify_check_can_fail(capsys, monkeypatch, breaker, line):
    breaker(monkeypatch)
    code, out, err = run(capsys, "matrix", "3", "--verify")
    assert code == 1
    assert out == "1,1,1,1,1\n0,1,1,1,1\n0,0,1,0,1\n0,0,0,1,1\n0,0,0,0,1\n"
    assert line in err.splitlines()
    assert "verify OK" not in err


def test_matrix_verify_refutes_a_zero_term_in_place_of_the_diagonal(
        capsys, monkeypatch):
    # the staircase row's one term traded for a 0 at a zero entry: as many
    # terms as nonzeros, each equal to its entry, and still not the row
    real = oracle.check_rows
    staircase = ((1, 2), (3, 4), (5, 6))

    def zero_term(rows):
        zero = transition.col_labels(3).index(((1, 6), (2, 5), (3, 4)))
        for r, coeffs in real(rows):
            yield r, ({zero: 0} if rows[r] == staircase else coeffs)
    monkeypatch.setattr(oracle, "check_rows", zero_term)
    code, _, err = run(capsys, "matrix", "3", "--verify")
    assert code == 1
    assert err.splitlines() == [
        f"FAIL: syzygy expansion disagrees on row {staircase}"]


def test_an_expansion_is_only_its_own_row():
    row = array("B", [1, 0, 2, 0])
    assert cli._is_row({0: 1, 2: 2}, row)
    assert cli._is_row({2: 2, 0: 1}, row)
    assert not cli._is_row({0: 1}, row)              # a nonzero missed
    assert not cli._is_row({0: 1, 2: 2, 3: 0}, row)  # a zero term
    assert not cli._is_row({0: 1, 2: 3}, row)        # a wrong entry
    assert not cli._is_row({0: 1, 2: 2, 1: 5}, row)  # an extra term
    assert not cli._is_row({0: 1, 2: 2, 4: 1}, row)  # a key off the row
    assert not cli._is_row({0: 1, 2: 258}, row)      # past the typecode
    assert not cli._is_row({0: 1, 2: -2}, row)
    assert cli._is_row({1: 300}, array("H", [0, 300]))


@pytest.mark.parametrize("column", [1, -1])
def test_matrix_verify_fails_on_a_dag_count_past_its_field(
        capsys, monkeypatch, column):
    # every terminal traced to one column: row 0 of n = 6 counts all 272
    # web permutations there, past the 8-bit field.  Column 1 carries into
    # column 2; the last column, m0, overflows the top field.  Either way
    # row 0 is named, with no traceback.  The matrix is built before the
    # patch, so the fault is the DAG's alone.
    a = transition.matrix(6)
    monkeypatch.setattr(transition, "matrix", lambda n: a)
    target = dyck_paths(6)[column]
    monkeypatch.setattr(transition, "lehmer_path", lambda sigma: target)
    code, _, err = run(capsys, "matrix", "6", "--verify")
    assert code == 1
    top = transition.row_labels(6)[0]
    assert f"FAIL: entry methods disagree on row {top}" in err.splitlines()
    assert "Traceback" not in err
    assert "verify OK" not in err


def test_matrix_verify_catches_a_dropped_smoothing_state(capsys, monkeypatch):
    # a fault inside the walk, not only in the expansions it yields: each
    # transposition loses the last smoothing state e_i w it adds
    real = oracle._transpose

    def dropping(row, i, w):
        coeffs = real(row, i, w)
        added = [key for key in coeffs if key not in row]
        if added:
            del coeffs[added[-1]]
        return coeffs
    monkeypatch.setattr(oracle, "_transpose", dropping)
    code, out, err = run(capsys, "matrix", "4", "--verify")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == SNAPSHOTS["matrix 4"]
    row = "((1, 5), (2, 6), (3, 7), (4, 8))"
    assert f"FAIL: syzygy expansion disagrees on row {row}" in err.splitlines()
    # the printed matrix is right, and the numeric check samples it
    assert "numeric" not in err
    assert "verify OK" not in err


def _mutate(monkeypatch, name, old, new):
    """Replace ``oracle.<name>`` by its own source with the one ``old`` in
    it changed to ``new``."""
    source = inspect.getsource(getattr(oracle, name))
    assert source.count(old) == 1
    scope = dict(vars(oracle))
    exec(source.replace(old, new), scope)
    monkeypatch.setattr(oracle, name, scope[name])


def _keep_the_sign_of_a_held_term(monkeypatch):
    # a term joining i to i + 1 gives +a to itself, not -a
    _mutate(monkeypatch, "_transpose", "out[key] -= 2 * a", "out[key] -= 0")


def _join_the_wrong_partners(monkeypatch):
    # e_i writes q into the field of q and p into the field of p
    _mutate(monkeypatch, "_transpose",
            "(q - i << w * p) + (p - i - 1 << w * q)",
            "(q - i << w * q) + (p - i - 1 << w * p)")


def _lower_a_height_1_peak(monkeypatch):
    # a parent may lower a peak at height 1, leaving the Dyck paths
    _mutate(monkeypatch, "_parent", "height > 1", "height > 0")


def _perturb_one_yielded_row(monkeypatch):
    real = oracle.check_rows

    def perturbed(rows):
        for r, coeffs in real(rows):
            if r == 5:
                first = next(iter(coeffs))
                coeffs = {**coeffs, first: coeffs[first] + 1}
            yield r, coeffs
    monkeypatch.setattr(oracle, "check_rows", perturbed)


@pytest.mark.parametrize("breaker", [
    _keep_the_sign_of_a_held_term, _join_the_wrong_partners,
    _lower_a_height_1_peak, _perturb_one_yielded_row])
def test_matrix_verify_catches_a_fault_in_the_walk(capsys, monkeypatch,
                                                   breaker):
    # the printed matrix is right, so only the exact oracle fails, and it
    # names the rows it gets wrong without a traceback
    breaker(monkeypatch)
    code, out, err = run(capsys, "matrix", "4", "--verify")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == SNAPSHOTS["matrix 4"]
    lines = err.splitlines()
    assert lines
    assert all(line.startswith("FAIL: syzygy expansion disagrees on row ((")
               for line in lines)
    if breaker is _perturb_one_yielded_row:
        row = transition.row_labels(4)[5]
        assert lines == [f"FAIL: syzygy expansion disagrees on row {row}"]
    assert "Traceback" not in err


def _mirror(m):
    """The image of a matching under rho: i -> 2n + 1 - i."""
    end = 2 * len(m) + 1
    return tuple(sorted((end - q, end - p) for p, q in m))


def _print_bumped(monkeypatch, *bumps):
    """Make ``matrix --verify`` print and check its matrix with each
    (row, column, by) of ``bumps`` applied."""
    real = transition.matrix

    def wrong(n):
        a = real(n)
        for r, c, by in bumps:
            a = _bump(a, r, c, by)
        return a
    monkeypatch.setattr(transition, "matrix", wrong)


def _lines_about(err, check):
    return [line for line in err.splitlines() if check in line]


@pytest.mark.parametrize("seed", range(20))
def test_matrix_verify_names_the_one_row_with_a_wrong_coefficient(
        capsys, monkeypatch, seed):
    # one entry of one printed row raised by 1: the numeric check samples
    # the printed rows, and the walk compares each row with its own, so
    # each names that row alone
    a = transition.matrix(6)
    r = next(k for k in range(len(a.rows) // 2, len(a.rows))
             if _mirror(a.rows[k]) == a.rows[k])
    last = max(c for c, v in enumerate(a.entries[r]) if v)
    _print_bumped(monkeypatch, (r, last, 1))
    code, out, err = run(capsys, "matrix", "6", "--verify", "--seed", str(seed))
    assert code == 1
    assert err.splitlines() == [
        f"FAIL: entry methods disagree on row {a.rows[r]}",
        f"FAIL: syzygy expansion disagrees on row {a.rows[r]}",
        f"FAIL: numeric identity refuted on row {a.rows[r]}"]


def test_matrix_verify_names_both_rows_of_errors_that_cancel_in_a_sum(
        capsys, monkeypatch):
    # +1 on one printed row and -1 on another at a column they share:
    # summed over the rows the errors would cancel, and each row is named
    # on its own
    a = transition.matrix(5)
    first, second = 6, 9
    assert all(_mirror(a.rows[r]) == a.rows[r] for r in (first, second))
    shared = next(c for c, (x, y) in enumerate(zip(a.entries[first],
                                                   a.entries[second]))
                  if x and y)
    _print_bumped(monkeypatch, (first, shared, 1), (second, shared, -1))
    code, out, err = run(capsys, "matrix", "5", "--verify")
    assert code == 1
    named = [a.rows[first], a.rows[second]]
    assert _lines_about(err, "entry methods") == [
        f"FAIL: entry methods disagree on row {m}" for m in named]
    assert _lines_about(err, "syzygy") == [
        f"FAIL: syzygy expansion disagrees on row {m}" for m in named]
    assert _lines_about(err, "numeric") == [
        f"FAIL: numeric identity refuted on row {m}" for m in named]
    # the lines come check by check, in this order, before the support's
    assert err.splitlines()[:6] == [*_lines_about(err, "entry methods"),
                                    *_lines_about(err, "syzygy"),
                                    *_lines_about(err, "numeric")]


@pytest.mark.parametrize("seed", range(5))
def test_matrix_verify_names_both_rows_of_an_orbit_with_a_wrong_coefficient(
        capsys, monkeypatch, seed):
    # both rows of an orbit {M, rho M} printed with one entry raised, at
    # columns that rho swaps: the matrix keeps its symmetry, and the two
    # rows are named, each on its own samples
    a = transition.matrix(6)
    r = len(a.rows) // 2
    mirror = a.rows.index(_mirror(a.rows[r]))
    assert mirror != r
    col_mirror = [a.cols.index(_mirror(c)) for c in a.cols]
    last = max(c for c, v in enumerate(a.entries[r]) if v)
    assert a.entries[mirror][col_mirror[last]] == a.entries[r][last]
    _print_bumped(monkeypatch, (r, last, 1), (mirror, col_mirror[last], 1))
    code, out, err = run(capsys, "matrix", "6", "--verify", "--seed", str(seed))
    assert code == 1
    orbit = [a.rows[k] for k in sorted((r, mirror))]
    assert err.splitlines() == [
        *(f"FAIL: entry methods disagree on row {m}" for m in orbit),
        *(f"FAIL: syzygy expansion disagrees on row {m}" for m in orbit),
        *(f"FAIL: numeric identity refuted on row {m}" for m in orbit)]


def _count_sources(monkeypatch):
    # the filter as the web table calls it, resolution as one walk of its
    # tree, which both --source resolve and --source both run
    sources = []

    def counting(source, real):
        def call(*args):
            sources.append(source)
            return real(*args)
        return call
    monkeypatch.setattr(webs, "andre_cycle_permutations",
                        counting("characterize", webs.andre_cycle_permutations))
    monkeypatch.setattr(cli.grid, "terminals",
                        counting("resolve", cli.grid.terminals))
    return sources


def test_web_source_resolve_runs_no_filter(capsys, monkeypatch):
    sources = _count_sources(monkeypatch)
    code, out, _ = run(capsys, "web", "5", "--source", "resolve",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["agreement"] is True
    assert sources == ["resolve"]


@pytest.mark.parametrize("change", ["drop", "swap"])
def test_web_source_resolve_agreement_can_fail(capsys, monkeypatch, change):
    # a resolved set one short of Web_5, or with a non-web permutation in
    # place of a web one, is not the filter's set
    resolved = sorted(cli.grid.web_permutations(5))
    if change == "drop":
        wrong = frozenset(resolved[1:])
    else:
        wrong = frozenset(resolved[1:]) | {(3, 1, 2, 4, 5)}
    monkeypatch.setattr(cli.grid, "web_permutations", lambda n: wrong)
    code, out, _ = run(capsys, "web", "5", "--source", "resolve",
                       "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["agreement"] is False
    assert len(data["rows"]) == len(wrong)


def test_web_source_resolve_checks_agreement_only_for_json(capsys,
                                                           monkeypatch):
    # text output has no agreement field, so it runs no cycle-type test
    real = andre.is_web
    calls = []

    def counting(sigma):
        calls.append(sigma)
        return real(sigma)
    monkeypatch.setattr(andre, "is_web", counting)
    code, out, _ = run(capsys, "web", "5", "--source", "resolve")
    assert code == 0 and len(out.splitlines()) == 61
    assert calls == []
    code, out, _ = run(capsys, "web", "5", "--source", "resolve",
                       "--format", "json")
    assert code == 0 and json.loads(out)["agreement"] is True
    assert len(calls) == 61


def test_web_source_both_runs_the_filter_once(capsys, monkeypatch):
    sources = _count_sources(monkeypatch)
    code, out, _ = run(capsys, "web", "5", "--source", "both")
    assert code == 0
    assert out.endswith("agreement OK (61 permutations)\n")
    assert sorted(sources) == ["characterize", "resolve"]


def test_web_source_both_disagreement_fails(capsys, monkeypatch):
    # a builder without the Andre word (1,) closes no 2-cycle, so every
    # web permutation with one, such as 21345, is missing from the table
    real = andre._andre_words

    def dropping(n):
        words = real(n)
        words[1].remove((1,))
        return words
    monkeypatch.setattr(andre, "_andre_words", dropping)
    code, out, err = run(capsys, "web", "5", "--source", "both")
    assert code == 1
    assert out == ""
    assert err == ("source disagreement: resolution and the Andre-cycle "
                   "construction produce different sets\n")


def test_web_source_both_fails_on_a_non_andre_word(capsys, monkeypatch):
    # one extra word (2, 1) on two letters closes cycles such as (1, 3, 2),
    # so the table gains 31245, which resolution never reaches
    real = andre._andre_words

    def padded(n):
        words = real(n)
        words[2].append((2, 1))
        return words
    monkeypatch.setattr(andre, "_andre_words", padded)
    assert (3, 1, 2, 4, 5) in {r.sigma for r in webs.web_table(5)}
    code, out, err = run(capsys, "web", "5", "--source", "both")
    assert (code, out) == (1, "")
    assert err == ("source disagreement: resolution and the Andre-cycle "
                   "construction produce different sets\n")


def test_web_source_both_fails_on_a_repeated_permutation(capsys, monkeypatch):
    # the same set as resolution's, but with one sigma emitted twice
    real = webs.andre_cycle_permutations
    monkeypatch.setattr(webs, "andre_cycle_permutations",
                        lambda n: [*real(n), tuple(range(1, n + 1))])
    code, out, err = run(capsys, "web", "5", "--source", "both")
    assert (code, out) == (1, "")
    assert err.startswith("source disagreement:")


@pytest.mark.parametrize("change", ["repeat", "drop", "stray"])
def test_web_source_both_fails_on_a_wrong_terminal(capsys, monkeypatch,
                                                   change):
    # resolution yielding a sigma twice, missing one or yielding one the
    # construction never builds is a disagreement, found as the terminals
    # stream
    real = cli.grid.terminals

    def wrong(g):
        perms = list(real(g))
        if change == "repeat":
            perms.insert(3, perms[-1])
        elif change == "drop":
            perms.pop(3)
        else:
            perms[3] = (3, 1, 2, 4, 5)
        return iter(perms)
    monkeypatch.setattr(cli.grid, "terminals", wrong)
    code, out, err = run(capsys, "web", "5", "--source", "both")
    assert (code, out) == (1, "")
    assert err == ("source disagreement: resolution and the Andre-cycle "
                   "construction produce different sets\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_web_source_resolve_fails_on_a_repeated_terminal(capsys, monkeypatch,
                                                        fmt):
    # a sigma at two leaves of the tree is named, with no listing
    real = cli.grid.resolve

    def bumped(*args, **kwargs):
        outcome = real(*args, **kwargs)
        outcome[(2, 1, 3, 4, 5)] += 1
        return outcome
    monkeypatch.setattr(cli.grid, "resolve", bumped)
    code, out, err = run(capsys, "web", "5", "--source", "resolve",
                         "--format", fmt)
    assert (code, out) == (1, "")
    assert err == "FAIL: terminal permutations repeat: [(2, 1, 3, 4, 5)]\n"


@pytest.mark.parametrize("command", ["matrix 5", "matrix 5 --verify",
                                     "verify --suite all --max-n 5"])
def test_only_web_listings_call_grid_resolve(capsys, monkeypatch, command):
    # the matrix and the identity suites count the Andre-cycle
    # construction, so they never resolve the identity grid;
    # resolution_refuted_rows steps its own DAG
    real = cli.grid.resolve
    calls = []
    monkeypatch.setattr(cli.grid, "resolve",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    code, _, _ = run(capsys, *command.split())
    assert code == 0
    assert calls == []
    code, _, _ = run(capsys, "web", "5", "--source", "resolve")
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("n", range(8))
def test_web_source_resolve_prints_the_default_listing(capsys, n):
    # the default listing is the filter's table, this one resolution's
    code, by_filter, _ = run(capsys, "web", str(n))
    assert code == 0
    code, by_resolution, _ = run(capsys, "web", str(n), "--source", "resolve")
    assert code == 0
    # the line counts, then the first line that differs: a diff of the
    # whole listings takes pytest minutes
    got, want = by_resolution.split("\n"), by_filter.split("\n")
    assert len(got) == len(want)
    first = next((k for k, pair in enumerate(zip(got, want))
                  if pair[0] != pair[1]), len(want))
    assert got[first:first + 1] == want[first:first + 1]


@pytest.mark.parametrize("source", ["characterize", "resolve", "both"])
def test_web_rejects_negative_n(capsys, source):
    code, out, err = run(capsys, "web", "-1", "--source", source)
    assert (code, out, err) == (2, "", "error: n must be >= 0\n")


def test_web_text(capsys, golden_web_tables):
    code, out, _ = run(capsys, "web", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].split() == ["123", "(1)(2)(3)", "NENENE", "NENENE"]

    code, out, _ = run(capsys, "web", "1")
    assert out.split() == ["1", "(1)", "NE", "NE"]


@pytest.mark.parametrize("n", range(9))
def test_web_widths_are_the_widest_entries_of_the_table(n):
    table = webs.web_table(n)
    assert cli._web_widths(n) == (
        max(len(cli.perm_to_str(r.sigma)) for r in table),
        max(len(webs.cycle_notation(r.sigma)) for r in table))
    assert {len(r.dyck) for r in table} == {2 * n}


def test_web_source_both(capsys):
    code, out, _ = run(capsys, "web", "5", "--source", "both")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 62
    assert lines[-1] == "agreement OK (61 permutations)"


def test_web_json(capsys):
    code, out, _ = run(capsys, "web", "2", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["n"] == 2
    assert data["rows"] == [
        {"sigma": "12", "cycles": "(1)(2)", "dyck": "NENE",
         "matching_dyck": "NENE", "matching": [[1, 2], [3, 4]]},
        {"sigma": "21", "cycles": "(1,2)", "dyck": "NNEE",
         "matching_dyck": "NNEE", "matching": [[1, 4], [2, 3]]},
    ]


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("source", ["characterize", "resolve", "both"])
def test_web_json_matchings_are_the_traced_ones(capsys, n, source):
    # past the goldens: each row's arcs are the noncrossing matching of
    # its printed path, and the strands of sigma's fully smoothed grid
    code, out, _ = run(capsys, "web", str(n), "--source", source,
                       "--format", "json")
    rows = json.loads(out)["rows"]
    assert code == 0 and len(rows) == enumeration.web_count(n)
    for row in rows:
        sigma = tuple(map(int, row["sigma"]))
        arcs = [list(arc) for arc in
                trace_matching(GridConfiguration(sigma, crossings_of(sigma)))]
        assert row["matching"] == arcs, row["sigma"]
        assert row["matching"] == [
            list(arc) for arc in matching_from_dyck(row["matching_dyck"], "NC")
        ], row["sigma"]


def test_caps(capsys):
    code, _, err = run(capsys, "web", "9")
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "web", "9", "--source", "resolve")
    assert code == 2 and "cap" in err
    code, out, _ = run(capsys, "web", "7", "--source", "resolve", "--cap", "7")
    assert code == 0
    assert len(out.strip().splitlines()) == 1385
    code, _, err = run(capsys, "verify", "--max-n", "9")
    assert code == 2 and "cap" in err


@pytest.mark.parametrize("command", [
    "web 9", "web 9 --source resolve", "web 9 --source both", "matrix 9",
    "matrix 9 --verify", "verify --max-n 9"])
def test_one_cap_guards_every_command(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "the cap 8;" in err
    assert not any(source in err
                   for source in ("characterize", "resolve", "both"))


def test_web_source_both_runs_at_seven_without_cap(capsys):
    code, out, _ = run(capsys, "web", "7", "--source", "both")
    assert code == 0
    assert out.endswith("agreement OK (1385 permutations)\n")


def test_seidel(capsys):
    code, out, _ = run(capsys, "seidel", "--rows", "9")
    assert code == 0
    lines = out.strip().splitlines()
    values = [[int(tok.strip("[]")) for tok in line.split()] for line in lines]
    assert values == list(seidel_rows(9))
    flagged = [next(i for i, tok in enumerate(line.split()) if "[" in tok)
               for line in lines]
    assert flagged == [0, 0, 1, 0, 2, 0, 3, 0, 4]

    code, out, _ = run(capsys, "seidel", "--rows", "1")
    assert out == "[1]\n"
    _, out, _ = run(capsys, "seidel", "--rows", "8")
    assert out.strip().splitlines()[7] == "[56] 48 34 17"


def test_seidel_streams_its_rows():
    rows = seidel_rows(5)
    assert iter(rows) is rows
    # Printing 300 rows holds about one row at a time: the traced peak is a
    # small multiple of the widest printed line (70 kB), not the triangle.
    *_, widest = seidel_rows(300)
    line = len(" ".join(map(str, widest)))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert cli.main(["seidel", "--rows", "300"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 10 * line


def traced_peak(*argv):
    """The traced peak of ``webperm *argv``, stdout to the null device."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert cli.main(list(argv)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_web_json_makes_one_row_at_a_time():
    # The JSON listing holds the same table as the text listing, and each
    # row's dict and lists only while it is written: at n = 8 both peak
    # near 2 MiB, where building every row's dict first took 9.5 MiB.
    assert traced_peak("web", "8", "--format", "json") < 1.5 * traced_peak(
        "web", "8")
    for rows in ([], [1, {"a": [2, 3]}]):
        lazy = cli._Rows(iter(rows), len(rows))
        assert json.dumps({"rows": lazy}, indent=1) == json.dumps(
            {"rows": rows}, indent=1)


def test_matrix_json_streams_its_text(capsys):
    # The rows, the columns and the entries are each made into lists one at
    # a time as they are written, so the traced peak at n = 7, 1.2 MiB, is
    # the matrix, its labels and one batch of text, under the 1.26 MB of
    # the whole text; building every list of the payload first took
    # 3.3 MiB, and building the whole text 17 MB.
    code, out, _ = run(capsys, "matrix", "7", "--format", "json")
    assert code == 0
    assert traced_peak("matrix", "7", "--format", "json") < 1.5 * len(out)


@pytest.mark.parametrize("fmt", ["csv", "latex"])
def test_matrix_text_builds_no_labels(capsys, monkeypatch, fmt):
    # the CSV and the LaTeX are the entries alone: neither the rows' nor
    # the columns' matchings are built
    def unbuilt(n):
        raise AssertionError("the labels were built")
    monkeypatch.setattr(transition, "row_labels", unbuilt)
    monkeypatch.setattr(transition, "col_labels", unbuilt)
    code, out, err = run(capsys, "matrix", "8", "--format", fmt)
    assert (code, err) == (0, "")
    assert out.count("\n") == 1430 + 2 * (fmt == "latex")
    if fmt == "csv":
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f7df5563d6408971f8671b2a3ed24c800ead8fbdaedf76986e0cdf191b4ce754")


def test_seidel_refuses_too_many_rows(capsys):
    rows = cli.MAX_SEIDEL_ROWS + 1
    code, out, err = run(capsys, "seidel", "--rows", str(rows))
    assert (code, out) == (2, "")
    assert err == (f"error: --rows = {rows} exceeds the limit "
                   f"{cli.MAX_SEIDEL_ROWS}\n")


def test_verify_report_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "conjecture", "--max-n", "6")
    report = json.loads(out)
    assert code == 0
    assert report["failed"] == 0
    assert report["passed"] == len(report["checks"]) == 12
    assert report["parameters"]["suite"] == "conjecture"
    assert all({"claim", "n", "k", "lhs", "rhs", "pass"} <= set(c)
               for c in report["checks"])

    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "1")
    assert code == 0 and json.loads(out)["failed"] == 0


def test_verify_euler_suite_to_seven(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "euler", "--max-n", "7")
    report = json.loads(out)
    assert code == 0 and report["failed"] == 0
    assert [c["lhs"] for c in report["checks"]] == [1, 2, 5, 16, 61, 272, 1385]
    assert [c["rhs"] for c in report["checks"]] == [1, 2, 5, 16, 61, 272, 1385]


def test_verify_nonzero_exit_on_failure(capsys, monkeypatch):
    import webperm.enumeration
    monkeypatch.setattr(webperm.enumeration, "f", lambda n: 99)
    code, out, _ = run(capsys, "verify", "--suite", "genocchi", "--max-n", "3")
    report = json.loads(out)
    assert code == 1
    assert report["failed"] == 3
    assert [c["lhs"] for c in report["checks"] if not c["pass"]] == [99, 99, 99]


def test_verify_streams_each_web_set_once(capsys, monkeypatch):
    # one census of Web_n serves every statistic, the witnesses of f(n)
    # at n = 4 and 5 too
    stream, calls = enumeration.andre_cycle_permutations, Counter()

    def counted(n):
        calls[n] += 1
        return stream(n)

    monkeypatch.setattr(enumeration, "andre_cycle_permutations", counted)
    enumeration.census.cache_clear()
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "6")
    assert code == 0 and json.loads(out)["failed"] == 0
    assert calls == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}


def _into_closed_pipe(argv, stderr_too):
    # The pipe's read end is closed before the command starts, so its first
    # write fails; it must exit 2 without a traceback, also at the
    # interpreter's final flush.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "webperm.cli", *argv],
            stdout=write_end,
            stderr=write_end if stderr_too else subprocess.PIPE,
            env=env, timeout=60)
    finally:
        os.close(write_end)


def test_stdout_closed_early_is_a_usage_error():
    done = _into_closed_pipe(["web", "6", "--format", "json"], stderr_too=False)
    assert done.returncode == 2
    assert done.stderr.decode() == "error: cannot write the output: Broken pipe\n"


def test_stdout_and_stderr_closed_early_is_a_usage_error():
    # The error line is lost with stderr, but the exit code is still 2.
    done = _into_closed_pipe(["web", "6", "--format", "json"], stderr_too=True)
    assert done.returncode == 2


def test_streamed_csv_into_a_closed_pipe_is_a_usage_error():
    # the CSV is printed row by row, so the write fails inside the loop
    done = _into_closed_pipe(["matrix", "6"], stderr_too=False)
    assert done.returncode == 2
    assert done.stderr.decode() == "error: cannot write the output: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [
    "web 6", "web 6 --format json", "matrix 6", "matrix 7 --format json",
    "verify --max-n 3", "seidel --rows 5"])
def test_output_to_a_full_device_is_a_usage_error(argv):
    # every write to /dev/full fails with ENOSPC, at the first flush of the
    # buffer, inside a command or at its end: one error line and exit 2
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "webperm.cli", *argv.split()],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stderr.decode() == (f"error: cannot write the output: "
                                    f"{os.strerror(errno.ENOSPC)}\n")


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "euler", "--max-n", "4",
                       "--out", str(target))
    assert code == 0
    assert str(target) in out
    report = json.loads(target.read_text())
    assert report["payload"] == str(target)
    assert report["failed"] == 0


@pytest.mark.parametrize("target, reason", [
    ("", "Is a directory"),
    ("missing/report.json", "No such file or directory"),
])
def test_verify_out_unwritable_is_a_usage_error(tmp_path, capsys, target, reason):
    path = tmp_path / target
    code, out, err = run(capsys, "verify", "--suite", "euler", "--max-n", "1",
                         "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write the report to {path}: {reason}\n"


@st.composite
def cli_arguments(draw):
    """Bounded argument lists for every subcommand: n at most 5, at most 30
    seidel rows and at most 30 oracle samples, or sizes above the cap, the
    row limit or the sample limit, where every command is refused before
    any work."""
    command = draw(st.sampled_from(["web", "matrix", "verify", "seidel"]))
    if command == "seidel":
        rows = st.integers(-2, 30) | st.just(cli.MAX_SEIDEL_ROWS + 1)
        return ["seidel", "--rows", str(draw(rows))]
    n = draw(st.integers(-2, 5) | st.integers(cli.DEFAULT_CAP + 1, 11))
    if command == "web":
        source = draw(st.sampled_from(["characterize", "resolve", "both"]))
        argv = ["web", str(n), "--source", source,
                "--format", draw(st.sampled_from(["text", "json"]))]
    elif command == "matrix":
        argv = ["matrix", str(n),
                "--format", draw(st.sampled_from(["csv", "json", "latex"]))]
        argv += ["--verify"] if draw(st.booleans()) else []
    else:
        argv = ["verify", "--max-n", str(n),
                "--suite", draw(st.sampled_from(cli.SUITES))]
        if draw(st.booleans()):
            trials = st.integers(-2, 30) | st.just(cli.MAX_TRIALS + 1)
            argv += ["--trials", str(draw(trials))]
    if draw(st.booleans()):
        argv += ["--cap", str(n - draw(st.integers(1, 3)))]
    return argv


@settings(max_examples=150, deadline=None)
@given(cli_arguments())
def test_every_argument_list_exits_0_1_or_2(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def test_verify_seed_sources(capsys, monkeypatch):
    monkeypatch.setenv("WEBPERM_SEED", "424242")
    _, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "2")
    assert json.loads(out)["parameters"]["seed"] == 424242
    _, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "2",
                    "--seed", "7")
    assert json.loads(out)["parameters"]["seed"] == 7


def test_bad_seed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WEBPERM_SEED", "abc")
    for argv in (["matrix", "2"], ["verify", "--suite", "oracle", "--max-n", "2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: WEBPERM_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_trials_below_one(capsys, trials):
    code, out, err = run(capsys, "verify", "--suite", "oracle", "--max-n", "2",
                         "--trials", trials)
    assert (code, out) == (2, "")
    assert err == f"error: --trials must be >= 1, got {trials}\n"


def test_verify_refuses_too_many_trials(capsys):
    trials = cli.MAX_TRIALS + 1
    code, out, err = run(capsys, "verify", "--suite", "oracle", "--max-n", "2",
                         "--trials", str(trials))
    assert (code, out) == (2, "")
    assert err == (f"error: --trials = {trials} exceeds the limit "
                   f"{cli.MAX_TRIALS}\n")


@pytest.mark.parametrize("max_n", ["0", "-2"])
def test_verify_rejects_max_n_below_one(capsys, max_n):
    code, out, err = run(capsys, "verify", "--suite", "euler", "--max-n", max_n)
    assert (code, out) == (2, "")
    assert err == f"error: --max-n must be >= 1, got {max_n}\n"


def test_output_determinism(capsys):
    _, first, _ = run(capsys, "web", "4")
    _, second, _ = run(capsys, "web", "4")
    assert first == second
    _, a, _ = run(capsys, "verify", "--suite", "bijections", "--max-n", "4")
    _, b, _ = run(capsys, "verify", "--suite", "bijections", "--max-n", "4")
    scrub = lambda text: {**json.loads(text), "wall_time_s": None}
    assert scrub(a) == scrub(b)


def test_verify_oracle_suite_fails_a_key_off_the_columns(capsys, monkeypatch):
    # a crossing term in one row's expansion fails that row's syzygy check,
    # and its expansion is reported as null; the numeric check samples the
    # matrix row, which is right.  The row is the top one, a leaf of the
    # walk, so no other row is transposed from it.
    real = oracle._transpose
    a = transition.matrix(3)
    expansion = {oracle.partners(c): v
                 for c, v in zip(a.cols, a.entries[0]) if v}
    crossing = oracle.partners(((1, 3), (2, 4), (5, 6)))

    def off_basis(*args):
        coeffs = real(*args)
        if coeffs == expansion:
            coeffs[crossing] = 1
        return coeffs
    monkeypatch.setattr(oracle, "_transpose", off_basis)
    monkeypatch.delenv("WEBPERM_SEED", raising=False)
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "3")
    report = json.loads(out)
    assert code == 1
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [(c["n"], c["lhs"], c["claim"]) for c in failed] == [
        (3, None, "syzygy expansion of NNNEEE matches matrix row")]
