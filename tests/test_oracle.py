import dataclasses
import itertools
import random
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest

from conftest import matchings
from webperm import cli, oracle
from webperm.combinat import (
    catalan,
    crossing_arc_pairs,
    dyck_paths,
    enumerate_matchings,
    is_noncrossing,
    is_nonnesting,
    m0,
    matching,
    matching_from_dyck,
)
from webperm.enumeration import euler_numbers, genocchi
from webperm.grid import web_permutations_for
from webperm.oracle import (
    MATRIX_TRIALS,
    MODULUS,
    _field_bytes,
    _minor_batches,
    _parent,
    _transpose,
    check_rows,
    refuted_rows,
    sample_z,
    syzygy_expand,
    syzygy_step,
)
from webperm.transition import col_labels, matrix, row_labels


def test_syzygy_expand_noncrossing_is_itself():
    for n in range(1, 5):
        for m in enumerate_matchings(n, "NC"):
            assert syzygy_expand(m) == {m: 1}


def test_syzygy_expand_single_crossing():
    assert syzygy_expand(matching([(1, 3), (2, 4)])) == {
        matching([(1, 2), (3, 4)]): 1,
        matching([(1, 4), (2, 3)]): 1,
    }


def test_syzygy_expand_full_row():
    coeffs = syzygy_expand(matching([(1, 4), (2, 5), (3, 6)]))
    assert coeffs == {m: 1 for m in enumerate_matchings(3, "NC")}


def test_syzygy_step_reduces_crossing_pairs():
    for n in range(1, 5):
        for m in matchings(n):
            pairs = crossing_arc_pairs(m)
            for pair in pairs:
                for branch in syzygy_step(m, pair):
                    assert len(crossing_arc_pairs(branch)) < len(pairs)


@pytest.mark.parametrize("n", range(1, 6))
def test_syzygy_total_counts_surviving_permutations(n):
    for m in enumerate_matchings(n, "NN"):
        assert sum(syzygy_expand(m).values()) == len(web_permutations_for(m))


def test_expansion_support_is_noncrossing():
    for m in matchings(4):
        for m_prime, coeff in syzygy_expand(m).items():
            assert is_noncrossing(m_prime)
            assert coeff >= 1


# ---------------------------------------------------------------------------
# the walk by adjacent transpositions
# ---------------------------------------------------------------------------

def width(n):
    """Bits per point of a packed partner int of size n."""
    return (2 * n).bit_length()


def partner_tuple(arcs, n):
    """The partner tuple of a partial matching on [2n]: the other end of
    the arc at each point, 0 at a free point and at index 0."""
    out = [0] * (2 * n + 1)
    for p, q in arcs:
        out[p], out[q] = q, p
    return tuple(out)


def partners(arcs, n):
    """The packed partner int of a partial matching on [2n]: entry p of its
    partner tuple in field p, of :func:`width` bits."""
    return sum(q << width(n) * p for p, q in enumerate(partner_tuple(arcs, n)))


def by_partners(expansion, n):
    """A ``Matching``-keyed expansion keyed by packed partner ints instead."""
    return {partners(m, n): c for m, c in expansion.items()}


def swapped(m, i):
    """s_i m: the matching ``m`` with points i and i + 1 exchanged."""
    s = {i: i + 1, i + 1: i}
    return matching([(s.get(p, p), s.get(q, q)) for p, q in m])


@pytest.mark.parametrize("n", range(0, 8))
def test_check_rows_equals_rewriting_on_every_row(n):
    # every nonnesting row, walked down from the staircase, is the
    # expansion that rewriting one crossing pair at a time reaches
    cols = col_labels(n)
    column = {c: k for k, c in enumerate(cols)}
    rows = row_labels(n)
    assert sorted(check_rows(rows, cols)) == [
        (r, {column[mp]: c for mp, c in syzygy_expand(m).items()})
        for r, m in enumerate(rows)]


@pytest.mark.parametrize("n", range(1, 6))
def test_transpose_is_one_plucker_relation(n):
    # on a noncrossing w, swapping i and i + 1 negates w if w joins them,
    # and otherwise gives the expansion of the one crossing pair of s_i w
    for w in enumerate_matchings(n, "NC"):
        for i in range(1, 2 * n):
            got = _transpose({partners(w, n): 1}, i, width(n))
            if (i, i + 1) in w:
                assert got == {partners(w, n): -1}
            else:
                assert got == by_partners(syzygy_expand(swapped(w, i)), n)


@pytest.mark.parametrize("n", range(1, 7))
def test_each_parent_swaps_one_pair_of_its_nonnesting_matching(n):
    # a path's parent lowers one peak, NE at (i, i + 1) to EN, so its
    # matching is s_i of the path's; only the staircase has no parent
    staircase = "NE" * n
    for path in dyck_paths(n):
        up = _parent(path)
        if path == staircase:
            assert up is None
            continue
        parent, i = up
        assert parent in dyck_paths(n)
        assert path[i - 1:i + 1] == "NE" and parent[i - 1:i + 1] == "EN"
        assert (matching_from_dyck(path, "NN")
                == swapped(matching_from_dyck(parent, "NN"), i))


def count_transposes(monkeypatch):
    """Count the calls of ``_transpose`` from here on."""
    real, calls = oracle._transpose, []

    def counting(row, i, w):
        calls.append(i)
        return real(row, i, w)
    monkeypatch.setattr(oracle, "_transpose", counting)
    return calls


@pytest.mark.parametrize("n", range(1, 9))
def test_the_walk_transposes_once_per_edge(n, monkeypatch):
    # every row shares its parent's expansion: Catalan(n) - 1 transpositions
    # for all rows, and C(n, 2) for the top row alone, its parent chain
    calls = count_transposes(monkeypatch)
    rows, cols = row_labels(n), col_labels(n)
    assert len(list(check_rows(rows, cols))) == len(rows)
    assert len(calls) == catalan(n) - 1
    calls.clear()
    assert [r for r, _ in check_rows(rows[:1], cols)] == [0]
    assert len(calls) == n * (n - 1) // 2


def test_the_walk_keeps_one_expansion_per_depth(monkeypatch):
    # a child is transposed only when it is popped, so the expansions alive
    # at once are those on one parent chain
    real, alive, most = oracle._transpose, [0], [0]

    class Tracked(dict):
        def __del__(self):
            alive[0] -= 1

    def tracking(row, i, w):
        alive[0] += 1
        most[0] = max(most[0], alive[0])
        return Tracked(real(row, i, w))
    monkeypatch.setattr(oracle, "_transpose", tracking)
    n = 7
    assert len(list(check_rows(row_labels(n), col_labels(n)))) == catalan(n)
    assert 0 < most[0] <= n * (n - 1) // 2 + 1


def test_check_rows_yields_every_row_once_in_any_order():
    # repeated and shuffled rows are each yielded once, at their own index
    rows = row_labels(5)
    shuffled = [*rows[::-1], rows[3], rows[0]]
    column = {c: k for k, c in enumerate(col_labels(5))}
    expansions = dict(check_rows(shuffled, col_labels(5)))
    assert sorted(expansions) == list(range(len(shuffled)))
    for r, m in enumerate(shuffled):
        assert expansions[r] == {column[mp]: c
                                 for mp, c in syzygy_expand(m).items()}


def test_check_rows_refuses_a_row_that_is_not_nonnesting():
    nesting = matching([(1, 4), (2, 3)])
    assert not is_nonnesting(nesting)
    with pytest.raises(ValueError, match="nonnesting"):
        list(check_rows((nesting,), col_labels(2)))


def test_top_row_counts_the_web_permutations_and_the_staircase():
    # the main theorem on row {(i, n + i)}: its coefficients count Web_n by
    # M(sigma), so they sum to E_{n+1}, and the staircase m0 takes f(n) =
    # g_n of them; the packed fields widen from 4 to 5 bits at n = 8
    eulers, gs = euler_numbers(12), genocchi(11)
    for n in range(1, 12):
        top = matching([(i, n + i) for i in range(1, n + 1)])
        cols = col_labels(n)
        [(_, coeffs)] = check_rows((top,), cols)
        assert sum(coeffs.values()) == eulers[n + 1]
        assert coeffs[cols.index(m0(n))] == gs[n - 1]
    assert [width(n) for n in (7, 8, 15, 16)] == [4, 5, 5, 6]


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------

def minor(z, i, j):
    """The 2 x 2 minor of a sample z on columns i < j."""
    if not 1 <= i < j <= len(z[0]):
        raise ValueError(f"need 1 <= i < j <= {len(z[0])}, got ({i}, {j})")
    return z[0][i - 1] * z[1][j - 1] - z[0][j - 1] * z[1][i - 1]


def delta_product(z, m):
    """The product of the arc minors of a matching on a sample z."""
    result = 1
    for i, j in m:
        result *= minor(z, i, j)
    return result


def test_minor_and_delta_product_basics():
    ones = [[1] * 6, [1] * 6]
    assert minor(ones, 1, 5) == 0
    assert delta_product(ones, m0(3)) == 0
    ramp = [[1] * 8, list(range(1, 9))]
    for i, j in itertools.combinations(range(1, 9), 2):
        assert minor(ramp, i, j) == j - i
    assert delta_product(ramp, matching([(1, 4), (2, 5), (3, 6)])) == 27
    with pytest.raises(ValueError):
        minor(ones, 3, 3)
    with pytest.raises(ValueError):
        minor(ones, 0, 2)


def test_two_by_two_exchange_identity():
    # the quadratic relation underlying every rewriting step, on 1000
    # seeded samples for every quadruple a < b < c < d
    rng = random.Random(97)
    for _ in range(1000):
        n = rng.randint(2, 4)
        z = sample_z(n, rng)
        for a, b, c, d in itertools.combinations(range(1, 2 * n + 1), 4):
            assert (minor(z, a, c) * minor(z, b, d)
                    == minor(z, a, b) * minor(z, c, d)
                    + minor(z, a, d) * minor(z, b, c))


def as_matrix(rows, claims, n):
    """A transition matrix with ``rows``, row k holding the ``Matching``-
    keyed claims[k] over the noncrossing columns of size n, in the widest
    unsigned ``array`` rows, as :func:`refuted_rows` reads it; a claim with
    an entry that no such row holds stays a list of ints."""
    cols = col_labels(n)
    assert all(set(claim) <= set(cols) for claim in claims)

    def row(claim):
        entries = [claim.get(c, 0) for c in cols]
        try:
            return array("Q", entries)
        except OverflowError:
            return entries
    return SimpleNamespace(rows=tuple(rows), cols=tuple(cols),
                           entries=tuple(map(row, claims)))


def numeric_check(m, claim, trials=20, seed=1729):
    """True iff :func:`refuted_rows` passes row ``m`` holding a
    ``Matching``-keyed claim, against the noncrossing columns of its size."""
    return not refuted_rows(as_matrix([m], [claim], len(m)), trials, seed)


def expansion_by_check_rows(m, claim, monkeypatch):
    """The expansion ``check_rows`` yields for the one row ``m``, a child
    of the staircase, with ``claim`` standing in for its transposition."""
    monkeypatch.setattr(oracle, "_transpose", lambda *_: {
        oracle.partners(mp): c for mp, c in claim.items()})
    [(_, coeffs)] = check_rows((m,), col_labels(len(m)))
    return coeffs


def test_verify_expansion_trivial_and_exhaustive():
    # the rewriting expansion of every matching passes the numeric check
    assert numeric_check(m0(3), {m0(3): 1})
    for n in range(1, 5):
        for m in matchings(n):
            assert numeric_check(m, syzygy_expand(m), trials=20, seed=11)


def test_verify_expansion_refutes_wrong_coefficients():
    assert numeric_check(matching([(1, 3), (2, 4)]),
                         {matching([(1, 2), (3, 4)]): 2},
                         trials=MATRIX_TRIALS, seed=1) is False


def test_verify_expansion_validates_support(monkeypatch):
    # a crossing term, or one of another size, is no column: check_rows
    # yields no expansion for the row
    row = matching([(1, 3), (2, 4)])
    for claim in ({row: 1}, {m0(3): 1}):
        assert expansion_by_check_rows(row, claim, monkeypatch) is None
    assert expansion_by_check_rows(row, {m0(2): 1}, monkeypatch) == {1: 1}


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_expansion_rejects_trials_below_one(trials):
    with pytest.raises(ValueError, match="trials"):
        refuted_rows(matrix(2), trials, 1)


def test_verify_expansion_is_seed_deterministic():
    m = matching([(1, 4), (2, 6), (3, 5)])
    coeffs = syzygy_expand(m)
    rng = random.Random(5)
    assert sample_z(2, rng) == sample_z(2, random.Random(5))
    assert list(_minor_batches(3, 5, 5)) == list(_minor_batches(3, 5, 5))
    assert numeric_check(m, coeffs, trials=5, seed=5) is True


def test_samples_are_drawn_in_batches_in_one_rng_order(monkeypatch):
    # the minors of a sample do not depend on the batch it is drawn in
    def joined():
        batches = list(_minor_batches(3, 10, 7))
        assert sum(count for count, _ in batches) == 10
        return {arc: [v for _, minors in batches for v in minors[arc]]
                for arc in batches[0][1]}
    whole = joined()
    monkeypatch.setattr(oracle, "_BATCH", 3)
    assert len(list(_minor_batches(3, 10, 7))) == 4
    assert joined() == whole
    rng = random.Random(7)
    zs = [sample_z(3, rng) for _ in range(10)]
    assert whole[2, 5] == [minor(z, 2, 5) % MODULUS for z in zs]


def fresh_verify(m, coeffs, trials=20, seed=1729):
    """The numeric check with fresh samples on every call, exact minor
    products reduced once modulo p: the definition that the packed batches
    of :func:`refuted_rows` must reproduce."""
    rng = random.Random(seed)
    for _ in range(trials):
        z = sample_z(len(m), rng)
        if (delta_product(z, m) - sum(c * delta_product(z, mp)
                                      for mp, c in coeffs.items())) % MODULUS:
            return False
    return True


def perturbed(coeffs):
    first = next(iter(coeffs))
    return {**coeffs, first: coeffs[first] + 1}


def bumped(a, r, c, by=1):
    """A copy of the matrix ``a`` with entry (r, c) raised by ``by``."""
    rows = list(a.entries)
    rows[r] = rows[r][:]
    rows[r][c] += by
    return dataclasses.replace(a, entries=tuple(rows))


@pytest.mark.parametrize("n", range(1, 6))
def test_shared_samples_agree_with_fresh_on_every_row(n):
    # every printed row passes, and a copy with one entry of row r bumped
    # is refuted on row r alone, as the fresh reference says of each row
    a = matrix(n)
    claims = [{a.cols[c]: v for c, v in enumerate(row) if v}
              for row in a.entries]
    assert refuted_rows(a, 20, 1729) == []
    assert all(map(fresh_verify, a.rows, claims))
    for r, (m, row) in enumerate(zip(a.rows, a.entries)):
        c = row.index(1)
        assert refuted_rows(bumped(a, r, c), 20, 1729) == [r]
        wrong = {**claims[r], a.cols[c]: 2}
        assert fresh_verify(m, wrong) is False


# a crossing row, fixed by rho, and a wrong one-term expansion of it
TUNED_ROW = matching([(1, 3), (2, 4)])
TUNED_TARGET = matching([(1, 2), (3, 4)])


def assert_verdicts_follow_seed_and_trials(verdict):
    """``verdict(claim, trials, seed)`` on one-term claims whose coefficient
    is tuned to the first sample of one seed: each passes on that sample
    alone, so the verdicts show which samples were used."""
    m, target = TUNED_ROW, TUNED_TARGET
    verdicts = set()
    for tuned in range(4):
        z = sample_z(2, random.Random(tuned))
        c = (delta_product(z, m) * pow(delta_product(z, target), -1, MODULUS)
             % MODULUS)
        for seed in range(4):
            for trials in (1, 2):
                got = verdict({target: c}, trials, seed)
                assert got is fresh_verify(m, {target: c}, trials, seed)
                assert got is (seed == tuned and trials == 1)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_shared_samples_follow_seed_and_trials():
    assert_verdicts_follow_seed_and_trials(
        lambda claim, trials, seed:
        numeric_check(TUNED_ROW, claim, trials=trials, seed=seed))


def test_check_rows_samples_follow_seed_and_trials():
    # the tuned row checked together with every true row of n = 2: all
    # rows share the samples of (trials, seed), so the tuned verdict is
    # the one it has alone and the true rows pass on every sample
    rows = row_labels(2)

    def verdict(claim, trials, seed):
        a = as_matrix([*rows, TUNED_ROW],
                      [*map(syzygy_expand, rows), claim], 2)
        refuted = refuted_rows(a, trials, seed)
        assert refuted in ([], [len(rows)])
        return not refuted
    assert_verdicts_follow_seed_and_trials(verdict)


@pytest.mark.parametrize("trials", [0, -1])
def test_check_rows_rejects_trials_below_one(trials, monkeypatch):
    # the oracle suite refuses trials below 1 before it expands a row
    def expand(rows, cols):
        raise AssertionError(f"expanded {rows}")
    monkeypatch.setattr(oracle, "check_rows", expand)
    with pytest.raises(ValueError, match="trials"):
        cli._suite_oracle(2, 1, trials)


def test_perturbed_coefficient_is_refuted_between_two_passes():
    m = matching([(1, 4), (2, 6), (3, 5), (7, 8)])
    coeffs = syzygy_expand(m)
    assert numeric_check(m, coeffs, seed=5)
    for m_prime in coeffs:
        assert not numeric_check(m, {**coeffs, m_prime: coeffs[m_prime] - 1},
                                 seed=5)
    missing = next(mp for mp in enumerate_matchings(4, "NC") if mp not in coeffs)
    assert not numeric_check(m, {**coeffs, missing: 1}, seed=5)
    assert numeric_check(m, coeffs, seed=5)


# ---------------------------------------------------------------------------
# every row of a matrix on shared samples, in bounded batches
# ---------------------------------------------------------------------------

def tuned_to_samples(m, k, seed):
    """A claim for row ``m`` on k noncrossing columns, its coefficients the
    residues that solve the identity on the first k samples of ``seed``:
    it passes those k samples and, with the next, fails."""
    rng = random.Random(seed)
    zs = [sample_z(len(m), rng) for _ in range(k)]
    support = col_labels(len(m))[:k]
    # Gauss-Jordan elimination modulo p on [Delta_c(z_t) | Delta_m(z_t)]
    rows = [[delta_product(z, c) % MODULUS for c in support]
            + [delta_product(z, m) % MODULUS] for z in zs]
    for i in range(k):
        pivot = next(r for r in range(i, k) if rows[r][i])
        rows[i], rows[pivot] = rows[pivot], rows[i]
        inverse = pow(rows[i][i], -1, MODULUS)
        rows[i] = [v * inverse % MODULUS for v in rows[i]]
        for r in range(k):
            if r != i and rows[r][i]:
                factor = rows[r][i]
                rows[r] = [(v - factor * w) % MODULUS
                           for v, w in zip(rows[r], rows[i])]
    return {c: row[k] for c, row in zip(support, rows)}


def test_refuted_rows_is_the_same_in_any_batch_size(monkeypatch):
    # the true rows, a bumped row and a row tuned to pass the first four
    # samples, so that batches of 3 refute it only in their second batch
    m = matching([(1, 4), (2, 5), (3, 6)])
    a = as_matrix(list(row_labels(3)) + [m, m],
                  [syzygy_expand(r) for r in row_labels(3)]
                  + [perturbed(syzygy_expand(m)), tuned_to_samples(m, 4, 2)],
                  3)
    verdicts = {trials: refuted_rows(a, trials, 2) for trials in (4, 5, 10)}
    assert verdicts == {4: [5], 5: [5, 6], 10: [5, 6]}
    monkeypatch.setattr(oracle, "_BATCH", 3)
    assert {trials: refuted_rows(a, trials, 2) for trials in (4, 5, 10)
            } == verdicts


def test_refuted_rows_holds_one_batch_at_a_time(monkeypatch):
    # the samples of every batch are dropped before the next is drawn, so
    # eight batches peak about where one does; smaller batches than the
    # default keep the run short under tracemalloc
    monkeypatch.setattr(oracle, "_BATCH", 256)
    a = matrix(4)
    peaks = []
    tracemalloc.start()
    try:
        for trials in (oracle._BATCH, 8 * oracle._BATCH):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert refuted_rows(a, trials, 1) == []
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


@pytest.mark.parametrize("n", range(0, 6))
def test_batched_identity_holds_on_every_matching(n):
    # every matching, crossing ones too, is a row here, with its rewriting
    # expansion as the row: the numeric check passes each, and check_rows
    # walks each nonnesting one to the same expansion
    rows = list(matchings(n))
    expansions = [syzygy_expand(m) for m in rows]
    assert refuted_rows(as_matrix(rows, expansions, n), MATRIX_TRIALS, n) == []
    column = {m: k for k, m in enumerate(col_labels(n))}
    nonnesting = [r for r, m in enumerate(rows) if is_nonnesting(m)]
    assert len(nonnesting) == catalan(n)
    assert sorted(check_rows([rows[r] for r in nonnesting], col_labels(n))) == [
        (k, {column[mp]: c for mp, c in expansions[r].items()})
        for k, r in enumerate(nonnesting)]


@pytest.mark.parametrize("seed", range(20))
def test_batched_identity_refutes_errors_that_cancel_in_a_plain_sum(seed):
    # +1 on one printed row and -1 on another at the same column: summed
    # over the rows the two errors would cancel, and each row is refuted
    # on its own
    a = matrix(5)
    shared = next(c for c, (x, y) in enumerate(zip(*a.entries[:2])) if x and y)
    wrong = bumped(bumped(a, 0, shared), 1, shared, by=-1)
    assert refuted_rows(wrong, MATRIX_TRIALS, seed) == [0, 1]


def test_packed_field_widths():
    # 61 + 8 itemsize + bit_length(terms) bits, rounded up to bytes
    assert [_field_bytes(k, 1) for k in (1, 7, 8, 4862)] == [9, 9, 10, 11]
    assert [_field_bytes(k, s) for k, s in ((16796, 2), (100, 8))] == [12, 17]


@pytest.mark.parametrize("terms", [1, 2, 42, 4862])
def test_packed_fields_hold_the_largest_sum(terms):
    # every entry at the top of its array and every product at p - 1: each
    # field of the sum holds its own total and carries nothing into the next
    for itemsize in (1, 2, 8):
        size = _field_bytes(terms, itemsize)
        entry, top = (1 << 8 * itemsize) - 1, MODULUS - 1
        column = int.from_bytes(top.to_bytes(size, "little") * 3, "little")
        raw = sum([entry * column] * terms).to_bytes(3 * size, "little")
        assert [int.from_bytes(raw[k:k + size], "little")
                for k in range(0, 3 * size, size)] == [terms * entry * top] * 3


def claim_with(coeff):
    """Row 0 of n = 4, fixed by rho, and its expansion with the coefficient
    1 at its diagonal column replaced by ``coeff``."""
    m, diagonal = row_labels(4)[0], col_labels(4)[0]
    coeffs = syzygy_expand(m)
    assert coeffs[diagonal] == 1
    return m, {**coeffs, diagonal: coeff}


@pytest.mark.parametrize("bad", [-1, MODULUS - 1, MODULUS, 2**64 - 1,
                                 2**64 + 1, 2**200 * MODULUS],
                         ids=["-1", "p-1", "p", "2^64-1", "2^64+1", "2^200 p"])
def test_a_coefficient_off_its_residue_is_refuted(bad):
    # entries of an array row are not reduced modulo p: the fields hold
    # every entry of a 64-bit row, so an entry at -1 or 0 modulo p, or at
    # the top of the row, is refuted rather than carried; an entry below 0
    # or past 64 bits, in a list row, is reduced modulo p and refuted too
    m, claim = claim_with(bad)
    assert numeric_check(m, claim, trials=MATRIX_TRIALS, seed=1) is False


@pytest.mark.parametrize("good", [1 + MODULUS, 1 - MODULUS, 1 + 8 * MODULUS,
                                  1 + 2**200 * MODULUS],
                         ids=["1+p", "1-p", "1+8p", "1+2^200 p"])
def test_a_coefficient_congruent_to_the_right_one_passes(good):
    # the check is modulo p: an entry of the right residue, however far
    # from it and whether a 64-bit row holds it or not, spills into no
    # other sample
    m, claim = claim_with(good)
    assert numeric_check(m, claim, trials=MATRIX_TRIALS, seed=1) is True


# ---------------------------------------------------------------------------
# each row alone, and a key off the columns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(0, 8))
def test_every_row_inserted_on_its_own_equals_its_matrix_row(n):
    # the full per-row reference: each row walked alone, along its own
    # parent chain, shares no expansion with another row
    a = matrix(n)
    for m, row in zip(a.rows, a.entries):
        [(_, coeffs)] = check_rows((m,), a.cols)
        assert coeffs == {c: v for c, v in enumerate(row) if v}


def matrix_6_verify_failures(capsys):
    code = cli.main(["matrix", "6", "--verify"])
    err = capsys.readouterr().err
    assert code == 1
    assert "verify OK" not in err
    return err.splitlines()


def expected_lines(rows):
    # the printed rows are right, so the numeric check, which samples
    # them and not the expansions, names none
    return [f"FAIL: syzygy expansion disagrees on row {m}" for m in rows]


def test_a_key_off_the_columns_fails_both_checks(capsys, monkeypatch):
    # an expansion with a crossing term names its row, and check_rows
    # yields no expansion for it; the printed row is right, so the numeric
    # check, which samples it, passes it.  The top row is a leaf of the
    # walk, so no other row is transposed from it.
    real = oracle._transpose
    row = row_labels(6)[0]
    expansion = by_partners(syzygy_expand(row), 6)
    crossing = partners(matching([(1, 3), (2, 4), (5, 7), (6, 8), (9, 11),
                                  (10, 12)]), 6)

    def off_basis(*args):
        coeffs = real(*args)
        if coeffs == expansion:
            coeffs[crossing] = 1
        return coeffs
    monkeypatch.setattr(oracle, "_transpose", off_basis)
    assert matrix_6_verify_failures(capsys) == expected_lines([row])
    verdicts = sorted(check_rows(row_labels(6), col_labels(6)))
    assert [r for r, coeffs in verdicts if coeffs is None] == [0]
    assert refuted_rows(matrix(6), MATRIX_TRIALS, 1) == []
