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
    crossing_arc_pairs,
    enumerate_matchings,
    is_noncrossing,
    m0,
    matching,
)
from webperm.enumeration import euler_numbers, genocchi
from webperm.grid import web_permutations_for
from webperm.oracle import (
    MATRIX_TRIALS,
    MODULUS,
    _field_bytes,
    _insert_arc,
    _minor_batches,
    check_rows,
    reflect,
    refuted_rows,
    sample_z,
    syzygy_expand,
    syzygy_insert,
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
# arc insertion
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


def insert_in_order(arcs, n):
    """The expansion by inserting ``arcs`` with :func:`_insert_arc` in the
    order given, as packed partner ints."""
    expansion = {partners((), n): 1}
    for x, y in arcs:
        grown = {}
        for partner, coeff in expansion.items():
            for state in _insert_arc(partner, x, y, width(n)):
                grown[state] = grown.get(state, 0) + coeff
        expansion = grown
    return expansion


@pytest.mark.parametrize("n", range(0, 6))
def test_syzygy_insert_equals_rewriting_on_every_matching(n):
    # syzygy_insert fixes its own order, so the shuffled order is also
    # inserted as given: the expansion is unique, whatever the order
    rng = random.Random(11 + n)
    for m in matchings(n):
        shuffled = list(m)
        rng.shuffle(shuffled)
        expected = by_partners(syzygy_expand(m), n)
        assert syzygy_insert(m) == syzygy_insert(tuple(shuffled)) == expected
        assert insert_in_order(shuffled, n) == expected


def test_syzygy_insert_equals_rewriting_on_nn_rows_of_size_6():
    # sizes up to 5 are covered by every matching above
    for m in row_labels(6):
        assert syzygy_insert(m) == by_partners(syzygy_expand(m), 6)


def test_syzygy_insert_inserts_the_shortest_arc_first(monkeypatch):
    # by length, ties by opener; each arc is inserted into every state of
    # the expansion before it
    real = oracle._insert_arc
    order = []

    def recording(partner, x, y, w):
        order.append((x, y))
        return real(partner, x, y, w)
    monkeypatch.setattr(oracle, "_insert_arc", recording)
    m = matching([(1, 3), (2, 5), (4, 7), (6, 8)])
    assert syzygy_insert(m) == by_partners(syzygy_expand(m), 4)
    assert list(dict.fromkeys(order)) == [(1, 3), (6, 8), (2, 5), (4, 7)]


@pytest.mark.parametrize("n", range(1, 6))
def test_insert_arc_is_one_plucker_walk(n):
    # inserting any arc of m into the rest of m, when the rest is
    # noncrossing, yields 2^k distinct noncrossing states, k the number of
    # arcs it crosses, and they are the expansion of m; an arc that
    # crosses nothing is simply added
    for m in matchings(n):
        for arc in m:
            rest = [a for a in m if a != arc]
            if not is_noncrossing(rest):
                continue
            states = list(_insert_arc(partners(rest, n), *arc, width(n)))
            x, y = arc
            k = sum(1 for a, b in rest if (x < a < y) != (x < b < y))
            assert len(states) == len(set(states)) == 2 ** k
            assert set(states) == {partners(mp, n) for mp in syzygy_expand(m)}
            if k == 0:
                assert states == [partners(m, n)]


def test_top_row_counts_the_web_permutations_and_the_staircase():
    # the main theorem on row {(i, n + i)}: its coefficients count Web_n by
    # M(sigma), so they sum to E_{n+1}, and the staircase m0 takes f(n) =
    # g_n of them; the packed fields widen from 4 to 5 bits at n = 8
    eulers, gs = euler_numbers(12), genocchi(11)
    for n in range(1, 12):
        coeffs = syzygy_insert(matching([(i, n + i) for i in range(1, n + 1)]))
        assert sum(coeffs.values()) == eulers[n + 1]
        assert coeffs[oracle.partners(m0(n))] == gs[n - 1]
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
    """The expansion ``check_rows`` yields for the one row ``m``, fixed by
    rho, with ``claim`` standing in for its insertion."""
    assert mirror(m) == m
    monkeypatch.setattr(oracle, "syzygy_insert", lambda _: {
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
    for claim in ({matching([(1, 3), (2, 4)]): 1}, {m0(3): 1}):
        assert expansion_by_check_rows(m0(2), claim, monkeypatch) is None


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
    # the oracle suite refuses trials below 1 before it inserts a row
    def insert(m):
        raise AssertionError(f"inserted {m}")
    monkeypatch.setattr(oracle, "syzygy_insert", insert)
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
    # expansion as the row: check_rows inserts each (the set is closed
    # under rho) and the numeric check passes each
    rows = list(matchings(n))
    expansions = [syzygy_expand(m) for m in rows]
    assert refuted_rows(as_matrix(rows, expansions, n), MATRIX_TRIALS, n) == []
    column = {m: k for k, m in enumerate(col_labels(n))}
    assert sorted(check_rows(rows, col_labels(n))) == [
        (r, {column[mp]: c for mp, c in expansion.items()})
        for r, expansion in enumerate(expansions)]


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
# one insertion per rho-orbit of rows, rho being i -> 2n + 1 - i
# ---------------------------------------------------------------------------

def mirror(m):
    """rho(m) as a ``Matching``."""
    end = 2 * len(m) + 1
    return matching([(end - q, end - p) for p, q in m])


@pytest.mark.parametrize("n", range(0, 6))
def test_syzygy_insert_commutes_with_rho(n):
    # the theorem the orbits rest on: syzygy_insert(rho M) = rho(syzygy_insert(M))
    for m in matchings(n):
        assert reflect(partners(m, n), n) == partners(mirror(m), n)
        assert syzygy_insert(mirror(m)) == {
            reflect(key, n): c for key, c in syzygy_insert(m).items()}


@pytest.mark.parametrize("n", range(0, 8))
def test_every_row_inserted_on_its_own_equals_its_matrix_row(n):
    # the full per-row reference, no orbit shared
    a = matrix(n)
    for m, row in zip(a.rows, a.entries):
        assert syzygy_insert(m) == {partners(a.cols[c], n): v
                                    for c, v in enumerate(row) if v}


def test_matrix_verify_inserts_once_per_orbit(capsys, monkeypatch):
    real = oracle.syzygy_insert
    inserted = []

    def counting(m):
        inserted.append(m)
        return real(m)
    monkeypatch.setattr(oracle, "syzygy_insert", counting)
    assert cli.main(["matrix", "7", "--verify", "--seed", "7"]) == 0
    assert "verify OK" in capsys.readouterr().err
    rows = row_labels(7)
    assert len(inserted) == len(set(inserted)) == 232
    assert sum(mirror(m) == m for m in inserted) == 35
    assert set(inserted) | {mirror(m) for m in inserted} == set(rows)
    # the first row of each orbit in table order is the one inserted
    assert all(rows.index(m) <= rows.index(mirror(m)) for m in inserted)


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


def test_columns_left_unmapped_fail_the_mirrored_rows(capsys, monkeypatch):
    # rows paired by rho, columns by the identity: each second row of an
    # orbit is checked against its mirror's row, and fails where they
    # differ, which is in all (132 - 20) / 2 orbits of two rows
    real = oracle.reflection
    columns = [oracle.partners(c) for c in col_labels(6)]
    monkeypatch.setattr(oracle, "reflection", lambda keys, n: (
        list(range(len(keys))) if keys == columns else real(keys, n)))
    a = matrix(6)
    pair = real([oracle.partners(m) for m in a.rows], 6)
    failing = [m for r, (m, row) in enumerate(zip(a.rows, a.entries))
               if pair[r] < r and row != a.entries[pair[r]]]
    assert len(failing) == 56
    assert matrix_6_verify_failures(capsys) == expected_lines(failing)


def test_rows_paired_by_a_wrong_involution_fail(capsys, monkeypatch):
    # rows k and k ^ 1 paired, columns by rho: row k ^ 1 is checked against
    # rho of the expansion of row k, which is not its own
    real = oracle.reflection
    rows = [oracle.partners(m) for m in row_labels(6)]
    monkeypatch.setattr(oracle, "reflection", lambda keys, n: (
        [k ^ 1 for k in range(len(keys))] if keys == rows else real(keys, n)))
    a = matrix(6)
    failing = [a.rows[k] for k in range(1, len(rows), 2)
               if mirror(a.rows[k]) != a.rows[k - 1]]
    assert len(failing) == len(rows) // 2
    assert matrix_6_verify_failures(capsys) == expected_lines(failing)


def test_check_rows_yields_every_row_once_under_any_pairing(monkeypatch):
    # a pairing that is no involution still checks every row, once
    real = oracle.reflection
    rows = row_labels(5)
    keys = [oracle.partners(m) for m in rows]
    shifted = [(k + 1) % len(rows) for k in range(len(rows))]
    for pairing in ([0] * len(rows), shifted):
        monkeypatch.setattr(oracle, "reflection", lambda ks, n: (
            pairing if ks == keys else real(ks, n)))
        assert sorted(r for r, _ in check_rows(rows, col_labels(5))
                      ) == list(range(len(rows)))


def test_a_key_off_the_columns_fails_both_checks(capsys, monkeypatch):
    # an expansion with a crossing term names its row, and check_rows
    # yields no expansion for it; the printed row is right, so the numeric
    # check, which samples it, passes it
    real = oracle.syzygy_insert
    row = row_labels(6)[7]
    assert mirror(row) == row
    crossing = partners(matching([(1, 3), (2, 4), (5, 7), (6, 8), (9, 11),
                                  (10, 12)]), 6)

    def off_basis(m):
        coeffs = real(m)
        if m == row:
            coeffs[crossing] = 1
        return coeffs
    monkeypatch.setattr(oracle, "syzygy_insert", off_basis)
    assert matrix_6_verify_failures(capsys) == expected_lines([row])
    verdicts = sorted(check_rows(row_labels(6), col_labels(6)))
    assert [r for r, coeffs in verdicts if coeffs is None] == [7]
    assert refuted_rows(matrix(6), MATRIX_TRIALS, 1) == []
