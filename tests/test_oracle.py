import itertools
import random

import pytest

from webperm.combinat import (
    catalan,
    crossing_arc_pairs,
    enumerate_matchings,
    is_noncrossing,
    m0,
    matching,
    matchings,
)
from webperm.grid import web_permutations_for
from webperm.oracle import (
    _samples,
    delta_product,
    minor,
    sample_z,
    syzygy_expand,
    syzygy_step,
    verify_expansion,
)
from webperm.transition import row_labels


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


@pytest.mark.parametrize("n", range(1, 5))
def test_syzygy_policy_independence_exhaustive(n):
    for m in matchings(n):
        assert syzygy_expand(m, "first") == syzygy_expand(m, "last")


def test_syzygy_policy_independence_sampled_n5():
    rng = random.Random(20_25)
    pool = enumerate_matchings(5, "all")
    for m in rng.sample(pool, 500):
        assert syzygy_expand(m, "first") == syzygy_expand(m, "last")
    with pytest.raises(ValueError):
        syzygy_expand(pool[0], "middle")


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
# numeric evaluation
# ---------------------------------------------------------------------------

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
        z = sample_z(n, rng, bound=1000)
        for a, b, c, d in itertools.combinations(range(1, 2 * n + 1), 4):
            assert (minor(z, a, c) * minor(z, b, d)
                    == minor(z, a, b) * minor(z, c, d)
                    + minor(z, a, d) * minor(z, b, c))


def test_verify_expansion_trivial_and_exhaustive():
    assert verify_expansion(m0(3), {m0(3): 1})
    for n in range(1, 5):
        for m in matchings(n):
            assert verify_expansion(m, syzygy_expand(m), trials=20, seed=11)


def test_verify_expansion_refutes_wrong_coefficients():
    assert not verify_expansion(matching([(1, 3), (2, 4)]),
                                {matching([(1, 2), (3, 4)]): 2})


def test_verify_expansion_validates_support():
    crossing_support = matching([(1, 3), (2, 4)])
    with pytest.raises(ValueError):
        verify_expansion(m0(2), {crossing_support: 1})
    with pytest.raises(ValueError):
        verify_expansion(m0(2), {m0(3): 1})


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_expansion_rejects_trials_below_one(trials):
    m = matching([(1, 3), (2, 4)])
    with pytest.raises(ValueError, match="trials"):
        verify_expansion(m, syzygy_expand(m), trials=trials)


def test_verify_expansion_is_seed_deterministic():
    m = matching([(1, 4), (2, 6), (3, 5)])
    coeffs = syzygy_expand(m)
    rng = random.Random(5)
    assert sample_z(2, rng) == sample_z(2, random.Random(5))
    assert verify_expansion(m, coeffs, trials=5, seed=5) is True


def fresh_verify(m, coeffs, trials=20, seed=1729, bound=1000):
    """The numeric check with fresh samples on every call: the definition
    that the shared samples of ``verify_expansion`` must reproduce."""
    rng = random.Random(seed)
    for _ in range(trials):
        z = sample_z(len(m), rng, bound)
        if delta_product(z, m) != sum(c * delta_product(z, mp)
                                      for mp, c in coeffs.items()):
            return False
    return True


def perturbed(coeffs):
    first = next(iter(coeffs))
    return {**coeffs, first: coeffs[first] + 1}


@pytest.mark.parametrize("n", range(1, 6))
def test_shared_samples_agree_with_fresh_on_every_row(n):
    for m in row_labels(n):
        coeffs = syzygy_expand(m)
        assert verify_expansion(m, coeffs) is fresh_verify(m, coeffs) is True
        wrong = perturbed(coeffs)
        assert verify_expansion(m, wrong) is fresh_verify(m, wrong) is False
    assert len(_samples(n, 20, 1729, 1000).support) <= catalan(n)


def test_shared_samples_survive_hits_and_evictions():
    rows = {n: row_labels(n) for n in (3, 4, 5)}
    calls = [(n, seed, trials) for seed in (1, 2) for trials in (1, 3)
             for n in (3, 4, 5)]
    for n, seed, trials in calls + calls[::-1]:
        for m in rows[n][::5]:
            for coeffs in (syzygy_expand(m), perturbed(syzygy_expand(m))):
                assert (verify_expansion(m, coeffs, trials=trials, seed=seed)
                        is fresh_verify(m, coeffs, trials=trials, seed=seed))


def test_shared_samples_follow_seed_trials_and_bound():
    # with entries in {-1, 0, 1} a wrong expansion survives some samples,
    # so the verdict shows which samples were used
    m = matching([(1, 3), (2, 4)])
    wrong = {matching([(1, 2), (3, 4)]): 2}
    verdicts = set()
    for seed in range(12):
        for trials, bound in ((1, 1), (2, 1), (1, 1000)):
            got = verify_expansion(m, wrong, trials=trials, seed=seed, bound=bound)
            assert got is fresh_verify(m, wrong, trials, seed, bound)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_perturbed_coefficient_is_refuted_on_a_warm_cache():
    m = matching([(1, 4), (2, 6), (3, 5), (7, 8)])
    coeffs = syzygy_expand(m)
    assert verify_expansion(m, coeffs, seed=5)
    for m_prime in coeffs:
        assert not verify_expansion(m, {**coeffs, m_prime: coeffs[m_prime] - 1},
                                    seed=5)
    missing = next(mp for mp in enumerate_matchings(4, "NC") if mp not in coeffs)
    assert not verify_expansion(m, {**coeffs, missing: 1}, seed=5)
    assert verify_expansion(m, coeffs, seed=5)


def test_malformed_arc_raises_value_error():
    good = m0(2)
    verify_expansion(good, {good: 1})
    for bad in (((1, 2), (3, 5)), ((1, 2), (4, 3)), ((0, 1), (2, 3))):
        with pytest.raises(ValueError):
            verify_expansion(bad, {good: 1})
        with pytest.raises(ValueError):
            verify_expansion(good, {bad: 1})
