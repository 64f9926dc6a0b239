"""Independent verification path: syzygy rewriting of matching minor
products into the noncrossing basis, plus exact numeric evaluation.

A crossing pair of arcs {a,c}, {b,d} (a<b<c<d) rewrites into the two
uncrossed pairs {a,b},{c,d} and {a,d},{b,c}; iterating until no crossing
pair remains expands any matching over noncrossing matchings with
nonnegative integer coefficients.  The rewriting never touches
polynomials; the numeric evaluator below checks the resulting identity on
random integer specializations with exact arithmetic.

The samples depend only on (n, trials, seed, bound), so every row of one
matrix is checked on the same ones.  They are drawn once and kept, with
their arc minors and the minor products of the noncrossing matchings seen
so far, in a one-entry cache; a call with other parameters replaces it.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations
from operator import mul

from .combinat import (
    Matching,
    crossing_arc_pairs,
    is_noncrossing,
    matching,
    matching_size,
)

SYZYGY_POLICIES = ("first", "last")
DEFAULT_SEED = 1729
DEFAULT_ENTRY_BOUND = 1000


def syzygy_step(m: Matching, pair: tuple) -> tuple[Matching, Matching]:
    """Resolve one crossing pair: ({a,c},{b,d}) -> ({a,b},{c,d}) and
    ({a,d},{b,c})."""
    (a, c), (b, d) = pair
    rest = [arc for arc in m if arc != (a, c) and arc != (b, d)]
    return (matching(rest + [(a, b), (c, d)]),
            matching(rest + [(a, d), (b, c)]))


def syzygy_expand(m: Matching, policy: str = "first") -> dict[Matching, int]:
    """Expand a matching over noncrossing matchings by iterated rewriting.

    ``policy`` chooses which crossing pair to resolve at each step ("first"
    or "last" in lexicographic opener order); the result is independent of
    the choice.

    >>> syzygy_expand(matching([(1, 3), (2, 4)]))
    {((1, 2), (3, 4)): 1, ((1, 4), (2, 3)): 1}
    """
    if policy not in SYZYGY_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    select = min if policy == "first" else max
    out: Counter[Matching] = Counter()
    stack: list[tuple[Matching, int]] = [(m, 1)]
    while stack:
        current, mult = stack.pop()
        pairs = crossing_arc_pairs(current)
        if not pairs:
            out[current] += mult
            continue
        pair = select(pairs, key=lambda pr: (pr[0][0], pr[1][0]))
        for branch in syzygy_step(current, pair):
            stack.append((branch, mult))
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# exact numeric evaluation
# ---------------------------------------------------------------------------

def sample_z(n: int, rng: random.Random,
             bound: int = DEFAULT_ENTRY_BOUND) -> list[list[int]]:
    """A random integer 2 x 2n specialization with entries in [-bound, bound]."""
    return [[rng.randint(-bound, bound) for _ in range(2 * n)] for _ in range(2)]


def minor(z: list[list[int]], i: int, j: int) -> int:
    """The 2 x 2 minor on columns i < j."""
    if not 1 <= i < j <= len(z[0]):
        raise ValueError(f"need 1 <= i < j <= {len(z[0])}, got ({i}, {j})")
    return z[0][i - 1] * z[1][j - 1] - z[0][j - 1] * z[1][i - 1]


def delta_product(z: list[list[int]], m: Matching) -> int:
    """Product of the arc minors of a matching."""
    result = 1
    for i, j in m:
        result *= minor(z, i, j)
    return result


class _Samples:
    """The seeded samples of one (n, trials, seed, bound): the minor of
    every arc on every sample, and a memo of the minor products of the
    noncrossing support matchings checked so far (at most Catalan(n))."""

    def __init__(self, n: int, trials: int, seed: int, bound: int) -> None:
        rng = random.Random(seed)
        self.zs = [sample_z(n, rng, bound) for _ in range(trials)]
        self.minors = {(i, j): tuple(minor(z, i, j) for z in self.zs)
                       for i, j in combinations(range(1, 2 * n + 1), 2)}
        self.support: dict[Matching, tuple[int, ...]] = {}

    def products(self, m: Matching) -> tuple[int, ...]:
        """:func:`delta_product` of ``m`` on each sample."""
        out = (1,) * len(self.zs)
        for i, j in m:
            column = self.minors.get((i, j))
            if column is None:
                # not an arc on [2n]: minor() raises the ValueError
                column = tuple(minor(z, i, j) for z in self.zs)
            out = tuple(map(mul, out, column))
        return out


@lru_cache(maxsize=1)
def _samples(n: int, trials: int, seed: int, bound: int) -> _Samples:
    return _Samples(n, trials, seed, bound)


def verify_expansion(m: Matching, coeffs: dict[Matching, int],
                     trials: int = 20, seed: int = DEFAULT_SEED,
                     bound: int = DEFAULT_ENTRY_BOUND) -> bool:
    """True iff the claimed expansion matches the minor product of ``m`` on
    ``trials`` seeded random specializations, with exact equality.

    A wrong coefficient vector is refuted by almost any sample.  ``trials``
    must be at least 1, so that a pass always rests on a sample.  The
    samples, their minors and the products of support matchings already
    validated are shared with the previous call when (n, trials, seed,
    bound) are the same; the result is what fresh samples would give.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = matching_size(m)
    samples = _samples(n, trials, seed, bound)
    support = samples.support
    for m_prime in coeffs:
        if m_prime in support:
            continue
        if matching_size(m_prime) != n:
            raise ValueError(f"size mismatch in expansion support: {m_prime}")
        if not is_noncrossing(m_prime):
            raise ValueError(f"expansion support must be noncrossing: {m_prime}")
        support[m_prime] = samples.products(m_prime)
    lhs = samples.products(m)
    terms = [(c, support[m_prime]) for m_prime, c in coeffs.items()]
    return all(value == sum(c * p[k] for c, p in terms)
               for k, value in enumerate(lhs))
