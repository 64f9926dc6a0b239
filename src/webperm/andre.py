"""Andre permutations and cycles, the cycle-type test for web permutations,
312-avoidance, and the Foata transformation.

Words are tuples of distinct positive integers.  Cycles are tuples in
canonical rotation: the minimum entry first.  A full cycle decomposition
is a tuple of cycles sorted by their minima.

Andre words are defined by the min-split recursion of :func:`is_andre_word`
and tested in one pass (Foata-Strehl 1974): a letter x with a larger left
neighbour needs its right run of larger letters to peak above its left run.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .combinat import Permutation, is_permutation

Word = tuple[int, ...]
Cycle = tuple[int, ...]


def is_andre_word(word: Sequence[int]) -> bool:
    """By definition, the minimum letter splits the word into two Andre
    factors whose maxima increase left to right (max of the empty factor
    counts as -infinity).  The code checks each letter's two runs instead.

    >>> is_andre_word((5, 4, 7, 2, 3, 9))
    True
    >>> is_andre_word(()), is_andre_word((2, 1))
    (True, False)
    """
    w = tuple(word)
    if len(set(w)) != len(w) or any(x < 1 for x in w):
        raise ValueError(f"expected distinct positive letters, got {w}")
    return _andre(w)


def _andre(w: Word) -> bool:
    # Every Andre word ends with its maximum; this settles most words.
    if w and w[-1] != max(w):
        return False
    for i in range(1, len(w)):
        x = w[i]
        if w[i - 1] > x:
            left = max(itertools.takewhile(x.__lt__, reversed(w[:i])))
            right = max(itertools.takewhile(x.__lt__, w[i + 1:]), default=0)
            if left > right:
                return False
    return True


def canonical_cycle(entries: Sequence[int]) -> Cycle:
    """Rotate a cyclic sequence so its minimum comes first."""
    c = tuple(entries)
    if len(set(c)) != len(c):
        raise ValueError(f"cycle entries must be distinct: {c}")
    k = c.index(min(c))
    return c[k:] + c[:k]


def is_andre_cycle(entries: Sequence[int]) -> bool:
    """A cycle is Andre when the word after its minimum is an Andre word.

    >>> is_andre_cycle((2, 3, 9, 1, 5, 4, 7))
    True
    >>> is_andre_cycle((1, 3, 2))
    False
    """
    c = canonical_cycle(entries)
    return _andre(c[1:])


def cycles(sigma: Permutation) -> tuple[Cycle, ...]:
    """Disjoint cycles, each rotated minimum-first, sorted by minima.

    >>> cycles((5, 6, 8, 4, 7, 9, 3, 1, 2))
    ((1, 5, 7, 3, 8), (2, 6, 9), (4,))
    """
    return tuple(_cycles(sigma))


def _cycles(sigma: Permutation) -> Iterator[Cycle]:
    """The cycles of :func:`cycles`, one at a time, so that a caller can
    stop at the first cycle it rejects."""
    n = len(sigma)
    seen = [False] * (n + 1)
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = sigma[start - 1]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = sigma[x - 1]
        yield tuple(cyc)


def cycles_to_str(decomposition: Sequence[Cycle]) -> str:
    """Parentheses-and-commas display, e.g. '(1,3)(2,4)'."""
    return "".join("(" + ",".join(map(str, c)) + ")"
                   for c in decomposition)


def permutation_from_cycle(cycle: Sequence[int], n: int) -> Permutation:
    """The permutation of [n] acting as the given cycle, fixing the rest.
    It certifies that each phi(sigma) is one (n+2)-cycle sending n+2 to 1."""
    c = tuple(cycle)
    if any(not 1 <= x <= n for x in c):
        raise ValueError(f"cycle entries must lie in [1, {n}]: {c}")
    word = list(range(1, n + 1))
    for a, b in zip(c, c[1:] + c[:1]):
        word[a - 1] = b
    return tuple(word)


def is_web(sigma: Permutation) -> bool:
    """True iff every cycle of the permutation is an Andre cycle.

    >>> is_web((3, 2, 1)), is_web((3, 1, 2))
    (True, False)
    """
    if not is_permutation(sigma):
        raise ValueError(f"not a permutation: {sigma}")
    return all(_andre(c[1:]) for c in _cycles(sigma))


def andre_cycle_permutations(n: int) -> Iterator[Permutation]:
    """The permutations of [n] all of whose cycles are Andre cycles, in no
    particular order: {sigma in S_n : is_web(sigma)}.

    Builds sigma one cycle at a time.  The smallest element not yet placed
    opens the next cycle, and every word over the other unplaced elements
    is a candidate for the rest of it, tested by the same Andre-word test
    as :func:`is_web`.  A rejected cycle rules out every permutation that
    contains it at once, so each sigma of S_n gets its verdict without
    being decomposed on its own.

    >>> sorted(andre_cycle_permutations(3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 2, 1)]
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    sigma = [0] * n

    def extend(unplaced: Word) -> Iterator[Permutation]:
        if not unplaced:
            yield tuple(sigma)
            return
        first, others = unplaced[0], unplaced[1:]
        for length in range(len(others) + 1):
            for word in itertools.permutations(others, length):
                if not _andre(word):
                    continue
                a = first
                for b in word:
                    sigma[a - 1] = b
                    a = b
                sigma[a - 1] = first
                yield from extend(tuple(x for x in others if x not in word))

    return extend(tuple(range(1, n + 1)))


def is_312_avoiding(sigma: Permutation) -> bool:
    """True iff no indices i < j < k have sigma(j) < sigma(k) < sigma(i)."""
    n = len(sigma)
    for j in range(1, n):
        big = max(sigma[:j])
        for k in range(j + 1, n):
            if sigma[j] < sigma[k] < big:
                return False
    return True


# ---------------------------------------------------------------------------
# Foata transformation
# ---------------------------------------------------------------------------

def foata(sigma: Permutation) -> Word:
    """Drop the parentheses of the canonical cycle notation: cycles sorted
    by minima, each written with its minimum last.

    >>> foata((5, 6, 8, 4, 7, 9, 3, 1, 2))
    (5, 7, 3, 8, 1, 6, 9, 2, 4)
    """
    if not is_permutation(sigma):
        raise ValueError(f"not a permutation: {sigma}")
    word: list[int] = []
    for c in cycles(sigma):
        word.extend(c[1:])
        word.append(c[0])
    return tuple(word)


def foata_inverse(word: Sequence[int]) -> Permutation:
    """Rebuild the permutation by cutting the word after each right-to-left
    minimum."""
    w = tuple(word)
    if not is_permutation(w):
        raise ValueError(f"not a permutation word: {w}")
    cuts = []
    low = len(w) + 1
    for pos in range(len(w) - 1, -1, -1):
        if w[pos] < low:
            low = w[pos]
            cuts.append(pos)
    cuts.reverse()
    sigma = [0] * len(w)
    start = 0
    for cut in cuts:
        segment = w[start:cut + 1]          # a cycle with its minimum last
        for a, b in zip(segment, segment[1:] + segment[:1]):
            sigma[a - 1] = b
        start = cut + 1
    return tuple(sigma)


def rlmin(word: Sequence[int]) -> int:
    """Number of right-to-left minima.  It certifies that :func:`foata`
    sends cycles to them: rlmin(foata(sigma)) counts the cycles of sigma."""
    count = 0
    low = None
    for x in reversed(word):
        if low is None or x < low:
            low = x
            count += 1
    return count


def cycle_count(sigma: Permutation) -> int:
    return len(cycles(sigma))


def phi(sigma: Permutation) -> Cycle:
    """The (n+2)-cycle (1, w_1+1, ..., w_n+1, n+2) built from the Foata
    word w of a permutation of [n].  Injective; the image permutation
    always maps n+2 back to 1.

    >>> phi((5, 6, 8, 4, 7, 9, 3, 1, 2))
    (1, 6, 8, 4, 9, 2, 7, 10, 3, 5, 11)
    """
    n = len(sigma)
    return (1,) + tuple(x + 1 for x in foata(sigma)) + (n + 2,)


def full_cycles(n: int) -> Iterator[Cycle]:
    """All n-cycles on [n] in canonical rotation ((n-1)! of them)."""
    for rest in itertools.permutations(range(2, n + 1)):
        yield (1,) + rest


def andre_full_cycles(n: int) -> frozenset[Cycle]:
    """AC_n: the n-cycles on [n] that are Andre cycles, materialized by
    filtering all (n-1)! candidates."""
    return frozenset(c for c in full_cycles(n) if is_andre_cycle(c))
