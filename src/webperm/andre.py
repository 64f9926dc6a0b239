"""Andre permutations and cycles, the cycle-type test for web permutations,
312-avoidance, and the Foata transformation.

Words are tuples of distinct positive integers.  Cycles are tuples in
canonical rotation: the minimum entry first.  A full cycle decomposition
is a tuple of cycles sorted by their minima.

Andre words are defined by the min-split recursion of :func:`is_andre_word`
and tested in one pass (Foata-Strehl 1974): a letter x with a larger left
neighbour needs its right run of larger letters to peak above its left run.
The web permutations are built from the recursion itself
(:func:`andre_cycle_permutations`), which tests no word; the one-pass test
is behind :func:`is_web`, :func:`is_andre_cycle` and
:func:`andre_full_cycles`, which cross-check that construction.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
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


def _andre_words(n: int) -> list[list[Word]]:
    """The Andre words on the letters 1..k, for every k < n: entry k lists
    all E_k of them (1, 1, 1, 2, 5, 16, 61, ...).

    Built by the min-split recursion, so no word is tested: an Andre word
    on k >= 2 letters is u 1 v, where u and v are Andre words on a split
    of 2..k and v holds k, each factor a word of a shorter entry relabelled
    onto its letters.  There are 1,744 words at n = 9 and 9,680 at n = 10.

    >>> _andre_words(5)[4]
    [(1, 2, 3, 4), (1, 3, 2, 4), (2, 1, 3, 4), (3, 1, 2, 4), (2, 3, 1, 4)]
    """
    words: list[list[Word]] = [[()], [(1,)]][:n]
    for k in range(2, n):
        built: list[Word] = []
        for size in range(k - 1):
            for left in itertools.combinations(range(2, k), size):
                right = (0, *(x for x in range(2, k + 1) if x not in left))
                left = (0, *left)
                heads = [tuple(map(left.__getitem__, u)) for u in words[size]]
                tails = [(1, *map(right.__getitem__, v))
                         for v in words[k - 1 - size]]
                built += [head + tail for head in heads for tail in tails]
        words.append(built)
    return words


def _closing(word: Word) -> tuple[int, ...]:
    """The Andre word ``word`` on 1..k as the cycle (0, *word) of slots:
    entry s is the slot after s.  Slot 0 stands for the cycle's minimum
    and slot s for its s-th smallest other letter."""
    after = [0] * (len(word) + 1)
    for a, b in zip((0, *word), word):
        after[a] = b
    return tuple(after)


def andre_cycle_permutations(n: int) -> Iterator[Permutation]:
    """The permutations of [n] all of whose cycles are Andre cycles, in no
    particular order: {sigma in S_n : is_web(sigma)}.

    A construction, not a filter: no word is tested.  The cycle of 1 is 1
    followed by an Andre word on a subset of 2..n, and the other cycles
    make a permutation of the same kind on the r letters left over.  So
    for each subset, every Andre word of its size (:func:`_andre_words`),
    relabelled onto it, closes the cycle of 1 under every completion of
    the rest, which is Web_r relabelled.  Each sigma is one gather, in C,
    of that cycle's images and the completion's.  Web_r for r <= n - 2 is
    built when this is called, each from the smaller ones, 1,743
    permutations at n = 9 and 9,679 at n = 10, and Web_{n-1} is streamed
    for the subset with no letters.  All of it is local: nothing is kept
    once the iterator is dropped.

    >>> sorted(andre_cycle_permutations(3))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 2, 1)]
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    closers = [[_closing(w) for w in words] for words in _andre_words(n)]
    smaller: list[list[Permutation]] = []
    for m in range(n - 1):
        smaller.append(list(_webs(m, closers, smaller)))
    return _webs(n, closers, smaller)


def _webs(m: int, closers: list[list[tuple[int, ...]]],
          smaller: list[list[Permutation]]) -> Iterator[Permutation]:
    """Web_m from the slot maps of the Andre words by size and Web_r for
    the r < len(smaller); Web_r for larger r is streamed by recursion."""
    if m < 2:
        yield tuple(range(1, m + 1))
        return
    others = range(2, m + 1)
    for size in range(m):
        for sub in itertools.combinations(others, size):
            letters = (1, *sub)
            rest = tuple(x for x in others if x not in sub)
            images = [list(map(letters.__getitem__, after))
                      for after in closers[size]]
            # sigma(x) for x = 1..m, gathered from the cycle's images
            # followed by the completion's.  Lists, not tuples: freed
            # tuples stay in the interpreter's tuple free lists, which
            # raised the peak RSS of ``web 9 --source both`` by 0.7 MiB.
            order = letters + rest
            pick = itemgetter(*sorted(range(m), key=order.__getitem__))
            rel = (0, *rest)
            completions = (smaller[len(rest)] if len(rest) < len(smaller)
                           else _webs(len(rest), closers, smaller))
            for tau in completions:
                tail = list(map(rel.__getitem__, tau))
                yield from map(pick, map(list.__add__, images,
                                         itertools.repeat(tail)))


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
