"""Counting web permutations: zigzag numbers, their first-letter refinement,
the Seidel triangle, and the staircase-matching statistics f(n) and f(n, k).

Both triangles are built by one step of the boustrophedon transform: each
row accumulates the previous one, read in alternating direction (Seidel
1877; Millar, Sloane and Young, JCTA 76, 1996).  The rows come one at a
time, so a caller holds only the rows it keeps.  All integers are exact
(Python ints).

The counts of Web_n read two memos per n, neither of which keeps a
table.  The first-letter counts, :func:`census`, come from one pass over
the Andre-cycle construction
(:func:`webperm.andre.andre_cycle_permutations`), the stream the
transition matrix counts.  The staircase words, the web permutations
whose traced matching is the staircase, come from a search over the
definition of Web_n instead, which f(n), f(n, k) and their witnesses
read without the stream: M(sigma) is the staircase iff every Lehmer
entry of sigma is even (see :func:`webperm.combinat.lehmer_path`), so
the search builds sigma from even Lehmer entries only and tests each
cycle as it closes.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate
from typing import Iterator

from .andre import _andre, andre_cycle_permutations, cycle_count


# ---------------------------------------------------------------------------
# Seidel triangle and Genocchi numbers
# ---------------------------------------------------------------------------

def _seidel_step(prev: list[int], i: int) -> list[int]:
    """Row i of the Seidel triangle from row i - 1, which is padded with
    zeros to ceil(i/2) entries and accumulated left to right on odd rows,
    right to left on even rows."""
    padded = prev + [0] * ((i + 1) // 2 - len(prev))
    if i % 2 == 1:
        return list(accumulate(padded))
    return list(accumulate(reversed(padded)))[::-1]


def seidel_rows(rows: int) -> Iterator[list[int]]:
    """The first ``rows`` rows of the boustrophedon triangle s[i][j], one at
    a time; each row is built from the previous one and then dropped.

    Row i holds ceil(i/2) entries.  Odd rows accumulate left to right on
    top of the previous row, even rows right to left; out-of-range
    neighbours count as zero.  ``rows`` is checked when this is called.

    >>> list(seidel_rows(7))[6]
    [8, 14, 17, 17]
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    return accumulate(range(2, rows + 1), _seidel_step, initial=[1])


def genocchi(upto: int) -> list[int]:
    """g_1..g_upto: the odd rows contribute their last entry, the even rows
    their first.  ``upto = 0`` gives the empty list.

    >>> genocchi(9)
    [1, 1, 1, 2, 3, 8, 17, 56, 155]
    """
    if upto < 0:
        raise ValueError(f"upto must be >= 0, got {upto}")
    rows = seidel_rows(upto) if upto else ()
    return [row[-1] if k % 2 == 1 else row[0]
            for k, row in enumerate(rows, start=1)]


# ---------------------------------------------------------------------------
# zigzag (secant-tangent) numbers and their refinement
# ---------------------------------------------------------------------------

def _zigzag_rows(n: int) -> Iterator[list[int]]:
    """Boustrophedon rows 0..n: row 0 is [1], and row k starts at 0 and
    accumulates row k - 1 read backwards.  Row n is [0, E_{n,1}, ...,
    E_{n,n}] and its last entry is the zigzag number E_n."""
    row = [1]
    for _ in range(n + 1):
        yield row
        row = list(accumulate(reversed(row), initial=0))


def euler_numbers(upto: int) -> list[int]:
    """E_0..E_upto.

    >>> euler_numbers(8)
    [1, 1, 1, 2, 5, 16, 61, 272, 1385]
    """
    return [row[-1] for row in _zigzag_rows(upto)]


def entringer(n: int, k: int) -> int:
    """E_{n,k} for 1 <= k <= n (E_{n,0} = 0).

    >>> [entringer(4, k) for k in range(1, 5)]
    [2, 4, 5, 5]
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    *_, row = _zigzag_rows(n)
    return row[k]


# ---------------------------------------------------------------------------
# statistics of web permutations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def census(n: int) -> dict[int, int]:
    """The first-letter counts of Web_n, the empty word of n = 0 having no
    first letter, by one pass over the Andre-cycle construction, which
    certifies the set the transition matrix counts.  The pass takes
    0.06-0.08 s at n = 9 and 0.44-0.49 s at n = 10, in process (Python
    3.11.7, 2-vCPU KVM guest).

    Memoized, as :func:`web_count` and the Entringer refinement read it:
    n ints per n.

    >>> census(4)
    {1: 5, 2: 5, 3: 4, 4: 2}
    """
    firsts = Counter(s[0] for s in andre_cycle_permutations(n) if s)
    return dict(sorted(firsts.items()))


@lru_cache(maxsize=None)
def _staircase_words(n: int) -> tuple[tuple[int, ...], ...]:
    """The web permutations of [n] whose traced matching is the staircase,
    in lexicographic order, by a depth-first search over even Lehmer codes.

    M(sigma) is the staircase iff every Lehmer entry of sigma is even, so
    sigma(i) is the letter of rank 0, 2, 4, ... among the letters not yet
    placed, tried in increasing order.  Placing sigma(i) = v either joins
    the path of placed images that ends at i to the one that starts at v,
    or closes a cycle when that is one path; a closed cycle must be an
    Andre cycle (:func:`_andre_cycle`), or the branch is cut.  The search
    visits at most prod_{j<n} (floor(j/2) + 1) codes, 576 at n = 8 of the
    40,320 permutations, and shares nothing with the construction that
    :func:`census` streams.  It takes 7-9 ms at n = 9, 34-39 ms at n = 10,
    0.24 s at n = 11 and 1.5 s at n = 12, in process, where reading every
    word's M path in the stream took 0.17-0.27 s and 1.34-1.96 s at n = 9
    and 10 (Python 3.11.7, 2-vCPU KVM guest).

    Memoized, as f, f(n, k) and the witnesses read it: g_n words of n
    letters per n, 155 words and 18.6 KB at n = 9, by ``sys.getsizeof``
    of the tuple and each word.

    >>> _staircase_words(5)
    ((1, 2, 3, 4, 5), (1, 4, 5, 2, 3), (3, 4, 1, 2, 5))
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    sigma = [0] * (n + 1)
    # head[e] is the first letter of the path of placed images that ends at
    # e, read where e has no image yet, and tail[v] the last letter of the
    # path that starts at v, read where v is no image yet
    head, tail = list(range(n + 1)), list(range(n + 1))
    free = list(range(1, n + 1))
    words = []

    def place(i: int) -> None:
        if i > n:
            words.append(tuple(sigma[1:]))
            return
        for r in range(0, len(free), 2):
            v = free.pop(r)
            sigma[i] = v
            s, e = head[i], tail[v]
            if e != i:
                head[e], tail[s] = s, e
                place(i + 1)
                head[e], tail[s] = v, i
            elif _andre_cycle(sigma, v):
                place(i + 1)
            free.insert(r, v)

    place(1)
    return tuple(words)


def _andre_cycle(sigma: list[int], v: int) -> bool:
    """True iff the closed cycle of ``sigma`` (1-based, entry 0 unused)
    through ``v`` is an Andre cycle: the one-pass test on the word after
    its minimum.  :func:`webperm.andre.is_andre_cycle` would also check
    that the letters are distinct, which doubled the search's time at
    n = 9 and 10."""
    cycle = [v]
    x = sigma[v]
    while x != v:
        cycle.append(x)
        x = sigma[x]
    k = cycle.index(min(cycle))
    return _andre((*cycle[k + 1:], *cycle[:k]))


def web_count(n: int) -> int:
    return sum(census(n).values()) if n else 1


def f(n: int) -> int:
    """Web permutations of [n] whose traced matching is the staircase
    matching {{1,2}, ..., {2n-1,2n}}: the words of the search over even
    Lehmer codes, :func:`_staircase_words`."""
    return len(_staircase_words(n))


def f_nk(n: int, k: int) -> int:
    """As :func:`f`, restricted to permutations with first letter k."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got ({n}, {k})")
    return sum(1 for s in _staircase_words(n) if s[0] == k)


def f_witnesses(n: int) -> list[tuple[int, ...]]:
    """The permutations counted by f(n), sorted."""
    return list(_staircase_words(n))


def cc_distribution(n: int) -> dict[int, int]:
    """Distribution of the cycle count over the web permutations of [n].

    >>> cc_distribution(3)
    {1: 1, 2: 3, 3: 1}
    """
    counts = Counter(map(cycle_count, andre_cycle_permutations(n)))
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# the Seidel-triangle conjecture for f(n, k)
# ---------------------------------------------------------------------------

def verify_conjecture(max_n: int) -> list[dict]:
    """Compare f(n, 2k-1) against its conjectured Seidel-triangle entry for
    every n <= max_n and every odd first letter.

    Odd sizes n = 2m-1 are matched against row 2m-2 entry k; even sizes
    n = 2m against row 2m-1 entry m-k+1.  Returns one report per pair:
    {claim, n, k, lhs, rhs, pass}.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    # Row 0 is the seed row [1], the value that primes s[1][1].
    tri = [[1], *seidel_rows(max_n)]
    reports = []
    for n in range(1, max_n + 1):
        for k in range(1, n + 1, 2):
            lhs = f_nk(n, k)
            if n % 2 == 1:
                m = (n + 1) // 2
                i, j = 2 * m - 2, (k + 1) // 2
            else:
                m = n // 2
                i, j = 2 * m - 1, m - (k + 1) // 2 + 1
            rhs = tri[i][j - 1] if j <= len(tri[i]) else 0
            reports.append({
                "claim": f"f({n},{k}) = s[{i},{j}]",
                "n": n, "k": k, "lhs": lhs, "rhs": rhs,
                "pass": lhs == rhs,
            })
    return reports
