"""Counting web permutations: zigzag numbers, their first-letter refinement,
the Seidel triangle, and the staircase-matching statistics f(n) and f(n, k).

Both triangles are built by one step of the boustrophedon transform: each
row accumulates the previous one, read in alternating direction (Seidel
1877; Millar, Sloane and Young, JCTA 76, 1996).  The rows come one at a
time, so a caller holds only the rows it keeps.  All integers are exact
(Python ints).

The counts of Web_n read one memoized pass over the Andre-cycle
construction (:func:`webperm.andre.andre_cycle_permutations`) per n, and
keep no table: M(sigma) is the staircase iff the Dyck path that
:func:`webperm.combinat.lehmer_path` reads off sigma is NENE..NE.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate
from typing import Iterator

from .andre import andre_cycle_permutations, cycle_count
from .combinat import lehmer_path


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
def census(n: int) -> tuple[dict[int, int], dict[int, int]]:
    """First-letter counts from one pass over Web_n: of all its words, and
    of those whose traced matching is the staircase; the empty word of
    n = 0 has no first letter.

    Memoized, as every count of Web_n reads it: at most n + ceil(n/2) ints
    per n; after ``verify --suite all --max-n 8``, 53 entries for n = 1..8,
    7.2 KiB by ``sys.getsizeof``.

    >>> census(4)
    ({1: 5, 2: 5, 3: 4, 4: 2}, {1: 1, 3: 1})
    """
    staircase, firsts, stairs = "NE" * n, Counter(), Counter()
    for s in andre_cycle_permutations(n):
        if s:
            firsts[s[0]] += 1
            if lehmer_path(s) == staircase:
                stairs[s[0]] += 1
    return dict(sorted(firsts.items())), dict(sorted(stairs.items()))


def web_count(n: int) -> int:
    return sum(census(n)[0].values()) if n else 1


def f(n: int) -> int:
    """Web permutations of [n] whose traced matching is the staircase
    matching {{1,2}, ..., {2n-1,2n}}: the words :func:`census` counts, and
    at n = 0 the empty word, which it leaves out."""
    return sum(census(n)[1].values()) if n else 1


def f_nk(n: int, k: int) -> int:
    """As :func:`f`, restricted to permutations with first letter k."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got ({n}, {k})")
    return census(n)[1].get(k, 0)


def f_witnesses(n: int) -> list[tuple[int, ...]]:
    """The permutations counted by f(n), sorted."""
    staircase = "NE" * n
    return sorted(s for s in andre_cycle_permutations(n)
                  if lehmer_path(s) == staircase)


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
