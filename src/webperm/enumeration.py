"""Counting web permutations: zigzag numbers, their first-letter refinement,
the Seidel triangle, and the staircase-matching statistics f(n) and f(n, k).

All integers are exact (Python ints).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .combinat import m0
from .webs import web_table


# ---------------------------------------------------------------------------
# Seidel triangle and Genocchi numbers
# ---------------------------------------------------------------------------

def seidel_rows(rows: int) -> list[list[int]]:
    """The first ``rows`` rows of the boustrophedon triangle s[i][j].

    Row i holds ceil(i/2) entries.  Odd rows accumulate left to right on
    top of the previous row, even rows right to left; out-of-range
    neighbours count as zero.

    >>> seidel_rows(7)[6]
    [8, 14, 17, 17]
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    tri: list[list[int]] = [[1]]
    for i in range(2, rows + 1):
        width = (i + 1) // 2
        prev = tri[-1]

        def above(j: int) -> int:
            return prev[j - 1] if 1 <= j <= len(prev) else 0

        row = [0] * width
        if i % 2 == 1:                       # left to right
            running = 0
            for j in range(1, width + 1):
                running += above(j)
                row[j - 1] = running
        else:                                # right to left
            running = 0
            for j in range(width, 0, -1):
                running += above(j)
                row[j - 1] = running
        tri.append(row)
    return tri


def genocchi(upto: int) -> list[int]:
    """g_1..g_upto: the odd rows contribute their last entry, the even rows
    their first.

    >>> genocchi(9)
    [1, 1, 1, 2, 3, 8, 17, 56, 155]
    """
    tri = seidel_rows(upto)
    return [tri[k - 1][-1] if k % 2 == 1 else tri[k - 1][0]
            for k in range(1, upto + 1)]


def _seidel_entry(tri: list[list[int]], i: int, j: int) -> int:
    # Row 0 acts as the seed row [1]: the value that primes s[1][1].
    if i == 0:
        return 1 if j == 1 else 0
    if 1 <= i <= len(tri) and 1 <= j <= len(tri[i - 1]):
        return tri[i - 1][j - 1]
    return 0


# ---------------------------------------------------------------------------
# zigzag (secant-tangent) numbers and their refinement
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _zigzag_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Boustrophedon rows: row[0] = (1,); row k starts at 0 and accumulates
    the previous row read backwards.  Row n is (0, E_{n,1}, ..., E_{n,n})
    and its last entry is the zigzag number E_n."""
    rows: list[tuple[int, ...]] = [(1,)]
    for k in range(1, n + 1):
        prev = rows[-1]
        row = [0]
        for j in range(1, k + 1):
            row.append(row[-1] + prev[k - j])
        rows.append(tuple(row))
    return tuple(rows)


def euler_numbers(upto: int) -> list[int]:
    """E_0..E_upto.

    >>> euler_numbers(8)
    [1, 1, 1, 2, 5, 16, 61, 272, 1385]
    """
    rows = _zigzag_rows(upto)
    return [rows[k][-1] for k in range(upto + 1)]


def entringer(n: int, k: int) -> int:
    """E_{n,k} for 1 <= k <= n (E_{n,0} = 0).

    >>> [entringer(4, k) for k in range(1, 5)]
    [2, 4, 5, 5]
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got ({n}, {k})")
    return _zigzag_rows(n)[n][k]


# ---------------------------------------------------------------------------
# statistics of web permutations
# ---------------------------------------------------------------------------

def web_count(n: int) -> int:
    return len(web_table(n)) if n >= 1 else 1


def first_letter_counts(n: int) -> Counter[int]:
    """How many web permutations of [n] start with each letter."""
    return Counter(rec.sigma[0] for rec in web_table(n))


def f(n: int) -> int:
    """Web permutations of [n] whose traced matching is the staircase
    matching {{1,2}, ..., {2n-1,2n}}."""
    return sum(f_row(n).values())


def f_nk(n: int, k: int) -> int:
    """As :func:`f`, restricted to permutations with first letter k."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got ({n}, {k})")
    return f_row(n).get(k, 0)


@lru_cache(maxsize=None)
def f_row(n: int) -> dict[int, int]:
    """First-letter distribution of the permutations counted by f(n)."""
    staircase = m0(n)
    return dict(Counter(rec.sigma[0] for rec in web_table(n)
                        if rec.matched == staircase))


def f_witnesses(n: int) -> list[tuple[int, ...]]:
    """The permutations counted by f(n), sorted."""
    staircase = m0(n)
    return sorted(rec.sigma for rec in web_table(n) if rec.matched == staircase)


def cc_distribution(n: int) -> dict[int, int]:
    """Distribution of the cycle count over the web permutations of [n].

    >>> cc_distribution(3)
    {1: 1, 2: 3, 3: 1}
    """
    from .andre import cycle_count
    if n == 0:
        return {0: 1}
    counts = Counter(cycle_count(rec.sigma) for rec in web_table(n))
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
    tri = seidel_rows(max(max_n, 1))
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
            rhs = _seidel_entry(tri, i, j)
            reports.append({
                "claim": f"f({n},{k}) = s[{i},{j}]",
                "n": n, "k": k, "lhs": lhs, "rhs": rhs,
                "pass": lhs == rhs,
            })
    return reports
