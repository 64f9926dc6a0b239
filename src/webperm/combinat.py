"""Perfect matchings, Dyck paths and permutations, with the bijections
connecting them.

Conventions used throughout the package:

- Everything is 1-based.  Vertices of a matching are 1..2n, a permutation
  of [n] is the tuple ``(sigma(1), ..., sigma(n))``, and grid cells are
  (column, row) pairs in [1, n] x [1, n].
- A matching is stored canonically as a tuple of ``(opener, closer)`` arcs
  with ``opener < closer``, sorted by opener.  Canonical tuples are
  hashable and compare by value, so they can live in sets and dict keys.
- A Dyck path is a string over "N" (north) and "E" (east) with n of each
  letter and every prefix containing at least as many N's as E's.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

Arc = tuple[int, int]
Matching = tuple[Arc, ...]
Permutation = tuple[int, ...]
Cell = tuple[int, int]

# Enumerating every matching on [2n] grows as (2n-1)!!; the default cap
# keeps accidental `enumerate_matchings(12)` from eating the machine.
DEFAULT_ENUMERATION_CAP = 8


class CapExceeded(RuntimeError):
    """An enumeration or resolution exceeded its configured resource cap."""


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def is_permutation(word: Sequence[int]) -> bool:
    """True iff ``word`` is a bijection word on [n], n = len(word).

    >>> is_permutation((2, 1, 3)), is_permutation((1, 1, 2)), is_permutation(())
    (True, False, True)
    """
    return sorted(word) == list(range(1, len(word) + 1))


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def inverse(sigma: Permutation) -> Permutation:
    """Inverse permutation: inverse(sigma)[j-1] = i iff sigma(i) = j."""
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma, start=1):
        inv[v - 1] = i
    return tuple(inv)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All permutations of [n] in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def perm_to_str(sigma: Permutation) -> str:
    """One-line notation; digits are concatenated while unambiguous.

    >>> perm_to_str((3, 1, 2))
    '312'
    """
    if len(sigma) < 10:
        return "".join(str(v) for v in sigma)
    return ",".join(str(v) for v in sigma)


def perm_from_str(text: str) -> Permutation:
    parts = text.split(",") if "," in text else list(text)
    try:
        sigma = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"not a permutation word: {text!r}") from None
    if not is_permutation(sigma):
        raise ValueError(f"not a permutation word: {text!r}")
    return sigma


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------

def matching(pairs: Iterable[Sequence[int]]) -> Matching:
    """Canonicalize and validate a matching given as any iterable of pairs.

    Arcs are normalized to (opener, closer) and sorted by opener; the
    endpoints must partition 1..2n.

    >>> matching([(5, 3), (1, 2), (4, 6)])
    ((1, 2), (3, 5), (4, 6))
    """
    arcs = tuple(sorted((min(p), max(p)) for p in pairs))
    seen: list[int] = []
    for a, b in arcs:
        if a == b:
            raise ValueError(f"degenerate arc ({a}, {b})")
        seen += [a, b]
    if sorted(seen) != list(range(1, 2 * len(arcs) + 1)):
        raise ValueError(f"endpoints do not partition [2n]: {sorted(seen)}")
    return arcs


def matching_size(m: Matching) -> int:
    """Half-size n (the number of arcs)."""
    return len(m)


def m0(n: int) -> Matching:
    """The unique matching that is both noncrossing and nonnesting."""
    return tuple((2 * k - 1, 2 * k) for k in range(1, n + 1))


def crossing_arc_pairs(m: Matching) -> list[tuple[Arc, Arc]]:
    """All pairs of arcs {a,c}, {b,d} with a < b < c < d."""
    out = []
    for x, y in itertools.combinations(m, 2):
        a, c = x
        b, d = y
        if a < b < c < d:
            out.append((x, y))
    return out


def nesting_arc_pairs(m: Matching) -> list[tuple[Arc, Arc]]:
    """All pairs of arcs {a,d}, {b,c} with a < b < c < d."""
    out = []
    for x, y in itertools.combinations(m, 2):
        a, d = x
        b, c = y
        if a < b and c < d:
            out.append((x, y))
    return out


def is_noncrossing(m: Matching) -> bool:
    return not crossing_arc_pairs(m)


def is_nonnesting(m: Matching) -> bool:
    return not nesting_arc_pairs(m)


def matchings(n: int) -> Iterator[Matching]:
    """Generate every matching on [2n], in canonical arc order."""

    def rec(free: tuple[int, ...]) -> Iterator[Matching]:
        if not free:
            yield ()
            return
        a = free[0]
        for k in range(1, len(free)):
            b = free[k]
            rest = free[1:k] + free[k + 1:]
            for tail in rec(rest):
                yield ((a, b),) + tail

    return rec(tuple(range(1, 2 * n + 1)))


def noncrossing_matchings(n: int) -> list[Matching]:
    """All noncrossing matchings, built by the inside/outside split at the
    arc of the smallest open vertex (no Dyck-path detour)."""

    @lru_cache(maxsize=None)
    def rec(lo: int, hi: int) -> tuple[Matching, ...]:
        if lo > hi:
            return ((),)
        out = []
        for b in range(lo + 1, hi + 1, 2):
            for inside in rec(lo + 1, b - 1):
                for outside in rec(b + 1, hi):
                    out.append(((lo, b),) + inside + outside)
        return tuple(out)

    return list(rec(1, 2 * n))


def nonnesting_matchings(n: int) -> list[Matching]:
    """All nonnesting matchings, in table order of their Dyck paths."""
    return [matching_from_dyck(p, "NN") for p in dyck_paths(n)]


def enumerate_matchings(n: int, klass: str = "all",
                        cap: int = DEFAULT_ENUMERATION_CAP) -> list[Matching]:
    """Complete duplicate-free list of matchings on [2n] in the given class.

    ``klass`` is "all", "NC" or "NN"; sizes are (2n-1)!!, Catalan(n) and
    Catalan(n).  Raises :class:`CapExceeded` for n above ``cap``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise CapExceeded(f"matching enumeration capped at n = {cap}, got {n}")
    if klass == "all":
        return list(matchings(n))
    if klass == "NC":
        return noncrossing_matchings(n)
    if klass == "NN":
        return nonnesting_matchings(n)
    raise ValueError(f"unknown matching class {klass!r}")


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def matching_to_json(m: Matching) -> list[list[int]]:
    return [list(arc) for arc in m]


# ---------------------------------------------------------------------------
# Dyck paths
# ---------------------------------------------------------------------------

def validate_dyck(path: str) -> None:
    height = 0
    for step in path:
        if step == "N":
            height += 1
        elif step == "E":
            height -= 1
        else:
            raise ValueError(f"invalid step {step!r} in Dyck path {path!r}")
        if height < 0:
            raise ValueError(f"path {path!r} dips below the diagonal")
    if height != 0:
        raise ValueError(f"path {path!r} has unbalanced steps")


def dyck_paths(n: int) -> list[str]:
    """All Dyck paths of length 2n, generated in table order (see
    :func:`dyck_sort_key`)."""
    out: list[str] = []

    def rec(prefix: list[str], norths: int, easts: int) -> None:
        if norths == n and easts == n:
            out.append("".join(prefix))
            return
        if norths < n:
            prefix.append("N")
            rec(prefix, norths + 1, easts)
            prefix.pop()
        if easts < norths:
            prefix.append("E")
            rec(prefix, norths, easts + 1)
            prefix.pop()

    rec([], 0, 0)
    return out


@lru_cache(maxsize=None)
def dyck_heights(path: str) -> tuple[int, ...]:
    """Column heights: entry i-1 is the number of N steps before the i-th E.

    The region below the path is exactly {(i, j) : j <= heights[i-1]}.

    >>> dyck_heights("NENNENEE")
    (1, 3, 4, 4)
    """
    validate_dyck(path)
    heights = []
    norths = 0
    for step in path:
        if step == "N":
            norths += 1
        else:
            heights.append(norths)
    return tuple(heights)


def dyck_of_matching(m: Matching) -> str:
    """Record N for openers and E for closers, reading 1..2n.

    >>> dyck_of_matching(matching([(1, 2), (3, 5), (4, 7), (6, 8)]))
    'NENNENEE'
    """
    openers = {a for a, _ in m}
    return "".join("N" if v in openers else "E" for v in range(1, 2 * len(m) + 1))


def matching_from_dyck(path: str, klass: str) -> Matching:
    """Inverse of :func:`dyck_of_matching` on the chosen class.

    "NN" pairs the k-th opener with the k-th closer; "NC" pairs each closer
    with the nearest unmatched opener (stack discipline).

    >>> matching_from_dyck("NENNENEE", "NN")
    ((1, 2), (3, 5), (4, 7), (6, 8))
    >>> matching_from_dyck("NNNEEE", "NC")
    ((1, 6), (2, 5), (3, 4))
    """
    validate_dyck(path)
    openers = [i for i, s in enumerate(path, start=1) if s == "N"]
    closers = [i for i, s in enumerate(path, start=1) if s == "E"]
    if klass == "NN":
        return matching(zip(openers, closers))
    if klass == "NC":
        stack: list[int] = []
        arcs = []
        for i, s in enumerate(path, start=1):
            if s == "N":
                stack.append(i)
            else:
                arcs.append((stack.pop(), i))
        return matching(arcs)
    raise ValueError(f"unknown matching class {klass!r}")


def dyck_of_permutation(sigma: Permutation) -> str:
    """The minimum Dyck path with every cell (i, sigma(i)) weakly below it.

    Built from running column heights h_i = max(h_{i-1}, sigma(i), i),
    emitting h_i - h_{i-1} N steps and one E step per column.

    >>> dyck_of_permutation((2, 1, 3, 5, 4))
    'NNEENENNEE'
    """
    if not is_permutation(sigma):
        raise ValueError(f"not a permutation: {sigma}")
    steps = []
    height = 0
    for i, v in enumerate(sigma, start=1):
        target = max(height, v, i)
        steps.append("N" * (target - height) + "E")
        height = target
    return "".join(steps)


def dyck_leq(p: str, q: str) -> bool:
    """Inclusion order: True iff the region below p is contained in the
    region below q (pointwise column-height comparison)."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return all(a <= b for a, b in zip(dyck_heights(p), dyck_heights(q)))


def dyck_sort_key(path: str) -> str:
    """Table-order sort key: lexicographic with N < E.

    This is a linear extension of the *reverse* of :func:`dyck_leq`; the
    maximum path N..NE..E sorts first and the staircase NENE..NE last.
    Matrix rows/columns and listing output use this order.
    """
    return path.translate(_KEY_TABLE)


_KEY_TABLE = str.maketrans("NE", "01")


def cells_above(path: str) -> frozenset[Cell]:
    """Cells of the n x n grid strictly above the path.

    >>> sorted(cells_above("NENNENEE"))
    [(1, 2), (1, 3), (1, 4), (2, 4)]
    """
    heights = dyck_heights(path)
    n = len(heights)
    return frozenset((i, j) for i in range(1, n + 1)
                     for j in range(heights[i - 1] + 1, n + 1))


# ---------------------------------------------------------------------------
# standard Young tableaux of shape (n, n)
# ---------------------------------------------------------------------------

def syt_to_matching(rows: Sequence[Sequence[int]]) -> Matching:
    """Arc up the two entries of each column of a 2 x n standard tableau.

    This certifies that the rows of the transition matrix are the Specht
    basis: standard tableaux of shape (n, n) correspond one to one to the
    nonnesting matchings on [2n].

    >>> syt_to_matching([[1, 3, 4, 6], [2, 5, 7, 8]])
    ((1, 2), (3, 5), (4, 7), (6, 8))
    """
    if len(rows) != 2 or len(rows[0]) != len(rows[1]) or not rows[0]:
        raise ValueError("expected a 2 x n array with n >= 1")
    top, bottom = rows
    n = len(top)
    if sorted(list(top) + list(bottom)) != list(range(1, 2 * n + 1)):
        raise ValueError("entries must be exactly 1..2n")
    for row in rows:
        if any(row[k] >= row[k + 1] for k in range(n - 1)):
            raise ValueError("rows must strictly increase")
    if any(top[k] >= bottom[k] for k in range(n)):
        raise ValueError("columns must strictly increase")
    return matching(zip(top, bottom))
