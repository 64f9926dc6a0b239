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
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

Arc = tuple[int, int]
Matching = tuple[Arc, ...]
Permutation = tuple[int, ...]
Cell = tuple[int, int]

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


def lehmer_path(sigma: Permutation) -> str:
    """The Dyck path of M(sigma), the matching traced from the fully
    smoothed grid of sigma, with N for an opener, read off one
    right-to-left pass over sigma.

    Peel column 1 off that grid.  Its marking (1, j), j = sigma(1), pairs
    label j with j + 1: its leftward leg leaves at j, and its upward leg
    turns left at the elbow (1, j + 1), or leaves the top at label n + 1
    when j = n.  Columns 2..n with row j deleted are the grid of sigma',
    sigma(2..n) standardized, since row j holds no crossing there.  A
    strand of sigma' that leaves the left side at label y' reaches
    column 1 on row y' if y' < j, and passes straight to label y', or on
    row y' + 1 if y' >= j, where it turns up at the elbow (1, y' + 1)
    and left at (1, y' + 2) to leave at label y' + 2, which is the top
    label n + 1 when y' + 1 = n; a top label n - 1 + x' of sigma' is
    n + 1 + x' here.  So M(sigma) is M(sigma') with every
    label >= j raised by 2, plus the arc (j, j + 1): its Dyck path is
    that of M(sigma') with "NE" inserted at index j - 1.  Applied to the
    suffixes sigma(i..n) for i = n down to 1, "NE" goes in at index r_i,
    the Lehmer code entry #{k > i : sigma(k) < sigma(i)}, which is one
    ``bisect_left`` on the sorted letters already seen.

    ``sigma`` must be a permutation; the callers check it.

    >>> lehmer_path((2, 4, 1, 3))
    'NNEENENE'
    """
    seen: list[int] = []
    word = bytearray()
    for v in reversed(sigma):
        r = bisect_left(seen, v)
        seen.insert(r, v)
        word[r:r] = b"NE"
    return word.decode()


def perm_to_str(sigma: Permutation) -> str:
    """One-line notation; digits are concatenated while unambiguous.

    >>> perm_to_str((3, 1, 2))
    '312'
    """
    sep = "" if len(sigma) < 10 else ","
    try:
        word = bytes(sigma)
    except ValueError:      # a letter outside 0..255
        return sep.join(map(str, sigma))
    return _join_decimal(word, sep)


# a byte's hundreds, tens and units digit in ASCII, NUL for a leading zero
_HUNDREDS = bytes(48 + v // 100 if v >= 100 else 0 for v in range(256))
_TENS = bytes(48 + v // 10 % 10 if v >= 10 else 0 for v in range(256))
_UNITS = bytes(48 + v % 10 for v in range(256))


def _join_decimal(values: bytes, sep: str) -> str:
    """``sep.join(map(str, values))``, with no Python step per value.

    ``bytes.translate`` turns the values into digits, which are assigned
    with a stride into a buffer that already holds the separators: one
    digit a value when every value is below 10, else three, with a NUL
    for each leading zero, and one more translate deletes the NULs.
    ``sep`` must hold no NUL.  4,862 values take 10-25 us when they are
    all below 10 and 50-100 us otherwise, against 0.75-0.85 ms for the
    join (Python 3.11.7, 2-vCPU KVM guest).

    >>> _join_decimal(bytes([0, 7, 10, 255]), ", ")
    '0, 7, 10, 255'
    """
    units = values.translate(_UNITS)
    tens = values.translate(_TENS)
    width = 1 if tens.count(0) == len(tens) else 3
    if width == 1 and not sep:
        return units.decode()
    gap = sep.encode()
    step = width + len(gap)
    text = bytearray((bytes(width) + gap) * len(values))
    del text[len(text) - len(gap):]
    text[width - 1::step] = units
    if width == 1:
        return text.decode()
    text[::step] = values.translate(_HUNDREDS)
    text[1::step] = tens
    return text.translate(None, b"\0").decode()


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


def enumerate_matchings(n: int, klass: str) -> list[Matching]:
    """The Catalan(n) matchings on [2n] of class ``klass``, "NC"
    (noncrossing) or "NN" (nonnesting), read off the Dyck paths in table
    order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    # matching_from_dyck rejects an unknown class
    return [matching_from_dyck(p, klass) for p in dyck_paths(n)]


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
    path = ["E"] * (2 * len(m))
    for a, _ in m:
        path[a - 1] = "N"
    return "".join(path)


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
    # both are canonical for a Dyck path: the k-th opener precedes the k-th
    # closer, and noncrossing_arcs sorts its arcs
    if klass == "NN":
        openers = [i for i, s in enumerate(path, start=1) if s == "N"]
        closers = [i for i, s in enumerate(path, start=1) if s == "E"]
        return tuple(zip(openers, closers))
    if klass == "NC":
        return noncrossing_arcs(path)
    raise ValueError(f"unknown matching class {klass!r}")


def noncrossing_arcs(path: str) -> Matching:
    """The noncrossing matching of a Dyck path in canonical form, each
    closer paired with the nearest unmatched opener, with no validation:
    ``path`` must be a Dyck path.

    >>> noncrossing_arcs("NNEENE")
    ((1, 4), (2, 3), (5, 6))
    """
    stack: list[int] = []
    arcs = []
    for i, s in enumerate(path, start=1):
        if s == "N":
            stack.append(i)
        else:
            arcs.append((stack.pop(), i))
    arcs.sort()
    return tuple(arcs)


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


def dyck_keys(perms: Iterable[Permutation]
              ) -> Iterator[tuple[Permutation, str, str]]:
    """``(sigma, dyck_of_permutation(sigma), lehmer_path(sigma))`` for each
    permutation of ``perms``, in its order, with one string per distinct
    path: equal paths are the same object.

    Each sigma of length n is split at h = n // 2, and each half is
    memoized for that n; nothing is kept once the pass ends.

    - The prefix sigma[:h] fixes the Lehmer entries r_i, i <= h, as
      r_i = sigma(i) - 1 - #{k < i : sigma(k) < sigma(i)}, and the first
      h steps of D(sigma), the prefix maxima of sigma.
    - The suffix sigma[h:] fixes ``lehmer_path(sigma[h:])`` and the
      remaining steps of D, which start at the largest letter of the
      prefix, the largest of [n] missing from the suffix.
    - M's path is the suffix's with "NE" inserted at r_h, ..., r_1, each
      insertion one read of a row ``path -> [path with "NE" at r]``.
    - D is the prefix's part joined to the suffix's.

    Over Web_n, at n = 8 and at n = 9, the memos hold 880 and 1,661
    prefixes, at most n!/(n - h)!; 880 and 5,825 suffixes, at most n!/h!;
    617 and 2,033 insertion rows, at most one per Dyck path of length
    2(n - h) to 2n - 2, a bound both reach; the Catalan(n) D paths; and
    2,075 and 6,985 strings, the Dyck paths of length 2(n - h) to 2n and
    the suffixes' parts of D: 0.64 MiB and 2.48 MiB in all, by
    ``tracemalloc``.
    Every sigma must be a permutation; the callers check it.

    >>> [keys[1:] for keys in dyck_keys([(2, 4, 1, 3), (2, 1)])]
    [('NNENNEEE', 'NNEENENE'), ('NNEE', 'NNEE')]
    """
    strings: dict[str, str] = {}
    intern = strings.setdefault
    inserts: dict[str, list[str]] = {}
    halves: dict[int, tuple[dict, dict]] = {}
    n = h = -1
    for s in perms:
        if len(s) != n:
            n = len(s)
            h = n // 2
            prefixes, suffixes = halves.setdefault(n, ({}, {}))
        head, tail = s[:h], s[h:]
        prefix = prefixes.get(head)
        if prefix is None:
            prefix = prefixes[head] = (_ranks(head), _dyck_steps(head, 0))
        ranks, start = prefix
        suffix = suffixes.get(tail)
        if suffix is None:
            path, end = lehmer_path(tail), _dyck_steps(tail, _top(tail, n))
            suffix = suffixes[tail] = (intern(path, path), intern(end, end))
        path, end = suffix
        for r in ranks:
            row = inserts.get(path)
            if row is None:
                row = inserts[path] = [
                    intern(p, p) for p in (path[:k] + "NE" + path[k:]
                                           for k in range(len(path) // 2 + 1))]
            path = row[r]
        dyck = start + end
        yield s, intern(dyck, dyck), path


def _ranks(head: Permutation) -> tuple[int, ...]:
    """The Lehmer entries r_h, ..., r_1 of a prefix of a permutation, in
    the order :func:`dyck_keys` inserts them."""
    return tuple(v - 1 - sum(u < v for u in head[:i])
                 for i, v in reversed(list(enumerate(head))))


def _top(tail: Permutation, n: int) -> int:
    """The largest letter of [n] missing from ``tail``, or 0."""
    letters = set(tail)
    while n in letters:
        n -= 1
    return n


def _dyck_steps(letters: Permutation, height: int) -> str:
    """The steps of D over ``letters`` from ``height``: N up to each new
    maximum, then one E per letter."""
    steps = []
    for v in letters:
        if v > height:
            steps.append("N" * (v - height))
            height = v
        steps.append("E")
    return "".join(steps)


def dyck_leq(p: str, q: str) -> bool:
    """Inclusion order: True iff the region below p is contained in the
    region below q (pointwise column-height comparison)."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    return all(a <= b for a, b in zip(dyck_heights(p), dyck_heights(q)))


def ballot_count(heights: Sequence[int]) -> int:
    """The number of Dyck paths whose column heights lie pointwise under
    ``heights``: the size of the down-set of a path in :func:`dyck_leq`.

    It counts the nondecreasing sequences p with i <= p_i <= heights[i-1],
    one column at a time, in O(n^2).

    >>> ballot_count(dyck_heights("NNNEEE")), ballot_count((1, 3, 3))
    (5, 2)
    """
    # ways[v]: the prefixes through the current column that end at height v
    ways = [1] + [0] * len(heights)
    for i, top in enumerate(heights, start=1):
        below = 0
        for v, count in enumerate(ways):
            below += count
            ways[v] = below if i <= v <= top else 0
    return sum(ways)


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
