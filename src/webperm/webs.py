"""Web permutation sets and their associated paths and matchings.

Two constructions give the web permutations of [n]:

- the Andre-cycle construction, which closes the cycle of 1 with each
  Andre word on a subset of the other letters under every web
  permutation of the letters left over, and tests no word
  (:func:`webperm.andre.andre_cycle_permutations`),
- full crossing resolution of the identity grid configuration
  (:func:`webperm.grid.web_permutations`).

The construction is behind :func:`web_table`, which only the ``web``
listing reads; the transition matrix, the statistics of
:mod:`webperm.enumeration` and the ``bijections`` suite fold the
construction's stream themselves.  It keeps nothing once it is done; for
the 50,521 permutations of Web_9 it builds 1,744 Andre words and the
1,743 web permutations of [r], r <= 7, where S_9 has 362,880
permutations.  Resolution is the cross-check: ``webperm web --source
resolve|both`` and the test suite run it, and nothing else does.  In a
fresh interpreter (Python 3.11.7 on a 2-vCPU KVM guest), median of
three, peak RSS of the whole process; the table's time is mostly the
pass over each sigma that reads the path of M(sigma)
(:func:`webperm.combinat.lehmer_path`), and each distinct path is one
string (:func:`web_records`):

    n    construction      resolution        web_table
    8    0.01 s, 15 MiB    0.02 s, 17 MiB    0.07 s, 17 MiB
    9    0.07 s, 16 MiB    0.17 s, 26 MiB    0.44 s, 28 MiB
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from .andre import andre_cycle_permutations
from .combinat import Permutation, dyck_of_permutation, lehmer_path


class WebRecord(NamedTuple):
    """One web permutation with the Dyck paths of D(sigma) and of its
    traced matching M(sigma); its fields are in the order of
    :func:`web_table`."""

    dyck: str
    sigma: Permutation
    path: str


def web_table(n: int) -> tuple[WebRecord, ...]:
    """All web records for [n], sorted by (Dyck path, word), built afresh
    on every call.

    Built by the Andre-cycle construction; resolution, run only by
    ``webperm web --source resolve|both`` and the tests, is its
    cross-check.

    Two Dyck orders are in use, both pinned by output bytes.  This one
    compares paths as strings, E < N, so the staircase comes first; the
    ``web`` listings print the table in it.  Matrix rows and columns use
    table order, N < E (:func:`webperm.combinat.dyck_sort_key`), which
    puts the maximum path first.
    """
    return web_records(andre_cycle_permutations(n))


def web_records(perms: Iterable[Permutation]) -> tuple[WebRecord, ...]:
    """The records of the given web permutations, in the order of
    :func:`web_table`.

    Each sigma is validated, and each distinct D(sigma) and M(sigma) is
    one string that the records share.  D is built once per key, its
    column heights, the prefix maxima of sigma, h_i = max(h_{i-1},
    sigma(i), i) as i distinct positive letters reach i; M is read off
    sigma by :func:`~webperm.combinat.lehmer_path` and replaced by the
    first equal string.  At n = 9 each memo holds 4,862 = Catalan(9)
    keys, 0.66 MiB for D and 0.41 MiB for M by ``sys.getsizeof`` of each
    dict and its keys.
    """
    dycks: dict[tuple[int, ...], str] = {}
    paths: dict[str, str] = {}
    # the sorted word of a permutation of [n], one per length
    identities: dict[int, list[int]] = {}
    records = []
    for s in perms:
        n = len(s)
        if n not in identities:
            identities[n] = list(range(1, n + 1))
        if sorted(s) != identities[n]:
            raise ValueError(f"not a permutation: {s}")
        heights = tuple(accumulate(s, max))
        d = dycks.get(heights)
        if d is None:
            d = dycks[heights] = dyck_of_permutation(s)
        p = lehmer_path(s)
        records.append(WebRecord(d, s, paths.setdefault(p, p)))
    records.sort()
    return tuple(records)


def cycle_notation(sigma: Permutation) -> str:
    """The cycles of :func:`webperm.andre.cycles`, each in parentheses
    with its entries joined by commas, written in one pass over sigma:
    each cycle opens at the smallest letter not yet written, its minimum,
    and the string of every letter is made once per length
    (:func:`_tokens`).

    >>> cycle_notation((5, 6, 8, 4, 7, 9, 3, 1, 2))
    '(1,5,7,3,8)(2,6,9)(4)'
    """
    opens, commas = _tokens(len(sigma))
    seen = [False] * (len(sigma) + 1)
    out = []
    for start, x in enumerate(sigma, 1):
        if seen[start]:
            continue
        out.append(opens[start])
        while x != start:
            seen[x] = True
            out.append(commas[x])
            x = sigma[x - 1]
        out.append(")")
    return "".join(out)


@lru_cache(maxsize=None)
def _tokens(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The strings "(x" and ",x" of the letters x = 0..n."""
    return (tuple(f"({x}" for x in range(n + 1)),
            tuple(f",{x}" for x in range(n + 1)))
