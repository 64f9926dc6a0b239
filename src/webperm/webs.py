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
one pass over each sigma that keys its path and matching
(:func:`webperm.combinat.lehmer_keys`), and each distinct path and
matching is built once (:func:`web_records`):

    n    construction      resolution        web_table
    8    0.03 s, 15 MiB    0.05 s, 16 MiB    0.12 s, 18 MiB
    9    0.12 s, 15 MiB    0.27 s, 25 MiB    0.73 s, 30 MiB
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

from .andre import andre_cycle_permutations
from .combinat import (
    Matching,
    Permutation,
    dyck_of_permutation,
    lehmer_keys,
    noncrossing_arcs,
)


@dataclass(frozen=True, slots=True)
class WebRecord:
    """One web permutation with its Dyck path and traced matching."""

    sigma: Permutation
    dyck: str
    matched: Matching


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
    built once and shared, keyed by the two keys of
    :func:`~webperm.combinat.lehmer_keys`, which one pass over sigma reads
    off its Lehmer code: D by its left-to-right maxima, which fix its
    column heights h_i = max(h_{i-1}, sigma(i), i) as i distinct positive
    letters reach i, and M by its Dyck path.  At n = 9 each memo holds
    4,862 = Catalan(9) keys, 0.66 MiB for D and 0.41 MiB for M.
    """
    dycks: dict[tuple[int, ...], str] = {}
    matchings: dict[str, Matching] = {}
    # the sorted word of a permutation of [n], one per length
    identities: dict[int, list[int]] = {}
    records = []
    for s in perms:
        n = len(s)
        if n not in identities:
            identities[n] = list(range(1, n + 1))
        if sorted(s) != identities[n]:
            raise ValueError(f"not a permutation: {s}")
        maxima, word = lehmer_keys(s)
        d = dycks.get(maxima)
        if d is None:
            d = dycks[maxima] = dyck_of_permutation(s)
        m = matchings.get(word)
        if m is None:
            m = matchings[word] = noncrossing_arcs(word)
        records.append(WebRecord(s, d, m))
    # two stable sorts: by (dyck, sigma) without a key tuple per record
    records.sort(key=attrgetter("sigma"))
    records.sort(key=attrgetter("dyck"))
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
