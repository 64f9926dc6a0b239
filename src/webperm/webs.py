"""Web permutation sets and their associated paths and matchings.

Two constructions give the web permutations of [n]:

- the Andre-cycle filter of the symmetric group, which builds sigma one
  cycle at a time and drops every completion of a cycle that is not
  Andre (:func:`webperm.andre.andre_cycle_permutations`),
- full crossing resolution of the identity grid configuration
  (:func:`webperm.grid.web_permutations`).

The filter is behind :func:`web_table` and keeps nothing but what it
yields; it tests 34,316 cycle words at n = 8 and 257,821 at n = 9, where
S_n has 40,320 and 362,880 permutations.  Resolution is the cross-check:
``webperm web --source resolve|both`` and the test suite run it, and
nothing else does.  In a fresh interpreter (Python 3.11.7 on a 2-vCPU
KVM guest), median of three, peak RSS of the whole process; the table's
time is mostly the filter and the strand walk of each sigma, and each
distinct path and matching is built once (:func:`web_records`):

    n    filter            resolution        web_table
    8    0.04 s, 16 MiB    0.03 s, 16 MiB    0.14 s, 18 MiB
    9    0.28 s, 21 MiB    0.25 s, 25 MiB    0.93 s, 30 MiB
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import attrgetter

from .andre import andre_cycle_permutations, cycles, cycles_to_str
from .combinat import (Matching, Permutation, dyck_of_permutation,
                       is_permutation)
from .grid import _arcs, _walk


@dataclass(frozen=True, slots=True)
class WebRecord:
    """One web permutation with its Dyck path and traced matching."""

    sigma: Permutation
    dyck: str
    matched: Matching


@lru_cache(maxsize=None)
def web_table(n: int) -> tuple[WebRecord, ...]:
    """All web records for [n], sorted by (Dyck path, word).

    Built from the Andre-cycle filter; resolution, run only by ``webperm
    web --source resolve|both`` and the tests, is its cross-check.

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
    built once and shared: D is keyed by the prefix maxima of sigma, its
    column heights h_i = max(h_{i-1}, sigma(i), i) as i distinct positive
    letters reach i, and M by the walker's partner array.  At n = 9 each
    memo holds 4,862 = Catalan(9) keys, 0.66 MiB for D and 0.38 MiB for M.
    """
    dycks: dict[tuple[int, ...], str] = {}
    matchings: dict[Sequence[int], Matching] = {}
    records = []
    for s in perms:
        if not is_permutation(s):
            raise ValueError(f"not a permutation: {s}")
        heights = tuple(accumulate(s, max))
        d = dycks.get(heights)
        if d is None:
            d = dycks[heights] = dyck_of_permutation(s)
        partner = _walk(s, None)
        m = matchings.get(partner)
        if m is None:
            m = matchings[partner] = _arcs(partner)
        records.append(WebRecord(s, d, m))
    # two stable sorts: by (dyck, sigma) without a key tuple per record
    records.sort(key=attrgetter("sigma"))
    records.sort(key=attrgetter("dyck"))
    return tuple(records)


def cycle_notation(sigma: Permutation) -> str:
    return cycles_to_str(cycles(sigma))
