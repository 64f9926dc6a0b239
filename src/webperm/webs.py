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
time is mostly the filter and D(sigma) and M(sigma) per record, and its
records share their paths and matchings (:func:`web_records`):

    n    filter            resolution        web_table
    8    0.06 s, 16 MiB    0.09 s, 16 MiB    0.21 s, 18 MiB
    9    0.41 s, 21 MiB    0.57 s, 25 MiB    1.29 s, 31 MiB
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

from .andre import andre_cycle_permutations, cycles, cycles_to_str
from .combinat import Matching, Permutation, dyck_of_permutation
from .grid import matching_of_permutation


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

    D(sigma) and M(sigma) are computed, and sigma validated, for every
    record, but the records share one string per Dyck path and one tuple
    per noncrossing matching: two memos, kept for this call only, map each
    value to the first instance seen.  Each holds at most Catalan(n)
    entries, 1,430, 4,862 and 16,796 at n = 8, 9 and 10.  At n = 9 their
    hash tables take 0.10 MiB and 0.14 MiB, and the values they keep, which
    the records share in any case, 0.31 MiB of paths and 2.86 MiB of
    matchings.
    """
    dycks: dict[str, str] = {}
    matchings: dict[Matching, Matching] = {}
    records = []
    for s in perms:
        d = dyck_of_permutation(s)
        m = matching_of_permutation(s)
        records.append(WebRecord(s, dycks.setdefault(d, d),
                                 matchings.setdefault(m, m)))
    records.sort(key=lambda r: (r.dyck, r.sigma))
    return tuple(records)


def cycle_notation(sigma: Permutation) -> str:
    return cycles_to_str(cycles(sigma))
