"""Web permutation sets and their associated paths and matchings.

Two constructions give the web permutations of [n]:

- "characterize": filtering the symmetric group by the Andre-cycle test,
- "resolve": full crossing resolution of the identity grid configuration.

The filter is the default and the one behind :func:`web_table`; it has no
branching tree and stays cheap well past the point where resolution is
comfortable.  Resolution is the cross-check: ``webperm web --source both``
and the test suite compare the two sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .andre import cycles, cycles_to_str, is_web
from .combinat import CapExceeded, Matching, Permutation, all_permutations
from .combinat import dyck_of_permutation
from .grid import DEFAULT_NODE_CAP, matching_of_permutation, web_permutations

# Filtering S_n gets painful past 8! = 40320 words; resolution trees are
# kept on an even shorter leash.
DEFAULT_FILTER_CAP = 8
DEFAULT_RESOLVE_CAP = 6


@dataclass(frozen=True)
class WebRecord:
    """One web permutation with its Dyck path and traced matching."""

    sigma: Permutation
    dyck: str
    matched: Matching


def web_set(n: int, source: str = "characterize",
            node_cap: int = DEFAULT_NODE_CAP) -> frozenset[Permutation]:
    """The web permutations of [n], by the construction named by
    ``source``: "characterize" (the filter) or "resolve"."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return frozenset({()})
    if source == "characterize":
        return frozenset(s for s in all_permutations(n) if is_web(s))
    if source == "resolve":
        return web_permutations(n, node_cap)
    raise ValueError(f"unknown source {source!r}")


@lru_cache(maxsize=None)
def web_table(n: int) -> tuple[WebRecord, ...]:
    """All web records for [n], sorted by (Dyck path, word).

    Uses the filter construction; the test suite certifies its agreement
    with resolution.

    Two Dyck orders are in use, both pinned by output bytes.  This one
    compares paths as strings, E < N, so the staircase comes first; the
    ``web`` listings print the table in it.  Matrix rows and columns use
    table order, N < E (:func:`webperm.combinat.dyck_sort_key`), which
    puts the maximum path first.
    """
    records = [WebRecord(s, dyck_of_permutation(s), matching_of_permutation(s))
               for s in web_set(n)]
    records.sort(key=lambda r: (r.dyck, r.sigma))
    return tuple(records)


def cycle_notation(sigma: Permutation) -> str:
    return cycles_to_str(cycles(sigma))


def check_web_cap(n: int, source: str, cap: int | None = None) -> None:
    """Raise :class:`CapExceeded` when n is beyond the default size guard
    for the requested construction (``cap`` overrides the default)."""
    if cap is None:
        cap = DEFAULT_RESOLVE_CAP if source in ("resolve", "both") else DEFAULT_FILTER_CAP
    if n > cap:
        raise CapExceeded(
            f"n = {n} exceeds the cap {cap} for source {source!r}; "
            f"raise the cap explicitly to force it")
