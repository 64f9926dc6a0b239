"""Spans around the layers of one ``webperm`` invocation.

Run as ``python3 perfbench/tracing.py <webperm arguments>`` with ``src`` on
``PYTHONPATH``.  It imports the package, wraps the entry points of each
layer with spans, runs ``webperm.cli.main`` on the arguments, and then
writes one line ``perfbench-trace {json}`` to standard error.  The line
holds the span aggregates, the work counts and the cache sizes.

Two kinds of wrapping are installed, both from outside the package:

- ``rebind`` replaces a function in its module and under every name that
  another ``webperm`` module bound to it with ``from ... import``, so every
  caller reaches the span;
- ``cli_view`` replaces the module object that ``cli`` imported with a view
  whose public functions are wrapped, so only the calls ``cli`` makes are
  spanned (``andre`` and ``enumeration``).

Helpers that run once per resolution node or per height compare
(``crossings_of``, ``dyck_heights``, ``is_web``) get no span, because a span
per call would cost more than the work it measures.  Their caches are read
through ``cache_info()`` at the end instead.

A function or cache that the package no longer has is listed under
``missing`` in the report, and its metrics read 0.

Spans are aggregated in memory by (name, parent name) as they close, which
keeps the call tree and the self times without storing every span.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
import types
from collections import Counter

TRACE_MARK = "perfbench-trace "


class Tracer:
    """A span stack with per-(name, parent) aggregates and work counters.

    >>> ticks = iter([0.0, 1.0, 3.0, 10.0])
    >>> t = Tracer(clock=lambda: next(ticks))
    >>> inner = t.wrap("b.inner", lambda: None)
    >>> t.wrap("a.outer", inner)()
    >>> sorted(t.spans.items())
    [(('a.outer', ''), [1, 10.0, 8.0]), (('b.inner', 'a.outer'), [1, 2.0, 2.0])]
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []     # [name, start, child seconds]
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: Counter[str] = Counter()

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(counts, bound_args, result)``
        derives work counts from the arguments and the return value."""
        signature = inspect.signature(fn) if after else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, self.clock(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if after:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self.counts, bound.arguments, result)
            return result
        return span

    def _close(self, frame) -> None:
        end = self.clock()
        self.stack.pop()
        name, start, child = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        agg = self.spans.setdefault((name, parent[0] if parent else ""),
                                    [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child


# ---------------------------------------------------------------------------
# work counts derived from arguments and return values
# ---------------------------------------------------------------------------

def tree_nodes(leaves: int) -> int:
    """Nodes of a tree whose every inner node has exactly two children."""
    return 2 * leaves - 1


def resolve_nodes(outcome) -> int:
    """States visited by ``grid.resolve``: each inner state branches into
    smooth and switch, each leaf adds one to the outcome multiset."""
    return tree_nodes(sum(outcome.values()))


def syzygy_nodes(coeffs) -> int:
    """Matchings visited by ``oracle.syzygy_expand``: each rewriting step
    branches in two, each leaf adds one to a coefficient."""
    return tree_nodes(sum(coeffs.values()))


def perms_examined(n: int) -> int:
    """Words the cycle-type filter tests: all of S_n."""
    return math.factorial(n)


def height_compares(a) -> int:
    """Height-vector compares of ``transition.matrix``: every row against
    every web record.  Row 0 belongs to the maximum path, which every
    record lies under, so its sum is the size of the web table."""
    return len(a.rows) * sum(a.entries[0])


def _count_filter(counts, args, result) -> None:
    if args.get("source") == "characterize" and args["n"] >= 1:
        counts["webs.perms_examined"] += perms_examined(args["n"])
        counts["webs.perms_emitted"] += len(result)


def _count_resolve(counts, args, result) -> None:
    counts["grid.resolve.leaves"] += sum(result.values())
    counts["grid.resolve.nodes"] += resolve_nodes(result)


def _count_syzygy(counts, args, result) -> None:
    counts["oracle.syzygy.nodes"] += syzygy_nodes(result)


def _count_numeric(counts, args, result) -> None:
    counts["oracle.numeric.samples"] += args.get("trials", 0)
    counts["oracle.numeric.ok"] += bool(result)


def _count_compares(cached):
    """Counts the compares of each call that built the matrix: every call,
    or only the cache misses while the matrix is ``lru_cache``d."""
    info = getattr(cached, "cache_info", None)
    seen = [info().misses if info else 0]

    def after(counts, args, result) -> None:
        now = info().misses if info else seen[0] + 1
        if now > seen[0]:
            counts["transition.height_compares"] += height_compares(result)
        seen[0] = now
    return after


# ---------------------------------------------------------------------------
# installing the spans
# ---------------------------------------------------------------------------

def rebind(fn, wrapper) -> None:
    """Replace ``fn`` by ``wrapper`` wherever a ``webperm`` module binds it."""
    for name, module in list(sys.modules.items()):
        if name == "webperm" or name.startswith("webperm."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)


def cli_view(tracer: Tracer, module) -> types.SimpleNamespace:
    """``module`` as ``cli`` sees it, with its public functions spanned."""
    layer = module.__name__.rsplit(".", 1)[-1]
    view = {}
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and callable(value)
                and getattr(value, "__module__", None) == module.__name__
                and not isinstance(value, type)):
            value = tracer.wrap(f"{layer}.{attr}", value)
        view[attr] = value
    return types.SimpleNamespace(**view)


def install(tracer: Tracer) -> tuple[dict, list[str]]:
    """Wrap every layer.  Returns the caches to read when the run ends and
    the functions that no longer exist, whose metrics then read 0."""
    from webperm import cli, combinat, grid, oracle, transition, webs

    caches = {"grid.crossings_of": getattr(grid, "crossings_of", None),
              "combinat.dyck_heights": getattr(combinat, "dyck_heights", None),
              "webs.web_table": getattr(webs, "web_table", None),
              "transition.matrix": getattr(transition, "matrix", None)}
    spans = [
        ("webs.web_set", webs, "web_set", _count_filter),
        ("webs.web_table", webs, "web_table", None),
        ("grid.trace", grid, "matching_of_permutation", None),
        ("grid.resolve", grid, "resolve", _count_resolve),
        ("transition.matrix", transition, "matrix",
         _count_compares(caches["transition.matrix"])),
        ("transition.resolution_matrix", transition, "resolution_matrix", None),
        ("transition.support_check", transition, "support_check", None),
        ("transition.export", transition, "to_csv", None),
        ("transition.export", transition, "to_json", None),
        ("transition.export", transition, "to_latex", None),
        ("oracle.syzygy", oracle, "syzygy_expand", _count_syzygy),
        ("oracle.numeric", oracle, "verify_expansion", _count_numeric),
        ("combinat.dyck_of_permutation", combinat, "dyck_of_permutation", None),
    ]
    missing = []
    for name, module, attr, after in spans:
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{attr}")
        else:
            rebind(fn, tracer.wrap(name, fn, after))
    missing += [name for name, fn in caches.items()
                if not hasattr(fn, "cache_info")]
    cli.andre = cli_view(tracer, cli.andre)
    cli.enumeration = cli_view(tracer, cli.enumeration)
    return caches, missing


def _cache_info(fn) -> dict:
    if not hasattr(fn, "cache_info"):
        return {"hits": 0, "size": 0}
    info = fn.cache_info()
    return {"hits": info.hits, "size": info.currsize}


def report(tracer: Tracer, caches: dict, missing: list[str]) -> dict:
    return {
        "spans": [[name, parent, *agg]
                  for (name, parent), agg in sorted(tracer.spans.items())],
        "counts": dict(sorted(tracer.counts.items())),
        "caches": {name: _cache_info(fn) for name, fn in caches.items()},
        "missing": missing,
    }


def main(argv: list[str]) -> int:
    from webperm import cli

    tracer = Tracer()
    caches, missing = install(tracer)
    code = 1
    try:
        code = tracer.wrap("cli", cli.main)(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + json.dumps(report(tracer, caches, missing))
                         + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
