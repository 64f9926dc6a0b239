import ast
import pathlib

import webperm

SRC = pathlib.Path(webperm.__file__).parent


def names_used(node):
    """Every name that ``node`` reads, looks up as an attribute or imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_the_package_uses_every_function_but_these():
    # the top-level functions and classes that no code of the package uses
    # outside their own definition (``__init__`` only re-exports them), so
    # that only the tests call them; a new one has to be added here with
    # its reason
    modules = {path.stem: ast.parse(path.read_text())
               for path in SRC.glob("*.py") if path.stem != "__init__"}
    used = [(top, set(names_used(top)))
            for tree in modules.values() for top in tree.body]
    unused = {f"{module}.{node.name}"
              for module, tree in modules.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not any(node.name in names
                          for top, names in used if top is not node)}
    assert unused == {
        # a web permutation is one whose every cycle is an André word
        "andre.is_andre_word",
        # phi(sigma) is one (n + 2)-cycle sending n + 2 to 1
        "andre.permutation_from_cycle",
        # Foata sends the cycles of sigma to right-to-left minima
        "andre.rlmin",
        # the table order, a linear extension of reverse inclusion
        "combinat.dyck_sort_key",
        # the staircase, the one matching both noncrossing and nonnesting;
        # the package finds it as the Dyck path NENE..NE
        "combinat.m0",
        # the "NC" class of enumerate_matchings is the noncrossing one
        "combinat.is_noncrossing",
        # the rows are the Specht basis: 2 x n tableaux <-> nonnesting
        "combinat.syt_to_matching",
        # the cycle counts of the web permutations
        "enumeration.cc_distribution",
        # M(sigma) as arcs; the package keys it by the Dyck path of
        # lehmer_keys, and perfbench wraps it by name until ROADMAP item 1
        "grid.matching_of_permutation",
        # c11: resolution is independent of the order of the cells
        "grid.pick_bottom",
        # the figure: the matching read off a configuration's strands
        "grid.trace_matching",
        # the main theorem's sum: each sigma with D(sigma) <= D(M) once
        "grid.web_permutations_for",
        # pinned by perfbench until ROADMAP item 1; syzygy_expand is also
        # the rewriting reference the tests hold syzygy_insert to
        "oracle.syzygy_expand",
        "transition.to_csv",
        "transition.to_latex",
    }
