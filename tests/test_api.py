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
        # the "NC" class of enumerate_matchings is the noncrossing one
        "combinat.is_noncrossing",
        # the rows are the Specht basis: 2 x n tableaux <-> nonnesting
        "combinat.syt_to_matching",
        # the cycle counts of the web permutations
        "enumeration.cc_distribution",
        # M(sigma) as arcs; the package keys it by its Dyck path,
        # lehmer_path, and perfbench wraps it by name until ROADMAP item 1
        "grid.matching_of_permutation",
        # c11: resolution is independent of the order of the cells
        "grid.pick_bottom",
        # the figure: the matching read off a configuration's strands
        "grid.trace_matching",
        # the main theorem's sum: each sigma with D(sigma) <= D(M) once
        "grid.web_permutations_for",
        # pinned by perfbench until ROADMAP item 1; syzygy_expand is also
        # the rewriting reference the tests hold check_rows' walk to
        "oracle.syzygy_expand",
        "transition.to_csv",
    }


def package_imports(tree):
    """The package modules that a module's code imports, anywhere in it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").startswith("webperm"):
                # from webperm import x / from webperm.x import y
                parts = node.module.split(".")[1:2]
                found.update(parts or (a.name for a in node.names))
            elif node.level:
                found.update([node.module] if node.module
                             else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("webperm."))
    return found


def test_the_modules_import_only_lower_layers():
    # combinat is the base; andre, grid and oracle stand on it alone;
    # enumeration and transition stand on those, and neither reads the
    # web table: only the command line (and the re-export) imports webs
    graph = {path.stem: package_imports(ast.parse(path.read_text()))
             for path in SRC.glob("*.py")}
    assert graph == {
        "combinat": set(),
        "andre": {"combinat"},
        "grid": {"combinat"},
        "oracle": {"combinat"},
        "enumeration": {"andre", "combinat"},
        "transition": {"andre", "combinat", "grid"},
        "webs": {"andre", "combinat"},
        "cli": {"andre", "combinat", "enumeration", "grid", "oracle",
                "transition", "webs"},
        "__init__": {"andre", "combinat", "enumeration", "grid",
                     "transition", "webs"},
    }
