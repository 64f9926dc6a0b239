import functools
import importlib
import pkgutil

import webperm


def test_the_package_keeps_exactly_these_caches():
    # every memo in the package with its maxsize, at module level and on
    # classes, and every cached property, which keeps one value per
    # instance; a new or unbounded one has to be added here
    found = {}
    for info in pkgutil.iter_modules(webperm.__path__):
        module = importlib.import_module(f"webperm.{info.name}")
        own = {name: obj for name, obj in vars(module).items()
               if getattr(obj, "__module__", None) == module.__name__}
        for name, obj in list(own.items()):
            if isinstance(obj, type):
                own.update((f"{name}.{attr}", value)
                           for attr, value in vars(obj).items())
        found.update((f"{info.name}.{name}", obj.cache_parameters()["maxsize"])
                     for name, obj in own.items() if hasattr(obj, "cache_info"))
        found.update((f"{info.name}.{name}", "per instance")
                     for name, obj in own.items()
                     if isinstance(obj, functools.cached_property))
    assert found == {
        "webs._tokens": None,
        "enumeration.census": None,
        "enumeration._staircase_words": None,
        "transition.TransitionMatrix.rows": "per instance",
        "transition.TransitionMatrix.cols": "per instance",
    }
