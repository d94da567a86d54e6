"""The package's public names and the functions README's library layout names."""

import dataclasses
import functools
import importlib
import os
import pkgutil
import re

import floquet_avg

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
# backticked literals of the layout text that name a value, not a function or class
NOT_NAMES = {"NaN"}


def _layout_names():
    """Each backticked name or dotted name in README's "Library layout" section."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`]+)`", section)
    return [s for s in spans if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", s)
            and s not in NOT_NAMES]


def _resolves(name, modules, fields) -> bool:
    """Whether ``name`` is a floquet_avg module or an attribute path from
    one, an attribute path from a name a module defines, or a dataclass field."""
    head, *rest = name.split(".")
    if head == "floquet_avg":
        try:
            roots = [importlib.import_module(".".join([head] + rest[:1]))]
        except ImportError:
            return False
        rest = rest[1:]
    else:
        roots = [getattr(m, head) for m in modules if hasattr(m, head)]
        if not rest and name in fields:
            return True
    for obj in roots:
        try:
            functools.reduce(getattr, rest, obj)
            return True
        except AttributeError:
            pass
    return False


def test_public_names_and_the_library_layouts_names_resolve():
    # every name in __all__ is bound, and a star import binds each of them
    missing = [name for name in floquet_avg.__all__ if not hasattr(floquet_avg, name)]
    assert missing == []
    namespace = {}
    exec("from floquet_avg import *", namespace)
    assert sorted(set(floquet_avg.__all__) - set(namespace)) == []
    # every function or class README's library layout names exists in the package
    modules = [importlib.import_module(f"floquet_avg.{info.name}")
               for info in pkgutil.iter_modules(floquet_avg.__path__)
               if info.name != "__main__"]
    fields = {f.name for m in modules for obj in vars(m).values()
              if isinstance(obj, type) and dataclasses.is_dataclass(obj)
              for f in dataclasses.fields(obj)}
    names = _layout_names()
    assert "run_recursion" in names and "evaluate_monodromy" in names
    assert [name for name in names if not _resolves(name, modules, fields)] == []
