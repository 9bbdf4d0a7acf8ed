"""Every cache in the library is bounded, and no memo takes a lock.

A memo keyed on caller input grows with the input unless it has a bound.
An `ast` walk of every module of the package fails on `functools.cache`,
on a bare `@lru_cache`, and on any `lru_cache(...)` whose `maxsize` is
missing or the literal `None`.

`functools.cached_property` takes an `RLock` on every first read on Python
3.10 and 3.11, a cost paid per quadruple and per memoized value; the
library's per-instance memos use `transfer._memo`, which stores into the
instance `__dict__` without one. A second walk fails on any import or
attribute use of `functools.cached_property`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drazinlab"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def _functools(node, name: str) -> bool:
    """Whether `node` is `functools.<name>`."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == name
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    )


def _lru_cache(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "lru_cache" or _functools(node, "lru_cache")


def unbounded_caches(source: str) -> list[int]:
    """Line numbers of the unbounded caches in `source`."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cache"]
        elif _functools(node, "cache"):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and _lru_cache(node.func):
            maxsize = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            if not maxsize or (isinstance(maxsize[0], ast.Constant) and maxsize[0].value is None):
                lines.append(node.lineno)
        elif _lru_cache(node) and id(node) not in called:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", MODULES)
def test_every_cache_is_bounded(module):
    assert unbounded_caches((PACKAGE / module).read_text()) == []


def test_unbounded_cache_is_found():
    source = "\n".join([
        "import functools",
        "from functools import lru_cache, cache",
        "@lru_cache(maxsize=64)",
        "def f(x): return x",
        "@lru_cache(2**6)",
        "def g(x): return x",
        "@lru_cache",
        "def h(x): return x",
        "@functools.lru_cache(maxsize=None)",
        "def i(x): return x",
        "@lru_cache(None)",
        "def j(x): return x",
        "@functools.lru_cache(typed=True)",
        "def k(x): return x",
        "@functools.cache",
        "def m(x): return x",
        "cache = {}",
    ])
    assert unbounded_caches(source) == [2, 7, 9, 11, 13, 15]


def cached_properties(source: str) -> list[int]:
    """Line numbers that import or name `functools.cached_property`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            lines += [node.lineno for alias in node.names if alias.name == "cached_property"]
        elif _functools(node, "cached_property"):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", MODULES)
def test_no_cached_property(module):
    assert cached_properties((PACKAGE / module).read_text()) == []


def test_cached_property_is_found():
    source = "\n".join([
        "import functools",
        "from functools import cached_property, lru_cache",
        "class A:",
        "    @functools.cached_property",
        "    def f(self): return 1",
        "    @cached_property",
        "    def g(self): return 2",
        "cached_property = property",
    ])
    assert cached_properties(source) == [2, 4]
