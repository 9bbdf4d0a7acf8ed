"""No library module imports a name it never uses, or a sibling's private
name other than the grid layer's.

A deletion that removes the last use of a helper should remove its import
too. For every module of the package except `__init__.py` (which imports
to re-export), an `ast` walk collects the names each `import` and
`from ... import` binds and fails on any that no expression of the module
references.

The integer grids of `matrices` are the one internal layer that other
modules share; any other underscore-prefixed helper belongs in the one
module that uses it. A second walk fails on a relative `from ... import`
of an underscore-prefixed name from any sibling except `matrices`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "drazinlab"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_unused_import_is_found():
    source = "from itertools import chain\nimport os.path\nfrom math import gcd\ngcd(1, 2)\n"
    assert unused_imports(source) == ["chain", "os"]


def private_imports(source: str) -> list[str]:
    """`module._name` for each underscore-prefixed name that `source`
    imports from a sibling module other than `matrices`."""
    return [
        f"{node.module or ''}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level and node.module != "matrices"
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_only_the_grid_layer_shares_private_names():
    found = {p.name: private_imports(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {}


def test_private_import_is_found():
    source = "\n".join([
        "from .matrices import _grid, Matrix",
        "from .jsonio import _parse_ratio, loads",
        "from . import _kernel",
        "from json import _private",
    ])
    assert private_imports(source) == ["jsonio._parse_ratio", "._kernel"]
