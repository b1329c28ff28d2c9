"""Every top-level import of a liekit module is read somewhere in it.

No linter runs on this repository, so an import left behind when the code
that used it goes is caught here: each `src/liekit/*.py` but `__init__.py`
is parsed with `ast`, and a name that a module-level `import` binds must be
loaded at least once in that module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "liekit"


def unused_imports(source):
    """The names bound by the top-level imports of `source` that the module
    never loads, with their line numbers; `from __future__` is skipped."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in loaded)


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_the_modules_are_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = ("from math import gcd, lcm\nimport numpy as np\n"
              "import os.path\n\ndef f(a, b):\n    return gcd(a, b)\n")
    assert unused_imports(source) == [(1, "lcm"), (2, "np"), (3, "os")]
