"""The package needs the standard library and numpy only.

Every import statement of every compsum module is read from its source, so
an import inside a function or under a condition counts too.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "compsum"
ALLOWED = {"__future__", "numpy", *sys.stdlib_module_names}


def _absolute_imports(source: str) -> list[tuple[int, str]]:
    """(line, top-level module) of each import of source that is not relative."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_every_import_is_stdlib_numpy_or_relative():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    outside = [f"{path.name}:{line}: {name}" for path in modules
               for line, name in _absolute_imports(path.read_text(encoding="utf-8"))
               if name not in ALLOWED]
    assert outside == []


def test_an_import_of_another_package_is_found():
    source = ("from __future__ import annotations\nimport json, numpy as np\n"
              "from . import rouge\nfrom .rouge import rouge_l\n"
              "def f():\n    import scipy.optimize\n    from pytest import raises\n")
    names = _absolute_imports(source)
    assert [name for _, name in names if name not in ALLOWED] == ["scipy", "pytest"]
    assert (6, "scipy") in names
