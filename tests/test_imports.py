"""The package needs the standard library and numpy only.

Every import statement of every compsum module is read from its source, so
an import inside a function or under a condition counts too.

tests/reference_model.py, the step-by-step model the library is checked
against, runs forwards and losses of its own: it imports from compsum.model
no forward, no products helper, no _step_terms and no _loss_* function, so
a test that compares the library with it never compares the library with
itself.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "compsum"
REFERENCE_MODEL = Path(__file__).resolve().parent / "reference_model.py"
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


def _borrowed_model_code(source: str) -> list[tuple[int, str]]:
    """(line, name) of each forward, products helper, _step_terms or _loss_*
    function (or *) that source imports from compsum.model, by line."""
    return sorted((node.lineno, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.module == "compsum.model"
                  for alias in node.names
                  if alias.name == "*" or alias.name.endswith("_forward")
                  or alias.name in ("_products", "_step_terms")
                  or alias.name.startswith("_loss_"))


def test_the_reference_model_borrows_no_forward_or_loss():
    assert _borrowed_model_code(REFERENCE_MODEL.read_text(encoding="utf-8")) == []


def test_a_borrowed_forward_or_loss_is_found():
    source = ("from compsum.model import PARAM_ORDER, _sigmoid, _extraction_forward\n"
              "def f():\n    from compsum.model import (_products, _step_terms,\n"
              "        _loss_compiled as loss, _compression_forward)\n"
              "from compsum.model import *\nfrom compsum.features import featurize_option\n")
    assert _borrowed_model_code(source) == [
        (1, "_extraction_forward"), (3, "_compression_forward"), (3, "_loss_compiled"),
        (3, "_products"), (3, "_step_terms"), (5, "*")]
