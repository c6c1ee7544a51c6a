"""A value read from a file reaches an error message through corpus.quote.

quote cuts a value's JSON text to 40 characters, so no message grows with
its input. Every f-string of every compsum module is read from its source;
one that formats a json.dumps(...) call would quote at any length, and one
that formats a document id (an .id attribute or a doc_id name) with !r
would show it at any length, and not as the JSON text the file holds.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "compsum"


def _is_json_dumps(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dumps" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json")


def _dumps_in_fstrings(source: str) -> list[int]:
    """The line of each f-string field of source that is a json.dumps(...) call."""
    return sorted(field.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.JoinedStr)
                  for field in node.values
                  if isinstance(field, ast.FormattedValue) and _is_json_dumps(field.value))


def _is_document_id(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr == "id")
            or (isinstance(node, ast.Name) and node.id == "doc_id"))


def _repr_ids_in_fstrings(source: str) -> list[int]:
    """The line of each f-string field of source that formats a document id with !r."""
    return sorted(field.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.JoinedStr)
                  for field in node.values
                  if isinstance(field, ast.FormattedValue) and field.conversion == ord("r")
                  and _is_document_id(field.value))


def test_no_fstring_formats_json_dumps():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    found = [f"{path.name}:{line}" for path in modules
             for line in _dumps_in_fstrings(path.read_text(encoding="utf-8"))]
    assert found == []


def test_a_planted_json_dumps_is_found():
    source = ('import json\nx = 1\nok = f"{quote(x)} {json.loads(\'1\')}"\n'
              'text = json.dumps(x)\n'
              'def f(x):\n    raise ValueError(f"value {json.dumps(x)} is wrong")\n'
              'g = f"{x!r}: " f"{json.dumps([x, x])}"\n')
    assert _dumps_in_fstrings(source) == [6, 7]


def test_no_fstring_formats_a_document_id_with_repr():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    found = [f"{path.name}:{line}" for path in modules
             for line in _repr_ids_in_fstrings(path.read_text(encoding="utf-8"))]
    assert found == []


def test_a_planted_repr_document_id_is_found():
    source = ('ok = f"{quote(doc.id)} {doc.id} {doc_id}"\n'
              'name = f"{doc.name!r} {other_id!r}"\n'
              'one = f"document {doc.id!r} has no sentences"\n'
              'def f(doc_id):\n    raise ValueError(f"record of {doc_id!r}")\n'
              'two = f"{self.doc.id!r}: " f"{doc_id!s}"\n')
    assert _repr_ids_in_fstrings(source) == [3, 5, 6]
