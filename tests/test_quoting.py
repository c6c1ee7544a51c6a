"""A value read from a file reaches an error message through corpus.quote.

quote cuts a value's JSON text to 40 characters, so no message grows with
its input. Every f-string of every compsum module is read from its source;
one that formats a json.dumps(...) call would quote at any length, and one
that formats a document id (an .id attribute or a doc_id name) with !r
would show it at any length, and not as the JSON text the file holds. A
json.dumps(...) call joined into a message by +, % or str.format, inside
the arguments of a raised exception or of a logger.* call (where logging
joins the arguments after the first by %), would too.
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


def _joined_operands(node: ast.AST) -> list[ast.AST]:
    """The values node joins into a string: both sides of a + or a %
    (each item of a tuple or dict on the right of %), or the arguments of
    a .format call; none for any other node."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
        right = node.right
        if isinstance(node.op, ast.Mod) and isinstance(right, (ast.Tuple, ast.Dict)):
            return [node.left, *(right.elts if isinstance(right, ast.Tuple) else right.values)]
        return [node.left, right]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "format"):
        return [*node.args, *(keyword.value for keyword in node.keywords)]
    return []


def _is_logger_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "logger")


def _dumps_joined_in_messages(source: str) -> list[int]:
    """The line of each json.dumps(...) call that a raised exception or a
    logger.* call joins into its message by +, % or str.format, or that is
    an argument after a logger.* call's first, which logging joins by %."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            messages, operands = [node.exc], []
        elif _is_logger_call(node):
            messages = [*node.args, *(keyword.value for keyword in node.keywords)]
            operands = node.args[1:]
        else:
            continue
        operands += [operand for message in messages for joined in ast.walk(message)
                     for operand in _joined_operands(joined)]
        lines.update(operand.lineno for operand in operands if _is_json_dumps(operand))
    return sorted(lines)


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


def test_no_message_joins_json_dumps():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    found = [f"{path.name}:{line}" for path in modules
             for line in _dumps_joined_in_messages(path.read_text(encoding="utf-8"))]
    assert found == []


def test_a_planted_joined_json_dumps_is_found():
    source = ('import json\n'
              'def f(x, out):\n'
              '    out.write(json.dumps(x) + "\\n")\n'
              '    text = "value " + json.dumps(x)\n'
              '    raise ValueError("value " + json.dumps(x) + " is wrong")\n'
              '    raise ValueError("value %s is wrong" % json.dumps(x))\n'
              '    raise ValueError("%s: %s" % (x,\n'
              '                                json.dumps(x))) from None\n'
              '    raise ValueError("value {} is wrong".format(json.dumps(x)))\n'
              '    logger.warning("value " + json.dumps(x))\n'
              '    logger.info("value %s", json.dumps(x))\n'
              '    logger.error("value {v}".format(v=json.dumps(x)))\n'
              '    raise ValueError(f"value {quote(x)}" + " is wrong: " + str(x))\n'
              '    print("value " + json.dumps(x))\n'
              '    raise ValueError("value %(v)s" % {"v": json.dumps(x)})\n')
    assert _dumps_joined_in_messages(source) == [5, 6, 8, 9, 10, 11, 12, 15]


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
