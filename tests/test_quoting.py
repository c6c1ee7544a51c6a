"""A value read from a file reaches an error message through corpus.quote.

quote cuts a value's JSON text to 40 characters, so no message grows with
its input. Every f-string of every compsum module is read from its source;
one that formats a json.dumps(...) call would quote at any length, and one
that formats a document id (an .id attribute or a doc_id name) with !r
would show it at any length, and not as the JSON text the file holds. A
json.dumps(...) call joined into a message by +, % or str.format, inside
the arguments of a raised exception or of a logger.* call (where logging
joins the arguments after the first by %), would too.

A file's JSON reaches the program only through a json.loads call in a try
whose handlers catch ValueError and RecursionError: Python's decoder
rejects an integer over its digit limit by a plain ValueError and nesting
past the recursion limit by a RecursionError, neither a JSONDecodeError,
so a handler of JSONDecodeError alone lets them out naming no file or line.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "compsum"


def _is_json_call(node: ast.AST, name: str) -> bool:
    """True when node is a call json.<name>(...)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json")


def _dumps_in_fstrings(source: str) -> list[int]:
    """The line of each f-string field of source that is a json.dumps(...) call."""
    return sorted(field.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.JoinedStr)
                  for field in node.values
                  if isinstance(field, ast.FormattedValue) and _is_json_call(field.value, "dumps"))


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
        lines.update(operand.lineno for operand in operands if _is_json_call(operand, "dumps"))
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


# for ValueError and RecursionError, the exception names whose handler catches it
_CATCHES = {"ValueError": {"ValueError", "Exception", "BaseException"},
            "RecursionError": {"RecursionError", "RuntimeError", "Exception", "BaseException"}}


def _caught(handler: ast.ExceptHandler) -> set[str]:
    """The exception names a handler lists; a bare except lists BaseException."""
    if handler.type is None:
        return {"BaseException"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
            for node in types}


def _unguarded_json_loads(source: str) -> list[int]:
    """The line of each json.loads(...) call of source that is in the body of
    no try whose handlers catch both ValueError and RecursionError."""
    tree = ast.parse(source)
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            caught = set().union(*map(_caught, node.handlers))
            if all(caught & names for names in _CATCHES.values()):
                guarded.update(id(inner) for statement in node.body
                               for inner in ast.walk(statement))
    return sorted(node.lineno for node in ast.walk(tree)
                  if _is_json_call(node, "loads") and id(node) not in guarded)


def test_every_json_loads_catches_what_the_decoder_raises():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    found = [f"{path.name}:{line}" for path in modules
             for line in _unguarded_json_loads(path.read_text(encoding="utf-8"))]
    assert found == []


def test_a_planted_unguarded_json_loads_is_found():
    source = ('import json\n'
              'def f(text):\n'
              '    a = json.loads(text)\n'
              '    try:\n'
              '        b = json.loads(text)\n'
              '    except json.JSONDecodeError:\n'
              '        c = json.loads(text)\n'
              '    try:\n'
              '        d = [json.loads(t) for t in text]\n'
              '    except (KeyError, ValueError) as exc:\n'
              '        pass\n'
              '    except RecursionError:\n'
              '        pass\n'
              '    try:\n'
              '        e = json.loads(text)\n'
              '    except ValueError:\n'
              '        pass\n'
              '    try:\n'
              '        if text:\n'
              '            g = json.loads(text)\n'
              '    except Exception:\n'
              '        pass\n')
    assert _unguarded_json_loads(source) == [3, 5, 7, 15]
