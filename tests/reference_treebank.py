"""The two-pass bracket parser that `compsum.treebank.parse_ptb` replaced.

Kept only as an oracle for differential tests, and as the one maker of
tree nodes: `_parse_node` builds a tree of raw tuples carrying each
bracket's character offset, and `_build` walks it again to make the
`TreeNode`s. `parse_ptb(text)` gives a `Tree`, its root and words, equal
by value. `iter_nodes(node)` walks a subtree in pre-order and
`leaves(node)` lists its leaves, for tests that walk nodes or count and
compare them. Nothing in `src/` imports it.
"""

import re
from typing import Iterator, NamedTuple

from compsum.treebank import BRACKET_UNESCAPE, MAX_DEPTH, ParseError, Span

_LEX = re.compile(r"\(|\)|[^()\s]+")


class TreeNode(NamedTuple):
    label: str
    children: tuple["TreeNode", ...]
    span: Span


class Tree(NamedTuple):
    """A parsed sentence: its root node and its words, unescaped."""

    root: TreeNode
    tokens: tuple[str, ...]


def parse_ptb(text: str) -> Tree:
    lexed = [(m.group(), m.start()) for m in _LEX.finditer(text)]
    if not lexed:
        raise ParseError("empty input", 0)
    raw, pos = _parse_node(lexed, 0, len(text), 1)
    if pos != len(lexed):
        raise ParseError("trailing content after tree", lexed[pos][1])
    label, children, word, offset = raw
    if label == "" and word is None and len(children) == 1:
        raw = children[0]
    tokens: list[str] = []
    root = _build(raw, tokens)
    return Tree(root, tuple(tokens))


def _parse_node(lexed, pos, text_len, depth):
    tok, off = lexed[pos]
    if tok != "(":
        raise ParseError("expected '('", off)
    if depth > MAX_DEPTH:
        raise ParseError(f"tree nested deeper than {MAX_DEPTH} levels", off)
    open_off = off
    pos += 1
    if pos >= len(lexed):
        raise ParseError("unbalanced parentheses", text_len)
    label = ""
    tok, off = lexed[pos]
    if tok not in ("(", ")"):
        label = tok
        pos += 1
    children = []
    word = None
    while True:
        if pos >= len(lexed):
            raise ParseError("unbalanced parentheses", text_len)
        tok, off = lexed[pos]
        if tok == ")":
            pos += 1
            break
        if tok == "(":
            if word is not None:
                raise ParseError("mixed token and subtree content", off)
            child, pos = _parse_node(lexed, pos, text_len, depth + 1)
            children.append(child)
        else:
            if word is not None or children:
                raise ParseError("mixed token and subtree content", off)
            word = tok
            pos += 1
    if word is None and not children:
        raise ParseError("node with no children", open_off)
    return (label, children, word, open_off), pos


def _build(raw, tokens: list[str]) -> TreeNode:
    label, children, word, offset = raw
    if word is not None:
        index = len(tokens)
        tokens.append(BRACKET_UNESCAPE.get(word, word))
        return TreeNode(label=label, children=(), span=Span(index, index + 1))
    if not label:
        raise ParseError("unlabeled internal node", offset)
    kids = tuple(_build(child, tokens) for child in children)
    return TreeNode(label=label, children=kids, span=Span(kids[0].span.start, kids[-1].span.end))


def iter_nodes(node: TreeNode) -> Iterator[TreeNode]:
    """Pre-order traversal of node's subtree, with a stack of its own."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def leaves(node: TreeNode) -> list[TreeNode]:
    """The leaves of node's subtree, in token order."""
    return [n for n in iter_nodes(node) if not n.children]
