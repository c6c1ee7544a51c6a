"""Bracketed constituency trees: parsing, token spans, deletion rendering.

Trees arrive as standard bracketed strings, one per sentence. Internally
every node caches its half-open token span and bracket tokens are stored
unescaped ("(" rather than "-LRB-"); escaping happens only when a tree is
serialized back to bracketed form.
"""

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

BRACKET_UNESCAPE = {
    "-LRB-": "(",
    "-RRB-": ")",
    "-LSB-": "[",
    "-RSB-": "]",
    "-LCB-": "{",
    "-RCB-": "}",
}
BRACKET_ESCAPE = {text: code for code, text in BRACKET_UNESCAPE.items()}

_LEX = re.compile(r"\(|\)|[^()\s]+")

# Deepest bracket nesting accepted: parsing, building and serializing recurse
# once per level, and real parses stay far below it.
MAX_DEPTH = 200


class ParseError(ValueError):
    """Malformed bracketed input; carries the character offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (char {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Token:
    text: str
    index: int


@dataclass(frozen=True, order=True)
class Span:
    """Half-open token interval [start, end)."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end

    def compatible(self, other: "Span") -> bool:
        """True when the two spans are nested or disjoint."""
        return (not self.overlaps(other)) or self.contains(other) or other.contains(self)


@dataclass(frozen=True)
class TreeNode:
    label: str
    children: tuple["TreeNode", ...]
    span: Span

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def iter_nodes(self) -> Iterator["TreeNode"]:
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def leaves(self) -> list["TreeNode"]:
        return [node for node in self.iter_nodes() if node.is_leaf]


@dataclass(frozen=True)
class SentenceTree:
    root: TreeNode
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def token_texts(self) -> tuple[str, ...]:
        return tuple(token.text for token in self.tokens)


def parse_ptb(text: str) -> SentenceTree:
    """Parse one bracketed tree into a SentenceTree.

    A single unlabeled outer wrapper "( ... )" is silently unwrapped.
    Escaped bracket tokens (-LRB- etc.) are stored unescaped; their
    part-of-speech labels are kept as written. Brackets nested more than
    MAX_DEPTH deep are a ParseError at the first bracket past that depth.
    """
    lexed = [(m.group(), m.start()) for m in _LEX.finditer(text)]
    if not lexed:
        raise ParseError("empty input", 0)
    raw, pos = _parse_node(lexed, 0, len(text), 1)
    if pos != len(lexed):
        raise ParseError("trailing content after tree", lexed[pos][1])
    label, children, word, offset = raw
    if label == "" and word is None and len(children) == 1:
        raw = children[0]
    tokens: list[Token] = []
    root = _build(raw, tokens)
    return SentenceTree(root=root, tokens=tuple(tokens))


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


def _build(raw, tokens: list[Token]) -> TreeNode:
    label, children, word, offset = raw
    if word is not None:
        index = len(tokens)
        tokens.append(Token(text=BRACKET_UNESCAPE.get(word, word), index=index))
        return TreeNode(label=label, children=(), span=Span(index, index + 1))
    if not label:
        raise ParseError("unlabeled internal node", offset)
    kids = tuple(_build(child, tokens) for child in children)
    return TreeNode(label=label, children=kids, span=Span(kids[0].span.start, kids[-1].span.end))


def node_span(node: TreeNode) -> Span:
    """Return the cached contiguous token span of a node."""
    return node.span


def ensure_nest_or_disjoint(spans: Iterable[Span]) -> None:
    """Raise ValueError if any pair of spans partially overlaps."""
    ordered = sorted(spans)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if b.start >= a.end:
                break
            if not a.compatible(b):
                raise ValueError(f"partially overlapping spans {a} and {b}")


def surviving_tokens(tree: SentenceTree, deletions: Iterable[Span]) -> list[str]:
    """Token texts that lie in no deleted span, in sentence order."""
    spans = list(deletions)
    n = len(tree.tokens)
    for span in spans:
        if span.end > n:
            raise ValueError(f"span {span} exceeds sentence length {n}")
    ensure_nest_or_disjoint(spans)
    dead = [False] * n
    for span in spans:
        for i in range(span.start, span.end):
            dead[i] = True
    return [token.text for token in tree.tokens if not dead[token.index]]


def render_with_deletions(tree: SentenceTree, deletions: Iterable[Span]) -> str:
    """Render the sentence with the given spans removed, space-joined.

    Nested deletion spans are fine; overlapping-but-not-nested spans are
    rejected (the rule extractor never emits them).
    """
    return " ".join(surviving_tokens(tree, deletions))


def to_ptb(tree: SentenceTree) -> str:
    """Serialize back to bracketed form, re-escaping bracket tokens."""
    return _serialize(tree.root, tree)


def _serialize(node: TreeNode, tree: SentenceTree) -> str:
    if node.is_leaf:
        text = tree.tokens[node.span.start].text
        return f"({node.label} {BRACKET_ESCAPE.get(text, text)})"
    inner = " ".join(_serialize(child, tree) for child in node.children)
    return f"({node.label} {inner})"
