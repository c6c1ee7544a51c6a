"""Bracketed constituency trees: parsing, token spans, surviving tokens.

Trees arrive as standard bracketed strings, one per sentence. `parse_ptb`
reads one in a single left-to-right pass over its lexemes and builds each
node as its bracket closes; the character offset of a fault is worked out
only when a ParseError is raised. Nodes are immutable tuples, equal and
hashed by value. Every node caches its half-open token span; a sentence's
words are a plain tuple of strings, and bracket words are stored unescaped
("(" rather than "-LRB-"); escaping happens only
when a tree is serialized back to bracketed form. Traversal (`iter_nodes`,
`leaves`) and serialization (`to_ptb`) keep their own stack, so no tree
depth reaches the interpreter's recursion limit.
"""

import re
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

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

# Deepest bracket nesting accepted; real parses stay far below it.
MAX_DEPTH = 200

# Builds a node without its public constructor's checks, for the parser.
_new = tuple.__new__


class ParseError(ValueError):
    """Malformed bracketed input; carries the character offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (char {offset})")
        self.offset = offset


class PartialOverlapError(ValueError):
    """Two spans partially overlap: neither contains the other and they share a token."""


class _SpanFields(NamedTuple):
    start: int
    end: int


class Span(_SpanFields):
    """Half-open token interval [start, end)."""

    __slots__ = ()

    def __new__(cls, start: int, end: int):
        if start < 0 or end <= start:
            raise ValueError(f"invalid span [{start}, {end})")
        return _new(cls, (start, end))

    def __len__(self) -> int:
        return self.end - self.start

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end

    def compatible(self, other: "Span") -> bool:
        """True when the two spans are nested or disjoint."""
        return (not self.overlaps(other)) or self.contains(other) or other.contains(self)


class TreeNode(NamedTuple):
    label: str
    children: tuple["TreeNode", ...]
    span: Span

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def iter_nodes(self) -> Iterator["TreeNode"]:
        """Pre-order traversal of this subtree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> list["TreeNode"]:
        return [node for node in self.iter_nodes() if not node.children]


class SentenceTree(NamedTuple):
    root: TreeNode
    tokens: tuple[str, ...]     # leaf i's word is tokens[i]

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def token_texts(self) -> tuple[str, ...]:
        """The words themselves; an alias of `tokens`."""
        return self.tokens


def parse_ptb(text: str) -> SentenceTree:
    """Parse one bracketed tree into a SentenceTree.

    A single unlabeled outer wrapper "( ... )" is silently unwrapped.
    Escaped bracket tokens (-LRB- etc.) are stored unescaped; their
    part-of-speech labels are kept as written. Brackets nested more than
    MAX_DEPTH deep are a ParseError at the first bracket past that depth.
    Structural faults are reported at the first lexeme where they show; an
    unlabeled internal node, only once the whole tree is well formed, at
    the first such node in pre-order.
    """
    lexemes = _LEX.findall(text)
    n = len(lexemes)
    if not n:
        raise ParseError("empty input", 0)
    if lexemes[0] != "(":
        raise _located("expected '('", text, 0)
    tokens: list[str] = []
    top: list[TreeNode] = []
    kids = top              # children of the innermost open node
    open_nodes = []         # (parent's kids, label, first token, lexeme index)
    depth = 0
    first_unlabeled = -1    # lexeme index of the first unlabeled node below the root
    unescape = BRACKET_UNESCAPE.get
    i = 0
    while True:
        if i >= n:
            raise ParseError("unbalanced parentheses", len(text))
        lexeme = lexemes[i]
        if lexeme == "(":
            if depth >= MAX_DEPTH:
                raise _located(f"tree nested deeper than {MAX_DEPTH} levels", text, i)
            if i + 3 < n and lexemes[i + 3] == ")":
                label = lexemes[i + 1]
                word = lexemes[i + 2]
                if label != "(" and label != ")" and word != "(" and word != ")":
                    # the common leaf "(TAG word)"
                    index = len(tokens)
                    tokens.append(unescape(word, word))
                    kids.append(_new(TreeNode, (label, (), _new(Span, (index, index + 1)))))
                    i += 4
                    if not depth:
                        break
                    continue
            if i + 1 >= n:
                raise ParseError("unbalanced parentheses", len(text))
            label = lexemes[i + 1]
            if label == "(" or label == ")":
                if depth and first_unlabeled < 0:
                    first_unlabeled = i
                open_nodes.append((kids, "", len(tokens), i))
                i += 1
            else:
                open_nodes.append((kids, label, len(tokens), i))
                i += 2
            kids = []
            depth += 1
        elif lexeme == ")":
            parent, label, start, opened = open_nodes.pop()
            if not kids:
                raise _located("node with no children", text, opened)
            parent.append(_new(TreeNode, (label, tuple(kids), _new(Span, (start, len(tokens))))))
            kids = parent
            depth -= 1
            i += 1
            if not depth:
                break
        elif kids:
            raise _located("mixed token and subtree content", text, i)
        elif i + 1 >= n:
            raise ParseError("unbalanced parentheses", len(text))
        else:
            # a word opening a node is valid only as "(TAG word)", the leaf
            # case above, so what follows it is the fault
            raise _located("mixed token and subtree content", text, i + 1)
    if i < n:
        raise _located("trailing content after tree", text, i)
    root = top[0]
    if not root.label:
        if len(root.children) != 1:
            raise _located("unlabeled internal node", text, 0)
        root = root.children[0]
    if first_unlabeled >= 0:
        raise _located("unlabeled internal node", text, first_unlabeled)
    return _new(SentenceTree, (root, tuple(tokens)))


def _located(message: str, text: str, index: int) -> ParseError:
    """A ParseError at the character offset of the index-th lexeme."""
    match = next(islice(_LEX.finditer(text), index, None))
    return ParseError(message, match.start())


def ensure_nest_or_disjoint(spans: Iterable[Span]) -> None:
    """Raise PartialOverlapError if any pair of spans partially overlaps."""
    ordered = sorted(spans)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if b.start >= a.end:
                break
            if not a.compatible(b):
                raise PartialOverlapError(f"spans {a} and {b} partially overlap")


def surviving_tokens(tree: SentenceTree, deletions: Iterable[Span]) -> list[str]:
    """Words that lie in no deleted span, in sentence order."""
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
    return [token for token, gone in zip(tree.tokens, dead) if not gone]


def to_ptb(tree: SentenceTree) -> str:
    """Serialize back to bracketed form, re-escaping bracket tokens."""
    pieces = []
    pending: list = [tree.root]     # nodes still to write, and the text between them
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        label, children, span = item
        if children:
            pieces.append("(" + label)
            pending.append(")")
            for child in reversed(children):
                pending.append(child)
                pending.append(" ")
        else:
            text = tree.tokens[span.start]
            pieces.append(f"({label} {BRACKET_ESCAPE.get(text, text)})")
    return "".join(pieces)
