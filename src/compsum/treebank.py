"""Bracketed constituency trees: parsing, token spans, surviving tokens.

Trees arrive as standard bracketed strings, one per sentence, and a
SentenceTree is such a string, checked, and its words. Reading one is two
passes over its lexemes: `_scan` makes every check and returns the words,
and `node_arrays`, which checks nothing, reads the text `_scan` accepted.
It fills, for each node in pre-order, its label, first and end token and
children, and for each token its tag, which is all the compression rules
read; they make it on demand and do not keep it. The character offset of
a fault is worked out only when a ParseError is raised.

A sentence's words are a plain tuple of strings, and bracket words are
stored unescaped ("(" rather than "-LRB-"); part-of-speech labels keep
their escaped form. Every pass keeps its own stack, so no tree depth
reaches the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterable, NamedTuple, Sequence

BRACKET_UNESCAPE = {
    "-LRB-": "(",
    "-RRB-": ")",
    "-LSB-": "[",
    "-RSB-": "]",
    "-LCB-": "{",
    "-RCB-": "}",
}
BRACKET_ESCAPE = {text: code for code, text in BRACKET_UNESCAPE.items()}

# The lexemes as a regular expression; used only to locate a fault, since
# _lex gives the same lexemes faster.
_LEX = re.compile(r"\(|\)|[^()\s]+")

# Deepest bracket nesting accepted; real parses stay far below it.
MAX_DEPTH = 200

# Builds a tuple without its public constructor's checks.
_new = tuple.__new__
# Sets a field of an immutable SentenceTree.
_set = object.__setattr__


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


class SentenceTree:
    """One sentence: its bracketed parse, checked, and its words.

    `parse` is the bracketed string as given; leaf i's word is tokens[i].
    The rules read `node_arrays(parse)`. Made only from a parse that passes
    the checks of parse_ptb, by `SentenceTree(parse)`, parse_ptb or
    unpickling. Immutable; two are equal and hash alike when their parses
    are the same tree of the same words (see `_tree_lexemes`).
    """

    __slots__ = ("parse", "tokens")

    def __new__(cls, parse: str):
        tree = object.__new__(cls)
        _set(tree, "tokens", _scan(parse, _lex(parse)))
        _set(tree, "parse", parse)
        return tree

    def __setattr__(self, name, value):
        raise AttributeError(f"SentenceTree is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SentenceTree is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, SentenceTree):
            return NotImplemented
        return _tree_lexemes(self.parse) == _tree_lexemes(other.parse)

    def __hash__(self) -> int:
        return hash(tuple(_tree_lexemes(self.parse)))

    def __reduce__(self):
        return SentenceTree, (self.parse,)

    def __repr__(self) -> str:
        return f"SentenceTree(parse={self.parse!r}, tokens={self.tokens!r})"

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def token_texts(self) -> tuple[str, ...]:
        """The words themselves; an alias of `tokens`."""
        return self.tokens


def _tree_lexemes(parse: str) -> list[str]:
    """The lexemes of a checked parse without its unlabeled outer wrapper, if
    it has one. Spacing and the wrapper aside, a parse is these lexemes, so
    two parses give equal lists exactly when they are the same tree (labels,
    shape) of the same words."""
    lexemes = _lex(parse)
    return lexemes[1:-1] if lexemes[1] == "(" else lexemes


def _lex(text: str) -> list[str]:
    """The lexemes of a bracketed string: "(", ")" and each run of other
    non-whitespace characters; the list _LEX.findall gives, made faster."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_ptb(text: str) -> SentenceTree:
    """Check one bracketed tree and return its SentenceTree.

    A single unlabeled outer wrapper "( ... )" is accepted; the parse keeps
    it, and the rules and equality read the tree inside it.
    Escaped bracket tokens (-LRB- etc.) are stored unescaped; their
    part-of-speech labels are kept as written. Brackets nested more than
    MAX_DEPTH deep are a ParseError at the first bracket past that depth.
    Structural faults are reported at the first lexeme where they show; an
    unlabeled internal node, only once the whole tree is well formed, at
    the first such node in pre-order.
    """
    return SentenceTree(text)


def _scan(text: str, lexemes: list[str]) -> tuple[str, ...]:
    """Check that the lexemes of text are one well-formed tree and return its
    words, unescaped. This is the one place a ParseError is raised for a
    fault of the tree; it counts children rather than building nodes."""
    n = len(lexemes)
    if not n:
        raise ParseError("empty input", 0)
    if lexemes[0] != "(":
        raise _located("expected '('", text, 0)
    words: list[str] = []
    kids = 0                # children of the innermost open node so far
    open_nodes = []         # (parent's children so far, lexeme index) per open node
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
                    words.append(unescape(word, word))
                    kids += 1
                    i += 4
                    if not depth:
                        break
                    continue
            if i + 1 >= n:
                raise ParseError("unbalanced parentheses", len(text))
            label = lexemes[i + 1]
            open_nodes.append((kids, i))
            if label == "(" or label == ")":
                if depth and first_unlabeled < 0:
                    first_unlabeled = i
                i += 1
            else:
                i += 2
            kids = 0
            depth += 1
        elif lexeme == ")":
            parent_kids, opened = open_nodes.pop()
            if not kids:
                raise _located("node with no children", text, opened)
            depth -= 1
            i += 1
            if not depth:
                break           # kids is the root's child count
            kids = parent_kids + 1
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
    if (lexemes[1] == "(" or lexemes[1] == ")") and kids != 1:
        raise _located("unlabeled internal node", text, 0)
    if first_unlabeled >= 0:
        raise _located("unlabeled internal node", text, first_unlabeled)
    return tuple(words)


class NodeArrays(NamedTuple):
    """The nodes of a parse in pre-order, as parallel lists, and the tag of
    each token. Node i covers tokens starts[i] to ends[i] - 1; kids[i] lists
    the indices of its children, and is empty for a leaf."""

    labels: list[str]
    starts: list[int]
    ends: list[int]
    kids: list[Sequence[int]]
    tags: list[str]


def node_arrays(text: str) -> NodeArrays:
    """The NodeArrays of a bracketed string that _scan accepted.

    Checks nothing: in an accepted tree only the outer wrapper may be
    unlabeled, every other node opens with "(" followed by a label, and a
    label followed by a word is a leaf.
    """
    lexemes = _lex(text)
    labels: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    kids: list[Sequence[int]] = []
    tags: list[str] = []
    siblings: list[int] = []    # children of the innermost open node
    open_nodes = []             # (index, parent's children) per open node
    index = 0                   # tokens placed so far
    i = 1 if lexemes[1] == "(" else 0   # past an unlabeled outer wrapper
    while True:
        if lexemes[i] == ")":
            node, siblings = open_nodes.pop()
            ends[node] = index
            i += 1
        else:
            label = lexemes[i + 1]
            node = len(labels)
            siblings.append(node)
            labels.append(label)
            starts.append(index)
            if lexemes[i + 2] == "(":
                ends.append(0)      # filled in as its bracket closes
                open_nodes.append((node, siblings))
                siblings = []
                kids.append(siblings)
                i += 2
                continue
            index += 1
            ends.append(index)
            kids.append(())
            tags.append(label)
            i += 4
        if not open_nodes:
            break
    return _new(NodeArrays, (labels, starts, ends, kids, tags))


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
