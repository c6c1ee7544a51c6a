"""Grammaticality-preserving compression options from constituency parses.

Eight concrete tree patterns produce deletable token spans. Emitted spans
are guaranteed nest-or-disjoint: any two options are disjoint or one
contains the other, so any subset of them can be deleted together.

`extract_options` reads per-node arrays: `treebank.node_arrays` fills,
from the sentence's checked parse, each node's label, token span and
children in pre-order and each token's tag. A child is looked up once by its label (each distinct label's
base and kind are worked out once and kept) and skipped unless some rule
matches that kind under its parent's base label; what a rule reads below
the child (its first leaf, the first verb of a VP, the head preposition of
a PP) comes from the tags of the child's span.

A match is a candidate, a plain list [start, end, rank, rule, node_label,
parent_span, absorb]: its token span, the rule's rank (its position in
RuleId, looked up once per rule at import), the rule, the matched node's
label, the span of that node's parent (None for a bracket pair) and
whether it may absorb an adjacent comma. Candidates are deduplicated by
span, widened by a comma, and laid out by sorting on those fields; each
one kept becomes a CompressionOption, a named tuple like treebank.Span.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .treebank import PartialOverlapError  # noqa: F401  (normalize_options raises it)
from .treebank import SentenceTree, Span, ensure_nest_or_disjoint, node_arrays


class RuleId(enum.Enum):
    APPOSITIVE_NP = "APPOSITIVE_NP"
    RELATIVE_CLAUSE = "RELATIVE_CLAUSE"
    ADVERBIAL_CLAUSE = "ADVERBIAL_CLAUSE"
    ADJP_IN_NP = "ADJP_IN_NP"
    ADVP = "ADVP"
    GERUNDIVE_VP_IN_NP = "GERUNDIVE_VP_IN_NP"
    PP_CONFIG = "PP_CONFIG"
    PARENTHETICAL = "PARENTHETICAL"


RULE_ORDER = {rule: i for i, rule in enumerate(RuleId)}

# Bumped by hand whenever extract_options can emit other options for the same
# tree. An oracle cache records the version its labels were built under and
# is rejected under any other; tests/test_rules.py pins the rules' output
# per version, so a change to the output that keeps the version fails there.
RULES_VERSION = 1


class CompressionOption(NamedTuple):
    span: Span
    rule: RuleId
    node_label: str


# Builds a tuple (an option, a span) without its public constructor.
_new = tuple.__new__

# Each rule as (rank, rule), the two fields a candidate carries for it.
_APPOSITIVE_NP = (RULE_ORDER[RuleId.APPOSITIVE_NP], RuleId.APPOSITIVE_NP)
_RELATIVE_CLAUSE = (RULE_ORDER[RuleId.RELATIVE_CLAUSE], RuleId.RELATIVE_CLAUSE)
_ADVERBIAL_CLAUSE = (RULE_ORDER[RuleId.ADVERBIAL_CLAUSE], RuleId.ADVERBIAL_CLAUSE)
_ADJP_IN_NP = (RULE_ORDER[RuleId.ADJP_IN_NP], RuleId.ADJP_IN_NP)
_ADVP = (RULE_ORDER[RuleId.ADVP], RuleId.ADVP)
_GERUNDIVE_VP_IN_NP = (RULE_ORDER[RuleId.GERUNDIVE_VP_IN_NP], RuleId.GERUNDIVE_VP_IN_NP)
_PP_CONFIG = (RULE_ORDER[RuleId.PP_CONFIG], RuleId.PP_CONFIG)
_PARENTHETICAL = (RULE_ORDER[RuleId.PARENTHETICAL], RuleId.PARENTHETICAL)


# Prepositions treated as heads of deletable temporal/locative adjunct PPs.
DEFAULT_ADJUNCT_PREPOSITIONS = frozenset({
    "on", "in", "at", "by", "during", "after", "before", "over", "under",
    "near", "since", "until", "within", "throughout",
})

_ADJ_TAGS = {"JJ", "JJR", "JJS"}
_WH_LEAF_TAGS = {"WDT", "WP", "WP$", "WRB"}
_WH_PHRASE_LABELS = {"WHNP", "WHADVP", "WHPP"}
_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = set(_OPENERS.values())

# The phrases some rule names, by base label.
_RULE_PHRASES = frozenset({"NP", "SBAR", "ADJP", "ADVP", "VP", "PP", "PRN"})
# The child kinds (see _Kinds) some rule matches, by the parent's base label.
_MATCHED_UNDER = {
    "NP": frozenset({"NP", "SBAR", "ADJP", *_ADJ_TAGS, "VP", "PRN"}),
    "S": frozenset({"SBAR", "ADVP", "PP", "PRN"}),
    "VP": frozenset({"SBAR", "ADVP", "RB", "PP", "PRN"}),
}
_MATCHED_ELSEWHERE = frozenset({"PRN"})


class _Bases(dict):
    """label -> base label, computed once per distinct label."""

    def __missing__(self, label: str) -> str:
        # Strip function tags / indices (NP-SBJ -> NP) but keep -LRB- style labels.
        head = label.split("=")[0].split("-")[0]
        base = self[label] = head if head else label
        return base


class _Kinds(dict):
    """label -> what a rule matches a child of that label by: its base label
    when a rule names that phrase, the label itself when it is a JJ* or RB
    tag (matched on leaves only), otherwise None."""

    def __missing__(self, label: str) -> str | None:
        base = _BASE[label]
        if base in _RULE_PHRASES:
            kind = base
        elif label in _ADJ_TAGS or label == "RB":
            kind = label
        else:
            kind = None
        self[label] = kind
        return kind


_BASE = _Bases()
_KIND = _Kinds()


def _is_comma(node: int, kids, starts, texts) -> bool:
    return not kids[node] and texts[starts[node]] == ","


def _layout_key(cand: list) -> tuple[int, int, int]:
    """(start, -length, rule rank)."""
    start = cand[0]
    return start, start - cand[1], cand[2]


def _rule_key(cand: list) -> tuple[int, int, int]:
    """(rule rank, start, -length)."""
    start = cand[0]
    return cand[2], start, start - cand[1]


def extract_options(tree: SentenceTree) -> list[CompressionOption]:
    """All compression options of a sentence, sorted by (start, -length).

    Duplicate spans keep the rule listed first in RuleId order. Options may
    nest but never partially overlap; a span covering the whole sentence is
    never emitted. The output is already what normalize_options would return,
    so callers use it as is.
    """
    texts = tree.tokens
    n = len(texts)
    # Node i's first leaf is tags[starts[i]], and its leaves are the tags of
    # its span.
    labels, starts, ends, kids, tags = node_arrays(tree.parse)

    # [start, end, rank, rule, node_label, parent_span, absorb]
    candidates: list[list] = []
    add = candidates.append
    for node, children in enumerate(kids):
        if not children:
            continue
        parent = _BASE[labels[node]]
        matched = _MATCHED_UNDER.get(parent, _MATCHED_ELSEWHERE)
        for idx, child in enumerate(children):
            label = labels[child]
            kind = _KIND[label]
            if kind not in matched:
                continue
            start = starts[child]
            end = ends[child]
            outer = (starts[node], ends[node])

            if kind == "NP":
                # Appositive: NP child of NP between a comma and a comma or
                # the constituent end; the commas belong to the span.
                if idx and _is_comma(children[idx - 1], kids, starts, texts):
                    first = starts[children[idx - 1]]
                    if idx + 1 == len(children):
                        add([first, end, *_APPOSITIVE_NP, label, outer, False])
                    elif _is_comma(children[idx + 1], kids, starts, texts):
                        add([first, ends[children[idx + 1]], *_APPOSITIVE_NP, label, outer,
                             False])

            elif kind == "SBAR":
                # A leaf labelled SBAR is no clause.
                grandkids = kids[child]
                if not grandkids:
                    continue
                first_tag = tags[start]
                if parent == "NP":
                    if (first_tag in _WH_LEAF_TAGS
                            or _BASE[labels[grandkids[0]]] in _WH_PHRASE_LABELS):
                        add([start, end, *_RELATIVE_CLAUSE, label, outer, True])
                elif first_tag == "IN":
                    add([start, end, *_ADVERBIAL_CLAUSE, label, outer, True])

            elif kind == "ADVP":
                add([start, end, *_ADVP, label, outer, True])

            elif kind == "VP":
                # Gerundive VP in an NP: its first verb is a VBG.
                for tag in tags[start:end]:
                    if tag.startswith("VB"):
                        if tag == "VBG":
                            add([start, end, *_GERUNDIVE_VP_IN_NP, label, outer, True])
                        break

            elif kind == "PP":
                # Adjunct PP: no NP to its right, or a listed head preposition.
                if any(_BASE[labels[sib]] == "NP" for sib in children[idx + 1:]):
                    prep = None
                    for i in range(start, end):
                        if tags[i] in ("IN", "TO"):
                            prep = texts[i].lower()
                            break
                    if prep not in DEFAULT_ADJUNCT_PREPOSITIONS:
                        continue
                add([start, end, *_PP_CONFIG, label, outer, True])

            elif kind == "PRN":
                add([start, end, *_PARENTHETICAL, label, outer, True])

            elif kind == "RB":
                # Bare RB pre-modifier of a VP: an RB leaf before the first verb.
                if kids[child]:
                    continue
                for j, sib in enumerate(children):
                    if not kids[sib] and labels[sib].startswith("VB"):
                        if idx < j:
                            add([start, end, *_ADVP, label, outer, True])
                        break

            else:
                # Pre-modifying ADJP or bare adjective (a JJ* leaf) inside an
                # NP, provided a nominal head follows (so the NP head itself
                # is never an option).
                if kind != "ADJP" and kids[child]:
                    continue
                for sib in children[idx + 1:]:
                    base = _BASE[labels[sib]]
                    if base.startswith("NN") or base == "NX":
                        add([start, end, *_ADJP_IN_NP, label, outer, True])
                        break

    # Matching bracket pairs outside any PRN constituent, brackets absorbed.
    stack: list[tuple[str, int]] = []
    for i, text in enumerate(texts):
        if text in _OPENERS:
            stack.append((text, i))
        elif text in _CLOSERS:
            if stack and _OPENERS[stack[-1][0]] == text:
                _, start = stack.pop()
                add([start, i + 1, *_PARENTHETICAL, "PRN", None, False])

    candidates = _dedupe(candidates)
    _absorb_commas(candidates, texts)
    candidates = _dedupe(candidates)

    # Kept in (start, -length) order, the options that contain a start form
    # a chain, innermost last; a candidate partially overlaps a kept option
    # only if it ends past the innermost one that contains its start.
    options: list[CompressionOption] = []
    enclosing: list[int] = []  # the ends of that chain
    for start, end, _, rule, node_label, _, _ in sorted(candidates, key=_layout_key):
        if end - start >= n:
            continue
        while enclosing and enclosing[-1] <= start:
            enclosing.pop()
        if enclosing and end > enclosing[-1]:
            continue
        enclosing.append(end)
        options.append(_new(CompressionOption, (_new(Span, (start, end)), rule, node_label)))
    return options  # spans are unique, so already in (start, -length) order


def _dedupe(candidates: list[list]) -> list[list]:
    """One candidate per span: the one whose rule comes first in RuleId."""
    by_span: dict[tuple[int, int], list] = {}
    for cand in sorted(candidates, key=_rule_key):
        by_span.setdefault((cand[0], cand[1]), cand)
    return list(by_span.values())


def _nested_or_disjoint(start: int, end: int, other: list) -> bool:
    """True when [start, end) and the candidate other's span are nested or disjoint."""
    other_start, other_end = other[0], other[1]
    return (end <= other_start or other_end <= start
            or (start <= other_start and other_end <= end)
            or (other_start <= start and end <= other_end))


def _absorb_commas(candidates: list[list], texts) -> None:
    """Absorb one adjacent comma per clause-level option, left preferred.

    A comma is taken only when it lies inside the matched node's parent and
    the widened span stays nested-or-disjoint with every other candidate, so
    the global layout invariant survives absorption.
    """
    for cand in sorted(candidates, key=_layout_key):
        start, end, _, _, _, parent, absorb = cand
        if not absorb or parent is None:
            continue
        parent_start, parent_end = parent
        left = start > parent_start and texts[start - 1] == ","
        right = end < parent_end and texts[end] == ","
        if not (left or right):
            continue
        others = [other for other in candidates if other is not cand]
        if left and all(_nested_or_disjoint(start - 1, end, other) for other in others):
            cand[0] = start - 1
        elif right and all(_nested_or_disjoint(start, end + 1, other) for other in others):
            cand[1] = end + 1


def normalize_options(options: list[CompressionOption], sentence_len: int) -> list[CompressionOption]:
    """Drop whole-sentence spans and verify the nest-or-disjoint invariant."""
    kept = [opt for opt in options
            if not (opt.span.start == 0 and opt.span.end >= sentence_len)]
    ordered = sorted(kept, key=lambda o: (o.span.start, -len(o.span)))
    ensure_nest_or_disjoint(opt.span for opt in ordered)
    return ordered


def option_record(doc_id: str, sent_index: int, options: list[CompressionOption]) -> dict:
    """JSON-ready dump record for one sentence's options."""
    return {
        "doc_id": doc_id,
        "sent_index": sent_index,
        "options": [
            {"start": opt.span.start, "end": opt.span.end,
             "rule": opt.rule.value, "label": opt.node_label}
            for opt in options
        ],
    }
