"""The rule matcher that `compsum.rules.extract_options` replaced.

Kept only as an oracle for differential tests: for every child of every
node it strips the child's label anew, and it finds an SBAR's first leaf, a
VP's first verb and a PP's head preposition by walking the child's leaves.
It matches an SBAR only when the SBAR has children, as the library does.
Nothing in `src/` imports it.
"""

from dataclasses import dataclass

from compsum.rules import DEFAULT_ADJUNCT_PREPOSITIONS, CompressionOption, RuleId
from compsum.treebank import SentenceTree, Span, TreeNode

from reference_treebank import iter_nodes, leaves

RULE_ORDER = {rule: i for i, rule in enumerate(RuleId)}

_ADJ_TAGS = {"JJ", "JJR", "JJS"}
_WH_LEAF_TAGS = {"WDT", "WP", "WP$", "WRB"}
_WH_PHRASE_LABELS = {"WHNP", "WHADVP", "WHPP"}
_OPENERS = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = set(_OPENERS.values())


def _base(label: str) -> str:
    # Strip function tags / indices (NP-SBJ -> NP) but keep -LRB- style labels.
    head = label.split("=")[0].split("-")[0]
    return head if head else label


def _first_verb_tag(node: TreeNode) -> str | None:
    for leaf in leaves(node):
        if leaf.label.startswith("VB"):
            return leaf.label
    return None


def _is_comma(node: TreeNode, texts) -> bool:
    return not node.children and texts[node.span.start] == ","


def _head_preposition(pp: TreeNode, texts) -> str | None:
    for leaf in leaves(pp):
        if leaf.label in ("IN", "TO"):
            return texts[leaf.span.start].lower()
    return None


@dataclass
class _Candidate:
    span: Span
    rule: RuleId
    node_label: str
    parent_span: Span | None  # absorption never reaches outside this
    absorb: bool


def extract_options(tree: SentenceTree) -> list[CompressionOption]:
    """All compression options of a sentence, sorted by (start, -length).

    Duplicate spans keep the rule listed first in RuleId order. Options may
    nest but never partially overlap; a span covering the whole sentence is
    never emitted. The output is already what normalize_options would return,
    so callers use it as is.
    """
    n = len(tree.tokens)
    texts = tree.tokens
    candidates: list[_Candidate] = []

    for node in iter_nodes(tree.root):
        if not node.children:
            continue
        parent_label = _base(node.label)
        kids = node.children
        for idx, child in enumerate(kids):
            child_label = _base(child.label)

            # Appositive: NP child of NP between a comma and a comma or the
            # constituent end; the commas belong to the span.
            if child_label == "NP" and parent_label == "NP" and idx > 0:
                prev = kids[idx - 1]
                if _is_comma(prev, texts):
                    nxt = kids[idx + 1] if idx + 1 < len(kids) else None
                    if nxt is None:
                        span = Span(prev.span.start, child.span.end)
                    elif _is_comma(nxt, texts):
                        span = Span(prev.span.start, nxt.span.end)
                    else:
                        span = None
                    if span is not None:
                        candidates.append(_Candidate(
                            span, RuleId.APPOSITIVE_NP, child.label,
                            node.span, absorb=False))

            if child_label == "SBAR" and child.children:
                first_leaf = leaves(child)[0]
                if parent_label == "NP" and (
                        first_leaf.label in _WH_LEAF_TAGS
                        or _base(child.children[0].label) in _WH_PHRASE_LABELS):
                    candidates.append(_Candidate(
                        child.span, RuleId.RELATIVE_CLAUSE, child.label,
                        node.span, absorb=True))
                elif parent_label in ("S", "VP") and first_leaf.label == "IN":
                    candidates.append(_Candidate(
                        child.span, RuleId.ADVERBIAL_CLAUSE, child.label,
                        node.span, absorb=True))

            # Pre-modifying ADJP or bare adjective inside an NP, provided a
            # nominal head follows (so the NP head itself is never an option).
            if parent_label == "NP" and (
                    child_label == "ADJP"
                    or (not child.children and child.label in _ADJ_TAGS)):
                if any(_base(sib.label).startswith("NN") or _base(sib.label) == "NX"
                       for sib in kids[idx + 1:]):
                    candidates.append(_Candidate(
                        child.span, RuleId.ADJP_IN_NP, child.label,
                        node.span, absorb=True))

            if child_label == "ADVP" and parent_label in ("S", "VP"):
                candidates.append(_Candidate(
                    child.span, RuleId.ADVP, child.label, node.span, absorb=True))

            # Bare RB pre-modifier of a VP: an RB leaf before the first verb.
            if parent_label == "VP" and not child.children and child.label == "RB":
                verb_positions = [j for j, sib in enumerate(kids)
                                  if not sib.children and sib.label.startswith("VB")]
                if verb_positions and idx < verb_positions[0]:
                    candidates.append(_Candidate(
                        child.span, RuleId.ADVP, child.label, node.span, absorb=True))

            if child_label == "VP" and parent_label == "NP":
                if _first_verb_tag(child) == "VBG":
                    candidates.append(_Candidate(
                        child.span, RuleId.GERUNDIVE_VP_IN_NP, child.label,
                        node.span, absorb=True))

            if child_label == "PP" and parent_label in ("VP", "S"):
                has_np_right = any(_base(sib.label) == "NP" for sib in kids[idx + 1:])
                prep = _head_preposition(child, texts)
                if not has_np_right or (prep is not None and prep in DEFAULT_ADJUNCT_PREPOSITIONS):
                    candidates.append(_Candidate(
                        child.span, RuleId.PP_CONFIG, child.label,
                        node.span, absorb=True))

            if child_label == "PRN":
                candidates.append(_Candidate(
                    child.span, RuleId.PARENTHETICAL, child.label,
                    node.span, absorb=True))

    # Matching bracket pairs outside any PRN constituent, brackets absorbed.
    stack: list[tuple[str, int]] = []
    for i, text in enumerate(texts):
        if text in _OPENERS:
            stack.append((text, i))
        elif text in _CLOSERS:
            if stack and _OPENERS[stack[-1][0]] == text:
                _, start = stack.pop()
                candidates.append(_Candidate(
                    Span(start, i + 1), RuleId.PARENTHETICAL, "PRN",
                    None, absorb=False))

    candidates = _dedupe(candidates)
    _absorb_commas(candidates, texts)
    candidates = _dedupe(candidates)

    options: list[CompressionOption] = []
    kept_spans: list[Span] = []
    for cand in sorted(candidates,
                       key=lambda c: (c.span.start, -len(c.span), RULE_ORDER[c.rule])):
        if len(cand.span) >= n:
            continue
        if all(cand.span.compatible(span) for span in kept_spans):
            kept_spans.append(cand.span)
            options.append(CompressionOption(cand.span, cand.rule, cand.node_label))
    return options  # spans are unique, so already in (start, -length) order


def _dedupe(candidates: list[_Candidate]) -> list[_Candidate]:
    by_span: dict[Span, _Candidate] = {}
    for cand in sorted(candidates,
                       key=lambda c: (RULE_ORDER[c.rule], c.span.start, -len(c.span))):
        by_span.setdefault(cand.span, cand)
    return list(by_span.values())


def _absorb_commas(candidates: list[_Candidate], texts) -> None:
    """Absorb one adjacent comma per clause-level option, left preferred.

    A comma is taken only when it lies inside the matched node's parent and
    the widened span stays nested-or-disjoint with every other candidate, so
    the global layout invariant survives absorption.
    """
    order = sorted(range(len(candidates)),
                   key=lambda i: (candidates[i].span.start,
                                  -len(candidates[i].span),
                                  RULE_ORDER[candidates[i].rule]))
    for i in order:
        cand = candidates[i]
        if not cand.absorb or cand.parent_span is None:
            continue
        others = [c.span for j, c in enumerate(candidates) if j != i]
        span = cand.span
        left = span.start - 1
        if left >= cand.parent_span.start and texts[left] == ",":
            widened = Span(left, span.end)
            if all(widened.compatible(other) for other in others):
                cand.span = widened
                continue
        right = span.end
        if right < cand.parent_span.end and texts[right] == ",":
            widened = Span(span.start, right + 1)
            if all(widened.compatible(other) for other in others):
                cand.span = widened
