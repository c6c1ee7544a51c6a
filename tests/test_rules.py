"""Compression-option extraction: 15 hand-annotated fixtures plus the
layout invariants every emitted option list must satisfy."""

import hashlib
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corpusgen
import reference_rules
import reference_treebank
from reference_treebank import iter_nodes
from compsum.rules import (
    RULES_VERSION,
    CompressionOption,
    PartialOverlapError,
    RuleId,
    extract_options,
    normalize_options,
    option_record,
)
from compsum import treebank
from compsum.treebank import (
    MAX_DEPTH,
    SentenceTree,
    Span,
    ensure_nest_or_disjoint,
    parse_ptb,
    surviving_tokens,
)

# Each fixture: source tree, {(start, end): rule} gold annotation.
FIXTURES = [
    # 1. the compression showcase: adjectives, gerundive VP, nested PP
    (
        "fig-nested",
        """(S (NP (NNP Alison)) (VP (VBZ has) (VP (VBN collated)
            (NP (NP (DT a) (NN collection)) (PP (IN of)
              (NP (NP (JJ intimate) (NNS portraits))
                (VP (VBG featuring)
                  (NP (ADJP (JJ well-known)) (NNS artists))
                  (PP (IN with) (NP (PRP$ their) (JJ furry) (NNS friends))))))))) (. .))""",
        {
            (6, 7): RuleId.ADJP_IN_NP,            # intimate
            (8, 15): RuleId.GERUNDIVE_VP_IN_NP,   # featuring ... friends
            (9, 10): RuleId.ADJP_IN_NP,           # well-known
            (11, 15): RuleId.PP_CONFIG,           # with their furry friends
            (13, 14): RuleId.ADJP_IN_NP,          # furry
        },
    ),
    # 2. appositive with both commas
    (
        "appositive-mid",
        "(S (NP (NP (NNP John)) (, ,) (NP (DT a) (NN doctor)) (, ,)) (VP (VBD spoke)) (. .))",
        {(1, 5): RuleId.APPOSITIVE_NP},
    ),
    # 3. appositive at constituent end
    (
        "appositive-end",
        "(S (NP (NP (NNP Mary)) (, ,) (NP (DT the) (NN mayor))) (VP (VBD smiled)) (. .))",
        {(1, 4): RuleId.APPOSITIVE_NP},
    ),
    # 4. restrictive relative clause, no commas
    (
        "relative-bare",
        "(S (NP (NP (DT The) (NN man)) (SBAR (WHNP (WP who)) (S (VP (VBD ran))))) (VP (VBD fell)) (. .))",
        {(2, 4): RuleId.RELATIVE_CLAUSE},
    ),
    # 5. non-restrictive relative clause absorbs its left comma
    (
        "relative-comma",
        "(S (NP (NP (DT The) (NN car)) (, ,) (SBAR (WHNP (WDT which)) (S (VP (VBD broke)))) (, ,)) (VP (VBD stopped)) (. .))",
        {(2, 5): RuleId.RELATIVE_CLAUSE},
    ),
    # 6. adverbial clause inside VP
    (
        "adverbial-vp",
        "(S (NP (PRP He)) (VP (VBD left) (SBAR (IN because) (S (NP (PRP he)) (VP (VBD was) (ADJP (JJ tired)))))) (. .))",
        {(2, 6): RuleId.ADVERBIAL_CLAUSE},
    ),
    # 7. sentence-initial adverbial clause absorbs the right comma
    (
        "adverbial-initial",
        "(S (SBAR (IN Because) (S (NP (PRP it)) (VP (VBD rained)))) (, ,) (NP (PRP we)) (VP (VBD stayed)) (. .))",
        {(0, 4): RuleId.ADVERBIAL_CLAUSE},
    ),
    # 8. clause-initial ADVP absorbs the right comma
    (
        "advp-initial",
        "(S (ADVP (RB However)) (, ,) (NP (PRP he)) (VP (VBD ran)) (. .))",
        {(0, 2): RuleId.ADVP},
    ),
    # 9. bare RB pre-modifier and ADVP child of VP
    (
        "advp-vp",
        "(S (NP (PRP He)) (VP (RB quickly) (VBD ran) (ADVP (RB yesterday))) (. .))",
        {(1, 2): RuleId.ADVP, (3, 4): RuleId.ADVP},
    ),
    # 10. temporal PP with a listed preposition
    (
        "pp-temporal",
        "(S (NP (PRP He)) (VP (VBD arrived) (PP (IN on) (NP (NNP Monday)))) (. .))",
        {(2, 4): RuleId.PP_CONFIG},
    ),
    # 11. argument-like PP: unlisted preposition with an NP to its right
    (
        "pp-argument",
        "(S (NP (PRP She)) (VP (VBD shared) (PP (IN with) (NP (NNS friends))) (NP (DT the) (NN news))) (. .))",
        {},
    ),
    # 12. PRN constituent (bracket pair scan agrees on the same span)
    (
        "parenthetical-prn",
        "(S (NP (NP (DT The) (NN deal)) (PRN (-LRB- -LRB-) (ADJP (JJ worth) (NP (NNS millions))) (-RRB- -RRB-))) (VP (VBD closed)) (. .))",
        {(2, 6): RuleId.PARENTHETICAL},
    ),
    # 13. bare bracket pair without a PRN node
    (
        "parenthetical-brackets",
        "(S (NP (NNP Apple)) (VP (VBD rose) (NP (NP (CD 5) (NN %)) (-LRB- -LRB-) (NP (CD 3) (NNS points)) (-RRB- -RRB-))) (. .))",
        {(4, 8): RuleId.PARENTHETICAL},
    ),
    # 14. nothing matches
    (
        "no-match",
        "(S (NP (PRP He)) (VP (VBD ran)))",
        {},
    ),
    # 15. gerundive VP set off by commas, left comma absorbed
    (
        "gerundive-comma",
        "(S (NP (NP (DT The) (NN storm)) (, ,) (VP (VBG lasting) (NP (NNS hours))) (, ,)) (VP (VBD passed)) (. .))",
        {(2, 5): RuleId.GERUNDIVE_VP_IN_NP},
    ),
]


@pytest.mark.parametrize("name,source,gold", FIXTURES, ids=[f[0] for f in FIXTURES])
def test_fixture_gold_spans(name, source, gold):
    tree = parse_ptb(source)
    options = extract_options(tree)
    found = {(o.span.start, o.span.end): o.rule for o in options}
    assert found == gold


def _all_fixture_trees():
    trees = [parse_ptb(source) for _, source, _ in FIXTURES]
    for doc in corpusgen.fixture_corpus():
        trees.extend(doc.sentences)
    docs, _ = corpusgen.learnable_corpus(count=25, seed=3)
    for doc in docs:
        trees.extend(doc.sentences)
    return trees


class TestInvariants:
    def test_nest_or_disjoint(self):
        for tree in _all_fixture_trees():
            options = extract_options(tree)
            for i, a in enumerate(options):
                for b in options[i + 1:]:
                    assert a.span.compatible(b.span), (a, b)

    def test_sorted_by_start_then_longest(self):
        for tree in _all_fixture_trees():
            options = extract_options(tree)
            keys = [(o.span.start, -len(o.span)) for o in options]
            assert keys == sorted(keys)

    def test_deterministic(self):
        for tree in _all_fixture_trees():
            assert extract_options(tree) == extract_options(tree)

    def test_never_covers_whole_sentence(self):
        for tree in _all_fixture_trees():
            for option in extract_options(tree):
                assert len(option.span) < len(tree.tokens)

    def test_unique_spans(self):
        for tree in _all_fixture_trees():
            spans = [o.span for o in extract_options(tree)]
            assert len(spans) == len(set(spans))

    def test_spans_are_constituents_plus_boundary_commas(self):
        # bracket-pair parentheticals aside, an option is a constituent span
        # optionally widened by adjacent commas
        for tree in _all_fixture_trees():
            texts = tree.token_texts
            allowed = set()
            for node in iter_nodes(tree.root):
                span = node.span
                allowed.add((span.start, span.end))
                if span.start > 0 and texts[span.start - 1] == ",":
                    allowed.add((span.start - 1, span.end))
                    if span.end < len(texts) and texts[span.end] == ",":
                        allowed.add((span.start - 1, span.end + 1))
                if span.end < len(texts) and texts[span.end] == ",":
                    allowed.add((span.start, span.end + 1))
            for option in extract_options(tree):
                if option.rule is RuleId.PARENTHETICAL:
                    continue
                assert (option.span.start, option.span.end) in allowed, option

    @given(st.integers(0, 24), st.integers(0, 255))
    @settings(max_examples=120, deadline=None)
    def test_any_subset_renders_subsequence(self, doc_pick, mask):
        docs, _ = corpusgen.learnable_corpus(count=25, seed=3)
        tree = docs[doc_pick].sentences[doc_pick % len(docs[doc_pick].sentences)]
        options = extract_options(tree)
        chosen = [o.span for i, o in enumerate(options) if mask & (1 << i)]
        rendered = surviving_tokens(tree, chosen)
        original = list(tree.token_texts)
        it = iter(original)
        assert all(tok in it for tok in rendered)  # subsequence check


_PHRASE_LABELS = ["S", "NP", "VP", "PP", "SBAR", "ADJP", "ADVP", "PRN", "X", "WHNP",
                  "NX", "NP-SBJ", "PP-LOC=1", "SBAR-ADV", "VP-2", "ADVP-TMP=2", "S-1"]
_POS_TAGS = ["DT", "NN", "NNS", "JJ", "RB", "IN", "VBD", "VBG", "WDT", ",",
             ".", "-LRB-", "-RRB-", "CC", "TO", "WP"]
_WORDS = ["alpha", "beta", "gamma", "delta", "eps", "on", "who", "because",
          "with", "near", "quickly"]


def _random_tree_source(rng, depth=0):
    # phrases with function tags and indices (NP-SBJ, PP-LOC=1), unary
    # chains, -NONE- empty elements and leaves labelled as phrases
    if depth >= 4 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.08:
            return f"(-NONE- *T*-{int(rng.integers(1, 4))})"
        if roll < 0.2:
            label = _PHRASE_LABELS[rng.integers(0, len(_PHRASE_LABELS))]
            return f"({label} {_WORDS[rng.integers(0, len(_WORDS))]})"
        pos = _POS_TAGS[rng.integers(0, len(_POS_TAGS))]
        if pos in (",", ".", "-LRB-", "-RRB-"):
            return f"({pos} {pos})"
        return f"({pos} {_WORDS[rng.integers(0, len(_WORDS))]})"
    label = _PHRASE_LABELS[rng.integers(0, len(_PHRASE_LABELS))]
    if rng.random() < 0.15:
        return f"({label} {_random_tree_source(rng, depth)})"
    kids = " ".join(_random_tree_source(rng, depth + 1)
                    for _ in range(int(rng.integers(1, 5))))
    return f"({label} {kids})"


def _adversarial_trees():
    """800 adversarial trees, then the fixtures and the learnable corpus."""
    rng = np.random.default_rng(2024)
    adversarial = [parse_ptb(_random_tree_source(rng)) for _ in range(800)]
    fixtures = [parse_ptb(source) for _, source, _ in FIXTURES]
    docs, _ = corpusgen.learnable_corpus(count=50, seed=5)
    learnable = [tree for doc in docs for tree in doc.sentences]
    return adversarial + fixtures + learnable


def test_layout_invariant_on_adversarial_trees():
    # arbitrary tree shapes with commas and brackets in hostile positions, plus
    # the fixtures and the learnable corpus: extraction must emit a renderable
    # layout that normalize_options leaves unchanged, which is why callers use
    # extract_options output without re-checking it
    rng = np.random.default_rng(2024)
    for tree in _adversarial_trees():
        options = extract_options(tree)
        assert normalize_options(options, len(tree.tokens)) == options
        if options:
            mask = int(rng.integers(0, 2 ** min(len(options), 12)))
            spans = [o.span for i, o in enumerate(options) if mask & (1 << i)]
            surviving_tokens(tree, spans)


def test_options_equal_the_reference_matcher():
    # the array matcher against the node-walking one it replaced, on label
    # shapes the output pin does not cover, walking the nodes the reference
    # parser made; the rules read the parse of each sentence: as loaded (its
    # root never built), as parse_ptb read it, and as to_ptb wrote it for a
    # tree built from nodes
    for tree in _adversarial_trees():
        expected = reference_rules.extract_options(reference_treebank.parse_ptb(tree.parse))
        loaded = SentenceTree.from_ptb(tree.parse)
        hand_built = SentenceTree(tree.root, tree.tokens)
        assert hand_built.parse == treebank.to_ptb(tree)
        for sentence in (loaded, tree, hand_built):
            assert extract_options(sentence) == expected, sentence.parse
        assert loaded._root is None


def _arrays_of(tree):
    """What treebank.node_arrays gives, read off the nodes the reference
    parser makes of the tree's parse."""
    nodes = list(iter_nodes(reference_treebank.parse_ptb(tree.parse).root))
    index = {id(node): i for i, node in enumerate(nodes)}
    return ([node.label for node in nodes],
            [node.span.start for node in nodes],
            [node.span.end for node in nodes],
            [[index[id(child)] for child in node.children] for node in nodes],
            [node.label for node in nodes if not node.children])


def test_node_arrays_are_the_nodes_of_the_parsed_tree():
    for tree in _adversarial_trees():
        labels, starts, ends, kids, tags = treebank.node_arrays(tree.parse)
        assert (labels, starts, ends, [list(k) for k in kids], tags) == _arrays_of(tree)


def _frames() -> int:
    frame, count = sys._getframe(), 0
    while frame is not None:
        frame, count = frame.f_back, count + 1
    return count


_CHAIN_DEPTH = MAX_DEPTH - 3    # the sentence below adds the last three levels


@pytest.mark.parametrize("source,spans", [
    # the unlabeled outer wrapper
    ("( (S (NP (NP (NNP John)) (, ,) (NP (DT a) (NN doctor)) (, ,)) (VP (VBD spoke)) (. .)))",
     [(1, 5)]),
    # a leaf labelled SBAR inside an NP is no clause
    ("(S (NP (NN man) (SBAR who)) (VP (VBD ran)))", []),
    # bracket words inside a PRN, and outside one as a bare pair
    ("(S (NP (NP (DT The) (NN deal)) (PRN (-LRB- -LRB-) (NN net) (-RRB- -RRB-)))"
     " (VP (VBD closed) (-LRB- -LRB-) (NN x) (-RRB- -RRB-)) (. .))",
     [(2, 5), (6, 9)]),
    # a chain MAX_DEPTH deep
    ("(X " * _CHAIN_DEPTH + "(S (ADVP (RB However)) (, ,) (NP (PRP he)) (VP (VBD ran)))"
     + ")" * _CHAIN_DEPTH, [(0, 2)]),
], ids=["outer-wrapper", "leaf-sbar-in-np", "brackets-in-and-out-of-prn", "max-depth-chain"])
def test_edge_shapes_give_the_reference_options(source, spans):
    loaded = SentenceTree.from_ptb(source)
    expected = reference_rules.extract_options(parse_ptb(source))
    assert [(o.span.start, o.span.end) for o in expected] == spans
    # room for extract_options' own calls, far less than one frame per level
    raised = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 30)
    try:
        options = extract_options(loaded)
    finally:
        sys.setrecursionlimit(raised)
    assert options == expected
    assert loaded._root is None


_LEARNABLE_TREES = [tree for doc in corpusgen.learnable_corpus(count=25, seed=3)[0]
                    for tree in doc.sentences]
_FIXTURE_TREES = [parse_ptb(source) for _, source, _ in FIXTURES]


@given(st.sampled_from(_FIXTURE_TREES + _LEARNABLE_TREES), st.data())
@settings(max_examples=300, deadline=None)
def test_every_option_subset_is_nest_or_disjoint(tree, data):
    # the guarantee that lets summaries be rendered without re-checking the layout
    options = extract_options(tree)
    chosen = data.draw(st.lists(st.booleans(), min_size=len(options), max_size=len(options)))
    ensure_nest_or_disjoint(o.span for o, keep in zip(options, chosen) if keep)


def test_partial_overlap_error_is_the_treebank_one():
    assert PartialOverlapError is treebank.PartialOverlapError
    assert issubclass(PartialOverlapError, ValueError)


class TestNormalize:
    def test_empty(self):
        assert normalize_options([], 10) == []

    def test_drops_full_sentence_span(self):
        option = CompressionOption(Span(0, 5), RuleId.ADVP, "ADVP")
        assert normalize_options([option], 5) == []

    def test_keeps_nested(self):
        outer = CompressionOption(Span(2, 8), RuleId.GERUNDIVE_VP_IN_NP, "VP")
        inner = CompressionOption(Span(4, 7), RuleId.PP_CONFIG, "PP")
        assert normalize_options([inner, outer], 10) == [outer, inner]

    def test_rejects_partial_overlap(self):
        a = CompressionOption(Span(0, 3), RuleId.ADVP, "ADVP")
        b = CompressionOption(Span(2, 5), RuleId.PP_CONFIG, "PP")
        with pytest.raises(PartialOverlapError):
            normalize_options([a, b], 10)


def test_option_record_format():
    tree = parse_ptb(FIXTURES[1][1])
    options = normalize_options(extract_options(tree), len(tree.tokens))
    record = option_record("doc-1", 0, options)
    assert record == {
        "doc_id": "doc-1",
        "sent_index": 0,
        "options": [{"start": 1, "end": 5, "rule": "APPOSITIVE_NP", "label": "NP"}],
    }


# SHA-256 of the options extract_options emits for the trees of
# fixture_corpus(), learnable_corpus(count=20, seed=7) and FIXTURES, one
# option_record line per sentence, by the RULES_VERSION that emits them. An
# oracle cache is trusted to hold the rules' options when it names the
# current version, so output that changes under the same version is a bug.
RULES_OUTPUT_SHA256 = {
    1: "da808b7d2ee3bce248b88f586b47b8d85ca059a6c5a67e14edd22e5f39e1629e",
}


def test_rules_output_is_pinned_by_rules_version():
    trees = [(doc.id, doc.sentences) for doc in
             corpusgen.fixture_corpus() + corpusgen.learnable_corpus(count=20, seed=7)[0]]
    trees += [(name, (parse_ptb(source),)) for name, source, _ in FIXTURES]
    dump = "".join(json.dumps(option_record(name, i, extract_options(tree))) + "\n"
                   for name, sentences in trees for i, tree in enumerate(sentences))
    digest = hashlib.sha256(dump.encode("utf-8")).hexdigest()
    assert digest == RULES_OUTPUT_SHA256.get(RULES_VERSION), (
        f"extract_options output changed (sha256 {digest}) under RULES_VERSION "
        f"{RULES_VERSION}: bump RULES_VERSION and pin the new digest under it")
