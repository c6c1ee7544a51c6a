"""Treebank parsing, spans, and deletion rendering."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from corpusgen import deep_chain
from compsum.treebank import (
    MAX_DEPTH,
    ParseError,
    SentenceTree,
    Span,
    Token,
    TreeNode,
    ensure_nest_or_disjoint,
    node_span,
    parse_ptb,
    render_with_deletions,
    to_ptb,
)


_PIECES = ["(", ")", " ", "w", "NP", "-LRB-", "(NN w)", "(X "]

# Hypothesis raises the recursion limit while a test runs; a command parses
# its corpus under the limit the interpreter started with.
_STARTUP_RECURSION_LIMIT = sys.getrecursionlimit()


class TestParse:
    def test_minimal_two_leaf_tree(self):
        tree = parse_ptb("(NP (DT the) (NN cat))")
        assert tree.root.label == "NP"
        assert tree.root.span == Span(0, 2)
        assert tree.token_texts == ("the", "cat")

    def test_spans_follow_leaf_order(self):
        tree = parse_ptb("(S (NP (PRP He)) (VP (VBD ran)))")
        assert tree.root.span == Span(0, 2)
        np_node, vp_node = tree.root.children
        assert np_node.span == Span(0, 1)
        assert vp_node.span == Span(1, 2)

    @pytest.mark.parametrize("wrapped,inner", [
        ("((S (NP (PRP He)) (VP (VBD ran))))", "(S (NP (PRP He)) (VP (VBD ran)))"),
        ("( (NP (DT the) (NN cat)) )", "(NP (DT the) (NN cat))"),
        ("((VP (VB go)))", "(VP (VB go))"),
        ("( (S (NP (NN snow)) (VP (VBD fell) (ADVP (RB fast)))) )",
         "(S (NP (NN snow)) (VP (VBD fell) (ADVP (RB fast))))"),
        ("((X (Y (A a) (B b)) (Z (C c))))", "(X (Y (A a) (B b)) (Z (C c)))"),
    ])
    def test_unlabeled_wrapper_unwrapped(self, wrapped, inner):
        assert parse_ptb(wrapped) == parse_ptb(inner)

    def test_bracket_tokens_stored_unescaped(self):
        tree = parse_ptb("(NP (-LRB- -LRB-) (NN cost) (-RRB- -RRB-))")
        assert tree.token_texts == ("(", "cost", ")")
        assert tree.tokens[0].text == "("
        # labels keep their escaped form
        assert tree.root.children[0].label == "-LRB-"

    def test_serialization_escapes_brackets(self):
        source = "(NP (-LRB- -LRB-) (NN cost) (-RRB- -RRB-))"
        assert to_ptb(parse_ptb(source)) == source

    def test_roundtrip_token_sequence(self):
        source = "(S (NP (DT the) (JJ big) (NN dog)) (VP (VBD ran) (ADVP (RB home))) (. .))"
        tree = parse_ptb(source)
        assert to_ptb(tree) == source
        assert parse_ptb(to_ptb(tree)) == tree

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_ptb("")
        with pytest.raises(ParseError):
            parse_ptb("   ")

    def test_unbalanced_open_reports_offset(self):
        text = "(S (NP (NN dog)"
        with pytest.raises(ParseError) as err:
            parse_ptb(text)
        assert err.value.offset == len(text)

    def test_trailing_content_reports_offset(self):
        with pytest.raises(ParseError) as err:
            parse_ptb("(NN dog) extra")
        assert err.value.offset == 9

    def test_two_trees_rejected(self):
        with pytest.raises(ParseError):
            parse_ptb("(NN dog) (NN cat)")

    def test_empty_node_rejected(self):
        with pytest.raises(ParseError):
            parse_ptb("(S (NP))")

    def test_mixed_content_rejected(self):
        with pytest.raises(ParseError):
            parse_ptb("(NP the (NN cat))")

    def test_deepest_accepted_tree_parses_and_roundtrips(self):
        source = deep_chain(MAX_DEPTH)
        tree = parse_ptb(source)
        assert tree.token_texts == ("w",)
        assert to_ptb(tree) == source

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1200])
    def test_too_deep_tree_reports_first_bracket_past_limit(self, depth):
        source = deep_chain(depth)
        with pytest.raises(ParseError) as err:
            parse_ptb(source)
        # "(X " per level: bracket MAX_DEPTH + 1 opens at 3 * MAX_DEPTH
        assert err.value.offset == 3 * MAX_DEPTH
        assert source[err.value.offset] == "("
        assert f"deeper than {MAX_DEPTH} levels" in str(err.value)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bracket_strings_raise_only_parse_error(self, data):
        depth = data.draw(st.integers(0, 1000), label="depth")
        opener = data.draw(st.sampled_from(["(", "(X ", "(-LRB- "]), label="opener")
        body = data.draw(st.lists(st.sampled_from(_PIECES), max_size=30), label="body")
        closing = data.draw(st.one_of(st.just(depth), st.integers(0, depth)), label="closing")
        text = opener * depth + "".join(body) + ")" * closing
        raised_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_STARTUP_RECURSION_LIMIT)
        try:
            tree = parse_ptb(text)
        except ParseError:
            return
        finally:
            sys.setrecursionlimit(raised_limit)
        assert isinstance(tree, SentenceTree)

    def test_token_indices_consecutive(self):
        tree = parse_ptb("(S (A a) (B b) (C c) (D d))")
        assert [t.index for t in tree.tokens] == [0, 1, 2, 3]

    def test_matches_hand_built_tree(self):
        parsed = parse_ptb("(S (NP (PRP He)) (VP (VBD ran)))")
        hand_built = SentenceTree(
            root=TreeNode("S", (
                TreeNode("NP", (TreeNode("PRP", (), Span(0, 1)),), Span(0, 1)),
                TreeNode("VP", (TreeNode("VBD", (), Span(1, 2)),), Span(1, 2)),
            ), Span(0, 2)),
            tokens=(Token("He", 0), Token("ran", 1)))
        assert parsed == hand_built


class TestSpans:
    def test_leaf_span(self):
        tree = parse_ptb("(S (A a) (B b) (C c) (D d))")
        leaf = tree.root.children[3]
        assert node_span(leaf) == Span(3, 4)

    def test_root_spans_whole_sentence(self):
        tree = parse_ptb("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        assert node_span(tree.root) == Span(0, len(tree.tokens))

    def test_internal_span_is_union_of_children(self):
        tree = parse_ptb("(S (NP (DT the) (JJ big) (NN dog)) (VP (VBD ran)))")
        for node in tree.root.iter_nodes():
            if node.children:
                assert node.span.start == node.children[0].span.start
                assert node.span.end == node.children[-1].span.end

    def test_span_length_equals_leaf_count(self):
        tree = parse_ptb(
            "(S (NP (NP (DT the) (NN cat)) (PP (IN on) (NP (DT the) (NN mat)))) (VP (VBD sat)))")
        for node in tree.root.iter_nodes():
            assert len(node.span) == len(node.leaves())

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            Span(2, 2)
        with pytest.raises(ValueError):
            Span(-1, 3)


class TestRender:
    def setup_method(self):
        self.tree = parse_ptb("(S (A a) (B b) (C c) (D d) (E e))")

    def test_no_deletions_identity(self):
        assert render_with_deletions(self.tree, set()) == "a b c d e"

    def test_single_deletion(self):
        assert render_with_deletions(self.tree, {Span(1, 2)}) == "a c d e"

    def test_nested_deletions(self):
        assert render_with_deletions(self.tree, {Span(1, 4), Span(2, 3)}) == "a e"

    def test_delete_everything(self):
        assert render_with_deletions(self.tree, {Span(0, 5)}) == ""

    def test_partial_overlap_rejected(self):
        with pytest.raises(ValueError):
            render_with_deletions(self.tree, {Span(0, 2), Span(1, 3)})

    def test_span_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            render_with_deletions(self.tree, {Span(3, 6)})

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(1, 3)), max_size=4))
    def test_order_independence(self, raw):
        tree = parse_ptb("(S " + " ".join(f"(W t{i})" for i in range(8)) + ")")
        spans = []
        for start, length in raw:
            span = Span(start, min(start + length, 8))
            if all(span.compatible(other) for other in spans):
                spans.append(span)
        forward = render_with_deletions(tree, spans)
        backward = render_with_deletions(tree, list(reversed(spans)))
        assert forward == backward

    def test_union_of_sets_matches_incremental(self):
        s1 = {Span(0, 1)}
        s2 = {Span(2, 4)}
        assert (render_with_deletions(self.tree, s1 | s2)
                == render_with_deletions(self.tree, sorted(s1 | s2)))


def test_ensure_nest_or_disjoint_accepts_nested():
    ensure_nest_or_disjoint([Span(0, 5), Span(1, 3), Span(1, 2), Span(6, 8)])


def test_ensure_nest_or_disjoint_rejects_partial():
    with pytest.raises(ValueError):
        ensure_nest_or_disjoint([Span(0, 3), Span(2, 5)])
