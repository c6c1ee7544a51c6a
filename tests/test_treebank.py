"""Treebank parsing, spans, and surviving tokens."""

import copy
import pickle
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

import corpusgen
import reference_treebank
from conftest import startup_recursion_limit
from corpusgen import deep_chain
from compsum import Document, treebank
from compsum.corpus import document_from_record, document_to_record
from compsum.treebank import (
    _LEX,
    _lex,
    BRACKET_ESCAPE,
    MAX_DEPTH,
    ParseError,
    PartialOverlapError,
    SentenceTree,
    Span,
    ensure_nest_or_disjoint,
    node_arrays,
    parse_ptb,
    surviving_tokens,
)


_PIECES = ["(", ")", " ", "w", "NP", "-LRB-", "(NN w)", "(X "]
_OPENERS = ["(", "(X ", "(-LRB- ", "((", "( "]


def _structure(tree):
    """Labels, spans and child counts in pre-order, and the words with their
    positions: of a SentenceTree, read off node_arrays of its parse; of the
    reference parser's tree, read off its nodes."""
    if isinstance(tree, SentenceTree):
        labels, starts, ends, kids, _ = node_arrays(tree.parse)
        nodes = [(label, start, end, len(children))
                 for label, start, end, children in zip(labels, starts, ends, kids)]
    else:
        nodes = [(node.label, node.span.start, node.span.end, len(node.children))
                 for node in reference_treebank.iter_nodes(tree.root)]
    return nodes, list(enumerate(tree.tokens))


def _outcome(parse, text):
    """A parse's tree structure, or the message and offset of its ParseError."""
    try:
        return _structure(parse(text))
    except ParseError as exc:
        return str(exc), exc.offset


def _loaded(text):
    """The sentence of a corpus record whose one parse is text, loaded as a
    command loads it."""
    try:
        expected = reference_treebank.parse_ptb(text).tokens
    except ParseError:
        expected = ()
    record = {"id": "d", "sentences": [
        {"parse": text, "tokens": [BRACKET_ESCAPE.get(tok, tok) for tok in expected]}]}
    try:
        (sentence,) = document_from_record(record).sentences
    except ValueError as exc:
        assert isinstance(exc.__cause__, ParseError), exc
        raise exc.__cause__
    assert sentence.parse == text and sentence.tokens == expected
    return sentence


def _check_against_reference(text):
    expected = _outcome(reference_treebank.parse_ptb, text)
    with startup_recursion_limit():
        assert _outcome(parse_ptb, text) == expected
        # a load rejects what the reference rejects, with its message and
        # offset, and the nodes the rules read of it are the reference's
        assert _outcome(_loaded, text) == expected


@st.composite
def _trees(draw, depth=0):
    """Bracketed trees with optional labels, escaped tokens and stray spaces."""
    space = draw(st.sampled_from([" ", "  ", ""]))
    if depth >= 5 or draw(st.booleans()):
        tag = draw(st.sampled_from(["NN", "-LRB-", "X"]))
        word = draw(st.sampled_from(["w", "-LRB-", "-RRB-"]))
        return f"({tag} {word}{space})"
    label = draw(st.sampled_from(["S", "NP", ""]))
    kids = draw(st.lists(_trees(depth + 1), min_size=1, max_size=3))
    return f"({label}{space}" + " ".join(kids) + ")"


class TestLex:
    def test_split_lexer_matches_regex_lexer_at_each_space_and_bracket(self):
        # every character the regular expression or str.split takes for whitespace
        spaces = [c for c in map(chr, range(0x110000)) if c.isspace() or re.match(r"\s", c)]
        assert " " in spaces and "\x1c" in spaces and "\u3000" in spaces
        for c in [*spaces, "(", ")"]:
            for text in (f"w{c}w", f"(X{c}w{c})", f"{c}{c}(w{c}", c):
                assert _lex(text) == _LEX.findall(text), repr(c)

    def test_split_lexer_matches_regex_lexer_over_every_code_point(self):
        # adjacent, so a character the two lexers class differently would
        # split or join a lexeme of one and not of the other
        text = "".join(map(chr, range(0x110000)))
        assert _lex(text) == _LEX.findall(text)


class TestParse:
    def test_minimal_two_leaf_tree(self):
        tree = parse_ptb("(NP (DT the) (NN cat))")
        labels, starts, ends, _, _ = node_arrays(tree.parse)
        assert (labels[0], starts[0], ends[0]) == ("NP", 0, 2)
        assert tree.tokens == ("the", "cat")
        assert tree.token_texts is tree.tokens

    def test_spans_follow_leaf_order(self):
        tree = parse_ptb("(S (NP (PRP He)) (VP (VBD ran)))")
        _, starts, ends, kids, _ = node_arrays(tree.parse)
        assert (starts[0], ends[0]) == (0, 2)
        np_node, vp_node = kids[0]
        assert (starts[np_node], ends[np_node]) == (0, 1)
        assert (starts[vp_node], ends[vp_node]) == (1, 2)

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
        assert hash(parse_ptb(wrapped)) == hash(parse_ptb(inner))
        assert node_arrays(wrapped) == node_arrays(inner)

    def test_bracket_tokens_stored_unescaped(self):
        tree = parse_ptb("(NP (-LRB- -LRB-) (NN cost) (-RRB- -RRB-))")
        assert tree.tokens == ("(", "cost", ")")
        # labels keep their escaped form
        assert node_arrays(tree.parse).labels[1] == "-LRB-"

    def test_serialization_escapes_brackets(self):
        source = "(NP (-LRB- -LRB-) (NN cost) (-RRB- -RRB-))"
        record = document_to_record(Document(id="d", sentences=(parse_ptb(source),)))
        assert record["sentences"] == [
            {"tokens": ["-LRB-", "cost", "-RRB-"], "parse": source}]

    def test_roundtrip_token_sequence(self):
        source = "(S (NP (DT the) (JJ big) (NN dog)) (VP (VBD ran) (ADVP (RB home))) (. .))"
        tree = parse_ptb(source)
        assert tree.parse == source
        assert parse_ptb(tree.parse) == tree
        doc = Document(id="d", sentences=(tree,))
        assert document_from_record(document_to_record(doc)) == doc

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
        assert tree.tokens == ("w",)
        assert tree.parse == source
        assert node_arrays(source).labels == ["X"] * (MAX_DEPTH - 1) + ["NN"]

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
        with startup_recursion_limit():
            try:
                tree = parse_ptb(text)
            except ParseError:
                return
        assert isinstance(tree, SentenceTree)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_bracket_strings_parse_as_reference_parser(self, data):
        depth = data.draw(st.integers(0, 1000), label="depth")
        opener = data.draw(st.sampled_from(_OPENERS), label="opener")
        body = data.draw(st.lists(st.sampled_from(_PIECES + ["((", "( "]), max_size=30),
                         label="body")
        closing = data.draw(st.one_of(st.just(depth), st.integers(0, depth)), label="closing")
        _check_against_reference(opener * depth + "".join(body) + ")" * closing)

    @given(_trees(), st.integers(0, 200), st.sampled_from(["", "(", ")", "w", "( ", "(X "]),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_edited_trees_parse_as_reference_parser(self, tree, at, insert, delete):
        # one character deleted or one piece inserted, or neither, at a drawn place
        at = min(at, len(tree))
        text = tree[:at] + insert + tree[at + delete:]
        _check_against_reference(text)

    def test_corpus_sentences_parse_as_reference_parser(self):
        docs = corpusgen.fixture_corpus() + corpusgen.learnable_corpus(200)[0]
        for doc in docs:
            for tree in doc.sentences:
                _check_against_reference(tree.parse)
                assert parse_ptb(tree.parse) == tree

    @pytest.mark.parametrize("source,first_unlabeled", [
        ("(S ((A a) (B b)) ((C c) (D d)))", 3),
        ("(S ((X ((A a) (B b))) (C c)))", 3),
        ("( ((A a) (B b)) (C c))", 0),
        ("(((X ((A a))) (B b)))", 1),
    ])
    def test_first_unlabeled_node_in_pre_order_is_reported(self, source, first_unlabeled):
        with pytest.raises(ParseError) as err:
            parse_ptb(source)
        assert "unlabeled internal node" in str(err.value)
        assert err.value.offset == first_unlabeled
        _check_against_reference(source)

    def test_token_indices_consecutive(self):
        tree = parse_ptb("(S (A a) (B b) (C c) (D d))")
        assert tree.tokens == ("a", "b", "c", "d")
        _, starts, ends, kids, _ = node_arrays(tree.parse)
        assert [(starts[i], ends[i]) for i in range(len(kids)) if not kids[i]] == [
            (i, i + 1) for i in range(4)]

    def test_matches_hand_built_tree(self):
        parsed = parse_ptb("(S (NP (PRP He)) (VP (VBD ran)))")
        hand_built = ([("S", 0, 2, 2), ("NP", 0, 1, 1), ("PRP", 0, 1, 0),
                       ("VP", 1, 2, 1), ("VBD", 1, 2, 0)], [(0, "He"), (1, "ran")])
        assert _structure(parsed) == hand_built


class TestNodes:
    SOURCE = "(S (NP (DT the) (NN cat)) (VP (VBD sat)))"

    def test_equal_and_hashed_by_value(self):
        a, b = parse_ptb(self.SOURCE), parse_ptb(self.SOURCE)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != parse_ptb("(S (NP (DT the) (NN dog)) (VP (VBD sat)))")
        assert {Span(0, 3): "root"}[Span(0, 3)] == "root"
        # the hash of the field tuple, as the frozen dataclasses had, so sets
        # of spans iterate in the same order
        assert hash(Span(3, 5)) == hash((3, 5))

    def test_immutable(self):
        tree = parse_ptb(self.SOURCE)
        for obj, field in [(tree, "root"), (tree, "tokens"), (tree, "parse"),
                           (Span(0, 3), "start")]:
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
        with pytest.raises(AttributeError):
            tree.extra = 1
        with pytest.raises(AttributeError):
            del tree.parse
        tree.__init__("(NN dog)")   # a second __init__ does not make the tree over
        assert tree.parse == self.SOURCE
        with pytest.raises(TypeError):
            tree.tokens[0] = "dog"

    def test_sentence_of_a_checked_string_keeps_it_as_given(self):
        wrapped = f"( {self.SOURCE} )"
        tree = SentenceTree(wrapped)
        assert (tree.parse, tree.tokens, len(tree)) == (wrapped, ("the", "cat", "sat"), 3)
        parsed = parse_ptb(self.SOURCE)
        assert tree == parsed and hash(tree) == hash(parsed)
        with pytest.raises(ParseError, match="unbalanced"):
            SentenceTree(self.SOURCE[:-1])

    @pytest.mark.parametrize("text", [SOURCE, f"( {SOURCE} )", "(NN w)", "( (NN w))",
                                      deep_chain(MAX_DEPTH)],
                             ids=["tree", "wrapped-tree", "leaf", "wrapped-leaf",
                                  "max-depth-chain"])
    def test_root_of_a_loaded_sentence_is_built_without_a_second_scan(self, text,
                                                                     monkeypatch):
        # equality, hashing, copies' equality and the rules' arrays read the
        # checked parse without checking it again
        other = SentenceTree(text)
        scanned = []
        scan = treebank._scan

        def counted_scan(text, lexemes):
            scanned.append(text)
            return scan(text, lexemes)

        monkeypatch.setattr(treebank, "_scan", counted_scan)
        loaded = SentenceTree(text)
        assert scanned == [text]
        assert loaded == other and hash(loaded) == hash(other)
        structure = _structure(loaded)
        assert scanned == [text]
        assert structure == _structure(reference_treebank.parse_ptb(text))

    @pytest.mark.parametrize("make", [SentenceTree, parse_ptb], ids=["constructor", "parse_ptb"])
    def test_copies_keep_parse_tokens_and_tree(self, make):
        tree = make(f"(ROOT  {self.SOURCE})")
        for copied in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
            assert (copied.parse, copied.tokens, copied) == (tree.parse, tree.tokens, tree)

    @pytest.mark.parametrize("make", [
        SentenceTree, parse_ptb, lambda text: pickle.loads(pickle.dumps(_Pickled(text))),
    ], ids=["constructor", "parse_ptb", "unpickling"])
    @pytest.mark.parametrize("text, error", [
        ("(A B (NN w))", "mixed token and subtree content (char 5)"),
        ("(S (NN w)", "unbalanced parentheses (char 9)"),
        ("(S ((NN w)))", "unlabeled internal node (char 3)"),
    ], ids=["label-with-a-space", "unbalanced", "unlabeled-node"])
    def test_every_way_of_making_a_sentence_checks_its_parse(self, make, text, error):
        # the rules and a copy read the parse alone, so none is made unchecked
        with pytest.raises(ParseError) as err:
            make(text)
        assert str(err.value) == error

    def test_span_order_length_and_repr(self):
        assert sorted([Span(2, 3), Span(0, 2), Span(0, 1)]) == [Span(0, 1), Span(0, 2), Span(2, 3)]
        assert len(Span(2, 5)) == 3
        assert repr(Span(0, 1)) == "Span(start=0, end=1)"

    def test_iter_nodes_is_pre_order(self):
        root = reference_treebank.parse_ptb(self.SOURCE).root
        assert [n.label for n in reference_treebank.iter_nodes(root)] == [
            "S", "NP", "DT", "NN", "VP", "VBD"]
        assert [n.label for n in reference_treebank.leaves(root)] == ["DT", "NN", "VBD"]

    def test_hand_built_deep_chain_serializes_and_traverses(self):
        # a chain as deep as a parse may be; one level more is rejected
        source = deep_chain(MAX_DEPTH)
        doc = Document(id="deep", sentences=(SentenceTree(source),))
        with startup_recursion_limit():
            record = document_to_record(doc)
            labels = node_arrays(source).labels
            root = reference_treebank.parse_ptb(source).root
            reference_labels = [n.label for n in reference_treebank.iter_nodes(root)]
            leaves = [n.label for n in reference_treebank.leaves(root)]
        assert record["sentences"][0]["parse"] == source
        assert labels == reference_labels == ["X"] * (MAX_DEPTH - 1) + ["NN"]
        assert leaves == ["NN"]
        with pytest.raises(ValueError, match=f"deeper than {MAX_DEPTH} levels"):
            SentenceTree(deep_chain(MAX_DEPTH + 1))

    @given(_trees(), _trees(), st.sampled_from(["other", "spaced", "wrapped", "relabelled"]))
    @settings(max_examples=200, deadline=None)
    def test_equal_exactly_when_the_reference_trees_and_words_are(self, a, b, variant):
        # the second parse is another tree, or the first re-spaced, wrapped
        # or with one tag changed
        relabelled = (a.replace("(NN ", "(X ", 1) if "(NN " in a
                      else a.replace("(X ", "(NN ", 1))
        b = {"other": b, "spaced": a.replace("(", "( ").replace(")", " ) "),
             "wrapped": f"({a})", "relabelled": relabelled}[variant]
        try:
            expected = reference_treebank.parse_ptb(a) == reference_treebank.parse_ptb(b)
        except ParseError:
            assume(False)
        first, second = parse_ptb(a), parse_ptb(b)
        assert (first == second) == expected
        if expected:
            assert hash(first) == hash(second)


class _Pickled:
    """Pickles as a SentenceTree does, with its text in place of a checked parse."""

    def __init__(self, text):
        self.text = text

    def __reduce__(self):
        make, _ = parse_ptb("(NN w)").__reduce__()
        return make, (self.text,)


class TestSpans:
    def test_leaf_span(self):
        _, starts, ends, kids, _ = node_arrays("(S (A a) (B b) (C c) (D d))")
        leaf = kids[0][3]
        assert (starts[leaf], ends[leaf]) == (3, 4)

    def test_root_spans_whole_sentence(self):
        tree = parse_ptb("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        _, starts, ends, _, _ = node_arrays(tree.parse)
        assert (starts[0], ends[0]) == (0, len(tree.tokens))

    def test_internal_span_is_union_of_children(self):
        _, starts, ends, kids, _ = node_arrays(
            "(S (NP (DT the) (JJ big) (NN dog)) (VP (VBD ran)))")
        for node, children in enumerate(kids):
            if children:
                assert starts[node] == starts[children[0]]
                assert ends[node] == ends[children[-1]]

    def test_span_length_equals_leaf_count(self):
        _, starts, ends, kids, _ = node_arrays(
            "(S (NP (NP (DT the) (NN cat)) (PP (IN on) (NP (DT the) (NN mat)))) (VP (VBD sat)))")
        for node in range(len(kids)):
            leaves = [i for i in range(node, len(kids))
                      if not kids[i] and starts[node] <= starts[i] < ends[node]]
            assert ends[node] - starts[node] == len(leaves)

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            Span(2, 2)
        with pytest.raises(ValueError):
            Span(-1, 3)


class TestRender:
    def setup_method(self):
        self.tree = parse_ptb("(S (A a) (B b) (C c) (D d) (E e))")

    def test_no_deletions_identity(self):
        assert surviving_tokens(self.tree, set()) == ["a", "b", "c", "d", "e"]

    def test_single_deletion(self):
        assert surviving_tokens(self.tree, {Span(1, 2)}) == ["a", "c", "d", "e"]

    def test_nested_deletions(self):
        assert surviving_tokens(self.tree, {Span(1, 4), Span(2, 3)}) == ["a", "e"]

    def test_delete_everything(self):
        assert surviving_tokens(self.tree, {Span(0, 5)}) == []

    def test_partial_overlap_rejected(self):
        with pytest.raises(PartialOverlapError):
            surviving_tokens(self.tree, {Span(0, 2), Span(1, 3)})

    def test_span_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            surviving_tokens(self.tree, {Span(3, 6)})

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(1, 3)), max_size=4))
    def test_order_independence(self, raw):
        tree = parse_ptb("(S " + " ".join(f"(W t{i})" for i in range(8)) + ")")
        spans = []
        for start, length in raw:
            span = Span(start, min(start + length, 8))
            if all(span.compatible(other) for other in spans):
                spans.append(span)
        forward = surviving_tokens(tree, spans)
        backward = surviving_tokens(tree, list(reversed(spans)))
        assert forward == backward

    def test_union_of_sets_matches_incremental(self):
        s1 = {Span(0, 1)}
        s2 = {Span(2, 4)}
        assert (surviving_tokens(self.tree, s1 | s2)
                == surviving_tokens(self.tree, sorted(s1 | s2)))


def test_ensure_nest_or_disjoint_accepts_nested():
    ensure_nest_or_disjoint([Span(0, 5), Span(1, 3), Span(1, 2), Span(6, 8)])


def test_ensure_nest_or_disjoint_rejects_partial():
    with pytest.raises(PartialOverlapError):
        ensure_nest_or_disjoint([Span(0, 3), Span(2, 5)])
