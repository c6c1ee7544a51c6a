"""Feature vectors: determinism, documented components, state updates."""

import numpy as np
import pytest

import corpusgen
from compsum import Document, parse_ptb
from compsum.features import (
    DOC_FEATURE_DIM,
    OPTION_FEATURE_DIM,
    SENTENCE_FEATURE_DIM,
    STATE_DIM,
    DocumentContext,
    advance_state,
    featurize_option,
    initial_state,
    option_table,
)
from compsum.rules import extract_options, normalize_options


@pytest.fixture
def doc():
    return corpusgen.fixture_corpus()[6]  # fix-pp: two sentences with options


class TestSentenceFeatures:
    def test_dimensions(self, doc):
        assert DocumentContext(doc).sentence_features[0].shape == (SENTENCE_FEATURE_DIM,)
        assert DocumentContext(doc).document_features.shape == (DOC_FEATURE_DIM,)

    def test_first_sentence_position_zero(self, doc):
        assert DocumentContext(doc).sentence_features[0][0] == 0.0

    def test_single_sentence_doc_full_overlap(self):
        tree = parse_ptb("(S (NN storm) (NN coast))")
        doc = Document(id="solo", sentences=(tree,))
        feats = DocumentContext(doc).sentence_features[0]
        assert feats[2] == 1.0  # covers the whole document vocabulary

    def test_lead3_indicator(self):
        sents = tuple(corpusgen.flat_tree([f"w{i}"]) for i in range(5))
        doc = Document(id="lead", sentences=sents)
        flags = [DocumentContext(doc).sentence_features[i][5] for i in range(5)]
        assert flags == [1.0, 1.0, 1.0, 0.0, 0.0]

    def test_stopword_fraction(self):
        tree = parse_ptb("(S (DT the) (NN storm))")
        doc = Document(id="stop", sentences=(tree,))
        assert DocumentContext(doc).sentence_features[0][3] == 0.5

    def test_capitalized_fraction_skips_sentence_start(self):
        tree = parse_ptb("(S (NNP London) (VBD called) (NNP Paris))")
        doc = Document(id="cap", sentences=(tree,))
        assert DocumentContext(doc).sentence_features[0][4] == pytest.approx(1.0 / 3.0)

    def test_deterministic(self, doc):
        first, second = DocumentContext(doc), DocumentContext(doc)
        assert np.array_equal(first.sentence_features, second.sentence_features)
        assert np.array_equal(first.document_features, second.document_features)


class TestDecoderState:
    def test_initial_state_is_zero(self):
        state = initial_state(3)
        assert state.vector.shape == (STATE_DIM,)
        assert np.all(state.vector == 0.0)
        assert state.selected == ()
        assert state.covered == frozenset()

    def test_advance_updates_components(self, doc):
        ctx = DocumentContext(doc)
        state = advance_state(ctx, initial_state(2), 0)
        assert state.selected == (0,)
        assert state.covered == ctx.sentence_types[0]
        assert state.vector[0] == 0.5  # one of two selections made
        assert np.allclose(state.vector[1:7], ctx.sentence_features[0])
        assert 0.0 < state.vector[7] <= 1.0

    def test_full_selection_has_full_coverage(self, doc):
        ctx = DocumentContext(doc)
        state = initial_state(len(doc.sentences))
        for i in range(len(doc.sentences)):
            state = advance_state(ctx, state, i)
        assert state.covered == set(ctx.doc_counts)
        assert state.vector[7] == 1.0


class TestOptionFeatures:
    def _option(self, doc, sent_index):
        tree = doc.sentences[sent_index]
        options = normalize_options(extract_options(tree), len(tree.tokens))
        return options[0]

    def test_dimensions_and_rule_onehot(self, doc):
        option = self._option(doc, 0)
        feats = featurize_option(DocumentContext(doc), 0, option, initial_state(2))
        assert feats.shape == (OPTION_FEATURE_DIM,)
        assert feats[:8].sum() == 1.0

    def test_tokens_recurring_elsewhere(self):
        # option tokens all recur in the second sentence
        t1 = parse_ptb("(S (NP (DT the) (NN senate)) (VP (VBD met) (PP (IN on) (NP (NN budget)))) (. .))")
        t2 = parse_ptb("(S (NN on) (NN budget) (NN talks))")
        doc = Document(id="re", sentences=(t1, t2))
        option = self._option(doc, 0)
        assert option.span.start == 3  # "on budget"
        feats = featurize_option(DocumentContext(doc), 0, option, initial_state(2))
        assert feats[10] == 1.0  # elsewhere-in-document fraction

    def test_summary_overlap_fraction(self, doc):
        ctx = DocumentContext(doc)
        option = self._option(doc, 1)
        empty = featurize_option(ctx, 1, option, initial_state(2))
        assert empty[11] == 0.0
        after = featurize_option(ctx, 1, option, advance_state(ctx, initial_state(2), 0))
        assert 0.0 <= after[11] <= 1.0

    def test_parent_sentence_features_embedded(self, doc):
        ctx = DocumentContext(doc)
        option = self._option(doc, 0)
        feats = featurize_option(ctx, 0, option, initial_state(2))
        assert np.array_equal(feats[13:], ctx.sentence_features[0])


class TestOptionTable:
    def test_filled_table_equals_featurize_option_per_option(self):
        # the table computes every column but coverage once per document;
        # filled for a state, it holds the bits of each option featurized alone
        docs = corpusgen.learnable_corpus(count=20)[0] + corpusgen.fixture_corpus()
        filled = 0
        for doc in docs:
            ctx = DocumentContext(doc)
            last = len(doc.sentences) - 1
            states = [initial_state(3)]
            states.append(advance_state(ctx, states[-1], last))
            states.append(advance_state(ctx, states[-1], 0))
            for index, tree in enumerate(doc.sentences):
                options = extract_options(tree)
                table = option_table(ctx, index, options)
                for state in states:
                    rows = np.empty((len(options), OPTION_FEATURE_DIM))
                    table.fill(rows, state)
                    expected = [featurize_option(ctx, index, option, state)
                                for option in options]
                    if expected:
                        assert rows.tobytes() == np.stack(expected).tobytes()
                        filled += 1
                    else:
                        assert rows.shape == (0, OPTION_FEATURE_DIM)
        assert filled > 3 * len(docs)
