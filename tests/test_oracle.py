"""Beam-search oracle construction, labeling, and compressability reporting."""

import json
import math
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import corpusgen
import reference_oracle
import reference_pipeline
from reference_oracle import exhaustive_oracle, oracle_inputs
from compsum import Document, parse_ptb
from compsum import oracle as oracle_mod
from compsum.corpus import document_from_record, document_to_record
from compsum.oracle import (
    MAX_SENTS,
    CompressabilityBucket,
    CompressionLabel,
    LabeledOption,
    OracleConfig,
    beam_search_oracle,
    bucket_of,
    build_document_oracles,
    compressability_report,
    document_fingerprint,
    label_compressions,
    oracle_header,
    oracle_record,
    read_oracle_cache,
    scoreable_sentences,
    write_oracle_cache,
)
from compsum.rouge import (
    ORACLE_PREPROCESS,
    ReferenceGrams,
    approx_oracle_score,
    preprocess_per_token,
)
from compsum.rules import CompressionOption, RuleId, extract_options, normalize_options
from compsum.treebank import Span


class TestOracleConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert (cfg.k, cfg.beam_width, cfg.m) == (3, 8, 5)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            OracleConfig(k=0)
        with pytest.raises(ValueError):
            OracleConfig(k=31)

    def test_m_bounded_by_beam(self):
        with pytest.raises(ValueError):
            OracleConfig(m=9, beam_width=8)

    def test_zero_oracles_per_document_rejected(self):
        # m=0 once wrote every record with no oracles
        with pytest.raises(ValueError, match="m=0"):
            OracleConfig(m=0)


class TestBeamSearch:
    def test_single_sentence_doc(self):
        tree = corpusgen.flat_tree(["storm", "reached", "coast"])
        doc = Document(id="one", sentences=(tree,), reference=(("storm", "coast"),))
        grams, _, sents = oracle_inputs(doc.sentences, doc.reference_tokens)
        beam = beam_search_oracle(grams, sents, OracleConfig(k=1, m=1))
        assert len(beam) == 1
        assert beam[0].sentence_indices == (0,)
        assert beam[0].score == approx_oracle_score(
            list(tree.token_texts), doc.reference_tokens)

    def test_verbatim_sentence_dominates(self):
        sents = (
            corpusgen.flat_tree(["wind", "howled"]),
            corpusgen.flat_tree(["rain", "fell", "hard"]),
            corpusgen.flat_tree(["storm", "reached", "coast", "early"]),
        )
        doc = Document(id="v", sentences=sents,
                       reference=(("storm", "reached", "coast", "early"),))
        grams, _, sents = oracle_inputs(doc.sentences, doc.reference_tokens)
        beam = beam_search_oracle(grams, sents, OracleConfig(k=1, m=1))
        assert beam[0].sentence_indices == (2,)
        assert beam[0].score == 1.0

    def test_too_few_sentences_names_document(self):
        doc = Document(id="short-doc", sentences=(corpusgen.flat_tree(["a"]),),
                       reference=(("a",),))
        with pytest.raises(ValueError, match="short-doc"):
            build_document_oracles(doc, OracleConfig(k=2))

    def test_reference_with_no_word_left_after_preprocessing_is_error(self):
        # it once got oracle (0, 1, 2) with score 0.0 and only KEEP labels
        doc = corpusgen.learnable_corpus(count=2, seed=5)[0][0]
        doc = Document(id=doc.id, sentences=doc.sentences, reference=(("the", "of", "."),))
        expected = f"document {json.dumps(doc.id)} has no reference word left"
        with pytest.raises(ValueError, match=expected):
            build_document_oracles(doc, OracleConfig())

    def test_beam_scores_non_increasing(self):
        rng = np.random.default_rng(5)
        for i in range(10):
            doc = corpusgen.random_flat_doc(rng, f"b{i}", 7)
            grams, _, sents = oracle_inputs(doc.sentences, doc.reference_tokens)
            beam = beam_search_oracle(grams, sents, OracleConfig(k=3))
            scores = [c.score for c in beam]
            assert scores == sorted(scores, reverse=True)
            # build_document_oracles keeps beam[:m], so ties must be ordered too
            keys = [(-c.score, tuple(sorted(c.sentence_indices))) for c in beam]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_indices_ordered_by_salience(self):
        rng = np.random.default_rng(6)
        for i in range(10):
            doc = corpusgen.random_flat_doc(rng, f"s{i}", 7)
            individual = {
                j: approx_oracle_score(list(doc.sentences[j].token_texts),
                                       doc.reference_tokens)
                for j in range(7)}
            grams, _, sents = oracle_inputs(doc.sentences, doc.reference_tokens)
            for cand in beam_search_oracle(grams, sents, OracleConfig(k=3)):
                saliences = [individual[j] for j in cand.sentence_indices]
                assert saliences == sorted(saliences, reverse=True)

    def test_never_beats_exhaustive_and_matches_small(self):
        rng = np.random.default_rng(11)
        for i in range(25):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, min(3, n) + 1))
            doc = corpusgen.random_flat_doc(rng, f"e{i}", n)
            grams, _, sents = oracle_inputs(doc.sentences, doc.reference_tokens)
            beam = beam_search_oracle(grams, sents, OracleConfig(k=k))
            best = exhaustive_oracle(doc, doc.reference_tokens, k)
            assert beam[0].score <= best.score + 1e-12
            assert beam[0].score == pytest.approx(best.score, abs=1e-12)

    def test_max_sents_limits_search(self):
        # the perfect sentence is the 31st, one past MAX_SENTS
        sents = tuple(corpusgen.flat_tree([f"w{i}", "x"]) for i in range(MAX_SENTS))
        perfect = corpusgen.flat_tree(["target", "tokens", "here"])
        doc = Document(id="m", sentences=sents + (perfect,),
                       reference=(("target", "tokens", "here"),))
        # build_document_oracles passes the beam the scoreable sentences alone
        beam = build_document_oracles(doc, OracleConfig(k=1, m=8)).candidates
        assert all(MAX_SENTS not in c.sentence_indices for c in beam)
        assert MAX_SENTS not in exhaustive_oracle(doc, doc.reference_tokens, 1).sentence_indices

    def test_scoreable_sentences_are_the_leading_max_sents(self):
        long_doc = Document(id="long", sentences=tuple(
            corpusgen.flat_tree([f"w{i}"]) for i in range(MAX_SENTS + 5)))
        short_doc = Document(id="short", sentences=long_doc.sentences[:4])
        assert MAX_SENTS == 30
        assert scoreable_sentences(long_doc, MAX_SENTS) == MAX_SENTS
        assert scoreable_sentences(short_doc, 4) == 4
        with pytest.raises(ValueError, match='"short" has 4 scoreable sentences but k=5'):
            scoreable_sentences(short_doc, 5)
        with pytest.raises(ValueError, match='"long" has 30 scoreable sentences but k=31'):
            exhaustive_oracle(long_doc, ["w0"], 31)


# Raw words, some of them dropped by preprocessing, so that whole sentences
# can be empty after it and bigrams can bridge the gap they leave.
_words = st.sampled_from(["storm", "storms", "coast", "reached", "the", "of", ",", "."])


class TestScoresFromCounts:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(_words, min_size=1, max_size=5), min_size=3, max_size=6),
           st.lists(_words, min_size=1, max_size=8), st.integers(1, 3))
    def test_subset_scores_equal_fresh_scores(self, sentences, reference, k):
        doc = Document(id="h", sentences=tuple(corpusgen.flat_tree(s) for s in sentences),
                       reference=(tuple(reference),))

        def fresh(indices):
            return approx_oracle_score(
                [tok for i in sorted(indices) for tok in sentences[i]], reference)

        grams, _, sents = oracle_inputs(doc.sentences, reference)
        for cand in beam_search_oracle(grams, sents, OracleConfig(k=k, m=1)):
            assert cand.score == fresh(cand.sentence_indices)
        best = exhaustive_oracle(doc, reference, k)
        assert best.score == max(fresh(c) for c in combinations(range(len(sentences)), k))

    def test_labels_equal_fresh_scores(self):
        docs = corpusgen.fixture_corpus() + corpusgen.learnable_corpus(count=10, seed=3)[0]
        checked = 0
        for doc in docs:
            reference = doc.reference_tokens
            oracles = build_document_oracles(doc, OracleConfig(k=1, m=1))
            for tree, labeled in zip(doc.sentences, oracles.labels):
                texts = list(tree.token_texts)
                for lab in labeled:
                    span = lab.option.span
                    assert lab.r_before == approx_oracle_score(texts, reference)
                    assert lab.r_after == approx_oracle_score(
                        texts[:span.start] + texts[span.end:], reference)
                    checked += 1
        assert checked > 100


def _every_span(n_tokens: int) -> list[CompressionOption]:
    return [CompressionOption(Span(a, b), RuleId.PARENTHETICAL, "PRN")
            for a in range(n_tokens) for b in range(a + 1, n_tokens + 1)]


class TestIncrementalScores:
    """The beam and the labels score by delta; the from-scratch scorers of
    reference_oracle must give the same candidates, ties and floats."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.lists(_words, min_size=1, max_size=5), min_size=3, max_size=9),
           st.lists(_words, min_size=1, max_size=8), st.integers(1, 3), st.integers(1, 8))
    def test_beam_equals_the_from_scratch_beam(self, sentences, reference, k, beam_width):
        doc = Document(id="h", sentences=tuple(corpusgen.flat_tree(s) for s in sentences),
                       reference=(tuple(reference),))
        cfg = OracleConfig(k=k, beam_width=beam_width, m=beam_width)
        expected = reference_oracle.beam_search_oracle(doc, reference, cfg)
        grams, _, sents = oracle_inputs(doc.sentences, reference)
        assert beam_search_oracle(grams, sents, cfg) == expected
        # build_document_oracles feeds the beam the sentences it preprocessed,
        # and rejects a reference that preprocessing leaves without a word
        if grams.length:
            assert list(build_document_oracles(doc, cfg).candidates) == expected
        else:
            with pytest.raises(ValueError, match="no reference word left"):
                build_document_oracles(doc, cfg)

    def test_beam_over_sentences_that_preprocess_to_nothing(self):
        sentences = [["the", ","], ["storm", "of"], ["."], ["coast", "storms"], ["of", "the"]]
        reference = ["storm", "coast", "storm"]
        doc = Document(id="e", sentences=tuple(corpusgen.flat_tree(s) for s in sentences),
                       reference=(tuple(reference),))
        grams, _, sents = oracle_inputs(doc.sentences, reference)
        for k in (1, 2, 3):
            for beam_width in (1, 3, 8):
                cfg = OracleConfig(k=k, beam_width=beam_width, m=1)
                beam = beam_search_oracle(grams, sents, cfg)
                assert beam == reference_oracle.beam_search_oracle(doc, reference, cfg)
        # an empty sentence ties with the subset without it
        scores = {tuple(sorted(c.sentence_indices)): c.score
                  for c in beam_search_oracle(grams, sents, OracleConfig(k=3))}
        assert scores[(0, 1, 3)] == scores[(1, 2, 3)] == approx_oracle_score(
            ["storm", "coast", "storms"], reference)

    # documents where many extensions of a round tie, so the ranking's
    # tie-break by index set decides the beam
    TIED_DOCUMENTS = {
        "duplicated-sentences": (
            [["storm", "coast"], ["reached"], ["storm", "coast"], ["storm", "coast"],
             ["reached"], ["coast"]],
            ["storm", "coast", "reached", "coast"]),
        "no-shared-word": (
            [["rain", "flood"], ["winds"], ["rain"], ["flood", "winds", "rain"], ["winds"]],
            ["storm", "coast", "reached"]),
        "empty-sentence-between-a-bigram": (
            [["storm"], ["the", ",", "of"], ["coast"], ["storm"], ["."], ["coast"]],
            ["storm", "coast", "storm"]),
    }

    @pytest.mark.parametrize("name", list(TIED_DOCUMENTS))
    def test_tied_extensions_rank_as_the_from_scratch_beam(self, name):
        sentences, reference = self.TIED_DOCUMENTS[name]
        doc = Document(id=name, sentences=tuple(corpusgen.flat_tree(s) for s in sentences),
                       reference=(tuple(reference),))
        grams, _, sents = oracle_inputs(doc.sentences, reference)
        n = len(sentences)
        for k in (1, 2, 3):
            # beam_width 1, a few, and at least C(n, k), which keeps every subset
            for beam_width in (1, 2, 4, math.comb(n, k), math.comb(n, k) + 3):
                cfg = OracleConfig(k=k, beam_width=beam_width, m=beam_width)
                beam = beam_search_oracle(grams, sents, cfg)
                # indices in order and float scores, each compared with ==
                assert beam == reference_oracle.beam_search_oracle(doc, reference, cfg)
                assert len(beam) == min(beam_width, math.comb(n, k))
            scores = [c.score for c in beam]
            assert len(set(scores)) < len(scores)  # the last beam holds ties
        if name == "no-shared-word":
            assert set(scores) == {0.0}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(_words, min_size=1, max_size=10), st.lists(_words, min_size=1, max_size=8))
    @example(["the", "storm", ",", "storm", "reached", "coast", "."],
             ["storm", "reached", "storm", "coast"])
    def test_labels_of_every_span_equal_fresh_scores(self, tokens, reference):
        # every span: at either end, of dropped tokens only, all but one token
        tree = corpusgen.flat_tree(tokens)
        options = _every_span(len(tokens))
        grams, (tree_tokens,), (sent,) = oracle_inputs([tree], reference)
        labeled = label_compressions(grams, tree_tokens, sent, options)
        assert labeled == reference_oracle.label_compressions(tree, options, reference)
        r_before = approx_oracle_score(tokens, reference)
        for lab in labeled:
            span = lab.option.span
            assert lab.r_before == r_before
            assert lab.r_after == approx_oracle_score(
                tokens[:span.start] + tokens[span.end:], reference)
        per_token = preprocess_per_token(tokens, ORACLE_PREPROCESS)
        assert label_compressions(grams, per_token, sent, options) == labeled

    def test_news_shaped_document_with_clipped_bridges(self):
        rng = np.random.default_rng(18)
        vocab = ["storm", "coast", "reached", "winds", "rain", "flood"]
        sentences = [[str(w) for w in rng.choice(vocab, size=int(rng.integers(3, 9)))]
                     for _ in range(MAX_SENTS + 5)]
        reference = [tok for sent in sentences[:3] for tok in sent]
        doc = Document(id="news", sentences=tuple(map(corpusgen.flat_tree, sentences)),
                       reference=(tuple(reference),))
        cfg = OracleConfig(k=4, beam_width=8, m=8)
        oracles = build_document_oracles(doc, cfg)
        assert list(oracles.candidates) == reference_oracle.beam_search_oracle(
            doc, reference, cfg)
        ref_bigrams = Counter(zip(reference, reference[1:]))
        clipped_bridges = 0
        for cand in oracles.candidates:
            picked = [sentences[i] for i in sorted(cand.sentence_indices)]
            joined = [tok for sent in picked for tok in sent]
            assert cand.score == approx_oracle_score(joined, reference)
            counts = Counter(zip(joined, joined[1:]))
            clipped_bridges += sum(
                counts[bridge] > ref_bigrams[bridge] > 0
                for bridge in ((a[-1], b[0]) for a, b in zip(picked, picked[1:])))
        assert clipped_bridges > 0
        # flat trees have no rule options, so label every span
        grams, per_token, sents = oracle_inputs(doc.sentences, reference)
        for tree, tokens, sent in zip(doc.sentences, per_token, sents):
            options = _every_span(len(tree.tokens))
            assert label_compressions(grams, tokens, sent, options) == (
                reference_oracle.label_compressions(tree, options, reference))

    def test_parsed_documents_beam_equals_the_from_scratch_beam(self):
        # the labels of these documents are checked in TestScoresFromCounts
        docs = corpusgen.fixture_corpus() + corpusgen.learnable_corpus(count=10, seed=3)[0]
        for doc in docs:
            cfg = OracleConfig(k=min(3, len(doc.sentences)), beam_width=8, m=8)
            assert list(build_document_oracles(doc, cfg).candidates) == (
                reference_oracle.beam_search_oracle(doc, doc.reference_tokens, cfg))


class TestExhaustive:
    def test_k_equals_n(self):
        rng = np.random.default_rng(3)
        doc = corpusgen.random_flat_doc(rng, "full", 4)
        best = exhaustive_oracle(doc, doc.reference_tokens, 4)
        assert sorted(best.sentence_indices) == [0, 1, 2, 3]

    def test_six_choose_two_enumeration(self):
        rng = np.random.default_rng(4)
        doc = corpusgen.random_flat_doc(rng, "g", 6)
        assert math.comb(6, 2) == 15
        best = exhaustive_oracle(doc, doc.reference_tokens, 2)
        scores = []
        for subset in combinations(range(6), 2):
            tokens = [t for i in subset for t in doc.sentences[i].token_texts]
            scores.append(approx_oracle_score(tokens, doc.reference_tokens))
        assert len(scores) == 15
        assert best.score == max(scores)

    def test_enumeration_count_guard(self):
        sents = tuple(corpusgen.flat_tree(["a"]) for _ in range(50))
        big = Document(id="big", sentences=sents, reference=(("a",),))
        with pytest.raises(ValueError, match=r"C\(30,15\) = 155117520 subsets exceeds"):
            exhaustive_oracle(big, big.reference_tokens, 15)


class TestLabeling:
    def test_del_when_option_has_no_reference_overlap(self):
        tree = parse_ptb(
            "(S (NP (DT the) (JJ gleaming) (NN senate)) (VP (VBD approved) (NP (DT the) (NN budget))) (. .))")
        options = normalize_options(extract_options(tree), len(tree.tokens))
        reference = ["senate", "approved", "budget"]
        grams, (per_token,), (sent,) = oracle_inputs([tree], reference)
        labeled = label_compressions(grams, per_token, sent, options)
        by_span = {(l.option.span.start, l.option.span.end): l for l in labeled}
        assert by_span[(1, 2)].label is CompressionLabel.DEL
        assert by_span[(1, 2)].r_after > by_span[(1, 2)].r_before

    def test_keep_when_option_carries_all_matches(self):
        tree = parse_ptb(
            "(S (NP (DT the) (JJ senate) (NN panel)) (VP (VBD met)) (. .))")
        options = normalize_options(extract_options(tree), len(tree.tokens))
        reference = ["senate"]
        grams, (per_token,), (sent,) = oracle_inputs([tree], reference)
        labeled = label_compressions(grams, per_token, sent, options)
        (lab,) = [l for l in labeled if l.option.span == Span(1, 2)]
        assert lab.label is CompressionLabel.KEEP
        assert lab.r_after < lab.r_before

    def test_zero_before_zero_after_is_keep(self):
        tree = parse_ptb(
            "(S (NP (DT the) (JJ rusty) (NN gate)) (VP (VBD creaked)) (. .))")
        options = normalize_options(extract_options(tree), len(tree.tokens))
        grams, (per_token,), (sent,) = oracle_inputs([tree], ["unrelated", "words"])
        labeled = label_compressions(grams, per_token, sent, options)
        for lab in labeled:
            assert lab.r_before == 0.0 and lab.r_after == 0.0
            assert lab.label is CompressionLabel.KEEP
            assert lab.ratio == 1.0

    def test_zero_before_positive_after_is_del(self):
        # contrived: option deletion enables a bigram-free unigram match is
        # impossible with r_before = 0, so build it directly
        option = CompressionOption(Span(0, 1), RuleId.ADVP, "RB")
        lab = LabeledOption(option, 0.0, 0.1, CompressionLabel.DEL)
        assert lab.ratio == math.inf
        assert bucket_of(lab) is CompressabilityBucket.STRONG_POSITIVE

    def test_published_example_directions(self):
        # the worked label-derivation example: deleting modifiers absent from
        # the reference raises the score; deleting the gerundive VP removes
        # reference-matching content and lowers it
        source = """(S
          (NP (JJ Philadelphia-based) (NN artist) (CC and) (NN journalist)
              (NNP Alison) (NNP Nastasi))
          (VP (VBZ has) (VP (VBN collated)
            (NP (NP (DT a) (NN collection)) (PP (IN of)
              (NP (NP (JJ intimate) (NNS portraits))
                (VP (VBG featuring)
                  (NP (ADJP (JJ well-known)) (NNS artists))
                  (PP (IN with) (NP (PRP$ their) (JJ furry) (NNS friends)))))))))
          (. .))"""
        reference = (
            "Artist and journalist Alison Nastasi put together the portrait "
            "collection . Also features images of Picasso , Frida Kahlo , and "
            "John Lennon . Reveals quaint personality traits shared between "
            "artists and their felines .").split()
        tree = parse_ptb(source)
        options = normalize_options(extract_options(tree), len(tree.tokens))
        grams, (per_token,), (sent,) = oracle_inputs([tree], reference)
        labeled = label_compressions(grams, per_token, sent, options)
        by_text = {
            " ".join(tree.token_texts[l.option.span.start:l.option.span.end]): l
            for l in labeled}
        assert by_text["Philadelphia-based"].label is CompressionLabel.DEL
        assert by_text["intimate"].label is CompressionLabel.DEL
        assert by_text["well-known"].label is CompressionLabel.DEL
        gerundive = by_text["featuring well-known artists with their furry friends"]
        assert gerundive.label is CompressionLabel.KEEP
        assert gerundive.ratio < 1.0
        assert by_text["intimate"].ratio > 1.0

    def test_labels_are_context_free_roundtrip(self):
        for doc in corpusgen.fixture_corpus():
            grams, per_token, sents = oracle_inputs(doc.sentences, doc.reference_tokens)
            for tree, tokens, sent in zip(doc.sentences, per_token, sents):
                options = normalize_options(extract_options(tree), len(tree.tokens))
                once = label_compressions(grams, tokens, sent, options)
                twice = label_compressions(grams, tokens, sent, options)
                assert once == twice
                for lab in once:
                    if lab.label is CompressionLabel.DEL:
                        assert lab.r_after > lab.r_before
                    else:
                        assert lab.r_after <= lab.r_before


class TestBuckets:
    def test_boundaries(self):
        def lab(ratio):
            return LabeledOption(CompressionOption(Span(0, 1), RuleId.ADVP, "RB"),
                                 1.0, ratio, CompressionLabel.KEEP)
        assert bucket_of(lab(0.9)) is CompressabilityBucket.BAD
        assert bucket_of(lab(1.0)) is CompressabilityBucket.BAD
        assert bucket_of(lab(1.02)) is CompressabilityBucket.WEAK_POSITIVE
        assert bucket_of(lab(1.05)) is CompressabilityBucket.WEAK_POSITIVE
        assert bucket_of(lab(1.051)) is CompressabilityBucket.STRONG_POSITIVE

    def test_report_all_bad(self):
        labs = [LabeledOption(CompressionOption(Span(0, 1), RuleId.ADVP, "RB"),
                              1.0, 0.5, CompressionLabel.KEEP)] * 4
        report = compressability_report(labs)
        assert report[CompressabilityBucket.BAD] == 100.0
        assert report[CompressabilityBucket.WEAK_POSITIVE] == 0.0

    def test_report_thirds(self):
        option = CompressionOption(Span(0, 1), RuleId.ADVP, "RB")
        labs = [LabeledOption(option, 1.0, r, CompressionLabel.KEEP)
                for r in (0.9, 1.02, 1.10)]
        report = compressability_report(labs)
        for bucket in CompressabilityBucket:
            assert report[bucket] == pytest.approx(100.0 / 3.0)

    def test_report_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            compressability_report([])

    def test_percentages_sum_to_100(self):
        option = CompressionOption(Span(0, 1), RuleId.ADVP, "RB")
        rng = np.random.default_rng(0)
        labs = [LabeledOption(option, 1.0, float(r), CompressionLabel.KEEP)
                for r in rng.uniform(0.5, 1.5, size=37)]
        assert sum(compressability_report(labs).values()) == pytest.approx(100.0)

    # r_before 0 (a ratio of 1.0 or inf) and ratios of exactly 1.0 and 1.05
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from((0.0, 0.5, 1.0, 2.0)),
                              st.sampled_from((0.0, 0.5, 1.0, 1.05, 2.0, 2.1))
                              | st.floats(0.0, 3.0)), min_size=1, max_size=8))
    @example([(1.0, 1.0), (1.0, 1.05), (2.0, 2.1), (0.0, 0.0), (0.0, 0.5)])
    def test_report_equals_the_per_option_reference(self, scores):
        option = CompressionOption(Span(0, 1), RuleId.ADVP, "RB")
        labs = [LabeledOption(option, r_before, r_after, CompressionLabel.KEEP)
                for r_before, r_after in scores]
        assert (list(compressability_report(iter(labs)).items())
                == list(reference_pipeline.compressability_report(labs).items()))


def _write_cache(path, records, cfg=OracleConfig(k=1, m=1)):
    """A cache file of hand-made document records after the header for cfg."""
    path.write_text("".join(json.dumps(record) + "\n"
                            for record in [oracle_header(cfg), *records]), encoding="utf-8")


class TestCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        docs = corpusgen.fixture_corpus()
        cfg = OracleConfig(k=1, m=3)
        entries = [build_document_oracles(doc, cfg) for doc in docs]
        path = tmp_path / "oracles.jsonl"
        assert write_oracle_cache(path, cfg, entries) == len(docs)

        def no_rules(tree):
            raise AssertionError("the cache is read without running the rules")

        monkeypatch.setattr(oracle_mod, "extract_options", no_rules)
        loaded = read_oracle_cache(path, docs)
        assert loaded == entries
        assert all(entry.doc is doc for entry, doc in zip(loaded, docs))
        # one object per distinct option, shared by every label of it
        options = [lab.option for entry in loaded for lab in entry.all_labeled()]
        assert len(set(map(id, options))) == len(set(options)) < len(options)

    def test_record_schema(self):
        doc = corpusgen.fixture_corpus()[0]
        cfg = OracleConfig(k=1, m=2)
        header = oracle_header(cfg)
        assert set(header) == {"format", "version", "oracle_config", "rules_version",
                               "preprocess"}
        assert (header["version"], header["oracle_config"]) == (2, {"k": 1, "beam_width": 8,
                                                                     "m": 2})
        entry = build_document_oracles(doc, cfg)
        record = oracle_record(entry)
        assert set(record) == {"doc_id", "fingerprint", "oracles", "labels"}
        assert record["fingerprint"] == document_fingerprint(doc)
        assert all(set(o) == {"indices", "score"} for o in record["oracles"])
        assert len(record["labels"]) == len(doc.sentences)
        for sent in record["labels"]:
            for item in sent:
                assert set(item) == {"start", "end", "rule", "node_label", "r_before",
                                     "r_after", "label"}

    def test_fingerprint_covers_parses_and_reference_words(self):
        doc = corpusgen.fixture_corpus()[0]
        tokens = doc.sentences[0].tokens
        flat = replace(doc, sentences=(corpusgen.flat_tree(tokens), *doc.sentences[1:]))
        assert flat.sentences[0].tokens == tokens
        reworded = replace(doc, reference=(("completely", "different", "words"),))
        fingerprints = [document_fingerprint(d) for d in (doc, flat, reworded)]
        assert len(set(fingerprints)) == 3
        # oracles and labels see the reference as one word list
        resplit = replace(doc, reference=tuple((tok,) for tok in doc.reference_tokens))
        assert document_fingerprint(resplit) == fingerprints[0]

    def test_fingerprint_hashes_each_parse_as_stored(self):
        doc = corpusgen.fixture_corpus()[0]
        source = doc.sentences[0].parse
        respaced = replace(doc, sentences=(parse_ptb(source.replace(" (", "  (", 1)),
                                           *doc.sentences[1:]))
        # the same tree from another string: a cache of one is stale for the other
        assert respaced.sentences == doc.sentences
        assert document_fingerprint(respaced) != document_fingerprint(doc)
        # a corpus written and read back keeps each parse, so its fingerprints
        for original in (doc, respaced):
            loaded = document_from_record(document_to_record(original))
            assert document_fingerprint(loaded) == document_fingerprint(original)

    def test_stale_cache_rejected(self, tmp_path):
        docs = corpusgen.fixture_corpus()
        cfg = OracleConfig(k=1, m=1)
        path = tmp_path / "stale.jsonl"
        write_oracle_cache(path, cfg, [build_document_oracles(docs[0], cfg)])
        changed = replace(docs[0], reference=(("completely", "different", "words"),))
        with pytest.raises(ValueError, match="stale|not produced"):
            read_oracle_cache(path, [changed])

    def test_missing_document_rejected(self, tmp_path):
        doc = corpusgen.fixture_corpus()[0]
        cfg = OracleConfig(k=1, m=1)
        entry = build_document_oracles(doc, cfg)
        path = tmp_path / "cache.jsonl"
        write_oracle_cache(path, cfg, [entry])
        with pytest.raises(ValueError) as error:
            read_oracle_cache(path, [])
        assert str(error.value) == (
            f"{path}:2: record of document {json.dumps(doc.id)} where the corpus has no "
            f"document: "
            f"the cache is stale; rebuild it with `compsum oracle build`")

    def test_missing_file_is_error_naming_the_build_command(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        with pytest.raises(ValueError) as error:
            read_oracle_cache(path, [])
        assert str(error.value) == (f"{path}: no oracle cache there; build one (format "
                                    f"version 2) with `compsum oracle build`")

    def test_repeated_document_is_located(self, tmp_path):
        # a repeated record was once trained on twice per epoch and counted
        # twice by stats --oracles
        docs = corpusgen.fixture_corpus()[:2]
        cfg = OracleConfig(k=1, m=1)
        entries = [build_document_oracles(doc, cfg) for doc in docs]
        path = tmp_path / "cache.jsonl"
        write_oracle_cache(path, cfg, [*entries, entries[0]])
        with pytest.raises(ValueError) as error:
            read_oracle_cache(path, docs)
        assert str(error.value) == (
            f"{path}:4: record of document {json.dumps(docs[0].id)} where the corpus has no "
            f"document: "
            f"the cache is stale; rebuild it with `compsum oracle build`")

    @pytest.mark.parametrize("line, message", [
        (b"{not json\n", r"bad\.jsonl:2: malformed JSON"),
        (b'{"oracles": [], "labels": []}\n', r"bad\.jsonl:2: missing key 'doc_id'"),
        (b'["a list"]\n', r"bad\.jsonl:2: record is not a JSON object"),
        (b'{"doc_id": "\xff"}\n', r"bad\.jsonl:2: not UTF-8 text$"),
        # Python's decoder rejects these by a ValueError and a RecursionError;
        # the second once escaped naming no file or line
        pytest.param(b'{"doc_id": ' + b"9" * 5000 + b"}\n",
                     r"bad\.jsonl:2: malformed JSON: Exceeds the limit \(4300 digits\)",
                     id="integer-too-long"),
        pytest.param(b"[" * 100_000 + b"\n",
                     r"bad\.jsonl:2: malformed JSON: maximum recursion depth exceeded",
                     id="nesting-too-deep"),
    ])
    def test_bad_line_is_located(self, tmp_path, line, message):
        doc = corpusgen.fixture_corpus()[0]
        path = tmp_path / "bad.jsonl"
        write_oracle_cache(path, OracleConfig(k=1, m=1), [])
        with path.open("ab") as handle:
            handle.write(line)
        with pytest.raises(ValueError, match=message):
            read_oracle_cache(path, [doc])

    @pytest.mark.parametrize("header, message", [
        ({"doc_id": "a"}, "oracle cache has no header, so it is of format version 1; "
                          "this version reads version 2: rebuild it with `compsum oracle build`"),
        ({"labels": []}, "first record is not an oracle cache header: "
                         "rebuild it with `compsum oracle build`"),
        ({"format": "compsum-oracles", "version": 3},
         "oracle cache is of format version 3; this version reads version 2: "
         "rebuild it with `compsum oracle build`"),
    ], ids=["v1-record", "no-header", "version-3"])
    def test_first_record_that_is_no_v2_header_is_located(self, tmp_path, header, message):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as error:
            read_oracle_cache(path, [])
        assert str(error.value) == f"{path}:1: {message}"

    @pytest.mark.parametrize("flipped", ["KEEP", "DEL"])
    def test_label_that_disagrees_with_its_scores_is_located(self, tmp_path, flipped):
        # a hand-edited label was once trained on silently
        docs = corpusgen.fixture_corpus()
        records = [oracle_record(build_document_oracles(doc, OracleConfig(k=1, m=1)))
                   for doc in docs]
        line, sent, item = next(
            (line, sent, item) for line, record in enumerate(records, start=2)
            for sent, items in enumerate(record["labels"]) for item in items
            if item["label"] != flipped)
        item["label"] = flipped
        path = tmp_path / "bad.jsonl"
        _write_cache(path, records)
        key = [item["start"], item["end"], item["rule"]]
        with pytest.raises(ValueError) as error:
            read_oracle_cache(path, docs)
        assert str(error.value) == (
            f"{path}:{line}: document {json.dumps(records[line - 2]['doc_id'])}: sentence {sent}: "
            f"cached option {json.dumps(key)} is labeled {flipped}, which disagrees with "
            f"r_before={item['r_before']}, r_after={item['r_after']}")

    @pytest.mark.parametrize("extra", [[], [{"start": 0, "end": 1, "rule": "ADVP",
                                             "node_label": "ADVP", "r_before": 0.0,
                                             "r_after": 0.0, "label": "KEEP"}]],
                             ids=["empty-row", "labeled-row"])
    def test_label_row_past_the_last_sentence_is_located(self, tmp_path, extra):
        doc = corpusgen.fixture_corpus()[0]
        record = oracle_record(build_document_oracles(doc, OracleConfig(k=1, m=1)))
        record["labels"].append(extra)
        path = tmp_path / "bad.jsonl"
        _write_cache(path, [record])
        n = len(doc.sentences)
        with pytest.raises(ValueError) as error:
            read_oracle_cache(path, [doc])
        assert str(error.value) == (f"{path}:2: document {json.dumps(doc.id)}: labels for {n + 1} "
                                    f"sentences, document has {n}")

    @pytest.mark.parametrize("indices", [[1.5, 0], "10", [True, 0]],
                             ids=["float", "string", "boolean"])
    def test_oracle_indices_that_are_not_integers_are_located(self, tmp_path, indices):
        # these once failed in training with a raw numpy or comparison error
        doc = corpusgen.fixture_corpus()[0]
        record = oracle_record(build_document_oracles(doc, OracleConfig(k=1, m=1)))
        record["oracles"][0]["indices"] = indices
        path = tmp_path / "bad.jsonl"
        _write_cache(path, [record])
        with pytest.raises(ValueError) as error:
            read_oracle_cache(path, [doc])
        assert str(error.value) == (f"{path}:2: document {json.dumps(doc.id)}: oracle indices "
                                    "is not a list of integers")

    def test_built_oracles_are_the_beam_head_on_the_document_itself(self):
        rng = np.random.default_rng(7)
        for i in range(5):
            doc = corpusgen.random_flat_doc(rng, f"h{i}", 7)
            cfg = OracleConfig(k=2, beam_width=8, m=3)
            entry = build_document_oracles(doc, cfg)
            assert entry.doc is doc
            grams, _, sents = oracle_inputs(doc.sentences, doc.reference_tokens)
            assert list(entry.candidates) == beam_search_oracle(grams, sents, cfg)[:3]

    def test_each_sentence_shares_grams_once_for_beam_and_labels(self, monkeypatch):
        # the beam and the labels once each counted the shared grams of the
        # first MAX_SENTS sentences: 65 counts for these 35 sentences
        counted = []
        shared = ReferenceGrams.shared

        def counting(grams, tokens):
            counted.append(tuple(tokens))
            return shared(grams, tokens)

        monkeypatch.setattr(ReferenceGrams, "shared", counting)
        doc = corpusgen.random_flat_doc(np.random.default_rng(19), "long", MAX_SENTS + 5)
        build_document_oracles(doc, OracleConfig())
        per_token = [preprocess_per_token(tree.tokens, ORACLE_PREPROCESS)
                     for tree in doc.sentences]
        assert counted == [tuple(tok for tok in tokens if tok is not None)
                           for tokens in per_token]

    def test_reference_required(self):
        doc = Document(id="noref", sentences=(corpusgen.flat_tree(["a", "b"]),))
        with pytest.raises(ValueError, match="reference"):
            build_document_oracles(doc, OracleConfig(k=1, m=1))
