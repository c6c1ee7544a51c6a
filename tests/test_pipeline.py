"""Corpus loading, thresholding, deduplication, summarize/evaluate/sweep/stats."""

import json
import logging
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import corpusgen
import reference_rouge
from reference_model import decode_greedy
from compsum import Document, parse_ptb
from compsum.corpus import document_to_record, load_corpus, write_corpus
from compsum.model import TrainConfig, init_model, train
from compsum.oracle import MAX_SENTS, CompressionLabel, OracleConfig, build_document_oracles
from compsum.pipeline import (
    CAUSE_DEDUP,
    CAUSE_MODEL,
    EVAL_PREPROCESS,
    AppliedDeletion,
    ScoredDocument,
    ScoredSentence,
    Summary,
    SummarizeConfig,
    _render,
    apply_threshold,
    dedup_summary,
    evaluate_corpus,
    render,
    score_document,
    score_summary,
    stats_report,
    summarize,
    summary_from_record,
    summary_to_record,
    sweep_threshold,
)
from compsum.rouge import preprocess_tokens
from compsum.rules import CompressionOption, RuleId, extract_options, normalize_options
from compsum.treebank import SentenceTree, Span, TreeNode, surviving_tokens


def trained_model(seed=5):
    docs, _ = corpusgen.learnable_corpus(count=20, seed=19)
    cfg = OracleConfig(k=2, m=5)
    examples = [build_document_oracles(d, cfg) for d in docs]
    model, _ = train(examples, TrainConfig(epochs=2, seed=seed))
    return model, docs


@st.composite
def _ptb(draw, depth=0):
    """A labeled bracketed tree whose leaves include escaped brackets."""
    if depth >= 3 or draw(st.booleans()):
        word = draw(st.sampled_from(["w", "Cat", "-LRB-", "-RRB-", "-LSB-", ",", "'s"]))
        return f"({draw(st.sampled_from(['NN', '-LRB-', ',']))} {word})"
    kids = draw(st.lists(_ptb(depth + 1), min_size=1, max_size=3))
    return f"({draw(st.sampled_from(['S', 'NP', 'PRN']))} " + " ".join(kids) + ")"


# Reference words are the unescaped forms a loaded document holds.
_reference = st.lists(st.lists(st.sampled_from(["the", "(", ")", "[", "Cat", ","]), max_size=4),
                      max_size=3)


class TestLoadCorpus:
    def test_roundtrip(self, tmp_path):
        docs = corpusgen.fixture_corpus()
        path = tmp_path / "corpus.jsonl"
        assert write_corpus(path, docs) == len(docs)
        loaded = list(load_corpus(path))
        assert loaded == docs

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.text(min_size=1, max_size=6),
                              st.lists(_ptb(), min_size=1, max_size=3), _reference),
                    min_size=1, max_size=4, unique_by=lambda doc: doc[0]))
    def test_write_then_load_is_identity(self, tmp_path_factory, drawn):
        docs = [Document(id=doc_id, sentences=tuple(parse_ptb(tree) for tree in trees),
                         reference=tuple(tuple(sent) for sent in reference))
                for doc_id, trees, reference in drawn]
        path = tmp_path_factory.mktemp("roundtrip") / "corpus.jsonl"
        assert write_corpus(path, docs) == len(docs)
        assert list(load_corpus(path)) == docs

    def test_write_through_a_symlink_keeps_the_link(self, tmp_path):
        docs = corpusgen.fixture_corpus()[:2]
        real, link = tmp_path / "real.jsonl", tmp_path / "link.jsonl"
        real.write_text("old\n", encoding="utf-8")
        link.symlink_to(real)
        assert write_corpus(link, docs) == len(docs)
        assert link.is_symlink()
        assert list(load_corpus(real)) == docs
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.jsonl", "real.jsonl"]

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert list(load_corpus(path)) == []
        assert "no documents" in caplog.text

    def test_three_documents_in_order(self, tmp_path):
        docs = corpusgen.fixture_corpus()[:3]
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, docs)
        assert [d.id for d in load_corpus(path)] == [d.id for d in docs]

    def test_malformed_line_skipped_with_line_number(self, tmp_path, caplog):
        docs = corpusgen.fixture_corpus()[:2]
        records = [json.dumps(document_to_record(d)) for d in docs]
        path = tmp_path / "corpus.jsonl"
        path.write_text(records[0] + "\n{broken\n" + records[1] + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            loaded = list(load_corpus(path))
        assert [d.id for d in loaded] == [docs[0].id, docs[1].id]
        assert "line 2" in caplog.text

    def test_token_mismatch_rejected_others_kept(self, tmp_path, caplog):
        docs = corpusgen.fixture_corpus()[:3]
        records = [document_to_record(d) for d in docs]
        records[1]["sentences"][0]["tokens"][0] = "WRONG"
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            loaded = list(load_corpus(path))
        assert [d.id for d in loaded] == [docs[0].id, docs[2].id]
        assert docs[1].id in caplog.text

    def test_too_deep_parse_rejected_others_kept(self, tmp_path, caplog):
        docs = corpusgen.fixture_corpus()[:2]
        records = [document_to_record(d) for d in docs]
        records[0]["sentences"][0] = {"tokens": ["w"], "parse": corpusgen.deep_chain(1200)}
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            loaded = list(load_corpus(path))
        assert [d.id for d in loaded] == [docs[1].id]
        assert f"document {docs[0].id} rejected" in caplog.text
        assert "nested deeper than 200 levels" in caplog.text

    @pytest.mark.parametrize("field,value,reason", [
        ("reference", [[1, 2, 3]], "reference sentence 0 is not a list of strings"),
        ("reference", [["the", "cat"], "sat"], "reference sentence 1 is not a list of strings"),
        ("reference", "a plain string reference", "reference is not a list of token lists"),
        ("tokens", "the cat", "sentence 0: tokens is not a list of strings"),
        ("tokens", [1, 2], "sentence 0: tokens is not a list of strings"),
        ("parse", None, "sentence 0: parse is not a string"),
        ("parse", ["(NN w)"], "sentence 0: parse is not a string"),
    ])
    def test_mistyped_record_rejected_with_location(self, tmp_path, caplog, field, value, reason):
        docs = corpusgen.fixture_corpus()[:3]
        records = [document_to_record(d) for d in docs]
        if field == "reference":
            records[1]["reference"] = value
        else:
            records[1]["sentences"][0][field] = value
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            loaded = list(load_corpus(path))
        assert [d.id for d in loaded] == [docs[0].id, docs[2].id]
        assert f"line 2: document {docs[1].id} rejected: {reason}" in caplog.text

    @pytest.mark.parametrize("shape,reason", [
        ("sentences string", "sentences is not a list of objects"),
        ("sentences object", "sentences is not a list of objects"),
        ("sentences missing", "sentences is not a list of objects"),
        ("sentence list", "sentence 2 is not an object"),
        ("sentence string", "sentence 2 is not an object"),
        ("no parse", "sentence 2 has no parse"),
        ("no tokens", "sentence 2 has no tokens"),
    ])
    def test_misshaped_body_rejected_naming_the_field(self, tmp_path, caplog, shape, reason):
        docs = corpusgen.fixture_corpus()[:3]
        records = [document_to_record(d) for d in docs]
        sentences = records[1]["sentences"]
        sentences += [sentences[0]] * (3 - len(sentences))
        if shape == "sentences string":
            records[1]["sentences"] = "(S (NN w))"
        elif shape == "sentences object":
            records[1]["sentences"] = {"tokens": ["w"], "parse": "(S (NN w))"}
        elif shape == "sentences missing":
            del records[1]["sentences"]
        elif shape == "sentence list":
            sentences[2] = [sentences[2]["tokens"], sentences[2]["parse"]]
        elif shape == "sentence string":
            sentences[2] = sentences[2]["parse"]
        else:
            missing = shape.removeprefix("no ")
            sentences[2] = {k: v for k, v in sentences[2].items() if k != missing}
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            loaded = list(load_corpus(path))
        assert [d.id for d in loaded] == [docs[0].id, docs[2].id]
        assert f"line 2: document {docs[1].id} rejected: {reason}" in caplog.text

    @pytest.mark.parametrize("record", [[1, 2], "doc", {"sentences": []}])
    def test_record_without_id_rejected_naming_the_field(self, tmp_path, caplog, record):
        doc = corpusgen.fixture_corpus()[0]
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps(document_to_record(doc)) + "\n",
                        encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            loaded = list(load_corpus(path))
        assert [d.id for d in loaded] == [doc.id]
        assert "line 1: document ? rejected: record is not an object with an id" in caplog.text

    @pytest.mark.parametrize("doc_id,shown", [
        (None, "None"), (True, "True"), (False, "False"), (7.0, "7.0"), (7.5, "7.5"),
        (["d"], "['d']"), ({"a": 1}, "{'a': 1}"),
    ], ids=["null", "true", "false", "whole-float", "float", "list", "object"])
    def test_id_that_is_no_string_or_integer_is_rejected(self, tmp_path, caplog, doc_id, shown):
        docs = corpusgen.fixture_corpus()[:3]
        records = [document_to_record(d) for d in docs]
        records[1]["id"] = doc_id
        records[2]["id"] = 7
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            loaded = list(load_corpus(path))
        # an integer id is read as its decimal string
        assert [d.id for d in loaded] == [docs[0].id, "7"]
        assert (f"line 2: document {shown} rejected: id is not a string or an integer"
                in caplog.text)

    def test_escaped_brackets_roundtrip(self, tmp_path):
        tree = parse_ptb("(S (NP (NN cost)) (PRN (-LRB- -LRB-) (NN net) (-RRB- -RRB-)))")
        doc = Document(id="esc", sentences=(tree,), reference=(("cost", "(", "net", ")"),))
        path = tmp_path / "esc.jsonl"
        write_corpus(path, [doc])
        raw = json.loads(path.read_text().strip())
        assert raw["sentences"][0]["tokens"] == ["cost", "-LRB-", "net", "-RRB-"]
        assert raw["reference"][0] == ["cost", "-LRB-", "net", "-RRB-"]
        (loaded,) = load_corpus(path)
        assert loaded == doc

    def test_bracket_code_word_is_not_written(self, tmp_path):
        # a word that is itself "-LRB-" would be read back as "("
        leaf = TreeNode("NN", (), Span(0, 1))
        coded = SentenceTree(TreeNode("S", (leaf,), Span(0, 1)), ("-RRB-",))
        plain = corpusgen.flat_tree(["x"])
        cases = [(Document(id="ref", sentences=(plain,), reference=(("-LRB-", "x"),)), "-LRB-"),
                 (Document(id="tok", sentences=(plain, coded)), "-RRB-")]
        for doc, word in cases:
            with pytest.raises(ValueError, match=f"document '{doc.id}': word '{word}'"):
                document_to_record(doc)
            with pytest.raises(ValueError):
                write_corpus(tmp_path / "out.jsonl", [doc])


class TestApplyThreshold:
    def test_tau_zero_never_deletes(self):
        for p in (0.0, 0.3, 0.99, 1.0):
            assert apply_threshold(p, 0.0) is CompressionLabel.KEEP

    def test_tau_one_deletes_any_positive(self):
        assert apply_threshold(0.01, 1.0) is CompressionLabel.DEL
        assert apply_threshold(0.0, 1.0) is CompressionLabel.KEEP

    def test_natural_threshold(self):
        assert apply_threshold(0.6, 0.5) is CompressionLabel.DEL
        assert apply_threshold(0.5, 0.5) is CompressionLabel.KEEP
        assert apply_threshold(0.4, 0.5) is CompressionLabel.KEEP

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = float(rng.uniform())
            t1, t2 = sorted(rng.uniform(size=2))
            if apply_threshold(p, t1) is CompressionLabel.DEL:
                assert apply_threshold(p, t2) is CompressionLabel.DEL

    def test_inputs_validated(self):
        with pytest.raises(ValueError):
            apply_threshold(1.2, 0.5)
        with pytest.raises(ValueError):
            apply_threshold(0.5, -0.1)


def _dedup_doc():
    # "on monday" appears in both sentences; "in june" appears once
    t0 = parse_ptb("(S (NP (DT the) (NN senate)) (VP (VBD met) (PP (IN on) (NP (NNP monday)))) (. .))")
    t1 = parse_ptb("(S (NP (DT the) (NN panel)) (VP (VBD voted) (PP (IN on) (NP (NNP monday))) (PP (IN in) (NP (NNP june)))) (. .))")
    return Document(id="dd", sentences=(t0, t1), reference=(("senate", "panel"),))


def _options_for(doc):
    return {
        i: normalize_options(extract_options(tree), len(tree.tokens))
        for i, tree in enumerate(doc.sentences)
    }


def _bare_summary(doc, selected):
    text = tuple(tuple(doc.sentences[i].token_texts) for i in sorted(selected))
    return Summary(doc_id=doc.id, selected=tuple(selected), deletions=(), text=text)


_DEDUP_WORDS = ["the", "The", "cat", "CAT", "sat", "on", "mat", ",", ".", "--", "-LRB-", "'s"]


@st.composite
def _scored_documents(draw):
    """Selected sentences in a drawn decode order, each with nested or
    disjoint options and a deletion probability per option."""
    n_sents = draw(st.integers(1, 4))
    trees = tuple(corpusgen.flat_tree(draw(st.lists(st.sampled_from(_DEDUP_WORDS),
                                                    min_size=1, max_size=10)))
                  for _ in range(n_sents))
    order = draw(st.permutations(range(n_sents)))
    sentences = []
    for index in order[:draw(st.integers(1, n_sents))]:
        n = len(trees[index].tokens)
        spans: list[Span] = []
        for start, size in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n)),
                                         max_size=6)):
            span = Span(start, min(n, start + size))
            if span not in spans and all(
                    span.end <= o.start or o.end <= span.start
                    or (o.start <= span.start and span.end <= o.end)
                    or (span.start <= o.start and o.end <= span.end) for o in spans):
                spans.append(span)
        options = tuple(CompressionOption(span, draw(st.sampled_from(list(RuleId))), "X")
                        for span in spans)
        p_del = tuple(draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])) for _ in options)
        sentences.append(ScoredSentence(index, options, p_del))
    return ScoredDocument(Document(id="h", sentences=trees), tuple(sentences))


class TestDedup:
    def test_covered_option_deleted(self):
        doc = _dedup_doc()
        summary = dedup_summary(doc, _bare_summary(doc, (0, 1)), _options_for(doc))
        causes = {(d.sentence, (d.span.start, d.span.end)): d.cause
                  for d in summary.deletions}
        # first "on monday" is covered by the second copy
        assert causes[(0, (3, 5))] == CAUSE_DEDUP

    def test_second_copy_loses_coverage_and_survives(self):
        doc = _dedup_doc()
        summary = dedup_summary(doc, _bare_summary(doc, (0, 1)), _options_for(doc))
        deleted_spans = {(d.sentence, (d.span.start, d.span.end))
                         for d in summary.deletions}
        assert (1, (3, 5)) not in deleted_spans

    def test_unique_token_kept(self):
        doc = _dedup_doc()
        summary = dedup_summary(doc, _bare_summary(doc, (0, 1)), _options_for(doc))
        deleted_spans = {(d.sentence, (d.span.start, d.span.end))
                         for d in summary.deletions}
        assert (1, (5, 7)) not in deleted_spans  # "in june" is unique
        assert "june" in [t for sent in summary.text for t in sent]

    def test_idempotent(self):
        doc = _dedup_doc()
        options = _options_for(doc)
        once = dedup_summary(doc, _bare_summary(doc, (0, 1)), options)
        twice = dedup_summary(doc, once, options)
        assert twice == once

    def test_never_removes_a_unigram_type_entirely(self):
        model, docs = trained_model()
        for doc in docs[:8]:
            summary = summarize(model, doc, SummarizeConfig(k=2, tau=0.3, dedup=True))
            survivors = {t.lower() for sent in summary.text for t in sent}
            for deletion in summary.deletions:
                if deletion.cause != CAUSE_DEDUP:
                    continue
                tree = doc.sentences[deletion.sentence]
                span_tokens = {
                    tree.tokens[i].lower()
                    for i in range(deletion.span.start, deletion.span.end)
                    if any(ch.isalnum() for ch in tree.tokens[i])}
                # content unigrams of the deleted span still occur somewhere
                missing = span_tokens - survivors
                covered_by_later_deletion = {
                    t for t in missing
                    if any(t == tree.tokens[i].lower()
                           for d2 in summary.deletions if d2 is not deletion
                           for i in range(d2.span.start, d2.span.end))}
                assert missing == covered_by_later_deletion or not missing

    @settings(max_examples=400, deadline=None)
    @given(_scored_documents(), st.sampled_from([0.0, 0.5, 1.0]))
    def test_counted_dedup_equals_set_based(self, scored, tau):
        base = render(scored, tau, False)
        options = {sent.index: sent.options for sent in scored.sentences}
        expected = reference_rouge.dedup_summary(scored.doc, base, options)
        assert dedup_summary(scored.doc, base, options) == expected
        assert render(scored, tau, True) == expected

    def test_model_deleted_span_not_revisited(self):
        doc = _dedup_doc()
        deletion = AppliedDeletion(0, Span(3, 5), CAUSE_MODEL, RuleId.PP_CONFIG, "PP")
        base = Summary(
            doc_id=doc.id, selected=(0, 1), deletions=(deletion,),
            text=(tuple(t for i, t in enumerate(doc.sentences[0].token_texts)
                        if not 3 <= i < 5),
                  tuple(doc.sentences[1].token_texts)))
        summary = dedup_summary(doc, base, _options_for(doc))
        spans0 = [(d.span.start, d.span.end) for d in summary.deletions if d.sentence == 0]
        assert spans0.count((3, 5)) == 1  # not deleted a second time


class TestSummarize:
    def test_tau_zero_no_dedup_is_pure_extraction(self):
        model, docs = trained_model()
        for doc in docs[:5]:
            summary = summarize(model, doc, SummarizeConfig(k=2, tau=0.0, dedup=False))
            assert summary.deletions == ()
            for i, sent in zip(sorted(summary.selected), summary.text):
                assert sent == doc.sentences[i].token_texts

    def test_tau_one_deletes_every_option(self):
        model, docs = trained_model()
        doc = docs[0]
        summary = summarize(model, doc, SummarizeConfig(k=2, tau=1.0, dedup=False))
        expected = sum(
            len(normalize_options(extract_options(doc.sentences[i]),
                                  len(doc.sentences[i].tokens)))
            for i in summary.selected)
        assert len(summary.deletions) == expected
        assert all(d.cause == CAUSE_MODEL for d in summary.deletions)

    def test_deterministic(self):
        model, docs = trained_model()
        cfg = SummarizeConfig(k=2, tau=0.45)
        assert summarize(model, docs[1], cfg) == summarize(model, docs[1], cfg)

    def test_record_roundtrip(self):
        model, docs = trained_model()
        summary = summarize(model, docs[2], SummarizeConfig(k=2, tau=0.8))
        doc_options = [extract_options(tree) for tree in docs[2].sentences]
        assert summary_from_record(summary_to_record(summary), docs[2], doc_options) == summary

    def test_threshold_monotone_nesting(self):
        model, docs = trained_model()
        for doc in docs[:5]:
            previous: set = set()
            for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
                summary = summarize(model, doc, SummarizeConfig(k=2, tau=tau, dedup=False))
                current = {(d.sentence, d.span.start, d.span.end)
                           for d in summary.deletions}
                assert previous <= current
                previous = current


class TestEvaluate:
    def test_summary_equal_reference_scores_one(self):
        # single-sentence documents with the reference copying the sentence:
        # tau=0 extraction reproduces the reference exactly
        docs, salients = corpusgen.learnable_corpus(count=6, seed=77)
        single = [Document(id=d.id, sentences=(d.sentences[s],),
                           reference=(d.sentences[s].token_texts,))
                  for d, s in zip(docs, salients)]
        result = evaluate_corpus(init_model(seed=0), single,
                                 SummarizeConfig(k=1, tau=0.0, dedup=False))
        assert result.mean1.f1 == pytest.approx(1.0)
        assert result.mean2.f1 == pytest.approx(1.0)
        assert result.mean_l.f1 == pytest.approx(1.0)

    def test_disjoint_reference_scores_zero(self):
        tree = corpusgen.flat_tree(["alpha", "beta"])
        doc = Document(id="z", sentences=(tree,), reference=(("gamma", "delta"),))
        result = evaluate_corpus(init_model(seed=0), [doc],
                                 SummarizeConfig(k=1, tau=0.0, dedup=False))
        assert result.mean1.f1 == 0.0
        assert result.mean_l.f1 == 0.0

    def test_mean_is_arithmetic_mean_of_rows(self):
        model, docs = trained_model()
        result = evaluate_corpus(model, docs[:10], SummarizeConfig(k=2, tau=0.45))
        assert result.mean1.f1 == pytest.approx(
            float(np.mean([row.rouge1.f1 for row in result.rows])))
        assert result.mean_l.recall == pytest.approx(
            float(np.mean([row.rouge_l.recall for row in result.rows])))

    def test_tau_zero_dedup_off_equals_raw_extraction(self):
        # compression code is provably inert at the extractive endpoint
        model, docs = trained_model()
        cfg = SummarizeConfig(k=2, tau=0.0, dedup=False)
        result = evaluate_corpus(model, docs[:6], cfg)
        for doc, row in zip(docs[:6], result.rows):
            selected = sorted(summarize(model, doc, cfg).selected)
            raw = Summary(doc_id=doc.id, selected=tuple(selected), deletions=(),
                          text=tuple(doc.sentences[i].token_texts for i in selected))
            assert score_summary(raw, preprocess_tokens(doc.reference_tokens,
                                                        EVAL_PREPROCESS)) == row

    def test_missing_reference_skipped_and_counted(self, caplog):
        model, docs = trained_model()
        stripped = Document(id="noref", sentences=docs[0].sentences)
        with caplog.at_level(logging.WARNING):
            result = evaluate_corpus(model, [docs[1], stripped],
                                     SummarizeConfig(k=2, tau=0.0))
        assert result.skipped == 1
        assert len(result.rows) == 1


GRID_101 = [i / 100 for i in range(101)]


def _point_values(point):
    return (point.tau, point.rouge1_f1, point.rouge2_f1, point.rouge_l_f1,
            point.mean_f1, point.compression_ratio)


def _fresh_values(scored, tau, dedup):
    """A sweep point from a fresh render and score_summary of every document."""
    summaries = [render(s, tau, dedup) for s in scored]
    rows = [score_summary(summary, preprocess_tokens(s.doc.reference_tokens, EVAL_PREPROCESS))
            for summary, s in zip(summaries, scored)]
    f1 = [float(np.mean([getattr(row, name).f1 for row in rows]))
          for name in ("rouge1", "rouge2", "rouge_l")]
    before = sum(len(s.doc.sentences[sent.index].tokens)
                 for s in scored for sent in s.sentences)
    after = sum(len(sent) for summary in summaries for sent in summary.text)
    return (tau, *f1, sum(f1) / 3.0, after / before)


class TestSweep:
    def test_endpoints_and_monotone_ratio(self):
        model, docs = trained_model()
        grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        points = sweep_threshold(model, docs[:6], grid,
                                 SummarizeConfig(k=2, tau=0.0, dedup=False))
        assert points[0].compression_ratio == pytest.approx(1.0)
        ratios = [p.compression_ratio for p in points]
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
        assert [p.tau for p in points] == grid

    def test_mean_f1_is_average_of_three(self):
        model, docs = trained_model()
        points = sweep_threshold(model, docs[:4], [0.45],
                                 SummarizeConfig(k=2, tau=0.0, dedup=False))
        point = points[0]
        assert point.mean_f1 == pytest.approx(
            (point.rouge1_f1 + point.rouge2_f1 + point.rouge_l_f1) / 3.0)


    def test_points_equal_evaluate_at_each_tau(self, caplog):
        model, docs = trained_model()
        corpus = [docs[0], Document(id="noref", sentences=docs[1].sentences), *docs[2:6]]
        grid = [0.0, 0.3, 0.45, 0.6, 0.9, 1.0]
        for dedup in (False, True):
            with caplog.at_level(logging.WARNING):
                points = sweep_threshold(model, corpus, grid,
                                         SummarizeConfig(k=2, tau=0.0, dedup=dedup))
            for tau, point in zip(grid, points):
                result = evaluate_corpus(model, corpus,
                                         SummarizeConfig(k=2, tau=tau, dedup=dedup))
                assert result.skipped == 1 and len(result.rows) == 5
                assert point.rouge1_f1 == result.mean1.f1
                assert point.rouge2_f1 == result.mean2.f1
                assert point.rouge_l_f1 == result.mean_l.f1

    def test_points_equal_fresh_render_and_score_on_101_taus(self):
        model, docs = trained_model()
        scored = [score_document(model, doc, 2) for doc in docs[:6]]
        for dedup in (False, True):
            points = sweep_threshold(model, docs[:6], GRID_101,
                                     SummarizeConfig(k=2, tau=0.0, dedup=dedup))
            assert [_point_values(p) for p in points] == [
                _fresh_values(scored, tau, dedup) for tau in GRID_101]

    def test_text_repeating_at_nonadjacent_taus(self, monkeypatch):
        # Dedup matches lowercased words, so which copies of "rates" survive
        # depends on which ones the model deleted: the text goes "rates",
        # "Rates rates", "rates", "" as tau rises.
        import compsum.pipeline as pipeline_mod

        model, docs = trained_model()
        tree = parse_ptb("(S (NNS rates) (NP (NNS Rates) (NNS rates)) (NNS rates))")
        doc = Document(id="repeat", sentences=(tree,), reference=(("rates", "rose"),))
        options = tuple(CompressionOption(span, RuleId.ADJP_IN_NP, "NNS")
                        for span in (Span(0, 1), Span(1, 3), Span(3, 4)))
        repeat = ScoredDocument(doc, (ScoredSentence(0, options, (0.2, 0.6, 0.8)),))
        texts = [render(repeat, tau, True).text for tau in (0.1, 0.3, 0.5, 0.9)]
        assert texts == [(("rates",),), (("Rates", "rates"),), (("rates",),), ((),)]

        original = pipeline_mod.score_document
        monkeypatch.setattr(pipeline_mod, "score_document", lambda m, d, k: (
            repeat if d is doc else original(m, d, k)))
        corpus = [docs[0], doc, docs[1]]
        scored = [original(model, docs[0], 2), repeat, original(model, docs[1], 2)]
        for dedup in (False, True):
            points = sweep_threshold(model, corpus, GRID_101,
                                     SummarizeConfig(k=2, tau=0.0, dedup=dedup))
            assert [_point_values(p) for p in points] == [
                _fresh_values(scored, tau, dedup) for tau in GRID_101]

    def test_one_shot_generator_gives_the_list_result(self, caplog):
        # the corpus is read in one in-order pass: its length was once taken
        # first, so a generator was rejected with a TypeError
        model, docs = trained_model()
        corpus = [docs[0], Document(id="noref", sentences=docs[1].sentences), *docs[2:6]]
        grid = [0.0, 0.45, 0.9]
        for dedup in (False, True):
            cfg = SummarizeConfig(k=2, tau=0.45, dedup=dedup)
            with caplog.at_level(logging.WARNING):
                assert evaluate_corpus(model, iter(corpus), cfg) == evaluate_corpus(
                    model, corpus, cfg)
                assert sweep_threshold(model, (doc for doc in corpus), grid, cfg) == (
                    sweep_threshold(model, corpus, grid, cfg))

    def test_bad_tau_rejected_before_scoring(self, monkeypatch):
        import compsum.pipeline as pipeline_mod

        def fail(*args):
            raise AssertionError("scored a document")

        monkeypatch.setattr(pipeline_mod, "score_document", fail)
        model, docs = trained_model()
        with pytest.raises(ValueError, match="tau"):
            sweep_threshold(model, docs[:2], [0.2, 1.5], SummarizeConfig(k=2))


class TestScoreOnceRenderMany:
    def test_summarize_is_render_of_scored_document(self):
        model, docs = trained_model()
        for doc in docs[:6]:
            scored = score_document(model, doc, 2)
            assert [s.index for s in scored.sentences] == decode_greedy(model, doc, 2)
            for tau in (0.0, 0.45, 1.0):
                for dedup in (False, True):
                    assert render(scored, tau, dedup) == summarize(
                        model, doc, SummarizeConfig(k=2, tau=tau, dedup=dedup))

    @pytest.mark.parametrize("train_config", [
        None, {}, {"max_sents": 45}, {"max_sents": 5}, asdict(TrainConfig())],
        ids=["none", "empty", "max_sents-45", "max_sents-5", "trained"])
    def test_decoding_selects_among_the_first_max_sents(self, train_config):
        # a train_config without "max_sents" once failed with KeyError 'max_sents'
        model = init_model(seed=0)
        model.train_config = train_config
        doc = corpusgen.random_flat_doc(np.random.default_rng(5), "long", MAX_SENTS + 6)
        scored = score_document(model, doc, MAX_SENTS)
        assert sorted(s.index for s in scored.sentences) == list(range(MAX_SENTS))
        assert sorted(decode_greedy(model, doc, MAX_SENTS)) == list(range(MAX_SENTS))
        with pytest.raises(ValueError, match=f"30 scoreable sentences but k={MAX_SENTS + 1}"):
            score_document(model, doc, MAX_SENTS + 1)


_SCORED = [score_document(init_model(seed=0), doc, 2)
           for doc in corpusgen.learnable_corpus(count=10, seed=3)[0]]


class TestRenderWithoutDedup:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from(_SCORED), _scored_documents()), st.data())
    def test_text_is_surviving_tokens_of_any_deletions(self, scored, data):
        count = sum(len(sent.options) for sent in scored.sentences)
        deleted = tuple(data.draw(st.lists(st.booleans(), min_size=count, max_size=count)))
        summary = _render(scored, deleted, False)
        assert len(summary.deletions) == sum(deleted)
        assert all(d.cause == CAUSE_MODEL for d in summary.deletions)
        expected = tuple(
            tuple(surviving_tokens(scored.doc.sentences[i],
                                   [d.span for d in summary.deletions if d.sentence == i]))
            for i in sorted(summary.selected))
        assert summary.text == expected


def _options(docs):
    """Each document's extract_options per sentence, as stats_report takes them."""
    return [[extract_options(tree) for tree in doc.sentences] for doc in docs]


class TestStats:
    def test_option_only_shares(self):
        docs = corpusgen.fixture_corpus()
        rows = stats_report(_options(docs))
        assert sum(row.pct_of_comps for row in rows) == pytest.approx(100.0)
        assert all(row.comp_acc is None and row.dedup_pct is None for row in rows)

    def test_single_token_options_have_length_one(self):
        docs = corpusgen.fixture_corpus()
        rows = {row.node_label: row for row in stats_report(_options(docs))}
        assert rows["JJ"].mean_len == 1.0

    def test_full_report_has_table_columns(self):
        model, docs = trained_model()
        cfg = OracleConfig(k=2, m=5)
        oracles = [build_document_oracles(d, cfg) for d in docs[:6]]
        summaries = [summarize(model, d, SummarizeConfig(k=2, tau=0.6))
                     for d in docs[:6]]
        rows = stats_report(_options(docs[:6]), oracles, summaries)
        for row in rows:
            assert row.mean_len >= 1.0
            assert row.comp_acc is None or 0.0 <= row.comp_acc <= 100.0
        applied = [row for row in rows if row.dedup_pct is not None]
        assert applied, "some node type should have applied deletions"
