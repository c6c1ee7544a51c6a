"""Acceptance suite: the ten shipping criteria, one test each.

Each test prints a single pass line (visible with -s or in the captured
output) after its assertions succeed. Tolerances and runtime budgets are
asserted exactly as stated.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import corpusgen
from reference_oracle import exhaustive_oracle, oracle_inputs
from test_rouge import all_subsequences, brute_ngram_score
from test_rules import FIXTURES

from compsum import parse_ptb
from compsum.features import DocumentContext, advance_state, featurize_option, initial_state
from compsum.model import (
    TrainConfig,
    classify_option,
    compile_example,
    decode_greedy,
    gradient_check,
    init_model,
    load_model,
    loss_joint,
    models_equal,
    save_model,
    score_remaining,
    train,
    _loss_and_grads_compiled,
)
from compsum.oracle import (
    CompressabilityBucket,
    CompressionLabel,
    DocumentOracles,
    LabeledOption,
    OracleConfig,
    beam_search_oracle,
    build_document_oracles,
    compressability_report,
)
from compsum.pipeline import (
    CAUSE_MODEL,
    SummarizeConfig,
    stats_report,
    summarize,
    summary_to_record,
    sweep_threshold,
)
from compsum.rouge import PreprocessConfig, approx_oracle_score, rouge_l, rouge_n
from compsum.rules import CompressionOption, RuleId, extract_options, normalize_options
from compsum.treebank import Span

DATA_DIR = Path(__file__).parent / "data"


def report(number: int, description: str) -> None:
    print(f"[criterion {number:02d}] PASS - {description}")


def make_training_examples(docs, k=2, m=5):
    cfg = OracleConfig(k=k, beam_width=8, m=m)
    return [build_document_oracles(doc, cfg) for doc in docs]


def test_criterion_01_rouge_matches_brute_force():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    vocab = list("abcd")
    for _ in range(200):
        cand = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(0, 13))]
        ref = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(0, 13))]
        for n in (1, 2):
            got = rouge_n(cand, [ref], n)
            want = brute_ngram_score(cand, [ref], n)
            assert abs(got.precision - want[0]) <= 1e-9
            assert abs(got.recall - want[1]) <= 1e-9
            assert abs(got.f1 - want[2]) <= 1e-9
        got = rouge_l(cand, ref)
        if cand and ref:
            common = all_subsequences(tuple(cand)) & all_subsequences(tuple(ref))
            lcs = max(len(s) for s in common)
            assert abs(got.precision - lcs / len(cand)) <= 1e-9
            assert abs(got.recall - lcs / len(ref)) <= 1e-9
        else:
            assert got.f1 == 0.0
    # worked examples
    score = rouge_n(["a", "b", "c", "d"], [["a", "b", "e", "f"]], 1)
    assert (score.precision, score.recall, score.f1) == (0.5, 0.5, 0.5)
    score = rouge_n(["a", "a"], [["a"]], 1)
    assert (score.precision, score.recall) == (0.5, 1.0)
    assert abs(score.f1 - 2.0 / 3.0) <= 1e-9
    score = rouge_l(["a", "b", "c", "d"], ["a", "c", "b", "d"])
    assert (score.precision, score.recall, score.f1) == (0.75, 0.75, 0.75)
    approx = approx_oracle_score(["a", "b", "c"], ["a", "b", "d"],
                                 PreprocessConfig(stopword_list=frozenset({"qq"})))
    assert abs(approx - 7.0 / 12.0) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, f"rouge_n/rouge_l equal brute-force oracles on 200 sequences ({elapsed:.1f}s)")


def test_criterion_02_rule_fixtures_exact():
    assert len(FIXTURES) == 15
    covered = set()
    for name, source, gold in FIXTURES:
        tree = parse_ptb(source)
        found = {(o.span.start, o.span.end): o.rule for o in extract_options(tree)}
        assert found == gold, name
        covered.update(gold.values())
    assert covered == set(RuleId), "every rule exercised"
    fig = dict(FIXTURES[0][2])
    assert fig[(6, 7)] is RuleId.ADJP_IN_NP          # "intimate"
    assert fig[(9, 10)] is RuleId.ADJP_IN_NP         # "well-known"
    assert fig[(11, 15)] is RuleId.PP_CONFIG         # "with their furry friends"
    assert fig[(8, 15)] is RuleId.GERUNDIVE_VP_IN_NP # "featuring ... friends"
    report(2, "15 hand-annotated fixtures return exactly the gold spans")


def test_criterion_03_beam_matches_exhaustive():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    for i in range(50):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, min(3, n) + 1))
        doc = corpusgen.random_flat_doc(rng, f"small{i}", n)
        grams, _, sents = oracle_inputs(doc.sentences, doc.reference_tokens)
        beam = beam_search_oracle(grams, sents, OracleConfig(k=k))
        best = exhaustive_oracle(doc, doc.reference_tokens, k)
        assert beam[0].score <= best.score + 1e-12
        assert beam[0].score == pytest.approx(best.score, abs=1e-12), f"small doc {i}"
    matches = 0
    for i in range(50):
        doc = corpusgen.random_flat_doc(rng, f"large{i}", 10)
        grams, _, sents = oracle_inputs(doc.sentences, doc.reference_tokens)
        beam = beam_search_oracle(grams, sents, OracleConfig(k=3))
        best = exhaustive_oracle(doc, doc.reference_tokens, 3)
        assert beam[0].score <= best.score + 1e-12, "beam must never exceed exhaustive"
        matches += abs(beam[0].score - best.score) < 1e-12
    assert matches >= 45, f"only {matches}/50 matched at n=10"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s"
    report(3, f"beam = exhaustive on all small docs, {matches}/50 at n=10 ({elapsed:.1f}s)")


def test_criterion_04_labeling_roundtrip():
    violations = 0
    checked = 0
    fixture_docs = corpusgen.fixture_corpus() + corpusgen.learnable_corpus(
        count=30, seed=44)[0]
    for doc in fixture_docs:
        oracles = build_document_oracles(doc, OracleConfig(k=1, m=1))
        reference = doc.reference_tokens
        for sent_index, labeled in enumerate(oracles.labels):
            tree = doc.sentences[sent_index]
            texts = list(tree.token_texts)
            r_before = approx_oracle_score(texts, reference)
            for lab in labeled:
                survivors = texts[:lab.option.span.start] + texts[lab.option.span.end:]
                r_after = approx_oracle_score(survivors, reference)
                checked += 1
                if lab.label is CompressionLabel.DEL:
                    violations += not (r_after > r_before)
                else:
                    violations += not (r_after <= r_before)
    assert checked > 0
    assert violations == 0
    report(4, f"labeling round-trip clean on {checked} fixture options")


def test_criterion_05_gradient_check():
    docs, _ = corpusgen.learnable_corpus(count=10, seed=55)
    examples = make_training_examples(docs)
    worst = 0.0
    for seed, example in enumerate(examples):
        error = gradient_check(init_model(seed=seed), example)
        worst = max(worst, error)
    assert worst < 1e-4, f"max relative error {worst:.3e}"
    # mutation: a corrupted gradient must be flagged
    example = examples[0]
    model = init_model(seed=0)
    compiled = compile_example(example)
    _, grads = _loss_and_grads_compiled(
        {k: v.copy() for k, v in model.params.items()}, compiled, 1.0)
    grads["w_m"] = grads["w_m"] + 0.05
    mutated = gradient_check(model, example, grads=grads)
    assert mutated > 1e-2, f"mutation not detected: {mutated:.3e}"
    report(5, f"analytic vs central differences: max error {worst:.2e}; "
              f"mutation detected at {mutated:.2e}")


def test_criterion_06_learning_sanity():
    start = time.monotonic()
    docs, _ = corpusgen.learnable_corpus(count=200, seed=7)
    examples = make_training_examples(docs, k=2, m=5)
    train_examples, held_out = examples[:160], examples[160:]
    model, trace = train(train_examples,
                         TrainConfig(epochs=2, learning_rate=0.001, alpha=1.0, seed=13))
    assert len(trace) == 2

    correct = total = 0
    for example in held_out:
        ctx = DocumentContext(example.doc)
        state = initial_state(2)
        for sent_index, labeled in enumerate(example.labels):
            for lab in labeled:
                p_del = classify_option(
                    model, featurize_option(ctx, sent_index, lab.option, state))
                predicted = (CompressionLabel.DEL if p_del > 0.5
                             else CompressionLabel.KEEP)
                correct += predicted is lab.label
                total += 1
    accuracy = correct / total
    assert accuracy >= 0.9, f"held-out compression accuracy {accuracy:.3f}"

    first_pick_hits = sum(
        decode_greedy(model, example.doc, 2)[0] == example.candidates[0].sentence_indices[0]
        for example in held_out)
    first_pick = first_pick_hits / len(held_out)
    assert first_pick >= 0.8, f"first-pick match rate {first_pick:.2f}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 6 took {elapsed:.1f}s"
    report(6, f"compression accuracy {accuracy:.3f}, first-pick {first_pick:.2f} "
              f"({elapsed:.1f}s)")


def test_criterion_07_threshold_endpoints_and_monotonicity():
    docs, _ = corpusgen.learnable_corpus(count=12, seed=71)
    model, _ = train(make_training_examples(docs), TrainConfig(epochs=2, seed=3))
    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    for doc in docs[:6]:
        zero = summarize(model, doc, SummarizeConfig(k=2, tau=0.0, dedup=False))
        assert not [d for d in zero.deletions if d.cause == CAUSE_MODEL]
        full = summarize(model, doc, SummarizeConfig(k=2, tau=1.0, dedup=False))
        available = sum(
            len(normalize_options(extract_options(doc.sentences[i]),
                                  len(doc.sentences[i].tokens)))
            for i in full.selected)
        assert len(full.deletions) == available  # sigmoid outputs are all > 0
        previous: set = set()
        for tau in grid:
            summary = summarize(model, doc, SummarizeConfig(k=2, tau=tau, dedup=False))
            deleted = {(d.sentence, d.span.start, d.span.end) for d in summary.deletions}
            assert previous <= deleted, f"tau={tau} not nested"
            previous = deleted
    points = sweep_threshold(model, docs, grid, SummarizeConfig(k=2, tau=0.0, dedup=False))
    ratios = [p.compression_ratio for p in points]
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
    report(7, "tau endpoints exact, deletion sets nested, sweep ratio non-increasing")


def test_criterion_08_joint_probability_identity():
    docs, _ = corpusgen.learnable_corpus(count=20, seed=81)
    examples = make_training_examples(docs, m=5)
    for seed, example in enumerate(examples):
        model = init_model(seed=seed)
        single = DocumentOracles(example.doc, example.candidates[:1], example.labels)
        loss = loss_joint(model, single, alpha=1.0)
        ctx = DocumentContext(example.doc)
        state = initial_state(len(single.candidates[0].sentence_indices))
        product = 1.0
        for target in single.candidates[0].sentence_indices:
            probs = score_remaining(model, state, ctx.document_features,
                                    ctx.sentence_features)
            product *= probs[target]
            for lab in example.labels[target]:
                p_del = classify_option(
                    model, featurize_option(ctx, target, lab.option, state))
                product *= p_del if lab.label is CompressionLabel.DEL else 1.0 - p_del
            state = advance_state(ctx, state, target)
        assert math.exp(-loss) == pytest.approx(product, rel=1e-9)
    report(8, "exp(-loss) equals the explicit probability product on 20 fixtures")


def test_criterion_09_report_formats():
    option = CompressionOption(Span(0, 1), RuleId.ADVP, "RB")
    labeled = (
        [LabeledOption(option, 1.0, 0.95, CompressionLabel.KEEP)] * 27
        + [LabeledOption(option, 1.0, 1.02, CompressionLabel.DEL)] * 58
        + [LabeledOption(option, 1.0, 1.2, CompressionLabel.DEL)] * 15
    )
    percentages = compressability_report(labeled)
    assert set(percentages) == set(CompressabilityBucket)
    assert percentages[CompressabilityBucket.BAD] == pytest.approx(27.0)
    assert percentages[CompressabilityBucket.WEAK_POSITIVE] == pytest.approx(58.0)
    assert percentages[CompressabilityBucket.STRONG_POSITIVE] == pytest.approx(15.0)
    assert sum(percentages.values()) == pytest.approx(100.0, abs=0.1)
    # boundary placement: 1.00 is BAD, 1.05 is still WEAK_POSITIVE
    edge = compressability_report([
        LabeledOption(option, 1.0, 1.0, CompressionLabel.KEEP),
        LabeledOption(option, 1.0, 1.05, CompressionLabel.DEL),
    ])
    assert edge[CompressabilityBucket.BAD] == pytest.approx(50.0)
    assert edge[CompressabilityBucket.WEAK_POSITIVE] == pytest.approx(50.0)

    docs = corpusgen.fixture_corpus()
    oracles = [build_document_oracles(d, OracleConfig(k=1, m=1)) for d in docs]
    docs2, _ = corpusgen.learnable_corpus(count=8, seed=91)
    model, _ = train(make_training_examples(docs2), TrainConfig(epochs=1, seed=1))
    summaries = [summarize(model, d, SummarizeConfig(k=1, tau=0.6)) for d in docs]
    options = [[extract_options(tree) for tree in doc.sentences] for doc in docs]
    rows = stats_report(options, oracles, summaries)
    assert rows, "stats report is non-empty"
    for row in rows:
        assert hasattr(row, "mean_len")       # Len
        assert hasattr(row, "pct_of_comps")   # % of comps
        assert hasattr(row, "comp_acc")       # Comp Acc
        assert hasattr(row, "dedup_pct")      # Dedup
        assert row.comp_acc is None or 0.0 <= row.comp_acc <= 100.0
    report(9, "bucket report and node-type table match the published layouts")


def test_criterion_10_determinism_and_persistence(tmp_path):
    docs, _ = corpusgen.learnable_corpus(count=10, seed=10)
    examples = make_training_examples(docs)
    cfg = TrainConfig(epochs=2, seed=29)
    first, trace_first = train(examples, cfg)
    second, trace_second = train(examples, cfg)
    assert models_equal(first, second)
    assert trace_first == trace_second

    path = tmp_path / "model.json"
    save_model(first, path)
    assert models_equal(load_model(path), first)

    golden_path = DATA_DIR / "golden_summary.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    model, _ = train(make_training_examples(
        corpusgen.learnable_corpus(count=golden["train_docs"],
                                   seed=golden["train_seed"])[0]),
        TrainConfig(epochs=2, seed=golden["model_seed"]))
    fixture_docs, _ = corpusgen.learnable_corpus(count=golden["eval_docs"],
                                                 seed=golden["eval_seed"])
    produced = [
        summary_to_record(summarize(model, doc,
                                    SummarizeConfig(k=2, tau=golden["tau"])))
        for doc in fixture_docs
    ]
    assert produced == golden["summaries"]
    again = [
        summary_to_record(summarize(model, doc,
                                    SummarizeConfig(k=2, tau=golden["tau"])))
        for doc in fixture_docs
    ]
    assert again == produced
    report(10, "seeded training bit-identical; save/load exact; golden summaries stable")
