"""Summary assembly, heuristic deduplication, evaluation, sweeps, reports.

Summarizing is two steps. score_document() runs greedy sentence selection
once and computes each selected sentence's compression options and their
deletion probabilities; none of that depends on the threshold tau.
render() then deletes the options whose probability clears the threshold
and optionally applies unigram-coverage deduplication. summarize() is
render(score_document(...)); evaluate_corpus() and sweep_threshold() score
each document with a reference once, and the sweep renders it at every
tau. Decoding reads max_sents, the number of leading sentences that can be
selected, from the model's training config; ROUGE always preprocesses with
the fixed EVAL_PREPROCESS (lowercasing only). Everything here is a pure
function of (model, document, config).
"""

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Document
from .features import DocumentContext, featurize_option
from .model import Model, classify_option, greedy_steps
from .oracle import CompressionLabel, DocumentOracles
from .rouge import PreprocessConfig, RougeScore, is_punctuation, preprocess_tokens, rouge_l, rouge_n
from .rules import CompressionOption, RuleId, extract_options
from .treebank import Span, surviving_tokens

logger = logging.getLogger(__name__)

EVAL_PREPROCESS = PreprocessConfig(lowercase=True)

CAUSE_MODEL = "MODEL"
CAUSE_DEDUP = "DEDUP"


@dataclass(frozen=True)
class SummarizeConfig:
    k: int = 3
    tau: float = 0.45
    dedup: bool = True

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau={self.tau} must lie in [0, 1]")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class AppliedDeletion:
    sentence: int
    span: Span
    cause: str  # CAUSE_MODEL or CAUSE_DEDUP
    rule: RuleId
    node_label: str


@dataclass(frozen=True)
class Summary:
    doc_id: str
    selected: tuple[int, ...]                 # decode order
    deletions: tuple[AppliedDeletion, ...]
    text: tuple[tuple[str, ...], ...]         # document order of selected


def apply_threshold(p_del: float, tau: float) -> CompressionLabel:
    """DEL iff p_del > 1 - tau: tau=0 never deletes, tau=1 deletes anything
    with positive probability, tau=0.5 is the natural p > 0.5 rule."""
    if not 0.0 <= p_del <= 1.0:
        raise ValueError(f"p_del={p_del} must lie in [0, 1]")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau={tau} must lie in [0, 1]")
    return CompressionLabel.DEL if p_del > 1.0 - tau else CompressionLabel.KEEP


def _render_text(doc: Document, selected: Sequence[int],
                 deletions: Sequence[AppliedDeletion]) -> tuple[tuple[str, ...], ...]:
    by_sentence: dict[int, list[Span]] = {}
    for deletion in deletions:
        by_sentence.setdefault(deletion.sentence, []).append(deletion.span)
    return tuple(
        tuple(surviving_tokens(doc.sentences[i], by_sentence.get(i, [])))
        for i in sorted(selected))


@dataclass(frozen=True)
class ScoredSentence:
    index: int
    options: tuple[CompressionOption, ...]   # in extraction order
    p_del: tuple[float, ...]                 # one per option


@dataclass(frozen=True)
class ScoredDocument:
    doc: Document
    sentences: tuple[ScoredSentence, ...]    # decode order


def score_document(model: Model, doc: Document, k: int) -> ScoredDocument:
    """Greedy extraction of k sentences and the deletion probability of each
    selected sentence's options; nothing here depends on tau."""
    ctx = DocumentContext(doc)
    sentences = []
    for pick, state in greedy_steps(model, ctx, k):
        options = tuple(extract_options(doc.sentences[pick]))
        p_del = tuple(classify_option(model, featurize_option(ctx, pick, option, state))
                      for option in options)
        sentences.append(ScoredSentence(pick, options, p_del))
    return ScoredDocument(doc, tuple(sentences))


def render(scored: ScoredDocument, tau: float, dedup: bool) -> Summary:
    """Threshold-gated compression of a scored document, optional deduplication."""
    doc = scored.doc
    selected = tuple(sent.index for sent in scored.sentences)
    deletions = [
        AppliedDeletion(sent.index, option.span, CAUSE_MODEL, option.rule, option.node_label)
        for sent in scored.sentences
        for option, p_del in zip(sent.options, sent.p_del)
        if apply_threshold(p_del, tau) is CompressionLabel.DEL]
    summary = Summary(
        doc_id=doc.id, selected=selected, deletions=tuple(deletions),
        text=_render_text(doc, selected, deletions))
    if dedup:
        summary = dedup_summary(doc, summary,
                                {sent.index: sent.options for sent in scored.sentences})
    return summary


def summarize(model: Model, doc: Document, cfg: SummarizeConfig) -> Summary:
    """Greedy extraction, threshold-gated compression, optional deduplication."""
    return render(score_document(model, doc, cfg.k), cfg.tau, cfg.dedup)


def dedup_summary(doc: Document, summary: Summary,
                  options: Mapping[int, Sequence[CompressionOption]]) -> Summary:
    """Delete surviving options whose unigrams all occur elsewhere in the summary.

    Options are visited in document order; coverage is recomputed after each
    deletion, so an earlier deletion can save a later duplicate. Unigram
    matching is lowercased and ignores punctuation tokens.
    """
    ordered_sents = sorted(summary.selected)
    live: dict[int, list[bool]] = {
        i: [True] * len(doc.sentences[i].tokens) for i in ordered_sents}
    for deletion in summary.deletions:
        for pos in range(deletion.span.start, deletion.span.end):
            live[deletion.sentence][pos] = False
    lowered = {i: [t.text.lower() for t in doc.sentences[i].tokens]
               for i in ordered_sents}

    deletions = list(summary.deletions)
    for sent in ordered_sents:
        for option in sorted(options.get(sent, []),
                             key=lambda o: (o.span.start, -len(o.span))):
            span = option.span
            alive = [pos for pos in range(span.start, span.end) if live[sent][pos]]
            if not alive:
                continue  # already gone via the model or an outer option
            content = {lowered[sent][pos] for pos in alive
                       if not is_punctuation(lowered[sent][pos])}
            outside: set[str] = set()
            for other in ordered_sents:
                for pos, ok in enumerate(live[other]):
                    if ok and not (other == sent and span.start <= pos < span.end):
                        outside.add(lowered[other][pos])
            if content <= outside:
                for pos in alive:
                    live[sent][pos] = False
                deletions.append(AppliedDeletion(
                    sent, span, CAUSE_DEDUP, option.rule, option.node_label))

    text = tuple(
        tuple(doc.sentences[i].tokens[pos].text
              for pos in range(len(live[i])) if live[i][pos])
        for i in ordered_sents)
    return Summary(doc_id=summary.doc_id, selected=summary.selected,
                   deletions=tuple(deletions), text=text)


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class EvaluationRow:
    doc_id: str
    rouge1: RougeScore
    rouge2: RougeScore
    rouge_l: RougeScore


@dataclass(frozen=True)
class EvaluationResult:
    rows: tuple[EvaluationRow, ...]
    mean1: RougeScore
    mean2: RougeScore
    mean_l: RougeScore
    skipped: int


def _mean_scores(scores: Sequence[RougeScore]) -> RougeScore:
    if not scores:
        return RougeScore(0.0, 0.0, 0.0)
    return RougeScore(
        float(np.mean([s.precision for s in scores])),
        float(np.mean([s.recall for s in scores])),
        float(np.mean([s.f1 for s in scores])))


def score_summary(summary: Summary, doc: Document) -> EvaluationRow:
    candidate = preprocess_tokens([t for sent in summary.text for t in sent], EVAL_PREPROCESS)
    reference = preprocess_tokens(doc.reference_tokens, EVAL_PREPROCESS)
    return EvaluationRow(
        doc_id=doc.id,
        rouge1=rouge_n(candidate, [reference], 1),
        rouge2=rouge_n(candidate, [reference], 2),
        rouge_l=rouge_l(candidate, reference))


def _score_referenced(model: Model, corpus: Sequence[Document],
                      k: int) -> tuple[list[ScoredDocument], int]:
    """Score every document that has a reference; returns them and the skip count."""
    scored = []
    for doc in corpus:
        if doc.reference:
            scored.append(score_document(model, doc, k))
        else:
            logger.warning("document %s has no reference; skipped", doc.id)
    skipped = len(corpus) - len(scored)
    if skipped:
        logger.warning("%d document(s) skipped for missing references", skipped)
    return scored, skipped


def _evaluation(rows: Sequence[EvaluationRow], skipped: int) -> EvaluationResult:
    return EvaluationResult(
        rows=tuple(rows),
        mean1=_mean_scores([r.rouge1 for r in rows]),
        mean2=_mean_scores([r.rouge2 for r in rows]),
        mean_l=_mean_scores([r.rouge_l for r in rows]),
        skipped=skipped)


def evaluate_corpus(model: Model, corpus: Sequence[Document],
                    cfg: SummarizeConfig) -> EvaluationResult:
    """Per-document ROUGE rows plus component-wise corpus means."""
    scored, skipped = _score_referenced(model, corpus, cfg.k)
    rows = [score_summary(render(s, cfg.tau, cfg.dedup), s.doc) for s in scored]
    return _evaluation(rows, skipped)


@dataclass(frozen=True)
class SweepPoint:
    tau: float
    rouge1_f1: float
    rouge2_f1: float
    rouge_l_f1: float
    mean_f1: float
    compression_ratio: float


def sweep_threshold(model: Model, corpus: Sequence[Document], tau_grid: Sequence[float],
                    cfg: SummarizeConfig = SummarizeConfig()) -> list[SweepPoint]:
    """Evaluate each threshold; reports averaged F1 and the token-level
    compression ratio (summary tokens after deletions / before). Each
    document is scored once and rendered at every tau."""
    for tau in tau_grid:
        SummarizeConfig(k=cfg.k, tau=tau, dedup=cfg.dedup)  # rejects a bad tau up front
    scored, skipped = _score_referenced(model, corpus, cfg.k)
    tokens_before = sum(len(s.doc.sentences[sent.index].tokens)
                        for s in scored for sent in s.sentences)
    points = []
    for tau in tau_grid:
        summaries = [render(s, tau, cfg.dedup) for s in scored]
        result = _evaluation([score_summary(summary, s.doc)
                              for summary, s in zip(summaries, scored)], skipped)
        tokens_after = sum(len(sent) for summary in summaries for sent in summary.text)
        ratio = tokens_after / tokens_before if tokens_before else 0.0
        f1_1, f1_2, f1_l = result.mean1.f1, result.mean2.f1, result.mean_l.f1
        points.append(SweepPoint(tau, f1_1, f1_2, f1_l, (f1_1 + f1_2 + f1_l) / 3.0, ratio))
    return points


# ---------------------------------------------------------------------------
# Statistics report (per node type: Len, % of comps, Comp Acc, Dedup)


@dataclass(frozen=True)
class StatsRow:
    node_label: str
    mean_len: float
    pct_of_comps: float
    comp_acc: float | None
    dedup_pct: float | None


def stats_report(corpus: Sequence[Document],
                 oracles: Sequence[DocumentOracles] | None = None,
                 summaries: Sequence[Summary] | None = None) -> list[StatsRow]:
    """Aggregate option statistics per constituency node type.

    pct_of_comps is the share among applied deletions when summaries are
    given, otherwise the share among all available options. comp_acc is the
    oracle DEL rate for the type; dedup_pct the share of its applied
    deletions coming from deduplication rather than the model.
    """
    lengths: dict[str, list[int]] = {}
    option_counts: dict[str, int] = {}
    for doc in corpus:
        for tree in doc.sentences:
            for option in extract_options(tree):
                lengths.setdefault(option.node_label, []).append(len(option.span))
                option_counts[option.node_label] = option_counts.get(option.node_label, 0) + 1

    del_counts: dict[str, int] = {}
    labeled_counts: dict[str, int] = {}
    if oracles is not None:
        for entry in oracles:
            for lab in entry.all_labeled():
                label = lab.option.node_label
                labeled_counts[label] = labeled_counts.get(label, 0) + 1
                if lab.label is CompressionLabel.DEL:
                    del_counts[label] = del_counts.get(label, 0) + 1

    applied_counts: dict[str, int] = {}
    dedup_counts: dict[str, int] = {}
    if summaries is not None:
        for summary in summaries:
            for deletion in summary.deletions:
                applied_counts[deletion.node_label] = applied_counts.get(deletion.node_label, 0) + 1
                if deletion.cause == CAUSE_DEDUP:
                    dedup_counts[deletion.node_label] = dedup_counts.get(deletion.node_label, 0) + 1

    share_base = applied_counts if summaries is not None else option_counts
    share_total = sum(share_base.values())
    rows = []
    for label in sorted(lengths, key=lambda lab: (-share_base.get(lab, 0), lab)):
        spans = lengths[label]
        share = 100.0 * share_base.get(label, 0) / share_total if share_total else 0.0
        comp_acc = None
        if oracles is not None and labeled_counts.get(label):
            comp_acc = 100.0 * del_counts.get(label, 0) / labeled_counts[label]
        dedup_pct = None
        if summaries is not None and applied_counts.get(label):
            dedup_pct = 100.0 * dedup_counts.get(label, 0) / applied_counts[label]
        rows.append(StatsRow(
            node_label=label,
            mean_len=sum(spans) / len(spans),
            pct_of_comps=share,
            comp_acc=comp_acc,
            dedup_pct=dedup_pct))
    return rows


# ---------------------------------------------------------------------------
# Serialization helpers


def summary_to_record(summary: Summary) -> dict:
    return {
        "doc_id": summary.doc_id,
        "selected": list(summary.selected),
        "deletions": [
            {"sentence": d.sentence, "start": d.span.start, "end": d.span.end,
             "cause": d.cause, "rule": d.rule.value, "label": d.node_label}
            for d in summary.deletions
        ],
        "text": [list(sent) for sent in summary.text],
    }


def summary_from_record(record: dict) -> Summary:
    return Summary(
        doc_id=record["doc_id"],
        selected=tuple(record["selected"]),
        deletions=tuple(
            AppliedDeletion(d["sentence"], Span(d["start"], d["end"]),
                            d["cause"], RuleId(d["rule"]), d["label"])
            for d in record["deletions"]),
        text=tuple(tuple(sent) for sent in record["text"]))


def write_evaluation_csv(path, result: EvaluationResult) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["doc_id",
                         "rouge1_p", "rouge1_r", "rouge1_f1",
                         "rouge2_p", "rouge2_r", "rouge2_f1",
                         "rougeL_p", "rougeL_r", "rougeL_f1"])
        for row in result.rows:
            writer.writerow([row.doc_id,
                             row.rouge1.precision, row.rouge1.recall, row.rouge1.f1,
                             row.rouge2.precision, row.rouge2.recall, row.rouge2.f1,
                             row.rouge_l.precision, row.rouge_l.recall, row.rouge_l.f1])
        writer.writerow(["MEAN",
                         result.mean1.precision, result.mean1.recall, result.mean1.f1,
                         result.mean2.precision, result.mean2.recall, result.mean2.f1,
                         result.mean_l.precision, result.mean_l.recall, result.mean_l.f1])


def evaluation_to_json(result: EvaluationResult) -> dict:
    def unpack(score: RougeScore) -> dict:
        return {"precision": score.precision, "recall": score.recall, "f1": score.f1}

    return {
        "mean": {"rouge1": unpack(result.mean1), "rouge2": unpack(result.mean2),
                 "rougeL": unpack(result.mean_l)},
        "skipped": result.skipped,
        "documents": [
            {"doc_id": row.doc_id, "rouge1": unpack(row.rouge1),
             "rouge2": unpack(row.rouge2), "rougeL": unpack(row.rouge_l)}
            for row in result.rows
        ],
    }


def write_sweep_csv(path, points: Sequence[SweepPoint]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["tau", "rouge1_f1", "rouge2_f1", "rougeL_f1",
                         "mean_f1", "compression_ratio"])
        for point in points:
            writer.writerow([point.tau, point.rouge1_f1, point.rouge2_f1,
                             point.rouge_l_f1, point.mean_f1, point.compression_ratio])


def write_stats_csv(path, rows: Sequence[StatsRow]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node_label", "len", "pct_of_comps", "comp_acc", "dedup"])
        for row in rows:
            writer.writerow([
                row.node_label, f"{row.mean_len:.2f}", f"{row.pct_of_comps:.2f}",
                "" if row.comp_acc is None else f"{row.comp_acc:.2f}",
                "" if row.dedup_pct is None else f"{row.dedup_pct:.2f}"])
