"""Summary assembly, heuristic deduplication, evaluation, sweeps, reports.

Summarizing is two steps. score_document() runs greedy sentence selection
once and computes each selected sentence's compression options and their
deletion probabilities; none of that depends on the threshold tau.
render() then deletes the options whose probability clears the threshold
and optionally applies unigram-coverage deduplication. summarize() is
render(score_document(...)). evaluate_corpus() is sweep_threshold() at one
tau: both make one in-order pass over the corpus that scores each document
with a reference once, preprocesses its reference once, renders a summary
once per set of options the model deletes and ROUGE-scores it once per
distinct text, then keeps only its rows and token counts; a document
whose reference has no words is skipped. Dedup keeps a count of live
tokens per type instead of rescanning the summary for each option, and
ROUGE-L uses a bit-parallel LCS. Decoding selects among a document's first
oracle.MAX_SENTS sentences, the same leading sentences the oracles were
built from, so SummarizeConfig caps k there as OracleConfig does. ROUGE
always preprocesses with the fixed EVAL_PREPROCESS (lowercasing only).
Everything here is a pure function of (model, document, config), and
nothing is cached across documents or calls. What a caller has already
computed is passed, never computed again: score_summary takes the
preprocessed reference, and summary_from_record and stats_report take the
options extract_options gave each sentence.
"""

import csv
import json
import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Document
from .features import DocumentContext, featurize_option
from .model import Model, classify_option, greedy_steps
from .oracle import MAX_SENTS, CompressionLabel, DocumentOracles, scoreable_sentences
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
        if not 1 <= self.k <= MAX_SENTS:
            raise ValueError(f"k={self.k} must satisfy 1 <= k <= {MAX_SENTS}")


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


def _model_deletions(scored: ScoredDocument, tau: float) -> tuple[bool, ...]:
    """Whether the model deletes each option at tau, in decode then extraction order."""
    return tuple(apply_threshold(p_del, tau) is CompressionLabel.DEL
                 for sent in scored.sentences for p_del in sent.p_del)


def _render(scored: ScoredDocument, deleted: Sequence[bool], dedup: bool) -> Summary:
    """The summary with the model's deletions, rendered by dedup_summary over
    the selected sentences' options, or over none when dedup is off."""
    doc = scored.doc
    options = [(sent.index, option) for sent in scored.sentences for option in sent.options]
    deletions = tuple(
        AppliedDeletion(index, option.span, CAUSE_MODEL, option.rule, option.node_label)
        for (index, option), gone in zip(options, deleted) if gone)
    model_only = Summary(doc_id=doc.id, selected=tuple(sent.index for sent in scored.sentences),
                         deletions=deletions, text=())
    return dedup_summary(doc, model_only,
                         {sent.index: sent.options for sent in scored.sentences} if dedup else {})


def render(scored: ScoredDocument, tau: float, dedup: bool) -> Summary:
    """Threshold-gated compression of a scored document, optional deduplication."""
    return _render(scored, _model_deletions(scored, tau), dedup)


def summarize(model: Model, doc: Document, cfg: SummarizeConfig) -> Summary:
    """Greedy extraction, threshold-gated compression, optional deduplication."""
    return render(score_document(model, doc, cfg.k), cfg.tau, cfg.dedup)


def dedup_summary(doc: Document, summary: Summary,
                  options: Mapping[int, Sequence[CompressionOption]]) -> Summary:
    """Delete surviving options whose unigrams all occur elsewhere in the summary.

    The text is rendered afresh from summary.deletions plus the deletions
    made here; summary.text is not read. Options are visited in document
    order and each sees the deletions made before it, so an earlier
    deletion can save a later duplicate. Unigram matching is lowercased and
    ignores punctuation tokens. A count of the live tokens of each type is
    kept, so an option's types occur elsewhere exactly when their counts
    exceed their counts inside its span.
    """
    ordered_sents = sorted(summary.selected)
    live: dict[int, list[bool]] = {
        i: [True] * len(doc.sentences[i].tokens) for i in ordered_sents}
    for deletion in summary.deletions:
        for pos in range(deletion.span.start, deletion.span.end):
            live[deletion.sentence][pos] = False
    lowered = {i: [t.lower() for t in doc.sentences[i].tokens]
               for i in ordered_sents}
    counts = Counter(tok for i in ordered_sents
                     for tok, ok in zip(lowered[i], live[i]) if ok)

    deletions = list(summary.deletions)
    for sent in ordered_sents:
        flags, words = live[sent], lowered[sent]
        for option in sorted(options.get(sent, []),
                             key=lambda o: (o.span.start, -len(o.span))):
            alive = [pos for pos in range(option.span.start, option.span.end) if flags[pos]]
            if not alive:
                continue  # already gone via the model or an outer option
            inside = Counter(words[pos] for pos in alive)
            if all(counts[tok] > n for tok, n in inside.items() if not is_punctuation(tok)):
                for pos in alive:
                    flags[pos] = False
                counts.subtract(inside)
                deletions.append(AppliedDeletion(
                    sent, option.span, CAUSE_DEDUP, option.rule, option.node_label))

    text = tuple(tuple(tok for tok, ok in zip(doc.sentences[i].tokens, live[i]) if ok)
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
    return RougeScore(
        float(np.mean([s.precision for s in scores])),
        float(np.mean([s.recall for s in scores])),
        float(np.mean([s.f1 for s in scores])))


def score_summary(summary: Summary, reference: Sequence[str]) -> EvaluationRow:
    """ROUGE-1/2/L of a summary against its document's reference words,
    preprocessed with EVAL_PREPROCESS."""
    candidate = preprocess_tokens([t for sent in summary.text for t in sent], EVAL_PREPROCESS)
    return EvaluationRow(
        doc_id=summary.doc_id,
        rouge1=rouge_n(candidate, [reference], 1),
        rouge2=rouge_n(candidate, [reference], 2),
        rouge_l=rouge_l(candidate, reference))


def _rendered_rows(scored: ScoredDocument, taus: Sequence[float],
                   dedup: bool) -> list[tuple[Summary, EvaluationRow]]:
    """The summary of one scored document and its ROUGE row at each tau.

    The reference is preprocessed once; a summary is rendered once per set
    of options the model deletes and scored once per text. Both are pure
    functions of those keys, so every tau gets the values a fresh render
    and score_summary would give.
    """
    reference = preprocess_tokens(scored.doc.reference_tokens, EVAL_PREPROCESS)
    summaries: dict[tuple[bool, ...], Summary] = {}
    rows: dict[tuple[tuple[str, ...], ...], EvaluationRow] = {}
    out = []
    for tau in taus:
        deleted = _model_deletions(scored, tau)
        if deleted not in summaries:
            summaries[deleted] = _render(scored, deleted, dedup)
        summary = summaries[deleted]
        if summary.text not in rows:
            rows[summary.text] = score_summary(summary, reference)
        out.append((summary, rows[summary.text]))
    return out


def _evaluate(model: Model, corpus: Iterable[Document], taus: Sequence[float],
              cfg: SummarizeConfig) -> tuple[list[EvaluationResult], list[int], int]:
    """One in-order pass that keeps, of each document with a reference, only
    its rows and summary token counts at each tau. Returns the evaluation
    and token count per tau, and the token count before deletions. A corpus
    in which no document has a reference is an error."""
    rows: list[list[EvaluationRow]] = [[] for _ in taus]
    tokens_after = [0] * len(taus)
    tokens_before = evaluated = skipped = 0
    for doc in corpus:
        if not doc.reference_tokens:
            logger.warning("document %s has no reference; skipped", doc.id)
            skipped += 1
            continue
        scored = score_document(model, doc, cfg.k)
        evaluated += 1
        tokens_before += sum(len(doc.sentences[sent.index].tokens) for sent in scored.sentences)
        for t, (summary, row) in enumerate(_rendered_rows(scored, taus, cfg.dedup)):
            rows[t].append(row)
            tokens_after[t] += sum(len(sent) for sent in summary.text)
    if not evaluated:
        raise ValueError(f"no document has a reference summary ({skipped} skipped)")
    if skipped:
        logger.warning("%d document(s) skipped for missing references", skipped)
    results = [EvaluationResult(
        rows=tuple(at_tau),
        mean1=_mean_scores([r.rouge1 for r in at_tau]),
        mean2=_mean_scores([r.rouge2 for r in at_tau]),
        mean_l=_mean_scores([r.rouge_l for r in at_tau]),
        skipped=skipped) for at_tau in rows]
    return results, tokens_after, tokens_before


def evaluate_corpus(model: Model, corpus: Iterable[Document],
                    cfg: SummarizeConfig) -> EvaluationResult:
    """Per-document ROUGE rows plus component-wise corpus means."""
    (result,), _, _ = _evaluate(model, corpus, [cfg.tau], cfg)
    return result


@dataclass(frozen=True)
class SweepPoint:
    tau: float
    rouge1_f1: float
    rouge2_f1: float
    rouge_l_f1: float
    mean_f1: float
    compression_ratio: float


def sweep_threshold(model: Model, corpus: Iterable[Document], tau_grid: Sequence[float],
                    cfg: SummarizeConfig = SummarizeConfig()) -> list[SweepPoint]:
    """Evaluate each threshold; reports averaged F1 and the token-level
    compression ratio (summary tokens after deletions / before). Each
    document is scored once, and each distinct summary of it rendered and
    ROUGE-scored once for the whole grid."""
    for tau in tau_grid:
        SummarizeConfig(k=cfg.k, tau=tau, dedup=cfg.dedup)  # rejects a bad tau up front
    results, tokens_after, tokens_before = _evaluate(model, corpus, tau_grid, cfg)
    points = []
    for tau, result, after in zip(tau_grid, results, tokens_after):
        f1_1, f1_2, f1_l = result.mean1.f1, result.mean2.f1, result.mean_l.f1
        points.append(SweepPoint(tau, f1_1, f1_2, f1_l, (f1_1 + f1_2 + f1_l) / 3.0,
                                 after / tokens_before))
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


def stats_report(options: Sequence[Sequence[Sequence[CompressionOption]]],
                 oracles: Sequence[DocumentOracles] | None = None,
                 summaries: Sequence[Summary] | None = None) -> list[StatsRow]:
    """Aggregate option statistics per constituency node type.

    `options` holds each document's extract_options per sentence.
    pct_of_comps is the share among applied deletions when summaries are
    given, otherwise the share among all available options. comp_acc is the
    oracle DEL rate for the type; dedup_pct the share of its applied
    deletions coming from deduplication rather than the model.
    """
    lengths: dict[str, list[int]] = {}
    option_counts: dict[str, int] = {}
    for doc_options in options:
        for sentence_options in doc_options:
            for option in sentence_options:
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


def summary_from_record(record: dict, doc: Document,
                        doc_options: Sequence[Sequence[CompressionOption]]) -> Summary:
    """The summary a record holds, checked against its document: selected
    holds distinct scoreable sentences; each deletion is in one of them, is
    caused by MODEL or DEDUP, and has the span, rule and label of one of its
    sentence's extract_options, from which it is built; text is the selected
    sentences' words outside the deleted spans, in document order.
    `doc_options` holds the document's extract_options per sentence."""
    selected = record["selected"]
    n = scoreable_sentences(doc)
    if (type(selected) is not list or any(type(i) is not int or not 0 <= i < n for i in selected)
            or len(set(selected)) < len(selected)):
        raise ValueError(f"document {doc.id!r}: selected {json.dumps(selected)} is not a list "
                         f"of distinct indices among its {n} scoreable sentences")
    options = {i: doc_options[i] for i in selected}
    deletions = []
    for d in record["deletions"]:
        sentence, cause = d["sentence"], d["cause"]
        if type(sentence) is not int or sentence not in options:
            raise ValueError(f"document {doc.id!r}: deletion in sentence "
                             f"{json.dumps(sentence)}, which is not selected")
        if cause not in (CAUSE_MODEL, CAUSE_DEDUP):
            raise ValueError(f"document {doc.id!r} sentence {sentence}: deletion cause "
                             f"{json.dumps(cause)} is neither {CAUSE_MODEL} nor {CAUSE_DEDUP}")
        key = [d["start"], d["end"], d["rule"], d["label"]]
        option = next((o for o in options[sentence]
                       if [o.span.start, o.span.end, o.rule.value, o.node_label] == key), None)
        if option is None:
            raise ValueError(f"document {doc.id!r} sentence {sentence}: deletion "
                             f"{json.dumps(key)} is none of the sentence's options")
        deletions.append(AppliedDeletion(sentence, option.span, cause, option.rule,
                                         option.node_label))
    text = [surviving_tokens(doc.sentences[i], [d.span for d in deletions if d.sentence == i])
            for i in sorted(selected)]
    if record["text"] != text:
        raise ValueError(f"document {doc.id!r}: text is not the selected sentences' words "
                         f"outside the deleted spans")
    return Summary(doc_id=doc.id, selected=tuple(selected), deletions=tuple(deletions),
                   text=tuple(map(tuple, text)))


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
