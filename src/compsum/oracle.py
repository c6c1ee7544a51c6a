"""Extractive oracle construction and compression-label derivation.

A beam search over sentence subsets maximizes the approximate overlap score
of the selected sentences against the reference; the best m states of the
final beam are the training oracles. Each compression option then gets a
context-free KEEP/DEL label by re-scoring the sentence with just that option
deleted. A DocumentOracles holds the document with its oracles and labels:
it is the one record of a document's supervision, built here or read back
from a cache file, and what compsum.model trains on.

Scores are computed from counts (rouge.ReferenceGrams). A document's
reference is preprocessed once; a subset's score comes from its sentences'
unigrams and bigrams that occur in the reference, so no candidate is
re-tokenized or re-counted. A subset is scored as its sentences joined in
document order, so a bigram that crosses a sentence boundary counts: the
last token of one selected sentence and the first token of the next,
passing over sentences that preprocessing leaves empty. A label scores the
sentence's per-token preprocessing with the option's span cut out. Every
score is the float approx_score_pretokenized gives on the joined tokens.
All text is preprocessed with the fixed rouge.ORACLE_PREPROCESS (lowercase,
stopwords and punctuation dropped, stemmed).

Only a document's first MAX_SENTS sentences can be selected, by the oracles
here and by training and decoding in compsum.model alike;
scoreable_sentences() counts them and rejects a k above that count.
"""

import enum
import json
import logging
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Document, read_records
from .rouge import (
    ORACLE_PREPROCESS,
    ReferenceGrams,
    SharedGrams,
    preprocess_per_token,
    preprocess_tokens,
)
from .rules import CompressionOption, extract_options
from .treebank import SentenceTree

logger = logging.getLogger(__name__)

_EXHAUSTIVE_GUARD = 10 ** 6

# Leading sentences of a document that oracles, training and decoding consider
MAX_SENTS = 30


def scoreable_sentences(doc: Document, k: int) -> int:
    """How many leading sentences of doc can be selected; an error if fewer than k."""
    n = min(MAX_SENTS, len(doc.sentences))
    if n < k:
        raise ValueError(f"document {doc.id!r} has {n} scoreable sentences but k={k}")
    return n


@dataclass(frozen=True)
class OracleConfig:
    k: int = 3
    beam_width: int = 8
    m: int = 5

    def __post_init__(self):
        if not (1 <= self.k <= MAX_SENTS):
            raise ValueError(f"k={self.k} must satisfy 1 <= k <= {MAX_SENTS}")
        if self.beam_width < 1:
            raise ValueError(f"beam_width={self.beam_width} must be >= 1")
        if self.m < 1:
            raise ValueError(f"m={self.m} must be >= 1")
        if self.m > self.beam_width:
            raise ValueError(f"m={self.m} must not exceed beam_width={self.beam_width}")


@dataclass(frozen=True)
class OracleCandidate:
    """A scored sentence subset; indices sorted by individual salience, descending."""

    sentence_indices: tuple[int, ...]
    score: float


class CompressionLabel(enum.Enum):
    KEEP = "KEEP"
    DEL = "DEL"


@dataclass(frozen=True)
class LabeledOption:
    option: CompressionOption
    r_before: float
    r_after: float
    label: CompressionLabel

    @property
    def ratio(self) -> float:
        if self.r_before == 0.0:
            return math.inf if self.r_after > 0.0 else 1.0
        return self.r_after / self.r_before


class CompressabilityBucket(enum.Enum):
    BAD = "BAD"                        # ratio <= 1.00
    WEAK_POSITIVE = "WEAK_POSITIVE"    # 1.00 < ratio <= 1.05
    STRONG_POSITIVE = "STRONG_POSITIVE"  # ratio > 1.05


def bucket_of(labeled: LabeledOption) -> CompressabilityBucket:
    ratio = labeled.ratio
    if ratio <= 1.0:
        return CompressabilityBucket.BAD
    if ratio <= 1.05:
        return CompressabilityBucket.WEAK_POSITIVE
    return CompressabilityBucket.STRONG_POSITIVE


def _reference_grams(reference: Sequence[str] | ReferenceGrams) -> ReferenceGrams:
    if isinstance(reference, ReferenceGrams):
        return reference
    return ReferenceGrams(preprocess_tokens(reference, ORACLE_PREPROCESS))


def _sentence_grams(doc: Document, n: int, grams: ReferenceGrams) -> list[SharedGrams]:
    return [grams.shared(preprocess_tokens(tree.tokens, ORACLE_PREPROCESS))
            for tree in doc.sentences[:n]]


def _salience_order(indices: Iterable[int], individual: Sequence[float]) -> tuple[int, ...]:
    return tuple(sorted(indices, key=lambda i: (-individual[i], i)))


def beam_search_oracle(
    doc: Document,
    reference: Sequence[str] | ReferenceGrams,
    cfg: OracleConfig,
) -> list[OracleCandidate]:
    """Final beam of scored k-subsets, best first.

    Each of k rounds extends every beam state with every unused sentence
    among the first MAX_SENTS, scores the concatenation, and keeps the top
    beam_width states. Ties prefer the lexicographically smaller index set.
    `reference` is the reference's tokens, or their ReferenceGrams already
    preprocessed with ORACLE_PREPROCESS.
    """
    n = scoreable_sentences(doc, cfg.k)
    grams = _reference_grams(reference)
    sents = _sentence_grams(doc, n, grams)
    individual = [grams.score_joined([sent]) for sent in sents]
    beam: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    for _ in range(cfg.k):
        seen: set[tuple[int, ...]] = set()
        scored: list[tuple[tuple[int, ...], float]] = []
        for indices, _score in beam:
            used = set(indices)
            for i in range(n):
                if i in used:
                    continue
                extended = tuple(sorted((*indices, i)))
                if extended in seen:
                    continue
                seen.add(extended)
                scored.append((extended, grams.score_joined([sents[j] for j in extended])))
        scored.sort(key=lambda item: (-item[1], item[0]))
        beam = scored[:cfg.beam_width]
    return [OracleCandidate(_salience_order(indices, individual), score)
            for indices, score in beam]


def exhaustive_oracle(doc: Document, reference: Sequence[str], k: int) -> OracleCandidate:
    """True argmax over all k-subsets of the first MAX_SENTS sentences;
    guards against combinatorial blowup."""
    n = scoreable_sentences(doc, k)
    grams = _reference_grams(reference)
    sents = _sentence_grams(doc, n, grams)
    total = math.comb(n, k)
    if total > _EXHAUSTIVE_GUARD:
        raise ValueError(
            f"C({n},{k}) = {total} subsets exceeds the exhaustive-search guard "
            f"of {_EXHAUSTIVE_GUARD}")
    individual = [grams.score_joined([sent]) for sent in sents]
    best: tuple[int, ...] | None = None
    best_score = -1.0
    for indices in combinations(range(n), k):
        score = grams.score_joined([sents[i] for i in indices])
        if score > best_score:
            best, best_score = indices, score
    assert best is not None
    return OracleCandidate(_salience_order(best, individual), best_score)


def _label(r_before: float, r_after: float) -> CompressionLabel:
    return CompressionLabel.DEL if r_after > r_before else CompressionLabel.KEEP


def label_compressions(
    sentence: SentenceTree,
    options: Sequence[CompressionOption],
    reference: Sequence[str] | ReferenceGrams,
) -> list[LabeledOption]:
    """Context-free KEEP/DEL labels: DEL iff deleting the option alone helps.

    Every option is scored independently with all other options untouched.
    `reference` is the reference's tokens, or their ReferenceGrams already
    preprocessed with ORACLE_PREPROCESS.
    """
    grams = _reference_grams(reference)
    per_token = preprocess_per_token(sentence.tokens, ORACLE_PREPROCESS)
    r_before = grams.score_tokens([tok for tok in per_token if tok is not None])
    labeled = []
    for option in options:
        survivors = per_token[:option.span.start] + per_token[option.span.end:]
        r_after = grams.score_tokens([tok for tok in survivors if tok is not None])
        labeled.append(LabeledOption(option, r_before, r_after, _label(r_before, r_after)))
    return labeled


def compressability_report(
    labeled: Iterable[LabeledOption],
) -> dict[CompressabilityBucket, float]:
    """Percentage of options per bucket; percentages sum to 100."""
    counts = {bucket: 0 for bucket in CompressabilityBucket}
    total = 0
    for item in labeled:
        counts[bucket_of(item)] += 1
        total += 1
    if total == 0:
        raise ValueError("empty corpus: no labeled options")
    return {bucket: 100.0 * count / total for bucket, count in counts.items()}


@dataclass(frozen=True)
class DocumentOracles:
    """One document's supervision: the document, its oracles best first, and
    the KEEP/DEL labels of its options."""

    doc: Document
    candidates: tuple[OracleCandidate, ...]
    labels: tuple[tuple[LabeledOption, ...], ...]  # per sentence

    def all_labeled(self) -> list[LabeledOption]:
        return [item for sent in self.labels for item in sent]


def build_document_oracles(doc: Document, cfg: OracleConfig) -> DocumentOracles:
    if not doc.reference:
        raise ValueError(f"document {doc.id!r} has no reference summary")
    grams = _reference_grams(doc.reference_tokens)
    beam = beam_search_oracle(doc, grams, cfg)
    labels = []
    for tree in doc.sentences:
        labels.append(tuple(label_compressions(tree, extract_options(tree), grams)))
    return DocumentOracles(doc=doc, candidates=tuple(beam[:cfg.m]), labels=tuple(labels))


def oracle_record(oracles: DocumentOracles) -> dict:
    return {
        "doc_id": oracles.doc.id,
        "oracles": [
            {"indices": list(c.sentence_indices), "score": c.score}
            for c in oracles.candidates
        ],
        "labels": [
            [
                {"start": lab.option.span.start, "end": lab.option.span.end,
                 "rule": lab.option.rule.value, "r_before": lab.r_before,
                 "r_after": lab.r_after, "label": lab.label.value}
                for lab in sent
            ]
            for sent in oracles.labels
        ],
    }


def write_oracle_cache(path, entries: Iterable[DocumentOracles]) -> int:
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(oracle_record(entry)) + "\n")
            count += 1
    return count


def read_oracle_cache(path, documents: Iterable[Document]) -> list[DocumentOracles]:
    """Load a cache file, joining each record to its document in `documents`.

    Options are re-extracted from the parse trees and joined to the cached
    labels by (span, rule); any mismatch means the cache does not belong to
    this corpus and is an error, as is a KEEP/DEL label that disagrees with
    its r_before and r_after, or a document's second record. Every error
    names the file and line.
    """
    by_id = {doc.id: doc for doc in documents}
    seen: set[str] = set()
    return read_records(path, lambda record: _entry_from_record(record, by_id, seen))


def _entry_from_record(record: dict, documents: dict[str, Document],
                       seen: set[str]) -> DocumentOracles:
    doc_id = record["doc_id"]
    if doc_id not in documents:
        raise ValueError(f"document {doc_id!r} not in corpus")
    if doc_id in seen:
        raise ValueError(f"document {doc_id!r} repeats an earlier record")
    seen.add(doc_id)
    doc = documents[doc_id]
    if len(record["labels"]) != len(doc.sentences):
        raise ValueError(
            f"document {doc_id!r}: cache has {len(record['labels'])} sentences, "
            f"corpus has {len(doc.sentences)}")
    candidates = []
    for entry in record["oracles"]:
        indices = entry["indices"]
        if type(indices) is not list or any(type(i) is not int for i in indices):
            raise ValueError(f"document {doc_id!r}: oracle indices {json.dumps(indices)} "
                             f"are not a list of integers")
        candidates.append(OracleCandidate(tuple(indices), float(entry["score"])))
    labels = []
    for sent_index, cached in enumerate(record["labels"]):
        by_key = {(opt.span.start, opt.span.end, opt.rule.value): opt
                  for opt in extract_options(doc.sentences[sent_index])}
        sent_labels = []
        for item in cached:
            key = (item["start"], item["end"], item["rule"])
            if key not in by_key:
                raise ValueError(
                    f"document {doc_id!r} sentence {sent_index}: cached option "
                    f"{key} not produced by the rules; stale cache?")
            r_before, r_after = float(item["r_before"]), float(item["r_after"])
            label = CompressionLabel(item["label"])
            if label is not _label(r_before, r_after):
                raise ValueError(
                    f"document {doc_id!r} sentence {sent_index}: option {key} is labeled "
                    f"{label.value}, which disagrees with r_before={r_before}, r_after={r_after}")
            sent_labels.append(LabeledOption(by_key[key], r_before, r_after, label))
        labels.append(tuple(sent_labels))
    return DocumentOracles(doc, tuple(candidates), tuple(labels))
