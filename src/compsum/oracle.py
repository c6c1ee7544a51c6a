"""Extractive oracle construction and compression-label derivation.

A beam search over sentence subsets maximizes the approximate overlap score
of the selected sentences against the reference; the best m states of the
final beam are the training oracles. Each compression option then gets a
context-free KEEP/DEL label by re-scoring the sentence with just that option
deleted. A DocumentOracles holds the document with its oracles and labels:
it is the one record of a document's supervision, built here or read back
from a cache file, and what compsum.model trains on.

Scores are computed from counts (rouge.ReferenceGrams), by delta.
build_document_oracles preprocesses a document's reference and each of its
sentences, and counts each sentence's shared grams, once; the beam and the
labels take those as their inputs and compute none of their own. A subset
is scored as its sentences joined in document order, so a bigram that
crosses a sentence boundary counts: the last token of one selected
sentence and the first token of the next, passing over sentences that
preprocessing leaves empty. Each beam state keeps the counts of its shared
unigrams and bigrams, their clipped match totals and its length; an
extension by sentence i is scored from them without being counted: i's
shared grams are added (a gram matches while its count is below the
reference's), the bigram that joined i's nonempty neighbours goes and up
to two joins to i come. Only the states a round keeps get counts of their
own, their parent's plus that change. A label scores the sentence's counts
less the option's span: the span's grams and the bigrams at its two ends
go, the bigram across the cut comes. The match counts are the integers
rouge_n computes, so every score is the float approx_score_pretokenized
gives on the joined tokens. All text is preprocessed with the fixed
rouge.ORACLE_PREPROCESS (lowercase, stopwords and punctuation dropped,
stemmed). The exhaustive oracle and the from-scratch beam and labels that
the tests compare these with live in tests/reference_oracle.py.

Only a document's first MAX_SENTS sentences can be selected, by the oracles
here and by training and decoding in compsum.model alike;
scoreable_sentences() counts them and rejects a k above that count.

A cache file is self-describing JSON lines, written and read through
compsum.corpus (write_records, read_records). Its header record holds the
format name and version (CACHE_VERSION), the OracleConfig, the
rules.RULES_VERSION the labels were built under and ORACLE_PREPROCESS.
One record per document follows, in corpus order: its id, its
document_fingerprint, its oracles, and per sentence the labels, each with
its option's span, rule and node label. read_oracle_cache joins record i
to corpus document i and builds the options from those fields without
running the rules; a cache of another version, rules version or
preprocessing, with a record out of corpus order or short of the corpus's
end, or with a document whose fingerprint changed, is stale and is
rejected with the command that rebuilds it. The fingerprint hashes each
parse as the corpus stores it, so reading a cache builds no tree, and a
corpus edited only in a parse's whitespace also makes its cache stale. A
DocumentOracles checks itself: it holds at least one oracle, each of
distinct scoreable sentences, and one label tuple per sentence.
"""

import enum
import hashlib
import json
import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .corpus import Document, read_records, write_records
from .rouge import (
    ORACLE_PREPROCESS,
    ReferenceGrams,
    SharedGrams,
    preprocess_per_token,
    preprocess_tokens,
)
from .rules import RULES_VERSION, CompressionOption, RuleId, extract_options
from .treebank import Span

logger = logging.getLogger(__name__)

# Leading sentences of a document that oracles, training and decoding consider
MAX_SENTS = 30

# The cache file's format, named and versioned in its header record
CACHE_FORMAT = "compsum-oracles"
CACHE_VERSION = 2
_REBUILD = "rebuild it with `compsum oracle build`"
_PREPROCESS_RECORD = {**asdict(ORACLE_PREPROCESS),
                      "stopword_list": sorted(ORACLE_PREPROCESS.stopword_list)}
_RULES = {rule.value: rule for rule in RuleId}


def scoreable_sentences(doc: Document, k: int = 0) -> int:
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


def _salience_order(indices: Iterable[int], individual: Sequence[float]) -> tuple[int, ...]:
    return tuple(sorted(indices, key=lambda i: (-individual[i], i)))


def _match_change(counts: dict, ref_counts: Counter, change: dict, sign: int = 1) -> int:
    """How many more clipped matches counts has once sign * change is added to it."""
    total = 0
    for gram, step in change.items():
        count, ref = counts.get(gram, 0), ref_counts[gram]
        after = count + sign * step
        total += (after if after < ref else ref) - (count if count < ref else ref)
    return total


class _BeamState(NamedTuple):
    """A sentence subset, with the counts of the shared grams of its
    sentences' tokens joined in document order."""

    indices: tuple[int, ...]   # sorted
    joined: tuple[int, ...]    # those with tokens
    unigrams: dict
    bigrams: dict
    unigram_matches: int
    bigram_matches: int
    length: int
    score: float


_EMPTY_STATE = _BeamState((), (), {}, {}, 0, 0, 0, 0.0)


def _bigram_change(grams: ReferenceGrams, state: _BeamState, sents: Sequence[SharedGrams],
                   i: int, before: int) -> dict:
    """The shared bigrams that inserting sentence i after the first `before`
    of state.joined adds (or, negative, removes): its own, and if it has
    tokens, at the joins the one between its neighbours goes and one to
    each comes."""
    tokens = sents[i].tokens
    if not tokens:
        return sents[i].bigrams
    joins = []
    if before:
        last = sents[state.joined[before - 1]].tokens[-1]
        joins.append(((last, tokens[0]), 1))
    if before < len(state.joined):
        first = sents[state.joined[before]].tokens[0]
        joins.append(((tokens[-1], first), 1))
        if before:
            joins.append(((last, first), -1))
    change = None
    for pair, step in joins:
        if pair in grams.bigrams:
            if change is None:
                change = Counter(sents[i].bigrams)
            change[pair] += step
    return sents[i].bigrams if change is None else change


def _add_counts(counts: dict, change: dict) -> dict:
    out = dict(counts)
    for gram, step in change.items():
        out[gram] = out.get(gram, 0) + step
    return out


def beam_search_oracle(grams: ReferenceGrams, sents: Sequence[SharedGrams],
                       cfg: OracleConfig) -> list[OracleCandidate]:
    """Final beam of scored k-subsets of sents, best first.

    `grams` is the reference preprocessed with ORACLE_PREPROCESS, and sents
    are its shared grams of each scoreable sentence, in document order.
    Each of k rounds extends every beam state with every unused sentence,
    scores the concatenation, and keeps the top beam_width states. Ties
    prefer the lexicographically smaller index set.

    An extension is scored from its state's counts changed by the one
    sentence it adds; only the states kept get counts of their own.
    """
    n = len(sents)
    individual = [grams.score_counts(sent.unigram_matches, sent.bigram_matches,
                                     len(sent.tokens)) for sent in sents]
    beam = [_EMPTY_STATE]
    for _ in range(cfg.k):
        seen: set[tuple[int, ...]] = set()
        scored = []
        for state in beam:
            indices = state.indices
            at = before = 0  # how many of indices, and of state.joined, precede i
            for i in range(n):
                if at < len(indices) and indices[at] == i:
                    at += 1
                    before += bool(sents[i].tokens)
                    continue
                extended = (*indices[:at], i, *indices[at:])
                if extended in seen:
                    continue
                seen.add(extended)
                sent = sents[i]
                bigrams = _bigram_change(grams, state, sents, i, before)
                unigram_matches = state.unigram_matches + _match_change(
                    state.unigrams, grams.unigrams, sent.unigrams)
                bigram_matches = state.bigram_matches + _match_change(
                    state.bigrams, grams.bigrams, bigrams)
                score = grams.score_counts(unigram_matches, bigram_matches,
                                           state.length + len(sent.tokens))
                scored.append((-score, extended, state, i,
                               bigrams, unigram_matches, bigram_matches))
        scored.sort(key=lambda item: item[:2])
        beam = []
        for neg_score, extended, state, i, bigrams, *matches in scored[:cfg.beam_width]:
            sent = sents[i]
            joined = tuple(sorted((*state.joined, i))) if sent.tokens else state.joined
            beam.append(_BeamState(
                extended, joined, _add_counts(state.unigrams, sent.unigrams),
                _add_counts(state.bigrams, bigrams), *matches,
                state.length + len(sent.tokens), -neg_score))
    return [OracleCandidate(_salience_order(state.indices, individual), state.score)
            for state in beam]


def _label(r_before: float, r_after: float) -> CompressionLabel:
    return CompressionLabel.DEL if r_after > r_before else CompressionLabel.KEEP


def _cut_score(grams: ReferenceGrams, sent: SharedGrams, start: int, end: int) -> float:
    """Score of sent's tokens with tokens[start:end] (nonempty) cut out: the
    span's grams and the bigrams at its two ends go, the bigram across the
    cut comes."""
    tokens = sent.tokens
    window = tokens[max(start - 1, 0):end + 1]
    cut_unigrams = Counter(filter(grams.unigrams.__contains__, tokens[start:end]))
    cut_bigrams = Counter(filter(grams.bigrams.__contains__, zip(window, window[1:])))
    unigram_matches = sent.unigram_matches + _match_change(
        sent.unigrams, grams.unigrams, cut_unigrams, -1)
    bigram_matches = sent.bigram_matches + _match_change(
        sent.bigrams, grams.bigrams, cut_bigrams, -1)
    if 0 < start and end < len(tokens):
        bridge = (tokens[start - 1], tokens[end])
        if sent.bigrams[bridge] - cut_bigrams[bridge] < grams.bigrams[bridge]:
            bigram_matches += 1
    return grams.score_counts(unigram_matches, bigram_matches, len(tokens) - (end - start))


def label_compressions(grams: ReferenceGrams, per_token: Sequence[str | None],
                       sent: SharedGrams, options: Sequence[CompressionOption],
                       ) -> list[LabeledOption]:
    """Context-free KEEP/DEL labels: DEL iff deleting the option alone helps.

    `grams` is the reference preprocessed with ORACLE_PREPROCESS; per_token
    is the sentence's preprocess_per_token with it, and sent the shared
    grams of the tokens it keeps. Every option is scored independently with
    all other options untouched, from the sentence's counts less its span's.
    """
    kept = [0]  # kept[j]: how many of the first j tokens preprocessing keeps
    for tok in per_token:
        kept.append(kept[-1] + (tok is not None))
    r_before = grams.score_counts(sent.unigram_matches, sent.bigram_matches, len(sent.tokens))
    labeled = []
    for option in options:
        start, end = kept[option.span.start], kept[option.span.end]
        r_after = r_before if start == end else _cut_score(grams, sent, start, end)
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
    the KEEP/DEL labels of its options. There is at least one oracle, each
    a nonempty list of distinct indices among the document's first
    MAX_SENTS sentences, and one label tuple per sentence."""

    doc: Document
    candidates: tuple[OracleCandidate, ...]
    labels: tuple[tuple[LabeledOption, ...], ...]  # per sentence

    def __post_init__(self):
        doc = self.doc
        if not self.candidates:
            raise ValueError(f"document {doc.id!r} has no oracles")
        if len(self.labels) != len(doc.sentences):
            raise ValueError(f"document {doc.id!r}: labels for {len(self.labels)} sentences, "
                             f"document has {len(doc.sentences)}")
        n = scoreable_sentences(doc)
        for oracle in self.candidates:
            indices = oracle.sentence_indices
            if not indices or min(indices) < 0 or len(set(indices)) < len(indices):
                raise ValueError(f"document {doc.id!r}: oracle {list(indices)} is not a "
                                 f"nonempty list of distinct sentence indices >= 0")
            beyond = [i for i in indices if i >= n]
            if beyond:
                raise ValueError(f"document {doc.id!r}: oracle index {beyond[0]} >= {n} "
                                 f"scoreable sentences")

    def all_labeled(self) -> list[LabeledOption]:
        return [item for sent in self.labels for item in sent]


def build_document_oracles(doc: Document, cfg: OracleConfig) -> DocumentOracles:
    """The oracles and labels of doc. The reference and each sentence are
    preprocessed, and each sentence's shared grams counted, once for both."""
    reference = doc.reference_tokens
    if not reference:
        raise ValueError(f"document {doc.id!r} has no reference summary")
    n = scoreable_sentences(doc, cfg.k)
    grams = ReferenceGrams(preprocess_tokens(reference, ORACLE_PREPROCESS))
    per_token = [preprocess_per_token(tree.tokens, ORACLE_PREPROCESS) for tree in doc.sentences]
    sents = [grams.shared([tok for tok in tokens if tok is not None]) for tokens in per_token]
    beam = beam_search_oracle(grams, sents[:n], cfg)
    labels = tuple(tuple(label_compressions(grams, tokens, sent, extract_options(tree)))
                   for tree, tokens, sent in zip(doc.sentences, per_token, sents))
    return DocumentOracles(doc=doc, candidates=tuple(beam[:cfg.m]), labels=labels)


def document_fingerprint(doc: Document) -> str:
    """SHA-256 of what a document's oracles and labels are built from: the
    bracketed parse of each sentence as stored, then the reference words,
    each as JSON. A parse is hashed as written, so even a whitespace edit of
    the corpus makes its cache stale; equal parses are equal trees."""
    # fed piece by piece: one string of the whole document raised peak RSS
    digest = hashlib.sha256()
    for tree in doc.sentences:
        digest.update(json.dumps(tree.parse).encode("utf-8"))
    digest.update(json.dumps(doc.reference_tokens).encode("utf-8"))
    return digest.hexdigest()


def oracle_header(cfg: OracleConfig) -> dict:
    """The first record of a cache file: its format and everything its
    records were built under."""
    return {"format": CACHE_FORMAT, "version": CACHE_VERSION,
            "oracle_config": asdict(cfg), "rules_version": RULES_VERSION,
            "preprocess": _PREPROCESS_RECORD}


def oracle_record(oracles: DocumentOracles) -> dict:
    return {
        "doc_id": oracles.doc.id,
        "fingerprint": document_fingerprint(oracles.doc),
        "oracles": [
            {"indices": list(c.sentence_indices), "score": c.score}
            for c in oracles.candidates
        ],
        "labels": [
            [
                {"start": lab.option.span.start, "end": lab.option.span.end,
                 "rule": lab.option.rule.value, "node_label": lab.option.node_label,
                 "r_before": lab.r_before, "r_after": lab.r_after, "label": lab.label.value}
                for lab in sent
            ]
            for sent in oracles.labels
        ],
    }


def write_oracle_cache(path, cfg: OracleConfig, entries: Iterable[DocumentOracles]) -> int:
    """Write the header for cfg, then one record per entry; returns the entry count."""
    return write_records(path, chain([oracle_header(cfg)], map(oracle_record, entries))) - 1


def read_oracle_cache(path, documents: Iterable[Document]) -> list[DocumentOracles]:
    """Load a cache file, joining its i-th record to the i-th of `documents`,
    the order `oracle build` writes them in (corpus.read_records).

    The first record must be the header of this version, built under these
    rules and this preprocessing; each record must be of the document at
    its place, with the fingerprint it was built from, and every document
    must have one. Otherwise the cache is stale and is an error that says
    how to rebuild it. Options are built from the cached spans, rules and
    node labels; a span outside its sentence, an unknown rule, a KEEP/DEL
    label that disagrees with its r_before and r_after, or a record
    DocumentOracles rejects is an error too. Every error names the file,
    and the line of a record.
    """
    options: dict[tuple, CompressionOption] = {}
    try:
        return read_records(path, documents,
                            lambda record, doc: _entry_from_record(record, doc, options),
                            f"the cache is stale; {_REBUILD}", header=_check_header)
    except FileNotFoundError:
        raise ValueError(f"{path}: no oracle cache there; build one (format version "
                         f"{CACHE_VERSION}) with `compsum oracle build`") from None


def _check_header(record: dict) -> None:
    if record.get("format") != CACHE_FORMAT:
        if "doc_id" in record:
            raise ValueError(f"oracle cache has no header, so it is of format version 1; "
                             f"this version reads version {CACHE_VERSION}: {_REBUILD}")
        raise ValueError(f"first record is not an oracle cache header: {_REBUILD}")
    if record["version"] != CACHE_VERSION:
        raise ValueError(f"oracle cache is of format version {record['version']}; "
                         f"this version reads version {CACHE_VERSION}: {_REBUILD}")
    if record["rules_version"] != RULES_VERSION:
        raise ValueError(f"oracle cache was labeled under rules version "
                         f"{record['rules_version']}, the rules are version "
                         f"{RULES_VERSION}: {_REBUILD}")
    if record["preprocess"] != _PREPROCESS_RECORD:
        raise ValueError(f"oracle cache was scored under other preprocessing than "
                         f"ORACLE_PREPROCESS: {_REBUILD}")


def _entry_from_record(record: dict, doc: Document,
                       options: dict[tuple, CompressionOption]) -> DocumentOracles:
    fingerprint = document_fingerprint(doc)
    if record["fingerprint"] != fingerprint:
        raise ValueError(
            f"document {doc.id!r}: the cache is stale: it was built from fingerprint "
            f"{record['fingerprint']}, the corpus has {fingerprint}; {_REBUILD}")
    candidates = []
    for entry in record["oracles"]:
        indices = entry["indices"]
        if type(indices) is not list or any(type(i) is not int for i in indices):
            raise ValueError(f"document {doc.id!r}: oracle indices {json.dumps(indices)} "
                             f"are not a list of integers")
        candidates.append(OracleCandidate(tuple(indices), float(entry["score"])))
    labels = []
    for sent_index, cached in enumerate(record["labels"]):
        # a row past the last sentence is left to DocumentOracles to reject
        n_tokens = (len(doc.sentences[sent_index].tokens) if sent_index < len(doc.sentences)
                    else math.inf)
        sent_labels = []
        for item in cached:
            start, end, rule = key = (item["start"], item["end"], item["rule"])
            if not (type(start) is int and type(end) is int and 0 <= start < end <= n_tokens):
                raise ValueError(
                    f"document {doc.id!r} sentence {sent_index}: cached option {key} "
                    f"is no span of the sentence's {n_tokens} tokens")
            if rule not in _RULES:
                raise ValueError(
                    f"document {doc.id!r} sentence {sent_index}: cached option {key} "
                    f"names an unknown rule")
            r_before, r_after = float(item["r_before"]), float(item["r_after"])
            label = CompressionLabel(item["label"])
            if label is not _label(r_before, r_after):
                raise ValueError(
                    f"document {doc.id!r} sentence {sent_index}: option {key} is labeled "
                    f"{label.value}, which disagrees with r_before={r_before}, r_after={r_after}")
            # an option is immutable, so one object serves every label of
            # an equal option in the file
            option_key = (*key, item["node_label"])
            option = options.get(option_key)
            if option is None:
                option = options[option_key] = CompressionOption(
                    Span(start, end), _RULES[rule], item["node_label"])
            sent_labels.append(LabeledOption(option, r_before, r_after, label))
        labels.append(tuple(sent_labels))
    return DocumentOracles(doc, tuple(candidates), tuple(labels))
