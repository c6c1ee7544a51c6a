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
to two joins to i come. A round tells its subsets apart by a bitmask of
their indices and ranks by (-score, sorted indices) only the extensions
that score at least its beam_width-th best, ties included, so only those
get an index tuple. Only the states a round keeps get counts of their
own, their parent's plus that change. A label scores the sentence's counts
less the option's span: the span's grams and the bigrams at its two ends
go, the bigram across the cut comes. The sentence's kept tokens are listed
once, as the sorted positions of those that are reference unigrams and of
those that begin reference bigrams; a cut finds its shared grams in these
lists by bisection, so a span holding none changes no match count and
costs no count. The match counts are the integers rouge_n computes, so
every score is the float approx_score_pretokenized gives on the joined
tokens. All text is preprocessed with the fixed rouge.ORACLE_PREPROCESS
(lowercase, stopwords and punctuation dropped, stemmed). A reference that
it leaves without a word is an error naming the document, since every
subset would score 0.0 and every label be KEEP. The exhaustive oracle
and the from-scratch beam and labels that the tests compare these with
live in tests/reference_oracle.py.

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

from __future__ import annotations

import enum
import hashlib
import json
import logging
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .corpus import Document, list_of, quote, read_config, read_records, same_json, write_records
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
# Builds a tuple (an option, a label) without its public constructor.
_new = tuple.__new__


def scoreable_sentences(doc: Document, k: int = 0) -> int:
    """How many leading sentences of doc can be selected; an error if fewer than k."""
    n = min(MAX_SENTS, len(doc.sentences))
    if n < k:
        raise ValueError(f"document {quote(doc.id)} has {n} scoreable sentences but k={k}")
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


_KEEP, _DEL = CompressionLabel.KEEP, CompressionLabel.DEL
_LABELS = {label.value: label for label in CompressionLabel}


class LabeledOption(NamedTuple):
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
    mask: int                  # bit i set for each i in indices
    joined: tuple[int, ...]    # those with tokens
    unigrams: dict
    bigrams: dict
    unigram_matches: int
    bigram_matches: int
    length: int
    score: float


_EMPTY_STATE = _BeamState((), 0, (), {}, {}, 0, 0, 0, 0.0)


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
    sentence it adds: each of its shared unigrams matches min(step,
    ref - count) more where its count is below the reference's, and its
    bigrams, with the joins to its nonempty neighbours, are clipped only
    when there are any. A round tells its subsets apart by a bitmask of
    their indices; only the extensions that score at least the beam_width-th
    best, ties included, get their sorted index tuple and are ranked by
    (-score, indices), and only the states kept get counts of their own.
    """
    n, width = len(sents), cfg.beam_width
    ref_unigrams, ref_bigrams, score_counts = grams.unigrams, grams.bigrams, grams.score_counts
    individual = [score_counts(sent.unigram_matches, sent.bigram_matches, len(sent.tokens))
                  for sent in sents]
    # per sentence: its shared unigrams with their counts in it and in the
    # reference, and its first and last token (None if it has none)
    unigram_steps = [[(gram, step, ref_unigrams[gram]) for gram, step in sent.unigrams.items()]
                     for sent in sents]
    ends = [(sent.tokens[0], sent.tokens[-1]) if sent.tokens else None for sent in sents]
    beam = [_EMPTY_STATE]
    for _ in range(cfg.k):
        seen: set[int] = set()
        scores: list[float] = []
        extensions = []
        for state in beam:
            mask, joined = state.mask, state.joined
            unigrams, bigrams = state.unigrams, state.bigrams
            # the last token of the joined sentences before i, the first
            # after it and the bigram of the two, which i's tokens would
            # part; a pair with None is no reference bigram
            last, after = None, 0
            first = ends[joined[0]][0] if joined else None
            gap = (last, first)
            for i in range(n):
                if mask >> i & 1:
                    if ends[i] is not None:
                        last, after = ends[i][1], after + 1
                        first = ends[joined[after]][0] if after < len(joined) else None
                        gap = (last, first)
                    continue
                extended = mask | 1 << i
                if extended in seen:
                    continue
                seen.add(extended)
                sent = sents[i]
                unigram_matches = state.unigram_matches
                for gram, step, ref in unigram_steps[i]:
                    count = unigrams.get(gram, 0)
                    if count < ref:
                        unigram_matches += step if step < ref - count else ref - count
                change = sent.bigrams
                if ends[i] is not None:
                    head, tail = ends[i]
                    into, out = (last, head), (tail, first)
                    if into in ref_bigrams or out in ref_bigrams or gap in ref_bigrams:
                        change = Counter(change)
                        for pair, step in ((into, 1), (out, 1), (gap, -1)):
                            if pair in ref_bigrams:
                                change[pair] += step
                bigram_matches = state.bigram_matches
                if change:
                    bigram_matches += _match_change(bigrams, ref_bigrams, change)
                scores.append(score_counts(unigram_matches, bigram_matches,
                                           state.length + len(sent.tokens)))
                extensions.append((state, i, change, unigram_matches, bigram_matches))
        floor = sorted(scores)[-width] if len(scores) > width else -math.inf
        ranked = sorted((-score, tuple(sorted((*extension[0].indices, extension[1]))), extension)
                        for score, extension in zip(scores, extensions) if score >= floor)
        beam = []
        for neg_score, indices, (state, i, change, *matches) in ranked[:width]:
            sent = sents[i]
            joined = tuple(sorted((*state.joined, i))) if sent.tokens else state.joined
            beam.append(_BeamState(
                indices, state.mask | 1 << i, joined, _add_counts(state.unigrams, sent.unigrams),
                _add_counts(state.bigrams, change), *matches,
                state.length + len(sent.tokens), -neg_score))
    return [OracleCandidate(_salience_order(state.indices, individual), state.score)
            for state in beam]


def _label(r_before: float, r_after: float) -> CompressionLabel:
    return _DEL if r_after > r_before else _KEEP


def _cut_score(grams: ReferenceGrams, sent: SharedGrams, unigram_at: list[int],
               bigram_at: list[int], start: int, end: int) -> float:
    """Score of sent's tokens with tokens[start:end] (nonempty) cut out.

    unigram_at and bigram_at are the sorted positions of the tokens that
    are reference unigrams and that begin reference bigrams; bisect finds
    the span's unigrams and the bigrams that start in [start - 1, end),
    which go (a span that holds none changes no match count), and the
    bigram across the cut comes."""
    tokens = sent.tokens
    unigram_matches, bigram_matches = sent.unigram_matches, sent.bigram_matches
    lo, hi = bisect_left(unigram_at, start), bisect_left(unigram_at, end)
    if lo < hi:
        unigram_matches += _match_change(sent.unigrams, grams.unigrams,
                                         Counter([tokens[j] for j in unigram_at[lo:hi]]), -1)
    lo, hi = bisect_left(bigram_at, start - 1), bisect_left(bigram_at, end)
    cut: dict = {}
    if lo < hi:
        cut = Counter([(tokens[j], tokens[j + 1]) for j in bigram_at[lo:hi]])
        bigram_matches += _match_change(sent.bigrams, grams.bigrams, cut, -1)
    if 0 < start and end < len(tokens):
        bridge = (tokens[start - 1], tokens[end])
        ref = grams.bigrams.get(bridge, 0)
        if ref and sent.bigrams.get(bridge, 0) - cut.get(bridge, 0) < ref:
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
    The sorted positions of the kept tokens that are reference unigrams,
    and of those that begin reference bigrams, are listed once per
    sentence, and each option's cut finds its shared grams in them.
    """
    kept = [0]  # kept[j]: how many of the first j tokens preprocessing keeps
    for tok in per_token:
        kept.append(kept[-1] + (tok is not None))
    tokens = sent.tokens
    unigram_at = [j for j, tok in enumerate(tokens) if tok in grams.unigrams]
    bigram_at = [j for j, pair in enumerate(zip(tokens, tokens[1:])) if pair in grams.bigrams]
    r_before = grams.score_counts(sent.unigram_matches, sent.bigram_matches, len(tokens))
    labeled = []
    for option in options:
        start, end = kept[option.span.start], kept[option.span.end]
        r_after = (r_before if start == end
                   else _cut_score(grams, sent, unigram_at, bigram_at, start, end))
        labeled.append(_new(LabeledOption, (option, r_before, r_after,
                                            _label(r_before, r_after))))
    return labeled


def compressability_report(
    labeled: Iterable[LabeledOption],
) -> dict[CompressabilityBucket, float]:
    """Percentage of options per bucket; percentages sum to 100. The options
    are counted per bucket in one pass."""
    counts = Counter(map(bucket_of, labeled))
    total = counts.total()
    if total == 0:
        raise ValueError("empty corpus: no labeled options")
    return {bucket: 100.0 * counts[bucket] / total for bucket in CompressabilityBucket}


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
        if not self.candidates:
            raise ValueError("no oracles")
        if len(self.labels) != len(self.doc.sentences):
            raise ValueError(f"labels for {len(self.labels)} sentences, "
                             f"document has {len(self.doc.sentences)}")
        n = scoreable_sentences(self.doc)
        for oracle in self.candidates:
            indices = oracle.sentence_indices
            if not indices or min(indices) < 0 or len(set(indices)) < len(indices):
                raise ValueError(f"oracle {list(indices)} is not a nonempty list of "
                                 f"distinct sentence indices >= 0")
            beyond = [i for i in indices if i >= n]
            if beyond:
                raise ValueError(f"oracle index {beyond[0]} >= {n} scoreable sentences")

    def all_labeled(self) -> list[LabeledOption]:
        return [item for sent in self.labels for item in sent]


def build_document_oracles(doc: Document, cfg: OracleConfig) -> DocumentOracles:
    """The oracles and labels of doc. The reference and each sentence are
    preprocessed, and each sentence's shared grams counted, once for both."""
    reference = doc.reference_tokens
    if not reference:
        raise ValueError(f"document {quote(doc.id)} has no reference summary")
    n = scoreable_sentences(doc, cfg.k)
    kept = preprocess_tokens(reference, ORACLE_PREPROCESS)
    if not kept:
        raise ValueError(
            f"document {quote(doc.id)} has no reference word left after preprocessing")
    grams = ReferenceGrams(kept)
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
    rules and this preprocessing, each the same JSON value
    (corpus.same_json); each record must be of the document at its place,
    with the fingerprint it was built from, and every document must have
    one. Otherwise the cache is stale and is an error that says
    how to rebuild it. Options are built from the cached spans, rules and
    node labels; a header whose oracle_config corpus.read_config rejects,
    an oracles, labels, label row or index list that corpus.list_of
    rejects, a score, r_before or r_after that is not a finite JSON number,
    a node label that is not a string, a span outside its sentence, a
    rule that is not the name of one, a label that is not the string KEEP
    or DEL or that disagrees with its r_before and r_after, or a record
    DocumentOracles rejects is an error too. Every error names the file,
    and the line of a record and its document.
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
    if not same_json(record["version"], CACHE_VERSION):
        raise ValueError(f"oracle cache is of format version {quote(record['version'])}; "
                         f"this version reads version {CACHE_VERSION}: {_REBUILD}")
    if not same_json(record["rules_version"], RULES_VERSION):
        raise ValueError(f"oracle cache was labeled under rules version "
                         f"{quote(record['rules_version'])}, the rules are version "
                         f"{RULES_VERSION}: {_REBUILD}")
    if not same_json(record["preprocess"], _PREPROCESS_RECORD):
        raise ValueError(f"oracle cache was scored under other preprocessing than "
                         f"ORACLE_PREPROCESS: {_REBUILD}")
    try:
        read_config(OracleConfig, record["oracle_config"], "oracle cache header's oracle_config")
    except ValueError as exc:
        raise ValueError(f"{exc}: {_REBUILD}") from None


def _finite_number(value) -> bool:
    """True for a JSON number, never a bool, that is a finite float; an
    integer too large for a float is not one."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def _entry_from_record(record: dict, doc: Document,
                       options: dict[tuple, CompressionOption]) -> DocumentOracles:
    fingerprint = document_fingerprint(doc)
    if record["fingerprint"] != fingerprint:
        raise ValueError(
            f"the cache is stale: it was built from fingerprint "
            f"{quote(record['fingerprint'])}, the corpus has {fingerprint}; {_REBUILD}")
    candidates = []
    for entry in list_of(record["oracles"], dict, "oracles"):
        indices = list_of(entry["indices"], int, "oracle indices")
        score = entry["score"]
        if not _finite_number(score):
            raise ValueError(f"oracle score {quote(score)} is not a finite number")
        candidates.append(OracleCandidate(tuple(indices), float(score)))
    labels = []
    for sent_index, cached in enumerate(list_of(record["labels"], list, "labels")):
        # a row past the last sentence is left to DocumentOracles to reject
        n_tokens = (len(doc.sentences[sent_index].tokens) if sent_index < len(doc.sentences)
                    else math.inf)
        sent_labels = []
        for item in list_of(cached, dict, "a label row"):
            start, end, rule = key = (item["start"], item["end"], item["rule"])
            if not (type(start) is int and type(end) is int and 0 <= start < end <= n_tokens):
                raise ValueError(f"sentence {sent_index}: cached option {quote(key)} is no "
                                 f"span of the sentence's {n_tokens} tokens")
            if type(rule) is not str or rule not in _RULES:
                raise ValueError(f"sentence {sent_index}: cached option {quote(key)} "
                                 f"names an unknown rule")
            r_before, r_after, node_label = item["r_before"], item["r_after"], item["node_label"]
            if not (_finite_number(r_before) and _finite_number(r_after)
                    and type(node_label) is str):
                raise ValueError(
                    f"sentence {sent_index}: cached option {quote(key)} holds "
                    f"r_before {quote(r_before)}, r_after {quote(r_after)} "
                    f"and node_label {quote(node_label)}, not two finite numbers "
                    f"and a string")
            r_before, r_after = float(r_before), float(r_after)
            value = item["label"]
            label = _LABELS.get(value) if type(value) is str else None
            if label is None:
                raise ValueError(f"sentence {sent_index}: cached option {quote(key)} is "
                                 f"labeled {quote(value)}, neither KEEP nor DEL")
            if label is not _label(r_before, r_after):
                raise ValueError(
                    f"sentence {sent_index}: cached option {quote(key)} is labeled "
                    f"{label.value}, which disagrees with r_before={r_before}, "
                    f"r_after={r_after}")
            # an option is immutable, so one object serves every label of
            # an equal option in the file
            option_key = (*key, node_label)
            option = options.get(option_key)
            if option is None:
                option = options[option_key] = _new(
                    CompressionOption, (_new(Span, (start, end)), _RULES[rule], node_label))
            sent_labels.append(_new(LabeledOption, (option, r_before, r_after, label)))
        labels.append(tuple(sent_labels))
    return DocumentOracles(doc, tuple(candidates), tuple(labels))
