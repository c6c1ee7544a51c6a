"""From-scratch oracle scoring, the references that compsum.oracle is checked against.

`beam_search_oracle` scores every subset of every round by counting its
joined sentences' grams anew (`score_joined`), where
`compsum.oracle.beam_search_oracle` changes its state's counts by the one
sentence an extension adds; `label_compressions` scores each option's cut
sentence anew (`score_tokens`), where `compsum.oracle.label_compressions`
takes the span's grams from the sentence's counts; `exhaustive_oracle` is
the true argmax over every k-subset. Each builds its own inputs from the
public preprocessing and `ReferenceGrams`, and `oracle_inputs` builds the
ones the library's beam and labels take, as `build_document_oracles` does.
`library_labels` gives every sentence of a document the labels of the
library's `label_compressions` over `extract_options`, where
`build_document_oracles` labels only the sentences its oracles pick.
Nothing in `src/` imports this module.
"""

import math
from collections import Counter
from itertools import combinations
from typing import Iterable, Sequence

from compsum import oracle as library
from compsum.corpus import Document
from compsum.oracle import (
    CompressionLabel,
    LabeledOption,
    OracleCandidate,
    OracleConfig,
    scoreable_sentences,
)
from compsum.rouge import (
    ORACLE_PREPROCESS,
    ReferenceGrams,
    SharedGrams,
    preprocess_per_token,
    preprocess_tokens,
)
from compsum.rules import CompressionOption, extract_options
from compsum.treebank import SentenceTree

_EXHAUSTIVE_GUARD = 10 ** 6


def oracle_inputs(sentences: Sequence[SentenceTree], reference: Sequence[str],
                  ) -> tuple[ReferenceGrams, list[list[str | None]], list[SharedGrams]]:
    """The reference's grams, and per sentence its preprocess_per_token and
    the shared grams of the tokens that keeps, all with ORACLE_PREPROCESS."""
    grams = ReferenceGrams(preprocess_tokens(reference, ORACLE_PREPROCESS))
    per_token = [preprocess_per_token(tree.tokens, ORACLE_PREPROCESS) for tree in sentences]
    sents = [grams.shared([tok for tok in tokens if tok is not None]) for tokens in per_token]
    return grams, per_token, sents


def library_labels(doc: Document) -> list[list[LabeledOption]]:
    """The library's labels of every option of every sentence of doc,
    scoreable or not and picked by an oracle or not."""
    grams, per_token, sents = oracle_inputs(doc.sentences, doc.reference_tokens)
    return [library.label_compressions(grams, tokens, sent, extract_options(tree))
            for tree, tokens, sent in zip(doc.sentences, per_token, sents)]


def _clipped(counts: Counter, ref_counts: Counter) -> int:
    return sum(min(count, ref_counts[gram]) for gram, count in counts.items())


def score_joined(grams: ReferenceGrams, parts: Iterable[SharedGrams]) -> float:
    """Score of the parts' tokens joined in order; empty parts add no join."""
    unigrams: Counter = Counter()
    bigrams: Counter = Counter()
    length = 0
    last = None
    for part in parts:
        if not part.tokens:
            continue
        unigrams.update(part.unigrams)
        bigrams.update(part.bigrams)
        if last is not None:
            bigrams[last, part.tokens[0]] += 1
        last = part.tokens[-1]
        length += len(part.tokens)
    return grams.score_counts(_clipped(unigrams, grams.unigrams),
                              _clipped(bigrams, grams.bigrams), length)


def score_tokens(grams: ReferenceGrams, tokens: Sequence[str]) -> float:
    shared = grams.shared(tokens)
    return grams.score_counts(shared.unigram_matches, shared.bigram_matches, len(tokens))


def _salience_order(indices: Iterable[int], individual: Sequence[float]) -> tuple[int, ...]:
    return tuple(sorted(indices, key=lambda i: (-individual[i], i)))


def _scoreable_inputs(doc: Document, reference: Sequence[str],
                      k: int) -> tuple[ReferenceGrams, list[SharedGrams], list[float]]:
    grams, _, sents = oracle_inputs(doc.sentences[:scoreable_sentences(doc, k)], reference)
    return grams, sents, [score_joined(grams, [sent]) for sent in sents]


def beam_search_oracle(doc: Document, reference: Sequence[str],
                       cfg: OracleConfig) -> list[OracleCandidate]:
    grams, sents, individual = _scoreable_inputs(doc, reference, cfg.k)
    beam: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    for _ in range(cfg.k):
        seen: set[tuple[int, ...]] = set()
        scored: list[tuple[tuple[int, ...], float]] = []
        for indices, _score in beam:
            used = set(indices)
            for i in range(len(sents)):
                if i in used:
                    continue
                extended = tuple(sorted((*indices, i)))
                if extended in seen:
                    continue
                seen.add(extended)
                scored.append((extended, score_joined(grams, [sents[j] for j in extended])))
        scored.sort(key=lambda item: (-item[1], item[0]))
        beam = scored[:cfg.beam_width]
    return [OracleCandidate(_salience_order(indices, individual), score)
            for indices, score in beam]


def exhaustive_oracle(doc: Document, reference: Sequence[str], k: int) -> OracleCandidate:
    """True argmax over all k-subsets of the scoreable sentences; guards
    against combinatorial blowup."""
    grams, sents, individual = _scoreable_inputs(doc, reference, k)
    n = len(sents)
    total = math.comb(n, k)
    if total > _EXHAUSTIVE_GUARD:
        raise ValueError(
            f"C({n},{k}) = {total} subsets exceeds the exhaustive-search guard "
            f"of {_EXHAUSTIVE_GUARD}")
    best: tuple[int, ...] | None = None
    best_score = -1.0
    for indices in combinations(range(n), k):
        score = score_joined(grams, [sents[i] for i in indices])
        if score > best_score:
            best, best_score = indices, score
    assert best is not None
    return OracleCandidate(_salience_order(best, individual), best_score)


def label_compressions(sentence: SentenceTree, options: Sequence[CompressionOption],
                       reference: Sequence[str]) -> list[LabeledOption]:
    grams = ReferenceGrams(preprocess_tokens(reference, ORACLE_PREPROCESS))
    per_token = preprocess_per_token(sentence.tokens, ORACLE_PREPROCESS)
    r_before = score_tokens(grams, [tok for tok in per_token if tok is not None])
    labeled = []
    for option in options:
        survivors = per_token[:option.span.start] + per_token[option.span.end:]
        r_after = score_tokens(grams, [tok for tok in survivors if tok is not None])
        label = CompressionLabel.DEL if r_after > r_before else CompressionLabel.KEEP
        labeled.append(LabeledOption(option, r_before, r_after, label))
    return labeled
