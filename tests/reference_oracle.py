"""The from-scratch oracle scoring that compsum.oracle replaced.

Kept only as oracles for differential tests: `beam_search_oracle` scores
every subset of every round by counting its joined sentences' grams anew
(ReferenceGrams.score_joined), where `compsum.oracle.beam_search_oracle`
changes its state's counts by the one sentence an extension adds;
`label_compressions` scores each option's cut sentence anew, where
`compsum.oracle.label_compressions` takes the span's grams from the
sentence's counts. Nothing in `src/` imports it.
"""

from typing import Sequence

from compsum.corpus import Document
from compsum.oracle import (
    LabeledOption,
    OracleCandidate,
    OracleConfig,
    _label,
    _reference_grams,
    _salience_order,
    _sentence_grams,
    scoreable_sentences,
)
from compsum.rouge import ORACLE_PREPROCESS, ReferenceGrams, preprocess_per_token
from compsum.rules import CompressionOption
from compsum.treebank import SentenceTree


def beam_search_oracle(doc: Document, reference: Sequence[str] | ReferenceGrams,
                       cfg: OracleConfig) -> list[OracleCandidate]:
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


def label_compressions(sentence: SentenceTree, options: Sequence[CompressionOption],
                       reference: Sequence[str] | ReferenceGrams) -> list[LabeledOption]:
    grams = _reference_grams(reference)
    per_token = preprocess_per_token(sentence.tokens, ORACLE_PREPROCESS)
    r_before = grams.score_tokens([tok for tok in per_token if tok is not None])
    labeled = []
    for option in options:
        survivors = per_token[:option.span.start] + per_token[option.span.end:]
        r_after = grams.score_tokens([tok for tok in survivors if tok is not None])
        labeled.append(LabeledOption(option, r_before, r_after, _label(r_before, r_after)))
    return labeled
