"""Deterministic feature vectors for sentences, documents, decoder state, options.

These stand in for learned encoders: fixed-length real vectors computed
from surface statistics. Identical inputs always give identical vectors.
Of an option's features only the coverage column reads the decoder state,
so training builds each sentence's option table once per document and
fills that column per step, while decoding featurizes one option at a time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Document
from .rouge import DEFAULT_STOPWORDS
from .rules import RULE_ORDER, CompressionOption, RuleId

SENTENCE_FEATURE_DIM = 6
DOC_FEATURE_DIM = 2 * SENTENCE_FEATURE_DIM + 1   # mean + max + log length
STATE_DIM = SENTENCE_FEATURE_DIM + 2             # step fraction + mean + coverage
DECODER_INPUT_DIM = STATE_DIM + DOC_FEATURE_DIM
OPTION_FEATURE_DIM = len(RuleId) + 5 + SENTENCE_FEATURE_DIM


class DocumentContext:
    """Per-document cache of token statistics and feature matrices.

    Row i of sentence_features is sentence i's position, log length,
    vocabulary coverage, stopword fraction, capitalized-token fraction and
    lead-3 indicator; document_features is the mean and max of those rows
    plus the log sentence count.
    """

    def __init__(self, doc: Document):
        self.doc = doc
        self.lowered = [tuple(t.lower() for t in tree.tokens)
                        for tree in doc.sentences]
        self.sentence_types = [set(toks) for toks in self.lowered]
        self.doc_counts = Counter(tok for sent in self.lowered for tok in sent)
        n = len(doc.sentences)
        feats = np.zeros((n, SENTENCE_FEATURE_DIM), dtype=np.float64)
        for i, tokens in enumerate(self.lowered):
            raw = doc.sentences[i].tokens
            feats[i, 0] = i / n
            feats[i, 1] = math.log1p(len(tokens))
            feats[i, 2] = len(self.sentence_types[i]) / len(self.doc_counts)
            feats[i, 3] = sum(tok in DEFAULT_STOPWORDS for tok in tokens) / len(tokens)
            feats[i, 4] = sum(1 for j, tok in enumerate(raw)
                              if j > 0 and tok[:1].isupper()) / len(tokens)
            feats[i, 5] = 1.0 if i < 3 else 0.0
        self.sentence_features = feats
        self.document_features = np.concatenate(
            [feats.mean(axis=0), feats.max(axis=0), [math.log1p(n)]])


@dataclass(frozen=True, eq=False)
class DecoderState:
    """Summary so far: the selected prefix, its token types, its feature vector."""

    selected: tuple[int, ...]
    covered: frozenset[str]      # lowercased types of the selected sentences
    k: int
    vector: np.ndarray


def initial_state(k: int) -> DecoderState:
    if k < 1:
        raise ValueError("k must be >= 1")
    return DecoderState(selected=(), covered=frozenset(), k=k,
                        vector=np.zeros(STATE_DIM, dtype=np.float64))


def advance_state(ctx: DocumentContext, state: DecoderState, picked: int) -> DecoderState:
    """Recompute the state after selecting another sentence."""
    selected = state.selected + (picked,)
    mean = np.add.reduce(ctx.sentence_features[list(selected)], axis=0) / len(selected)
    covered = state.covered | ctx.sentence_types[picked]
    coverage = len(covered) / len(ctx.doc_counts)
    vector = np.concatenate([[len(selected) / state.k], mean, [coverage]])
    return DecoderState(selected=selected, covered=covered, k=state.k, vector=vector)


# The one option feature that reads the decoder state: the share of the
# option's span that the summary so far covers
COVERAGE_COLUMN = len(RuleId) + 3


def _static_features(feats: np.ndarray, ctx: DocumentContext, sent_index: int,
                     option: CompressionOption) -> tuple[str, ...]:
    """Write every feature of option but its coverage into feats, a zeroed
    row; return the lowercased tokens of its span."""
    tokens = ctx.lowered[sent_index]
    span = option.span
    span_tokens = tokens[span.start:span.end]
    span_counts = Counter(span_tokens)
    feats[RULE_ORDER[option.rule]] = 1.0
    base = len(RuleId)
    feats[base + 0] = math.log1p(len(span_tokens))
    feats[base + 1] = span.start / len(tokens)
    feats[base + 2] = sum(ctx.doc_counts[t] > span_counts[t] for t in span_tokens) / len(span_tokens)
    feats[base + 4] = sum(t in DEFAULT_STOPWORDS for t in span_tokens) / len(span_tokens)
    feats[base + 5:] = ctx.sentence_features[sent_index]
    return span_tokens


def _coverage(span_tokens: tuple[str, ...], state: DecoderState) -> float:
    return sum(t in state.covered for t in span_tokens) / len(span_tokens)


@dataclass(frozen=True, eq=False)
class OptionTable:
    """The features of one sentence's options, a row each, with the coverage
    column left at 0: every other column is fixed by the document."""

    rows: np.ndarray                        # (c, OPTION_FEATURE_DIM)
    spans: tuple[tuple[str, ...], ...]      # each option's lowercased span tokens

    def fill(self, out: np.ndarray, state: DecoderState) -> None:
        """Write the rows into out (c, OPTION_FEATURE_DIM), their coverage
        column as of state."""
        out[...] = self.rows
        out[:, COVERAGE_COLUMN] = [_coverage(span, state) for span in self.spans]


def option_table(ctx: DocumentContext, sent_index: int,
                 options: Sequence[CompressionOption]) -> OptionTable:
    """The features of a sentence's compression options, built once per document."""
    rows = np.zeros((len(options), OPTION_FEATURE_DIM), dtype=np.float64)
    spans = tuple(_static_features(feats, ctx, sent_index, option)
                  for feats, option in zip(rows, options))
    return OptionTable(rows, spans)


def featurize_option(
    ctx: DocumentContext,
    sent_index: int,
    option: CompressionOption,
    state: DecoderState,
) -> np.ndarray:
    """Features of a compression option in the context of the summary so far:
    a row of option_table, filled for state."""
    feats = np.zeros(OPTION_FEATURE_DIM, dtype=np.float64)
    feats[COVERAGE_COLUMN] = _coverage(_static_features(feats, ctx, sent_index, option), state)
    return feats
