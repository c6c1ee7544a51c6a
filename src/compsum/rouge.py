"""Token-level n-gram ROUGE (rouge_n) and longest-common-subsequence ROUGE
(rouge_l), and the fast approximate score used in search.

All metrics operate on pre-tokenized sequences. Preprocessing (lowercase,
stopword removal, stemming) is a separate, explicit step so the metric
functions themselves stay pure. ReferenceGrams is the approximate score in
counts: it gives a candidate's shared grams (shared) and turns clipped match
counts into the score (score_counts), so compsum.oracle can change the counts
by delta; how they are joined or cut is left to that caller.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import or_
from typing import NamedTuple, Sequence

from .stemming import stem

# Standard embedded English stopword list; configurable per call site.
DEFAULT_STOPWORDS = frozenset("""
i me my myself we our ours ourselves you you're you've you'll you'd your
yours yourself yourselves he him his himself she she's her hers herself it
it's its itself they them their theirs themselves what which who whom this
that that'll these those am is are was were be been being have has had
having do does did doing a an the and but if or because as until while of
at by for with about against between into through during before after
above below to from up down in out on off over under again further then
once here there when where why how all any both each few more most other
some such no nor not only own same so than too very s t can will just don
don't should should've now d ll m o re ve y ain aren aren't couldn
couldn't didn didn't doesn doesn't hadn hadn't hasn hasn't haven haven't
isn isn't ma mightn mightn't mustn mustn't needn needn't shan shan't
shouldn shouldn't wasn wasn't weren weren't won won't wouldn wouldn't
""".split())


def is_punctuation(token: str) -> bool:
    """True for tokens with no alphanumeric content."""
    return not any(map(str.isalnum, token))


class RougeScore(NamedTuple):
    precision: float
    recall: float
    f1: float


_ZERO = RougeScore(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class PreprocessConfig:
    lowercase: bool = True
    remove_stopwords: bool = False
    stem: bool = False
    stopword_list: frozenset = field(default=DEFAULT_STOPWORDS)

    def __post_init__(self):
        if self.remove_stopwords and not self.stopword_list:
            raise ValueError("remove_stopwords requires a non-empty stopword list")


# Configuration used for oracle construction and label derivation.
ORACLE_PREPROCESS = PreprocessConfig(lowercase=True, remove_stopwords=True, stem=True)


def preprocess_per_token(tokens: Sequence[str], cfg: PreprocessConfig) -> list[str | None]:
    """Each token's preprocessed form, or None where preprocessing drops it.

    Every step acts on one token alone, so the list keeps token positions:
    deleting a span from it and then dropping the Nones gives the same tokens
    as preprocessing the shortened sentence.
    """
    out: list[str | None] = []
    for tok in tokens:
        if cfg.lowercase:
            tok = tok.lower()
        if cfg.remove_stopwords and (tok in cfg.stopword_list or is_punctuation(tok)):
            out.append(None)
        else:
            out.append(stem(tok) if cfg.stem else tok)
    return out


def preprocess_tokens(tokens: Sequence[str], cfg: PreprocessConfig) -> list[str]:
    """Lowercase, drop stopwords (and pure punctuation), then stem, in that order."""
    return [tok for tok in preprocess_per_token(tokens, cfg) if tok is not None]


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    """Counts of the tokens (n = 1) or of the pairs of adjacent tokens (n = 2)."""
    return Counter(tokens) if n == 1 else Counter(zip(tokens, tokens[1:]))


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge_n(candidate: Sequence[str], references: Sequence[Sequence[str]], n: int) -> RougeScore:
    """Clipped n-gram overlap against one or more references.

    Per n-gram the match count is min(candidate count, max reference count):
    the candidate's counts are clipped by the union of the references'.
    Recall is computed over the total n-gram count summed across references.
    """
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    cand_counts = _ngram_counts(candidate, n)
    ref_counts = [_ngram_counts(ref, n) for ref in references]
    cand_total = cand_counts.total()
    ref_total = sum(rc.total() for rc in ref_counts)
    if cand_total == 0 or ref_total == 0:
        return _ZERO
    matches = _clipped_matches(cand_counts, reduce(or_, ref_counts))
    precision = matches / cand_total
    recall = matches / ref_total
    return RougeScore(precision, recall, _f1(precision, recall))


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004).

    Bit j of v is 0 where the LCS of the prefix of a read so far and b[:j+1]
    steps up at j, so the LCS is the number of zero bits among len(b); one
    addition per token of a replaces a row of the dynamic program.
    """
    if not a or not b:
        return 0
    masks: dict[str, int] = {}
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        m = masks.get(tok)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """Longest-common-subsequence F1 over flattened token sequences."""
    if not candidate or not reference:
        return _ZERO
    lcs = _lcs_length(candidate, reference)
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    return RougeScore(precision, recall, _f1(precision, recall))


def approx_oracle_score(
    candidate: Sequence[str],
    reference: Sequence[str],
    cfg: PreprocessConfig = ORACLE_PREPROCESS,
) -> float:
    """Mean of unigram and bigram F1 after stopword removal and stemming.

    The stopword/stem flags are forced on (the list and lowercasing come
    from cfg); this is the cheap stand-in for full ROUGE during search.
    """
    effective = replace(cfg, remove_stopwords=True, stem=True)
    cand = preprocess_tokens(candidate, effective)
    ref = preprocess_tokens(reference, effective)
    return approx_score_pretokenized(cand, ref)


def approx_score_pretokenized(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """approx_oracle_score for inputs that are already preprocessed."""
    refs = [reference]
    return 0.5 * (rouge_n(candidate, refs, 1).f1 + rouge_n(candidate, refs, 2).f1)


def _clipped_matches(counts: Counter, ref_counts: Counter) -> int:
    """The sum over grams of min(count, reference count)."""
    return sum(map(min, counts.values(), map(ref_counts.__getitem__, counts)))


class SharedGrams(NamedTuple):
    """Preprocessed tokens with the counts of their unigrams and bigrams that
    occur in a reference, and how many of each match it (clipped)."""

    tokens: tuple[str, ...]
    unigrams: Counter
    bigrams: Counter
    unigram_matches: int
    bigram_matches: int


class ReferenceGrams:
    """approx_score_pretokenized against one fixed reference, computed from counts.

    A candidate needs only its length and the counts of the unigrams and
    bigrams it shares with the reference: other grams never match. Token
    lists joined end to end share the grams each list shares plus, at each
    join, the bigram of the last token before it and the first token after
    it. score_counts turns the clipped match counts and the length into the
    score, so a caller that changes a candidate by a few grams (compsum.oracle
    adds a sentence to a beam state, or cuts a span from a sentence) updates
    the counts by those grams and rescores without recounting the rest. The
    match counts and totals are the integers rouge_n computes and go through
    _f1's float operations, so every score is the same float as
    approx_score_pretokenized's on the joined tokens.
    """

    def __init__(self, reference: Sequence[str]):
        self.unigrams = _ngram_counts(reference, 1)
        self.bigrams = _ngram_counts(reference, 2)
        self.length = len(reference)

    def shared(self, tokens: Sequence[str]) -> SharedGrams:
        tokens = tuple(tokens)
        unigrams = Counter(tok for tok in tokens if tok in self.unigrams)
        bigrams = Counter(pair for pair in zip(tokens, tokens[1:]) if pair in self.bigrams)
        return SharedGrams(tokens, unigrams, bigrams,
                           _clipped_matches(unigrams, self.unigrams),
                           _clipped_matches(bigrams, self.bigrams))

    def score_counts(self, unigram_matches: int, bigram_matches: int, length: int) -> float:
        """Score of `length` tokens with these clipped unigram and bigram matches.

        Each F1 is rouge_n's from its match count and the two gram totals
        (0.0 where either total is not positive), through _f1's operations
        in _f1's order; written out here, as the oracle's hot loops call it
        once per subset and option.
        """
        ref_length = self.length
        unigram = bigram = 0.0
        if length > 0 and ref_length > 0:
            precision, recall = unigram_matches / length, unigram_matches / ref_length
            if precision + recall != 0.0:
                unigram = 2.0 * precision * recall / (precision + recall)
        if length > 1 and ref_length > 1:
            precision, recall = bigram_matches / (length - 1), bigram_matches / (ref_length - 1)
            if precision + recall != 0.0:
                bigram = 2.0 * precision * recall / (precision + recall)
        return 0.5 * (unigram + bigram)
