"""ROUGE metrics against independent brute-force oracles."""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_rouge
from reference_oracle import score_joined, score_tokens
from compsum.rouge import (
    DEFAULT_STOPWORDS,
    ORACLE_PREPROCESS,
    PreprocessConfig,
    ReferenceGrams,
    RougeScore,
    _lcs_length,
    approx_oracle_score,
    approx_score_pretokenized,
    is_punctuation,
    preprocess_per_token,
    preprocess_tokens,
    rouge_l,
    rouge_n,
)

# ---------------------------------------------------------------------------
# Brute-force oracles, written independently of the implementations they check.


def brute_ngram_score(candidate, references, n):
    """Clipped n-gram counting with exact rational arithmetic."""
    cand = [tuple(candidate[i:i + n]) for i in range(len(candidate) - n + 1)]
    refs = [[tuple(r[i:i + n]) for i in range(len(r) - n + 1)] for r in references]
    cand_counts = Counter(cand)
    matches = 0
    for gram, count in cand_counts.items():
        matches += min(count, max((Counter(r)[gram] for r in refs), default=0))
    cand_total = len(cand)
    ref_total = sum(len(r) for r in refs)
    if cand_total == 0 or ref_total == 0:
        return (0.0, 0.0, 0.0)
    p = Fraction(matches, cand_total)
    r = Fraction(matches, ref_total)
    f = Fraction(0) if p + r == 0 else 2 * p * r / (p + r)
    return (float(p), float(r), float(f))


def all_subsequences(seq):
    out = set()
    for size in range(len(seq) + 1):
        for picks in combinations(range(len(seq)), size):
            out.add(tuple(seq[i] for i in picks))
    return out


def brute_lcs_score(candidate, reference):
    """Maximum length over the explicit set of common subsequences."""
    common = all_subsequences(candidate) & all_subsequences(reference)
    lcs = max(len(s) for s in common)
    if not candidate or not reference:
        return (0.0, 0.0, 0.0)
    p = Fraction(lcs, len(candidate))
    r = Fraction(lcs, len(reference))
    f = Fraction(0) if p + r == 0 else 2 * p * r / (p + r)
    return (float(p), float(r), float(f))


def assert_matches(score, expected, tol=1e-9):
    assert abs(score.precision - expected[0]) <= tol
    assert abs(score.recall - expected[1]) <= tol
    assert abs(score.f1 - expected[2]) <= tol


# ---------------------------------------------------------------------------


class TestRougeN:
    def test_identical(self):
        score = rouge_n(list("abcd"), [list("abcd")], 1)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_worked_half_overlap(self):
        score = rouge_n(["a", "b", "c", "d"], [["a", "b", "e", "f"]], 1)
        assert_matches(score, (0.5, 0.5, 0.5))

    def test_worked_clipping(self):
        score = rouge_n(["a", "a"], [["a"]], 1)
        assert_matches(score, (0.5, 1.0, 2.0 / 3.0))

    def test_empty_candidate(self):
        assert rouge_n([], [["a"]], 1).f1 == 0.0

    def test_empty_reference(self):
        assert rouge_n(["a"], [[]], 1).f1 == 0.0

    def test_bigram_needs_two_tokens(self):
        assert rouge_n(["a"], [["a"]], 2).f1 == 0.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], [["a"]], 3)

    def test_multi_reference_clipping(self):
        # "a" clips at max(1, 2) = 2; "b" matches nowhere; recall denominator
        # sums the reference totals (1 + 2)
        score = rouge_n(["a", "a", "b"], [["a"], ["a", "a"]], 1)
        assert_matches(score, (2 / 3, 2 / 3, 2 / 3))

    @given(st.lists(st.sampled_from("abcd"), max_size=12),
           st.lists(st.sampled_from("abcd"), max_size=12),
           st.sampled_from([1, 2]))
    @settings(max_examples=150)
    def test_matches_brute_force(self, cand, ref, n):
        expected = brute_ngram_score(cand, [ref], n)
        assert_matches(rouge_n(cand, [ref], n), expected)

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
           st.lists(st.sampled_from("abc"), min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_recall_monotone_in_matching_appends(self, cand, ref):
        base = rouge_n(cand, [ref], 1).recall
        extended = rouge_n(cand + [ref[0]], [ref], 1).recall
        assert extended >= base - 1e-12

    @given(st.lists(st.sampled_from("abc"), min_size=2, max_size=10),
           st.sampled_from([1, 2]))
    @settings(max_examples=40)
    def test_symmetric_self_score(self, tokens, n):
        assert rouge_n(tokens, [tokens], n).f1 == 1.0

    def test_vocabulary_relabeling_invariance(self):
        cand = ["a", "b", "b", "c"]
        ref = ["b", "c", "d"]
        mapping = {"a": "w", "b": "x", "c": "y", "d": "z"}
        for n in (1, 2):
            before = rouge_n(cand, [ref], n)
            after = rouge_n([mapping[t] for t in cand], [[mapping[t] for t in ref]], n)
            assert before == after


# Up to 15 tokens from six types, so that unigrams and bigrams repeat.
_grams = st.lists(st.sampled_from("abcdef"), max_size=15)


class TestCountedGrams:
    """rouge_n and is_punctuation against the per-gram and per-character
    loops they replaced (reference_rouge), bit for bit."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_grams, st.lists(_grams, min_size=1, max_size=3), st.sampled_from([1, 2]))
    def test_rouge_n_equals_the_per_gram_reference(self, cand, refs, n):
        got = rouge_n(cand, refs, n)
        want = reference_rouge.rouge_n(cand, refs, n)
        assert [value.hex() for value in got] == [value.hex() for value in want]

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.text(max_size=8))
    def test_is_punctuation_equals_the_character_loop(self, token):
        assert is_punctuation(token) == reference_rouge.is_punctuation_by_character(token)


class TestRougeL:
    def test_identical(self):
        score = rouge_l(list("abc"), list("abc"))
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_worked_transposition(self):
        score = rouge_l(["a", "b", "c", "d"], ["a", "c", "b", "d"])
        assert_matches(score, (0.75, 0.75, 0.75))

    def test_disjoint(self):
        assert rouge_l(["a", "b"], ["c", "d"]).f1 == 0.0

    def test_empty(self):
        assert rouge_l([], ["a"]).f1 == 0.0
        assert rouge_l(["a"], []).f1 == 0.0

    @given(st.lists(st.sampled_from("abc"), max_size=10),
           st.lists(st.sampled_from("abc"), max_size=10))
    @settings(max_examples=80)
    def test_matches_subsequence_enumeration(self, cand, ref):
        if not cand or not ref:
            assert rouge_l(cand, ref).f1 == 0.0
            return
        assert_matches(rouge_l(cand, ref), brute_lcs_score(cand, ref))


# Two to four token types, so that tokens repeat; up to 150 tokens, so that
# the match masks cross the 64- and 128-bit word boundaries.
_lcs_pairs = st.integers(2, 4).flatmap(lambda types: st.tuples(
    st.lists(st.sampled_from("abcd"[:types]), max_size=150),
    st.lists(st.sampled_from("abcd"[:types]), max_size=150)))


class TestBitParallelLcs:
    @settings(max_examples=300, deadline=None)
    @given(_lcs_pairs)
    def test_equals_dynamic_program(self, pair):
        a, b = pair
        assert _lcs_length(a, b) == reference_rouge.lcs_length(a, b)
        assert _lcs_length(b, a) == reference_rouge.lcs_length(a, b)

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 150])
    def test_word_boundary_lengths(self, n):
        rng = np.random.default_rng(n)
        for types in (1, 2, 3, 7):
            a = [f"t{i}" for i in rng.integers(0, types, size=n)]
            b = [f"t{i}" for i in rng.integers(0, types, size=int(rng.integers(1, 151)))]
            assert _lcs_length(a, b) == reference_rouge.lcs_length(a, b)
            assert _lcs_length(a, a) == n

    def test_rouge_l_floats_unchanged(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            cand = [f"t{i}" for i in rng.integers(0, 5, size=int(rng.integers(1, 90)))]
            ref = [f"t{i}" for i in rng.integers(0, 5, size=int(rng.integers(1, 90)))]
            lcs = reference_rouge.lcs_length(cand, ref)
            p, r = lcs / len(cand), lcs / len(ref)
            f = 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)
            assert rouge_l(cand, ref) == RougeScore(p, r, f)


class TestPreprocess:
    def test_worked_example(self):
        cfg = PreprocessConfig(lowercase=True, remove_stopwords=True, stem=True)
        assert preprocess_tokens(["The", "cats", "ran"], cfg) == ["cat", "ran"]

    def test_empty(self):
        assert preprocess_tokens([], ORACLE_PREPROCESS) == []

    def test_all_flags_off_identity(self):
        cfg = PreprocessConfig(lowercase=False, remove_stopwords=False, stem=False)
        tokens = ["The", "Cats", "RAN", "."]
        assert preprocess_tokens(tokens, cfg) == tokens

    def test_punctuation_dropped_with_stopwords(self):
        cfg = PreprocessConfig(remove_stopwords=True)
        assert preprocess_tokens(["dog", ",", ".", "!!", "ran"], cfg) == ["dog", "ran"]

    def test_punctuation_kept_without_stopword_flag(self):
        cfg = PreprocessConfig(remove_stopwords=False)
        assert preprocess_tokens(["dog", ","], cfg) == ["dog", ","]

    def test_empty_stopword_list_rejected(self):
        with pytest.raises(ValueError):
            PreprocessConfig(remove_stopwords=True, stopword_list=frozenset())

    def test_default_stopwords_reasonable(self):
        assert {"the", "a", "of", "and"} <= DEFAULT_STOPWORDS


class TestApproxScore:
    def test_identical(self):
        cfg = PreprocessConfig(stopword_list=frozenset({"qqq"}))
        assert approx_oracle_score(["a", "b", "c"], ["a", "b", "c"], cfg) == 1.0

    def test_disjoint(self):
        assert approx_oracle_score(["dog", "cat"], ["bird", "fish"]) == 0.0

    def test_worked_mean_of_unigram_and_bigram(self):
        cfg = PreprocessConfig(stopword_list=frozenset({"qqq"}))
        score = approx_oracle_score(["a", "b", "c"], ["a", "b", "d"], cfg)
        assert abs(score - 7.0 / 12.0) < 1e-12

    def test_forces_stopword_removal_and_stemming(self):
        cfg = PreprocessConfig(lowercase=True, remove_stopwords=False, stem=False)
        # "the" must be removed and "cats" stemmed regardless of cfg flags;
        # single surviving tokens give unigram F1 1 and bigram F1 0
        assert approx_oracle_score(["the", "cats"], ["cat"], cfg) == 0.5

    def test_in_unit_interval(self):
        rng = np.random.default_rng(0)
        vocab = ["dog", "cat", "ran", "fast", "the", "a"]
        for _ in range(50):
            cand = list(rng.choice(vocab, size=rng.integers(0, 6)))
            ref = list(rng.choice(vocab, size=rng.integers(1, 6)))
            assert 0.0 <= approx_oracle_score(cand, ref) <= 1.0


class TestPreprocessPerToken:
    def test_worked_example(self):
        assert preprocess_per_token(["The", "cats", ",", "ran"], ORACLE_PREPROCESS) == [
            None, "cat", None, "ran"]

    def test_oracle_preprocess_forces_flags_keeps_the_rest(self):
        # approx_oracle_score forces stopword removal and stemming on, and
        # takes lowercasing and the stopword list from its cfg
        cfg = PreprocessConfig(lowercase=False, stopword_list=frozenset({"qq"}))
        assert approx_oracle_score(["qq", "cats", "ran"], ["cat", "ran"], cfg) == 1.0
        assert approx_oracle_score(["the", "cat"], ["the", "cat"], cfg) == 1.0
        assert approx_oracle_score(["QQ", "cat"], ["cat"], cfg) == pytest.approx(1 / 3)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["The", "cats", "of", ",", "ran", "Ran", "running", "."]),
                    max_size=10),
           st.integers(0, 10), st.integers(0, 10))
    def test_cutting_a_span_commutes_with_preprocessing(self, tokens, a, b):
        start, end = sorted((min(a, len(tokens)), min(b, len(tokens))))
        per_token = preprocess_per_token(tokens, ORACLE_PREPROCESS)
        cut = [tok for tok in per_token[:start] + per_token[end:] if tok is not None]
        assert cut == preprocess_tokens(tokens[:start] + tokens[end:], ORACLE_PREPROCESS)


# Few token types, so that grams repeat, exceed their reference counts and
# bridge the joins between parts.
_parts = st.lists(st.lists(st.sampled_from("abcd"), max_size=5), max_size=4)


class TestReferenceGrams:
    @settings(max_examples=400, deadline=None)
    @given(_parts, st.lists(st.sampled_from("abcde"), max_size=8))
    def test_joined_score_is_bit_identical(self, parts, reference):
        grams = ReferenceGrams(reference)
        joined = [tok for part in parts for tok in part]
        expected = approx_score_pretokenized(joined, reference)
        assert score_joined(grams, [grams.shared(part) for part in parts]) == expected
        assert score_tokens(grams, joined) == expected

    def test_bigram_across_an_empty_part_counts(self):
        grams = ReferenceGrams(["a", "b"])
        parts = [grams.shared(["a"]), grams.shared([]), grams.shared(["b"])]
        assert score_joined(grams, parts) == 1.0

    def test_repeated_gram_is_clipped(self):
        grams = ReferenceGrams(["a", "a", "b"])
        parts = [grams.shared(["a", "a"]), grams.shared(["a", "a"])]
        assert score_joined(grams, parts) == approx_score_pretokenized(["a"] * 4, ["a", "a", "b"])

    @pytest.mark.parametrize("candidate, reference", [
        ([], ["storm", "coast"]),                                  # empty candidate
        (["storm"], ["storm", "coast"]),                           # one-token candidate
        (["storm", "coast", "storm"], ["storm"]),                  # one-word reference
        (["rain", "flood", "rain"], ["storm", "coast"]),           # no match
        (["storm", "coast", "storm", "coast"], ["storm", "coast", "storm", "coast"]),  # all match
    ], ids=["empty-candidate", "one-token-candidate", "one-word-reference", "no-match",
            "every-token-matches"])
    def test_score_counts_edge_cases_equal_the_rouge_n_score(self, candidate, reference):
        grams = ReferenceGrams(reference)
        shared = grams.shared(candidate)
        score = grams.score_counts(shared.unigram_matches, shared.bigram_matches, len(candidate))
        assert score == approx_score_pretokenized(candidate, reference)
