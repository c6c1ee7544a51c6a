"""Suffix-stripping stemmer against hand-derived vectors from the published
algorithm description (full pipeline outputs, not per-step intermediates)."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import corpusgen
import reference_stemming
from compsum.stemming import stem

VECTORS = {
    # plurals and -ed/-ing
    "caresses": "caress", "ponies": "poni", "ties": "ti", "caress": "caress",
    "cats": "cat", "feed": "feed", "agreed": "agre", "plastered": "plaster",
    "bled": "bled", "motoring": "motor", "sing": "sing", "conflated": "conflat",
    "troubled": "troubl", "sized": "size", "hopping": "hop", "tanned": "tan",
    "falling": "fall", "hissing": "hiss", "fizzed": "fizz", "failing": "fail",
    "filing": "file",
    # terminal y
    "happy": "happi", "sky": "sky",
    # double suffixes
    "relational": "relat", "conditional": "condit", "rational": "ration",
    "valenci": "valenc", "hesitanci": "hesit", "digitizer": "digit",
    "radicalli": "radic", "differentli": "differ", "vileli": "vile",
    "analogousli": "analog", "vietnamization": "vietnam",
    "predication": "predic", "operator": "oper", "feudalism": "feudal",
    "decisiveness": "decis", "hopefulness": "hope", "callousness": "callous",
    "formaliti": "formal", "sensitiviti": "sensit", "sensibiliti": "sensibl",
    # -ic-, -full, -ness
    "triplicate": "triplic", "formative": "form", "formalize": "formal",
    "electriciti": "electr", "electrical": "electr", "hopeful": "hope",
    "goodness": "good",
    # residual suffixes
    "revival": "reviv", "allowance": "allow", "inference": "infer",
    "airliner": "airlin", "gyroscopic": "gyroscop", "adjustable": "adjust",
    "defensible": "defens", "irritant": "irrit", "replacement": "replac",
    "adjustment": "adjust", "dependent": "depend", "adoption": "adopt",
    "homologou": "homolog", "communism": "commun", "activate": "activ",
    "angulariti": "angular", "homologous": "homolog", "effective": "effect",
    "bowdlerize": "bowdler",
    # final cleanup
    "probate": "probat", "rate": "rate", "cease": "ceas",
    "controll": "control", "roll": "roll",
    # multi-step chains
    "generalizations": "gener", "oscillators": "oscil",
}


@pytest.mark.parametrize("word,expected", sorted(VECTORS.items()))
def test_published_vectors(word, expected):
    assert stem(word) == expected


def test_short_words_unchanged():
    assert stem("a") == "a"
    assert stem("is") == "is"
    assert stem("by") == "by"


def test_lowercases_output():
    assert stem("Cats") == "cat"
    assert stem("RUNNING") == "run"


def test_deterministic():
    assert all(stem(w) == stem(w) for w in VECTORS)


def test_idempotent_on_short_stems():
    # stems of the test vocabulary do not regrow suffixes
    for word in ("cat", "ran", "dog", "run"):
        assert stem(stem(word)) == stem(word)


# The endings the steps strip or test for, so that drawn words reach every step.
_ENDINGS = sorted({"sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz",
                   "y", "e", "ll", *(s for s, _ in reference_stemming._STEP2),
                   *(s for s, _ in reference_stemming._STEP3), *reference_stemming._STEP4})
# Few distinct consonants, w, x and y among them, so that doubled consonants
# and consonant-vowel-consonant endings are frequent.
_WORDS = st.builds(lambda head, ends: head + "".join(ends),
                   st.text(alphabet="aeiouybclstwxz", max_size=5),
                   st.lists(st.sampled_from(_ENDINGS), max_size=2))


@given(_WORDS)
@settings(max_examples=600, deadline=None, derandomize=True)
def test_stem_equals_the_reference_stemmer(word):
    assert stem(word) == reference_stemming.stem(word)


_PIECES = ["b", "l", "s", "t", "w", "x", "y", "z", "a", "e", "i", "o", "u",
           "ll", "ss", "zz", "tt", "at", "bl", "iz", "ay", "ow"]


def test_stem_equals_the_reference_stemmer_on_every_short_word():
    # every word of at most two pieces and one ending: 30k words, among them
    # the doubled consonants and the cvc endings in w, x and y that drawn
    # words reach only rarely
    heads = ["", *_PIECES, *(a + b for a in _PIECES for b in _PIECES)]
    for word in (head + end for head in heads for end in ["", *_ENDINGS]):
        assert stem(word) == reference_stemming.stem(word), word


# SHA-256 of one "word<TAB>stem" line per distinct word, sorted, over the
# published vectors and every word (sentences and references) of
# learnable_corpus(count=50, seed=5). A stemmer that moves any of these stems
# fails here.
STEM_OUTPUT_SHA256 = "e603d5442f49072c3f42b374b37b874e7c76fdc2ec806caf0fc7d2c40677ea52"


def test_stem_output_is_pinned():
    words = set(VECTORS)
    for doc in corpusgen.learnable_corpus(count=50, seed=5)[0]:
        for tree in doc.sentences:
            words.update(tree.tokens)
        for sentence in doc.reference:
            words.update(sentence)
    dump = "".join(f"{word}\t{stem(word)}\n" for word in sorted(words))
    assert hashlib.sha256(dump.encode("utf-8")).hexdigest() == STEM_OUTPUT_SHA256
