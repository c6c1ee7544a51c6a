"""The Porter stemmer that `compsum.stemming.stem` replaced.

Kept only as an oracle for differential tests: it finds each letter's
consonant class with a recursive function, once per test that asks, and
builds the suffix lists and replacement dicts of steps 2 and 3 on every
call. Nothing in `src/` imports it.
"""

from functools import lru_cache

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return True if i == 0 else not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: [C](VC)^m[V]."""
    flags = [_is_consonant(stem, i) for i in range(len(stem))]
    m = 0
    for prev, cur in zip(flags, flags[1:]):
        if not prev and cur:
            m += 1
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_consonant(word, len(word) - 1))


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (_is_consonant(word, len(word) - 3)
            and not _is_consonant(word, len(word) - 2)
            and _is_consonant(word, len(word) - 1)):
        return False
    return word[-1] not in "wxy"


# (suffix, replacement, minimum measure of the remaining stem)
_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]
_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]
_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def _longest_match(word: str, suffixes) -> str | None:
    best = None
    for suffix in suffixes:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best)):
            best = suffix
    return best


@lru_cache(maxsize=65536)
def stem(word: str) -> str:
    word = word.lower()
    if len(word) <= 2:
        return word

    # Step 1a: plurals.
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]

    # Step 1b: -ed / -ing.
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        stripped = None
        if word.endswith("ed") and _contains_vowel(word[:-2]):
            stripped = word[:-2]
        elif word.endswith("ing") and _contains_vowel(word[:-3]):
            stripped = word[:-3]
        if stripped is not None:
            word = stripped
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_consonant(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"

    # Step 1c: terminal y.
    if word.endswith("y") and _contains_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Step 2: double suffixes (measure of the remaining stem must be > 0).
    suffix = _longest_match(word, [s for s, _ in _STEP2])
    if suffix is not None:
        replacement = dict(_STEP2)[suffix]
        stem_part = word[:-len(suffix)]
        if _measure(stem_part) > 0:
            word = stem_part + replacement

    # Step 3.
    suffix = _longest_match(word, [s for s, _ in _STEP3])
    if suffix is not None:
        replacement = dict(_STEP3)[suffix]
        stem_part = word[:-len(suffix)]
        if _measure(stem_part) > 0:
            word = stem_part + replacement

    # Step 4: strip residual suffixes when the stem is long enough.
    suffix = _longest_match(word, _STEP4)
    if suffix is not None:
        stem_part = word[:-len(suffix)]
        if _measure(stem_part) > 1:
            if suffix != "ion" or (stem_part and stem_part[-1] in "st"):
                word = stem_part

    # Step 5a: terminal e.
    if word.endswith("e"):
        stem_part = word[:-1]
        m = _measure(stem_part)
        if m > 1 or (m == 1 and not _ends_cvc(stem_part)):
            word = stem_part

    # Step 5b: -ll reduction.
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]

    return word
