"""Porter suffix-stripping stemmer (original 1980 algorithm).

Deterministic, dependency-free. Output is lowercase; words of length one
or two are returned unchanged apart from lowercasing. Results are memoized:
a corpus repeats a small vocabulary many times over.

The suffix tables are built once, at import. The measure and vowel tests
read a word's form, one 'c' or 'v' per letter from a single pass over the
word; since a letter's class depends only on the letters before it, the
form of a cut word is the same cut of the form.
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = "aeiou"


def _form(word: str) -> str:
    """'c' for each consonant of word and 'v' for each vowel, where y is a
    vowel after a consonant and a consonant first or after a vowel."""
    classes = []
    vowel = True            # so a leading y is a consonant
    for ch in word:
        if ch in _VOWELS:
            vowel = True
        elif ch == "y":
            vowel = not vowel
        else:
            vowel = False
        classes.append("v" if vowel else "c")
    return "".join(classes)


def _measure(form: str) -> int:
    """Number of vowel-consonant sequences: [C](VC)^m[V]."""
    return form.count("vc")


def _ends_double_consonant(word: str, form: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and form[-1] == "c"


def _ends_cvc(word: str, form: str) -> bool:
    return form.endswith("cvc") and word[-1] not in "wxy"


class _Suffixes:
    """A step's suffixes and their replacements. The longest suffix a word
    ends with is found by one lookup per suffix length, longest first, once
    one endswith call has shown there is one."""

    def __init__(self, replacements: dict[str, str]):
        self.replacements = replacements
        self.lengths = sorted({len(s) for s in replacements}, reverse=True)
        self.any = tuple(replacements)

    def longest(self, word: str) -> str | None:
        if not word.endswith(self.any):
            return None
        for length in self.lengths:
            tail = word[-length:]
            if tail in self.replacements:
                return tail
        return None


# suffix -> replacement; the remaining stem must have measure > 0
_STEP2 = _Suffixes({
    "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance",
    "izer": "ize", "abli": "able", "alli": "al", "entli": "ent",
    "eli": "e", "ousli": "ous", "ization": "ize", "ation": "ate",
    "ator": "ate", "alism": "al", "iveness": "ive", "fulness": "ful",
    "ousness": "ous", "aliti": "al", "iviti": "ive", "biliti": "ble",
})
_STEP3 = _Suffixes({
    "icate": "ic", "ative": "", "alize": "al", "iciti": "ic",
    "ical": "ic", "ful": "", "ness": "",
})
# suffixes stripped when the remaining stem has measure > 1
_STEP4 = _Suffixes(dict.fromkeys([
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
], ""))


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
    form = _form(word)

    # Step 1b: -ed / -ing.
    if word.endswith("eed"):
        if _measure(form[:-3]) > 0:
            word, form = word[:-1], form[:-1]
    else:
        cut = 0
        if word.endswith("ed") and "v" in form[:-2]:
            cut = 2
        elif word.endswith("ing") and "v" in form[:-3]:
            cut = 3
        if cut:
            word, form = word[:-cut], form[:-cut]
            if word.endswith(("at", "bl", "iz")):
                word, form = word + "e", form + "v"
            elif _ends_double_consonant(word, form) and word[-1] not in "lsz":
                word, form = word[:-1], form[:-1]
            elif _measure(form) == 1 and _ends_cvc(word, form):
                word, form = word + "e", form + "v"

    # Step 1c: terminal y.
    if word.endswith("y") and "v" in form[:-1]:
        word, form = word[:-1] + "i", form[:-1] + "v"

    # Steps 2 and 3: double suffixes, then -ic-, -full, -ness.
    for step in (_STEP2, _STEP3):
        suffix = step.longest(word)
        if suffix is not None:
            cut = len(word) - len(suffix)
            if _measure(form[:cut]) > 0:
                word = word[:cut] + step.replacements[suffix]
                form = _form(word)

    # Step 4: strip residual suffixes when the stem is long enough.
    suffix = _STEP4.longest(word)
    if suffix is not None:
        cut = len(word) - len(suffix)
        if _measure(form[:cut]) > 1:
            if suffix != "ion" or (cut and word[cut - 1] in "st"):
                word, form = word[:cut], form[:cut]

    # Step 5a: terminal e.
    if word.endswith("e"):
        m = _measure(form[:-1])
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1], form[:-1])):
            word, form = word[:-1], form[:-1]

    # Step 5b: -ll reduction.
    if _measure(form) > 1 and _ends_double_consonant(word, form) and word.endswith("l"):
        word = word[:-1]

    return word
