"""Classic Porter suffix-stripping stemmer.

Self-contained implementation of the original five-step algorithm,
operating on lowercase ASCII words. Words of one or two letters are
returned unchanged, matching the reference implementation's behavior.
`stem` is memoized: a corpus repeats its words, and a word's stem never
changes.
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    c = word[i]
    if c in _VOWELS:
        return False
    if c == "y":
        # y is a vowel when preceded by a consonant ("syzygy"), else a consonant
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-to-consonant transitions (the algorithm's m)."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if not _is_consonant(stem, i):
            prev_vowel = True
        elif prev_vowel:
            m += 1
            prev_vowel = False
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant tail with the final consonant not w, x, or y;
    # used when deciding whether to restore a trailing e (hop -> hope case)
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _step1a(w: str) -> str:
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("ss"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        return w[:-1] if _measure(w[:-3]) > 0 else w
    if w.endswith("ed") and _has_vowel(w[:-2]):
        w = w[:-2]
    elif w.endswith("ing") and _has_vowel(w[:-3]):
        w = w[:-3]
    else:
        return w
    # cleanup after a successful ed/ing removal
    if w.endswith(("at", "bl", "iz")):
        return w + "e"
    if _ends_double_consonant(w) and w[-1] not in "lsz":
        return w[:-1]
    if _measure(w) == 1 and _ends_cvc(w):
        return w + "e"
    return w


def _step1c(w: str) -> str:
    if w.endswith("y") and _has_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


# (suffix, replacement) pairs; within a step the longest matching suffix is
# the only candidate, and its m-condition decides whether anything happens.
_STEP2 = (
    ("ational", "ate"), ("tional", "tion"),
    ("enci", "ence"), ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
    ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
    ("ization", "ize"), ("ation", "ate"), ("ator", "ate"), ("alism", "al"),
    ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
    ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)
_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)
_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _longest_suffix(w: str, suffixes) -> str | None:
    best = None
    for s in suffixes:
        if w.endswith(s) and (best is None or len(s) > len(best)):
            best = s
    return best


def _step23(w: str, rules) -> str:
    suffix = _longest_suffix(w, [s for s, _ in rules])
    if suffix is None:
        return w
    stem = w[: len(w) - len(suffix)]
    if _measure(stem) > 0:
        return stem + dict(rules)[suffix]
    return w


def _step4(w: str) -> str:
    suffix = _longest_suffix(w, _STEP4)
    if suffix is None:
        return w
    stem = w[: len(w) - len(suffix)]
    if _measure(stem) <= 1:
        return w
    if suffix == "ion" and not stem.endswith(("s", "t")):
        return w
    return stem


def _step5a(w: str) -> str:
    if w.endswith("e"):
        m = _measure(w[:-1])
        if m > 1 or (m == 1 and not _ends_cvc(w[:-1])):
            return w[:-1]
    return w


def _step5b(w: str) -> str:
    if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
        return w[:-1]
    return w


@lru_cache(maxsize=1 << 15)
def stem(word: str) -> str:
    """Stem a single lowercase word; non-alphabetic input is returned as-is."""
    w = word.lower()
    if len(w) <= 2 or not w.isascii() or not w.isalpha():
        return w
    w = _step1a(w)
    w = _step1b(w)
    w = _step1c(w)
    w = _step23(w, _STEP2)
    w = _step23(w, _STEP3)
    w = _step4(w)
    w = _step5a(w)
    w = _step5b(w)
    return w
