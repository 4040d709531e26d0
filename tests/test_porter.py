"""Suffix-stripping stemmer conformance and edge behavior."""

from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd.porter import stem


def _sample_pairs():
    text = (resources.files("ssd") / "data" / "porter_sample.tsv").read_text("utf-8")
    pairs = []
    for line in text.splitlines():
        if line:
            word, expected = line.split("\t")
            pairs.append((word, expected))
    return pairs


SAMPLE = _sample_pairs()


def test_sample_is_substantial():
    assert len(SAMPLE) == 100


@pytest.mark.parametrize("word,expected", SAMPLE, ids=[w for w, _ in SAMPLE])
def test_bundled_conformance_pairs(word, expected):
    assert stem(word) == expected


@pytest.mark.parametrize(
    "word,expected",
    [
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("caress", "caress"),
        ("cats", "cat"),
        ("feed", "feed"),
        ("agreed", "agre"),
        ("plastered", "plaster"),
        ("motoring", "motor"),
        ("sing", "sing"),
        ("happy", "happi"),
        ("sky", "sky"),
        ("relational", "relat"),
        ("conditional", "condit"),
        ("hopeful", "hope"),
        ("goodness", "good"),
        ("electrical", "electr"),
        ("adoption", "adopt"),
        ("probate", "probat"),
        ("cease", "ceas"),
        ("controll", "control"),
        ("roll", "roll"),
    ],
)
def test_published_step_examples(word, expected):
    assert stem(word) == expected


def test_short_words_pass_through():
    for word in ("a", "is", "be", "we", "x"):
        assert stem(word) == word


def test_case_is_folded():
    assert stem("Running") == "run"
    assert stem("RUNNING") == "run"


def test_non_alpha_and_non_ascii_pass_through():
    assert stem("can't") == "can't"
    assert stem("123") == "123"
    assert stem("naïve") == "naïve"
    assert stem("привіт") == "привіт"
    assert stem("") == ""


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12))
def test_stem_never_longer_than_word(word):
    assert len(stem(word)) <= len(word)


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=3, max_size=12))
def test_stem_is_lowercase_ascii(word):
    out = stem(word)
    assert out == out.lower()
    assert out.isascii()


# ---------------------------------------------------------------------------
# memoized stem agrees with the uncached algorithm


def test_memoized_stem_matches_uncached_on_sample():
    for word, _ in SAMPLE:
        expected = stem.__wrapped__(word)
        assert stem(word) == expected
        assert stem(word) == expected  # second call is served from the memo


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abcdeilnorstuyzAEY'", max_size=14))
def test_memoized_stem_matches_uncached_on_generated_words(word):
    assert stem(word) == stem.__wrapped__(word)
    assert stem(word) == stem.__wrapped__(word)


def test_stem_memo_is_bounded():
    assert stem.cache_info().maxsize is not None
