"""Normalization pipeline: emoji phrases, abbreviations, tokenization,
stop-word removal, stemming."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd.errors import DataError
from ssd.preprocess import (
    PREPROCESS_SWITCHES,
    PreprocessConfig,
    default_config,
    load_stopwords,
    load_tsv_map,
    normalize,
)

from conftest import oracle_abbrev_expander, oracle_emoji_replacer


@pytest.fixture(scope="module")
def cfg():
    return default_config()


def test_full_pipeline_on_short_comment(cfg):
    ts = normalize("Stay STRONG!! 💪", cfg)
    assert ts.tokens == ("stai", "strong", "flex", "bicep")
    assert ts.original_length_chars == len("Stay STRONG!! 💪")


def test_emoji_becomes_phrase_tokens(cfg):
    assert "red" in normalize("I ❤️ this", cfg).tokens
    assert "heart" in normalize("I ❤️ this", cfg).tokens
    # unpadded emoji still splits off its neighbors
    assert normalize("nice💪job", cfg).tokens[:1] == ("nice",)


def test_abbreviations_expand_only_as_whole_words(cfg):
    assert "you" in normalize("u r great", cfg).tokens or (
        # "are"/"you" are stop words; expansion happened if the raw letters vanished
        "u" not in normalize("u r great", cfg).tokens
    )
    # inside words nothing expands
    assert "grumpy" in normalize("grumpy", default_config(stem=False)).tokens


def test_abbreviation_not_expanded_after_apostrophe():
    plain = default_config(stem=False, remove_stopwords=False)
    tokens = normalize("you're ok", plain).tokens
    assert "you're" in tokens


def test_stopwords_removed_by_default(cfg):
    ts = normalize("this is the best video", cfg)
    assert "the" not in ts.tokens
    assert "is" not in ts.tokens


def test_keep_stopwords_flag():
    keep = default_config(remove_stopwords=False, stem=False)
    assert "the" in normalize("the best video", keep).tokens


def test_no_stem_flag():
    plain = default_config(stem=False)
    assert "running" in normalize("running fast", plain).tokens


def test_punctuation_stripped_by_default(cfg):
    ts = normalize("wow!!! nice... really???", cfg)
    assert all(t.isalnum() or "'" in t for t in ts.tokens)


def test_strip_punct_false_keeps_punctuation_runs():
    punct = default_config(strip_punct=False, stem=False, remove_stopwords=False)
    tokens = normalize("wow!!! ok", punct).tokens
    assert "!!!" in tokens
    assert "wow" in tokens


def test_apostrophe_words_stay_single_tokens():
    plain = default_config(stem=False, remove_stopwords=False)
    assert "don't" in normalize("don't stop", plain).tokens


def test_empty_and_whitespace_only(cfg):
    assert normalize("", cfg).tokens == ()
    assert normalize("   \n\t ", cfg).tokens == ()


def test_order_lowercase_before_stopword_check(cfg):
    # "THE" must be removed, which requires lowercasing first
    assert "the" not in normalize("THE END", cfg).tokens


def test_token_stream_iterates_and_sizes(cfg):
    ts = normalize("strong hope", cfg)
    assert len(ts) == 2
    assert list(ts) == list(ts.tokens)


def test_bundled_stopword_list_shape():
    sw = load_stopwords()
    assert len(sw) == 175
    assert all(w == w.lower() for w in sw)
    assert "the" in sw and "is" in sw


def test_load_tsv_map_rejects_duplicates(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("u\tyou\nu\tyour\n")
    with pytest.raises(DataError):
        load_tsv_map(str(path))


def test_config_is_frozen(cfg):
    with pytest.raises(AttributeError):
        cfg.stem = False


def test_switches_are_the_boolean_settings():
    assert PREPROCESS_SWITCHES == tuple(
        f.name for f in fields(PreprocessConfig) if f.type == "bool")


@given(st.text(max_size=80))
def test_normalize_total_and_deterministic(text):
    cfg = default_config()
    first = normalize(text, cfg)
    second = normalize(text, cfg)
    assert first.tokens == second.tokens
    assert all(isinstance(t, str) and t for t in first.tokens)


@given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll")), max_size=40))
def test_tokens_are_lowercase(text):
    for token in normalize(text, default_config()).tokens:
        assert token == token.lower()


# ---------------------------------------------------------------------------
# compiled patterns: normalize agrees with rebuilding them on every call


def _oracle_normalize(text, cfg):
    """normalize() with the emoji and abbreviation patterns rebuilt from the
    maps on every call and an unmemoized stemmer."""
    import re

    from ssd.porter import stem

    original_len = len(text)
    if cfg.emoji_map:
        pattern = "|".join(
            re.escape(s) for s in sorted(cfg.emoji_map, key=len, reverse=True))
        text = re.sub(pattern, lambda m: f" {cfg.emoji_map[m.group(0)]} ", text)
    if cfg.abbrev_map:
        folded = {k.lower(): v for k, v in cfg.abbrev_map.items()}
        alts = "|".join(re.escape(k) for k in sorted(folded, key=len, reverse=True))
        text = re.compile(
            rf"(?<![\w'’])(?:{alts})(?![\w'’])", re.IGNORECASE
        ).sub(lambda m: folded[m.group(0).lower()], text)
    if cfg.lowercase:
        text = text.lower()
    word = re.compile(r"[^\W_]+(?:['’][^\W_]+)*", re.UNICODE)
    if cfg.strip_punct:
        tokens = word.findall(text)
    else:
        tokens = []
        for chunk in text.split():
            pos = 0
            for m in word.finditer(chunk):
                if m.start() > pos:
                    tokens.append(chunk[pos:m.start()])
                tokens.append(m.group(0))
                pos = m.end()
            if pos < len(chunk):
                tokens.append(chunk[pos:])
    if cfg.remove_stopwords:
        tokens = [t for t in tokens if t not in cfg.stopwords]
    if cfg.stem:
        tokens = [stem.__wrapped__(t) for t in tokens]
    return tuple(tokens), original_len


_BUNDLED = default_config()
_CONFIGS = (_BUNDLED, default_config(strip_punct=False, lowercase=False))
_PIECES = st.one_of(
    st.sampled_from(sorted(_BUNDLED.emoji_map)),
    st.sampled_from(sorted(_BUNDLED.abbrev_map)).flatmap(
        lambda a: st.sampled_from([a, a.upper(), a.capitalize()])),
    # "❤" is a prefix of the bundled "❤️", so the longer symbol must win
    st.sampled_from([" ", "  ", "'", "’", "you're", "r", "u", "it’s", "❤️", "❤",
                     "Running", "caresses", "!", "...", "_"]),
    st.text(alphabet="abcrsuyE'’ 💪!", max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_PIECES, max_size=14).map("".join), st.sampled_from(_CONFIGS))
def test_normalize_matches_per_call_pattern_oracle(text, cfg):
    ts = normalize(text, cfg)
    assert (ts.tokens, ts.original_length_chars) == _oracle_normalize(text, cfg)


def test_patterns_follow_the_config_maps():
    cfg = PreprocessConfig(emoji_map={"☺": "smile"}, abbrev_map={"GR8": "great"},
                           remove_stopwords=False, stem=False)
    assert normalize("gr8☺", cfg).tokens == ("great", "smile")
    bare = PreprocessConfig(remove_stopwords=False, stem=False)
    assert normalize("gr8☺", bare).tokens == ("gr8",)


# ---------------------------------------------------------------------------
# the emoji and abbreviation passes equal one re.sub of the alternation, on
# any map load_tsv_map accepts, wherever that re.sub does not raise

# non-word keys, ASCII emoji, keys that prefix other keys, mixed case
_EMOJI_SYMBOLS = (":)", ":-)", ":(", "<3", "❤", "❤️", "💪", "💪🏽", "😂", "xD", "_")
# whole-run keys (as every bundled key is), then keys with other characters
_RUN_KEYS = ("u", "U", "ur", "UR", "r", "b4", "B4", "gr8", "Gr8", "lol", "LOL", "l",
             "i'm", "y’all", "idk", "ſ", "ß")
_ABBREV_KEYS = _RUN_KEYS + ("w/", "w/o", "<3", "p.s", "o k")
_PHRASES = ("you", "are", "with", "heart", "great", "smile flex", "laugh out loud")


def _maps(keys):
    return st.dictionaries(st.sampled_from(keys), st.sampled_from(_PHRASES),
                           max_size=len(keys))


def _cases(symbols):
    return st.sampled_from(symbols).flatmap(
        lambda k: st.sampled_from([k, k.upper(), k.capitalize(), k.lower()]))


_SEPARATORS = st.sampled_from([" ", "'", "’", "❤", "❤️", "_", "/", ":", "-", "İ",
                               "K", "you're", "ok", "ss"])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_passes_match_the_alternation_oracle_on_generated_maps(data):
    emoji = data.draw(_maps(_EMOJI_SYMBOLS))
    abbrev = data.draw(st.one_of(_maps(_RUN_KEYS), _maps(_ABBREV_KEYS)))
    # texts mix the maps' own symbols, in several cases, with other symbols
    # and the characters that bound a run
    pieces = st.one_of(
        _cases(sorted(emoji) + sorted(abbrev) or [" "]),
        _cases(_EMOJI_SYMBOLS + _ABBREV_KEYS),
        _SEPARATORS,
        st.text(alphabet="uUrRlL'’ _/:)<3❤️", max_size=5),
    )
    text = data.draw(st.lists(pieces, max_size=12).map("".join))
    cfg = PreprocessConfig(emoji_map=emoji, abbrev_map=abbrev, remove_stopwords=False)
    replaced = oracle_emoji_replacer(emoji)(text)
    assert cfg._replace_emoji(text) == replaced
    try:
        expanded = oracle_abbrev_expander(abbrev)(replaced)
        oracle = _oracle_normalize(text, cfg)
    except KeyError:
        return  # the alternation matched a run whose .lower() is no key
    assert cfg._expand_abbrev(replaced) == expanded
    ts = normalize(text, cfg)
    assert (ts.tokens, ts.original_length_chars) == oracle


def test_run_lookup_rests_on_unicode_case_facts():
    """Why a `.lower()` lookup per maximal `[\\w'’]` run equals the
    case-insensitive alternation when every key is such a run: lowering
    never turns a character outside runs into run characters, a run
    character whose lowercase is longer leaves the run, and sre matches
    each run character against its own lowercase."""
    import re
    import sys

    run = re.compile(r"[\w'’]+")
    for cp in range(sys.maxunicode + 1):
        c = chr(cp)
        low = c.lower()
        if low == c:
            continue
        if not run.fullmatch(c) or len(low) > 1:
            assert not run.fullmatch(low), hex(cp)
        else:
            assert re.fullmatch(re.escape(low), c, re.IGNORECASE), hex(cp)
    # the one context-dependent lowercase: a final capital sigma
    assert "ΑΣ".lower() == "ας"
    assert re.fullmatch("ς", "Σ", re.IGNORECASE)


def test_case_folded_run_that_is_no_key_stays_unexpanded():
    # IGNORECASE matches "plſ" to "pls" and "İdk" to "idk", but neither
    # lowercases to a key
    cfg = default_config(remove_stopwords=False, stem=False)
    assert cfg._expand_abbrev("plſ help İdk") == "plſ help İdk"
    assert normalize("PLS help", cfg).tokens == ("please", "help")
    with pytest.raises(KeyError):
        oracle_abbrev_expander(cfg.abbrev_map)("plſ help")


def test_non_word_keys_keep_the_alternation_rule():
    cfg = PreprocessConfig(abbrev_map={"w/": "with", "u": "you", "<3": "love"},
                           remove_stopwords=False, stem=False)
    assert cfg._expand_abbrev("W/ u <3 w/o") == "with you love w/o"


@pytest.mark.parametrize("field", ["emoji_map", "abbrev_map"])
def test_empty_symbol_rejected(field):
    with pytest.raises(ValueError, match="empty symbol"):
        PreprocessConfig(**{field: {"": "nothing"}})
