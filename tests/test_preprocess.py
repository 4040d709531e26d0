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
    _abbrev_expander,
    _emoji_replacer,
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
    assert normalize("Stay STRONG!! 💪", cfg) == ("stai", "strong", "flex", "bicep")


def test_emoji_becomes_phrase_tokens(cfg):
    assert "red" in normalize("I ❤️ this", cfg)
    assert "heart" in normalize("I ❤️ this", cfg)
    # unpadded emoji still splits off its neighbors
    assert normalize("nice💪job", cfg)[:1] == ("nice",)


def test_abbreviations_expand_only_as_whole_words(cfg):
    assert "you" in normalize("u r great", cfg) or (
        # "are"/"you" are stop words; expansion happened if the raw letters vanished
        "u" not in normalize("u r great", cfg)
    )
    # inside words nothing expands
    assert "grumpy" in normalize("grumpy", default_config(stem=False))


def test_abbreviation_not_expanded_after_apostrophe():
    plain = default_config(stem=False, remove_stopwords=False)
    tokens = normalize("you're ok", plain)
    assert "you're" in tokens


def test_stopwords_removed_by_default(cfg):
    tokens = normalize("this is the best video", cfg)
    assert "the" not in tokens
    assert "is" not in tokens


def test_keep_stopwords_flag():
    keep = default_config(remove_stopwords=False, stem=False)
    assert "the" in normalize("the best video", keep)


def test_no_stem_flag():
    plain = default_config(stem=False)
    assert "running" in normalize("running fast", plain)


def test_punctuation_stripped_by_default(cfg):
    tokens = normalize("wow!!! nice... really???", cfg)
    assert all(t.isalnum() or "'" in t for t in tokens)


def test_strip_punct_false_keeps_punctuation_runs():
    punct = default_config(strip_punct=False, stem=False, remove_stopwords=False)
    tokens = normalize("wow!!! ok", punct)
    assert "!!!" in tokens
    assert "wow" in tokens


def test_apostrophe_words_stay_single_tokens():
    plain = default_config(stem=False, remove_stopwords=False)
    assert "don't" in normalize("don't stop", plain)


def test_empty_and_whitespace_only(cfg):
    assert normalize("", cfg) == ()
    assert normalize("   \n\t ", cfg) == ()


def test_order_lowercase_before_stopword_check(cfg):
    # "THE" must be removed, which requires lowercasing first
    assert "the" not in normalize("THE END", cfg)


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
    assert isinstance(first, tuple) and first == second
    assert all(isinstance(t, str) and t for t in first)


@given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll")), max_size=40))
def test_tokens_are_lowercase(text):
    for token in normalize(text, default_config()):
        assert token == token.lower()


# ---------------------------------------------------------------------------
# compiled patterns: normalize agrees with rebuilding them on every call


def _oracle_normalize(text, cfg):
    """normalize() with the emoji and abbreviation patterns rebuilt from the
    maps on every call and an unmemoized stemmer."""
    import re

    from ssd.porter import stem

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
    return tuple(tokens)


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
    assert normalize(text, cfg) == _oracle_normalize(text, cfg)


def test_patterns_follow_the_config_maps():
    cfg = PreprocessConfig(emoji_map={"☺": "smile"}, abbrev_map={"GR8": "great"},
                           remove_stopwords=False, stem=False)
    assert normalize("gr8☺", cfg) == ("great", "smile")
    bare = PreprocessConfig(remove_stopwords=False, stem=False)
    assert normalize("gr8☺", bare) == ("gr8",)


# ---------------------------------------------------------------------------
# the emoji and abbreviation passes equal one re.sub of the alternation, on
# any map PreprocessConfig admits, wherever that re.sub does not raise

# non-word keys, ASCII emoji, keys that prefix other keys, mixed case
_EMOJI_SYMBOLS = (":)", ":-)", ":(", "<3", "❤", "❤️", "💪", "💪🏽", "😂", "xD", "_")
# whole-run keys, as PreprocessConfig requires, then pieces that no key may
# be, which texts still hold
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
    abbrev = data.draw(_maps(_RUN_KEYS))
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
    assert _emoji_replacer(emoji)(text) == replaced
    try:
        expanded = oracle_abbrev_expander(abbrev)(replaced)
        oracle = _oracle_normalize(text, cfg)
    except KeyError:
        return  # the alternation matched a run whose .lower() is no key
    assert _abbrev_expander(abbrev)(replaced) == expanded
    assert normalize(text, cfg) == oracle


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
    assert _abbrev_expander(cfg.abbrev_map)("plſ help İdk") == "plſ help İdk"
    assert normalize("PLS help", cfg) == ("please", "help")
    with pytest.raises(KeyError):
        oracle_abbrev_expander(cfg.abbrev_map)("plſ help")


def test_maps_that_reach_past_a_chunk_or_a_run_are_rejected():
    # an emoji symbol that holds whitespace, or an abbreviation key that is
    # not a whole run, would match across the memo's chunks or runs
    for field, symbol in [("emoji_map", ": )"), ("emoji_map", "<\t3"),
                          ("abbrev_map", "w/"), ("abbrev_map", "<3"),
                          ("abbrev_map", "p.s"), ("abbrev_map", "o k")]:
        with pytest.raises(ValueError, match=field):
            PreprocessConfig(**{field: {"u": "you", symbol: "x"}})


@pytest.mark.parametrize("field", ["emoji_map", "abbrev_map"])
def test_empty_symbol_rejected(field):
    with pytest.raises(ValueError, match="empty symbol"):
        PreprocessConfig(**{field: {"": "nothing"}})


# ---------------------------------------------------------------------------
# the chunk memo: each whitespace chunk worked once per config, with the
# tokens of the whole-text pipeline

# pieces that hold whitespace, which no symbol or key may, but texts do
_WHITESPACE_SYMBOLS = (": )", "<\t3")
_WHITESPACE_KEYS = ("o k", "g\tn", "b\xa0r")
_SPACES = (" ", "  ", "\t", "\n", "\x1c", "\xa0", "　", " \t ")
_STOPWORDS = frozenset({"you", "are", "ok", "the", "with"})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_chunk_memo_matches_the_whole_text_oracle(data):
    emoji = data.draw(_maps(_EMOJI_SYMBOLS))
    abbrev = data.draw(_maps(_RUN_KEYS))
    switches = data.draw(st.fixed_dictionaries(
        {name: st.booleans() for name in PREPROCESS_SWITCHES}))
    cfg = PreprocessConfig(emoji_map=emoji, abbrev_map=abbrev, stopwords=_STOPWORDS,
                           **switches)
    # a few words drawn again and again, so chunks repeat within and across
    # texts; capital sigmas next to whitespace test lowercasing's context
    words = data.draw(st.lists(st.one_of(
        _cases(sorted(emoji) + sorted(abbrev) or ["ok"]),
        _cases(_EMOJI_SYMBOLS + _WHITESPACE_SYMBOLS + _ABBREV_KEYS + _WHITESPACE_KEYS),
        _SEPARATORS,
        st.sampled_from(["ΑΣ", "Σ", "ΣΑ", "Running", "THE", "caresses", "!!", "..."]),
        st.text(alphabet="uUrRoOkK'’ _/:)<3❤️Σ!", max_size=5),
    ), min_size=1, max_size=6))
    pieces = st.one_of(st.sampled_from(words), st.sampled_from(_SPACES))
    texts = data.draw(st.lists(st.lists(pieces, max_size=14).map("".join),
                               min_size=1, max_size=3))
    try:
        oracle = [_oracle_normalize(t, cfg) for t in texts]
    except KeyError:
        return  # the alternation matched a run whose .lower() is no key
    assert cfg._chunk_tokens.cache_info().currsize == 0
    for _ in range(2):  # a cold memo, then a warm one
        assert [normalize(t, cfg) for t in texts] == oracle


def test_whitespace_is_its_own_case_and_bounds_case_context():
    """Why a text's tokens are its whitespace chunks' tokens: `str.split()`
    splits exactly at `str.isspace()` characters; a whitespace character
    lowercases to itself, no other character lowercases to anything that
    holds whitespace, and case-insensitive matching pairs no whitespace
    character with another character; no whitespace character is a word or
    run character; and none is cased or case-ignorable, so the final-sigma
    rule of `str.lower` never looks across one."""
    import re
    import sys

    chars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    spaces = [c for c in chars if c.isspace()]
    space_class = re.compile("[" + "".join(map(re.escape, spaces)) + "]", re.IGNORECASE)
    run = re.compile(r"[\w'’]")
    for c in chars:
        assert len(("a" + c + "b").split()) == (2 if c.isspace() else 1), hex(ord(c))
        if c.isspace():
            assert c.lower() == c and not run.match(c), hex(ord(c))
            # the sigma after c has no cased letter before it; the one before
            # c has none after it
            assert ("A" + c + "Σ").lower()[-1] == "σ", hex(ord(c))
            assert ("AΣ" + c + "B").lower()[1] == "ς", hex(ord(c))
        else:
            assert not any(low.isspace() for low in c.lower()), hex(ord(c))
            assert not space_class.fullmatch(c), hex(ord(c))
    # the other way round: no whitespace character matches any other character
    bounds = [-1] + [ord(c) for c in spaces] + [sys.maxunicode + 1]
    others = re.compile("[" + "".join(
        f"{re.escape(chr(a + 1))}-{re.escape(chr(b - 1))}"
        for a, b in zip(bounds, bounds[1:]) if b - a > 1) + "]", re.IGNORECASE)
    for c in spaces:
        assert not others.fullmatch(c), hex(ord(c))


def test_chunk_memo_is_bounded():
    cfg = PreprocessConfig(remove_stopwords=False, stem=False)
    info = cfg._chunk_tokens.cache_info()
    assert info.maxsize is not None and info.maxsize > 0
    normalize(" ".join(f"w{i}" for i in range(info.maxsize + 10)), cfg)
    assert cfg._chunk_tokens.cache_info().currsize == info.maxsize


@pytest.mark.parametrize("maps", [
    {"abbrev_map": {"u": "you"}},
    {"abbrev_map": {"ok": "okay", "U": "you"}},
    {"emoji_map": {":)": "smile", "💪": "flex"}},
])
def test_config_is_freed_by_refcount_alone(maps):
    import gc
    import weakref

    enabled = gc.isenabled()
    gc.disable()
    try:
        cfg = default_config(**maps)
        assert normalize("Stay STRONG u ok 💪 😂 :)", cfg)
        ref = weakref.ref(cfg)
        del cfg
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
