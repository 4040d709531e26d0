"""Deterministic text normalization: emoji and abbreviation expansion,
tokenization, stop-word removal, and stemming.

The pipeline order is fixed: emoji replacement, abbreviation expansion,
lowercasing, tokenization on non-alphanumeric boundaries (apostrophes stay
word-internal), stop-word removal, Porter stemming. Every stage can be
switched off through PreprocessConfig.

No stage looks across whitespace, since an emoji symbol holds none and an
abbreviation key is a whole run (PreprocessConfig rejects any other map),
so each whitespace chunk of a raw text is worked once per config, through
a bounded memo, and a text's tokens are its chunks' tokens in order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import chain
from typing import Callable

from .errors import DataError
from .porter import stem as porter_stem
from .util import open_input

# word runs; apostrophes join alphanumeric runs into a single token
_WORD_RE = re.compile(r"[^\W_]+(?:['’][^\W_]+)*", re.UNICODE)
# distinct raw whitespace chunks whose tokens a config keeps; a paper-scale
# corpus of about 10k comments holds about 10.7k
_CHUNK_MEMO = 1 << 14


def _data_text(name: str) -> str:
    return (resources.files("ssd") / "data" / name).read_text("utf-8")


def _file_text(path: str, kind: str) -> str:
    with open_input(path, kind) as fh:
        return fh.read()


def load_stopwords(path: str | None = None) -> frozenset[str]:
    """Read a one-word-per-line stop-word list; bundled list when path is None."""
    text = _file_text(path, "stop-word") if path else _data_text("stopwords.txt")
    words = [w.strip() for w in text.splitlines() if w.strip()]
    for w in words:
        if w != w.lower():
            raise DataError(f"stop word not lowercase: {w!r}")
    return frozenset(words)


def load_tsv_map(path: str | None = None, *, bundled: str | None = None) -> dict[str, str]:
    """Read a symbol<TAB>phrase map; values must be non-empty lowercase."""
    if path:
        text = _file_text(path, "map")
        source = path
    else:
        assert bundled is not None
        text = _data_text(bundled)
        source = bundled
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0]:
            raise DataError(f"{source}:{lineno}: expected symbol<TAB>phrase")
        symbol, phrase = parts
        if not phrase or phrase != phrase.lower():
            raise DataError(f"{source}:{lineno}: phrase must be non-empty lowercase")
        if symbol in mapping:
            raise DataError(f"{source}:{lineno}: duplicate symbol {symbol!r}")
        mapping[symbol] = phrase
    return mapping


def _unchanged(text: str) -> str:
    return text


# maximal runs of word characters and apostrophes: an abbreviation's bounds
# (captured, so that split() keeps the runs at the odd places)
_RUN_RE = re.compile(r"([\w'’]+)")


def _emoji_replacer(emoji_map: dict[str, str]) -> Callable[[str], str]:
    """`pattern.sub` of the longest-symbol-first alternation, skipped where
    no symbol's first character occurs."""
    if not emoji_map:
        return _unchanged
    # longest symbol first so multi-codepoint sequences win over their prefixes
    pattern = re.compile(
        "|".join(re.escape(s) for s in sorted(emoji_map, key=len, reverse=True))
    )
    firsts = frozenset(s[0] for s in emoji_map)

    def replace(text: str) -> str:
        if firsts.isdisjoint(text):
            return text
        return pattern.sub(lambda m: f" {emoji_map[m.group(0)]} ", text)

    return replace


def _abbrev_expander(abbrev_map: dict[str, str]) -> Callable[[str], str]:
    """Replace each abbreviation that stands as a whole run: bounded on both
    sides by characters other than word characters and apostrophes (so "r"
    never fires inside "you're"), matched through `.lower()`. A run whose
    `.lower()` is no key stays as it is. Every key is a whole run itself
    (PreprocessConfig checks it), so a dict lookup per run gives what the
    case-insensitive alternation of the keys gives (tests/test_preprocess.py
    checks both the outputs and the Unicode case facts this rests on)."""
    if not abbrev_map:
        return _unchanged
    get = {k.lower(): v for k, v in abbrev_map.items()}.get

    def expand(text: str) -> str:
        parts = _RUN_RE.split(text)
        runs = parts[1::2]
        expanded = list(map(get, map(str.lower, runs), runs))
        if expanded == runs:
            return text
        parts[1::2] = expanded
        return "".join(parts)

    return expand


def _chunk_tokenizer(
    replace: Callable[[str], str],
    expand: Callable[[str], str],
    lowercase: bool,
    strip_punct: bool,
    stopwords: frozenset[str] | None,
    stem: bool,
) -> Callable[[str], tuple[str, ...]]:
    """One whitespace chunk's tokens, from the emoji pass `replace` and the
    abbreviation pass `expand` through stemming, memoized with a bound,
    since a corpus repeats its chunks. An emoji phrase or expansion may hold
    whitespace, so its pieces are split again. The stemmer is looked up at
    call time, so it runs once per memo miss."""

    @lru_cache(maxsize=_CHUNK_MEMO)
    def tokens(chunk: str) -> tuple[str, ...]:
        chunk = expand(replace(chunk))
        if lowercase:
            chunk = chunk.lower()
        if strip_punct:
            toks = _WORD_RE.findall(chunk)
        else:
            toks = []
            for piece in chunk.split():
                pos = 0
                for m in _WORD_RE.finditer(piece):
                    if m.start() > pos:
                        toks.append(piece[pos : m.start()])
                    toks.append(m.group(0))
                    pos = m.end()
                if pos < len(piece):
                    toks.append(piece[pos:])
        if stopwords is not None:
            toks = [t for t in toks if t not in stopwords]
        if stem:
            toks = [porter_stem(t) for t in toks]
        return tuple(toks)

    return tokens


@dataclass(frozen=True)
class PreprocessConfig:
    """Switches and resources for normalize(); immutable once built. The
    emoji and abbreviation patterns and the chunk memo are built once, at
    construction, and emoji, then abbreviations, are replaced per
    whitespace chunk, inside the memo. So an emoji symbol must be non-empty
    and hold no whitespace, and an abbreviation key's `.lower()` must be a
    whole run; a map that breaks a rule is a ValueError."""

    lowercase: bool = True
    strip_punct: bool = True
    remove_stopwords: bool = True
    stem: bool = True
    emoji_map: dict[str, str] = field(default_factory=dict)
    abbrev_map: dict[str, str] = field(default_factory=dict)
    stopwords: frozenset[str] = frozenset()
    _chunk_tokens: Callable[[str], tuple[str, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name in ("emoji_map", "abbrev_map"):
            if "" in getattr(self, name):
                raise ValueError(f"{name} has an empty symbol")
        for symbol in self.emoji_map:
            if any(c.isspace() for c in symbol):
                raise ValueError(f"emoji_map symbol {symbol!r} holds whitespace")
        for key in self.abbrev_map:
            if not _RUN_RE.fullmatch(key.lower()):
                raise ValueError(f"abbrev_map key {key!r} is not a whole run of "
                                 "word characters and apostrophes")
        # the memo captures the settings, never the config: no reference cycle
        object.__setattr__(self, "_chunk_tokens", _chunk_tokenizer(
            _emoji_replacer(self.emoji_map), _abbrev_expander(self.abbrev_map),
            self.lowercase, self.strip_punct,
            self.stopwords if self.remove_stopwords else None, self.stem,
        ))


# the PreprocessConfig settings an experiment config may switch on or off
PREPROCESS_SWITCHES = ("lowercase", "strip_punct", "remove_stopwords", "stem")


def default_config(**overrides) -> PreprocessConfig:
    """Config backed by the bundled stop-word, emoji, and abbreviation files."""
    base = dict(
        emoji_map=load_tsv_map(bundled="emoji_map.tsv"),
        abbrev_map=load_tsv_map(bundled="abbrev_map.tsv"),
        stopwords=load_stopwords(),
    )
    base.update(overrides)
    return PreprocessConfig(**base)


def normalize(text: str, cfg: PreprocessConfig) -> tuple[str, ...]:
    """The tokens of one text, run through the full pipeline; empty input
    yields none. Each whitespace chunk of the raw text is worked through
    the config's memo, emoji and abbreviations included. That gives the
    tokens of the whole-text pipeline, because no emoji match, abbreviation
    run, `_WORD_RE` token or `strip_punct: false` piece spans whitespace,
    and `str.lower` looks across no whitespace character
    (tests/test_preprocess.py checks the Unicode facts over every code
    point)."""
    return tuple(chain.from_iterable(map(cfg._chunk_tokens, text.split())))
