"""Deterministic text normalization: emoji and abbreviation expansion,
tokenization, stop-word removal, and stemming.

The pipeline order is fixed: emoji replacement, abbreviation expansion,
lowercasing, tokenization on non-alphanumeric boundaries (apostrophes stay
word-internal), stop-word removal, Porter stemming. Every stage can be
switched off through PreprocessConfig.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from typing import Callable

from .errors import DataError
from .porter import stem as porter_stem
from .util import open_input

# word runs; apostrophes join alphanumeric runs into a single token
_WORD_RE = re.compile(r"[^\W_]+(?:['’][^\W_]+)*", re.UNICODE)
# non-whitespace runs containing no alphanumerics (kept when strip_punct off)
_PUNCT_RE = re.compile(r"[^\w\s]+", re.UNICODE)


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
# first characters closer than this share one range of the emoji scan class
_RANGE_GAP = 1024


def _range_class(chars: set[str]) -> re.Pattern:
    """A character class over `chars`, widened to a few code-point ranges:
    sre scans a short range class fast, where a class of a hundred astral
    code points costs about as much as the full alternation."""
    spans: list[list[int]] = []
    for cp in sorted(map(ord, chars)):
        if spans and cp - spans[-1][1] < _RANGE_GAP:
            spans[-1][1] = cp
        else:
            spans.append([cp, cp])
    return re.compile(
        "[" + "".join(f"{re.escape(chr(a))}-{re.escape(chr(b))}" for a, b in spans) + "]"
    )


def _emoji_replacer(emoji_map: dict[str, str]) -> Callable[[str], str]:
    """`pattern.sub` of the longest-symbol-first alternation, replayed only
    where the range class finds a possible first character."""
    if not emoji_map:
        return _unchanged
    # longest symbol first so multi-codepoint sequences win over their prefixes
    pattern = re.compile(
        "|".join(re.escape(s) for s in sorted(emoji_map, key=len, reverse=True))
    )
    starts = _range_class({s[0] for s in emoji_map})

    def replace(text: str) -> str:
        found = starts.search(text)
        if found is None:
            return text
        out: list[str] = []
        pos = 0
        while found is not None:
            at = found.start()
            hit = pattern.match(text, at)
            if hit is None:
                found = starts.search(text, at + 1)
                continue
            out += (text[pos:at], f" {emoji_map[hit.group(0)]} ")
            pos = hit.end()
            found = starts.search(text, pos)
        out.append(text[pos:])
        return "".join(out)

    return replace


def _abbrev_expander(abbrev_map: dict[str, str]) -> Callable[[str], str]:
    """Replace each abbreviation that stands as a whole run: bounded on both
    sides by characters other than word characters and apostrophes (so "r"
    never fires inside "you're"), matched through `.lower()`. A run whose
    `.lower()` is no key stays as it is."""
    if not abbrev_map:
        return _unchanged
    folded = {k.lower(): v for k, v in abbrev_map.items()}
    get = folded.get
    if all(_RUN_RE.fullmatch(k) for k in folded):
        # keys that are whole runs themselves (every bundled key): a dict
        # lookup per run, which gives what the case-insensitive alternation
        # below gives on such keys (tests/test_preprocess.py checks both the
        # outputs and the Unicode case facts this rests on)
        def expand(text: str) -> str:
            parts = _RUN_RE.split(text)
            runs = parts[1::2]
            expanded = list(map(get, map(str.lower, runs), runs))
            if expanded == runs:
                return text
            parts[1::2] = expanded
            return "".join(parts)

        return expand
    alts = "|".join(re.escape(k) for k in sorted(folded, key=len, reverse=True))
    pattern = re.compile(rf"(?<![\w'’])(?:{alts})(?![\w'’])", re.IGNORECASE)
    return partial(pattern.sub, lambda m: get(m.group(0).lower(), m.group(0)))


@dataclass(frozen=True)
class PreprocessConfig:
    """Switches and resources for normalize(); immutable once built. The
    emoji and abbreviation patterns are compiled once, at construction."""

    lowercase: bool = True
    strip_punct: bool = True
    remove_stopwords: bool = True
    stem: bool = True
    emoji_map: dict[str, str] = field(default_factory=dict)
    abbrev_map: dict[str, str] = field(default_factory=dict)
    stopwords: frozenset[str] = frozenset()
    _replace_emoji: Callable[[str], str] = field(init=False, repr=False, compare=False)
    _expand_abbrev: Callable[[str], str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("emoji_map", "abbrev_map"):
            if "" in getattr(self, name):
                raise ValueError(f"{name} has an empty symbol")
        object.__setattr__(self, "_replace_emoji", _emoji_replacer(self.emoji_map))
        object.__setattr__(self, "_expand_abbrev", _abbrev_expander(self.abbrev_map))


# the PreprocessConfig settings an experiment config may switch on or off
PREPROCESS_SWITCHES = ("lowercase", "strip_punct", "remove_stopwords", "stem")


@dataclass(frozen=True)
class TokenStream:
    tokens: tuple[str, ...]
    original_length_chars: int

    def __iter__(self):
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


def default_config(**overrides) -> PreprocessConfig:
    """Config backed by the bundled stop-word, emoji, and abbreviation files."""
    base = dict(
        emoji_map=load_tsv_map(bundled="emoji_map.tsv"),
        abbrev_map=load_tsv_map(bundled="abbrev_map.tsv"),
        stopwords=load_stopwords(),
    )
    base.update(overrides)
    return PreprocessConfig(**base)


def normalize(text: str, cfg: PreprocessConfig) -> TokenStream:
    """Run the full pipeline over one text; empty input yields an empty stream."""
    original_len = len(text)
    text = cfg._expand_abbrev(cfg._replace_emoji(text))
    if cfg.lowercase:
        text = text.lower()

    tokens: list[str] = []
    if cfg.strip_punct:
        tokens = _WORD_RE.findall(text)
    else:
        for chunk in text.split():
            pos = 0
            for m in re.finditer(_WORD_RE, chunk):
                if m.start() > pos:
                    tokens.append(chunk[pos : m.start()])
                tokens.append(m.group(0))
                pos = m.end()
            if pos < len(chunk):
                tokens.append(chunk[pos:])

    if cfg.remove_stopwords:
        tokens = [t for t in tokens if t not in cfg.stopwords]
    if cfg.stem:
        tokens = [porter_stem(t) for t in tokens]
    return TokenStream(tuple(tokens), original_len)
