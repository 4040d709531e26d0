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


def _emoji_replacer(emoji_map: dict[str, str]) -> Callable[[str], str]:
    if not emoji_map:
        return _unchanged
    # longest symbol first so multi-codepoint sequences win over their prefixes
    pattern = re.compile(
        "|".join(re.escape(s) for s in sorted(emoji_map, key=len, reverse=True))
    )
    return partial(pattern.sub, lambda m: f" {emoji_map[m.group(0)]} ")


def _abbrev_expander(abbrev_map: dict[str, str]) -> Callable[[str], str]:
    if not abbrev_map:
        return _unchanged
    folded = {k.lower(): v for k, v in abbrev_map.items()}
    alts = "|".join(re.escape(k) for k in sorted(folded, key=len, reverse=True))
    # apostrophes count as word-internal, so "r" never fires inside "you're"
    pattern = re.compile(rf"(?<![\w'’])(?:{alts})(?![\w'’])", re.IGNORECASE)
    return partial(pattern.sub, lambda m: folded[m.group(0).lower()])


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
        object.__setattr__(self, "_replace_emoji", _emoji_replacer(self.emoji_map))
        object.__setattr__(self, "_expand_abbrev", _abbrev_expander(self.abbrev_map))


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
