"""Feature extraction over token streams.

Four blocks: category-dictionary percentages (word count first), raw counts
for eight emotions, rule-based (neg, neu, pos) sentiment proportions, and
L2-normalized smooth-idf TF-IDF over unigrams. Blocks concatenate in a
fixed order with optional z-scoring of the dense part.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import DataError, FormatError, UsageError
from .preprocess import TokenStream
from .util import open_input

EMOTIONS = (
    "anger", "anticipation", "disgust", "fear",
    "joy", "sadness", "surprise", "trust",
)

SENTIMENT_NAMES = ("neg", "neu", "pos")

DEFAULT_NEGATION_FACTOR = -0.74
DEFAULT_BOOSTER_INCREMENT = 0.293

DEFAULT_NEGATORS = frozenset(
    {
        "not", "no", "never", "none", "neither", "nobody", "nothing",
        "cannot", "cant", "can't", "dont", "don't", "wont", "won't",
        "isnt", "isn't", "wasnt", "wasn't", "didnt", "didn't",
        "doesnt", "doesn't", "without", "hardly", "barely", "scarcely",
    }
)
DEFAULT_BOOSTERS = {
    word: DEFAULT_BOOSTER_INCREMENT
    for word in (
        "very", "really", "extremely", "absolutely", "so", "incredibly",
        "totally", "completely", "super", "utterly",
    )
}


# ---------------------------------------------------------------------------
# category dictionary (percent-delimited format)


def _category_matcher(
    categories: tuple[tuple[str, tuple[str, ...]], ...]
) -> Callable[[str], tuple[int, ...]]:
    """A token's category indexes, memoized with a bound, since a corpus
    repeats its tokens."""
    cats = tuple(
        (
            frozenset(p for p in pats if not p.endswith("*")),
            tuple(p[:-1] for p in pats if p.endswith("*")),
        )
        for _, pats in categories
    )

    @lru_cache(maxsize=1 << 14)
    def hits(tok: str) -> tuple[int, ...]:
        return tuple(
            i for i, (exact, prefixes) in enumerate(cats)
            if tok in exact or tok.startswith(prefixes)
        )

    return hits


@dataclass(frozen=True)
class CategoryLexicon:
    """Ordered categories of token patterns; `*` suffix means prefix match.
    The token matcher is built once, at construction, so scoring a text
    never walks or hashes the whole dictionary."""

    categories: tuple[tuple[str, tuple[str, ...]], ...]
    _hits: Callable[[str], tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hits", _category_matcher(self.categories))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.categories)


def load_category_lexicon(path: str) -> CategoryLexicon:
    """Parse a dictionary file: %-delimited id<TAB>name header, then
    word<TAB>id... entries."""
    with open_input(path, "category lexicon") as fh:
        lines = fh.read().splitlines()

    delims = [i for i, ln in enumerate(lines) if ln.strip() == "%"]
    if len(delims) < 2:
        raise FormatError(f"{path}: header must be enclosed by two % lines")
    start, end = delims[0], delims[1]

    names_by_id: dict[str, str] = {}
    order: list[str] = []
    for lineno in range(start + 1, end):
        line = lines[lineno].strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise FormatError(f"{path}:{lineno + 1}: expected id<TAB>name")
        cid, name = parts
        if cid in names_by_id:
            raise FormatError(f"{path}:{lineno + 1}: duplicate category id {cid}")
        if name in names_by_id.values():
            raise FormatError(f"{path}:{lineno + 1}: duplicate category name {name!r}")
        names_by_id[cid] = name
        order.append(cid)

    patterns: dict[str, list[str]] = {cid: [] for cid in order}
    for lineno in range(end + 1, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise FormatError(f"{path}:{lineno + 1}: expected word<TAB>id...")
        word = parts[0]
        if not word or word != word.lower():
            raise FormatError(f"{path}:{lineno + 1}: patterns must be non-empty lowercase")
        if "*" in word[:-1]:
            raise FormatError(f"{path}:{lineno + 1}: '*' is only valid as a suffix")
        for cid in parts[1:]:
            if cid not in patterns:
                raise FormatError(f"{path}:{lineno + 1}: unknown category id {cid}")
            patterns[cid].append(word)

    return CategoryLexicon(
        tuple((names_by_id[cid], tuple(patterns[cid])) for cid in order)
    )


def liwc_features(ts: TokenStream, lex: CategoryLexicon) -> np.ndarray:
    """Word count followed by percent-of-tokens scores per category."""
    n = len(ts.tokens)
    counts = np.bincount(
        [i for tok in ts.tokens for i in lex._hits(tok)], minlength=len(lex.categories)
    )
    return np.concatenate(([float(n)], 100.0 * counts / max(1, n)))


# ---------------------------------------------------------------------------
# emotion lexicon


@dataclass(frozen=True)
class EmotionLexicon:
    entries: dict[str, frozenset[str]]


def load_emotion_lexicon(path: str) -> EmotionLexicon:
    """Parse word<TAB>emotion<TAB>0|1 lines; rows outside the eight tracked
    emotions (e.g. polarity rows in association files) are skipped."""
    assoc: dict[str, set[str]] = {}
    with open_input(path, "emotion lexicon") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                raise FormatError(f"{path}:{lineno}: expected word<TAB>emotion<TAB>0|1")
            word, emotion, flag = parts
            if not word or word != word.lower():
                raise FormatError(f"{path}:{lineno}: words must be non-empty lowercase")
            if emotion not in EMOTIONS:
                continue
            if flag == "1":
                assoc.setdefault(word, set()).add(emotion)
    return EmotionLexicon({w: frozenset(es) for w, es in assoc.items()})


def emotion_features(ts: TokenStream, lex: EmotionLexicon) -> np.ndarray:
    """Raw per-emotion token counts in EMOTIONS order."""
    counts = np.zeros(len(EMOTIONS))
    index = {e: i for i, e in enumerate(EMOTIONS)}
    for tok in ts.tokens:
        for emotion in lex.entries.get(tok, ()):
            counts[index[emotion]] += 1
    return counts


# ---------------------------------------------------------------------------
# valence sentiment


@dataclass(frozen=True)
class ValenceLexicon:
    entries: dict[str, float]
    negators: frozenset[str] = DEFAULT_NEGATORS
    boosters: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_BOOSTERS))
    negation_factor: float = DEFAULT_NEGATION_FACTOR

    def __post_init__(self) -> None:
        for word, v in self.entries.items():
            if not math.isfinite(v) or abs(v) > 4:
                raise DataError(f"valence for {word!r} outside [-4, 4]: {v}")
        overlap = self.negators & self.boosters.keys()
        if overlap:
            raise DataError(f"negators and boosters overlap: {sorted(overlap)}")


def load_valence_lexicon(
    path: str,
    negators_path: str | None = None,
    boosters_path: str | None = None,
) -> ValenceLexicon:
    """word<TAB>valence entries; negators one per line; boosters one per
    line with an optional <TAB>increment (default 0.293)."""
    entries: dict[str, float] = {}
    with open_input(path, "valence lexicon") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected word<TAB>valence")
            try:
                valence = float(parts[1])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: bad valence {parts[1]!r}") from None
            entries[parts[0]] = valence

    negators = DEFAULT_NEGATORS
    if negators_path:
        with open_input(negators_path, "negators") as fh:
            negators = frozenset(w.strip() for w in fh if w.strip())

    boosters = dict(DEFAULT_BOOSTERS)
    if boosters_path:
        boosters = {}
        with open_input(boosters_path, "boosters") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) == 1:
                    boosters[parts[0]] = DEFAULT_BOOSTER_INCREMENT
                elif len(parts) == 2:
                    try:
                        boosters[parts[0]] = float(parts[1])
                    except ValueError:
                        raise FormatError(
                            f"{boosters_path}:{lineno}: bad increment {parts[1]!r}"
                        ) from None
                else:
                    raise FormatError(
                        f"{boosters_path}:{lineno}: expected word or word<TAB>increment"
                    )
    return ValenceLexicon(entries, negators, boosters)


def sentiment_scores(ts: TokenStream, lex: ValenceLexicon) -> tuple[float, float, float]:
    """(neg, neu, pos) proportions; an empty or valence-free stream scores
    fully neutral."""
    toks = ts.tokens
    pos_mass = neg_mass = 0.0
    neutral = 0
    for i, tok in enumerate(toks):
        if tok in lex.negators or tok in lex.boosters:
            continue
        v = lex.entries.get(tok, 0.0)
        if v == 0.0:
            neutral += 1
            continue
        if i > 0 and toks[i - 1] in lex.boosters:
            v += math.copysign(lex.boosters[toks[i - 1]], v)
        if any(t in lex.negators for t in toks[max(0, i - 3) : i]):
            v *= lex.negation_factor
        if v > 0:
            pos_mass += v + 1
        elif v < 0:
            neg_mass += -v + 1
    denom = pos_mass + neg_mass + neutral
    if denom == 0:
        return (0.0, 1.0, 0.0)
    return (neg_mass / denom, neutral / denom, pos_mass / denom)


# ---------------------------------------------------------------------------
# TF-IDF


@dataclass(frozen=True)
class TfidfVectorizer:
    vocabulary: dict[str, int]
    idf: np.ndarray
    min_df: int
    max_features: int


# what a TF-IDF fit applies for each setting a caller leaves out
TFIDF_DEFAULTS = {"min_df": 2, "max_features": 20000}


def fit_tfidf(
    corpus: Sequence[TokenStream],
    min_df: int = TFIDF_DEFAULTS["min_df"],
    max_features: int = TFIDF_DEFAULTS["max_features"],
) -> TfidfVectorizer:
    """Vocabulary of tokens with df >= min_df, capped to the max_features
    highest-df tokens (ties lexicographic), indexed lexicographically;
    idf = ln((1+N)/(1+df)) + 1."""
    if not corpus:
        raise DataError("cannot fit TF-IDF on an empty corpus")
    if min_df < 1 or max_features < 1:
        raise UsageError("min_df and max_features must be >= 1")
    df = Counter(tok for ts in corpus for tok in set(ts.tokens))
    kept = [t for t, c in df.items() if c >= min_df]
    if not kept:
        raise DataError(f"no token reaches min_df={min_df}; vocabulary is empty")
    kept.sort(key=lambda t: (-df[t], t))
    vocab_tokens = sorted(kept[:max_features])
    n_docs = len(corpus)
    idf = np.array([math.log((1 + n_docs) / (1 + df[t])) + 1 for t in vocab_tokens])
    return TfidfVectorizer({t: i for i, t in enumerate(vocab_tokens)}, idf, min_df, max_features)


def transform_tfidf_corpus(
    v: TfidfVectorizer, streams: Iterable[TokenStream]
) -> sparse.csr_matrix:
    """Count x idf per document, L2-normalized; all-zero rows stay zero."""
    indptr = [0]
    indices: list[int] = []
    rows_data: list[np.ndarray] = [np.empty(0)]  # so no rows concatenate too
    for ts in streams:
        counts: dict[int, int] = {}
        for tok in ts.tokens:
            j = v.vocabulary.get(tok)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        cols = sorted(counts)
        vals = np.array([counts[j] * v.idf[j] for j in cols])
        norm = np.linalg.norm(vals)
        if norm > 0:
            vals = vals / norm
        indices.extend(cols)
        rows_data.append(vals)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.concatenate(rows_data), indices, indptr),
        shape=(len(indptr) - 1, len(v.vocabulary)),
    )


def transform_tfidf(v: TfidfVectorizer, ts: TokenStream) -> sparse.csr_matrix:
    return transform_tfidf_corpus(v, [ts])


# ---------------------------------------------------------------------------
# block combination


DENSE_BLOCKS = ("liwc", "emotion", "sentiment")
BLOCK_ORDER = DENSE_BLOCKS + ("tfidf",)


@dataclass(frozen=True)
class Scaler:
    mean: np.ndarray
    std: np.ndarray


def fit_feature_scaler(dense: np.ndarray) -> Scaler:
    return Scaler(dense.mean(axis=0), dense.std(axis=0))


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense block columns plus an optional sparse TF-IDF block, with a
    layout naming each active block and its width."""

    dense: np.ndarray
    tfidf: sparse.csr_matrix | None
    layout: tuple[tuple[str, int], ...]

    @property
    def n_rows(self) -> int:
        return self.dense.shape[0]


# the values of a config's `scaling`; zscore standardizes the dense columns
SCALINGS = ("none", "zscore")


def combine_features(
    blocks: Sequence[tuple[str, object]],
    scaling: str = "none",
    fit_stats: Scaler | None = None,
) -> FeatureMatrix:
    """Concatenate blocks in the fixed order liwc, emotion, sentiment,
    tfidf; z-score dense columns when requested (constant columns pass
    through unchanged). The TF-IDF block is never scaled."""
    if scaling not in SCALINGS:
        raise UsageError(f"unknown scaling {scaling!r}")
    by_name = dict(blocks)
    if len(by_name) != len(blocks):
        raise UsageError("duplicate feature block names")
    unknown = set(by_name) - set(BLOCK_ORDER)
    if unknown:
        raise UsageError(f"unknown feature blocks: {sorted(unknown)}")
    if not by_name:
        raise UsageError("at least one feature block is required")

    n_rows = None
    for name, mat in by_name.items():
        rows = mat.shape[0]
        if n_rows is None:
            n_rows = rows
        elif rows != n_rows:
            raise UsageError("feature blocks disagree on row count")

    dense_parts = []
    layout = []
    for name in DENSE_BLOCKS:
        if name in by_name:
            part = np.asarray(by_name[name], dtype=float)
            dense_parts.append(part)
            layout.append((name, part.shape[1]))
    dense = np.hstack(dense_parts) if dense_parts else np.empty((n_rows, 0))

    if scaling == "zscore" and dense.shape[1]:
        if fit_stats is None:
            raise UsageError("zscore scaling requires fitted statistics")
        if fit_stats.mean.shape[0] != dense.shape[1]:
            raise UsageError("scaler statistics do not match the dense layout")
        dense = dense.copy()
        nonconstant = fit_stats.std > 0
        dense[:, nonconstant] = (
            dense[:, nonconstant] - fit_stats.mean[nonconstant]
        ) / fit_stats.std[nonconstant]

    tfidf = by_name.get("tfidf")
    if tfidf is not None:
        if not isinstance(tfidf, sparse.csr_matrix):
            tfidf = sparse.csr_matrix(tfidf)
        layout.append(("tfidf", tfidf.shape[1]))
    return FeatureMatrix(dense, tfidf, tuple(layout))
