"""Feature extraction over token sequences.

Four blocks: category-dictionary percentages (word count first), raw counts
for eight emotions, rule-based (neg, neu, pos) sentiment proportions, and
L2-normalized smooth-idf TF-IDF over unigrams. Blocks concatenate in a
fixed order with optional z-scoring of the dense part, by a shift and a
scale that each scaler makes once. The TF-IDF CSR is built from index
arrays already in the dtype scipy would pick (`index_dtype`), so its
constructor neither converts nor scans them.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import DataError, FormatError, UsageError
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


def liwc_features(tokens: Sequence[str], lex: CategoryLexicon) -> np.ndarray:
    """Word count followed by percent-of-tokens scores per category."""
    counts = [0] * len(lex.categories)
    hits = lex._hits
    for tok in tokens:
        for i in hits(tok):
            counts[i] += 1
    n = len(tokens)
    denom = max(1, n)
    return np.array([float(n)] + [100.0 * c / denom for c in counts])


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


# each emotion's column in an emotion row
_EMOTION_INDEX = {e: i for i, e in enumerate(EMOTIONS)}


def emotion_features(tokens: Sequence[str], lex: EmotionLexicon) -> np.ndarray:
    """Raw per-emotion token counts in EMOTIONS order."""
    counts = [0] * len(EMOTIONS)
    entries = lex.entries
    for tok in tokens:
        emotions = entries.get(tok)
        if emotions:
            for emotion in emotions:
                counts[_EMOTION_INDEX[emotion]] += 1
    return np.array(counts, dtype=float)


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
        for word, inc in self.boosters.items():
            if not math.isfinite(inc):
                raise DataError(f"booster increment for {word!r} is not finite: {inc}")
        if not math.isfinite(self.negation_factor):
            raise DataError(f"negation factor is not finite: {self.negation_factor}")
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
            if not abs(valence) <= 4:  # NaN fails this too
                raise FormatError(f"{path}:{lineno}: valence {parts[1]!r} outside [-4, 4]")
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
                        if not math.isfinite(boosters[parts[0]]):
                            raise ValueError
                    except ValueError:
                        raise FormatError(
                            f"{boosters_path}:{lineno}: bad increment {parts[1]!r}"
                        ) from None
                else:
                    raise FormatError(
                        f"{boosters_path}:{lineno}: expected word or word<TAB>increment"
                    )
    return ValenceLexicon(entries, negators, boosters)


def sentiment_scores(
    tokens: Sequence[str], lex: ValenceLexicon
) -> tuple[float, float, float]:
    """(neg, neu, pos) proportions; an empty or valence-free text scores
    fully neutral. A valence word takes the increment of a booster just
    before it, in the direction of its sign, then the negation factor when
    a negator is among the three tokens before it."""
    negators, boosters, entries = lex.negators, lex.boosters, lex.entries
    pos_mass = neg_mass = 0.0
    neutral = 0
    last_negator = -4  # the latest negator's position; -4 is none in reach
    prev = None
    for i, tok in enumerate(tokens):
        if tok in negators:
            last_negator = i
        elif tok not in boosters:
            v = entries.get(tok, 0.0)
            if v == 0.0:
                neutral += 1
            else:
                if prev in boosters:
                    v += math.copysign(boosters[prev], v)
                if last_negator >= i - 3:
                    v *= lex.negation_factor
                if v > 0:
                    pos_mass += v + 1
                elif v < 0:
                    neg_mass += -v + 1
        prev = tok
    denom = pos_mass + neg_mass + neutral
    if denom == 0:
        return (0.0, 1.0, 0.0)
    return (neg_mass / denom, neutral / denom, pos_mass / denom)


# ---------------------------------------------------------------------------
# TF-IDF


@dataclass(frozen=True)
class TfidfVectorizer:
    """A fitted vocabulary and its idf weights. The weights are also kept
    as a list of Python floats, made once, so that transforming one text
    never converts the whole vector."""

    vocabulary: dict[str, int]
    idf: np.ndarray
    min_df: int
    max_features: int
    _idf: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_idf", self.idf.tolist())


# what a TF-IDF fit applies for each setting a caller leaves out
TFIDF_DEFAULTS = {"min_df": 2, "max_features": 20000}


def fit_tfidf(
    corpus: Sequence[Sequence[str]],
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
    df = Counter(tok for tokens in corpus for tok in set(tokens))
    kept = [t for t, c in df.items() if c >= min_df]
    if not kept:
        raise DataError(f"no token reaches min_df={min_df}; vocabulary is empty")
    kept.sort(key=lambda t: (-df[t], t))
    vocab_tokens = sorted(kept[:max_features])
    n_docs = len(corpus)
    idf = np.array([math.log((1 + n_docs) / (1 + df[t])) + 1 for t in vocab_tokens])
    return TfidfVectorizer({t: i for i, t in enumerate(vocab_tokens)}, idf, min_df, max_features)


# read once: np.iinfo builds an object on every call
_INT32_MAX = int(np.iinfo(np.int32).max)


def index_dtype(*bounds: int) -> type:
    """The index dtype of a CSR matrix whose dimensions and stored-entry
    count are `bounds`: int32 wherever every bound fits in it, else int64,
    which is what scipy's CSR constructor ends with, from Python lists or
    from `sparse.hstack` alike. Built in that dtype, the constructor takes
    the index arrays as they are instead of scanning or converting them."""
    return np.int32 if max(bounds, default=0) <= _INT32_MAX else np.int64


def transform_tfidf_corpus(
    v: TfidfVectorizer, corpus: Iterable[Sequence[str]]
) -> sparse.csr_matrix:
    """Count x idf per document, L2-normalized; all-zero rows stay zero.
    A row's norm is `math.sqrt(a.dot(a))` of its own entries, as
    `np.linalg.norm` takes it, and a row whose norm is not positive (zero,
    or NaN from a non-finite idf) is left undivided. The CSR is built from
    typed index arrays (`index_dtype`), and its arrays equal, bytes and
    dtypes alike, those that `csr_matrix((data, indices, indptr))` makes
    of Python lists."""
    vocabulary, idf = v.vocabulary, v._idf
    indptr = [0]
    indices: list[int] = []
    values = array("d")  # 8 bytes an entry, where a list of floats holds 32
    for tokens in corpus:
        counts: dict[int, int] = {}
        for tok in tokens:
            j = vocabulary.get(tok)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        cols = sorted(counts)
        indices += cols
        values.extend([counts[j] * idf[j] for j in cols])
        indptr.append(len(indices))
    data = np.array(values, dtype=float)
    for start, end in zip(indptr, indptr[1:]):
        row = data[start:end]
        norm = math.sqrt(row.dot(row))
        if norm > 0:
            row /= norm
    shape = (len(indptr) - 1, len(vocabulary))
    idx = index_dtype(*shape, len(indices))
    return sparse.csr_matrix(
        (data, np.array(indices, dtype=idx), np.array(indptr, dtype=idx)), shape=shape
    )


def transform_tfidf(v: TfidfVectorizer, tokens: Sequence[str]) -> sparse.csr_matrix:
    return transform_tfidf_corpus(v, [tokens])


# ---------------------------------------------------------------------------
# block combination


DENSE_BLOCKS = ("liwc", "emotion", "sentiment")
BLOCK_ORDER = DENSE_BLOCKS + ("tfidf",)


@dataclass(frozen=True)
class Scaler:
    mean: np.ndarray
    std: np.ndarray

    @cached_property
    def shift_scale(self) -> tuple[np.ndarray, np.ndarray]:
        """What standardizing subtracts and divides by, made once: (mean,
        std) for a column with std > 0, and (0.0, 1.0), under which x
        passes bit for bit, for a constant one."""
        nonconstant = self.std > 0
        return np.where(nonconstant, self.mean, 0.0), np.where(nonconstant, self.std, 1.0)


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
    through unchanged). The TF-IDF block is never scaled. The dense
    columns are one new array, standardized in place."""
    if scaling not in SCALINGS:
        raise UsageError(f"unknown scaling {scaling!r}")
    by_name = dict(blocks)
    if len(by_name) != len(blocks):
        raise UsageError("duplicate feature block names")
    unknown = by_name.keys() - BLOCK_ORDER
    if unknown:
        raise UsageError(f"unknown feature blocks: {sorted(unknown)}")
    if not by_name:
        raise UsageError("at least one feature block is required")
    row_counts = {mat.shape[0] for mat in by_name.values()}
    if len(row_counts) != 1:
        raise UsageError("feature blocks disagree on row count")

    dense_parts = []
    layout = []
    for name in DENSE_BLOCKS:
        if name in by_name:
            part = np.asarray(by_name[name], dtype=float)
            dense_parts.append(part)
            layout.append((name, part.shape[1]))
    dense = (
        np.concatenate(dense_parts, axis=1) if dense_parts
        else np.empty((row_counts.pop(), 0))
    )

    if scaling == "zscore" and dense.shape[1]:
        if fit_stats is None:
            raise UsageError("zscore scaling requires fitted statistics")
        if fit_stats.mean.shape[0] != dense.shape[1]:
            raise UsageError("scaler statistics do not match the dense layout")
        shift, scale = fit_stats.shift_scale
        dense -= shift
        dense /= scale

    tfidf = by_name.get("tfidf")
    if tfidf is not None:
        if not isinstance(tfidf, sparse.csr_matrix):
            tfidf = sparse.csr_matrix(tfidf)
        layout.append(("tfidf", tfidf.shape[1]))
    return FeatureMatrix(dense, tfidf, tuple(layout))
