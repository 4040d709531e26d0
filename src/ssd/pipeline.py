"""Experiment configuration and the fitted text-to-label pipeline.

A pipeline bundles the preprocessing config, the lexicons it was fitted
with (embedded plus fingerprinted), the TF-IDF vectorizer and optional
dense-feature scaler, and one trained model. Fitting touches training
texts only; transforming never mutates fitted state.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy import sparse

from . import models as M
from .corpus import SUBTASKS
from .errors import FormatError, UsageError
from .features import (
    BLOCK_ORDER,
    EMOTIONS,
    SCALINGS,
    SENTIMENT_NAMES,
    CategoryLexicon,
    EmotionLexicon,
    FeatureMatrix,
    TFIDF_DEFAULTS,
    Scaler,
    TfidfVectorizer,
    ValenceLexicon,
    combine_features,
    emotion_features,
    fit_feature_scaler,
    fit_tfidf,
    index_dtype,
    liwc_features,
    load_category_lexicon,
    load_emotion_lexicon,
    load_valence_lexicon,
    sentiment_scores,
    transform_tfidf_corpus,
)
from .preprocess import (
    PREPROCESS_SWITCHES,
    PreprocessConfig,
    default_config,
    normalize,
)
from .util import (
    check_envelope,
    derive_seed,
    fingerprint,
    read_envelope,
    read_section,
    write_envelope,
)

PIPELINE_FORMAT = "ssd-pipeline-v1"

BASE_FAMILIES = tuple(M.FAMILIES)
VOTE_KINDS = tuple(M.VOTERS)
MODEL_NAMES = BASE_FAMILIES + VOTE_KINDS


def class_order(labels: Sequence[str], subtask: int) -> tuple[str, ...]:
    """The subtask's canonical label order when the observed labels fit it."""
    observed = set(labels)
    canon = SUBTASKS[subtask].labels
    if observed <= set(canon):
        return tuple(c for c in canon if c in observed)
    return tuple(sorted(observed))


@dataclass(frozen=True)
class LexiconBlock:
    """A lexicon-backed feature block: the lexicon it reads, and how that
    lexicon is loaded, applied, named, saved and profiled."""

    key: str  # config `lexicons` key, `profile` flag and LexiconSet field
    loader: Callable  # takes the `key` path, then each `extra_paths` path or None
    extractor: str  # the per-text function's name in this module
    columns: Callable[[object], tuple[str, ...]]
    to_json: Callable[[object], dict]  # the form embedded in saved files
    from_json: Callable[[dict], object]
    title: str  # the block's table heading in `profile`
    extra_paths: tuple[str, ...] = ()


# in features.DENSE_BLOCKS order, the order the blocks' columns take
LEXICON_BLOCKS = {
    "liwc": LexiconBlock(
        key="category",
        loader=load_category_lexicon,
        extractor="liwc_features",
        columns=lambda lex: ("WC",) + lex.names,
        to_json=lambda lex: {"categories": [[n, list(p)] for n, p in lex.categories]},
        from_json=lambda raw: CategoryLexicon(
            tuple((name, tuple(pats)) for name, pats in raw["categories"])
        ),
        title="Category features (mean per label)",
    ),
    "emotion": LexiconBlock(
        key="emotion",
        loader=load_emotion_lexicon,
        extractor="emotion_features",
        columns=lambda lex: EMOTIONS,
        to_json=lambda lex: {"entries": {w: sorted(es) for w, es in lex.entries.items()}},
        from_json=lambda raw: EmotionLexicon(
            {w: frozenset(es) for w, es in raw["entries"].items()}
        ),
        title="Emotion counts (mean per label)",
    ),
    "sentiment": LexiconBlock(
        key="valence",
        loader=load_valence_lexicon,
        extractor="sentiment_scores",
        columns=lambda lex: SENTIMENT_NAMES,
        to_json=lambda lex: {
            "entries": dict(sorted(lex.entries.items())),
            "negators": sorted(lex.negators),
            "boosters": dict(sorted(lex.boosters.items())),
            "negation_factor": lex.negation_factor,
        },
        from_json=lambda raw: ValenceLexicon(
            dict(raw["entries"]), frozenset(raw["negators"]),
            dict(raw["boosters"]), raw["negation_factor"],
        ),
        title="Sentiment proportions (mean per label)",
        extra_paths=("negators", "boosters"),
    ),
}

# every path a config's `lexicons` object or `profile`'s flags may name
LEXICON_PATH_KEYS = tuple(
    k for row in LEXICON_BLOCKS.values() for k in (row.key, *row.extra_paths)
)


@dataclass(frozen=True)
class LexiconSet:
    category: CategoryLexicon | None = None
    emotion: EmotionLexicon | None = None
    valence: ValenceLexicon | None = None

    def present(self) -> Iterator[tuple[str, LexiconBlock, object]]:
        """(block, row, lexicon) for each lexicon the set holds."""
        for block, row in LEXICON_BLOCKS.items():
            lex = getattr(self, row.key)
            if lex is not None:
                yield block, row, lex

    def fingerprints(self) -> dict[str, str]:
        return {row.key: fingerprint(row.to_json(lex)) for _, row, lex in self.present()}


@dataclass(frozen=True)
class ExperimentConfig:
    """One run of the experiment grid. Construction checks every field
    against its type hint and its allowed values, so library callers,
    `dataclasses.replace` and `config_from_dict` meet the same
    UsageErrors; lists of names become tuples."""

    dataset: str
    subtask: int
    features: tuple[str, ...] = ("tfidf",)
    scaling: str = "none"
    models: tuple[str, ...] = ("lr",)
    folds: int = 5
    seed: int = 0
    lexicon_paths: dict[str, str] = field(default_factory=dict)
    output_dir: str | None = None
    ensemble_members: tuple[str, ...] | None = None
    hyperparameters: dict[str, dict] = field(default_factory=dict)
    preprocess_overrides: dict[str, bool] = field(default_factory=dict)
    tfidf_params: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for fld in fields(self):
            key = _CONFIG_KEY.get(fld.name, fld.name)
            object.__setattr__(
                self, fld.name, _as_hinted(key, fld.type, getattr(self, fld.name))
            )
        if self.subtask not in SUBTASKS:
            raise UsageError(
                f"subtask must be one of {list(SUBTASKS)}, got {self.subtask}"
            )
        if not self.features:
            raise UsageError("at least one feature block is required")
        if self.scaling not in SCALINGS:
            raise UsageError(f"unknown scaling {self.scaling!r}")
        if not self.models:
            raise UsageError("at least one model is required")
        if self.folds < 2:
            raise UsageError(f"folds must be >= 2, got {self.folds}")
        for name, known in (
            ("features", BLOCK_ORDER), ("models", MODEL_NAMES),
            ("ensemble_members", BASE_FAMILIES), ("lexicon_paths", LEXICON_PATH_KEYS),
            ("hyperparameters", BASE_FAMILIES),
            ("preprocess_overrides", PREPROCESS_SWITCHES), ("tfidf_params", TFIDF_DEFAULTS),
        ):
            unknown = set(getattr(self, name) or ()) - set(known)
            if unknown:
                raise UsageError(
                    f"config key {_CONFIG_KEY.get(name, name)!r} holds "
                    f"{sorted(unknown)}, not among {list(known)}"
                )
        for block, row in LEXICON_BLOCKS.items():
            if block in self.features and row.key not in self.lexicon_paths:
                raise UsageError(
                    f"feature block {block!r} requires a {row.key!r} lexicon path"
                )
        for family, params in self.hyperparameters.items():
            M.ModelSpec(family, params)  # checks each setting
        for key, value in self.tfidf_params.items():
            if value < 1:
                raise UsageError(f"tfidf {key} must be an integer >= 1, got {value!r}")

    def base_members(self) -> tuple[str, ...]:
        if self.ensemble_members is not None:
            return self.ensemble_members
        listed = tuple(m for m in self.models if m in BASE_FAMILIES)
        return listed or BASE_FAMILIES


# the type each ExperimentConfig type hint admits, and its JSON name in messages
_HINT_TYPES = {"str": (str, "a string"), "int": (int, "an integer"),
               "bool": (bool, "true or false"), "dict": (dict, "an object")}


def _as_hinted(key: str, hint: str, value):
    """`value` as a field with type hint `hint` holds it, where a list of
    names becomes a tuple; a value of another type is a UsageError that
    names config key `key`."""
    if hint.endswith(" | None"):
        if value is None:
            return None
        hint = hint.removesuffix(" | None")
    if hint == "tuple[str, ...]":
        # a bare string is no list: tuple("lr") would split it into letters
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise UsageError(f"config key {key!r} must be a list of names, got {value!r}")
        return tuple(value)
    if hint.startswith("dict[str, "):
        for k, v in _as_hinted(key, "dict", value).items():
            _as_hinted(f"{key}.{k}", hint.removeprefix("dict[str, ")[:-1], v)
        return value
    kind, what = _HINT_TYPES[hint]
    # bool is an int to isinstance, but `true` is no count
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise UsageError(f"config key {key!r} must be {what}, got {value!r}")
    return value


# the config key of each ExperimentConfig field that a config names otherwise
_CONFIG_KEY = {"lexicon_paths": "lexicons", "preprocess_overrides": "preprocess",
               "tfidf_params": "tfidf"}

# each key an experiment config may hold -> the ExperimentConfig field it sets
CONFIG_FIELDS = {_CONFIG_KEY.get(f.name, f.name): f for f in fields(ExperimentConfig)}


def config_from_dict(raw: dict, base_dir: str = ".") -> ExperimentConfig:
    """The ExperimentConfig a config object describes, with its relative
    paths resolved against `base_dir`."""
    if not isinstance(raw, dict):
        raise UsageError("experiment config must be a JSON object")
    unknown = set(raw) - set(CONFIG_FIELDS)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, f in CONFIG_FIELDS.items():
        if f.default is MISSING and f.default_factory is MISSING and key not in raw:
            raise UsageError(f"config is missing required key {key!r}")

    def _path(p):
        # a value of another type passes through for ExperimentConfig to name
        return os.path.normpath(os.path.join(base_dir, p)) if isinstance(p, str) else p

    kwargs = {CONFIG_FIELDS[key].name: value for key, value in raw.items()}
    for name in ("dataset", "output_dir"):
        if name in kwargs:
            kwargs[name] = _path(kwargs[name])
    if isinstance(kwargs.get("lexicon_paths"), dict):
        kwargs["lexicon_paths"] = {k: _path(v) for k, v in kwargs["lexicon_paths"].items()}
    return ExperimentConfig(**kwargs)


def load_experiment_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except OSError as exc:
        raise UsageError(f"cannot open config file {path}: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise UsageError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def load_lexicons(cfg: ExperimentConfig) -> LexiconSet:
    return lexicons_from_paths(cfg.lexicon_paths, cfg.features)


def lexicons_from_paths(paths: dict, features: Sequence[str]) -> LexiconSet:
    """The lexicon of each listed block, loaded from its `paths` entries."""
    return LexiconSet(**{
        row.key: row.loader(paths[row.key], *(paths.get(k) for k in row.extra_paths))
        for block, row in LEXICON_BLOCKS.items() if block in features
    })


def preprocess_config(cfg: ExperimentConfig) -> PreprocessConfig:
    return default_config(**cfg.preprocess_overrides)


# ---------------------------------------------------------------------------
# feature assembly


def extract_dense_blocks(
    corpus: Sequence[Sequence[str]], features: Sequence[str], lex: LexiconSet
) -> list[tuple[str, np.ndarray]]:
    blocks: list[tuple[str, np.ndarray]] = []
    for block, row in LEXICON_BLOCKS.items():
        if block in features:
            lexicon = getattr(lex, row.key)
            # looked up at call time, since perfbench/spans.py wraps this name here
            extract = globals()[row.extractor]
            rows = np.array([extract(tokens, lexicon) for tokens in corpus], dtype=float)
            width = len(row.columns(lexicon))
            blocks.append((block, rows.reshape(len(corpus), width)))
    return blocks


def matrix_for_family(fm: FeatureMatrix):
    """The one matrix every model family is handed: the dense blocks
    stacked with the sparse TF-IDF block, built as one CSR in a single
    construction. Each row holds its nonzero dense entries, then its
    TF-IDF entries shifted by the dense width; the arrays equal, bytes and
    dtypes alike, those of `sparse.hstack([csr_matrix(dense), tfidf])`,
    with indices in `index_dtype`. Each family's own form of it is made in
    `models`. (perfbench/spans.py wraps this name.)"""
    dense, tfidf = fm.dense, fm.tfidf
    if tfidf is None:
        return dense
    n, width = dense.shape
    if width == 0:
        return tfidf
    rows, cols = np.nonzero(dense)
    nnz = rows.size + tfidf.nnz
    shape = (n, width + tfidf.shape[1])
    idx = index_dtype(*shape, nnz)
    # a dense entry moves past the TF-IDF entries of the rows before it and
    # the dense entries before it; every other place takes a TF-IDF entry
    at_dense = tfidf.indptr[rows] + np.arange(rows.size)
    at_tfidf = np.ones(nnz, dtype=bool)
    at_tfidf[at_dense] = False
    data = np.empty(nnz, dtype=np.promote_types(dense.dtype, tfidf.dtype))
    data[at_dense] = dense[rows, cols]
    data[at_tfidf] = tfidf.data
    indices = np.empty(nnz, dtype=idx)
    indices[at_dense] = cols
    indices[at_tfidf] = tfidf.indices + width
    # the rows are in order, so a row's dense entries start where the
    # sorted row numbers reach it
    indptr = np.add(tfidf.indptr, rows.searchsorted(np.arange(n + 1)), dtype=idx)
    return sparse.csr_matrix((data, indices, indptr), shape=shape)


# ---------------------------------------------------------------------------
# fitted pipeline


@dataclass(frozen=True)
class FittedPipeline:
    subtask: int
    preprocess: PreprocessConfig
    features: tuple[str, ...]
    lexicons: LexiconSet
    tfidf: TfidfVectorizer | None
    scaling: str
    scaler: Scaler | None
    model: object  # TrainedModel | VotingModel
    classes: tuple[str, ...]

    def lexicon_fingerprints(self) -> dict[str, str]:
        return self.lexicons.fingerprints()


@dataclass(frozen=True)
class TextBatch:
    """Texts normalized under one preprocess config, with the raw rows of
    each lexicon block a feature list names, extracted with one lexicon
    set. A dense row is a function of its own text alone, so `take(rows)`
    holds the same arrays that extracting those texts anew would give; the
    stages of a cascade and the folds of `cv` take their rows of one batch,
    so each text is normalized and featurized once per call."""

    tokens: Sequence[tuple[str, ...]]  # each text's normalize() result
    blocks: list[tuple[str, np.ndarray]]  # extract_dense_blocks' result

    def __len__(self) -> int:
        return len(self.tokens)

    def take(self, rows: Sequence[int]) -> TextBatch:
        """The batch of the texts at positions `rows`, in that order; every
        row in order is this batch itself, not a copy of its arrays."""
        if list(rows) == list(range(len(self))):
            return self
        return TextBatch(
            [self.tokens[i] for i in rows],
            [(block, matrix[rows]) for block, matrix in self.blocks],
        )


def text_batch(
    texts: Sequence[str] | TextBatch,
    pc: PreprocessConfig,
    features: Sequence[str],
    lex: LexiconSet,
) -> TextBatch:
    """Each text normalized under `pc` and featurized with `lex`. A
    TextBatch passes through as texts already made so under the same
    config, features and lexicons. (perfbench/spans.py wraps `normalize`
    in this module.)"""
    if isinstance(texts, TextBatch):
        return texts
    tokens = [normalize(t, pc) for t in texts]
    return TextBatch(tokens, extract_dense_blocks(tokens, features, lex))


def _feature_matrix(
    batch: TextBatch,
    tfidf: TfidfVectorizer | None,
    scaling: str,
    scaler: Scaler | None,
) -> FeatureMatrix:
    blocks = list(batch.blocks)
    if tfidf is not None:
        blocks.append(("tfidf", transform_tfidf_corpus(tfidf, batch.tokens)))
    return combine_features(blocks, scaling=scaling, fit_stats=scaler)


def fit_features(
    batch: TextBatch, cfg: ExperimentConfig
) -> tuple[TfidfVectorizer | None, Scaler | None, FeatureMatrix]:
    """Fit the vectorizer and scaler on a training batch and return them
    with the training matrix."""
    tfidf = None
    if "tfidf" in cfg.features:
        tfidf = fit_tfidf(batch.tokens, **cfg.tfidf_params)
    scaler = None
    if cfg.scaling == "zscore":
        dense = (
            np.hstack([b for _, b in batch.blocks]) if batch.blocks
            else np.empty((len(batch), 0))
        )
        scaler = fit_feature_scaler(dense)
    return tfidf, scaler, _feature_matrix(batch, tfidf, cfg.scaling, scaler)


def fit_models(
    fm: FeatureMatrix,
    y: Sequence[str],
    cfg: ExperimentConfig,
    classes: Sequence[str],
    fold_tag: tuple = (),
    timing: dict | None = None,
) -> dict[str, object]:
    """Train every configured model (voting ensembles reuse base fits).
    When given, `timing` receives each base family's training seconds
    under `train_<family>`."""
    needed = set(m for m in cfg.models if m in BASE_FAMILIES)
    if any(m in VOTE_KINDS for m in cfg.models):
        needed.update(cfg.base_members())
    X = matrix_for_family(fm)
    base: dict[str, object] = {}
    for family in sorted(needed):
        t0 = time.perf_counter()
        spec = M.ModelSpec(
            family,
            dict(cfg.hyperparameters.get(family, {})),
            derive_seed(cfg.seed, "model", family, *fold_tag),
        )
        trainer = getattr(M, f"train_{family}")
        base[family] = trainer(X, y, spec, classes=classes)
        if timing is not None:
            timing[f"train_{family}"] = time.perf_counter() - t0
    out: dict[str, object] = {}
    for name in cfg.models:
        if name in BASE_FAMILIES:
            out[name] = base[name]
        else:
            members = [base[m] for m in cfg.base_members()]
            out[name] = M.make_voting(M.VOTERS[name], members)
    return out


def fit_pipeline(
    texts: Sequence[str] | TextBatch,
    labels: Sequence[str],
    cfg: ExperimentConfig,
    model_name: str | None = None,
    lexicons: LexiconSet | None = None,
    pcfg: PreprocessConfig | None = None,
    fold_tag: tuple = (),
) -> FittedPipeline:
    """Fit one pipeline end to end on the given training texts, or on
    their batch made under `pcfg`, `cfg.features` and `lexicons`."""
    if model_name is None:
        model_name = cfg.models[0]
    lex = lexicons if lexicons is not None else load_lexicons(cfg)
    pc = pcfg if pcfg is not None else preprocess_config(cfg)
    tfidf, scaler, fm = fit_features(text_batch(texts, pc, cfg.features, lex), cfg)
    classes = class_order(labels, cfg.subtask)
    # a voter keeps the base models the full config lists as its members
    single_cfg = replace(
        cfg, models=(model_name,), ensemble_members=cfg.base_members()
    )
    model = fit_models(fm, labels, single_cfg, classes, fold_tag)[model_name]
    return FittedPipeline(
        cfg.subtask, pc, cfg.features, lex, tfidf, cfg.scaling, scaler, model,
        classes,
    )


def pipeline_matrix(
    p: FittedPipeline, texts: Sequence[str] | TextBatch
) -> FeatureMatrix:
    batch = text_batch(texts, p.preprocess, p.features, p.lexicons)
    return _feature_matrix(batch, p.tfidf, p.scaling, p.scaler)


def score(model, fm: FeatureMatrix) -> tuple[list[str], np.ndarray]:
    """Labels and probabilities of a trained model from one scoring pass."""
    proba = M.predict_proba(model, matrix_for_family(fm))
    return M.labels_from_proba(model, proba), proba


def predict_pipeline(
    p: FittedPipeline, texts: Sequence[str] | TextBatch
) -> tuple[list[str], np.ndarray]:
    return score(p.model, pipeline_matrix(p, texts))


# ---------------------------------------------------------------------------
# serialization


def _preprocess_to_jsonable(pc: PreprocessConfig) -> dict:
    return {
        **{k: getattr(pc, k) for k in PREPROCESS_SWITCHES},
        "emoji_map": dict(sorted(pc.emoji_map.items())),
        "abbrev_map": dict(sorted(pc.abbrev_map.items())),
        "stopwords": sorted(pc.stopwords),
    }


def _preprocess_from_jsonable(raw: dict) -> PreprocessConfig:
    return PreprocessConfig(
        **{k: raw[k] for k in PREPROCESS_SWITCHES},
        emoji_map=dict(raw["emoji_map"]),
        abbrev_map=dict(raw["abbrev_map"]),
        stopwords=frozenset(raw["stopwords"]),
    )


def pipeline_to_envelope(p: FittedPipeline) -> dict:
    tfidf = None
    if p.tfidf is not None:
        tfidf = {
            "vocabulary": p.tfidf.vocabulary,
            "idf": list(p.tfidf.idf),
            "min_df": p.tfidf.min_df,
            "max_features": p.tfidf.max_features,
        }
    scaler = None
    if p.scaler is not None:
        scaler = {"mean": list(p.scaler.mean), "std": list(p.scaler.std)}
    return {
        "format": PIPELINE_FORMAT,
        "subtask": p.subtask,
        "preprocess": _preprocess_to_jsonable(p.preprocess),
        "features": list(p.features),
        "lexicons": {row.key: row.to_json(lex) for _, row, lex in p.lexicons.present()},
        "lexicon_fingerprints": p.lexicon_fingerprints(),
        "tfidf": tfidf,
        "scaling": p.scaling,
        "scaler": scaler,
        "model": M.model_to_envelope(p.model),
        "classes": list(p.classes),
    }


def _tfidf_from_jsonable(t: dict | None) -> TfidfVectorizer | None:
    if t is None:
        return None
    vocabulary = {k: int(v) for k, v in t["vocabulary"].items()}
    # an index outside 0..V-1, or an idf of another length, would fail or
    # silently misweight at the first predict
    if sorted(vocabulary.values()) != list(range(len(vocabulary))):
        raise ValueError("vocabulary indexes are not 0..V-1, each once")
    idf = np.array(t["idf"], dtype=float)
    if idf.shape != (len(vocabulary),):
        raise ValueError(f"idf of shape {idf.shape} for {len(vocabulary)} words")
    return TfidfVectorizer(vocabulary, idf, int(t["min_df"]), int(t["max_features"]))


def _scaler_from_jsonable(raw: dict | None) -> Scaler | None:
    if raw is None:
        return None
    return Scaler(np.array(raw["mean"], dtype=float), np.array(raw["std"], dtype=float))


def _names(raw: list) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(v, str) for v in raw):
        raise TypeError(f"expected a list of names, got {raw!r}")
    return tuple(raw)


def _scaling(raw: str) -> str:
    if raw not in SCALINGS:
        raise ValueError(f"expected one of {list(SCALINGS)}, got {raw!r}")
    return raw


def pipeline_from_envelope(env: dict) -> FittedPipeline:
    check_envelope(env, PIPELINE_FORMAT, "pipeline")
    section = partial(read_section, kind="pipeline")
    features = section("features", lambda: _names(env["features"]))
    embedded = section("lexicons", lambda: dict(env["lexicons"]))
    for block, row in LEXICON_BLOCKS.items():
        if block in features and row.key not in embedded:
            raise FormatError(
                f"pipeline feature block {block!r} has no embedded {row.key!r} lexicon"
            )
    lex = LexiconSet(**{
        row.key: section(f"lexicons.{row.key}", lambda: row.from_json(embedded[row.key]))
        for row in LEXICON_BLOCKS.values() if row.key in embedded
    })
    if env.get("lexicon_fingerprints") != lex.fingerprints():
        raise UsageError("lexicon fingerprints do not match the embedded lexicons")
    p = FittedPipeline(
        section("subtask", lambda: int(env["subtask"])),
        section("preprocess", lambda: _preprocess_from_jsonable(env["preprocess"])),
        features,
        lex,
        section("tfidf", lambda: _tfidf_from_jsonable(env["tfidf"])),
        section("scaling", lambda: _scaling(env["scaling"])),
        section("scaler", lambda: _scaler_from_jsonable(env["scaler"])),
        section("model", lambda: M.model_from_envelope(env["model"])),
        section("classes", lambda: _names(env["classes"])),
    )
    _check_layout(p)
    return p


def _check_layout(p: FittedPipeline) -> None:
    """Raise now the UsageError that a file whose sections were edited out
    of agreement on the feature columns would raise at its first predict,
    or whose scaler does not fit its scaling would (or would not) apply."""
    if (p.scaler is not None) != (p.scaling == "zscore"):
        raise UsageError(f"saved pipeline scaling has {p.scaling!r}, but the file "
                         f"{'lacks' if p.scaler is None else 'holds'} a scaler")
    dense = sum(len(row.columns(lex)) for block, row, lex in p.lexicons.present()
                if block in p.features)
    width = dense + (len(p.tfidf.vocabulary) if p.tfidf is not None else 0)
    for model in p.model.members if isinstance(p.model, M.VotingModel) else (p.model,):
        if model.n_features != width:
            raise UsageError(f"saved pipeline model has {model.n_features} columns, "
                             f"but its features, lexicons and vocabulary give {width}")
    if p.scaler is not None and not len(p.scaler.mean) == len(p.scaler.std) == dense:
        raise UsageError(f"saved pipeline scaler has {len(p.scaler.mean)} columns, "
                         f"but its lexicon features give {dense}")


def save_pipeline(p: FittedPipeline, path: str) -> None:
    write_envelope(path, pipeline_to_envelope(p), "pipeline")


def load_pipeline(path: str) -> FittedPipeline:
    return pipeline_from_envelope(read_envelope(path, "pipeline"))
