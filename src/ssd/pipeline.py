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
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy import sparse

from . import models as M
from .corpus import SUBTASKS
from .errors import FormatError, UsageError
from .features import (
    BLOCK_ORDER,
    EMOTIONS,
    SENTIMENT_NAMES,
    CategoryLexicon,
    EmotionLexicon,
    FeatureMatrix,
    Scaler,
    TfidfVectorizer,
    ValenceLexicon,
    combine_features,
    emotion_features,
    fit_feature_scaler,
    fit_tfidf,
    liwc_features,
    load_category_lexicon,
    load_emotion_lexicon,
    load_valence_lexicon,
    sentiment_scores,
    transform_tfidf_corpus,
)
from .preprocess import PreprocessConfig, TokenStream, default_config, normalize
from .util import (
    check_envelope,
    derive_seed,
    fingerprint,
    read_envelope,
    write_envelope,
)

PIPELINE_FORMAT = "ssd-pipeline-v1"

BASE_FAMILIES = ("lr", "svm_linear", "svm_rbf", "dt", "rf")
VOTE_KINDS = ("soft_vote", "hard_vote")
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
    dataset: str
    subtask: int
    features: tuple[str, ...] = ("tfidf",)
    scaling: str = "none"
    models: tuple[str, ...] = ("lr",)
    folds: int = 5
    seed: int = 0
    lexicon_paths: dict = field(default_factory=dict)
    output_dir: str | None = None
    ensemble_members: tuple[str, ...] | None = None
    hyperparameters: dict = field(default_factory=dict)
    preprocess_overrides: dict = field(default_factory=dict)
    tfidf_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.subtask not in SUBTASKS:
            raise UsageError(
                f"subtask must be one of {list(SUBTASKS)}, got {self.subtask}"
            )
        if not self.features:
            raise UsageError("at least one feature block is required")
        for f in self.features:
            if f not in BLOCK_ORDER:
                raise UsageError(f"unknown feature block {f!r}")
        if self.scaling not in ("none", "zscore"):
            raise UsageError(f"unknown scaling {self.scaling!r}")
        if not self.models:
            raise UsageError("at least one model is required")
        for m in self.models:
            if m not in MODEL_NAMES:
                raise UsageError(f"unknown model {m!r}")
        if self.ensemble_members is not None:
            for m in self.ensemble_members:
                if m not in BASE_FAMILIES:
                    raise UsageError(f"ensemble member must be a base model, got {m!r}")
        if self.folds < 2:
            raise UsageError(f"folds must be >= 2, got {self.folds}")
        for block, row in LEXICON_BLOCKS.items():
            if block in self.features and row.key not in self.lexicon_paths:
                raise UsageError(
                    f"feature block {block!r} requires a {row.key!r} lexicon path"
                )
        for family, params in self.hyperparameters.items():
            if family not in BASE_FAMILIES or not isinstance(params, dict):
                raise UsageError(
                    f"hyperparameters[{family!r}] must be an object for a base "
                    f"model, got {params!r}"
                )
            M.ModelSpec(family, params)  # checks each setting
        unknown = set(self.preprocess_overrides) - set(PREPROCESS_SWITCHES)
        if unknown:
            raise UsageError(f"unknown preprocess keys: {sorted(unknown)}")
        for key, value in self.preprocess_overrides.items():
            if not isinstance(value, bool):
                raise UsageError(f"preprocess {key} must be true or false, got {value!r}")
        unknown = set(self.tfidf_params) - set(TFIDF_DEFAULTS)
        if unknown:
            raise UsageError(f"unknown tfidf keys: {sorted(unknown)}")
        for key, default in TFIDF_DEFAULTS.items():
            value = self.tfidf_params.get(key, default)
            if not (isinstance(value, int) and value >= 1):
                raise UsageError(f"tfidf {key} must be an integer >= 1, got {value!r}")

    def base_members(self) -> tuple[str, ...]:
        if self.ensemble_members is not None:
            return self.ensemble_members
        listed = tuple(m for m in self.models if m in BASE_FAMILIES)
        return listed or BASE_FAMILIES


# what a TF-IDF fit applies for each setting the config leaves out
TFIDF_DEFAULTS = {"min_df": 2, "max_features": 20000}

# the preprocess settings a config may switch on or off
PREPROCESS_SWITCHES = ("lowercase", "strip_punct", "remove_stopwords", "stem")


def tfidf_settings(cfg: ExperimentConfig) -> tuple[int, int]:
    """The (min_df, max_features) that fitting a vectorizer under cfg uses."""
    params = {**TFIDF_DEFAULTS, **cfg.tfidf_params}
    return int(params["min_df"]), int(params["max_features"])


_CONFIG_KEYS = {
    "dataset", "subtask", "features", "scaling", "models", "folds", "seed",
    "lexicons", "output_dir", "ensemble_members", "hyperparameters",
    "preprocess", "tfidf",
}


def config_from_dict(raw: dict, base_dir: str = ".") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise UsageError("experiment config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if "dataset" not in raw:
        raise UsageError("config is missing required key 'dataset'")
    if "subtask" not in raw:
        raise UsageError("config is missing required key 'subtask'")
    lexicons = raw.get("lexicons", {})
    if not isinstance(lexicons, dict):
        raise UsageError("config key 'lexicons' must be an object")
    unknown = set(lexicons) - set(LEXICON_PATH_KEYS)
    if unknown:
        raise UsageError(f"unknown lexicon keys: {sorted(unknown)}")

    for key in ("features", "models", "ensemble_members"):
        # tuple("lr") would quietly split a bare string into characters
        if isinstance(raw.get(key), str):
            raise UsageError(
                f"config key {key!r} must be a list, got the string {raw[key]!r}"
            )

    def _path(p):
        return os.path.normpath(p if os.path.isabs(p) else os.path.join(base_dir, p))

    out_dir = raw.get("output_dir")
    try:
        return ExperimentConfig(
            dataset=_path(str(raw["dataset"])),
            subtask=int(raw["subtask"]),
            features=tuple(raw.get("features", ("tfidf",))),
            scaling=str(raw.get("scaling", "none")),
            models=tuple(raw.get("models", ("lr",))),
            folds=int(raw.get("folds", 5)),
            seed=int(raw.get("seed", 0)),
            lexicon_paths={k: _path(str(v)) for k, v in lexicons.items()},
            output_dir=_path(str(out_dir)) if out_dir is not None else None,
            ensemble_members=(
                tuple(raw["ensemble_members"])
                if raw.get("ensemble_members") is not None
                else None
            ),
            hyperparameters=dict(raw.get("hyperparameters", {})),
            preprocess_overrides=dict(raw.get("preprocess", {})),
            tfidf_params=dict(raw.get("tfidf", {})),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed experiment config: {exc}") from None


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
    streams: Sequence[TokenStream], features: Sequence[str], lex: LexiconSet
) -> list[tuple[str, np.ndarray]]:
    blocks: list[tuple[str, np.ndarray]] = []
    for block, row in LEXICON_BLOCKS.items():
        if block in features:
            lexicon = getattr(lex, row.key)
            # looked up at call time, since perfbench/spans.py wraps this name here
            extract = globals()[row.extractor]
            rows = np.array([extract(ts, lexicon) for ts in streams], dtype=float)
            width = len(row.columns(lexicon))
            blocks.append((block, rows.reshape(len(streams), width)))
    return blocks


def matrix_for_family(fm: FeatureMatrix):
    """The one matrix every model family is handed: the dense blocks
    stacked with the sparse TF-IDF block. Each family's own form of it
    is made in `models`. (perfbench/spans.py wraps this name.)"""
    if fm.tfidf is None:
        return fm.dense
    if fm.dense.shape[1] == 0:
        return fm.tfidf
    return sparse.hstack([sparse.csr_matrix(fm.dense), fm.tfidf], format="csr")


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


def _feature_matrix(
    streams: Sequence[TokenStream],
    features: Sequence[str],
    lex: LexiconSet,
    tfidf: TfidfVectorizer | None,
    scaling: str,
    scaler: Scaler | None,
) -> FeatureMatrix:
    blocks = extract_dense_blocks(streams, features, lex)
    if tfidf is not None:
        blocks.append(("tfidf", transform_tfidf_corpus(tfidf, streams)))
    return combine_features(blocks, scaling=scaling, fit_stats=scaler)


def fit_features(
    streams: Sequence[TokenStream], cfg: ExperimentConfig, lex: LexiconSet
) -> tuple[TfidfVectorizer | None, Scaler | None, FeatureMatrix]:
    """Fit the vectorizer and scaler on training streams and return them
    with the training matrix; each dense block is extracted once."""
    tfidf = None
    if "tfidf" in cfg.features:
        tfidf = fit_tfidf(streams, *tfidf_settings(cfg))
    blocks = extract_dense_blocks(streams, cfg.features, lex)
    scaler = None
    if cfg.scaling == "zscore":
        dense = (
            np.hstack([b for _, b in blocks]) if blocks else np.empty((len(streams), 0))
        )
        scaler = fit_feature_scaler(dense)
    if tfidf is not None:
        blocks.append(("tfidf", transform_tfidf_corpus(tfidf, streams)))
    return tfidf, scaler, combine_features(blocks, scaling=cfg.scaling, fit_stats=scaler)


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
            out[name] = M.make_voting(name.split("_")[0], members)
    return out


def fit_pipeline(
    texts: Sequence[str],
    labels: Sequence[str],
    cfg: ExperimentConfig,
    model_name: str | None = None,
    lexicons: LexiconSet | None = None,
    pcfg: PreprocessConfig | None = None,
    fold_tag: tuple = (),
) -> FittedPipeline:
    """Fit one pipeline end to end on the given training texts."""
    if model_name is None:
        model_name = cfg.models[0]
    lex = lexicons if lexicons is not None else load_lexicons(cfg)
    pc = pcfg if pcfg is not None else preprocess_config(cfg)
    streams = [normalize(t, pc) for t in texts]
    tfidf, scaler, fm = fit_features(streams, cfg, lex)
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


def pipeline_matrix(p: FittedPipeline, texts: Sequence[str]) -> FeatureMatrix:
    streams = [normalize(t, p.preprocess) for t in texts]
    return _feature_matrix(
        streams, p.features, p.lexicons, p.tfidf, p.scaling, p.scaler
    )


def score(model, fm: FeatureMatrix) -> tuple[list[str], np.ndarray]:
    """Labels and probabilities of a trained model from one scoring pass."""
    proba = M.predict_proba(model, matrix_for_family(fm))
    return M.labels_from_proba(model, proba), proba


def predict_pipeline(
    p: FittedPipeline, texts: Sequence[str]
) -> tuple[list[str], np.ndarray]:
    return score(p.model, pipeline_matrix(p, texts))


# ---------------------------------------------------------------------------
# serialization


def _preprocess_to_jsonable(pc: PreprocessConfig) -> dict:
    return {
        "lowercase": pc.lowercase,
        "strip_punct": pc.strip_punct,
        "remove_stopwords": pc.remove_stopwords,
        "stem": pc.stem,
        "emoji_map": dict(sorted(pc.emoji_map.items())),
        "abbrev_map": dict(sorted(pc.abbrev_map.items())),
        "stopwords": sorted(pc.stopwords),
    }


def _preprocess_from_jsonable(raw: dict) -> PreprocessConfig:
    return PreprocessConfig(
        lowercase=raw["lowercase"],
        strip_punct=raw["strip_punct"],
        remove_stopwords=raw["remove_stopwords"],
        stem=raw["stem"],
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
    return TfidfVectorizer(
        {k: int(v) for k, v in t["vocabulary"].items()},
        np.array(t["idf"], dtype=float),
        int(t["min_df"]),
        int(t["max_features"]),
    )


def _scaler_from_jsonable(raw: dict | None) -> Scaler | None:
    if raw is None:
        return None
    return Scaler(np.array(raw["mean"], dtype=float), np.array(raw["std"], dtype=float))


def _names(raw: list) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(v, str) for v in raw):
        raise TypeError(f"expected a list of names, got {raw!r}")
    return tuple(raw)


def _section(name: str, read: Callable[[], object]):
    """`read()` of one section of a saved pipeline, whose missing or
    mistyped parts are a FormatError that names the section."""
    try:
        return read()
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(
            f"saved pipeline section {name!r} is missing or malformed: {exc!r}"
        ) from None


def pipeline_from_envelope(env: dict) -> FittedPipeline:
    check_envelope(env, PIPELINE_FORMAT, "pipeline")
    features = _section("features", lambda: _names(env["features"]))
    embedded = _section("lexicons", lambda: dict(env["lexicons"]))
    for block, row in LEXICON_BLOCKS.items():
        if block in features and row.key not in embedded:
            raise FormatError(
                f"pipeline feature block {block!r} has no embedded {row.key!r} lexicon"
            )
    lex = LexiconSet(**{
        row.key: _section(f"lexicons.{row.key}", lambda: row.from_json(embedded[row.key]))
        for row in LEXICON_BLOCKS.values() if row.key in embedded
    })
    if env.get("lexicon_fingerprints") != lex.fingerprints():
        raise UsageError("lexicon fingerprints do not match the embedded lexicons")
    return FittedPipeline(
        _section("subtask", lambda: int(env["subtask"])),
        _section("preprocess", lambda: _preprocess_from_jsonable(env["preprocess"])),
        features,
        lex,
        _section("tfidf", lambda: _tfidf_from_jsonable(env["tfidf"])),
        _section("scaling", lambda: env["scaling"]),
        _section("scaler", lambda: _scaler_from_jsonable(env["scaler"])),
        _section("model", lambda: M.model_from_envelope(env["model"])),
        _section("classes", lambda: _names(env["classes"])),
    )


def save_pipeline(p: FittedPipeline, path: str) -> None:
    write_envelope(path, pipeline_to_envelope(p), "pipeline")


def load_pipeline(path: str) -> FittedPipeline:
    return pipeline_from_envelope(read_envelope(path, "pipeline"))
