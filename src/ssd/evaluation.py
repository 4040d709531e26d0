"""Classification metrics, chance-corrected agreement, the cross-validation
harness, and the per-label feature profiler.

Scoring conventions: any 0/0 ratio is 0; macro averages are unweighted class
means; weighted averages are support-weighted over the scored samples; fold
averaging is the unweighted mean of per-fold metrics, not a pooled confusion
matrix. Report JSON excludes wall-clock so identical runs are byte-identical;
timings go to a sidecar file.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import models as M
from .corpus import (
    SUBTASKS, Dataset, load_dataset, stage_view, stratified_kfold_labels,
)
from .errors import DataError, UsageError
from .pipeline import (
    CONFIG_FIELDS,
    LEXICON_BLOCKS,
    ExperimentConfig,
    LexiconSet,
    TextBatch,
    _feature_matrix,
    class_order,
    extract_dense_blocks,
    fit_features,
    fit_models,
    load_lexicons,
    matrix_for_family,
    preprocess_config,
    text_batch,
)
from .preprocess import PreprocessConfig, default_config, normalize
from .util import (
    canonical_json, fingerprint, format_markdown_table, format_table, open_output,
)

# unused here, but perfbench/spans.py wraps this name in this module
from .features import fit_tfidf  # noqa: F401

CV_REPORT_FORMAT = "ssd-cv-report-v1"


# ---------------------------------------------------------------------------
# confusion matrix and derived scores


@dataclass(frozen=True)
class ConfusionMatrix:
    labels: tuple[str, ...]
    counts: np.ndarray  # rows true, columns predicted

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_matrix(
    y_true: Sequence[str],
    y_pred: Sequence[str],
    labels: Sequence[str] | None = None,
) -> ConfusionMatrix:
    if len(y_true) != len(y_pred):
        raise UsageError(
            f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted"
        )
    if labels is None:
        labels = sorted(set(y_true) | set(y_pred))
    labels = tuple(labels)
    index = {c: i for i, c in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=int)
    for t, p in zip(y_true, y_pred):
        if t not in index:
            raise UsageError(f"true label {t!r} is not in the label set")
        if p not in index:
            raise UsageError(f"predicted label {p!r} is not in the label set")
        counts[index[t], index[p]] += 1
    return ConfusionMatrix(labels, counts)


@dataclass(frozen=True)
class MetricsReport:
    labels: tuple[str, ...]
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    support: tuple[float, ...]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float

    def to_json_dict(self) -> dict:
        out = {k: list(getattr(self, k))
               for k in ("labels", "precision", "recall", "f1", "support")}
        out["accuracy"] = self.accuracy
        for avg in ("macro", "weighted"):
            out[avg] = {k: getattr(self, f"{avg}_{k}") for k in ("precision", "recall", "f1")}
        return out


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=float)
    np.divide(num, den, out=out, where=den != 0)
    return out


def prf_scores(cm: ConfusionMatrix) -> MetricsReport:
    counts = cm.counts.astype(float)
    tp = np.diag(counts)
    support = counts.sum(axis=1)
    predicted = counts.sum(axis=0)
    precision = _safe_div(tp, predicted)
    recall = _safe_div(tp, support)
    f1 = _safe_div(2 * precision * recall, precision + recall)
    total = counts.sum()
    accuracy = float(tp.sum() / total) if total else 0.0
    weights = support / total if total else np.zeros_like(support)
    return MetricsReport(
        labels=cm.labels,
        precision=tuple(precision),
        recall=tuple(recall),
        f1=tuple(f1),
        support=tuple(support),
        accuracy=accuracy,
        macro_precision=float(precision.mean()) if len(precision) else 0.0,
        macro_recall=float(recall.mean()) if len(recall) else 0.0,
        macro_f1=float(f1.mean()) if len(f1) else 0.0,
        weighted_precision=float(precision @ weights),
        weighted_recall=float(recall @ weights),
        weighted_f1=float(f1 @ weights),
    )


def score_labels(
    y_true: Sequence[str], y_pred: Sequence[str], labels: Sequence[str] | None = None
) -> MetricsReport:
    return prf_scores(confusion_matrix(y_true, y_pred, labels))


def mean_metrics(reports: Sequence[MetricsReport]) -> MetricsReport:
    """Unweighted element-wise mean over folds; label sets must agree."""
    if not reports:
        raise UsageError("cannot average an empty list of metric reports")
    labels = reports[0].labels
    for r in reports[1:]:
        if r.labels != labels:
            raise UsageError("metric reports cover different label sets")

    def mean(name):
        values = [getattr(r, name) for r in reports]
        if isinstance(values[0], tuple):  # one value per label
            return tuple(np.mean(values, axis=0))
        return float(np.mean(values))

    return MetricsReport(labels, **{
        f.name: mean(f.name) for f in fields(MetricsReport) if f.name != "labels"
    })


def cohens_kappa(a: Sequence, b: Sequence) -> float:
    """Chance-corrected agreement between two label sequences."""
    if len(a) != len(b):
        raise UsageError(f"length mismatch: {len(a)} vs {len(b)} labels")
    n = len(a)
    if n == 0:
        raise UsageError("agreement needs at least one pair of labels")
    p_o = sum(x == y for x, y in zip(a, b)) / n
    labels = set(a) | set(b)
    p_e = sum(
        (sum(x == c for x in a) / n) * (sum(y == c for y in b) / n) for c in labels
    )
    if p_e >= 1.0 - 1e-15:
        warnings.warn("degenerate marginals: chance agreement is 1")
        return 1.0 if p_o >= 1.0 - 1e-15 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


# ---------------------------------------------------------------------------
# cross-validation harness


@dataclass(frozen=True)
class FoldResult:
    metrics: MetricsReport
    confusion: ConfusionMatrix


@dataclass(frozen=True)
class ModelResult:
    name: str
    folds: tuple[FoldResult, ...]
    mean: MetricsReport


@dataclass(frozen=True)
class CVReport:
    config: dict
    classes: tuple[str, ...]
    n_items: int
    folds: int
    seed: int
    models: dict[str, ModelResult]
    fold_fingerprints: tuple[dict, ...]  # per-fold fitted-state digests
    timings: tuple[dict, ...]  # per-fold wall-clock seconds, kept out of report JSON

    def to_json_dict(self) -> dict:
        return {
            "format": CV_REPORT_FORMAT,
            "config": self.config,
            "classes": list(self.classes),
            "n_items": self.n_items,
            "folds": self.folds,
            "seed": self.seed,
            "fold_fingerprints": list(self.fold_fingerprints),
            "models": {
                name: {
                    "folds": [
                        {
                            "metrics": fr.metrics.to_json_dict(),
                            "confusion": fr.confusion.counts.tolist(),
                        }
                        for fr in result.folds
                    ],
                    "mean": result.mean.to_json_dict(),
                }
                for name, result in self.models.items()
            },
        }


def _config_echo(cfg: ExperimentConfig) -> dict:
    """Every config key but `output_dir`, so that reruns into other
    directories write equal reports, with the voters' members resolved."""
    echo = {key: getattr(cfg, f.name) for key, f in CONFIG_FIELDS.items()
            if key != "output_dir"}
    echo["ensemble_members"] = cfg.base_members()
    return {key: list(v) if isinstance(v, tuple) else v for key, v in echo.items()}


def _evaluate_fold(
    cfg: ExperimentConfig,
    batch: TextBatch,
    labels,
    classes,
    fold_index: int,
    train_idx,
    test_idx,
):
    y_tr = [labels[i] for i in train_idx]
    y_te = [labels[i] for i in test_idx]

    tfidf, scaler, fm_tr = fit_features(batch.take(train_idx), cfg)
    fm_te = _feature_matrix(batch.take(test_idx), tfidf, cfg.scaling, scaler)

    fingerprints = {"train_size": len(train_idx), "test_size": len(test_idx)}
    if tfidf is not None:
        fingerprints["tfidf"] = fingerprint(
            {"vocabulary": tfidf.vocabulary, "idf": list(tfidf.idf)}
        )
    if scaler is not None:
        fingerprints["scaler"] = fingerprint(
            {"mean": list(scaler.mean), "std": list(scaler.std)}
        )

    timing: dict[str, float] = {}
    trained = fit_models(fm_tr, y_tr, cfg, classes, ("fold", fold_index), timing)
    X_te = matrix_for_family(fm_te)
    # each base model is scored once per fold, and a voter combines the
    # scores of its members, which are those same base models
    probas: dict[str, np.ndarray] = {}

    def scored(model) -> np.ndarray:
        family = model.spec.family
        if family not in probas:
            probas[family] = M.predict_proba(model, X_te)
        return probas[family]

    fold_results: dict[str, FoldResult] = {}
    for name in cfg.models:
        t0 = time.perf_counter()
        model = trained[name]
        if isinstance(model, M.VotingModel):
            proba = M.vote_proba(model, [scored(member) for member in model.members])
        else:
            proba = scored(model)
        y_hat = M.labels_from_proba(model, proba)
        cm = confusion_matrix(y_te, y_hat, classes)
        fold_results[name] = FoldResult(prf_scores(cm), cm)
        timing[f"score_{name}"] = time.perf_counter() - t0
    return fold_results, fingerprints, timing


def cross_validate(cfg: ExperimentConfig, dataset: Dataset | None = None) -> CVReport:
    """Stratified k-fold evaluation of every configured model.

    All fitted state (vectorizer, scaler, models) comes from the training
    split of each fold; the test split is only ever transformed and scored.
    Each text is normalized and its lexicon rows extracted once, for every
    fold: those depend on the text alone, not on any fitted state.
    """
    ds = dataset if dataset is not None else load_dataset(cfg.dataset)
    view = stage_view(ds, cfg.subtask)
    texts = view.texts()
    labels = view.labels(cfg.subtask)
    classes = class_order(labels, cfg.subtask)
    lex = load_lexicons(cfg)
    pc = preprocess_config(cfg)
    batch = text_batch(texts, pc, cfg.features, lex)
    folds = stratified_kfold_labels(labels, cfg.folds, cfg.seed)
    outcomes = [
        _evaluate_fold(cfg, batch, labels, classes, i, tr, te)
        for i, (tr, te) in enumerate(folds)
    ]

    models = {}
    for name in cfg.models:
        per_fold = tuple(out[0][name] for out in outcomes)
        models[name] = ModelResult(
            name, per_fold, mean_metrics([fr.metrics for fr in per_fold])
        )
    return CVReport(
        config=_config_echo(cfg),
        classes=classes,
        n_items=len(texts),
        folds=cfg.folds,
        seed=cfg.seed,
        models=models,
        fold_fingerprints=tuple(out[1] for out in outcomes),
        timings=tuple(out[2] for out in outcomes),
    )


# ---------------------------------------------------------------------------
# report rendering


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def summary_row(m: MetricsReport) -> list[str]:
    """A summary table's seven numbers: weighted precision, recall and F1,
    then macro precision, recall and F1, then accuracy."""
    return [_fmt(v) for v in (
        m.weighted_precision, m.weighted_recall, m.weighted_f1,
        m.macro_precision, m.macro_recall, m.macro_f1, m.accuracy,
    )]


def render_report_markdown(report: CVReport) -> str:
    lines = [
        "# Cross-validation report",
        "",
        f"- Dataset: `{report.config['dataset']}`",
        f"- Subtask: {report.config['subtask']}"
        f" ({SUBTASKS[report.config['subtask']].field})",
        f"- Items: {report.n_items}",
        f"- Folds: {report.folds}",
        f"- Seed: {report.seed}",
        f"- Features: {', '.join(report.config['features'])}",
        f"- Classes: {', '.join(report.classes)}",
        "",
        "## Mean scores over folds",
        "",
    ]
    headers = [
        "Model",
        "Precision (weighted)", "Recall (weighted)", "F1 (weighted)",
        "Precision (macro)", "Recall (macro)", "F1 (macro)",
        "Accuracy",
    ]
    rows = [[name, *summary_row(result.mean)] for name, result in report.models.items()]
    lines.append(format_markdown_table(headers, rows))
    for name, result in report.models.items():
        lines += ["", f"## Per-fold scores: {name}", ""]
        fold_rows = [
            [
                str(i + 1),
                _fmt(fr.metrics.weighted_f1),
                _fmt(fr.metrics.macro_f1),
                _fmt(fr.metrics.accuracy),
            ]
            for i, fr in enumerate(result.folds)
        ]
        lines.append(
            format_markdown_table(
                ["Fold", "F1 (weighted)", "F1 (macro)", "Accuracy"], fold_rows
            )
        )
    return "\n".join(lines) + "\n"


def summed_confusion(result: ModelResult) -> ConfusionMatrix:
    labels = result.folds[0].confusion.labels
    total = np.zeros((len(labels), len(labels)), dtype=int)
    for fr in result.folds:
        total += fr.confusion.counts
    return ConfusionMatrix(labels, total)


def confusion_csv(cm: ConfusionMatrix) -> str:
    lines = ["label," + ",".join(cm.labels)]
    for label, row in zip(cm.labels, cm.counts):
        lines.append(label + "," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def write_cv_artifacts(report: CVReport, output_dir: str) -> list[str]:
    """Write report.json, report.md, per-model confusion CSVs, and the
    timing sidecar. Returns the paths written."""
    try:
        os.makedirs(output_dir, exist_ok=True)
    except OSError as exc:
        raise DataError(
            f"cannot create output directory {output_dir}: {exc.strerror}"
        ) from None
    written = []

    def emit(name: str, text: str) -> None:
        path = os.path.join(output_dir, name)
        with open_output(path, "cv artifact") as fh:
            fh.write(text)
        written.append(path)

    emit("report.json", canonical_json(report.to_json_dict()) + "\n")
    emit("report.md", render_report_markdown(report))
    for name, result in report.models.items():
        emit(f"confusion_{name}.csv", confusion_csv(summed_confusion(result)))
    emit("timing.json", canonical_json({"folds": list(report.timings)}) + "\n")
    return written


# ---------------------------------------------------------------------------
# corpus profiler


@dataclass(frozen=True)
class ProfileReport:
    subtask: int
    labels: tuple[str, ...]
    counts: tuple[int, ...]
    blocks: dict[str, tuple[tuple[str, ...], np.ndarray]]  # name -> (features, L×F means)

    def to_json_dict(self) -> dict:
        return {
            "subtask": self.subtask,
            "labels": list(self.labels),
            "counts": list(self.counts),
            "blocks": {
                name: {
                    "features": list(features),
                    "means": {
                        label: [float(v) for v in row]
                        for label, row in zip(self.labels, table)
                    },
                }
                for name, (features, table) in self.blocks.items()
            },
        }

    def to_text(self) -> str:
        # Tables are feature-major: one row per feature, one column per label.
        chunks = []
        header_counts = ", ".join(
            f"{label} n={n}" for label, n in zip(self.labels, self.counts)
        )
        chunks.append(f"Feature profile for subtask {self.subtask} ({header_counts})")
        for name, (features, table) in self.blocks.items():
            rows = [
                [feat] + [_fmt(table[j][i]) for j in range(len(self.labels))]
                for i, feat in enumerate(features)
            ]
            chunks.append(LEXICON_BLOCKS[name].title)
            chunks.append(format_table(["feature"] + list(self.labels), rows))
        return "\n\n".join(chunks) + "\n"


def profile_features(
    d: Dataset,
    lexicons: LexiconSet,
    subtask: int,
    pcfg: PreprocessConfig | None = None,
) -> ProfileReport:
    """Arithmetic mean of every lexicon feature per label value."""
    view = stage_view(d, subtask)
    labels = view.labels(subtask)
    classes = class_order(labels, subtask)
    pc = pcfg if pcfg is not None else default_config()
    tokens = [normalize(t, pc) for t in view.texts()]
    groups = {c: [i for i, y in enumerate(labels) if y == c] for c in classes}

    columns = {block: row.columns(lex) for block, row, lex in lexicons.present()}
    blocks = {
        block: (columns[block], np.vstack([rows[groups[c]].mean(axis=0) for c in classes]))
        for block, rows in extract_dense_blocks(tokens, list(columns), lexicons)
    }
    return ProfileReport(
        subtask=subtask,
        labels=classes,
        counts=tuple(len(groups[c]) for c in classes),
        blocks=blocks,
    )
