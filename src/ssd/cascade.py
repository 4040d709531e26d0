"""Three-stage hierarchical inference: support gate, then target, then group.

Each stage is an independently fitted pipeline trained on its gold stage
view. The stages share one preprocess config, one feature list and one
lexicon set, so training and each prediction batch normalize and featurize
every text once and hand each stage its rows of that batch. Prediction
gates forward: a stage sees only the texts whose previous verdict is its
opener in `corpus.SUBTASKS`, so a NSS verdict stops at stage 1 and an
Individual verdict at stage 2. Emitted labels always satisfy the
hierarchical invariants by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .corpus import SUBTASKS, Dataset, HierLabel, stage_view
from .errors import DataError, UsageError
from .pipeline import (
    ExperimentConfig,
    FittedPipeline,
    fit_pipeline,
    load_lexicons,
    pipeline_from_envelope,
    pipeline_to_envelope,
    predict_pipeline,
    preprocess_config,
    text_batch,
)
from .util import check_envelope, read_envelope, read_section, write_envelope

CASCADE_FORMAT = "ssd-cascade-v1"


@dataclass(frozen=True)
class CascadeModel:
    """Three fitted stages that share one lexicon set, one preprocess
    config and one feature list. All three are checked once, at
    construction: the stages' lexicons against the recorded fingerprints,
    so prediction never re-hashes them, and each stage's preprocess config
    and features against stage 1's, so one token tuple and one set of
    lexicon rows per text serve every stage."""

    stage1: FittedPipeline
    stage2: FittedPipeline
    stage3: FittedPipeline
    lexicon_fingerprints: dict

    def __post_init__(self) -> None:
        for i, stage in enumerate(self.stages(), start=1):
            if stage.lexicon_fingerprints() != self.lexicon_fingerprints:
                raise UsageError(
                    f"stage {i} lexicons do not match the cascade's recorded "
                    f"lexicon fingerprints"
                )
            if stage.preprocess != self.stage1.preprocess:
                raise UsageError(
                    f"stage {i} preprocess config differs from stage 1's"
                )
            if stage.features != self.stage1.features:
                raise UsageError(
                    f"stage {i} features {list(stage.features)} differ from "
                    f"stage 1's {list(self.stage1.features)}"
                )

    def stages(self) -> tuple[FittedPipeline, FittedPipeline, FittedPipeline]:
        return (self.stage1, self.stage2, self.stage3)


def train_cascade(
    d: Dataset, cfg: ExperimentConfig, model_name: str | None = None
) -> CascadeModel:
    """Fit the three stage pipelines on their gold label views. Every view
    holds labeled items only, and each of those is normalized and
    featurized once."""
    lex = load_lexicons(cfg)
    pc = preprocess_config(cfg)
    labeled = [it for it in d if it.label is not None]
    batch = text_batch([it.comment.text for it in labeled], pc, cfg.features, lex)
    row_of = {it.comment.id: i for i, it in enumerate(labeled)}
    stages = []
    for subtask in SUBTASKS:
        try:
            view = stage_view(d, subtask)
        except DataError:
            raise DataError(
                f"cannot train stage {subtask}: the dataset has no items "
                f"with a stage-{subtask} label"
            ) from None
        labels = view.labels(subtask)
        rows = [row_of[it.comment.id] for it in view]
        stage_cfg = replace(cfg, subtask=subtask)
        try:
            stages.append(
                fit_pipeline(
                    batch.take(rows), labels, stage_cfg,
                    model_name=model_name,
                    lexicons=lex,
                    pcfg=pc,
                    fold_tag=("stage", subtask),
                )
            )
        except DataError as exc:
            raise DataError(f"cannot train stage {subtask}: {exc}") from None
    return CascadeModel(*stages, lex.fingerprints())


@dataclass(frozen=True)
class CascadePrediction:
    label: HierLabel
    p1: float
    p2: float | None
    p3: float | None


def cascade_predict_batch(
    m: CascadeModel, texts: Sequence[str]
) -> list[CascadePrediction]:
    """Predict hierarchical labels for a batch, gating stages by upstream
    verdicts: a stage scores the rows whose previous verdict is its opener.
    Probabilities are the chosen class's score at each reached stage;
    unreached stages report None. Each text is normalized and featurized
    once, and a stage is handed its rows of that batch."""
    first = m.stage1
    batch = text_batch(texts, first.preprocess, first.features, first.lexicons)
    reached: list[list[tuple[str, float]]] = [[] for _ in texts]
    rows = list(range(len(texts)))
    for stage, spec in zip(m.stages(), SUBTASKS.values()):
        if spec.opener is not None:
            rows = [i for i in rows if reached[i][-1][0] == spec.opener]
        if not rows:
            break
        stage_labels, proba = predict_pipeline(stage, batch.take(rows))
        column = {c: j for j, c in enumerate(stage.classes)}
        for i, lab, pr in zip(rows, stage_labels, proba.tolist()):
            reached[i].append((lab, pr[column[lab]]))
    out = []
    for verdicts in reached:
        unreached = [(None, None)] * (len(SUBTASKS) - len(verdicts))
        labels, probs = zip(*verdicts, *unreached)
        out.append(CascadePrediction(HierLabel(*labels), *probs))
    return out


def cascade_predict(m: CascadeModel, text: str) -> CascadePrediction:
    return cascade_predict_batch(m, [text])[0]


def evaluate_cascade(m: CascadeModel, d: Dataset) -> dict:
    """End-to-end exact-match accuracy of the full hierarchical label over
    the dataset's labeled items."""
    items = [it for it in d if it.label is not None]
    if not items:
        raise DataError("cannot evaluate a cascade on a dataset with no labels")
    preds = cascade_predict_batch(m, [it.comment.text for it in items])
    exact = sum(1 for it, p in zip(items, preds) if p.label == it.label)
    return {"n": len(items), "exact_match": exact,
            "pipeline_accuracy": exact / len(items)}


def predictions_csv(
    preds: Sequence[CascadePrediction], ids: Sequence[int] | None = None
) -> str:
    """CSV rows `id,support,target,group,p1,p2,p3`; each id is the 1-based
    input line number of its text, given in `ids` when blank lines were
    left out, and otherwise the prediction's own position."""
    lines = ["id,support,target,group,p1,p2,p3"]
    if ids is None:
        ids = range(1, len(preds) + 1)
    for i, p in zip(ids, preds):
        labels = [p.label.stage(k) or "" for k in SUBTASKS]
        probs = [f"{v:.6f}" if v is not None else "" for v in (p.p1, p.p2, p.p3)]
        lines.append(",".join([str(i), *labels, *probs]))
    return "\n".join(lines) + "\n"


def cascade_to_envelope(m: CascadeModel) -> dict:
    return {
        "format": CASCADE_FORMAT,
        "lexicon_fingerprints": dict(m.lexicon_fingerprints),
        "stages": {
            str(k): pipeline_to_envelope(stage)
            for k, stage in zip(SUBTASKS, m.stages())
        },
    }


def cascade_from_envelope(env: dict) -> CascadeModel:
    check_envelope(env, CASCADE_FORMAT, "cascade")
    fingerprints = read_section(
        "lexicon_fingerprints", lambda: dict(env["lexicon_fingerprints"]), "cascade"
    )
    stages = [
        pipeline_from_envelope(
            read_section(f"stages.{k}", lambda: env["stages"][str(k)], "cascade")
        )
        for k in SUBTASKS
    ]
    return CascadeModel(*stages, fingerprints)


def save_cascade(m: CascadeModel, path: str) -> None:
    write_envelope(path, cascade_to_envelope(m), "cascade")


def load_cascade(path: str) -> CascadeModel:
    return cascade_from_envelope(read_envelope(path, "cascade"))
