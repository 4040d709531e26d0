"""Three-stage hierarchical inference: support gate, then target, then group.

Each stage is an independently fitted pipeline trained on its gold stage
view. Prediction gates forward: a NSS verdict stops at stage 1, an
Individual verdict stops at stage 2. Emitted labels always satisfy the
hierarchical invariants by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .corpus import Dataset, HierLabel, stage_view
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
)
from .util import check_envelope, read_envelope, write_envelope

CASCADE_FORMAT = "ssd-cascade-v1"


@dataclass(frozen=True)
class CascadeModel:
    """Three fitted stages that share one lexicon set. The stages' lexicons
    are checked against the recorded fingerprints once, at construction, so
    prediction never re-hashes them."""

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

    def stages(self) -> tuple[FittedPipeline, FittedPipeline, FittedPipeline]:
        return (self.stage1, self.stage2, self.stage3)


def train_cascade(
    d: Dataset, cfg: ExperimentConfig, model_name: str | None = None
) -> CascadeModel:
    """Fit the three stage pipelines on their gold label views."""
    lex = load_lexicons(cfg)
    pc = preprocess_config(cfg)
    stages = []
    for subtask in (1, 2, 3):
        try:
            view = stage_view(d, subtask)
        except DataError:
            raise DataError(
                f"cannot train stage {subtask}: the dataset has no items "
                f"with a stage-{subtask} label"
            ) from None
        texts = view.texts()
        labels = view.labels(subtask)
        stage_cfg = replace(cfg, subtask=subtask)
        try:
            stages.append(
                fit_pipeline(
                    texts, labels, stage_cfg,
                    model_name=model_name,
                    lexicons=lex,
                    pcfg=pc,
                    fold_tag=("stage", subtask),
                )
            )
        except DataError as exc:
            raise DataError(f"cannot train stage {subtask}: {exc}") from None
    return CascadeModel(stages[0], stages[1], stages[2], lex.fingerprints())


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
    verdicts. Probabilities are the chosen class's score at each reached
    stage; unreached stages report None."""
    n = len(texts)
    if n == 0:
        return []
    labels1, proba1 = predict_pipeline(m.stage1, texts)
    idx1 = {c: i for i, c in enumerate(m.stage1.classes)}
    out: list[CascadePrediction | None] = [None] * n

    ss_rows = [i for i, lab in enumerate(labels1) if lab == "SS"]
    p2_by_row: dict[int, tuple[str, float]] = {}
    group_rows: list[int] = []
    if ss_rows:
        labels2, proba2 = predict_pipeline(m.stage2, [texts[i] for i in ss_rows])
        idx2 = {c: i for i, c in enumerate(m.stage2.classes)}
        for row, lab, pr in zip(ss_rows, labels2, proba2):
            p2_by_row[row] = (lab, float(pr[idx2[lab]]))
            if lab == "Group":
                group_rows.append(row)
    p3_by_row: dict[int, tuple[str, float]] = {}
    if group_rows:
        labels3, proba3 = predict_pipeline(m.stage3, [texts[i] for i in group_rows])
        idx3 = {c: i for i, c in enumerate(m.stage3.classes)}
        for row, lab, pr in zip(group_rows, labels3, proba3):
            p3_by_row[row] = (lab, float(pr[idx3[lab]]))

    for i in range(n):
        support = labels1[i]
        p1 = float(proba1[i][idx1[support]])
        if support != "SS":
            out[i] = CascadePrediction(HierLabel("NSS", None, None), p1, None, None)
            continue
        target, p2 = p2_by_row[i]
        if target != "Group":
            out[i] = CascadePrediction(
                HierLabel("SS", target, None), p1, p2, None
            )
            continue
        group, p3 = p3_by_row[i]
        out[i] = CascadePrediction(HierLabel("SS", "Group", group), p1, p2, p3)
    return out  # type: ignore[return-value]


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


def predictions_csv(preds: Sequence[CascadePrediction]) -> str:
    """CSV rows `id,support,target,group,p1,p2,p3`, ids 1-based line numbers."""
    lines = ["id,support,target,group,p1,p2,p3"]
    for i, p in enumerate(preds, start=1):
        lines.append(",".join([
            str(i),
            p.label.support,
            p.label.target or "",
            p.label.group or "",
            f"{p.p1:.6f}",
            f"{p.p2:.6f}" if p.p2 is not None else "",
            f"{p.p3:.6f}" if p.p3 is not None else "",
        ]))
    return "\n".join(lines) + "\n"


def cascade_to_envelope(m: CascadeModel) -> dict:
    return {
        "format": CASCADE_FORMAT,
        "lexicon_fingerprints": dict(m.lexicon_fingerprints),
        "stages": {
            "1": pipeline_to_envelope(m.stage1),
            "2": pipeline_to_envelope(m.stage2),
            "3": pipeline_to_envelope(m.stage3),
        },
    }


def cascade_from_envelope(env: dict) -> CascadeModel:
    check_envelope(env, CASCADE_FORMAT, "cascade")
    stages = [pipeline_from_envelope(env["stages"][k]) for k in ("1", "2", "3")]
    return CascadeModel(
        stages[0], stages[1], stages[2], dict(env["lexicon_fingerprints"])
    )


def save_cascade(m: CascadeModel, path: str) -> None:
    write_envelope(path, cascade_to_envelope(m))


def load_cascade(path: str) -> CascadeModel:
    return cascade_from_envelope(read_envelope(path, "cascade"))
