"""Span and count recorder for the traced run, and the per-layer metrics
derived from it.

Only the traced run uses this module. `instrument` replaces the program's
public functions, in the module namespaces the program calls them through,
by wrappers that record a span (name, start, end, parent, tag; the tag is
the stage a cascade call serves) and update counts at the same boundary;
`Instrumented.restore` puts the originals back. Nothing under `src/` is
modified. Spans stay in memory and are written out by `write_trace` when
the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

import numpy as np


class Recorder:
    """Spans are kept column-wise in flat lists of atoms, so that a long
    trace adds no objects for the garbage collector to traverse."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tags: list = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.values: dict[str, list] = defaultdict(list)

    def open(self, name: str, tag=None) -> int:
        index = len(self.names)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.names.append(name)
        self.tags.append(tag)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.names)

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def calls(self, name: str) -> int:
        return self.names.count(name)

    def total(self, name: str, tag=None) -> float:
        return sum(self.ends[i] - self.starts[i] for i in range(len(self))
                   if self.names[i] == name and (tag is None or self.tags[i] == tag))

    def rollup(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, and self seconds (the span
        minus the time its direct children cover)."""
        child_time = [0.0] * len(self)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.duration(i)
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.duration(i)
            row["self_s"] += self.duration(i) - child_time[i]
        return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))


class Instrumented:
    """The set of wrapped boundaries; `restore` undoes every replacement."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, rec: Recorder, module, attr: str, name: str,
             tag=None, after=None) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            index = rec.open(name, tag(args, kwargs) if tag else None)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.close(index)
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._originals.append((module, attr, original))

    def count(self, rec: Recorder, module, attr: str, name: str) -> None:
        """Count calls and distinct first arguments without a span; for the
        per-token stemmer, where a span per call would swamp the trace."""
        original = getattr(module, attr)
        calls = rec.counts
        seen = rec.distinct[name]

        def wrapper(word, *args, **kwargs):
            calls[name] += 1
            seen.add(word)
            return original(word, *args, **kwargs)

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._originals.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def instrument(rec: Recorder) -> Instrumented:
    from ssd import cascade, corpus, evaluation, models, pipeline, preprocess

    ins = Instrumented()
    w = ins.wrap

    w(rec, corpus, "load_dataset", "corpus.load_dataset")
    w(rec, evaluation, "stratified_kfold_labels", "corpus.kfold")

    for mod in (pipeline, evaluation):
        w(rec, mod, "normalize", "preprocess.normalize")
    ins.count(rec, preprocess, "porter_stem", "porter.stem")

    w(rec, pipeline, "liwc_features", "features.liwc")
    w(rec, pipeline, "emotion_features", "features.emotion")
    w(rec, pipeline, "sentiment_scores", "features.sentiment")

    def on_dense(rec, args, kwargs, result):
        rec.counts["dense_rows"] += len(args[0])

    def on_fit_tfidf(rec, args, kwargs, result):
        rec.values["vocab_size"].append(len(result.vocabulary))

    def on_transform(rec, args, kwargs, result):
        rec.counts["tfidf_nnz"] += int(result.nnz)

    def on_combine(rec, args, kwargs, result):
        rec.counts["matrix_rows"] += result.n_rows

    def on_matrix(rec, args, kwargs, result):
        fm = args[0]
        # a dense result built from a sparse TF-IDF block was densified here
        if fm.tfidf is not None and isinstance(result, np.ndarray):
            rec.counts["densified_bytes"] += int(result.nbytes)

    for mod in (pipeline, evaluation):
        w(rec, mod, "extract_dense_blocks", "features.dense_blocks", after=on_dense)
        w(rec, mod, "fit_tfidf", "features.fit_tfidf", after=on_fit_tfidf)
        w(rec, mod, "matrix_for_family", "pipeline.matrix_for_family", after=on_matrix)
    w(rec, pipeline, "transform_tfidf_corpus", "features.transform_tfidf", after=on_transform)
    w(rec, pipeline, "combine_features", "features.combine", after=on_combine)

    def on_lr(rec, args, kwargs, result):
        cap = result.spec.hyper("max_iter")
        for trace in result.state["loss_traces"]:
            if trace:
                rec.counts["lr_iters"] += len(trace) - 1
                rec.counts["lr_capped"] += len(trace) - 1 >= cap

    def on_rbf(rec, args, kwargs, result):
        for machine in result.state["machines"]:
            if machine is not None:
                rec.counts["svm_rbf_support_vectors"] += len(machine["alphas"])

    def on_tree(rec, args, kwargs, result):
        for tree in result.state["trees"]:
            rec.counts["tree_nodes"] += len(tree["feature"])

    w(rec, models, "train_lr", "models.train.lr", after=on_lr)
    w(rec, models, "train_svm_linear", "models.train.svm_linear")
    w(rec, models, "train_svm_rbf", "models.train.svm_rbf", after=on_rbf)
    w(rec, models, "train_dt", "models.train.dt", after=on_tree)
    w(rec, models, "train_rf", "models.train.rf", after=on_tree)
    w(rec, models, "predict", "models.predict")
    w(rec, models, "predict_proba", "models.predict_proba")

    def on_predict_pipeline(rec, args, kwargs, result):
        rec.counts[f"stage{args[0].subtask}_items"] += len(args[1])

    # texts handed to the program: each training item once per fit, each
    # labeled text once per labeling call
    def on_train_cascade(rec, args, kwargs, result):
        rec.counts["texts_in"] += len(args[0])

    def on_cross_validate(rec, args, kwargs, result):
        rec.counts["texts_in"] += result.n_items

    def on_save(rec, args, kwargs, result):
        rec.counts["model_bytes"] += os.path.getsize(args[1])

    w(rec, cascade, "fit_pipeline", "pipeline.fit", tag=lambda a, k: a[2].subtask)
    w(rec, cascade, "predict_pipeline", "pipeline.predict",
      tag=lambda a, k: a[0].subtask, after=on_predict_pipeline)
    w(rec, cascade, "save_cascade", "pipeline.save", after=on_save)
    w(rec, cascade, "load_cascade", "pipeline.load")
    w(rec, cascade, "train_cascade", "cascade.train", after=on_train_cascade)
    w(rec, cascade, "cascade_predict_batch", "cascade.predict_batch")
    w(rec, cascade, "cascade_predict", "cascade.predict_one")

    w(rec, evaluation, "cross_validate", "evaluation.cross_validate", after=on_cross_validate)
    # the one private boundary: a fold has no public function of its own
    w(rec, evaluation, "_evaluate_fold", "evaluation.fold")
    w(rec, evaluation, "write_cv_artifacts", "evaluation.write_artifacts")
    return ins


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    c = rec.counts
    folds = [i for i, name in enumerate(rec.names) if name == "evaluation.fold"]
    fold_times = [rec.duration(i) for i in folds]
    # scoring is what a fold does after its last model is trained
    last_train_end = {i: rec.starts[i] for i in folds}
    for i, name in enumerate(rec.names):
        if name.startswith("models.train.") and rec.parents[i] in last_train_end:
            last_train_end[rec.parents[i]] = max(last_train_end[rec.parents[i]], rec.ends[i])
    score = sum(rec.ends[i] - last_train_end[i] for i in folds)
    vocab = rec.values["vocab_size"]
    stems = c["porter.stem"]
    distinct_words = len(rec.distinct["porter.stem"])
    texts_in = c["texts_in"] + c["stage1_items"]
    normalize_calls = rec.calls("preprocess.normalize")
    out = {
        "corpus.load_dataset_s": (rec.total("corpus.load_dataset"), "s"),
        "corpus.kfold_s": (rec.total("corpus.kfold"), "s"),
        "preprocess.normalize_s": (rec.total("preprocess.normalize"), "s"),
        "preprocess.normalize_calls": (normalize_calls, "count"),
        "preprocess.normalize_per_text": (_ratio(normalize_calls, texts_in), "ratio"),
        "porter.stem_calls": (stems, "count"),
        "porter.distinct_words": (distinct_words, "count"),
        "porter.stem_reuse": (_ratio(stems, distinct_words), "ratio"),
        "features.liwc_s": (rec.total("features.liwc"), "s"),
        "features.emotion_s": (rec.total("features.emotion"), "s"),
        "features.sentiment_s": (rec.total("features.sentiment"), "s"),
        "features.dense_rows_per_row": (_ratio(c["dense_rows"], c["matrix_rows"]), "ratio"),
        "features.fit_tfidf_s": (rec.total("features.fit_tfidf"), "s"),
        "features.vocab_size": (_ratio(sum(vocab), len(vocab)), "count"),
        "features.transform_tfidf_s": (rec.total("features.transform_tfidf"), "s"),
        "features.tfidf_nnz": (c["tfidf_nnz"], "count"),
        "features.combine_s": (rec.total("features.combine"), "s"),
    }
    for family in ("lr", "svm_linear", "svm_rbf", "dt", "rf"):
        out[f"models.train_s.{family}"] = (rec.total(f"models.train.{family}"), "s")
    out.update({
        "models.predict_proba_s": (rec.total("models.predict_proba"), "s"),
        "models.predict_proba_calls_per_batch": (
            _ratio(rec.calls("models.predict_proba"), rec.calls("pipeline.predict")), "ratio"),
        "models.lr_iters": (c["lr_iters"], "count"),
        "models.lr_capped": (c["lr_capped"], "count"),
        "models.svm_rbf_support_vectors": (c["svm_rbf_support_vectors"], "count"),
        "models.tree_nodes": (c["tree_nodes"], "count"),
        "models.densified_mb": (c["densified_bytes"] / 1e6, "MB"),
        "pipeline.fit_s": (rec.total("pipeline.fit"), "s"),
        "pipeline.predict_s": (rec.total("pipeline.predict"), "s"),
        "pipeline.save_s": (rec.total("pipeline.save"), "s"),
        "pipeline.model_bytes": (c["model_bytes"], "bytes"),
        "pipeline.load_s": (rec.total("pipeline.load"), "s"),
        "evaluation.fold_busy_s": (sum(fold_times), "s"),
        "evaluation.fold_max_s": (max(fold_times, default=0.0), "s"),
        "evaluation.score_s": (score, "s"),
    })
    for stage in (1, 2, 3):
        out[f"cascade.stage{stage}_items"] = (c[f"stage{stage}_items"], "count")
    for stage in (1, 2, 3):
        out[f"cascade.train_stage_s.{stage}"] = (rec.total("pipeline.fit", stage), "s")
    return out


def write_trace(rec: Recorder, path: str, header: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    origin = rec.starts[0] if len(rec) else 0.0
    payload = dict(header)
    payload["rollup"] = rec.rollup()
    payload["counts"] = dict(rec.counts)
    payload["spans"] = [
        [rec.names[i], round(rec.starts[i] - origin, 7), round(rec.ends[i] - origin, 7),
         rec.parents[i], rec.tags[i]]
        for i in range(len(rec))
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
