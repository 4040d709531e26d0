"""The benchmark's traced run (perfbench/spans.py) wraps program functions
by name in the modules that call them. Every name it wraps must stay bound
and called with the arguments its recorders read, and `restore` must put
every original back."""

import importlib.util
from pathlib import Path

from ssd import cascade, corpus, evaluation, models, pipeline, preprocess
from ssd.pipeline import config_from_dict, fit_pipeline, predict_pipeline

from conftest import make_support_corpus

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = (cascade, corpus, evaluation, models, pipeline, preprocess)


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    # dunder names left out: a warning adds `__warningregistry__`
    return [{k: v for k, v in vars(m).items() if not k.startswith("__")}
            for m in MODULES]


def test_instrument_then_restore(tmp_path):
    spans = _spans()
    before = _bindings()
    rec = spans.Recorder()
    ins = spans.instrument(rec)
    try:
        assert _bindings() != before
        ds = make_support_corpus(60, seed=61)
        cfg = config_from_dict({
            "dataset": "d.csv", "subtask": 1, "features": ["tfidf"],
            "models": ["lr"], "tfidf": {"min_df": 1},
        }, str(tmp_path))
        p = fit_pipeline(ds.texts(), ds.labels(1), cfg)
        predict_pipeline(p, ds.texts()[:5])
        metrics = spans.layer_metrics(rec)
    finally:
        ins.restore()
    assert _bindings() == before
    assert rec.calls("pipeline.matrix_for_family") == 2
    assert rec.calls("models.train.lr") == 1
    assert metrics["models.train_s.lr"][0] > 0


def test_lexicon_extractors_are_traced(tmp_path, lexicon_files):
    """Each lexicon extractor is reached through the name the trace wraps:
    once per text, and one dense-block pass per fit and per predict."""
    spans = _spans()
    rec = spans.Recorder()
    ins = spans.instrument(rec)
    try:
        ds = make_support_corpus(60, seed=61)
        cfg = config_from_dict({
            "dataset": "d.csv", "subtask": 1,
            "features": ["liwc", "emotion", "sentiment", "tfidf"],
            "models": ["lr"], "tfidf": {"min_df": 1},
            "lexicons": lexicon_files,
        }, str(tmp_path))
        p = fit_pipeline(ds.texts(), ds.labels(1), cfg)
        predict_pipeline(p, ds.texts()[:5])
        metrics = spans.layer_metrics(rec)
    finally:
        ins.restore()
    for block in ("liwc", "emotion", "sentiment"):
        assert rec.calls(f"features.{block}") == 65
        assert metrics[f"features.{block}_s"][0] > 0
    assert rec.calls("features.dense_blocks") == 2
