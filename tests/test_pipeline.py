"""Fitted pipeline prediction: labels come from the one scoring pass."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from ssd import models as M
from ssd.cascade import train_cascade
from ssd.errors import DataError
from ssd.evaluation import cross_validate
from ssd.pipeline import (
    config_from_dict,
    fit_features,
    fit_pipeline,
    load_lexicons,
    matrix_for_family,
    pipeline_matrix,
    predict_pipeline,
    preprocess_config,
)
from ssd.preprocess import normalize

from conftest import make_support_corpus


def _config(tmp_path, models):
    return config_from_dict({
        "dataset": "d.csv", "subtask": 1, "features": ["tfidf"],
        "models": models, "seed": 4, "tfidf": {"min_df": 1},
    }, str(tmp_path))


@pytest.fixture(scope="module")
def corpus():
    train = make_support_corpus(120, seed=51)
    return train.texts(), train.labels(1), make_support_corpus(40, seed=52).texts()


@pytest.mark.parametrize("model", ["lr", "dt", "soft_vote", "hard_vote"])
def test_labels_match_model_predict(tmp_path, corpus, model):
    texts, labels, unseen = corpus
    members = ["lr", "dt", "rf"] if model.endswith("vote") else []
    p = fit_pipeline(texts, labels, _config(tmp_path, [model] + members))
    got, proba = predict_pipeline(p, unseen)
    X = matrix_for_family(pipeline_matrix(p, unseen))
    assert got == M.predict(p.model, X)
    assert proba.tobytes() == M.predict_proba(p.model, X).tobytes()


def test_exact_ties_keep_the_earlier_class(tmp_path):
    # identical texts with opposite labels give a 50/50 leaf
    texts = ["zebra quilt"] * 4 + ["mango river"] * 2
    labels = ["NSS", "SS", "SS", "NSS", "SS", "SS"]
    p = fit_pipeline(texts, labels, _config(tmp_path, ["dt"]))
    got, proba = predict_pipeline(p, ["zebra quilt"])
    assert proba[0, 0] == proba[0, 1]
    assert got == [p.model.classes[0]]
    X = matrix_for_family(pipeline_matrix(p, ["zebra quilt"]))
    assert got == M.predict(p.model, X)


def test_one_scoring_pass_per_call(tmp_path, corpus, monkeypatch):
    texts, labels, unseen = corpus
    p = fit_pipeline(texts, labels, _config(tmp_path, ["lr"]))
    calls = []
    original = M.predict_proba
    monkeypatch.setattr(M, "predict_proba",
                        lambda m, X: calls.append(m) or original(m, X))
    monkeypatch.setattr(M, "predict", lambda m, X: pytest.fail("scored twice"))
    predict_pipeline(p, unseen)
    assert len(calls) == 1


def test_hard_vote_scores_each_member_once(tmp_path, corpus, monkeypatch):
    texts, labels, unseen = corpus
    cfg = config_from_dict({
        "dataset": "d.csv", "subtask": 1, "features": ["tfidf"],
        "models": ["hard_vote"], "seed": 4, "tfidf": {"min_df": 1},
        "hyperparameters": {"rf": {"n_trees": 3}, "svm_linear": {"epochs": 3}},
    }, str(tmp_path))
    p = fit_pipeline(texts, labels, cfg)
    assert len(p.model.members) == 5
    expected = predict_pipeline(p, unseen)
    calls = []
    original = M.predict_proba
    monkeypatch.setattr(M, "predict_proba",
                        lambda m, X: calls.append(m) or original(m, X))
    got, proba = predict_pipeline(p, unseen)
    assert sum(isinstance(m, M.TrainedModel) for m in calls) == 5
    assert got == expected[0]
    assert proba.tobytes() == expected[1].tobytes()


def test_vote_members_are_the_listed_base_models(tmp_path, corpus):
    texts, labels, _ = corpus
    for model in ("hard_vote", "soft_vote"):
        p = fit_pipeline(texts, labels, _config(tmp_path, [model, "lr", "dt", "rf"]))
        assert [m.spec.family for m in p.model.members] == ["lr", "dt", "rf"]


def test_cascade_stage_votes_over_the_listed_base_models(tmp_path):
    ds = make_support_corpus(150, seed=53, hierarchical=True)
    cfg = config_from_dict({
        "dataset": "d.csv", "subtask": 1, "features": ["tfidf"],
        "models": ["soft_vote", "lr", "dt"], "tfidf": {"min_df": 1},
    }, str(tmp_path))
    for stage in train_cascade(ds, cfg).stages():
        assert [m.spec.family for m in stage.model.members] == ["lr", "dt"]


def test_dt_past_its_densify_budget_is_a_data_error(tmp_path):
    ds = make_support_corpus(200, seed=53)
    cfg = replace(
        _config(tmp_path, ["dt"]), hyperparameters={"dt": {"densify_budget": 100}}
    )
    with pytest.raises(DataError, match="densify_budget"):
        fit_pipeline(ds.texts(), ds.labels(1), cfg)
    with pytest.raises(DataError, match="densify_budget"):
        cross_validate(cfg, ds)


def test_default_densify_budget_admits_the_paper_scale_corpus(tmp_path):
    # the ~10k-comment corpus the benchmark generates at the paper's scale,
    # with the paper's features and default TF-IDF settings: every dense
    # family must train on all of it, and score all of it, without a
    # DataError (the matrix is not densified here)
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    vocab = gen.PaperVocabulary(str(Path(M.__file__).parent / "data"))
    cfg = config_from_dict({
        "dataset": "d.csv", "subtask": 1, "seed": 0, "models": ["dt"],
        "features": ["liwc", "emotion", "sentiment", "tfidf"], "scaling": "zscore",
        "lexicons": gen.write_paper_lexicons(str(tmp_path), vocab),
    }, str(tmp_path))
    texts = [row[1] for row in gen.paper_corpus(0, vocab)]
    streams = [normalize(t, preprocess_config(cfg)) for t in texts]
    n, d = matrix_for_family(fit_features(streams, cfg, load_lexicons(cfg))[2]).shape
    assert n >= 9_900 and d > 2_000  # about 10 000 x 2 650
    for family in ("svm_rbf", "dt", "rf"):
        assert n * d <= M.make_spec(family).hyper("densify_budget")
