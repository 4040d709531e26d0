"""Fitted pipeline prediction: labels come from the one scoring pass."""

import importlib.util
import itertools
import json
import math
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from ssd import models as M
from ssd.cascade import train_cascade
from ssd.errors import DataError, FormatError, UsageError
from ssd.evaluation import cross_validate
from ssd.features import DENSE_BLOCKS, FeatureMatrix
from ssd.pipeline import (
    LEXICON_BLOCKS,
    config_from_dict,
    fit_features,
    fit_pipeline,
    load_lexicons,
    load_pipeline,
    matrix_for_family,
    pipeline_matrix,
    predict_pipeline,
    preprocess_config,
    save_pipeline,
    text_batch,
)

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
        "hyperparameters": {"rf": {"n_trees": 3}, "svm_linear": {"max_iter": 20}},
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
    batch = text_batch(texts, preprocess_config(cfg), cfg.features, load_lexicons(cfg))
    n, d = matrix_for_family(fit_features(batch, cfg)[2]).shape
    assert n >= 9_900 and d > 2_000  # about 10 000 x 2 650
    for family in ("svm_rbf", "dt", "rf"):
        assert n * d <= M.make_spec(family).hyper("densify_budget")


def test_lexicon_table_follows_the_dense_block_order():
    assert tuple(LEXICON_BLOCKS) == DENSE_BLOCKS


def _lexicon_pipeline(tmp_path, corpus, lexicon_files, blocks):
    texts, labels, _ = corpus
    cfg = config_from_dict({
        "dataset": "d.csv", "subtask": 1, "features": [*blocks, "tfidf"],
        "models": ["lr"], "tfidf": {"min_df": 1}, "lexicons": lexicon_files,
        "hyperparameters": {"lr": {"max_iter": 20}},
    }, str(tmp_path))
    return fit_pipeline(texts, labels, cfg)


@pytest.mark.parametrize("blocks", [
    combo for k in range(len(DENSE_BLOCKS) + 1)
    for combo in itertools.combinations(DENSE_BLOCKS, k)
])
def test_every_lexicon_subset_saves_and_loads(tmp_path, corpus, lexicon_files, blocks):
    p = _lexicon_pipeline(tmp_path, corpus, lexicon_files, blocks)
    path = tmp_path / "model.json"
    save_pipeline(p, str(path))
    again = load_pipeline(str(path))
    assert again.lexicons == p.lexicons
    assert [block for block, _, _ in again.lexicons.present()] == list(blocks)
    unseen = corpus[2]
    assert predict_pipeline(again, unseen)[1].tobytes() == \
        predict_pipeline(p, unseen)[1].tobytes()


@pytest.mark.parametrize("recorded", ["blank", "deleted"])
def test_edited_lexicon_without_its_fingerprints_is_rejected(
        tmp_path, corpus, lexicon_files, recorded):
    path = tmp_path / "model.json"
    save_pipeline(_lexicon_pipeline(tmp_path, corpus, lexicon_files, ["liwc"]), str(path))
    env = json.loads(path.read_text())
    env["lexicons"]["category"]["categories"][0][1].append("video")
    if recorded == "blank":
        env["lexicon_fingerprints"] = {}
    else:
        del env["lexicon_fingerprints"]
    path.write_text(json.dumps(env))
    with pytest.raises(UsageError, match="fingerprints do not match"):
        load_pipeline(str(path))


def _drop_last_word(env):
    # and its idf, so that the tfidf section still agrees with itself
    vocabulary = env["tfidf"]["vocabulary"]
    del vocabulary[max(vocabulary, key=vocabulary.get)]
    env["tfidf"]["idf"].pop()


@pytest.mark.parametrize("model,edit,named", [
    ("soft_vote", _drop_last_word, "model"),
    ("soft_vote", lambda env: env["features"].remove("liwc"), "model"),
    ("lr", lambda env: env["model"].update(n_features=env["model"]["n_features"] + 1),
     "model"),
    ("lr", lambda env: env["scaler"]["mean"].pop(), "scaler"),
    ("lr", lambda env: env["scaler"]["std"].append(1.0), "scaler"),
    # unchecked, an edit to "none" silently dropped the scaling at predict
    ("lr", lambda env: env.update(scaling="none"), "scaling"),
    ("lr", lambda env: env.update(scaler=None), "scaling"),
], ids=["vocabulary", "features", "n_features", "scaler-mean", "scaler-std",
        "scaling-none", "scaler-null"])
def test_sections_edited_out_of_agreement_fail_at_load(
        tmp_path, corpus, lexicon_files, model, edit, named):
    """A file whose sections disagree on the feature columns is a usage
    error when it loads, as an edited lexicon is, not at its first predict."""
    texts, labels, _ = corpus
    cfg = config_from_dict({
        "dataset": "d.csv", "subtask": 1, "features": ["liwc", "tfidf"],
        "scaling": "zscore", "models": [model, "lr", "dt"],
        "tfidf": {"min_df": 1}, "lexicons": lexicon_files,
    }, str(tmp_path))
    path = tmp_path / "model.json"
    save_pipeline(fit_pipeline(texts, labels, cfg), str(path))
    env = json.loads(path.read_text())
    edit(env)
    path.write_text(json.dumps(env))
    with pytest.raises(UsageError, match=f"saved pipeline {named} has"):
        load_pipeline(str(path))


def test_unknown_saved_scaling_is_a_format_error(tmp_path, corpus):
    texts, labels, _ = corpus
    path = tmp_path / "model.json"
    save_pipeline(fit_pipeline(texts, labels, _config(tmp_path, ["lr"])), str(path))
    env = json.loads(path.read_text())
    env["scaling"] = "minmax"
    path.write_text(json.dumps(env))
    with pytest.raises(FormatError, match="'scaling'"):
        load_pipeline(str(path))


# ---------------------------------------------------------------------------
# the stacked matrix: one CSR, equal to scipy's hstack


def _hstack_oracle(fm):
    """The stacked matrix as scipy builds it, the reference for
    `matrix_for_family`."""
    return sparse.hstack([sparse.csr_matrix(fm.dense), fm.tfidf], format="csr")


def _same_as_hstack(X, fm):
    oracle = _hstack_oracle(fm)
    assert type(X) is type(oracle) and X.shape == oracle.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(X, name), getattr(oracle, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


_CELLS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.125, 3e-300])
_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def feature_matrices(draw):
    """Zero or more rows of a dense block (possibly 0 wide, with all-zero
    rows, -0.0 and, when drawn, non-finite cells) and a TF-IDF block
    (possibly absent, with all-zero rows)."""
    n = draw(st.integers(0, 5), label="rows")
    width = draw(st.integers(0, 4), label="dense width")
    cells = _CELLS | _NONFINITE if draw(st.booleans()) else _CELLS
    zero_row = st.just([0.0] * width)
    dense = np.array(draw(st.lists(
        zero_row | st.lists(cells, min_size=width, max_size=width),
        min_size=n, max_size=n)), dtype=float).reshape(n, width)
    if draw(st.booleans()):
        return FeatureMatrix(dense, None, ())
    vocab = draw(st.integers(0, 5), label="vocabulary")
    indptr, indices, data = [0], [], []
    for _ in range(n):
        cols = sorted(draw(st.sets(st.integers(0, vocab - 1), max_size=vocab))) \
            if vocab else []
        indices += cols
        data += draw(st.lists(st.sampled_from([0.5, -0.0, 0.25, 1.0]),
                              min_size=len(cols), max_size=len(cols)))
        indptr.append(len(indices))
    tfidf = sparse.csr_matrix((np.array(data, dtype=float), indices, indptr),
                              shape=(n, vocab))
    return FeatureMatrix(dense, tfidf, ())


@lru_cache(maxsize=None)
def _lr_of_width(width):
    X = np.vstack([np.eye(width), -np.eye(width)])
    return M.train_lr(X, ["a"] * width + ["b"] * width, M.make_spec("lr"))


@settings(max_examples=300, deadline=None)
@given(fm=feature_matrices())
def test_stacked_matrix_equals_the_hstack_oracle(fm):
    X = matrix_for_family(fm)
    if fm.tfidf is None:
        assert X is fm.dense
    elif fm.dense.shape[1] == 0:
        assert X is fm.tfidf
    else:
        _same_as_hstack(X, fm)
    if X.shape[1] == 0:
        return
    model = _lr_of_width(X.shape[1])
    if np.isfinite(fm.dense).all():
        assert M.predict_proba(model, X).shape == (X.shape[0], 2)
    else:
        with pytest.raises(DataError, match="NaN or infinite"):
            M.predict_proba(model, X)


def _tfidf_block(rows, width):
    """A CSR block with the given rows of (column, value) pairs."""
    indptr, indices, data = [0], [], []
    for row in rows:
        indices += [j for j, _ in row]
        data += [v for _, v in row]
        indptr.append(len(indices))
    return sparse.csr_matrix((np.array(data, dtype=float), indices, indptr),
                             shape=(len(rows), width))


@pytest.mark.parametrize("dense, tfidf_rows", [
    ([[0.0, 0.0, 0.0], [1.5, 0.0, -2.0], [0.0, 0.0, 0.0]],
     [[(1, 0.5)], [], [(0, 0.25), (3, 1.0)]]),  # all-zero dense rows
    ([[0.0, 0.0], [0.0, 0.0]], [[], [(2, 1.0)]]),  # no dense entry at all
    ([[1.0, -0.0], [2.0, 3.0]], [[], []]),  # no TF-IDF entry at all
    (np.empty((0, 3)), []),  # an empty batch
], ids=["zero-dense-rows", "zero-dense", "zero-tfidf", "no-rows"])
def test_stacked_matrix_cases(dense, tfidf_rows):
    fm = FeatureMatrix(np.array(dense, dtype=float), _tfidf_block(tfidf_rows, 4), ())
    X = matrix_for_family(fm)
    _same_as_hstack(X, fm)
    assert X.indices.dtype == np.int32


@pytest.mark.parametrize("tfidf_width, idx", [
    (2**31 - 3, np.int32), (2**31 - 2, np.int64), (2**31, np.int64)])
def test_stacked_matrix_index_dtype_at_the_int32_limit(tfidf_width, idx):
    """Stacked with 2 dense columns, a TF-IDF block about 2**31 columns
    wide holds a few entries, so the index dtype rule is tested on the
    shape without allocating anything large."""
    fm = FeatureMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]),
                       _tfidf_block([[(5, 0.5)], [(tfidf_width - 1, 1.0)]], tfidf_width), ())
    X = matrix_for_family(fm)
    assert X.indices.dtype == X.indptr.dtype == idx
    _same_as_hstack(X, fm)


def test_one_text_builds_at_most_two_csr_matrices(
        tmp_path, corpus, lexicon_files, monkeypatch):
    """One for the TF-IDF block and one for the stacked matrix; nothing
    re-wraps a matrix that is already CSR."""
    p = _lexicon_pipeline(tmp_path, corpus, lexicon_files, DENSE_BLOCKS)
    made = []
    init = sparse.csr_matrix.__init__

    def counted(self, *args, **kwargs):
        made.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(sparse.csr_matrix, "__init__", counted)
    predict_pipeline(p, corpus[2][:1])
    assert 1 <= len(made) <= 2
