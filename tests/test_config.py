"""Experiment configs: each value of the wrong JSON type is a usage error,
and every config that loads either runs or fails with a typed error."""

import json
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd import models as M
from ssd.cli import main
from ssd.corpus import write_dataset
from ssd.errors import SsdError, UsageError
from ssd.evaluation import cross_validate
from ssd.features import BLOCK_ORDER
from ssd.pipeline import (
    BASE_FAMILIES, CONFIG_FIELDS, MODEL_NAMES, ExperimentConfig, config_from_dict,
)

from conftest import CATEGORY_DIC, EMOTION_TSV, VALENCE_TSV, make_support_corpus

# each once read as something else: 2 folds, subtask 1, seed 7, models
# ("lr", "dt"), and the lexicon path "5"
REINTERPRETED = [
    ("folds", 2.7), ("subtask", 1.9), ("subtask", True), ("seed", "7"),
    ("models", {"lr": 0, "dt": 1}), ("lexicons", {"category": 5}),
]


@pytest.mark.parametrize("key,value", REINTERPRETED)
def test_value_of_another_type_is_usage_error(tmp_path, key, value):
    with pytest.raises(UsageError, match=key):
        config_from_dict({"dataset": "d.csv", "subtask": 1, key: value}, str(tmp_path))


@pytest.mark.parametrize("key,value", REINTERPRETED)
def test_value_of_another_type_exits_1(tmp_path, capsys, key, value):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"dataset": "ghost.csv", "subtask": 1, key: value}))
    assert main(["cv", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


NULLABLE = ("output_dir", "ensemble_members")


@pytest.mark.parametrize("key", sorted(set(CONFIG_FIELDS) - set(NULLABLE)))
def test_null_is_usage_error(tmp_path, key):
    raw = {"dataset": "d.csv", "subtask": 1, key: None}
    with pytest.raises(UsageError, match=key):
        config_from_dict(raw, str(tmp_path))


@pytest.mark.parametrize("key", NULLABLE)
def test_null_is_the_default(tmp_path, key):
    cfg = config_from_dict({"dataset": "d.csv", "subtask": 1, key: None}, str(tmp_path))
    assert getattr(cfg, key) is None


@pytest.mark.parametrize("key,value", [
    ("tfidf", {"min_df": True}), ("tfidf", {"max_features": 2.0}),
    ("preprocess", {"stem": 1}), ("hyperparameters", {"lr": []}),
    ("features", ["tfidf", 3]), ("ensemble_members", "rf"),
])
def test_nested_value_of_another_type_is_usage_error(tmp_path, key, value):
    with pytest.raises(UsageError, match=key):
        config_from_dict({"dataset": "d.csv", "subtask": 1, key: value}, str(tmp_path))


def test_true_is_no_hyperparameter_value(tmp_path):
    # {"rf": {"n_trees": true}} once fitted one tree
    raw = {"dataset": "d.csv", "subtask": 1, "hyperparameters": {"rf": {"n_trees": True}}}
    with pytest.raises(UsageError, match="rf.n_trees must be"):
        config_from_dict(raw, str(tmp_path))


def test_library_callers_get_the_same_checks():
    cfg = ExperimentConfig("d.csv", 1, features=["tfidf"], models=["lr", "dt"])
    assert cfg.features == ("tfidf",) and cfg.models == ("lr", "dt")
    with pytest.raises(UsageError, match="folds"):
        replace(cfg, folds=2.7)
    with pytest.raises(UsageError, match="seed"):
        ExperimentConfig("d.csv", 1, seed=True)


# ---------------------------------------------------------------------------
# every config that loads runs or raises SsdError


@pytest.fixture(scope="module")
def planted_dir(tmp_path_factory):
    """A 40-item planted corpus and every lexicon file a config may name."""
    d = tmp_path_factory.mktemp("fuzz")
    write_dataset(make_support_corpus(40, seed=23, hierarchical=True), str(d / "data.csv"))
    for name, text in (("cats.dic", CATEGORY_DIC), ("emo.tsv", EMOTION_TSV),
                       ("val.tsv", VALENCE_TSV), ("neg.txt", "not\nnever\n"),
                       ("boost.tsv", "very\t0.3\nso\n")):
        (d / name).write_text(text)
    return d


JSON_VALUES = st.one_of(
    st.booleans(), st.integers(-3, 30), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)
# the settings that bound a fit's work, kept small so that a draw runs fast
SMALL_FITS = {"lr": {"max_iter": 2}, "svm_linear": {"epochs": 2},
              "svm_rbf": {"max_passes": 1}, "dt": {}, "rf": {"n_trees": 2}}
# every other setting, with the values it admits
SETTINGS = {
    "C": st.floats(0.01, 100), "tol": st.floats(0, 0.1), "lam": st.floats(1e-6, 1),
    "gamma": st.one_of(st.just("scale"), st.floats(1e-3, 10)),
    "max_depth": st.one_of(st.none(), st.integers(1, 5)),
    "min_samples_split": st.integers(2, 5), "bootstrap": st.booleans(),
    "max_features": st.one_of(st.none(), st.just("sqrt"), st.integers(1, 30)),
    "densify_budget": st.integers(1, 10**6),
}
FAMILY_SETTINGS = {
    "lr": ("C", "tol"), "svm_linear": ("lam",),
    "svm_rbf": ("C", "gamma", "tol", "densify_budget"),
    "dt": ("max_depth", "min_samples_split", "max_features", "densify_budget"),
    "rf": ("bootstrap", "max_features", "densify_budget"),
}


def test_fuzzed_settings_cover_every_hyperparameter():
    # a family or hyperparameter added to M.FAMILIES must join the fuzz
    assert list(SMALL_FITS) == list(FAMILY_SETTINGS) == list(M.FAMILIES)
    for family, row in M.FAMILIES.items():
        assert {*SMALL_FITS[family], *FAMILY_SETTINGS[family]} == set(row.hyper), family
        assert set(FAMILY_SETTINGS[family]) <= set(SETTINGS), family


def hyperparameters(value_of):
    """SMALL_FITS plus some other settings per family, each drawn by `value_of`."""
    return st.fixed_dictionaries({
        family: st.fixed_dictionaries(
            {k: st.just(v) for k, v in SMALL_FITS[family].items()},
            optional={k: value_of(k) for k in FAMILY_SETTINGS[family]})
        for family in BASE_FAMILIES
    })


# a valid value for each key
VALID = {
    "dataset": st.sampled_from(["data.csv"] * 4 + ["ghost.csv"]),
    "subtask": st.sampled_from([1, 2, 3]),
    "features": st.lists(st.sampled_from(BLOCK_ORDER), min_size=1, max_size=4),
    "scaling": st.sampled_from(["none", "zscore"]),
    "models": st.lists(st.sampled_from(MODEL_NAMES), min_size=1, max_size=3),
    "folds": st.integers(2, 4),
    "seed": st.integers(-2**70, 2**70),
    "lexicons": st.fixed_dictionaries(
        {"category": st.just("cats.dic"), "emotion": st.just("emo.tsv"),
         "valence": st.sampled_from(["val.tsv", "emo.tsv"])},
        optional={"negators": st.just("neg.txt"), "boosters": st.just("boost.tsv")}),
    "output_dir": st.just("out"),
    "ensemble_members": st.lists(st.sampled_from(BASE_FAMILIES), max_size=3),
    "hyperparameters": hyperparameters(SETTINGS.get),
    "preprocess": st.dictionaries(
        st.sampled_from(["lowercase", "strip_punct", "remove_stopwords", "stem"]),
        st.booleans()),
    "tfidf": st.fixed_dictionaries({}, optional={"min_df": st.integers(1, 3),
                                                 "max_features": st.integers(1, 50)}),
}
OMIT = object()


def config_values(key, wrong):
    """A valid value, or the key left out; when `wrong`, a JSON value of any
    type, or null. `hyperparameters` is never left out, since its defaults
    (100 trees) would make a draw slow, and its wrong values keep SMALL_FITS."""
    if wrong:
        if key == "hyperparameters":
            not_an_object = JSON_VALUES.filter(lambda v: not isinstance(v, dict))
            return st.one_of(not_an_object, st.none(), hyperparameters(lambda k: JSON_VALUES))
        return st.one_of(JSON_VALUES, st.none())
    if key in ("dataset", "subtask", "hyperparameters"):
        return VALID[key]
    return st.one_of(st.just(OMIT), VALID[key])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_loaded_config_runs_or_raises_a_typed_error(planted_dir, data):
    assert set(VALID) == set(CONFIG_FIELDS)
    wrong = data.draw(st.sets(st.sampled_from(sorted(VALID)), max_size=2), label="wrong")
    raw = {key: data.draw(config_values(key, key in wrong), label=key)
           for key in sorted(VALID)}
    raw = {key: value for key, value in raw.items() if value is not OMIT}
    try:
        cfg = config_from_dict(raw, str(planted_dir))
    except UsageError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            cross_validate(cfg)
        except SsdError:
            pass
