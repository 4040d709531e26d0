"""Hierarchical three-stage classification: gating, stage isolation,
serialization, and structural validity of every prediction."""

import dataclasses
import json

import numpy as np
import pytest

from ssd.cascade import (
    cascade_from_envelope,
    cascade_predict,
    cascade_predict_batch,
    cascade_to_envelope,
    evaluate_cascade,
    load_cascade,
    predictions_csv,
    save_cascade,
    train_cascade,
)
from ssd.corpus import Dataset, HierLabel
from ssd.errors import DataError, FormatError, UsageError
from ssd.pipeline import config_from_dict

from conftest import GROUP_FLAVOR, make_support_corpus


def hier_config(tmp_path, data_path, **over):
    raw = {
        "dataset": str(data_path),
        "subtask": 1,
        "features": ["tfidf"],
        "models": ["lr"],
        "folds": 5,
        "seed": 2,
        "tfidf": {"min_df": 1},
    }
    raw.update(over)
    return config_from_dict(raw, str(tmp_path))


@pytest.fixture(scope="module")
def cascade_setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cascade")
    from ssd.corpus import write_dataset

    ds = make_support_corpus(260, seed=13, hierarchical=True)
    data = tmp / "data.csv"
    write_dataset(ds, str(data))
    cfg = hier_config(tmp, data)
    model = train_cascade(ds, cfg)
    return {"ds": ds, "cfg": cfg, "model": model, "tmp": tmp,
            "data_path": str(data)}


class TestGating:
    def test_every_prediction_is_a_valid_label(self, cascade_setup):
        ds = make_support_corpus(80, seed=21, hierarchical=True)
        preds = cascade_predict_batch(cascade_setup["model"], ds.texts())
        for p in preds:
            assert isinstance(p.label, HierLabel)  # constructor enforces shape

    def test_nss_stops_after_stage_one(self, cascade_setup):
        preds = cascade_predict_batch(
            cascade_setup["model"], ["hate trash awful worst video"])
        p = preds[0]
        assert p.label.support == "NSS"
        assert p.label.target is None and p.label.group is None
        assert p.p1 is not None and p.p2 is None and p.p3 is None

    def test_individual_stops_after_stage_two(self, cascade_setup):
        text = "bless hope strong friend brother sister video"
        p = cascade_predict(cascade_setup["model"], text)
        assert p.label.support == "SS"
        assert p.label.target == "Individual"
        assert p.label.group is None
        assert p.p2 is not None and p.p3 is None

    def test_group_reaches_stage_three(self, cascade_setup):
        text = ("bless hope strong community everyone nation "
                "pride rainbow queer video")
        p = cascade_predict(cascade_setup["model"], text)
        assert p.label == HierLabel("SS", "Group", "LGBTQ")
        assert None not in (p.p1, p.p2, p.p3)
        for v in (p.p1, p.p2, p.p3):
            assert 0.0 <= v <= 1.0

    def test_group_flavors_recovered(self, cascade_setup):
        for group, flavor in GROUP_FLAVOR.items():
            text = "bless hope community everyone " + " ".join(flavor[:3])
            p = cascade_predict(cascade_setup["model"], text)
            assert p.label.group == group


def _one_and_batch(tmp_path, lexicon_files, model_name, n_items=260,
                   hyperparameters=None):
    """Texts labelled one by one, and the same texts labelled as one batch,
    by a cascade of `model_name` stages."""
    ds = make_support_corpus(n_items, seed=13, hierarchical=True)
    cfg = hier_config(tmp_path, "unused.csv",
                      features=["liwc", "emotion", "sentiment", "tfidf"],
                      scaling="zscore", lexicons=lexicon_files, models=[model_name],
                      hyperparameters=hyperparameters or {})
    model = train_cascade(ds, cfg)
    texts = make_support_corpus(80, seed=23, hierarchical=True).texts()
    texts += ["", "zebra quilt"]
    batch = cascade_predict_batch(model, texts)
    assert {p.p3 is None for p in batch} == {True, False}
    return [cascade_predict(model, text) for text in texts], batch


def _probabilities(preds):
    return [(p.p1, p.p2, p.p3) for p in preds]


def test_one_text_labels_equal_its_batch_labels(tmp_path, lexicon_files):
    """A text labelled alone gets the label and probabilities, bit for bit,
    that it gets inside a batch."""
    singles, batch = _one_and_batch(tmp_path, lexicon_files, "lr")
    assert [p.label for p in singles] == [p.label for p in batch]
    assert _probabilities(singles) == _probabilities(batch)


# small forests, so that the voters, which fit every family, stay quick
_SMALL = {"rf": {"n_trees": 5}}
# svm_rbf multiplies its kernel through BLAS, whose rounding depends on how
# many rows a call holds; a soft vote averages an svm_rbf member in
_BATCH_ROUNDED = {"svm_rbf", "soft_vote"}


@pytest.mark.parametrize(
    "model_name", ["svm_linear", "svm_rbf", "dt", "rf", "soft_vote", "hard_vote"])
def test_one_text_labels_equal_its_batch_labels_for_family(
        tmp_path, lexicon_files, model_name):
    """The same for every other family and both voters: the dense families
    densify a one-row matrix, and a voter combines its members' rows. Where
    BLAS rounds by row count, the probabilities agree to 1e-12."""
    singles, batch = _one_and_batch(tmp_path, lexicon_files, model_name,
                                    n_items=160, hyperparameters=_SMALL)
    assert [p.label for p in singles] == [p.label for p in batch]
    if model_name in _BATCH_ROUNDED:
        for one, many in zip(_probabilities(singles), _probabilities(batch)):
            assert [a is None for a in one] == [b is None for b in many]
            assert np.allclose([a for a in one if a is not None],
                               [b for b in many if b is not None], rtol=1e-12, atol=0)
    else:
        assert _probabilities(singles) == _probabilities(batch)


@pytest.mark.parametrize("model_name", [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, reason="svm_rbf's kernel products round by the batch's row count"))
    for name in sorted(_BATCH_ROUNDED)])
def test_one_text_probabilities_equal_batch_bits_where_blas_rounds(
        tmp_path, lexicon_files, model_name):
    """The bit-for-bit form of the test above, which svm_rbf does not meet
    yet; strict, so that it fails once it does."""
    singles, batch = _one_and_batch(tmp_path, lexicon_files, model_name,
                                    n_items=160, hyperparameters=_SMALL)
    assert _probabilities(singles) == _probabilities(batch)


class TestEvaluation:
    def test_planted_corpus_scores(self, cascade_setup):
        held_out = make_support_corpus(120, seed=31, hierarchical=True)
        scores = evaluate_cascade(cascade_setup["model"], held_out)
        assert scores["n"] == 120
        assert scores["exact_match"] >= 0.85
        assert scores["pipeline_accuracy"] >= 0.85

    def test_unlabeled_dataset_rejected(self, cascade_setup):
        from ssd.corpus import Comment, DatasetItem

        bare = Dataset((DatasetItem(Comment("x1", "hello world"), None),))
        with pytest.raises(DataError):
            evaluate_cascade(cascade_setup["model"], bare)


class TestStageIsolation:
    def test_retraining_stage_three_leaves_earlier_stages_alone(
            self, cascade_setup):
        ds, cfg = cascade_setup["ds"], cascade_setup["cfg"]
        other = train_cascade(ds, dataclasses.replace(cfg, seed=99))
        hybrid = dataclasses.replace(cascade_setup["model"],
                                     stage3=other.stage3)
        texts = make_support_corpus(60, seed=41, hierarchical=True).texts()
        base = cascade_predict_batch(cascade_setup["model"], texts)
        mixed = cascade_predict_batch(hybrid, texts)
        for b, m in zip(base, mixed):
            assert b.label.support == m.label.support
            assert b.label.target == m.label.target
            assert b.p1 == m.p1 and b.p2 == m.p2


class TestMissingStageData:
    def test_no_stage_three_labels_named_in_error(self, tmp_path):
        # Group targets survive but no item carries a group label, so
        # stage 3 has nothing to fit while stages 1 and 2 stay two-class
        items = []
        flat = make_support_corpus(40, seed=51, hierarchical=True)
        for it in flat.items:
            label = it.label
            if label.target == "Group":
                label = HierLabel("SS", "Group", None)
            items.append(dataclasses.replace(it, label=label))
        ds = Dataset(tuple(items))
        cfg = hier_config(tmp_path, "unused.csv")
        with pytest.raises(DataError, match="stage 3"):
            train_cascade(ds, cfg)


class TestCsv:
    def test_layout_and_blank_cells(self, cascade_setup):
        preds = cascade_predict_batch(
            cascade_setup["model"],
            ["hate trash awful video",
             "bless hope community everyone pride rainbow"])
        text = predictions_csv(preds)
        lines = text.strip().split("\n")
        assert lines[0] == "id,support,target,group,p1,p2,p3"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] == "NSS"
        assert first[2] == "" and first[3] == ""
        assert first[5] == "" and first[6] == ""
        float(first[4])  # six-decimal probability parses
        assert "." in first[4] and len(first[4].split(".")[1]) == 6


class TestSerialization:
    def test_round_trip_preserves_predictions(self, cascade_setup, tmp_path):
        path = tmp_path / "cascade.json"
        save_cascade(cascade_setup["model"], str(path))
        again = load_cascade(str(path))
        texts = make_support_corpus(40, seed=61, hierarchical=True).texts()
        before = cascade_predict_batch(cascade_setup["model"], texts)
        after = cascade_predict_batch(again, texts)
        for b, a in zip(before, after):
            assert b.label == a.label
            assert b.p1 == a.p1 and b.p2 == a.p2 and b.p3 == a.p3

    def test_save_is_byte_deterministic(self, cascade_setup, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_cascade(cascade_setup["model"], str(p1))
        save_cascade(cascade_setup["model"], str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_foreign_format_rejected(self):
        with pytest.raises(FormatError):
            cascade_from_envelope({"format": "not-a-cascade"})

    def test_tampered_fingerprints_rejected(self, cascade_setup, tmp_path):
        path = tmp_path / "cascade.json"
        save_cascade(cascade_setup["model"], str(path))
        payload = json.loads(path.read_text())
        key = next(iter(payload["lexicon_fingerprints"]), None)
        if key is None:
            # tfidf-only cascade: fabricate a mismatching record instead
            payload["lexicon_fingerprints"] = {"category": "0" * 16}
        else:
            payload["lexicon_fingerprints"][key] = "0" * 16
        path.write_text(json.dumps(payload))
        with pytest.raises(UsageError):
            load_cascade(str(path))

    def test_envelope_format_tag(self, cascade_setup):
        env = cascade_to_envelope(cascade_setup["model"])
        assert env["format"] == "ssd-cascade-v1"


class TestFingerprintsCheckedAtConstruction:
    def test_stage_with_other_lexicons_rejected_by_replace(
            self, cascade_setup, lexicon_files):
        ds = cascade_setup["ds"]
        cfg = hier_config(cascade_setup["tmp"], cascade_setup["data_path"],
                          features=["liwc", "tfidf"],
                          lexicons={"category": lexicon_files["category"]})
        other = train_cascade(ds, cfg)
        assert other.stage2.lexicon_fingerprints() != \
            cascade_setup["model"].lexicon_fingerprints
        with pytest.raises(UsageError, match="stage 2"):
            dataclasses.replace(cascade_setup["model"], stage2=other.stage2)

    def test_prediction_hashes_no_lexicons(self, cascade_setup, monkeypatch,
                                           tmp_path):
        from ssd.pipeline import LexiconSet

        calls = []
        original = LexiconSet.fingerprints

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(LexiconSet, "fingerprints", counted)
        path = tmp_path / "cascade.json"
        save_cascade(cascade_setup["model"], str(path))
        model = load_cascade(str(path))
        assert calls  # loading checks the fingerprints
        calls.clear()
        texts = make_support_corpus(40, seed=43, hierarchical=True).texts()
        cascade_predict_batch(model, texts)
        cascade_predict(model, texts[0])
        assert calls == []


class TestMalformedFile:
    @pytest.mark.parametrize("drop, section", [
        (lambda env: env["stages"].pop("3"), "stages.3"),
        (lambda env: env.pop("lexicon_fingerprints"), "lexicon_fingerprints"),
        (lambda env: env.__setitem__("stages", []), "stages.1"),
    ])
    def test_missing_section_is_format_error(self, cascade_setup, tmp_path,
                                             drop, section):
        env = json.loads(json.dumps(cascade_to_envelope(cascade_setup["model"])))
        drop(env)
        path = tmp_path / "cascade.json"
        path.write_text(json.dumps(env))
        with pytest.raises(FormatError, match=f"'{section}'") as info:
            load_cascade(str(path))
        assert info.value.exit_code == 2


class TestSharedPreprocess:
    def test_stage_with_other_preprocess_rejected(self, cascade_setup):
        ds, cfg = cascade_setup["ds"], cascade_setup["cfg"]
        other = train_cascade(
            ds, dataclasses.replace(cfg, preprocess_overrides={"stem": False}))
        with pytest.raises(UsageError, match="stage 3 preprocess"):
            dataclasses.replace(cascade_setup["model"], stage3=other.stage3)

    def test_stage_with_other_features_rejected(self, tmp_path, lexicon_files, capsys):
        from ssd.cli import main

        ds = make_support_corpus(120, seed=17, hierarchical=True)
        category = {"category": lexicon_files["category"]}
        env, other = (
            json.loads(json.dumps(cascade_to_envelope(train_cascade(
                ds, hier_config(tmp_path, "unused.csv", features=features,
                                lexicons=category)))))
            for features in (["liwc", "tfidf"], ["liwc"])
        )
        # same lexicons and preprocess config, so only the feature lists differ
        env["stages"]["2"] = other["stages"]["2"]
        path = tmp_path / "cascade.json"
        path.write_text(json.dumps(env))
        with pytest.raises(UsageError, match="stage 2 features"):
            load_cascade(str(path))
        texts = tmp_path / "texts.txt"
        texts.write_text("bless hope friend brother\n")
        capsys.readouterr()
        assert main(["cascade-predict", "--model", str(path), "--input", str(texts)]) == 1
        assert "stage 2 features" in capsys.readouterr().err

    def test_each_text_normalized_once(self, cascade_setup, lexicon_files, monkeypatch):
        """Each text is normalized and run through each lexicon extractor
        once per training call and once per labeling call."""
        from ssd import cascade, pipeline

        calls = []
        original = pipeline.normalize

        def counted(text, pc):
            calls.append(text)
            return original(text, pc)

        monkeypatch.setattr(pipeline, "normalize", counted)
        extracted = dict.fromkeys(pipeline.LEXICON_BLOCKS, 0)
        for block, row in pipeline.LEXICON_BLOCKS.items():
            def counted_extract(ts, lex, block=block, extract=getattr(pipeline, row.extractor)):
                extracted[block] += 1
                return extract(ts, lex)

            monkeypatch.setattr(pipeline, row.extractor, counted_extract)
        ds = cascade_setup["ds"]
        cfg = dataclasses.replace(
            cascade_setup["cfg"], features=["liwc", "emotion", "sentiment", "tfidf"],
            scaling="zscore", lexicon_paths=lexicon_files)
        model = train_cascade(ds, cfg)
        assert sorted(calls) == sorted(ds.texts())
        assert extracted == dict.fromkeys(pipeline.LEXICON_BLOCKS, len(ds))
        calls.clear()
        extracted.update(dict.fromkeys(extracted, 0))

        # the benchmark's stage-items check swaps in a two-argument wrapper
        items = [0, 0, 0]
        predict = cascade.predict_pipeline

        def predict_counted(p, batch):
            items[p.subtask - 1] += len(batch)
            return predict(p, batch)

        monkeypatch.setattr(cascade, "predict_pipeline", predict_counted)
        texts = make_support_corpus(80, seed=71, hierarchical=True).texts()
        preds = cascade_predict_batch(model, texts)
        assert calls == texts
        assert extracted == dict.fromkeys(pipeline.LEXICON_BLOCKS, len(texts))
        assert items == [
            len(texts),
            sum(p.label.support == "SS" for p in preds),
            sum(p.label.target == "Group" for p in preds),
        ]
        assert 0 < items[2] < items[1] < items[0]


def test_shared_batch_equals_stages_fitted_one_by_one(tmp_path, lexicon_files):
    """A cascade whose stages take their rows of one batch is byte-identical
    to one whose stages are each fitted on their own raw texts."""
    from ssd.cascade import CascadeModel
    from ssd.corpus import SUBTASKS, stage_view
    from ssd.pipeline import fit_pipeline, load_lexicons
    from ssd.util import canonical_json

    ds = make_support_corpus(260, seed=13, hierarchical=True)
    cfg = hier_config(tmp_path, "unused.csv",
                      features=["liwc", "emotion", "sentiment", "tfidf"],
                      scaling="zscore", lexicons=lexicon_files)
    stages = []
    for subtask in SUBTASKS:
        view = stage_view(ds, subtask)
        stages.append(fit_pipeline(view.texts(), view.labels(subtask),
                                   dataclasses.replace(cfg, subtask=subtask),
                                   fold_tag=("stage", subtask)))
    one_by_one = CascadeModel(*stages, load_lexicons(cfg).fingerprints())
    assert canonical_json(cascade_to_envelope(train_cascade(ds, cfg))) == \
        canonical_json(cascade_to_envelope(one_by_one))


def test_cascade_bytes_equal_under_the_alternation_passes(tmp_path, monkeypatch):
    """A cascade trained on text full of emoji and abbreviations is
    byte-identical whether preprocess runs its own passes or one re.sub of
    each whole alternation."""
    from ssd import preprocess
    from ssd.corpus import Comment
    from ssd.util import canonical_json

    from conftest import oracle_abbrev_expander, oracle_emoji_replacer

    bundled = preprocess.default_config()
    emoji, abbrev = sorted(bundled.emoji_map), sorted(bundled.abbrev_map)
    base = make_support_corpus(200, seed=81, hierarchical=True)
    items = []
    for i, it in enumerate(base.items):
        a = abbrev[i % len(abbrev)]
        extra = f" {a.upper() if i % 3 else a} {emoji[i % len(emoji)]}"
        comment = Comment(it.comment.id, it.comment.text + extra)
        items.append(dataclasses.replace(it, comment=comment))
    ds = Dataset(tuple(items))
    cfg = hier_config(tmp_path, "unused.csv")
    ours = canonical_json(cascade_to_envelope(train_cascade(ds, cfg)))

    emoji_calls, abbrev_calls = [], []

    def traced(build, calls):
        def wrapped(mapping):
            apply = build(mapping)
            return lambda text: calls.append(text) or apply(text)
        return wrapped

    monkeypatch.setattr(preprocess, "_emoji_replacer",
                        traced(oracle_emoji_replacer, emoji_calls))
    monkeypatch.setattr(preprocess, "_abbrev_expander",
                        traced(oracle_abbrev_expander, abbrev_calls))
    oracle = canonical_json(cascade_to_envelope(train_cascade(ds, cfg)))
    # both passes run once per distinct raw whitespace chunk, abbreviations
    # over what the emoji pass made of it
    chunks = {c for t in ds.texts() for c in t.split()}
    assert sorted(emoji_calls) == sorted(chunks)
    assert abbrev_calls == list(map(oracle_emoji_replacer(bundled.emoji_map), emoji_calls))
    assert ours == oracle
