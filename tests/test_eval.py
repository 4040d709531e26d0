"""Metrics, agreement, cross-validation, artifacts, and corpus profiling."""

import json
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from ssd.errors import UsageError
from ssd.evaluation import (
    ConfusionMatrix,
    MetricsReport,
    _config_echo,
    cohens_kappa,
    confusion_matrix,
    cross_validate,
    mean_metrics,
    prf_scores,
    profile_features,
    render_report_markdown,
    score_labels,
    summed_confusion,
    write_cv_artifacts,
)
from ssd.pipeline import (
    CONFIG_FIELDS,
    ExperimentConfig,
    LexiconSet,
    config_from_dict,
    fit_features,
    load_experiment_config,
    load_lexicons,
    preprocess_config,
    text_batch,
)
from ssd.preprocess import normalize
from ssd.util import canonical_json, derive_rng

from conftest import make_support_corpus


def brute_force_metrics(y_true, y_pred, labels):
    """Independent per-class metric computation from first principles."""
    out = {}
    for lab in labels:
        tp = sum(t == lab and p == lab for t, p in zip(y_true, y_pred))
        fp = sum(t != lab and p == lab for t, p in zip(y_true, y_pred))
        fn = sum(t == lab and p != lab for t, p in zip(y_true, y_pred))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out[lab] = (prec, rec, f1, sum(t == lab for t in y_true))
    return out


class TestMetrics:
    def test_worked_confusion_example(self):
        # labels (A, B); rows true, columns predicted
        cm = ConfusionMatrix(("A", "B"), np.array([[2, 1], [0, 3]]))
        m = prf_scores(cm)
        assert m.precision == pytest.approx((1.0, 0.75))
        assert m.recall == pytest.approx((2 / 3, 1.0))
        assert m.f1 == pytest.approx((0.8, 6 / 7))
        assert m.macro_f1 == pytest.approx(0.8285714285714286, abs=1e-12)
        assert m.accuracy == pytest.approx(5 / 6)
        assert m.support == (3, 3)

    def test_zero_denominators_score_zero(self):
        m = score_labels(["A", "A"], ["B", "B"], labels=["A", "B"])
        assert m.precision[0] == 0.0  # no A predictions
        assert m.recall[1] == 0.0  # no true B
        assert m.f1 == (0.0, 0.0)
        assert m.accuracy == 0.0

    def test_weighted_recall_equals_accuracy(self):
        rng = derive_rng(0, "wr")
        for _ in range(25):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(2, 5))
            labs = [f"c{i}" for i in range(k)]
            y_true = [labs[i] for i in rng.integers(0, k, size=n)]
            y_pred = [labs[i] for i in rng.integers(0, k, size=n)]
            m = score_labels(y_true, y_pred, labels=labs)
            assert m.weighted_recall == pytest.approx(m.accuracy, abs=1e-12)

    def test_against_brute_force(self):
        rng = derive_rng(1, "bf")
        for _ in range(60):
            n = int(rng.integers(1, 50))
            k = int(rng.integers(2, 7))
            labs = [f"c{i}" for i in range(k)]
            y_true = [labs[i] for i in rng.integers(0, k, size=n)]
            y_pred = [labs[i] for i in rng.integers(0, k, size=n)]
            m = score_labels(y_true, y_pred, labels=labs)
            ref = brute_force_metrics(y_true, y_pred, labs)
            for i, lab in enumerate(labs):
                prec, rec, f1, sup = ref[lab]
                assert m.precision[i] == pytest.approx(prec, abs=1e-12)
                assert m.recall[i] == pytest.approx(rec, abs=1e-12)
                assert m.f1[i] == pytest.approx(f1, abs=1e-12)
                assert m.support[i] == sup
            total = sum(r[3] for r in ref.values())
            assert m.macro_f1 == pytest.approx(
                np.mean([ref[lab][2] for lab in labs]), abs=1e-12)
            assert m.weighted_f1 == pytest.approx(
                sum(ref[lab][2] * ref[lab][3] for lab in labs) / total,
                abs=1e-12)

    def test_confusion_label_order_and_default(self):
        cm = confusion_matrix(["b", "a", "b"], ["b", "b", "a"])
        assert cm.labels == ("a", "b")  # sorted union by default
        assert cm.counts.tolist() == [[0, 1], [1, 1]]
        cm2 = confusion_matrix(["b", "a", "b"], ["b", "b", "a"], labels=["b", "a"])
        assert cm2.counts.tolist() == [[1, 1], [1, 0]]

    def test_confusion_validation(self):
        with pytest.raises(UsageError):
            confusion_matrix(["a"], ["a", "b"])
        with pytest.raises(UsageError):
            confusion_matrix(["a"], ["q"], labels=["a", "b"])

    def test_mean_metrics_is_elementwise_mean(self):
        a = score_labels(["A", "B"], ["A", "B"], labels=["A", "B"])
        b = score_labels(["A", "B"], ["B", "B"], labels=["A", "B"])
        m = mean_metrics([a, b])
        assert m.accuracy == pytest.approx((a.accuracy + b.accuracy) / 2)
        assert m.macro_f1 == pytest.approx((a.macro_f1 + b.macro_f1) / 2)
        assert m.f1[0] == pytest.approx((a.f1[0] + b.f1[0]) / 2)

    def test_mean_metrics_averages_every_field(self):
        rng = derive_rng(9, "reports")
        reports = [
            MetricsReport(("A", "B"), **{
                f.name: tuple(rng.random(2)) if f.type == "tuple[float, ...]"
                else float(rng.random())
                for f in fields(MetricsReport) if f.name != "labels"
            })
            for _ in range(3)
        ]
        m = mean_metrics(reports)
        assert m.labels == ("A", "B")
        for f in fields(MetricsReport)[1:]:
            want = np.mean([getattr(r, f.name) for r in reports], axis=0)
            assert np.array(getattr(m, f.name)).tolist() == want.tolist(), f.name

    def test_mean_metrics_label_mismatch(self):
        a = score_labels(["A"], ["A"], labels=["A", "B"])
        b = score_labels(["A"], ["A"], labels=["A", "C"])
        with pytest.raises(UsageError):
            mean_metrics([a, b])


class TestKappa:
    def test_worked_example(self):
        assert cohens_kappa(list("AAAB"), list("AABB")) == pytest.approx(0.5)

    def test_perfect_agreement(self):
        assert cohens_kappa(list("ABAB"), list("ABAB")) == 1.0

    def test_chance_only_agreement_is_zero(self):
        # marginals uniform, observed agreement exactly chance level
        a = ["A", "A", "B", "B"]
        b = ["A", "B", "A", "B"]
        assert cohens_kappa(a, b) == pytest.approx(0.0)

    def test_degenerate_marginals_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cohens_kappa(["A", "A"], ["A", "A"]) == 1.0
        assert any("degenerate" in str(w.message) for w in caught)

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            cohens_kappa(["A"], ["A", "B"])

    def test_symmetry(self):
        rng = derive_rng(2, "sym")
        for _ in range(20):
            n = int(rng.integers(2, 30))
            a = [str(i) for i in rng.integers(0, 3, size=n)]
            b = [str(i) for i in rng.integers(0, 3, size=n)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert cohens_kappa(a, b) == pytest.approx(
                    cohens_kappa(b, a), abs=1e-12)


class TestConfig:
    def base(self, **over):
        raw = {"dataset": "d.csv", "subtask": 1}
        raw.update(over)
        return raw

    def test_defaults(self, tmp_path):
        cfg = config_from_dict(self.base(), str(tmp_path))
        assert cfg.features == ("tfidf",)
        assert cfg.folds == 5
        assert cfg.seed == 0
        assert cfg.scaling == "none"

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="unknown"):
            config_from_dict(self.base(model="lr"), str(tmp_path))

    @pytest.mark.parametrize("patch", [
        {"subtask": 4},
        {"features": ["pca"]},
        {"models": ["xgboost"]},
        {"folds": 1},
        {"scaling": "minmax"},
        {"tfidf": {"min_df": 0}},
        {"tfidf": {"vocab_size": 10}},
    ])
    def test_invalid_values_rejected(self, tmp_path, patch):
        with pytest.raises(UsageError):
            config_from_dict(self.base(**patch), str(tmp_path))

    def test_tfidf_defaults_are_the_applied_ones(self, tmp_path):
        texts = make_support_corpus(60, seed=1).texts()
        pc = preprocess_config(ExperimentConfig("d.csv", 1))
        for tfidf, applied in [({}, (2, 20000)), ({"min_df": 1}, (1, 20000)),
                               ({"max_features": 50}, (2, 50))]:
            cfg = config_from_dict(self.base(tfidf=tfidf), str(tmp_path))
            vectorizer = fit_features(text_batch(texts, pc, cfg.features, LexiconSet()), cfg)[0]
            assert (vectorizer.min_df, vectorizer.max_features) == applied

    @pytest.mark.parametrize("tfidf", [
        {"max_features": None},
        {"min_df": None},
        {"max_features": 0},
        {"max_features": "100"},
        {"min_df": 1.5},
    ])
    def test_tfidf_values_rejected_at_config_time(self, tmp_path, tfidf):
        with pytest.raises(UsageError, match="tfidf"):
            config_from_dict(self.base(tfidf=tfidf), str(tmp_path))

    def test_lexicon_feature_requires_path(self, tmp_path):
        with pytest.raises(UsageError, match="liwc"):
            config_from_dict(self.base(features=["liwc"]), str(tmp_path))
        with pytest.raises(UsageError, match="emotion"):
            config_from_dict(self.base(features=["emotion"]), str(tmp_path))
        with pytest.raises(UsageError, match="sentiment"):
            config_from_dict(self.base(features=["sentiment"]), str(tmp_path))

    def test_paths_resolved_relative_to_config(self, tmp_path):
        cfg_file = tmp_path / "sub" / "exp.json"
        cfg_file.parent.mkdir()
        cfg_file.write_text(json.dumps({"dataset": "../data.csv", "subtask": 1}))
        cfg = load_experiment_config(str(cfg_file))
        assert cfg.dataset == str(tmp_path / "data.csv")

    def test_base_members_resolution(self):
        cfg = ExperimentConfig("d.csv", 1, models=("soft_vote",))
        assert cfg.base_members() == ("lr", "svm_linear", "svm_rbf", "dt", "rf")
        cfg = ExperimentConfig("d.csv", 1, models=("lr", "dt", "soft_vote"))
        assert cfg.base_members() == ("lr", "dt")
        cfg = replace(cfg, ensemble_members=("svm_rbf", "rf"))
        assert cfg.base_members() == ("svm_rbf", "rf")


@pytest.fixture(scope="module")
def cv_setup(tmp_path_factory):
    """One moderately sized cv run shared by the structural assertions."""
    tmp = tmp_path_factory.mktemp("cv")
    from ssd.corpus import write_dataset

    ds = make_support_corpus(150, seed=11)
    data = tmp / "data.csv"
    write_dataset(ds, str(data))
    raw = {
        "dataset": str(data),
        "subtask": 1,
        "features": ["tfidf"],
        "models": ["lr", "dt", "soft_vote"],
        "folds": 5,
        "seed": 3,
        "tfidf": {"min_df": 1},
    }
    cfg = config_from_dict(raw, str(tmp))
    report = cross_validate(cfg, ds)
    return {"cfg": cfg, "ds": ds, "report": report, "tmp": tmp}


class TestCrossValidation:
    def test_report_structure(self, cv_setup):
        report = cv_setup["report"]
        assert report.classes == ("SS", "NSS")
        assert report.n_items == 150
        assert list(report.models) == ["lr", "dt", "soft_vote"]
        for mr in report.models.values():
            assert len(mr.folds) == 5
            assert mr.mean.labels == ("SS", "NSS")
        assert len(report.fold_fingerprints) == 5

    def test_separation_quality(self, cv_setup):
        # the corpus is plantedly separable, so lr should be near-perfect
        lr = cv_setup["report"].models["lr"]
        assert lr.mean.macro_f1 >= 0.9

    def test_mean_is_unweighted_fold_mean(self, cv_setup):
        for mr in cv_setup["report"].models.values():
            expect = np.mean([f.metrics.macro_f1 for f in mr.folds])
            assert mr.mean.macro_f1 == pytest.approx(expect, abs=1e-12)
            expect = np.mean([f.metrics.accuracy for f in mr.folds])
            assert mr.mean.accuracy == pytest.approx(expect, abs=1e-12)

    def test_folds_partition_dataset(self, cv_setup):
        report = cv_setup["report"]
        sizes = [fp["test_size"] for fp in report.fold_fingerprints]
        assert sum(sizes) == report.n_items
        summed = summed_confusion(report.models["lr"])
        assert int(summed.counts.sum()) == report.n_items

    def test_no_test_leakage_into_tfidf(self, cv_setup):
        """Fold tfidf fingerprints must match fitting on the train split only."""
        from ssd.corpus import stage_view, stratified_kfold_labels
        from ssd.features import fit_tfidf
        from ssd.util import fingerprint

        cfg, ds = cv_setup["cfg"], cv_setup["ds"]
        view = stage_view(ds, 1)
        texts, labels = view.texts(), view.labels(1)
        pcfg = preprocess_config(cfg)
        folds = stratified_kfold_labels(labels, cfg.folds, cfg.seed)
        for (train_idx, _), fp in zip(folds, cv_setup["report"].fold_fingerprints):
            train_streams = [normalize(texts[j], pcfg) for j in train_idx]
            tfidf = fit_tfidf(train_streams, min_df=1)
            expect = fingerprint(
                {"vocabulary": tfidf.vocabulary, "idf": list(tfidf.idf)})
            assert fp["tfidf"] == expect

    def test_deterministic(self, cv_setup):
        cfg, ds = cv_setup["cfg"], cv_setup["ds"]
        again = cross_validate(cfg, ds)
        assert again.to_json_dict() == cv_setup["report"].to_json_dict()

    def test_zscore_with_tfidf_only_runs_and_scales_nothing(self, cv_setup):
        cfg = replace(cv_setup["cfg"], models=("lr", "soft_vote"))
        scaled = cross_validate(replace(cfg, scaling="zscore"), cv_setup["ds"])
        plain = cross_validate(cfg, cv_setup["ds"])
        # the dense part is empty, so z-scoring leaves every fold unchanged
        assert scaled.to_json_dict()["models"] == plain.to_json_dict()["models"]
        for fp in scaled.fold_fingerprints:
            assert "scaler" in fp

    def test_seed_changes_results(self, cv_setup):
        cfg = replace(cv_setup["cfg"], seed=4)
        other = cross_validate(cfg, cv_setup["ds"])
        assert other.to_json_dict() != cv_setup["report"].to_json_dict()


class TestOneFitPath:
    def test_fold_scores_what_fit_pipeline_ships(self, lexicon_files, monkeypatch):
        """A cv fold predicts, for every model, the labels that a pipeline
        fitted on the fold's training texts predicts on its test texts."""
        import ssd.evaluation as ev
        from ssd.corpus import (
            Dataset, DatasetItem, HierLabel, stage_view, stratified_kfold_labels,
        )
        from ssd.pipeline import fit_pipeline, predict_pipeline

        # flipped labels make the members disagree, so a vote depends on
        # which members it has
        rng = derive_rng(31, "flip")
        ds = Dataset(tuple(
            DatasetItem(it.comment, HierLabel(
                "NSS" if it.label.support == "SS" else "SS"))
            if rng.random() < 0.3 else it
            for it in make_support_corpus(100, seed=31).items
        ))
        cfg = config_from_dict({
            "dataset": "d.csv", "subtask": 1,
            "features": ["liwc", "emotion", "sentiment", "tfidf"],
            "scaling": "zscore", "lexicons": lexicon_files, "seed": 6,
            # a listed subset of base models: voters must vote over these
            "models": ["lr", "svm_linear", "dt", "soft_vote", "hard_vote"],
            "hyperparameters": {"svm_linear": {"max_iter": 50}},
        })
        scored = []
        original = ev.confusion_matrix
        monkeypatch.setattr(ev, "confusion_matrix", lambda t, p, labels=None: (
            scored.append(list(p)) or original(t, p, labels)))
        cross_validate(cfg, ds)

        view = stage_view(ds, 1)
        texts, labels = view.texts(), view.labels(1)
        train_idx, test_idx = stratified_kfold_labels(labels, cfg.folds, cfg.seed)[0]
        lex = load_lexicons(cfg)
        for name, fold0 in zip(cfg.models, scored):
            p = fit_pipeline([texts[i] for i in train_idx],
                             [labels[i] for i in train_idx], cfg,
                             model_name=name, lexicons=lex, fold_tag=("fold", 0))
            got, _ = predict_pipeline(p, [texts[i] for i in test_idx])
            assert got == fold0, name


    def test_fold_scores_each_base_model_once(self, monkeypatch):
        """Per fold, each base model is scored by one `predict_proba` call,
        whether it is listed, a voter's member or both; the voters combine
        those scores and are never scored themselves."""
        import ssd.models as M

        cfg = config_from_dict({
            "dataset": "d.csv", "subtask": 1, "features": ["tfidf"],
            "models": ["soft_vote", "lr", "hard_vote"],
            "ensemble_members": ["lr", "dt", "rf"],
            "folds": 3, "seed": 2, "tfidf": {"min_df": 1},
            "hyperparameters": {"rf": {"n_trees": 3}},
        })
        calls = []
        original = M.predict_proba
        monkeypatch.setattr(M, "predict_proba",
                            lambda m, X: calls.append(m) or original(m, X))
        cross_validate(cfg, make_support_corpus(60, seed=12))
        assert all(isinstance(m, M.TrainedModel) for m in calls)
        assert sorted(m.spec.family for m in calls) == sorted(["lr", "dt", "rf"] * 3)


class TestArtifacts:
    def test_written_files_and_rerun_identity(self, cv_setup, tmp_path):
        report = cv_setup["report"]
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        write_cv_artifacts(report, str(out1))
        fresh = cross_validate(cv_setup["cfg"], cv_setup["ds"])
        write_cv_artifacts(fresh, str(out2))
        for name in ["report.json", "report.md", "confusion_lr.csv",
                     "confusion_dt.csv", "confusion_soft_vote.csv"]:
            assert (out1 / name).exists()
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / "timing.json").exists()

    def test_report_json_has_no_wall_clock(self, cv_setup, tmp_path):
        out = tmp_path / "art"
        write_cv_artifacts(cv_setup["report"], str(out))
        payload = json.loads((out / "report.json").read_text())
        assert "timings" not in payload
        assert json.loads((out / "timing.json").read_text())

    def test_markdown_columns(self, cv_setup):
        md = render_report_markdown(cv_setup["report"])
        header = next(l for l in md.splitlines() if l.startswith("| Model"))
        for col in ["Precision (weighted)", "Recall (weighted)",
                    "F1 (weighted)", "Precision (macro)", "Recall (macro)",
                    "F1 (macro)", "Accuracy"]:
            assert col in header
        for name in ["lr", "dt", "soft_vote"]:
            assert f"| {name} " in md

    def test_config_echo_holds_every_key_but_output_dir(self, cv_setup):
        cfg, echo = cv_setup["cfg"], cv_setup["report"].config
        assert set(echo) == set(CONFIG_FIELDS) - {"output_dir"}
        assert echo["tfidf"] == {"min_df": 1}
        assert echo["ensemble_members"] == ["lr", "dt"]
        # runs under other settings echo them; a run into another directory does not
        for changed in ({"tfidf_params": {"min_df": 2}}, {"preprocess_overrides": {"stem": False}},
                        {"hyperparameters": {"lr": {"C": 0.5}}}):
            assert _config_echo(replace(cfg, **changed)) != echo, changed
        assert _config_echo(replace(cfg, output_dir="elsewhere")) == echo

    def test_report_json_round_trips_canonically(self, cv_setup):
        payload = cv_setup["report"].to_json_dict()
        text = canonical_json(payload)
        assert json.loads(text) == payload
        assert canonical_json(json.loads(text)) == text


class TestProfile:
    def test_matches_independent_recomputation(self, lexicon_files):
        ds = make_support_corpus(20, seed=9, hierarchical=True)
        cfg = ExperimentConfig(
            "d.csv", 1,
            features=("liwc", "emotion", "sentiment"),
            lexicon_paths={k: lexicon_files[k] for k in
                           ("category", "emotion", "valence")},
        )
        lex = load_lexicons(cfg)
        prof = profile_features(ds, lex, subtask=1)
        assert prof.labels == ("SS", "NSS")

        from ssd.corpus import stage_view
        from ssd.features import emotion_features, liwc_features, sentiment_scores

        view = stage_view(ds, 1)
        texts, labels = view.texts(), view.labels(1)
        pcfg = preprocess_config(cfg)
        streams = [normalize(t, pcfg) for t in texts]
        rows = {
            "liwc": np.array([liwc_features(s, lex.category) for s in streams]),
            "emotion": np.array([emotion_features(s, lex.emotion)
                                 for s in streams]),
            "sentiment": np.array([sentiment_scores(s, lex.valence)
                                   for s in streams]),
        }
        for block, (names, table) in prof.blocks.items():
            mat = np.asarray(table)
            assert mat.shape == (2, len(names))
            for li, lab in enumerate(prof.labels):
                mask = np.array([l == lab for l in labels])
                expect = rows[block][mask].mean(axis=0)
                assert np.allclose(mat[li], expect, atol=1e-12)

    def test_text_rendering(self, lexicon_files):
        ds = make_support_corpus(20, seed=9)
        cfg = ExperimentConfig(
            "d.csv", 1, features=("liwc",),
            lexicon_paths={"category": lexicon_files["category"]},
        )
        prof = profile_features(ds, load_lexicons(cfg), subtask=1)
        text = prof.to_text()
        assert "Category features" in text
        assert "SS" in text and "NSS" in text

    def test_json_shape(self, lexicon_files):
        ds = make_support_corpus(20, seed=9)
        cfg = ExperimentConfig(
            "d.csv", 1, features=("sentiment",),
            lexicon_paths={"valence": lexicon_files["valence"]},
        )
        prof = profile_features(ds, load_lexicons(cfg), subtask=1)
        payload = prof.to_json_dict()
        assert payload["subtask"] == 1
        assert payload["labels"] == ["SS", "NSS"]
        assert sum(payload["counts"]) == 20
        assert set(payload["blocks"]["sentiment"]["means"]) == {"SS", "NSS"}
