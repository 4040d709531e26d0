"""Acceptance gate: ten end-to-end checks, each printing one PASS/FAIL line.

Every oracle here is recomputed from first principles inside this file so a
regression in the library cannot hide behind shared helpers.
"""

import json
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from ssd.cascade import cascade_predict_batch, train_cascade
from ssd.cli import main
from ssd.corpus import (
    Comment,
    Dataset,
    DatasetItem,
    HierLabel,
    stratified_kfold_labels,
    write_dataset,
)
from ssd.errors import SsdError
from ssd.evaluation import (
    ConfusionMatrix,
    cohens_kappa,
    cross_validate,
    prf_scores,
    render_report_markdown,
    score_labels,
)
from ssd.features import fit_tfidf, transform_tfidf
from ssd.models import (
    TrainedModel,
    lr_objective_grad,
    make_spec,
    make_voting,
    predict,
    predict_proba,
    train_dt,
    train_lr,
    train_rf,
    train_svm_linear,
    train_svm_rbf,
)
from ssd.pipeline import ExperimentConfig
from ssd.preprocess import default_config, normalize
from ssd.util import derive_rng

from conftest import (
    CATEGORY_DIC,
    EMOTION_TSV,
    VALENCE_TSV,
    make_support_corpus,
)


@pytest.fixture
def announce(capsys):
    """Prints exactly one PASS/FAIL line per criterion, capture or not."""

    @contextmanager
    def crit(number, description):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {number}: FAIL - {description}")
            raise
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: PASS - {description} "
                  f"({elapsed:.2f}s)")

    return crit


def ts(*tokens):
    return tuple(tokens)


# ---------------------------------------------------------------------------
# independent oracles


def oracle_prf(y_true, y_pred, labels):
    per = {}
    for lab in labels:
        tp = sum(t == lab and p == lab for t, p in zip(y_true, y_pred))
        fp = sum(t != lab and p == lab for t, p in zip(y_true, y_pred))
        fn = sum(t == lab and p != lab for t, p in zip(y_true, y_pred))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per[lab] = (prec, rec, f1, sum(t == lab for t in y_true))
    n = len(y_true)
    acc = sum(t == p for t, p in zip(y_true, y_pred)) / n
    macro = tuple(
        sum(per[lab][i] for lab in labels) / len(labels) for i in range(3)
    )
    weighted = tuple(
        sum(per[lab][i] * per[lab][3] for lab in labels) / n for i in range(3)
    )
    return per, acc, macro, weighted


def oracle_kappa(a, b):
    n = len(a)
    labels = sorted(set(a) | set(b))
    po = sum(x == y for x, y in zip(a, b)) / n
    pe = sum((a.count(l) / n) * (b.count(l) / n) for l in labels)
    if pe >= 1 - 1e-15:
        return 1.0 if po >= 1 - 1e-15 else 0.0
    return (po - pe) / (1 - pe)


def test_criterion_01_metric_oracle_suite(announce):
    with announce(1, "metrics and kappa match a brute-force oracle "
                     "on 200 random cases to 1e-12 in under 5s"):
        rng = derive_rng(0, "accept", "metrics")
        start = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(1, 51))
            k = int(rng.integers(2, 7))
            labels = [f"c{i}" for i in range(k)]
            y_true = [labels[i] for i in rng.integers(0, k, size=n)]
            y_pred = [labels[i] for i in rng.integers(0, k, size=n)]
            m = score_labels(y_true, y_pred, labels=labels)
            per, acc, macro, weighted = oracle_prf(y_true, y_pred, labels)
            for i, lab in enumerate(labels):
                assert abs(m.precision[i] - per[lab][0]) <= 1e-12
                assert abs(m.recall[i] - per[lab][1]) <= 1e-12
                assert abs(m.f1[i] - per[lab][2]) <= 1e-12
                assert m.support[i] == per[lab][3]
            assert abs(m.accuracy - acc) <= 1e-12
            assert abs(m.macro_precision - macro[0]) <= 1e-12
            assert abs(m.macro_recall - macro[1]) <= 1e-12
            assert abs(m.macro_f1 - macro[2]) <= 1e-12
            assert abs(m.weighted_precision - weighted[0]) <= 1e-12
            assert abs(m.weighted_recall - weighted[1]) <= 1e-12
            assert abs(m.weighted_f1 - weighted[2]) <= 1e-12
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = cohens_kappa(y_true, y_pred)
            assert abs(got - oracle_kappa(y_true, y_pred)) <= 1e-12
        assert time.perf_counter() - start < 5.0


def test_criterion_02_worked_examples(announce):
    with announce(2, "hand-computed confusion, kappa, and tf-idf values"):
        m = prf_scores(ConfusionMatrix(("A", "B"), np.array([[2, 1], [0, 3]])))
        assert abs(m.macro_f1 - 29 / 35) <= 1e-12
        assert round(m.macro_f1, 4) == 0.8286

        assert abs(cohens_kappa(list("AAAB"), list("AABB")) - 0.5) <= 1e-12

        vec = fit_tfidf([ts("a", "b"), ts("a", "c")], min_df=1)
        idf_rare = math.log((1 + 2) / (1 + 1)) + 1
        assert abs(vec.idf[vec.vocabulary["a"]] - 1.0) <= 1e-9
        assert abs(vec.idf[vec.vocabulary["b"]] - idf_rare) <= 1e-9
        assert abs(vec.idf[vec.vocabulary["c"]] - idf_rare) <= 1e-9
        row = np.asarray(transform_tfidf(vec, ts("a", "b")).todense()).ravel()
        norm = math.hypot(1.0, idf_rare)
        assert abs(row[vec.vocabulary["a"]] - 1.0 / norm) <= 1e-9
        assert abs(row[vec.vocabulary["b"]] - idf_rare / norm) <= 1e-9
        assert abs(row[vec.vocabulary["c"]]) <= 1e-9
        single = np.asarray(transform_tfidf(vec, ts("a", "a")).todense()).ravel()
        assert abs(single[vec.vocabulary["a"]] - 1.0) <= 1e-9


def blobs(n=60, seed=0):
    rng = derive_rng(seed, "accept", "blobs")
    X = np.vstack([
        rng.normal((0.0, 0.0), 0.6, size=(n // 2, 2)),
        rng.normal((6.0, 6.0), 0.6, size=(n // 2, 2)),
    ])
    return X, ["a"] * (n // 2) + ["b"] * (n // 2)


def test_criterion_03_optimizer_correctness(announce):
    with announce(3, "analytic gradients, monotone loss, and multipliers "
                     "inside the box"):
        rng = derive_rng(0, "accept", "fd")
        worst = 0.0
        for _ in range(20):
            n, d = int(rng.integers(4, 12)), int(rng.integers(2, 6))
            X = rng.normal(size=(n, d))
            t = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(size=d)
            b = float(rng.normal())
            _, gw, gb = lr_objective_grad(w, b, X, t, C=1.0)
            eps = 1e-6
            for j in range(d):
                e = np.zeros(d)
                e[j] = eps
                hi, _, _ = lr_objective_grad(w + e, b, X, t, C=1.0)
                lo, _, _ = lr_objective_grad(w - e, b, X, t, C=1.0)
                fd = (hi - lo) / (2 * eps)
                worst = max(worst, abs(fd - gw[j]) / max(1.0, abs(fd)))
            hi, _, _ = lr_objective_grad(w, b + eps, X, t, C=1.0)
            lo, _, _ = lr_objective_grad(w, b - eps, X, t, C=1.0)
            fd = (hi - lo) / (2 * eps)
            worst = max(worst, abs(fd - gb) / max(1.0, abs(fd)))
        assert worst < 1e-5

        X, y = blobs(seed=1)
        lr = train_lr(X, y, make_spec("lr", seed=0))
        for trace in lr.state["loss_traces"]:
            assert (np.diff(trace) <= 1e-12).all()

        for C in (1.0, 2.5):
            svm = train_svm_rbf(X, y, make_spec("svm_rbf", seed=0, C=C))
            for machine in svm.state["machines"]:
                alphas = np.asarray(machine["all_alphas"])
                assert (alphas >= -1e-9).all()
                assert (alphas <= C + 1e-9).all()


def test_criterion_04_capability_separations(announce):
    with announce(4, "linear models fail XOR, nonlinear models solve it, "
                     "all five solve blobs, under 10s"):
        start = time.perf_counter()
        X_xor = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y_xor = ["a", "b", "b", "a"]
        trainers = {
            "lr": train_lr,
            "svm_linear": train_svm_linear,
            "svm_rbf": train_svm_rbf,
            "dt": train_dt,
            "rf": train_rf,
        }

        def acc(model, X, y):
            return float(np.mean(np.array(predict(model, X)) == np.array(y)))

        for family in ("lr", "svm_linear"):
            model = trainers[family](X_xor, y_xor, make_spec(family, seed=0))
            assert acc(model, X_xor, y_xor) <= 0.75
        for family in ("svm_rbf", "dt"):
            model = trainers[family](X_xor, y_xor, make_spec(family, seed=0))
            assert acc(model, X_xor, y_xor) == 1.0
        X, y = blobs(seed=2)
        for family, trainer in trainers.items():
            model = trainer(X, y, make_spec(family, seed=0))
            assert acc(model, X, y) == 1.0
        assert time.perf_counter() - start < 10.0


def fixed_binary_lr(p_first):
    """A real lr-family model that outputs (p, 1-p) on the input [[1.0]]."""
    logit = math.log(p_first / (1 - p_first))
    return TrainedModel(
        make_spec("lr", seed=0), ("1", "2"), np.array([0.5, 0.5]), 1,
        {"W": np.array([[logit], [-logit]]), "b": np.zeros(2),
         "present": np.array([True, True])},
    )


def test_criterion_05_ensemble_laws(announce):
    with announce(5, "soft vote is the probability mean and hard-vote ties "
                     "break by prior"):
        X_one = np.array([[1.0]])
        a, b = fixed_binary_lr(0.9), fixed_binary_lr(0.2)
        assert np.allclose(predict_proba(a, X_one), [[0.9, 0.1]], atol=1e-12)
        assert np.allclose(predict_proba(b, X_one), [[0.2, 0.8]], atol=1e-12)
        vm = make_voting("soft", [a, b])
        assert np.allclose(predict_proba(vm, X_one), [[0.55, 0.45]],
                           atol=1e-12)
        assert predict(vm, X_one) == ["1"]

        X, y = blobs(n=30, seed=3)
        members = [
            train_lr(X, y, make_spec("lr", seed=0)),
            train_dt(X, y, make_spec("dt", seed=0)),
            train_rf(X, y, make_spec("rf", seed=0, n_trees=5)),
        ]
        soft = make_voting("soft", members)
        expected = np.mean([predict_proba(m, X) for m in members], axis=0)
        assert np.allclose(predict_proba(soft, X), expected, atol=1e-12)
        reversed_vm = make_voting("soft", members[::-1])
        assert np.allclose(predict_proba(soft, X),
                           predict_proba(reversed_vm, X), atol=1e-12)
        solo = make_voting("soft", members[:1])
        assert np.allclose(predict_proba(solo, X),
                           predict_proba(members[0], X), atol=1e-12)

        # tied 1-1 hard vote: the class with the larger prior wins
        skew_hi = TrainedModel(
            make_spec("lr", seed=0), ("1", "2"), np.array([0.2, 0.8]), 1,
            fixed_binary_lr(0.9).state)
        skew_lo = TrainedModel(
            make_spec("lr", seed=0), ("1", "2"), np.array([0.2, 0.8]), 1,
            fixed_binary_lr(0.2).state)
        hard = make_voting("hard", [skew_hi, skew_lo])
        assert predict(hard, X_one) == ["2"]
        flip_hi = TrainedModel(
            make_spec("lr", seed=0), ("1", "2"), np.array([0.8, 0.2]), 1,
            skew_hi.state)
        flip_lo = TrainedModel(
            make_spec("lr", seed=0), ("1", "2"), np.array([0.8, 0.2]), 1,
            skew_lo.state)
        assert predict(make_voting("hard", [flip_hi, flip_lo]), X_one) == ["1"]


def test_criterion_06_stratification(announce):
    with announce(6, "5-fold splits partition exactly with per-fold class "
                     "counts within 1 of proportional on 100 datasets"):
        rng = derive_rng(0, "accept", "strat")
        for _ in range(100):
            k_classes = int(rng.integers(2, 6))
            n = int(rng.integers(20, 200))
            labels = [f"c{i}" for i in rng.integers(0, k_classes, size=n)]
            for c in range(k_classes):  # every class present at least once
                labels[c] = f"c{c}"
            folds = stratified_kfold_labels(labels, 5, int(rng.integers(0, 99)))
            assert len(folds) == 5
            all_test = sorted(i for _, test in folds for i in test)
            assert all_test == list(range(n))
            for train, test in folds:
                assert sorted(train + test) == list(range(n))
                for c in set(labels):
                    n_c = labels.count(c)
                    got = sum(labels[i] == c for i in test)
                    assert abs(got - n_c / 5) <= 1.0


def test_criterion_07_pipeline_desk_scale(announce):
    with announce(7, "planted 1000-comment corpus: cv macro-F1 >= 0.90 in "
                     "under 60s; cascade valid everywhere and >= 0.85 "
                     "exact-match held out"):
        start = time.perf_counter()
        flat = make_support_corpus(1000, seed=71)
        cfg = ExperimentConfig(
            "in-memory", 1, features=("tfidf",), models=("lr",),
            folds=5, seed=7, tfidf_params={"min_df": 1},
        )
        report = cross_validate(cfg, flat)
        assert report.models["lr"].mean.macro_f1 >= 0.90
        assert time.perf_counter() - start < 60.0

        hier = make_support_corpus(500, seed=72, hierarchical=True)
        cascade = train_cascade(hier, cfg)
        held_out = make_support_corpus(200, seed=73, hierarchical=True)
        preds = cascade_predict_batch(cascade, held_out.texts())
        for p in preds:  # re-validating proves every emitted label is legal
            HierLabel(p.label.support, p.label.target, p.label.group)
        truth = [it.label for it in held_out.items]
        exact = sum(p.label == t for p, t in zip(preds, truth)) / len(preds)
        assert exact >= 0.85


REFERENCE_SUPPORT = {"SS": 2236, "NSS": 7762}
REFERENCE_TARGET = {"Individual": 417, "Group": 1805}
REFERENCE_GROUP = {
    "Nation": 980,
    "Other": 512,
    "LGBTQ": 155,
    "BlackCommunity": 115,
    "Women": 24,
    "Religion": 18,
}


def build_reference_dataset():
    items = []
    i = 0

    def add(label):
        nonlocal i
        items.append(DatasetItem(Comment(f"t{i:05d}", f"text {i}"), label))
        i += 1

    for _ in range(REFERENCE_SUPPORT["NSS"]):
        add(HierLabel("NSS", None, None))
    for _ in range(REFERENCE_TARGET["Individual"]):
        add(HierLabel("SS", "Individual", None))
    for group, count in REFERENCE_GROUP.items():
        for _ in range(count):
            add(HierLabel("SS", "Group", group))
    # the reference marginals do not nest exactly: one grouped item lacks a
    # category label and fourteen supportive items lack a target label
    add(HierLabel("SS", "Group", None))
    for _ in range(14):
        add(HierLabel("SS", None, None))
    return Dataset(tuple(items))


def test_criterion_08_reference_count_and_report_structure(
        announce, tmp_path, capsys):
    with announce(8, "stats reproduces the reference label counts and cv "
                     "reports carry all seven metric columns per model"):
        ds = build_reference_dataset()
        path = tmp_path / "reference.csv"
        write_dataset(ds, str(path))
        assert main(["stats", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["subtask1"] == REFERENCE_SUPPORT
        assert payload["subtask2"] == REFERENCE_TARGET
        assert payload["subtask3"] == REFERENCE_GROUP

        corpus = make_support_corpus(100, seed=81)
        cfg = ExperimentConfig(
            "in-memory", 1, features=("tfidf",),
            models=("lr", "svm_linear", "svm_rbf", "dt", "rf",
                    "soft_vote", "hard_vote"),
            folds=5, seed=8, tfidf_params={"min_df": 1},
            hyperparameters={"rf": {"n_trees": 20}},
        )
        report = cross_validate(cfg, corpus)
        md = render_report_markdown(report)
        header = next(l for l in md.splitlines() if l.startswith("| Model"))
        for column in ("Precision (weighted)", "Recall (weighted)",
                       "F1 (weighted)", "Precision (macro)", "Recall (macro)",
                       "F1 (macro)", "Accuracy"):
            assert column in header
        for name in cfg.models:
            assert f"| {name} " in md
            mr = report.models[name]
            for value in (mr.mean.weighted_precision, mr.mean.weighted_recall,
                          mr.mean.weighted_f1, mr.mean.macro_precision,
                          mr.mean.macro_recall, mr.mean.macro_f1,
                          mr.mean.accuracy):
                assert 0.0 <= value <= 1.0


def test_criterion_09_byte_identical_artifacts(announce, tmp_path, capsys):
    with announce(9, "cv, train, and cascade-train reruns write "
                     "byte-identical JSON artifacts"):
        ds = make_support_corpus(150, seed=91, hierarchical=True)
        data = tmp_path / "data.csv"
        write_dataset(ds, str(data))
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "dataset": str(data), "subtask": 1, "features": ["tfidf"],
            "models": ["lr", "dt"], "folds": 5, "seed": 9,
            "tfidf": {"min_df": 1},
        }))

        for run in ("one", "two"):
            out = tmp_path / f"cv_{run}"
            assert main(["cv", "--config", str(cfg_path),
                         "--output-dir", str(out)]) == 0
            assert main(["train", "--config", str(cfg_path),
                         "--out", str(tmp_path / f"model_{run}.json")]) == 0
            assert main(["cascade-train", "--config", str(cfg_path),
                         "--out", str(tmp_path / f"cascade_{run}.json")]) == 0
        capsys.readouterr()
        assert (tmp_path / "cv_one" / "report.json").read_bytes() == \
            (tmp_path / "cv_two" / "report.json").read_bytes()
        assert (tmp_path / "model_one.json").read_bytes() == \
            (tmp_path / "model_two.json").read_bytes()
        assert (tmp_path / "cascade_one.json").read_bytes() == \
            (tmp_path / "cascade_two.json").read_bytes()


def oracle_liwc(tokens):
    categories = {
        "posemo": ("love", "hope", "bless*", "amaz*"),
        "negemo": ("hate", "aw", "trash"),
        "social": ("bless*", "friend", "commun"),
    }

    def matches(tok, pattern):
        if pattern.endswith("*"):
            return tok.startswith(pattern[:-1])
        return tok == pattern

    out = [float(len(tokens))]
    for patterns in categories.values():
        hits = sum(any(matches(t, p) for p in patterns) for t in tokens)
        out.append(100.0 * hits / len(tokens) if tokens else 0.0)
    return out


def oracle_emotions(tokens):
    table = {
        "love": ("joy",), "hope": ("anticipation",),
        "bless": ("joy", "trust"), "hate": ("anger",),
        "aw": ("disgust",), "trash": ("disgust",),
    }
    order = ("anger", "anticipation", "disgust", "fear", "joy",
             "sadness", "surprise", "trust")
    counts = dict.fromkeys(order, 0.0)
    for tok in tokens:
        for emotion in table.get(tok, ()):
            counts[emotion] += 1.0
    return [counts[e] for e in order]


def oracle_sentiment(tokens, valence):
    neg = neu = pos = 0.0
    for tok in tokens:
        assert tok not in valence.negators and tok not in valence.boosters
        v = valence.entries.get(tok)
        if v is None:
            neu += 1.0
        elif v > 0:
            pos += v + 1.0
        else:
            neg += abs(v) + 1.0
    total = neg + neu + pos
    if total == 0.0:
        return [0.0, 1.0, 0.0]
    return [neg / total, neu / total, pos / total]


def test_criterion_10_profiler_oracle(announce, tmp_path, capsys):
    with announce(10, "profiler tables equal an independent per-comment "
                      "recomputation to 1e-12"):
        (tmp_path / "cats.dic").write_text(CATEGORY_DIC)
        (tmp_path / "emo.tsv").write_text(EMOTION_TSV)
        (tmp_path / "val.tsv").write_text(VALENCE_TSV)
        ds = make_support_corpus(20, seed=101, hierarchical=True)
        data = tmp_path / "toy.csv"
        write_dataset(ds, str(data))
        code = main(["profile", str(data), "--json",
                     "--category", str(tmp_path / "cats.dic"),
                     "--emotion", str(tmp_path / "emo.tsv"),
                     "--valence", str(tmp_path / "val.tsv")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["blocks"]) == {"liwc", "emotion", "sentiment"}

        from ssd.features import load_valence_lexicon

        valence = load_valence_lexicon(str(tmp_path / "val.tsv"))
        pcfg = default_config()
        by_label = {}
        for item in ds.items:
            tokens = normalize(item.comment.text, pcfg)
            by_label.setdefault(item.label.support, []).append(tokens)

        oracles = {
            "liwc": oracle_liwc,
            "emotion": oracle_emotions,
            "sentiment": lambda toks: oracle_sentiment(toks, valence),
        }
        for block, fn in oracles.items():
            means = payload["blocks"][block]["means"]
            for label, streams in by_label.items():
                rows = [fn(toks) for toks in streams]
                expect = [sum(col) / len(rows) for col in zip(*rows)]
                got = means[label]
                assert len(got) == len(expect)
                for g, e in zip(got, expect):
                    assert abs(g - e) <= 1e-12
