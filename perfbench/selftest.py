"""Tests of the benchmark's own correctness checks: each check passes on a
correct output made by the program and fails once that output is
corrupted. Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def _cv_report(tmp: Path):
    """A real report.json for a small planted corpus, with its folds."""
    from ssd import corpus, evaluation, pipeline

    rows = gen.desk_corpus(120, seed=3)
    gen.write_csv(rows, str(tmp / "desk.csv"))
    cfg = pipeline.ExperimentConfig(str(tmp / "desk.csv"), 1, models=("lr", "dt"),
                                    folds=3, seed=3)
    report = evaluation.cross_validate(cfg, corpus.load_dataset(cfg.dataset))
    evaluation.write_cv_artifacts(report, str(tmp / "out"))
    parsed = json.loads((tmp / "out" / "report.json").read_text())
    truth = [r[2] for r in rows]
    return parsed, truth, corpus.stratified_kfold_labels(truth, 3, 3)


def _cascade_outputs(tmp: Path):
    """Batch and single-text predictions of a small cascade, and the
    number of texts each stage saw."""
    from ssd import cascade, corpus, pipeline

    rows = gen.desk_corpus(300, seed=4)
    gen.write_csv(rows, str(tmp / "fit.csv"))
    lex = gen.write_desk_lexicons(str(tmp))
    cfg = pipeline.ExperimentConfig(str(tmp / "fit.csv"), 1,
                                    features=("liwc", "emotion", "sentiment", "tfidf"),
                                    scaling="zscore", lexicon_paths=lex)
    model = cascade.train_cascade(corpus.load_dataset(cfg.dataset), cfg)
    unseen = gen.desk_corpus(200, seed=4, stream="unseen")
    texts = [r[1] for r in unseen]
    batch, items = run.predict_counted(model, texts)
    singles = [run.as_tuple(cascade.cascade_predict(model, t)) for t in texts[:20]]
    return (batch, singles, items, unseen,
            [st.model.state["loss_traces"] for st in model.stages()])


class ChecksFailOnCorruptOutput(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory()
        tmp = Path(cls._tmp.name)
        cls.report, cls.truth, cls.folds = _cv_report(tmp)
        (cls.batch, cls.singles, cls.items, cls.unseen,
         cls.traces) = _cascade_outputs(tmp)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def cv(self, report=None, folds=None, floor=0.8):
        return checks.check_cv_report(report or self.report, self.truth,
                                      folds or self.folds, floor)

    def test_cv_report_passes_as_written(self):
        self.assertEqual(self.cv(), [])

    def test_swapped_confusion_cells_fail_the_oracle(self):
        report = copy.deepcopy(self.report)
        cm = report["models"]["lr"]["folds"][0]["confusion"]
        cm[0][0], cm[0][1] = cm[0][1], cm[0][0]
        self.assertTrue(self.cv(report))

    def test_moved_confusion_count_fails_the_true_label_rows(self):
        report = copy.deepcopy(self.report)
        fold = report["models"]["dt"]["folds"][1]
        cm = fold["confusion"]
        cm[0][1] += 1
        cm[1][0] -= 1
        self.assertTrue(any("true labels" in p for p in self.cv(report)))

    def test_edited_score_fails_the_oracle(self):
        report = copy.deepcopy(self.report)
        report["models"]["lr"]["folds"][2]["metrics"]["macro"]["f1"] += 0.01
        self.assertTrue(self.cv(report))

    def test_edited_mean_fails(self):
        report = copy.deepcopy(self.report)
        report["models"]["dt"]["mean"]["accuracy"] -= 0.01
        self.assertTrue(self.cv(report))

    def test_overlapping_folds_fail_the_partition(self):
        folds = copy.deepcopy(self.folds)
        folds[0][1].append(folds[1][1][0])
        self.assertTrue(any("partition" in p for p in self.cv(folds=folds)))

    def test_macro_f1_floor(self):
        self.assertTrue(any("floor" in p for p in self.cv(floor=1.01)))

    def test_stats_against_generator_counts(self):
        rows = gen.desk_corpus(50, seed=1)
        stats = checks.label_counts(rows)
        self.assertEqual(checks.check_stats(stats, rows), [])
        stats["subtask2"]["Group"] += 1
        self.assertTrue(checks.check_stats(stats, rows))

    def test_loss_traces(self):
        for traces in self.traces:
            self.assertEqual(checks.check_loss_traces(traces), [])
        bad = [list(t) for t in self.traces[0]]
        bad[0][5] = bad[0][4] + 1e-3
        self.assertTrue(checks.check_loss_traces(bad))

    def test_labels_and_probabilities(self):
        self.assertEqual(checks.check_valid_labels(self.batch), [])
        for corrupt in (
            ("NSS", "Group", None, 0.9, None, None),
            ("SS", "Individual", "Women", 0.9, 0.8, None),
            ("SS", "Group", "Martians", 0.9, 0.8, 0.7),
            ("SS", None, None, 0.9, None, None),
            ("NSS", None, None, 0.0, None, None),
            ("NSS", None, None, 0.9, 0.5, None),
            ("SS", "Group", "Women", 0.9, 1.5, 0.7),
        ):
            self.assertTrue(checks.check_valid_labels(self.batch[:3] + [corrupt]), corrupt)

    def test_batch_and_single_agree(self):
        n = len(self.singles)
        self.assertEqual(checks.check_same_predictions(self.batch[:n], self.singles, "x"), [])
        changed = list(self.singles)
        changed[3] = changed[3][:3] + (changed[3][3] * 0.99,) + changed[3][4:]
        self.assertTrue(checks.check_same_predictions(self.batch[:n], changed, "x"))
        relabeled = list(self.singles)
        relabeled[0] = ("NSS" if relabeled[0][0] == "SS" else "SS",) + relabeled[0][1:]
        self.assertTrue(checks.check_same_predictions(self.batch[:n], relabeled, "x"))

    def test_stage_items(self):
        self.assertEqual(checks.check_stage_items(self.items, self.batch), [])
        self.assertTrue(checks.check_stage_items(
            (self.items[0], self.items[1] + 1, self.items[2]), self.batch))

    def test_accuracy_floor(self):
        self.assertEqual(checks.check_accuracy(self.batch, self.unseen, 0.5), [])
        flipped = [("NSS", None, None, 1.0, None, None) if p[0] == "SS"
                   else ("SS", "Individual", None, 1.0, 1.0, None) for p in self.batch]
        self.assertTrue(checks.check_accuracy(flipped, self.unseen, 0.5))


if __name__ == "__main__":
    unittest.main()
