"""Correctness checks for the benchmark's outputs.

Every check is recomputed here from the generator's ground truth or from a
property the method must have; none compares against saved output. Each
check returns a list of problems (empty when the output is correct), and
works on plain Python values so that `selftest.py` can feed it corrupted
outputs. A prediction is the tuple (support, target, group, p1, p2, p3).
"""

from __future__ import annotations

import math

SUPPORT = ("SS", "NSS")
TARGETS = ("Individual", "Group")
GROUPS = ("Nation", "Religion", "BlackCommunity", "LGBTQ", "Women", "Other")
TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def oracle_scores(counts: list[list[int]]) -> dict:
    """Per-class and averaged precision/recall/F1 and accuracy from a
    confusion matrix (rows true, columns predicted); 0/0 counts as 0."""
    k = len(counts)
    support = [sum(row) for row in counts]
    predicted = [sum(counts[r][c] for r in range(k)) for c in range(k)]
    total = sum(support)
    precision, recall, f1 = [], [], []
    for c in range(k):
        tp = counts[c][c]
        p = tp / predicted[c] if predicted[c] else 0.0
        r = tp / support[c] if support[c] else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
    weights = [s / total if total else 0.0 for s in support]
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "support": [float(s) for s in support],
        "accuracy": sum(counts[c][c] for c in range(k)) / total if total else 0.0,
        "macro": {"precision": sum(precision) / k, "recall": sum(recall) / k,
                  "f1": sum(f1) / k},
        "weighted": {
            "precision": sum(p * w for p, w in zip(precision, weights)),
            "recall": sum(r * w for r, w in zip(recall, weights)),
            "f1": sum(f * w for f, w in zip(f1, weights)),
        },
    }


def _compare_metrics(where: str, got: dict, want: dict) -> list[str]:
    problems = []
    for key in ("precision", "recall", "f1", "support"):
        if len(got[key]) != len(want[key]) or not all(
                _close(a, b) for a, b in zip(got[key], want[key])):
            problems.append(f"{where}: {key} {got[key]} != oracle {want[key]}")
    if not _close(got["accuracy"], want["accuracy"]):
        problems.append(f"{where}: accuracy {got['accuracy']} != oracle {want['accuracy']}")
    for avg in ("macro", "weighted"):
        for key in ("precision", "recall", "f1"):
            if not _close(got[avg][key], want[avg][key]):
                problems.append(f"{where}: {avg} {key} {got[avg][key]} != "
                                f"oracle {want[avg][key]}")
    return problems


def check_cv_report(report: dict, truth: list[str], folds: list[tuple[list, list]],
                    floor: float) -> list[str]:
    """A cv report.json against the generator's labels and the folds:
    every fold's scores follow from its confusion counts, the fold means
    are the means of the folds, the test folds partition the corpus, each
    fold's confusion rows hold exactly the true labels of its test items,
    and every model's mean macro-F1 clears `floor`."""
    problems = []
    n = len(truth)
    tests = [set(test) for _, test in folds]
    if sum(len(t) for t in tests) != n or set().union(*tests) != set(range(n)):
        problems.append("test folds do not partition the corpus")
    for i, (train, test) in enumerate(folds):
        if set(train) & set(test) or len(train) + len(test) != n:
            problems.append(f"fold {i}: train and test overlap or miss items")
    if report["n_items"] != n:
        problems.append(f"report has {report['n_items']} items, corpus has {n}")
    classes = report["classes"]
    for name, result in report["models"].items():
        if len(result["folds"]) != len(folds):
            problems.append(f"{name}: {len(result['folds'])} folds, expected {len(folds)}")
            continue
        per_fold = []
        for i, fold in enumerate(result["folds"]):
            counts = fold["confusion"]
            want_rows = [sum(1 for j in folds[i][1] if truth[j] == c) for c in classes]
            if [sum(row) for row in counts] != want_rows:
                problems.append(f"{name} fold {i}: confusion rows {counts} do not "
                                f"hold the true labels {want_rows}")
            oracle = oracle_scores(counts)
            problems += _compare_metrics(f"{name} fold {i}", fold["metrics"], oracle)
            per_fold.append(fold["metrics"])
        mean = result["mean"]
        for avg in ("macro", "weighted"):
            for key in ("precision", "recall", "f1"):
                want = sum(m[avg][key] for m in per_fold) / len(per_fold)
                if not _close(mean[avg][key], want):
                    problems.append(f"{name}: mean {avg} {key} is not the fold mean")
        if not _close(mean["accuracy"], sum(m["accuracy"] for m in per_fold) / len(per_fold)):
            problems.append(f"{name}: mean accuracy is not the fold mean")
        if mean["macro"]["f1"] < floor:
            problems.append(f"{name}: mean macro-F1 {mean['macro']['f1']:.4f} < floor {floor}")
    return problems


def label_counts(rows) -> dict:
    """Per-stage label counts of generator rows (id, text, support, target, group)."""
    out = {"subtask1": dict.fromkeys(SUPPORT, 0), "subtask2": dict.fromkeys(TARGETS, 0),
           "subtask3": dict.fromkeys(GROUPS, 0)}
    for _, _, support, target, group in rows:
        out["subtask1"][support] += 1
        if target:
            out["subtask2"][target] += 1
        if group:
            out["subtask3"][group] += 1
    return out


def check_stats(stats: dict, rows) -> list[str]:
    want = label_counts(rows)
    return [f"{key}: stats {stats[key]} != generator {want[key]}"
            for key in want if stats.get(key) != want[key]]


def check_loss_traces(traces: list[list[float]]) -> list[str]:
    problems = []
    for k, trace in enumerate(traces):
        for t in range(1, len(trace)):
            if trace[t] > trace[t - 1]:
                problems.append(f"loss trace {k} rises at step {t}: "
                                f"{trace[t - 1]} -> {trace[t]}")
                break
    return problems


def check_same_predictions(a: list[tuple], b: list[tuple], what: str) -> list[str]:
    if len(a) != len(b):
        return [f"{what}: {len(a)} vs {len(b)} predictions"]
    for i, (x, y) in enumerate(zip(a, b)):
        if x[:3] != y[:3] or any(
                (p is None) != (q is None) or (p is not None and not _close(p, q))
                for p, q in zip(x[3:], y[3:])):
            return [f"{what}: item {i} differs: {x} vs {y}"]
    return []


def check_valid_labels(preds: list[tuple]) -> list[str]:
    """Complete hierarchical labels: NSS alone, SS with a target, Group with
    one of the six communities, Individual without one; a probability for
    each stage reached and none for the others, each in (0, 1]."""
    problems = []
    for i, (support, target, group, p1, p2, p3) in enumerate(preds):
        ok = (
            (support == "NSS" and target is None and group is None)
            or (support == "SS" and target == "Individual" and group is None)
            or (support == "SS" and target == "Group" and group in GROUPS)
        )
        if not ok:
            problems.append(f"item {i}: illegal label {(support, target, group)}")
        reached = (True, support == "SS", target == "Group")
        for stage, (p, hit) in enumerate(zip((p1, p2, p3), reached), start=1):
            if hit and (p is None or not (0.0 < p <= 1.0) or math.isnan(p)):
                problems.append(f"item {i}: stage-{stage} probability {p} outside (0, 1]")
            if not hit and p is not None:
                problems.append(f"item {i}: stage-{stage} probability for an unreached stage")
        if len(problems) > 20:
            break
    return problems


def check_stage_items(stage_items: tuple[int, int, int], preds: list[tuple]) -> list[str]:
    """Stage 1 sees every text, stage 2 exactly those labeled SS, stage 3
    exactly those labeled Group."""
    want = (len(preds), sum(p[0] == "SS" for p in preds), sum(p[1] == "Group" for p in preds))
    if tuple(stage_items) != want:
        return [f"stage items {tuple(stage_items)} != (all, SS, Group) {want}"]
    return []


def accuracy(preds: list[tuple], rows) -> float:
    """Exact match of the full hierarchical label against the generator's
    truth for the first len(preds) rows."""
    return sum(p[:3] == tuple(r[2:5]) for p, r in zip(preds, rows)) / len(preds)


def check_accuracy(preds: list[tuple], rows, floor: float) -> list[str]:
    if not preds or len(preds) > len(rows):
        return [f"{len(preds)} predictions for {len(rows)} labeled rows"]
    acc = accuracy(preds, rows)
    return [] if acc >= floor else [f"exact-match accuracy {acc:.4f} < floor {floor}"]
