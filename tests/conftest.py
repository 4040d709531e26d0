"""Shared fixtures: planted-signal corpora and small lexicon files.

The generators plant vocabulary so that a simple token rule is perfectly
predictive: unsupportive comments always carry negative tokens, supportive
ones never do, and each hierarchy level adds its own flavor tokens. That
makes learned accuracy a property of the implementation, not of luck.
"""

from __future__ import annotations

import json

import pytest

from ssd.corpus import Comment, Dataset, DatasetItem, HierLabel, write_dataset
from ssd.util import derive_rng

SUPPORT_TOKENS = (
    "bless", "hope", "strong", "prayer", "courage", "proud",
    "hero", "beautiful", "amazing", "love", "caring", "respect",
)
NEGATIVE_TOKENS = (
    "hate", "awful", "trash", "ugly", "worst", "stupid",
    "disgusting", "shame", "pathetic", "garbage", "liar", "fraud",
)
FILLER_TOKENS = (
    "video", "music", "channel", "watch", "comment", "people", "world",
    "time", "life", "day", "thing", "moment", "story", "voice", "sound",
    "camera", "clip", "scene", "part", "end",
)
INDIVIDUAL_TOKENS = ("friend", "brother", "sister", "buddy", "neighbor", "teacher")
GROUP_TOKENS = ("community", "everyone", "nation", "folks", "families", "crowd")
GROUP_FLAVOR = {
    "Nation": ("homeland", "country", "flag", "anthem"),
    "Religion": ("faith", "church", "mosque", "temple"),
    "BlackCommunity": ("heritage", "culture", "roots", "ancestors"),
    "LGBTQ": ("pride", "rainbow", "queer", "identity"),
    "Women": ("women", "mothers", "daughters", "girls"),
    "Other": ("planet", "animals", "veterans", "farmers"),
}
GROUP_NAMES = tuple(GROUP_FLAVOR)


def make_support_corpus(
    n: int, seed: int = 0, hierarchical: bool = False
) -> Dataset:
    """Planted corpus: NSS always carries 2-5 negative tokens; SS draws 3-6
    support tokens with probability 0.8 and never a negative one. In
    hierarchical mode SS items also carry target and group flavor tokens."""
    rng = derive_rng(seed, "planted")
    items = []
    for i in range(n):
        words = list(rng.choice(FILLER_TOKENS, size=4))
        if rng.random() < 0.5:
            if rng.random() < 0.8:
                k = int(rng.integers(3, 7))
                words += list(rng.choice(SUPPORT_TOKENS, size=k))
            if hierarchical:
                if rng.random() < 0.6:
                    words += list(rng.choice(GROUP_TOKENS, size=3))
                    group = GROUP_NAMES[int(rng.integers(0, len(GROUP_NAMES)))]
                    words += list(rng.choice(GROUP_FLAVOR[group], size=3))
                    label = HierLabel("SS", "Group", group)
                else:
                    words += list(rng.choice(INDIVIDUAL_TOKENS, size=3))
                    label = HierLabel("SS", "Individual", None)
            else:
                label = HierLabel("SS", None, None)
        else:
            k = int(rng.integers(2, 6))
            words += list(rng.choice(NEGATIVE_TOKENS, size=k))
            label = HierLabel("NSS", None, None)
        rng.shuffle(words)
        items.append(DatasetItem(Comment(f"c{i:05d}", " ".join(words)), label))
    return Dataset(tuple(items))


# entries are written over the stemmed vocabulary the pipeline produces
CATEGORY_DIC = """%
1\tposemo
2\tnegemo
3\tsocial
%
love\t1
hope\t1
bless*\t1\t3
amaz*\t1
hate\t2
aw\t2
trash\t2
friend\t3
commun\t3
"""

EMOTION_TSV = """love\tjoy\t1
hope\tanticipation\t1
bless\tjoy\t1
bless\ttrust\t1
hate\tanger\t1
aw\tdisgust\t1
trash\tdisgust\t1
love\tpositive\t1
"""

VALENCE_TSV = """love\t3.2
hope\t1.9
bless\t2.1
amaz\t2.8
hate\t-2.7
aw\t-2.0
trash\t-2.1
"""


@pytest.fixture
def lexicon_files(tmp_path):
    """Small but realistic lexicons over the planted (stemmed) vocabulary."""
    cat = tmp_path / "cats.dic"
    cat.write_text(CATEGORY_DIC)
    emo = tmp_path / "emo.tsv"
    emo.write_text(EMOTION_TSV)
    val = tmp_path / "val.tsv"
    val.write_text(VALENCE_TSV)
    return {"category": str(cat), "emotion": str(emo), "valence": str(val)}


@pytest.fixture
def corpus_files(tmp_path, lexicon_files):
    """A written planted corpus plus an experiment config for it."""
    ds = make_support_corpus(240, seed=5, hierarchical=True)
    data = tmp_path / "data.csv"
    write_dataset(ds, str(data))
    cfg = {
        "dataset": str(data),
        "subtask": 1,
        "features": ["liwc", "emotion", "sentiment", "tfidf"],
        "models": ["lr"],
        "folds": 5,
        "seed": 7,
        "lexicons": lexicon_files,
        "tfidf": {"min_df": 1},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    return {"dataset": ds, "data_path": str(data), "config_path": str(cfg_path),
            "config": cfg, "tmp": tmp_path}


# ---------------------------------------------------------------------------
# reference text passes: each one `re.sub` of the whole symbol alternation


def oracle_emoji_replacer(emoji_map):
    """The emoji pass as one `re.sub` of the longest-symbol-first alternation."""
    import re

    if not emoji_map:
        return lambda text: text
    pattern = re.compile(
        "|".join(re.escape(s) for s in sorted(emoji_map, key=len, reverse=True)))
    return lambda text: pattern.sub(lambda m: f" {emoji_map[m.group(0)]} ", text)


def oracle_abbrev_expander(abbrev_map):
    """The abbreviation pass as one case-insensitive `re.sub` of the
    longest-key-first alternation between `[\\w'’]` lookarounds. A match
    whose `.lower()` is no key raises KeyError."""
    import re

    if not abbrev_map:
        return lambda text: text
    folded = {k.lower(): v for k, v in abbrev_map.items()}
    alts = "|".join(re.escape(k) for k in sorted(folded, key=len, reverse=True))
    pattern = re.compile(rf"(?<![\w'’])(?:{alts})(?![\w'’])", re.IGNORECASE)
    return lambda text: pattern.sub(lambda m: folded[m.group(0).lower()], text)


# ---------------------------------------------------------------------------
# reference feature extractors: numpy counts, a per-call emotion index, an
# `any()` over the negator window and a per-row `np.linalg.norm`


def oracle_liwc_features(tokens, lex):
    """Word count followed by percent-of-tokens scores per category."""
    import numpy as np

    n = len(tokens)
    counts = np.bincount(
        [i for tok in tokens for i in lex._hits(tok)], minlength=len(lex.categories)
    )
    return np.concatenate(([float(n)], 100.0 * counts / max(1, n)))


def oracle_emotion_features(tokens, lex):
    """Raw per-emotion token counts in EMOTIONS order."""
    import numpy as np

    from ssd.features import EMOTIONS

    counts = np.zeros(len(EMOTIONS))
    index = {e: i for i, e in enumerate(EMOTIONS)}
    for tok in tokens:
        for emotion in lex.entries.get(tok, ()):
            counts[index[emotion]] += 1
    return counts


def oracle_sentiment_scores(toks, lex):
    """(neg, neu, pos) proportions; an empty or valence-free text scores
    fully neutral."""
    import math

    pos_mass = neg_mass = 0.0
    neutral = 0
    for i, tok in enumerate(toks):
        if tok in lex.negators or tok in lex.boosters:
            continue
        v = lex.entries.get(tok, 0.0)
        if v == 0.0:
            neutral += 1
            continue
        if i > 0 and toks[i - 1] in lex.boosters:
            v += math.copysign(lex.boosters[toks[i - 1]], v)
        if any(t in lex.negators for t in toks[max(0, i - 3) : i]):
            v *= lex.negation_factor
        if v > 0:
            pos_mass += v + 1
        elif v < 0:
            neg_mass += -v + 1
    denom = pos_mass + neg_mass + neutral
    if denom == 0:
        return (0.0, 1.0, 0.0)
    return (neg_mass / denom, neutral / denom, pos_mass / denom)


def oracle_transform_tfidf_corpus(v, corpus):
    """Count x idf per document, each row divided by its `np.linalg.norm`
    where that is positive."""
    import numpy as np
    from scipy import sparse

    indptr = [0]
    indices = []
    rows_data = [np.empty(0)]
    for tokens in corpus:
        counts = {}
        for tok in tokens:
            j = v.vocabulary.get(tok)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        cols = sorted(counts)
        vals = np.array([counts[j] * v.idf[j] for j in cols])
        norm = np.linalg.norm(vals)
        if norm > 0:
            vals = vals / norm
        indices.extend(cols)
        rows_data.append(vals)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (np.concatenate(rows_data), indices, indptr),
        shape=(len(indptr) - 1, len(v.vocabulary)),
    )


def oracle_rbf_kernel(A, B, gamma):
    """The RBF kernel as one expression, with its four temporaries."""
    import numpy as np

    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def two_buffer_rbf_kernel(A, B, gamma):
    """The RBF kernel with its squared distances in a second len(A) x len(B)
    buffer beside the products."""
    import numpy as np

    cross = 2.0 * A @ B.T
    sq = np.add(np.sum(A * A, axis=1)[:, None], np.sum(B * B, axis=1)[None, :])
    np.subtract(sq, cross, out=sq)
    np.maximum(sq, 0.0, out=sq)
    np.multiply(sq, -gamma, out=sq)
    return np.exp(sq, out=sq)


def reference_simplified_smo(K, targets, C, tol, max_passes, rng):
    """Simplified SMO: visit every row in turn, recompute its error, pair a
    KKT violator with a random partner, and stop after `max_passes`
    consecutive passes that change nothing. Returns (alphas, b)."""
    import numpy as np

    n = K.shape[0]
    alphas = np.zeros(n)
    b = 0.0
    passes = 0
    while passes < max_passes:
        changed = 0
        for i in range(n):
            err_i = float((alphas * targets) @ K[:, i]) + b - targets[i]
            if (targets[i] * err_i < -tol and alphas[i] < C) or (
                targets[i] * err_i > tol and alphas[i] > 0
            ):
                j = int(rng.integers(0, n - 1))
                if j >= i:
                    j += 1
                err_j = float((alphas * targets) @ K[:, j]) + b - targets[j]
                alpha_i, alpha_j = alphas[i], alphas[j]
                if targets[i] != targets[j]:
                    low = max(0.0, alpha_j - alpha_i)
                    high = min(C, C + alpha_j - alpha_i)
                else:
                    low = max(0.0, alpha_i + alpha_j - C)
                    high = min(C, alpha_i + alpha_j)
                if low == high:
                    continue
                eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
                if eta >= 0:
                    continue
                new_j = alpha_j - targets[j] * (err_i - err_j) / eta
                new_j = min(high, max(low, new_j))
                if abs(new_j - alpha_j) < 1e-5:
                    continue
                new_i = alpha_i + targets[i] * targets[j] * (alpha_j - new_j)
                b1 = (
                    b
                    - err_i
                    - targets[i] * (new_i - alpha_i) * K[i, i]
                    - targets[j] * (new_j - alpha_j) * K[i, j]
                )
                b2 = (
                    b
                    - err_j
                    - targets[i] * (new_i - alpha_i) * K[i, j]
                    - targets[j] * (new_j - alpha_j) * K[j, j]
                )
                if 0 < new_i < C:
                    b = b1
                elif 0 < new_j < C:
                    b = b2
                else:
                    b = (b1 + b2) / 2.0
                alphas[i], alphas[j] = new_i, new_j
                changed += 1
        passes = passes + 1 if changed == 0 else 0
    return alphas, b


def smo_dual_objective(K, targets, alphas):
    """1/2 a.Qa - sum(a) with Q = (y y') * K, the objective SMO minimizes."""
    ay = alphas * targets
    return 0.5 * float(ay @ K @ ay) - float(alphas.sum())


def smo_gap(K, targets, alphas, C):
    """m(a) - M(a): the largest -y.G over I_up less the smallest over
    I_low, with the gradient G = Qa - 1 computed afresh."""
    import numpy as np

    score = -targets * (targets * (K @ (alphas * targets)) - 1.0)
    up = np.where(targets > 0, alphas < C, alphas > 0)
    low = np.where(targets > 0, alphas > 0, alphas < C)
    return float(score[up].max() - score[low].min())


# ---------------------------------------------------------------------------
# tree oracles: one tree grown node by node, each split found by a loop over
# every threshold, and each tree walked row by row


def oracle_gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(p @ p)


def oracle_best_split(X, y_idx, rows, n_classes, max_features, rng):
    """The split search as one Python loop over every threshold of every
    sampled feature."""
    import numpy as np

    d = X.shape[1]
    if max_features is not None and max_features < d:
        feats = np.sort(rng.choice(d, size=max_features, replace=False))
    else:
        feats = np.arange(d)
    parent_counts = np.bincount(y_idx[rows], minlength=n_classes)
    n = len(rows)
    best = None
    for f in feats:
        values = X[rows, f]
        order = np.argsort(values, kind="stable")
        sorted_rows = rows[order]
        sorted_values = values[order]
        left_counts = np.zeros(n_classes)
        right_counts = parent_counts.astype(float).copy()
        for split_at in range(1, n):
            cls = y_idx[sorted_rows[split_at - 1]]
            left_counts[cls] += 1
            right_counts[cls] -= 1
            if sorted_values[split_at] == sorted_values[split_at - 1]:
                continue
            weighted = (
                split_at * oracle_gini(left_counts)
                + (n - split_at) * oracle_gini(right_counts)
            ) / n
            if best is None or weighted < best[0] - 1e-15:
                low, high = sorted_values[split_at - 1], sorted_values[split_at]
                threshold = (low + high) / 2.0
                if threshold >= high:
                    threshold = low
                best = (weighted, int(f), float(threshold))
    if best is None:
        return None
    return best[1], best[2]


def oracle_grow_tree(X, y_idx, n_classes, min_split, max_depth, max_features, rng):
    """One tree grown depth first, one node at a time: each node's class
    counts from its rows, its split from `oracle_best_split`. The right
    child is pushed first, so the left subtree is grown and numbered first."""
    import numpy as np

    feature, threshold, left, right, proba = [], [], [], [], []

    def add():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        proba.append(None)
        return len(feature) - 1

    stack = [(add(), np.arange(len(y_idx)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        counts = np.bincount(y_idx[rows], minlength=n_classes).astype(float)
        proba[node] = counts / counts.sum()
        if (len(rows) < min_split or (max_depth is not None and depth >= max_depth)
                or oracle_gini(counts) == 0.0):
            continue
        split = oracle_best_split(X, y_idx, rows, n_classes, max_features, rng)
        if split is None:
            continue
        feature[node], threshold[node] = split
        mask = X[rows, split[0]] <= split[1]
        left[node], right[node] = add(), add()
        stack.append((right[node], rows[~mask], depth + 1))
        stack.append((left[node], rows[mask], depth + 1))
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "proba": np.vstack(proba),
    }


def oracle_forest_state(X, y, classes, spec, n_trees, bootstrap, min_split, max_depth,
                        rngs=None):
    """A forest grown one tree after another: tree t by `oracle_grow_tree`
    on its own RNG stream ("tree", t), from a bootstrap sample of the rows
    or from every row. Each tree's RNG is appended to `rngs` when given."""
    import numpy as np

    from ssd.models import _resolve_max_features

    index = {c: i for i, c in enumerate(classes)}
    y_idx = np.array([index[v] for v in y])
    max_features = _resolve_max_features(spec.hyper("max_features"), X.shape[1])
    n = X.shape[0]
    trees = []
    for t in range(n_trees):
        rng = derive_rng(spec.seed, "tree", t)
        rows = rng.integers(0, n, size=n) if bootstrap else slice(None)
        trees.append(oracle_grow_tree(X[rows], y_idx[rows], len(classes), min_split,
                                      max_depth, max_features, rng))
        if rngs is not None:
            rngs.append(rng)
    return {"trees": trees}


def oracle_tree_proba(tree, X):
    """The tree walk as one Python loop over rows."""
    import numpy as np

    out = np.empty((X.shape[0], tree["proba"].shape[1]))
    for i, row in enumerate(X):
        node = 0
        while tree["feature"][node] >= 0:
            if row[tree["feature"][node]] <= tree["threshold"][node]:
                node = tree["left"][node]
            else:
                node = tree["right"][node]
        out[i] = tree["proba"][node]
    return out


def oracle_forest_proba(state, X):
    """The mean of the trees' leaf distributions, summed tree after tree."""
    trees = state["trees"]
    return sum(oracle_tree_proba(tree, X) for tree in trees) / len(trees)
