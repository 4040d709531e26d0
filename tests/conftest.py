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
