"""Seeded input generators for the benchmark.

Nothing here imports the program: the generators return plain tuples
(id, text, support, target, group) and write CSV, text and lexicon files,
so the program sees only files while the ground truth stays with the
benchmark. Every random choice flows from the seed given on the command
line; the vocabulary itself is fixed so that seeds change the comments,
not the size of the problem.
"""

from __future__ import annotations

import csv
import os
import zlib

import numpy as np

HEADER = ("id", "text", "support", "target", "group")


def _rng(seed: int, *path: str) -> np.random.Generator:
    entropy = [seed & 0xFFFFFFFF] + [zlib.crc32(p.encode("utf-8")) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def write_csv(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


# ---------------------------------------------------------------------------
# desk scale: the planted hierarchical recipe of the unit-test corpus

DESK_SUPPORT = (
    "bless", "hope", "strong", "prayer", "courage", "proud",
    "hero", "beautiful", "amazing", "love", "caring", "respect",
)
DESK_NEGATIVE = (
    "hate", "awful", "trash", "ugly", "worst", "stupid",
    "disgusting", "shame", "pathetic", "garbage", "liar", "fraud",
)
DESK_FILLER = (
    "video", "music", "channel", "watch", "comment", "people", "world",
    "time", "life", "day", "thing", "moment", "story", "voice", "sound",
    "camera", "clip", "scene", "part", "end",
)
DESK_INDIVIDUAL = ("friend", "brother", "sister", "buddy", "neighbor", "teacher")
DESK_GROUP = ("community", "everyone", "nation", "folks", "families", "crowd")
DESK_FLAVOR = {
    "Nation": ("homeland", "country", "flag", "anthem"),
    "Religion": ("faith", "church", "mosque", "temple"),
    "BlackCommunity": ("heritage", "culture", "roots", "ancestors"),
    "LGBTQ": ("pride", "rainbow", "queer", "identity"),
    "Women": ("women", "mothers", "daughters", "girls"),
    "Other": ("planet", "animals", "veterans", "farmers"),
}
GROUPS = tuple(DESK_FLAVOR)

# entries are written over the stemmed vocabulary the pipeline produces
DESK_CATEGORY_DIC = """%
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
DESK_EMOTION_TSV = """love\tjoy\t1
hope\tanticipation\t1
bless\tjoy\t1
bless\ttrust\t1
hate\tanger\t1
aw\tdisgust\t1
trash\tdisgust\t1
love\tpositive\t1
"""
DESK_VALENCE_TSV = """love\t3.2
hope\t1.9
bless\t2.1
amaz\t2.8
hate\t-2.7
aw\t-2.0
trash\t-2.1
"""


def desk_corpus(n: int, seed: int, stream: str = "desk") -> list[tuple]:
    """Planted corpus: NSS always carries 2-5 negative tokens; SS draws 3-6
    support tokens with probability 0.8 and never a negative one, then
    three target tokens and, for Group, three flavor tokens."""
    rng = _rng(seed, stream)
    rows = []
    for i in range(n):
        words = list(rng.choice(DESK_FILLER, size=4))
        if rng.random() < 0.5:
            if rng.random() < 0.8:
                words += list(rng.choice(DESK_SUPPORT, size=int(rng.integers(3, 7))))
            if rng.random() < 0.6:
                words += list(rng.choice(DESK_GROUP, size=3))
                group = GROUPS[int(rng.integers(0, len(GROUPS)))]
                words += list(rng.choice(DESK_FLAVOR[group], size=3))
                label = ("SS", "Group", group)
            else:
                words += list(rng.choice(DESK_INDIVIDUAL, size=3))
                label = ("SS", "Individual", None)
        else:
            words += list(rng.choice(DESK_NEGATIVE, size=int(rng.integers(2, 6))))
            label = ("NSS", None, None)
        rng.shuffle(words)
        rows.append((f"d{i:05d}", " ".join(words)) + label)
    return rows


def write_desk_lexicons(directory: str) -> dict[str, str]:
    paths = {}
    for key, name, body in (
        ("category", "desk.dic", DESK_CATEGORY_DIC),
        ("emotion", "desk_emo.tsv", DESK_EMOTION_TSV),
        ("valence", "desk_val.tsv", DESK_VALENCE_TSV),
    ):
        paths[key] = os.path.join(directory, name)
        with open(paths[key], "w", encoding="utf-8") as fh:
            fh.write(body)
    return paths


# ---------------------------------------------------------------------------
# paper scale: ~10k comments with the reference label marginals

PAPER_NSS = 7762
PAPER_INDIVIDUAL = 417
PAPER_GROUPS = {
    "Nation": 980, "Other": 512, "LGBTQ": 155,
    "BlackCommunity": 115, "Women": 24, "Religion": 18,
}
# the reference marginals do not nest: one Group item has no category and
# fourteen SS items have no target (SS 2236, Group 1805)
PAPER_GROUP_NO_CATEGORY = 1
PAPER_SS_NO_TARGET = 14

# signal lemmas; each is inflected so stemming has work to do
SUPPORT_LEMMAS = (
    "bless", "hope", "strong", "pray", "courage", "proud", "hero", "love",
    "care", "respect", "support", "stand", "believe", "inspire", "heal",
    "thank", "brave", "kind", "trust", "cheer",
)
NEGATIVE_LEMMAS = (
    "hate", "awful", "trash", "ugly", "stupid", "disgust", "shame",
    "pathetic", "garbage", "liar", "fraud", "boring", "annoy", "fake",
    "clickbait", "cringe", "waste", "terrible",
)
INDIVIDUAL_LEMMAS = (
    "brother", "sister", "friend", "buddy", "neighbor", "teacher", "mom",
    "dad", "bro", "girl", "man", "queen",
)
GROUP_LEMMAS = (
    "community", "everyone", "people", "folk", "family", "crowd",
    "together", "all", "citizen", "generation",
)
PAPER_FLAVOR = {
    "Nation": ("homeland", "country", "flag", "anthem", "nation", "india", "patriot"),
    "Religion": ("faith", "church", "mosque", "temple", "god", "prayerful", "belief"),
    "BlackCommunity": ("heritage", "culture", "roots", "ancestor", "black", "melanin"),
    "LGBTQ": ("pride", "rainbow", "queer", "identity", "gay", "trans", "lesbian"),
    "Women": ("women", "mother", "daughter", "sisterhood", "feminist", "lady"),
    "Other": ("planet", "animal", "veteran", "farmer", "student", "worker", "doctor"),
}
INFLECTIONS = ("", "s", "ed", "ing", "er", "ly", "ness", "ful", "ation", "ment", "ive", "ize")
ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s",
          "t", "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "pl", "pr",
          "sh", "st", "str", "th", "tr")
NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ee", "oo", "ou")
CODAS = ("", "", "n", "r", "l", "t", "m", "s", "nd", "rt", "st", "ck", "ng")
FILLER_LEMMAS = 1500
ZIPF_EXPONENT = 1.07

# share of items whose planted signal is swapped for another class's
NOISE = 0.06
PUNCTUATION = ("!", "!!", ".", "...", "?", " :)")


def _inflect(lemma: str, suffix: str) -> str:
    if not suffix:
        return lemma
    if lemma.endswith("e") and suffix[0] in "aeiou":
        return lemma[:-1] + suffix
    return lemma + suffix


class PaperVocabulary:
    """Fixed vocabulary: Zipfian filler word forms, inflected signal words,
    stop words and the bundled emoji and abbreviation symbols."""

    def __init__(self, data_dir: str):
        rng = _rng(0, "vocabulary")
        lemmas: list[str] = []
        seen = set(SUPPORT_LEMMAS + NEGATIVE_LEMMAS + INDIVIDUAL_LEMMAS + GROUP_LEMMAS)
        while len(lemmas) < FILLER_LEMMAS:
            parts = int(rng.integers(1, 4))
            word = "".join(
                rng.choice(ONSETS) + rng.choice(NUCLEI) + rng.choice(CODAS)
                for _ in range(parts)
            )
            if 3 <= len(word) <= 12 and word not in seen:
                seen.add(word)
                lemmas.append(word)
        forms: list[str] = []
        for lemma in lemmas:
            k = int(rng.integers(1, 6))
            for suffix in rng.choice(INFLECTIONS, size=k, replace=False):
                forms.append(_inflect(lemma, str(suffix)))
        self.filler_lemmas = tuple(lemmas)
        # frequency rank is independent of the lemma a form comes from
        self.filler = np.array(list(dict.fromkeys(forms)))[rng.permutation(len(set(forms)))]
        weights = np.arange(1, len(self.filler) + 1, dtype=float) ** -ZIPF_EXPONENT
        self.filler_cdf = np.cumsum(weights / weights.sum())
        self.stopwords = np.array(_read_lines(os.path.join(data_dir, "stopwords.txt")))
        self.emoji = np.array(_read_keys(os.path.join(data_dir, "emoji_map.tsv")))
        self.abbrev = np.array(_read_keys(os.path.join(data_dir, "abbrev_map.tsv")))
        # every signal lemma appears in four forms with equal chance
        self.signal = {
            name: np.array([_inflect(lemma, s) for lemma in lemmas for s in ("", "s", "ed", "ing")])
            for name, lemmas in (("support", SUPPORT_LEMMAS), ("negative", NEGATIVE_LEMMAS),
                                 ("individual", INDIVIDUAL_LEMMAS), ("group", GROUP_LEMMAS))
        }
        self.flavor = {g: np.array(words) for g, words in PAPER_FLAVOR.items()}

    def zipf_words(self, rng, k: int) -> list[str]:
        picks = np.searchsorted(self.filler_cdf, rng.random(k) * self.filler_cdf[-1])
        return self.filler[picks].tolist()


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [ln.strip() for ln in fh if ln.strip()]


def _read_keys(path: str) -> list[str]:
    return [ln.split("\t")[0] for ln in _read_lines(path)]


def _pick(rng, pool: np.ndarray, k: int) -> list[str]:
    return pool[rng.integers(0, len(pool), k)].tolist()


def _paper_text(rng, vocab: PaperVocabulary, label: tuple) -> str:
    support, target, group = label
    u = rng.random(8)
    sizes = rng.integers((4, 2, 1, 1, 1, 1, 0, 1), (16, 8, 4, 3, 4, 3, len(GROUPS), 4))
    words = vocab.zipf_words(rng, int(sizes[0]))
    words += _pick(rng, vocab.stopwords, int(sizes[1]))
    polarity = "support" if (support == "SS") != (u[0] < NOISE) else "negative"
    words += _pick(rng, vocab.signal[polarity], int(sizes[2]))
    if target is not None:
        aim = "group" if (target == "Group") != (u[1] < NOISE) else "individual"
        words += _pick(rng, vocab.signal[aim], int(sizes[3]))
    if group is not None:
        flavor = GROUPS[int(sizes[6])] if u[2] < NOISE else group
        words += _pick(rng, vocab.flavor[flavor], int(sizes[4]))
    rng.shuffle(words)
    if u[3] < 0.35:
        for a in _pick(rng, vocab.abbrev, int(sizes[5])):
            words.insert(int(rng.integers(0, len(words) + 1)), a)
    if u[4] < 0.3:
        words[0] = words[0].capitalize()
    text = " ".join(words)
    if u[5] < 0.4:
        text += PUNCTUATION[int(u[6] * len(PUNCTUATION))]
    if u[7] < 0.45:
        text += " " + "".join(_pick(rng, vocab.emoji, int(sizes[7])))
    return text


def paper_labels() -> list[tuple]:
    """The reference label multiset, in a fixed order."""
    labels = [("NSS", None, None)] * PAPER_NSS
    labels += [("SS", "Individual", None)] * PAPER_INDIVIDUAL
    for group, count in PAPER_GROUPS.items():
        labels += [("SS", "Group", group)] * count
    labels += [("SS", "Group", None)] * PAPER_GROUP_NO_CATEGORY
    labels += [("SS", None, None)] * PAPER_SS_NO_TARGET
    return labels


def paper_corpus(seed: int, vocab: PaperVocabulary, stream: str = "paper") -> list[tuple]:
    """~10k comments with exactly the reference label counts."""
    rng = _rng(seed, stream)
    labels = paper_labels()
    order = rng.permutation(len(labels))
    rows = []
    for i, j in enumerate(order):
        label = labels[int(j)]
        # incomplete labels still carry the signal of the stages they have
        text = _paper_text(rng, vocab, label)
        rows.append((f"p{i:05d}", text) + label)
    return rows


def paper_unseen(seed: int, vocab: PaperVocabulary, n: int, stream: str) -> list[tuple]:
    """Unseen comments with complete labels drawn from the reference shares."""
    rng = _rng(seed, stream)
    pool = [lab for lab in paper_labels() if not (
        (lab[0] == "SS" and lab[1] is None) or (lab[1] == "Group" and lab[2] is None))]
    rows = []
    for i in range(n):
        label = pool[int(rng.integers(0, len(pool)))]
        rows.append((f"{stream}{i:05d}", _paper_text(rng, vocab, label)) + label)
    return rows


def write_paper_lexicons(directory: str, vocab: PaperVocabulary) -> dict[str, str]:
    """Category, emotion and valence lexicons over the generated vocabulary:
    signal lemmas plus a fixed sample of filler lemmas, with `*` prefix
    patterns in the category file as real dictionaries have."""
    rng = _rng(0, "lexicons")
    filler = list(vocab.filler_lemmas)
    categories = {
        "posemo": SUPPORT_LEMMAS,
        "negemo": NEGATIVE_LEMMAS,
        "social": INDIVIDUAL_LEMMAS + GROUP_LEMMAS,
        "relig": PAPER_FLAVOR["Religion"],
        "home": PAPER_FLAVOR["Nation"] + PAPER_FLAVOR["Other"],
        "work": (),
    }
    entries: dict[str, list[int]] = {}
    for cid, (name, words) in enumerate(categories.items(), start=1):
        extra = [str(w) for w in rng.choice(filler, size=30, replace=False)]
        for w in list(words) + extra:
            pattern = w + "*" if rng.random() < 0.15 else w
            entries.setdefault(pattern, []).append(cid)
    cat_path = os.path.join(directory, "paper.dic")
    with open(cat_path, "w", encoding="utf-8") as fh:
        fh.write("%\n")
        for cid, name in enumerate(categories, start=1):
            fh.write(f"{cid}\t{name}\n")
        fh.write("%\n")
        for pattern, ids in entries.items():
            fh.write(pattern + "\t" + "\t".join(map(str, ids)) + "\n")

    emotions = ("anger", "anticipation", "disgust", "fear", "joy", "sadness", "surprise", "trust")
    emo_path = os.path.join(directory, "paper_emo.tsv")
    with open(emo_path, "w", encoding="utf-8") as fh:
        for lemma in SUPPORT_LEMMAS:
            for emo in ("joy", "trust"):
                fh.write(f"{lemma}\t{emo}\t1\n")
        for lemma in NEGATIVE_LEMMAS:
            for emo in ("anger", "disgust"):
                fh.write(f"{lemma}\t{emo}\t1\n")
        for lemma in rng.choice(filler, size=600, replace=False):
            for emo in rng.choice(emotions, size=int(rng.integers(1, 3)), replace=False):
                fh.write(f"{lemma}\t{emo}\t{int(rng.random() < 0.7)}\n")

    val_path = os.path.join(directory, "paper_val.tsv")
    with open(val_path, "w", encoding="utf-8") as fh:
        for lemma in SUPPORT_LEMMAS:
            fh.write(f"{lemma}\t{rng.uniform(1.0, 3.5):.3f}\n")
        for lemma in NEGATIVE_LEMMAS:
            fh.write(f"{lemma}\t{-rng.uniform(1.0, 3.5):.3f}\n")
        for lemma in rng.choice(filler, size=900, replace=False):
            fh.write(f"{lemma}\t{rng.uniform(-3.0, 3.0):.3f}\n")
    return {"category": cat_path, "emotion": emo_path, "valence": val_path}
