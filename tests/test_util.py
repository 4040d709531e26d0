"""Files a user names: every loader maps a path it cannot open to a
DataError that names the kind of file, never a raw OSError."""

import re

import pytest

from ssd import cascade, corpus, features, ingest, models, pipeline, preprocess
from ssd.errors import DataError, FormatError


def _valence(tmp_path):
    path = tmp_path / "val.tsv"
    path.write_text("love\t3.2\n")
    return str(path)


LOADERS = [
    ("dataset", ".csv", lambda p, tmp: corpus.load_dataset(p)),
    ("dataset", ".jsonl", lambda p, tmp: corpus.load_dataset(p)),
    ("category lexicon", ".dic", lambda p, tmp: features.load_category_lexicon(p)),
    ("emotion lexicon", ".tsv", lambda p, tmp: features.load_emotion_lexicon(p)),
    ("valence lexicon", ".tsv", lambda p, tmp: features.load_valence_lexicon(p)),
    ("negators", ".txt",
     lambda p, tmp: features.load_valence_lexicon(_valence(tmp), negators_path=p)),
    ("boosters", ".tsv",
     lambda p, tmp: features.load_valence_lexicon(_valence(tmp), boosters_path=p)),
    ("synonyms", ".txt", lambda p, tmp: ingest.load_synonyms(p)),
    ("stop-word", ".txt", lambda p, tmp: preprocess.load_stopwords(p)),
    ("map", ".tsv", lambda p, tmp: preprocess.load_tsv_map(p)),
    ("model", ".json", lambda p, tmp: models.load_model(p)),
    ("pipeline", ".json", lambda p, tmp: pipeline.load_pipeline(p)),
    ("cascade", ".json", lambda p, tmp: cascade.load_cascade(p)),
]


@pytest.mark.parametrize("what", ["missing", "directory"])
@pytest.mark.parametrize(
    "kind,suffix,load", LOADERS, ids=[f"{k}{s}" for k, s, _ in LOADERS]
)
def test_unopenable_input_is_a_data_error(tmp_path, kind, suffix, load, what):
    path = tmp_path / f"input{suffix}"
    if what == "directory":
        path.mkdir()
    with pytest.raises(DataError, match=re.escape(f"{kind} file")) as info:
        load(str(path), tmp_path)
    assert str(path) in str(info.value)


ENVELOPES = [loader for loader in LOADERS if loader[1] == ".json"]


@pytest.mark.parametrize("body", [b"\xff\xfe{}", b"{not json", b"[1, 2]",
                                  b'{"format": "pickle-v9"}'])
@pytest.mark.parametrize("kind,suffix,load", ENVELOPES, ids=[k for k, _, _ in ENVELOPES])
def test_unreadable_envelope_is_a_format_error(tmp_path, kind, suffix, load, body):
    path = tmp_path / "saved.json"
    path.write_bytes(body)
    with pytest.raises(FormatError):
        load(str(path), tmp_path)
